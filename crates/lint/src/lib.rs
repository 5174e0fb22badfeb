//! # spike-lint
//!
//! Interprocedural static checks over analyzed binaries — the first
//! consumer of the paper's dataflow facts that is not an optimizer pass.
//! The same meet-over-all-valid-paths summaries that justify deleting a
//! dead store (Figure 1) also justify *diagnosing*: a use no definition
//! reaches, a callee-saved register that leaks a write past an exit, a
//! store no valid path reads.
//!
//! Check catalogue (severities in parentheses; see DESIGN.md for the fact
//! dependencies):
//!
//! * `uninit-read` (error) — a register may be read before any definition
//!   reaches it, including the missing-return-value special case;
//! * `callee-saved-clobber` (error) — a routine overwrites a
//!   callee-saved register on a returning path without the §3.4
//!   save/restore pattern;
//! * `dead-store` / `dead-argument` (warning) — writes no valid path
//!   reads;
//! * `unreachable-routine` / `unreachable-block` (warning);
//! * `empty-jump-table` (error) / `duplicate-jump-targets` (warning);
//! * `malformed-image` (error) — the image failed to load or validate;
//! * `uninit-stack-read` (error) / `out-of-frame-access` (error) /
//!   `dead-stack-store` (warning) — the stack-slot analogues, driven by
//!   the interprocedural stack-slot analysis (`spike_core::StackAnalysis`).
//!
//! A finding is a small `Copy` record ([`Diagnostic`]): check, severity,
//! routine index, address, register, slot. The [`LintReport`] holds one
//! copy of each mentioned routine's name and a side table for the few
//! findings whose text needs more (a witness path, a note, an access
//! width); messages are written only when the report is rendered
//! ([`LintReport::to_json`], [`LintReport::to_human`]), so a report costs
//! 40 bytes a finding and a handful of allocations.
//!
//! The error-severity checks are grounded by a simulator oracle:
//! `spike_sim::run_shadow` tracks register definedness with the identical
//! use/def model (`run_shadow_slots` adds per-slot stack definedness for
//! the stack checks), and proptests assert lint-clean programs never
//! trap.
//!
//! # Example
//!
//! ```
//! use spike_isa::Reg;
//! use spike_program::ProgramBuilder;
//!
//! let mut b = ProgramBuilder::new();
//! b.routine("main").use_reg(Reg::T0).halt(); // t0 read, never written
//! let program = b.build()?;
//!
//! let report = spike_lint::lint(&program);
//! assert_eq!(report.errors(), 1);
//! let d = &report.diagnostics()[0];
//! assert_eq!(d.check, spike_lint::Check::UninitRead);
//! assert_eq!(d.reg, Some(Reg::T0));
//! // The text is written from the record when asked for.
//! assert_eq!(report.routine(d), "main");
//! assert_eq!(
//!     report.line(d),
//!     "error[uninit-read] main+0x400: register t0 may be read before it is initialized \
//!      (path: 0x400)"
//! );
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

use spike_callgraph::CallGraph;
use spike_cfg::ProgramCfg;
use spike_core::{Analysis, ProgramSummary};
use spike_program::{Program, RoutineId};

mod clobber;
mod dead;
mod diag;
mod frame;
mod json;
mod reach;
mod stack;
mod tables;
mod text;
mod uninit;

pub use diag::{Check, Diagnostic, LintReport, Severity};

/// Which checks to run. The default runs everything.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LintOptions {
    /// Uninitialized-register-read check (error severity).
    pub uninit: bool,
    /// Callee-saved-clobber check (error severity).
    pub clobber: bool,
    /// Dead-store / dead-argument warnings.
    pub dead: bool,
    /// Unreachable-routine / unreachable-block warnings.
    pub reach: bool,
    /// Jump-table checks.
    pub tables: bool,
    /// Stack-slot checks: uninit-stack-read / out-of-frame-access
    /// (errors) and dead-stack-store (warning).
    pub stack: bool,
}

impl Default for LintOptions {
    fn default() -> LintOptions {
        LintOptions {
            uninit: true,
            clobber: true,
            dead: true,
            reach: true,
            tables: true,
            stack: true,
        }
    }
}

/// Runs every check over `program`, analyzing it first.
pub fn lint(program: &Program) -> LintReport {
    lint_with(program, &spike_core::analyze(program), &LintOptions::default())
}

/// Runs the selected checks over `program` using an existing analysis
/// (which must have been computed over this exact program).
///
/// The call graph is built once here and shared by the checks that read
/// it; the routine-local checks borrow each CFG's flow table.
pub fn lint_with(program: &Program, analysis: &Analysis, options: &LintOptions) -> LintReport {
    let mut report = LintReport::default();
    let callgraph = CallGraph::build(program, &analysis.cfg);
    if options.uninit {
        uninit::check(program, analysis, &callgraph, &mut report);
    }
    if options.clobber {
        clobber::check(program, analysis, &mut report);
    }
    if options.dead {
        dead::check(program, analysis, &mut report);
    }
    if options.reach {
        reach::check_routines(program, &callgraph, &mut report);
        reach::check_blocks(program, analysis, &mut report);
    }
    if options.tables {
        tables::check(program, &mut report);
    }
    if options.stack {
        stack::check(program, analysis, &mut report);
    }
    report.finish(|r| program.routine(r).name());
    report
}

/// Runs the uninitialized-read check for a single routine.
///
/// The must-defined fixpoint converges over `routine`'s transitive
/// caller closure only, and only `routine`'s reads are flagged — the
/// findings are exactly the whole-program [`lint_with`] uninit findings
/// for that routine. `summary` and `cfg` are the program's analysis:
///
/// ```
/// use spike_isa::Reg;
/// use spike_program::ProgramBuilder;
///
/// let mut b = ProgramBuilder::new();
/// b.routine("main").call("f").use_reg(Reg::V0).halt(); // f defines v0?
/// b.routine("f").ret(); // no — the read of v0 is garbage
/// let program = b.build()?;
/// let main = program.routine_by_name("main").unwrap();
///
/// let analysis = spike_core::analyze(&program);
/// let report = spike_lint::uninit_routine(&program, &analysis.cfg, &analysis.summary, main);
/// assert_eq!(report.errors(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn uninit_routine(
    program: &Program,
    cfg: &ProgramCfg,
    summary: &ProgramSummary,
    routine: RoutineId,
) -> LintReport {
    let mut report = LintReport::default();
    uninit::check_routine(program, cfg, summary, routine, &mut report);
    report.finish(|r| program.routine(r).name());
    report
}

/// A report holding a single `malformed-image` error — used by callers
/// whose image fails to load or validate before any check can run.
pub fn malformed_image(message: impl Into<String>) -> LintReport {
    LintReport::malformed_image(message.into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use spike_isa::Reg;
    use spike_program::ProgramBuilder;

    fn findings(report: &LintReport, check: Check) -> Vec<&Diagnostic> {
        report.diagnostics().iter().filter(|d| d.check == check).collect()
    }

    #[test]
    fn uninitialized_read_is_flagged_with_a_witness() {
        let mut b = ProgramBuilder::new();
        b.routine("main").def(Reg::T1).use_reg(Reg::T0).halt();
        let p = b.build().unwrap();
        let r = lint(&p);
        let u = findings(&r, Check::UninitRead);
        assert_eq!(u.len(), 1);
        assert_eq!(u[0].reg, Some(Reg::T0));
        assert_eq!(u[0].severity, Severity::Error);
        let main_addr = p.routine(p.entry()).addr();
        assert_eq!(u[0].addr, Some(main_addr + 1));
        assert!(!r.witness(u[0]).is_empty());
    }

    #[test]
    fn defined_reads_are_clean() {
        let mut b = ProgramBuilder::new();
        b.routine("main").def(Reg::T0).use_reg(Reg::T0).halt();
        let p = b.build().unwrap();
        assert!(findings(&lint(&p), Check::UninitRead).is_empty());
    }

    #[test]
    fn callee_must_defs_cover_reads_after_the_call() {
        let mut b = ProgramBuilder::new();
        b.routine("main").call("f").use_reg(Reg::V0).halt();
        b.routine("f").def(Reg::V0).ret();
        let p = b.build().unwrap();
        let r = lint(&p);
        assert!(findings(&r, Check::UninitRead).is_empty());
        assert!(r.is_clean());
    }

    #[test]
    fn partial_definition_across_a_join_is_flagged() {
        // v0 is defined on the fall-through path only; the branch path
        // reaches the use with v0 undefined.
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .def(Reg::T0)
            .cond(spike_isa::BranchCond::Eq, Reg::T0, "skip")
            .def(Reg::V0)
            .label("skip")
            .use_reg(Reg::V0)
            .halt();
        let p = b.build().unwrap();
        let r = lint(&p);
        let u = findings(&r, Check::UninitRead);
        assert_eq!(u.len(), 1);
        assert_eq!(u[0].reg, Some(Reg::V0));
    }

    #[test]
    fn missing_return_value_names_the_callee() {
        let mut b = ProgramBuilder::new();
        b.routine("main").call("f").use_reg(Reg::V0).halt();
        b.routine("f").ret();
        let p = b.build().unwrap();
        let r = lint(&p);
        let u = findings(&r, Check::UninitRead);
        assert_eq!(u.len(), 1);
        assert_eq!(u[0].reg, Some(Reg::V0));
        let line = r.line(u[0]);
        assert!(line.contains("; note: return value expected from the call to f,"), "{line}");
    }

    #[test]
    fn callee_saved_clobber_is_flagged_at_its_origin() {
        let mut b = ProgramBuilder::new();
        b.routine("main").call("f").halt();
        b.routine("f").def(Reg::S0).ret();
        let p = b.build().unwrap();
        let r = lint(&p);
        let c = findings(&r, Check::CalleeSavedClobber);
        assert_eq!(c.len(), 1);
        assert_eq!(r.routine(c[0]), "f");
        assert_eq!(c[0].reg, Some(Reg::S0));
        assert_eq!(c[0].severity, Severity::Error);
    }

    #[test]
    fn saved_and_restored_registers_are_exempt() {
        let mut b = ProgramBuilder::new();
        b.routine("main").call("f").halt();
        b.routine("f")
            .lda(Reg::SP, Reg::SP, -16)
            .store(Reg::S0, Reg::SP, 0)
            .def(Reg::S0)
            .load(Reg::S0, Reg::SP, 0)
            .lda(Reg::SP, Reg::SP, 16)
            .ret();
        let p = b.build().unwrap();
        assert!(findings(&lint(&p), Check::CalleeSavedClobber).is_empty());
    }

    #[test]
    fn an_alternate_entrance_that_skips_the_save_voids_the_exemption() {
        let mut b = ProgramBuilder::new();
        b.routine("main").call("f").halt();
        b.routine("f")
            .lda(Reg::SP, Reg::SP, -16)
            .store(Reg::S0, Reg::SP, 0)
            .def(Reg::S0)
            .label("alt")
            .alt_entry("alt")
            .load(Reg::S0, Reg::SP, 0)
            .lda(Reg::SP, Reg::SP, 16)
            .ret();
        let p = b.build().unwrap();
        let r = lint(&p);
        let c = findings(&r, Check::CalleeSavedClobber);
        assert!(!c.is_empty(), "entering at `alt` restores garbage into the caller's s0");
        assert!(c.iter().all(|d| d.reg == Some(Reg::S0)));
    }

    #[test]
    fn the_entry_routine_is_exempt_from_the_clobber_check() {
        let mut b = ProgramBuilder::new();
        b.routine("main").def(Reg::S0).halt();
        let p = b.build().unwrap();
        assert!(findings(&lint(&p), Check::CalleeSavedClobber).is_empty());
    }

    #[test]
    fn dead_writes_warn_without_failing_the_lint() {
        let mut b = ProgramBuilder::new();
        b.routine("main").def(Reg::T0).halt();
        let p = b.build().unwrap();
        let r = lint(&p);
        let d = findings(&r, Check::DeadStore);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].reg, Some(Reg::T0));
        assert_eq!(d[0].severity, Severity::Warning);
        assert!(r.is_clean());
    }

    #[test]
    fn an_unread_argument_register_warns_as_dead_argument() {
        let mut b = ProgramBuilder::new();
        b.routine("main").def(Reg::A0).call("f").halt();
        b.routine("f").ret();
        let p = b.build().unwrap();
        let r = lint(&p);
        let d = findings(&r, Check::DeadArgument);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].reg, Some(Reg::A0));
    }

    #[test]
    fn uncalled_routines_and_skipped_blocks_warn() {
        let mut b = ProgramBuilder::new();
        b.routine("main").br("end").def(Reg::T0).label("end").halt();
        b.routine("orphan").ret();
        let p = b.build().unwrap();
        let r = lint(&p);
        let routines = findings(&r, Check::UnreachableRoutine);
        assert_eq!(routines.len(), 1);
        assert_eq!(r.routine(routines[0]), "orphan");
        let blocks = findings(&r, Check::UnreachableBlock);
        assert_eq!(blocks.len(), 1);
        assert_eq!(r.routine(blocks[0]), "main");
    }

    #[test]
    fn exported_routines_count_as_reachable_roots() {
        let mut b = ProgramBuilder::new();
        b.routine("main").halt();
        b.routine("api").export().ret();
        let p = b.build().unwrap();
        assert!(findings(&lint(&p), Check::UnreachableRoutine).is_empty());
    }

    #[test]
    fn jump_table_checks() {
        let mut b = ProgramBuilder::new();
        b.routine("main").def(Reg::T0).switch(Reg::T0, &[]);
        let p = b.build().unwrap();
        let r = lint(&p);
        assert_eq!(findings(&r, Check::EmptyJumpTable).len(), 1);
        assert!(!r.is_clean());

        let mut b = ProgramBuilder::new();
        b.routine("main").def(Reg::T0).switch(Reg::T0, &["l", "l"]).label("l").halt();
        let p = b.build().unwrap();
        let r = lint(&p);
        assert_eq!(findings(&r, Check::DuplicateJumpTargets).len(), 1);
        assert!(r.is_clean());
    }

    #[test]
    fn store_data_is_exempt_but_the_base_is_not() {
        // Storing an undefined register is the prologue save idiom; using
        // an undefined *base* is not.
        let mut b = ProgramBuilder::new();
        b.routine("main").store(Reg::S0, Reg::SP, 0).store(Reg::T0, Reg::T1, 0).halt();
        let p = b.build().unwrap();
        let r = lint(&p);
        let u = findings(&r, Check::UninitRead);
        assert_eq!(u.len(), 1);
        assert_eq!(u[0].reg, Some(Reg::T1));
    }

    #[test]
    fn generated_executables_lint_clean() {
        for seed in 0..8 {
            let p = spike_synth::generate_executable(seed, 4);
            let r = lint(&p);
            assert!(
                r.is_clean(),
                "seed {seed}: {:?}",
                r.diagnostics()
                    .iter()
                    .filter(|d| d.severity == Severity::Error)
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn injected_defects_are_flagged() {
        use spike_synth::DefectKind;
        for seed in 0..8 {
            let (p, d) =
                spike_synth::generate_executable_with_defect(seed, 4, DefectKind::UninitRead);
            let r = lint(&p);
            assert!(
                findings(&r, Check::UninitRead)
                    .iter()
                    .any(|f| r.routine(f) == d.routine && f.reg == Some(d.reg)),
                "seed {seed}: injected uninit read of {} in {} not flagged",
                d.reg,
                d.routine
            );

            let (p, d) = spike_synth::generate_executable_with_defect(
                seed,
                4,
                DefectKind::CalleeSavedClobber,
            );
            let r = lint(&p);
            assert!(
                findings(&r, Check::CalleeSavedClobber)
                    .iter()
                    .any(|f| r.routine(f) == d.routine && f.reg == Some(d.reg)),
                "seed {seed}: injected clobber of {} in {} not flagged",
                d.reg,
                d.routine
            );
        }
    }

    #[test]
    fn uninit_routine_matches_the_full_check() {
        use spike_synth::DefectKind;
        for seed in 0..4 {
            let (p, _) =
                spike_synth::generate_executable_with_defect(seed, 5, DefectKind::UninitRead);
            let analysis = spike_core::analyze(&p);
            let options = LintOptions {
                uninit: true,
                clobber: false,
                dead: false,
                reach: false,
                tables: false,
                stack: false,
            };
            let full = lint_with(&p, &analysis, &options);
            // A finding's record and its rendered line: the line holds its
            // message, witness and note.
            let finding = |report: &LintReport, d: &Diagnostic| {
                (d.check, d.severity, d.routine, d.addr, d.reg, d.slot, report.line(d))
            };
            for (rid, r) in p.iter() {
                let solo = uninit_routine(&p, &analysis.cfg, &analysis.summary, rid);
                let expected: Vec<_> = full
                    .diagnostics()
                    .iter()
                    .filter(|d| full.routine(d) == r.name())
                    .map(|d| finding(&full, d))
                    .collect();
                assert_eq!(
                    solo.diagnostics().iter().map(|d| finding(&solo, d)).collect::<Vec<_>>(),
                    expected,
                    "seed {seed}: scoped uninit findings diverge for {}",
                    r.name()
                );
            }
        }
    }

    #[test]
    fn uninit_stack_read_is_flagged_with_slot_and_witness() {
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .def(Reg::T0)
            .lda(Reg::SP, Reg::SP, -16)
            .cond(spike_isa::BranchCond::Eq, Reg::T0, "skip")
            .store(Reg::T0, Reg::SP, 8)
            .label("skip")
            .load(Reg::T1, Reg::SP, 8) // stored on one path only
            .lda(Reg::SP, Reg::SP, 16)
            .halt();
        let p = b.build().unwrap();
        let r = lint(&p);
        let u = findings(&r, Check::UninitStackRead);
        assert_eq!(u.len(), 1);
        assert_eq!(r.routine(u[0]), "main");
        assert_eq!(u[0].slot, Some(-8));
        assert_eq!(u[0].severity, Severity::Error);
        assert!(!r.witness(u[0]).is_empty());
        assert!(!r.is_clean());
    }

    #[test]
    fn dominating_store_keeps_the_stack_read_clean() {
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .def(Reg::T0)
            .lda(Reg::SP, Reg::SP, -16)
            .store(Reg::T0, Reg::SP, 8)
            .load(Reg::T1, Reg::SP, 8)
            .lda(Reg::SP, Reg::SP, 16)
            .halt();
        let p = b.build().unwrap();
        let r = lint(&p);
        assert!(findings(&r, Check::UninitStackRead).is_empty());
    }

    #[test]
    fn callee_initialization_of_the_caller_frame_is_not_trusted() {
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .lda(Reg::SP, Reg::SP, -16)
            .call("init")
            .load(Reg::T1, Reg::SP, 0)
            .lda(Reg::SP, Reg::SP, 16)
            .halt();
        b.routine("init").def(Reg::T0).store(Reg::T0, Reg::SP, 0).ret();
        let p = b.build().unwrap();
        let r = lint(&p);
        // The callee's store is itself an error, and it makes the callee
        // opaque: an opaque call defines no slot of its caller.
        assert_eq!(findings(&r, Check::OutOfFrameAccess).len(), 1, "{r}");
        assert_eq!(findings(&r, Check::UninitStackRead).len(), 1, "{r}");
    }

    #[test]
    fn out_of_frame_access_is_flagged() {
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .def(Reg::T0)
            .lda(Reg::SP, Reg::SP, -16)
            .store(Reg::T0, Reg::SP, 24) // entry-SP+8: caller memory
            .lda(Reg::SP, Reg::SP, 16)
            .halt();
        let p = b.build().unwrap();
        let r = lint(&p);
        let o = findings(&r, Check::OutOfFrameAccess);
        assert_eq!(o.len(), 1);
        assert_eq!(o[0].slot, Some(8));
        assert_eq!(o[0].severity, Severity::Error);
    }

    #[test]
    fn dead_stack_store_warns() {
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .def(Reg::T0)
            .lda(Reg::SP, Reg::SP, -16)
            .store(Reg::T0, Reg::SP, 0) // never read
            .store(Reg::T0, Reg::SP, 8)
            .load(Reg::T1, Reg::SP, 8)
            .lda(Reg::SP, Reg::SP, 16)
            .halt();
        let p = b.build().unwrap();
        let r = lint(&p);
        let d = findings(&r, Check::DeadStackStore);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].slot, Some(-16));
        assert_eq!(d[0].severity, Severity::Warning);
        assert!(r.is_clean());
    }

    #[test]
    fn escaped_frames_produce_no_stack_findings() {
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .lda(Reg::SP, Reg::SP, -16)
            .lda(Reg::T0, Reg::SP, 0) // SP leaks: frame escapes
            .load(Reg::T1, Reg::SP, 8) // would be uninit if judged
            .lda(Reg::SP, Reg::SP, 16)
            .halt();
        let p = b.build().unwrap();
        let r = lint(&p);
        assert!(findings(&r, Check::UninitStackRead).is_empty());
        assert!(findings(&r, Check::OutOfFrameAccess).is_empty());
    }

    #[test]
    fn generated_executables_are_stack_lint_clean() {
        for seed in 0..8 {
            let p = spike_synth::generate_executable(seed, 4);
            let r = lint(&p);
            let stack_errors: Vec<&Diagnostic> = r
                .diagnostics()
                .iter()
                .filter(|d| matches!(d.check, Check::UninitStackRead | Check::OutOfFrameAccess))
                .collect();
            assert!(stack_errors.is_empty(), "seed {seed}: {stack_errors:?}");
        }
    }

    #[test]
    fn json_output_has_the_stable_shape() {
        let mut b = ProgramBuilder::new();
        b.routine("main").use_reg(Reg::T0).halt();
        let p = b.build().unwrap();
        let json = lint(&p).to_json(Some("img.bin"));
        assert!(json.starts_with("{\"tool\":\"spike-lint\",\"version\":"));
        assert!(json.contains("\"image\":\"img.bin\""));
        assert!(json.contains("\"summary\":{\"errors\":1,\"warnings\":"));
        assert!(json.contains("\"check\":\"uninit-read\""));
        let malformed = malformed_image("bad magic");
        assert!(malformed.to_json(None).contains("\"check\":\"malformed-image\""));
        assert_eq!(malformed.errors(), 1);
    }
}
