//! Workspace-level properties for the interprocedural stack-slot layer:
//! the lint checks, the per-slot shadow oracle, dead-stack-store
//! elimination, and the incremental re-analysis of slot summaries.
//!
//! The contract mirrors the register story one level down the memory
//! hierarchy: the static checks must be grounded by the per-slot shadow
//! simulator (clean programs never trap, seeded defects are flagged at
//! the exact routine and slot the generator reports), and the optimizer
//! pass the analysis feeds must preserve simulated behaviour on the
//! paper-calibrated benchmark profiles.

use proptest::prelude::*;

use spike::callgraph::CallGraph;
use spike::core::{analyze_with, AnalysisCache, AnalysisOptions};
use spike::lint::{lint, Check, Severity};
use spike::opt::{optimize_with, OptOptions};
use spike::program::{Program, Rewriter};
use spike::sim::{run, run_shadow_slots, Fault, Outcome};
use spike::synth::{generate_executable, generate_executable_with_defect, DefectKind};

const FUEL: u64 = 10_000_000;

/// Fuel for the profile programs, which are not built to halt: enough to
/// execute well past every routine at the small scale used here.
const PROFILE_FUEL: u64 = 200_000;

fn stack_only() -> OptOptions {
    OptOptions {
        dead_code: false,
        spills: false,
        realloc: false,
        stack: true,
        ..OptOptions::default()
    }
}

fn arb_profile_program() -> impl Strategy<Value = Program> {
    (any::<u64>(), prop_oneof![Just("compress"), Just("gcc"), Just("sqlservr"), Just("vortex")])
        .prop_map(|(seed, name)| {
            let p = spike::synth::profile(name).expect("known benchmark");
            spike::synth::generate(&p, 20.0 / p.routines as f64, seed)
        })
}

/// A runnable executable of up to 40 routines, or a small profile
/// program: the executables have no unknown call and no recursion, the
/// profiles have both.
fn arb_program() -> impl Strategy<Value = Program> {
    prop_oneof![
        (any::<u64>(), 1usize..40).prop_map(|(seed, size)| generate_executable(seed, size)),
        arb_profile_program(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A stack summary's two bits are ORs over the call graph: an
    /// unknown-target call makes its routine opaque, opacity reaches
    /// every caller, and so does unbalance, which also takes the
    /// caller's SP tracking and so escapes its frame.
    #[test]
    fn stack_summary_bits_reach_every_caller(program in arb_program()) {
        let analysis = analyze_with(&program, &AnalysisOptions::default());
        let cg = CallGraph::build(&program, &analysis.cfg);
        for (rid, routine) in program.iter() {
            let rs = analysis.stack.routine(rid);
            let name = routine.name();
            if cg.calls_unknown(rid) {
                prop_assert!(rs.summary.opaque, "{name} makes an unknown call");
            }
            for &c in cg.callees(rid) {
                let callee = analysis.stack.routine(c).summary;
                if callee.opaque {
                    prop_assert!(rs.summary.opaque, "{name} calls an opaque routine");
                }
                if callee.unbalanced {
                    prop_assert!(rs.summary.unbalanced, "{name} calls an unbalanced routine");
                    prop_assert!(rs.frame.escaped, "{name} keeps SP tracking");
                }
            }
        }
    }

    /// Soundness of the error-severity stack checks, grounded end to
    /// end: generated executables carry no stack lint errors, and the
    /// per-slot shadow simulator agrees — it runs them to completion
    /// with exactly the plain interpreter's output and step count.
    #[test]
    fn stack_lint_clean_implies_slot_shadow_clean(seed in any::<u64>(), size in 1usize..9) {
        let p = generate_executable(seed, size);
        let report = lint(&p);
        let errors: Vec<_> = report
            .diagnostics()
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .collect();
        prop_assert!(errors.is_empty(), "not lint-clean: {}", report.line(errors[0]));

        let Outcome::Halted { output: plain, steps: plain_steps } = run(&p, FUEL) else {
            panic!("generated executables must halt");
        };
        match run_shadow_slots(&p, FUEL) {
            Outcome::Halted { output, steps } => {
                prop_assert_eq!(output, plain);
                prop_assert_eq!(steps, plain_steps);
            }
            other => prop_assert!(false, "slot shadow diverged: {other:?}"),
        }
    }

    /// A planted uninitialized-slot read is flagged by the checker at the
    /// seeded routine and slot, with a witness path, and the shadow
    /// oracle confirms the fault at the same slot offset.
    #[test]
    fn injected_uninit_slot_read_is_flagged(seed in any::<u64>(), size in 1usize..7) {
        let (p, d) =
            generate_executable_with_defect(seed, size, DefectKind::UninitStackSlotRead);
        let report = lint(&p);
        let hit = report.diagnostics().iter().find(|f| {
            f.check == Check::UninitStackRead && report.routine(f) == d.routine && f.slot == d.slot
        });
        prop_assert!(
            hit.is_some(),
            "uninit slot read in {} at {:?} not flagged; got {:?}",
            d.routine, d.slot,
            report.diagnostics().iter().map(|f| report.line(f)).collect::<Vec<_>>()
        );
        prop_assert!(!report.witness(hit.unwrap()).is_empty(), "no witness path");

        match run_shadow_slots(&p, FUEL) {
            Outcome::Fault(Fault::UninitStackRead { routine, offset, .. }) => {
                prop_assert_eq!(routine, d.routine);
                prop_assert_eq!(Some(offset), d.slot);
            }
            other => prop_assert!(false, "shadow oracle missed the defect: {other:?}"),
        }
    }

    /// A planted store above the entry SP is flagged as out-of-frame at
    /// the seeded routine and slot, and the shadow oracle faults in the
    /// same routine.
    #[test]
    fn injected_out_of_frame_store_is_flagged(seed in any::<u64>(), size in 1usize..7) {
        let (p, d) = generate_executable_with_defect(seed, size, DefectKind::OutOfFrameStore);
        let report = lint(&p);
        let hit = report.diagnostics().iter().any(|f| {
            f.check == Check::OutOfFrameAccess && report.routine(f) == d.routine && f.slot == d.slot
        });
        prop_assert!(
            hit,
            "out-of-frame store in {} at {:?} not flagged; got {:?}",
            d.routine, d.slot,
            report.diagnostics().iter().map(|f| report.line(f)).collect::<Vec<_>>()
        );

        match run_shadow_slots(&p, FUEL) {
            Outcome::Fault(Fault::OutOfFrame { routine, .. }) => {
                prop_assert_eq!(routine, d.routine);
            }
            other => prop_assert!(false, "shadow oracle missed the defect: {other:?}"),
        }
    }

    /// Dead-stack-store elimination alone preserves the behaviour of
    /// runnable executables — and the slot shadow still passes on the
    /// optimized program, so the pass never manufactures an
    /// uninitialized read by deleting a store the shadow needed.
    #[test]
    fn stack_dse_preserves_executable_behaviour(seed in any::<u64>(), size in 1usize..9) {
        let p = generate_executable(seed, size);
        let Outcome::Halted { output: before, steps: before_steps } = run(&p, FUEL) else {
            panic!("generated executables must halt");
        };
        let (q, _) = optimize_with(&p, &stack_only()).expect("optimization succeeds");
        match run_shadow_slots(&q, FUEL) {
            Outcome::Halted { output, steps } => {
                prop_assert_eq!(output, before);
                prop_assert!(steps <= before_steps, "executed more instructions");
            }
            other => prop_assert!(false, "optimized program misbehaved: {other:?}"),
        }
    }

    /// [`AnalysisCache::reanalyze`] reproduces the from-scratch slot
    /// analysis bit for bit on the benchmark profiles — frame models,
    /// summaries, per-block slot sets and memory accounting — on both
    /// the clean path (no routine dirty) and after a real edit.
    #[test]
    fn reanalyze_stack_matches_scratch(program in arb_profile_program()) {
        let options = AnalysisOptions::default();
        let mut cache = AnalysisCache::new(options.clone());
        cache.analyze(&program);

        // Clean path: nothing dirty, the cached result must still match
        // a from-scratch run exactly.
        let clean = cache.reanalyze(&program, &[]).stack.clone();
        let scratch = analyze_with(&program, &options);
        prop_assert_eq!(&clean, &scratch.stack);

        // Dirty path: delete the last deletable instruction and compare
        // the seeded re-solve against scratch on the edited program.
        let victim = program
            .iter()
            .flat_map(|(_, r)| {
                (0..r.len() as u32).map(move |i| (r.addr() + i, &r.insns()[i as usize]))
            })
            .filter(|(addr, insn)| {
                !insn.is_terminator() && !program.relocations().contains_key(addr)
            })
            .last()
            .map(|(addr, _)| addr);
        prop_assert!(victim.is_some(), "profile programs have deletable instructions");
        let (edited, changed) =
            Rewriter::new(&program).delete(victim.unwrap()).finish().expect("delete relinks");

        let incremental = cache.reanalyze(&edited, &changed);
        let scratch = analyze_with(&edited, &options);
        prop_assert_eq!(&incremental.stack, &scratch.stack);
        prop_assert_eq!(incremental.stats.memory_bytes, scratch.stats.memory_bytes);
    }
}

/// Dead-stack-store elimination across every generator profile: the
/// pass must fire (delete at least one store) on at least half of them,
/// and the optimized program must preserve simulated behaviour.
///
/// The profiles are not built to halt, so behaviour is compared
/// structurally: where both runs carry output it must agree (the
/// optimized program executes the same trace minus deleted stores, so
/// an out-of-fuel original's output is a prefix of the optimized run's),
/// and a faulting original must fault the same way after optimization.
#[test]
fn stack_dse_fires_and_preserves_behaviour_on_profiles() {
    let profiles = spike::synth::profiles();
    let mut fired = Vec::new();
    for p in &profiles {
        let program = spike::synth::generate(p, 20.0 / p.routines as f64, 1);
        let before = run(&program, PROFILE_FUEL);
        let (optimized, report) = optimize_with(&program, &stack_only())
            .unwrap_or_else(|e| panic!("{}: optimization failed: {e}", p.name));
        if report.stack_stores_deleted > 0 {
            fired.push(p.name);
        }
        let after = run(&optimized, PROFILE_FUEL);
        match (&before, &after) {
            (
                Outcome::Halted { output: a, steps: sa },
                Outcome::Halted { output: b, steps: sb },
            ) => {
                assert_eq!(a, b, "{}: output changed", p.name);
                assert!(sb <= sa, "{}: executed more instructions", p.name);
            }
            // The optimized program executes the original trace minus
            // deleted stores, so with the same fuel it gets at least as
            // far: the original's output must be a prefix of whatever
            // the optimized run produced before halting, fuelling out,
            // or reaching a fault further along the trace.
            (Outcome::OutOfFuel { output: a, .. }, Outcome::Halted { output: b, .. })
            | (Outcome::OutOfFuel { output: a, .. }, Outcome::OutOfFuel { output: b, .. }) => {
                assert!(b.starts_with(a), "{}: output diverged", p.name);
            }
            (Outcome::OutOfFuel { .. }, Outcome::Fault(_)) => {}
            (Outcome::Fault(a), Outcome::Fault(b)) => {
                assert_eq!(
                    std::mem::discriminant(a),
                    std::mem::discriminant(b),
                    "{}: fault kind changed: {a:?} vs {b:?}",
                    p.name
                );
            }
            (a, b) => panic!("{}: behaviour changed: {a:?} vs {b:?}", p.name),
        }
    }
    assert!(
        fired.len() * 2 >= profiles.len(),
        "dead stack stores deleted on only {}/{} profiles: {fired:?}",
        fired.len(),
        profiles.len()
    );
}
