//! The lint soundness oracle: `spike-lint`'s error-severity checks are
//! validated against the shadow simulator and against seeded defects.
//!
//! Three properties tie the static checker to ground truth:
//!
//! 1. *No false negatives the simulator can see*: a lint-clean runnable
//!    program never trips the shadow simulator's uninitialized-read
//!    detector, and shadow execution matches plain execution.
//! 2. *Injected defects are found*: every program the generator seeds
//!    with a defect is flagged — in the defective routine, on the
//!    defective register.
//! 3. *No error-severity false positives*: every default generator
//!    profile lints clean (see `tests/lint_clean.rs` for the full-scale
//!    version).

use proptest::prelude::*;

use spike::lint::{lint, Check, Severity};
use spike::sim::Outcome;
use spike::synth::{generate_executable, generate_executable_with_defect, DefectKind};

const FUEL: u64 = 5_000_000;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Lint-clean programs never read uninitialized registers at runtime,
    /// on any executed path, and shadow tracking does not perturb
    /// behaviour.
    #[test]
    fn lint_clean_programs_never_trap_in_shadow_mode(
        seed in any::<u64>(),
        routines in 2usize..8,
    ) {
        let program = generate_executable(seed, routines);
        let report = lint(&program);
        prop_assert!(
            report.is_clean(),
            "generator produced a program lint rejects (seed {}): {:?}",
            seed,
            report.diagnostics().iter()
                .filter(|d| d.severity == Severity::Error)
                .collect::<Vec<_>>()
        );

        let shadow = spike::sim::run_shadow(&program, FUEL);
        let Outcome::Halted { output: shadow_out, .. } = shadow else {
            return Err(TestCaseError::fail(format!("shadow run did not halt: {shadow:?}")));
        };
        let Outcome::Halted { output: plain_out, .. } = spike::sim::run(&program, FUEL) else {
            return Err(TestCaseError::fail("plain run did not halt".to_string()));
        };
        prop_assert_eq!(shadow_out, plain_out);
    }

    /// A seeded uninitialized read is flagged by lint at the injected
    /// routine and register, and actually traps in the shadow simulator —
    /// the finding describes a real runtime event, not an artifact.
    #[test]
    fn injected_uninit_reads_are_flagged_and_trap(seed in any::<u64>()) {
        let (program, d) = generate_executable_with_defect(seed, 5, DefectKind::UninitRead);
        let report = lint(&program);
        prop_assert!(
            report.diagnostics().iter().any(|f| {
                f.check == Check::UninitRead
                    && report.routine(f) == d.routine
                    && f.reg == Some(d.reg)
                    && !report.witness(f).is_empty()
            }),
            "injected uninit read of {} in {} not flagged (seed {}); findings: {:?}",
            d.reg, d.routine, seed, report.diagnostics()
        );

        match spike::sim::run_shadow(&program, FUEL) {
            Outcome::Fault(spike::sim::Fault::UninitRead { reg, .. }) => {
                prop_assert_eq!(reg, d.reg);
            }
            other => {
                return Err(TestCaseError::fail(format!(
                    "shadow run did not trap on the injected read: {other:?}"
                )));
            }
        }
    }

    /// A seeded callee-saved clobber is flagged at the injected routine
    /// and register. (The clobber is behaviourally silent by construction
    /// — `crates/synth` verifies that — which is exactly why a static
    /// check has to find it.)
    #[test]
    fn injected_clobbers_are_flagged(seed in any::<u64>()) {
        let (program, d) =
            generate_executable_with_defect(seed, 5, DefectKind::CalleeSavedClobber);
        let report = lint(&program);
        prop_assert!(
            report.diagnostics().iter().any(|f| {
                f.check == Check::CalleeSavedClobber
                    && report.routine(f) == d.routine
                    && f.reg == Some(d.reg)
            }),
            "injected clobber of {} in {} not flagged (seed {}); findings: {:?}",
            d.reg, d.routine, seed, report.diagnostics()
        );
    }
}
