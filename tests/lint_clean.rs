//! False-positive audit: every default generator profile must lint with
//! zero error-severity findings. The paper-calibrated profiles are the
//! closest thing the repo has to "real programs that are known-good";
//! an error finding on any of them is a lint bug by definition.
//!
//! The small-scale sweep runs in tier-1; the full scale-1 sweep (the
//! acceptance bar) is `#[ignore]`d here and run by the CI dogfood job.

use spike::lint::{lint, Severity};

fn assert_profile_clean(name: &str, scale: f64) {
    let p = spike::synth::profile(name).expect("known benchmark");
    for seed in [1, 2] {
        let program = spike::synth::generate(&p, scale, seed);
        let report = lint(&program);
        let errors: Vec<_> =
            report.diagnostics().iter().filter(|d| d.severity == Severity::Error).collect();
        assert!(
            errors.is_empty(),
            "{name} (scale {scale}, seed {seed}): {} error finding(s), e.g. {}",
            errors.len(),
            report.line(errors[0])
        );
    }
}

#[test]
fn all_profiles_lint_clean_at_small_scale() {
    for p in spike::synth::profiles() {
        assert_profile_clean(p.name, 20.0 / p.routines as f64);
    }
}

#[test]
#[ignore = "full-scale acceptance sweep; run in CI with --ignored"]
fn all_profiles_lint_clean_at_full_scale() {
    for p in spike::synth::profiles() {
        assert_profile_clean(p.name, 1.0);
    }
}
