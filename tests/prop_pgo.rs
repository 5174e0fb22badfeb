//! Workspace-level properties for the profiling + loop-optimization
//! subsystem: profiled execution is observationally identical to plain
//! execution, the on-disk profile container round-trips losslessly and
//! rejects stale or corrupt inputs without panicking, and loop-invariant
//! code motion — static or profile-guided — preserves simulated
//! behaviour and shadow-oracle cleanliness on every paper-calibrated
//! benchmark profile.

use proptest::prelude::*;

use spike::opt::{optimize_with, OptOptions};
use spike::profile::{Profile, ProfileError};
use spike::sim::{run, run_profiled, run_shadow, run_shadow_slots, steps_to_output, Outcome};
use spike::synth::generate_executable;

const FUEL: u64 = 10_000_000;

/// Fuel for the benchmark-profile programs, which are not built to halt.
const PROFILE_FUEL: u64 = 200_000;

fn licm_only(profile: Option<Profile>) -> OptOptions {
    OptOptions {
        dead_code: false,
        spills: false,
        realloc: false,
        stack: false,
        licm: true,
        profile,
        ..OptOptions::default()
    }
}

/// Two runs under the same fuel agree observationally: equal outcomes
/// when both complete, and an agreeing output prefix when the shorter
/// (optimized) trace is cut off by fuel differently.
fn assert_equivalent(name: &str, before: &Outcome, after: &Outcome) {
    match (before, after) {
        (Outcome::Halted { output: a, steps: sa }, Outcome::Halted { output: b, steps: sb }) => {
            assert_eq!(a, b, "{name}: output changed");
            assert!(sb <= sa, "{name}: optimization executed more instructions");
        }
        // The optimized program does the same work in fewer steps, so
        // under equal fuel it gets at least as far: the original's
        // output must be a prefix of the optimized run's.
        (Outcome::OutOfFuel { output: a, .. }, Outcome::Halted { output: b, .. })
        | (Outcome::OutOfFuel { output: a, .. }, Outcome::OutOfFuel { output: b, .. }) => {
            assert!(b.starts_with(a), "{name}: output diverged");
        }
        // The optimized run can reach a fault the original's fuel did
        // not; a fault must stay the same kind of fault.
        (Outcome::OutOfFuel { .. }, Outcome::Fault(_)) => {}
        (Outcome::Fault(a), Outcome::Fault(b)) => {
            assert_eq!(
                std::mem::discriminant(a),
                std::mem::discriminant(b),
                "{name}: fault kind changed: {a:?} vs {b:?}"
            );
        }
        (a, b) => panic!("{name}: behaviour changed: {a:?} vs {b:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Instrumentation is invisible: `run_profiled` returns exactly the
    /// outcome of `run` — same output, same step count, same fuel
    /// boundary — while gathering counts that add up to the run itself.
    #[test]
    fn profiled_execution_matches_plain_execution(
        seed in any::<u64>(),
        size in 1usize..8,
        fuel in prop_oneof![Just(50u64), Just(500), Just(FUEL)],
    ) {
        let p = generate_executable(seed, size);
        let plain = run(&p, fuel);
        let (outcome, exec) = run_profiled(&p, fuel);
        prop_assert_eq!(&outcome, &plain, "instrumentation changed the run");
        // The counters account for every executed instruction.
        prop_assert_eq!(Some(exec.total_steps), outcome.steps());
        prop_assert_eq!(exec.insn_counts.iter().sum::<u64>(), exec.total_steps);
        prop_assert_eq!(
            exec.steps_per_routine.iter().sum::<u64>(),
            exec.total_steps,
            "every step belongs to a routine"
        );
    }

    /// The container round-trips losslessly through bytes and survives
    /// a merge with itself (counts double, the binding stays).
    #[test]
    fn profile_container_round_trips(seed in any::<u64>(), size in 1usize..6) {
        let p = generate_executable(seed, size);
        let (_, exec) = run_profiled(&p, FUEL);
        let prof = Profile::collect(&p, &exec);
        let back = Profile::from_bytes(&prof.to_bytes()).expect("round trip");
        prop_assert_eq!(&back, &prof);
        prop_assert!(back.matches(&p.to_image()));

        let mut merged = prof.clone();
        merged.merge(&back).expect("same image merges");
        prop_assert_eq!(merged.runs, 2);
        prop_assert_eq!(merged.counts.total_steps, prof.counts.total_steps * 2);
    }

    /// A profile of one program is cleanly rejected for another: a typed
    /// error from the verifying API, never a panic, and the optimizer
    /// silently falls back to static weighting.
    #[test]
    fn stale_profile_is_rejected_not_trusted(seed in any::<u64>()) {
        let p = generate_executable(seed, 4);
        let q = generate_executable(seed.wrapping_add(1), 4);
        let (_, exec) = run_profiled(&p, FUEL);
        let prof = Profile::collect(&p, &exec);
        prop_assert!(!prof.matches(&q.to_image()), "distinct programs share a fingerprint");
        let mut other = Profile::collect(&q, &run_profiled(&q, FUEL).1);
        prop_assert!(matches!(other.merge(&prof), Err(ProfileError::FingerprintMismatch)));

        // Optimizing `q` with `p`'s profile must behave exactly like
        // optimizing without one: the counts are address-nonsense for
        // `q` and must not be consulted.
        let with = optimize_with(&q, &licm_only(Some(prof))).expect("optimizes");
        let without = optimize_with(&q, &licm_only(None)).expect("optimizes");
        prop_assert_eq!(with.0, without.0);
    }

    /// LICM (with every other pass, as shipped) preserves behaviour and
    /// shadow cleanliness on executables.
    #[test]
    fn full_optimizer_with_licm_preserves_executables(seed in any::<u64>(), size in 1usize..8) {
        let p = generate_executable(seed, size);
        let (_, exec) = run_profiled(&p, FUEL);
        let prof = Profile::collect(&p, &exec);
        let options = OptOptions { profile: Some(prof), ..OptOptions::default() };
        let (q, _) = optimize_with(&p, &options).expect("optimizes");
        let Outcome::Halted { output: before, .. } = run(&p, FUEL) else {
            panic!("generated executables must halt");
        };
        match run_shadow(&q, FUEL) {
            Outcome::Halted { output, .. } => prop_assert_eq!(output, before),
            other => prop_assert!(false, "register shadow diverged: {other:?}"),
        }
        match run_shadow_slots(&q, FUEL) {
            Outcome::Halted { output, .. } => prop_assert_eq!(output, before),
            other => prop_assert!(false, "slot shadow diverged: {other:?}"),
        }
    }
}

/// The acceptance sweep: on all 16 paper benchmarks, profile-guided LICM
/// fires (hoisting at least one load), preserves simulated behaviour
/// against the unoptimized program, and leaves both shadow oracles
/// clean. The profile-guided run must also hoist strictly more than the
/// static run somewhere — the planted guarded loads are invisible to
/// static weighting.
#[test]
fn licm_preserves_behaviour_and_shadows_on_all_profiles() {
    let mut static_hoists = 0usize;
    let mut pgo_hoists = 0usize;
    for p in spike::synth::profiles() {
        let program = spike::synth::generate(&p, 20.0 / p.routines as f64, 1);
        let before = run(&program, PROFILE_FUEL);
        let (profiled_outcome, exec) = run_profiled(&program, PROFILE_FUEL);
        assert_eq!(profiled_outcome, before, "{}: instrumentation changed the run", p.name);
        let prof = Profile::collect(&program, &exec);

        let (stat, stat_report) = optimize_with(&program, &licm_only(None)).unwrap();
        let (pgo, pgo_report) = optimize_with(&program, &licm_only(Some(prof))).unwrap();
        assert!(stat_report.loads_hoisted > 0, "{}: static LICM found no invariant loads", p.name);
        assert!(
            pgo_report.loads_hoisted >= stat_report.loads_hoisted,
            "{}: profile weighting lost hoists ({} vs {})",
            p.name,
            pgo_report.loads_hoisted,
            stat_report.loads_hoisted
        );
        static_hoists += stat_report.loads_hoisted;
        pgo_hoists += pgo_report.loads_hoisted;

        for (name, optimized) in [("static", &stat), ("pgo", &pgo)] {
            let tag = format!("{} ({name})", p.name);
            assert_equivalent(&tag, &before, &run(optimized, PROFILE_FUEL));
            assert_equivalent(&tag, &before, &run_shadow(optimized, PROFILE_FUEL));
            assert_equivalent(&tag, &before, &run_shadow_slots(optimized, PROFILE_FUEL));
        }
    }
    assert!(
        pgo_hoists > static_hoists,
        "profiles unlocked no guarded hoists ({pgo_hoists} vs {static_hoists})"
    );
}

/// The dynamic-instruction acceptance: on at least 12 of the 16 paper
/// benchmarks the shipped optimizer with a collected profile needs fewer
/// simulated instructions than the shipped optimizer without LICM to
/// emit the same output, and on none does it need more. Both variants
/// preserve behaviour, so the longest output prefix both produce within
/// the fuel budget is equal work. Simulated counts only, no clock.
#[test]
fn pgo_executes_fewer_dynamic_instructions_on_most_profiles() {
    let outputs = |program: &spike::program::Program| match run(program, PROFILE_FUEL) {
        Outcome::Halted { output, .. } | Outcome::OutOfFuel { output, .. } => output.len(),
        _ => 0,
    };
    let mut reduced = 0usize;
    for p in spike::synth::profiles() {
        let program = spike::synth::generate(&p, 20.0 / p.routines as f64, 1);
        let (_, exec) = run_profiled(&program, PROFILE_FUEL);
        let prof = Profile::collect(&program, &exec);

        let base_options = OptOptions { licm: false, ..OptOptions::default() };
        let pgo_options = OptOptions { profile: Some(prof), ..OptOptions::default() };
        let (base, _) = optimize_with(&program, &base_options).expect("baseline optimizes");
        let (pgo, _) = optimize_with(&program, &pgo_options).expect("pgo optimizes");

        let k = outputs(&base).min(outputs(&pgo));
        let dyn_base = steps_to_output(&base, PROFILE_FUEL, k).expect("k outputs were produced");
        let dyn_pgo = steps_to_output(&pgo, PROFILE_FUEL, k).expect("k outputs were produced");
        assert!(
            dyn_pgo <= dyn_base,
            "{}: PGO executes more instructions ({dyn_pgo} vs {dyn_base}) for {k} outputs",
            p.name
        );
        reduced += usize::from(dyn_pgo < dyn_base);
    }
    assert!(reduced * 4 >= 16 * 3, "only {reduced} of 16 profiles improved (acceptance: >= 12)");
}
