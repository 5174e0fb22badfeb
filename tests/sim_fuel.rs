//! Fuel boundaries of every simulator mode: at one step short of a plain
//! run's length `s`, at `s` and one past it, each instrumented mode stops
//! exactly where `run` stops, with the same output, and
//! `steps_to_output` names a step count at which `run` has emitted
//! exactly the requested prefix.
//!
//! A run that returns from its entry routine stops one step later than
//! one that executes `halt`: the return to the loader's address is
//! noticed when the next instruction would be fetched, so at fuel `s` it
//! is out of fuel and at `s + 1` halted. A run that faults is out of
//! fuel at `s` and faults at `s + 1`. All three shapes occur below.

use proptest::prelude::*;

use spike::program::Program;
use spike::sim::{run, run_profiled, run_shadow, run_shadow_slots, steps_to_output, Machine};
use spike::synth::{generate, generate_executable, profile};

/// Fuel for the benchmark profiles, which are not built to halt.
const CAP: u64 = 50_000;

fn fuel_boundaries_hold(name: &str, p: &Program) -> Result<(), TestCaseError> {
    // The steps executed before the run stops, a fault included.
    let mut m = Machine::new(p);
    m.run(p, CAP);
    let s = m.steps();
    for fuel in [s.saturating_sub(1), s, s + 1] {
        let plain = run(p, fuel);
        let at = format!("{name}: fuel {fuel}, s = {s}");
        prop_assert_eq!(&run_shadow(p, fuel), &plain, "run_shadow at {}", at);
        prop_assert_eq!(&run_shadow_slots(p, fuel), &plain, "run_shadow_slots at {}", at);
        let (outcome, profile) = run_profiled(p, fuel);
        prop_assert_eq!(&outcome, &plain, "run_profiled at {}", at);
        // A fault stops after the `s` steps before it.
        prop_assert_eq!(profile.total_steps, plain.steps().unwrap_or(s), "total_steps at {}", at);
    }
    let output = run(p, s).output().expect("no fault within s steps").to_vec();
    for k in 0..=output.len() {
        let t = steps_to_output(p, s, k);
        prop_assert!(t.is_some(), "{}: prefix of {} values not reached in {} steps", name, k, s);
        let t = t.unwrap();
        prop_assert!(t <= s, "{}: {} steps for {} values, more than the whole run", name, t, k);
        let upto = run(p, t);
        prop_assert_eq!(upto.output(), Some(&output[..k]), "{}: run({}) for k = {}", name, t, k);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_mode_stops_where_run_stops_on_executables(seed in any::<u64>(), size in 1usize..=40) {
        fuel_boundaries_hold("executable", &generate_executable(seed, size))?;
    }
}

#[test]
fn every_mode_stops_where_run_stops_on_profiles() {
    for name in ["compress", "gcc", "perl", "sqlservr"] {
        let p = generate(&profile(name).unwrap(), 0.05, 4);
        if let Err(e) = fuel_boundaries_hold(name, &p) {
            panic!("{e:?}");
        }
    }
}
