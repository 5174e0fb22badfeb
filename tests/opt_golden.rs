//! Golden-file test pinning the optimizer's *output bytes*.
//!
//! Performance work on the `optimize` path (the relinker, the dead-code
//! cascade, incremental re-analysis) must not change a single byte of
//! what the optimizer emits. This suite records, for the 16 synthetic
//! profiles at 30 routines and four runnable executables, the FNV-64 of
//! `optimize(&p).0.to_image()` and every edit count of the `OptReport`
//! — not the `routines_reanalyzed`/`routines_reused` pair, which
//! describes how much analysis was re-run, not what was emitted.
//!
//! To regenerate after an intentional change to a pass decision:
//! `UPDATE_GOLDEN=1 cargo test --test opt_golden`

use spike::opt::{optimize, OptReport};
use spike::program::Program;

fn fnv64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

fn line(name: &str, program: &Program) -> String {
    let (optimized, r) = optimize(program).expect("optimization succeeds");
    let OptReport {
        dead_deleted,
        spill_pairs_removed,
        spill_dynamic_saved,
        registers_reallocated,
        save_restores_deleted,
        stack_stores_deleted,
        loads_hoisted,
        ops_hoisted,
        frame_bytes_shrunk,
        instructions_before,
        instructions_after,
        rounds,
        routines_reanalyzed: _,
        routines_reused: _,
        stack_solves: _,
    } = r;
    format!(
        "{name} image={:016x} dead={dead_deleted} spills={spill_pairs_removed} \
         spill_dyn={spill_dynamic_saved} realloc={registers_reallocated} \
         save_restore={save_restores_deleted} stack_stores={stack_stores_deleted} \
         loads_hoisted={loads_hoisted} ops_hoisted={ops_hoisted} \
         frame_bytes={frame_bytes_shrunk} before={instructions_before} \
         after={instructions_after} rounds={rounds}\n",
        fnv64(&optimized.to_image())
    )
}

#[test]
fn optimizer_output_matches_golden() {
    let mut rendered = String::new();
    for profile in spike::synth::profiles() {
        let program = spike::synth::generate(&profile, 30.0 / profile.routines as f64, 1);
        rendered.push_str(&line(profile.name, &program));
    }
    for seed in [1u64, 2, 3, 4] {
        let program = spike::synth::generate_executable(seed, 40);
        rendered.push_str(&line(&format!("exec-seed{seed}"), &program));
    }

    let path = format!("{}/tests/golden/optimize.fnv", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &rendered).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {path}: {e} (set UPDATE_GOLDEN=1 to create)"));
    assert_eq!(
        rendered, golden,
        "optimizer output drifted from tests/golden/optimize.fnv; if a pass decision changed on \
         purpose, regenerate with UPDATE_GOLDEN=1"
    );
}
