//! Golden-file test pinning the assembly writer's *output text*.
//!
//! The round-trip properties check `parse_asm(write_asm(p)) == p`, which
//! any spelling the parser accepts would pass. This suite pins the
//! spelling itself: for the 16 synthetic profiles at 30 routines and four
//! runnable executables it records the FNV-64 of `write_asm`, its length
//! in bytes and its line count, so `spike disasm` output cannot drift
//! unnoticed when the instruction syntax moves between crates.
//!
//! Regenerate only after an intentional change to the text format:
//! `UPDATE_GOLDEN=1 cargo test -p spike-asm --test write_golden`

use spike_asm::write_asm;
use spike_program::Program;

fn fnv64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

fn line(name: &str, program: &Program) -> String {
    let text = write_asm(program);
    format!(
        "{name} asm={:016x} bytes={} lines={}\n",
        fnv64(text.as_bytes()),
        text.len(),
        text.lines().count()
    )
}

#[test]
fn write_asm_matches_golden() {
    let mut rendered = String::new();
    for profile in spike_synth::profiles() {
        let program = spike_synth::generate(&profile, 30.0 / profile.routines as f64, 1);
        rendered.push_str(&line(profile.name, &program));
    }
    for seed in [1u64, 2, 3, 4] {
        let program = spike_synth::generate_executable(seed, 40);
        rendered.push_str(&line(&format!("exec-seed{seed}"), &program));
    }

    let path = format!("{}/tests/golden/write.fnv", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &rendered).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {path}: {e} (set UPDATE_GOLDEN=1 to create)"));
    assert_eq!(
        rendered, golden,
        "write_asm output drifted from tests/golden/write.fnv; if the text format changed on \
         purpose, regenerate with UPDATE_GOLDEN=1"
    );
}
