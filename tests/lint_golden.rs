//! Golden-file test pinning the lint's *output bytes*.
//!
//! Performance work on the lint output path (the finding sort, the JSON
//! writer, the human renderer, message construction) must not change a
//! single byte of what `spike lint` prints. This suite records, for the 16
//! synthetic profiles at 30 routines, four runnable executables and one
//! planted defect per `DefectKind` (so witnesses, notes and slots are
//! covered), the FNV-64 of `to_json(Some(name))`, the FNV-64 of the human
//! `Display` output, and the error and warning counts.
//!
//! To regenerate after an intentional change to a check or the format:
//! `UPDATE_GOLDEN=1 cargo test --test lint_golden`

use spike::isa::Reg;
use spike::lint::lint;
use spike::program::{Program, ProgramBuilder};
use spike::synth::{generate_executable, generate_executable_with_defect, DefectKind};

fn fnv64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

fn line(name: &str, program: &Program) -> String {
    let report = lint(program);
    format!(
        "{name} json={:016x} human={:016x} errors={} warnings={}\n",
        fnv64(report.to_json(Some(name)).as_bytes()),
        fnv64(report.to_string().as_bytes()),
        report.errors(),
        report.warnings()
    )
}

#[test]
fn lint_output_matches_golden() {
    let mut rendered = String::new();
    for profile in spike::synth::profiles() {
        let program = spike::synth::generate(&profile, 30.0 / profile.routines as f64, 1);
        rendered.push_str(&line(profile.name, &program));
    }
    for seed in [1u64, 2, 3, 4] {
        rendered.push_str(&line(&format!("exec-seed{seed}"), &generate_executable(seed, 40)));
    }
    for (tag, kind) in [
        ("uninit-read", DefectKind::UninitRead),
        ("callee-saved-clobber", DefectKind::CalleeSavedClobber),
        ("uninit-stack-slot-read", DefectKind::UninitStackSlotRead),
        ("out-of-frame-store", DefectKind::OutOfFrameStore),
    ] {
        let (program, _) = generate_executable_with_defect(3, 10, kind);
        rendered.push_str(&line(&format!("defect-{tag}"), &program));
    }
    // A missing return value (the note) in a routine whose name needs
    // escaping, plus an orphan with a control character in its name.
    let mut b = ProgramBuilder::new();
    b.routine("main").call("f\"\\").use_reg(Reg::V0).halt();
    b.routine("f\"\\").def(Reg::T0).ret();
    b.routine("orphan\t\u{1}é").ret();
    rendered.push_str(&line("hand-note", &b.build().expect("hand-built program")));

    let path = format!("{}/tests/golden/lint.fnv", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &rendered).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {path}: {e} (set UPDATE_GOLDEN=1 to create)"));
    assert_eq!(
        rendered, golden,
        "lint output drifted from tests/golden/lint.fnv; if a check or the format changed on \
         purpose, regenerate with UPDATE_GOLDEN=1"
    );
}
