//! Golden-file test pinning the `spiksnap` payload layout.
//!
//! A warm-cache snapshot stores each entry's [`Analysis`] as its [`Snap`]
//! encoding, which walks every analysis struct field by field in
//! declaration order. This suite records, for the same 20 images as
//! `analysis_golden` (16 synthetic profiles at 30 routines and four
//! runnable executables), the FNV-64 and length of that encoding, so a
//! reordered, added or dropped field shows up as a drifted line — the
//! signal that `snapshot::FORMAT_VERSION` needs a bump. The six stage
//! timings are zeroed first: they vary from run to run and from host to
//! host.
//!
//! Per image it also checks the three walks against each other: a
//! `clone_exact` fork and a decode of the bytes re-encode to the same
//! bytes, and the layers' `heap_bytes` sum to `stats.memory_bytes`.
//!
//! Regenerate only after an intentional layout change, together with a
//! `FORMAT_VERSION` bump:
//! `UPDATE_GOLDEN=1 cargo test --test snap_golden`

use std::time::Duration;

use spike::core::{analyze, Analysis};
use spike::isa::{fnv64, CloneExact, HeapSize, Snap, SnapReader, SnapWriter};
use spike::program::Program;

fn encode(analysis: &Analysis) -> Vec<u8> {
    let mut w = SnapWriter::new();
    analysis.snap(&mut w);
    w.into_bytes()
}

fn line(name: &str, program: &Program) -> String {
    let mut a = analyze(program);
    let s = &mut a.stats;
    for d in [
        &mut s.cfg_build,
        &mut s.init,
        &mut s.psg_build,
        &mut s.phase1,
        &mut s.phase2,
        &mut s.stack_build,
    ] {
        *d = Duration::ZERO;
    }

    let bytes = encode(&a);
    assert_eq!(encode(&a.clone_exact()), bytes, "{name}: a clone_exact fork encodes differently");
    let mut r = SnapReader::new(&bytes);
    let back = Analysis::unsnap(&mut r).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert!(r.is_exhausted(), "{name}: the decoder left {} bytes", r.remaining());
    assert_eq!(encode(&back), bytes, "{name}: the decoded analysis encodes differently");
    assert_eq!(
        a.cfg.heap_bytes() + a.psg.heap_bytes() + a.summary.heap_bytes() + a.stack.heap_bytes(),
        a.stats.memory_bytes,
        "{name}: the layers' heap_bytes must sum to memory_bytes"
    );
    format!("{name} snap={:016x} bytes={}\n", fnv64(&bytes), bytes.len())
}

#[test]
fn snapshot_layout_matches_golden() {
    let mut rendered = String::new();
    for profile in spike::synth::profiles() {
        let program = spike::synth::generate(&profile, 30.0 / profile.routines as f64, 1);
        rendered.push_str(&line(profile.name, &program));
    }
    for seed in [1u64, 2, 3, 4] {
        let program = spike::synth::generate_executable(seed, 40);
        rendered.push_str(&line(&format!("exec-seed{seed}"), &program));
    }

    let path = format!("{}/tests/golden/snap.fnv", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &rendered).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {path}: {e} (set UPDATE_GOLDEN=1 to create)"));
    assert_eq!(
        rendered, golden,
        "snapshot encoding drifted from tests/golden/snap.fnv; if the layout changed on \
         purpose, bump snapshot::FORMAT_VERSION and regenerate with UPDATE_GOLDEN=1"
    );
}
