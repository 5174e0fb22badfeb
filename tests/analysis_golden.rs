//! Golden-file test pinning the analysis *result bits*.
//!
//! Work on the phase-1/2 solver (its schedule, its representation, which
//! engine runs at all) must not change a single bit of what the analysis
//! computes. This suite records, for the 16 synthetic profiles at 30
//! routines and four runnable executables, one FNV-64 over every PSG
//! node's `MAY-USE`/`MAY-DEF`/`MUST-DEF`/`LIVE`, every edge label and
//! every routine summary — all read through public accessors. Beside the
//! hash each line carries three columns of its own: the phase-1 and
//! phase-2 visit counts (both phases are serial FIFO worklists, so the
//! counts repeat exactly and pin the solver's schedule, including the
//! order of every PSG adjacency row) and `stats.memory_bytes`. A layout
//! change that only moves memory shows as a `memory_bytes=` diff with
//! every hash unchanged.
//!
//! Per image it also checks the memory walk against itself: the layers'
//! `heap_bytes` sum to `stats.memory_bytes`, and a plain `clone` holds
//! exactly what its source holds — no layer keeps capacity slack.
//!
//! The hashes were first recorded with the sparse SCC-wave engine that
//! was the default before the FIFO worklist became the only phase solver;
//! they are the one check that spans that deletion. Regenerate only after
//! an intentional change to what the analysis computes or holds:
//! `UPDATE_GOLDEN=1 cargo test --test analysis_golden`

use spike::core::{analyze, Analysis};
use spike::isa::{HeapSize, RegSet};
use spike::program::Program;

struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn sets(&mut self, sets: &[RegSet]) {
        self.word(sets.len() as u64);
        for s in sets {
            self.word(s.bits());
        }
    }
}

fn line(name: &str, program: &Program) -> String {
    let analysis = analyze(program);
    let Analysis { psg, summary, stats, cfg, stack } = &analysis;
    assert_eq!(
        cfg.heap_bytes() + psg.heap_bytes() + summary.heap_bytes() + stack.heap_bytes(),
        stats.memory_bytes,
        "{name}: the layers' heap_bytes must sum to memory_bytes"
    );
    assert_eq!(
        analysis.clone().heap_bytes(),
        analysis.heap_bytes(),
        "{name}: a clone must hold what its source holds (no capacity slack)"
    );
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.word(psg.nodes().len() as u64);
    for i in 0..psg.nodes().len() {
        let n = spike::core::NodeId::from_index(i);
        h.sets(&[psg.may_use(n), psg.may_def(n), psg.must_def(n), psg.live(n)]);
    }
    h.word(psg.edges().len() as u64);
    for e in psg.edges() {
        h.word(e.from().index() as u64);
        h.word(e.to().index() as u64);
        h.sets(&[e.may_use(), e.may_def(), e.must_def()]);
    }
    for s in summary.routines() {
        h.sets(&s.call_used);
        h.sets(&s.call_defined);
        h.sets(&s.call_killed);
        h.sets(&s.live_at_entry);
        h.sets(&s.live_at_exit);
        h.word(s.saved_restored.bits());
    }
    format!(
        "{name} analysis={:016x} nodes={} edges={} phase1_visits={} phase2_visits={} \
         memory_bytes={}\n",
        h.0,
        psg.nodes().len(),
        psg.edges().len(),
        stats.phase1_visits,
        stats.phase2_visits,
        stats.memory_bytes
    )
}

#[test]
fn analysis_result_matches_golden() {
    let mut rendered = String::new();
    for profile in spike::synth::profiles() {
        let program = spike::synth::generate(&profile, 30.0 / profile.routines as f64, 1);
        rendered.push_str(&line(profile.name, &program));
    }
    for seed in [1u64, 2, 3, 4] {
        let program = spike::synth::generate_executable(seed, 40);
        rendered.push_str(&line(&format!("exec-seed{seed}"), &program));
    }

    let path = format!("{}/tests/golden/analysis.fnv", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &rendered).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {path}: {e} (set UPDATE_GOLDEN=1 to create)"));
    assert_eq!(
        rendered, golden,
        "analysis result drifted from tests/golden/analysis.fnv; if what the analysis computes \
         changed on purpose, regenerate with UPDATE_GOLDEN=1"
    );
}
