//! Correctness oracles, run by the harness outside every timed section.
//!
//! * analyze workloads: the PSG summaries must equal those of
//!   `spike-baseline`, an independent full-CFG implementation, and every
//!   op's rendered bytes must equal the harness's own render of the same
//!   image;
//! * optimize workload: original and optimized image must produce the
//!   same output prefix under the simulator, and both shadow runs of the
//!   optimized image must stay clean.
//!
//! Each check also yields the deterministic counts of its image (blocks,
//! PSG nodes, optimizer applications, simulator steps …), keyed by the
//! per-layer metric they feed, so the counts are measured where the
//! correctness of the work is established.

use std::collections::BTreeMap;

use spike_core::{Analysis, AnalysisOptions};
use spike_program::Program;
use spike_serve::render;
use spike_sim::{run, run_shadow, run_shadow_slots, steps_to_output, Fault, Outcome};

use crate::batch::{analyze_render, optimize_op, OpSample, Workload};
use crate::corpus::Image;
use crate::trace::{timed_ms, Recorder};

/// Simulator step budget, as in the repo's PGO evaluation.
pub const SIM_FUEL: u64 = 200_000;
/// The budget of a `--smoke` run, which only checks that the oracle runs.
pub const SMOKE_SIM_FUEL: u64 = 20_000;

/// Per-image facts keyed by per-layer metric name.
pub type Facts = BTreeMap<&'static str, f64>;

/// What the oracle established about one image.
pub struct Checked {
    /// Hash every op on this image must reproduce.
    pub expected: u64,
    /// Deterministic counts and one-shot reference timings.
    pub facts: Facts,
    /// Oracle failures (empty when the image checks out).
    pub failures: Vec<String>,
}

/// PSG summaries vs the full-CFG baseline's, and how long the baseline
/// took (ms).
pub fn summaries_match(
    program: &Program,
    analysis: &Analysis,
    options: &AnalysisOptions,
) -> (Result<(), String>, f64) {
    let (full, ms) = timed_ms(|| spike_baseline::analyze_baseline_with(program, options));
    (render::compare_report(program, analysis, &full).map(|_| ()), ms)
}

/// The size and effort counts of one analyzed program.
pub fn analysis_facts(image: &Image, program: &Program, analysis: &Analysis) -> Facts {
    let (graph, callgraph_ms) =
        timed_ms(|| spike_callgraph::CallGraph::build(program, &analysis.cfg));
    let sccs = graph.sccs();
    let counts = analysis.cfg.counts();
    let psg = analysis.psg.stats();
    let s = &analysis.stats;
    BTreeMap::from([
        ("program.image_bytes", image.bytes.len() as f64),
        ("program.insns", program.total_instructions() as f64),
        ("cfg.blocks", counts.basic_blocks as f64),
        ("cfg.arcs", counts.total_arcs() as f64),
        ("callgraph.build_ms", callgraph_ms),
        ("callgraph.sccs", sccs.components().len() as f64),
        ("callgraph.largest_scc", sccs.components().iter().map(Vec::len).max().unwrap_or(0) as f64),
        ("core.psg_nodes", psg.nodes as f64),
        ("core.psg_edges", psg.edges as f64),
        ("core.phase1_visits", s.phase1_visits as f64),
        ("core.phase2_visits", s.phase2_visits as f64),
        ("core.stack_visits", (s.stack_forward_visits + s.stack_backward_visits) as f64),
        ("core.waves", s.waves as f64),
        ("core.memory_bytes", s.memory_bytes as f64),
    ])
}

/// Oracle for one image of an analyze workload.
pub fn check_analyzed(w: Workload, image: &Image) -> Checked {
    let options = AnalysisOptions::default();
    let lint = w == Workload::AnalyzeMid;
    let analyzed = match analyze_render(image, &options, lint, &mut Recorder::new()) {
        Ok(a) => a,
        Err(e) => {
            let failures = vec![format!("{}: {e}", image.name)];
            return Checked { expected: 0, facts: Facts::new(), failures };
        }
    };
    let mut facts = analysis_facts(image, &analyzed.program, &analyzed.analysis);
    let (verdict, baseline_ms) = summaries_match(&analyzed.program, &analyzed.analysis, &options);
    facts.insert("baseline.analyze_ms", baseline_ms);
    if let Some(report) = &analyzed.lint {
        facts.insert("lint.diagnostics", report.diagnostics().len() as f64);
        facts.insert("lint.errors", report.errors() as f64);
    }
    let failures = verdict.err().map(|e| format!("{}: baseline: {e}", image.name));
    Checked { expected: analyzed.rendered.hash(), facts, failures: failures.into_iter().collect() }
}

fn shadow_fault(outcome: &Outcome) -> Option<&Fault> {
    match outcome {
        Outcome::Fault(
            f @ (Fault::UninitRead { .. }
            | Fault::UninitStackRead { .. }
            | Fault::OutOfFrame { .. }),
        ) => Some(f),
        _ => None,
    }
}

/// Simulator equivalence of `optimized` against `original`: equal output
/// on the common prefix (and equal length when both halt), clean shadow
/// runs, each within `fuel` steps. Returns `(steps_original,
/// steps_optimized)` to the common prefix, or `None` when neither produced
/// output within the fuel.
pub fn behaviour_preserved(
    original: &Program,
    optimized: &Program,
    fuel: u64,
) -> Result<Option<(u64, u64)>, String> {
    let before = run(original, fuel);
    let after = run(optimized, fuel);
    let (a, b) = match (before.output(), after.output()) {
        (Some(a), Some(b)) => (a, b),
        // A plain-run fault (control reaching a non-code address) is the
        // original's own behaviour; the optimized image must do the same.
        (None, None) => return Ok(None),
        _ => return Err(format!("outcome changed: {before:?} became {after:?}")),
    };
    let k = a.len().min(b.len());
    if a[..k] != b[..k] {
        return Err("output prefix differs after optimization".to_string());
    }
    let halted = |o: &Outcome| matches!(o, Outcome::Halted { .. });
    if halted(&before) && halted(&after) && a.len() != b.len() {
        return Err(format!("output length changed: {} became {}", a.len(), b.len()));
    }
    type Shadow = fn(&Program, u64) -> Outcome;
    let shadows: [(&str, Shadow); 2] =
        [("registers", run_shadow), ("stack slots", run_shadow_slots)];
    for (mode, shadow) in shadows {
        // Only a fault the original does not have is the optimizer's.
        if let Some(f) = shadow_fault(&shadow(optimized, fuel)) {
            if shadow_fault(&shadow(original, fuel)).is_none() {
                return Err(format!("shadow run ({mode}) of the optimized image: {f}"));
            }
        }
    }
    if k == 0 {
        return Ok(None);
    }
    let steps = |p: &Program| steps_to_output(p, fuel, k).ok_or("prefix not reproduced");
    Ok(Some((steps(original)?, steps(optimized)?)))
}

/// Oracle for one image of the optimize workload, with `fuel` simulator
/// steps per run.
pub fn check_optimized(image: &Image, fuel: u64) -> Checked {
    let mut failures = Vec::new();
    let mut facts = Facts::new();
    let mut expected = 0;
    match optimize_op(image, &mut Recorder::new()) {
        Err(e) => failures.push(format!("{}: {e}", image.name)),
        Ok((rendered, r)) => {
            expected = rendered.hash();
            let optimized_bytes = rendered.image;
            facts.extend([
                ("program.image_bytes", image.bytes.len() as f64),
                ("program.insns", r.instructions_before as f64),
                ("cfg.blocks", crate::corpus::blocks(&image.bytes)),
                ("opt.routines_reanalyzed", r.routines_reanalyzed as f64),
                ("opt.routines_reused", r.routines_reused as f64),
                ("opt.dead_deleted", r.dead_deleted as f64),
                ("opt.spill_pairs_removed", r.spill_pairs_removed as f64),
                ("opt.registers_reallocated", r.registers_reallocated as f64),
                ("opt.save_restores_deleted", r.save_restores_deleted as f64),
                ("opt.stack_stores_deleted", r.stack_stores_deleted as f64),
                ("opt.loads_hoisted", r.loads_hoisted as f64),
                ("opt.ops_hoisted", r.ops_hoisted as f64),
                ("opt.insns_removed", r.removed() as f64),
                ("opt.insns_after", r.instructions_after as f64),
            ]);
            let (verdict, sim_ms) = timed_ms(|| {
                match (Program::from_image(&image.bytes), Program::from_image(&optimized_bytes)) {
                    (Ok(original), Ok(optimized)) => {
                        behaviour_preserved(&original, &optimized, fuel)
                    }
                    (Err(e), _) | (_, Err(e)) => Err(e.to_string()),
                }
            });
            facts.insert("sim.run_ms", sim_ms);
            match verdict {
                Ok(Some((before, after))) => {
                    facts.insert("sim.steps_original", before as f64);
                    facts.insert("sim.steps_optimized", after as f64);
                }
                Ok(None) => {}
                Err(e) => failures.push(format!("{}: simulator: {e}", image.name)),
            }
        }
    }
    Checked { expected, facts, failures }
}

/// Counts the ops that failed: returned an error, rendered bytes other
/// than the oracle's, or ran on an image whose oracle failed.
pub fn failed_ops(ops: &[OpSample], checked: &[Checked]) -> usize {
    ops.iter()
        .filter(|o| {
            let c = &checked[o.input];
            !c.failures.is_empty() || o.outcome != Ok(c.expected)
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus;
    use spike_core::analyze_with;
    use spike_isa::{AluOp, Reg};
    use spike_program::{ProgramBuilder, Rewriter};

    /// The gate fires: a planted wrong render, a planted op error and a
    /// planted oracle failure each count as failed ops.
    #[test]
    fn planted_failures_are_counted() {
        let image = corpus::build(&["compress"], 0, 0.05, 1).images.remove(0);
        let good = check_analyzed(Workload::AnalyzeMid, &image);
        assert!(good.failures.is_empty(), "{:?}", good.failures);
        assert_eq!(good.facts["lint.errors"], 0.0);
        let op = |outcome| OpSample { input: 0, ns: 1, outcome };
        let ops = [op(Ok(good.expected)), op(Ok(good.expected ^ 1)), op(Err("boom".into()))];
        assert_eq!(failed_ops(&ops, std::slice::from_ref(&good)), 2);
        let bad = Checked { failures: vec!["planted".into()], ..good };
        assert_eq!(failed_ops(&ops, &[bad]), 3);
    }

    /// The baseline oracle notices summaries that belong to a different
    /// program.
    #[test]
    fn baseline_oracle_rejects_wrong_summaries() {
        let build = |reads_arg: bool| {
            let mut b = ProgramBuilder::new();
            b.routine("main").def(Reg::A0).call("f").put_int().halt();
            let f = b.routine("f");
            if reads_arg {
                f.op(AluOp::Add, Reg::A0, Reg::A0, Reg::V0).ret();
            } else {
                f.lda(Reg::V0, Reg::ZERO, 1).ret();
            }
            b.build().unwrap()
        };
        let (p, q) = (build(true), build(false));
        let options = AnalysisOptions::default();
        assert!(summaries_match(&p, &analyze_with(&p, &options), &options).0.is_ok());
        assert!(summaries_match(&p, &analyze_with(&q, &options), &options).0.is_err());
    }

    /// The simulator oracle notices an "optimization" that changes output.
    #[test]
    fn simulator_oracle_rejects_a_miscompile() {
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .lda(Reg::V0, Reg::ZERO, 7)
            .put_int()
            .lda(Reg::V0, Reg::ZERO, 9)
            .put_int()
            .halt();
        let p = b.build().unwrap();
        // Four instructions have run when the second value is out.
        assert_eq!(behaviour_preserved(&p, &p, SIM_FUEL), Ok(Some((4, 4))));
        // Deleting the second `lda` makes the program print 7 twice.
        let mut rw = Rewriter::new(&p);
        rw.delete(p.routines()[0].addr() + 2);
        let (broken, _) = rw.finish().unwrap();
        assert!(behaviour_preserved(&p, &broken, SIM_FUEL).is_err());
        // Deleting the first one reads v0 before anything defined it.
        let mut rw = Rewriter::new(&p);
        rw.delete(p.routines()[0].addr());
        let (uninit, _) = rw.finish().unwrap();
        assert!(behaviour_preserved(&p, &uninit, SIM_FUEL).is_err());
    }

    #[test]
    fn optimized_images_pass_their_oracle() {
        for image in corpus::build(&["compress"], 1, 0.1, 2).images {
            let c = check_optimized(&image, SIM_FUEL);
            assert!(c.failures.is_empty(), "{:?}", c.failures);
            assert!(c.facts["opt.insns_removed"] > 0.0);
        }
    }
}
