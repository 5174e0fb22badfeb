//! # spike-bench
//!
//! Measurement harness for reproducing the paper's evaluation (§4):
//! Tables 1–5 and Figures 13–15, plus an optimization-impact report for
//! the Figure 1 motivation. The `report` binary prints each table.
//! (End-to-end and per-layer timing is `benchmark/`'s job, not this
//! crate's.)
//!
//! All workloads come from `spike-synth`'s paper-calibrated profiles; a
//! `scale` factor shrinks every benchmark proportionally so the full
//! matrix runs quickly (pass `--scale 1` for paper-sized programs).

#![forbid(unsafe_code)]

use std::time::Instant;

use spike_baseline::{analyze_baseline, BaselineAnalysis};
use spike_core::{analyze, analyze_with, Analysis, AnalysisOptions};
use spike_program::Program;
use spike_synth::{generate, Profile};

/// Default generator seed used by the report.
pub const DEFAULT_SEED: u64 = 0x5B1CE;

/// Everything measured for one benchmark.
#[derive(Debug)]
pub struct BenchRun {
    /// The profile measured.
    pub profile: Profile,
    /// The generated program.
    pub program: Program,
    /// PSG analysis (branch nodes on).
    pub analysis: Analysis,
    /// PSG analysis with branch nodes disabled (the Table 4 ablation).
    pub no_branch_nodes: Analysis,
    /// Full-CFG baseline, if requested.
    pub baseline: Option<BaselineAnalysis>,
    /// Wall-clock to generate the program (not analysis time).
    pub generate_secs: f64,
}

impl BenchRun {
    /// Generates and analyzes `profile` at `scale`.
    pub fn measure(profile: &Profile, scale: f64, seed: u64, with_baseline: bool) -> BenchRun {
        let t = Instant::now();
        let program = generate(profile, scale, seed);
        let generate_secs = t.elapsed().as_secs_f64();

        let analysis = analyze(&program);
        let ablated = AnalysisOptions { branch_nodes: false, ..AnalysisOptions::default() };
        let no_branch_nodes = analyze_with(&program, &ablated);
        let baseline = with_baseline.then(|| analyze_baseline(&program));

        BenchRun {
            profile: profile.clone(),
            program,
            analysis,
            no_branch_nodes,
            baseline,
            generate_secs,
        }
    }

    /// Routine count of the generated program.
    pub fn routines(&self) -> usize {
        self.program.routines().len()
    }

    /// Basic blocks (call-ended, as in Table 2).
    pub fn blocks(&self) -> usize {
        self.analysis.cfg.total_blocks()
    }

    /// Total instructions.
    pub fn instructions(&self) -> usize {
        self.program.total_instructions()
    }

    /// Total analysis time in seconds.
    pub fn total_secs(&self) -> f64 {
        self.analysis.stats.total().as_secs_f64()
    }

    /// Analysis memory in megabytes.
    pub fn memory_mb(&self) -> f64 {
        self.analysis.stats.memory_bytes as f64 / 1e6
    }

    /// Table 4's PSG edge reduction from branch nodes, in percent.
    pub fn edge_reduction_pct(&self) -> f64 {
        let with = self.analysis.psg.stats().edges as f64;
        let without = self.no_branch_nodes.psg.stats().edges as f64;
        100.0 * (without - with) / without
    }

    /// Table 4's PSG node increase from branch nodes, in percent.
    pub fn node_increase_pct(&self) -> f64 {
        let with = self.analysis.psg.stats().nodes as f64;
        let without = self.no_branch_nodes.psg.stats().nodes as f64;
        100.0 * (with - without) / without
    }
}

/// Simple linear regression of `y` on `x`; returns `(slope, intercept,
/// r_squared)`. Used by the Figure 14/15 reports to quantify the paper's
/// "near-linear" scaling claim.
///
/// # Panics
///
/// Panics if the slices differ in length or have fewer than two points.
pub fn linear_fit(x: &[f64], y: &[f64]) -> (f64, f64, f64) {
    assert_eq!(x.len(), y.len(), "mismatched series");
    assert!(x.len() >= 2, "need at least two points");
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let sxy: f64 = x.iter().zip(y).map(|(a, b)| (a - mx) * (b - my)).sum();
    let sxx: f64 = x.iter().map(|a| (a - mx) * (a - mx)).sum();
    let syy: f64 = y.iter().map(|b| (b - my) * (b - my)).sum();
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let r2 = if syy == 0.0 { 1.0 } else { (sxy * sxy) / (sxx * syy) };
    (slope, intercept, r2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spike_synth::profile;

    #[test]
    fn measure_produces_consistent_counts() {
        let p = profile("compress").unwrap();
        let run = BenchRun::measure(&p, 0.2, DEFAULT_SEED, true);
        assert!(run.routines() >= 2);
        assert!(run.blocks() > run.routines());
        assert!(run.instructions() > run.blocks());
        assert!(run.total_secs() >= 0.0);
        assert!(run.memory_mb() > 0.0);
        // The ablation can only have at least as many edges.
        assert!(run.edge_reduction_pct() >= 0.0);
        // Baseline results agree with the PSG.
        let base = run.baseline.as_ref().unwrap();
        for (rid, _) in run.program.iter() {
            assert_eq!(run.analysis.summary.routine(rid), &base.summaries[rid.index()]);
        }
    }

    #[test]
    fn linear_fit_recovers_a_line() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [3.0, 5.0, 7.0, 9.0];
        let (slope, intercept, r2) = linear_fit(&x, &y);
        assert!((slope - 2.0).abs() < 1e-9);
        assert!((intercept - 1.0).abs() < 1e-9);
        assert!((r2 - 1.0).abs() < 1e-9);
    }
}
