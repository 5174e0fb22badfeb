//! The metric names this benchmark fixes, in report order. `BENCHMARK.json`
//! at the repo root lists the same names; a unit test keeps the two in
//! step.

/// Which direction is an improvement.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

use Better::{Higher, Lower};

/// The end-to-end metrics, every time a wall-clock time as measured. The
/// bounds of the measured ones are the widest the contract allows because
/// that is what the host gives: ten 35 s runs at ten seeds spread
/// (interquartile range ÷ median) by 3–15 % on the timings and by up to
/// 14 % on the peak, and their medians move by up to 23 % from one hour
/// to the next (README.md, "How steady the numbers are"); a bound below
/// that would reject the benchmark against itself.
/// `dyn_insns_ratio` and `code_size_ratio` are counts of the generated
/// code's quality: they repeat exactly, and their bound only absorbs float
/// formatting.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd { name: "setup_s", unit: "s", better: Lower, bound: 0.25 },
    EndToEnd { name: "op_ms_p50", unit: "ms", better: Lower, bound: 0.25 },
    EndToEnd { name: "op_ms_p90", unit: "ms", better: Lower, bound: 0.25 },
    EndToEnd { name: "ops_per_s", unit: "1/s", better: Higher, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Lower, bound: 0.25 },
    EndToEnd { name: "dyn_insns_ratio", unit: "ratio", better: Lower, bound: 0.001 },
    EndToEnd { name: "code_size_ratio", unit: "ratio", better: Lower, bound: 0.001 },
];

/// A per-layer metric, from the traced run.
pub struct PerLayer {
    /// Metric name, `layer.what`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Whether two runs of one commit at one seed must report the very
    /// same value (a count of deterministic work, or a ratio of such
    /// counts), as opposed to a time or a count that grows with how many
    /// ops fitted into the run.
    pub exact: bool,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better, exact: false }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better, exact: true }
}

/// The per-layer metrics. A time is wall-clock milliseconds per op (mean
/// over the corpus of each image's median); a count is summed over one
/// pass of the corpus; a layer the workload does not exercise reports 0.
pub const PER_LAYER: [PerLayer; 85] = [
    layer("program.decode_ms", "ms", Lower),
    layer("program.encode_ms", "ms", Lower),
    exact("program.image_bytes", "bytes", Lower),
    exact("program.insns", "count", Lower),
    layer("cfg.build_ms", "ms", Lower),
    layer("cfg.init_ms", "ms", Lower),
    exact("cfg.blocks", "count", Lower),
    exact("cfg.arcs", "count", Lower),
    layer("callgraph.build_ms", "ms", Lower),
    exact("callgraph.sccs", "count", Higher),
    exact("callgraph.largest_scc", "count", Lower),
    layer("core.analyze_ms", "ms", Lower),
    layer("core.psg_build_ms", "ms", Lower),
    layer("core.stack_ms", "ms", Lower),
    layer("core.drop_ms", "ms", Lower),
    exact("core.psg_nodes", "count", Lower),
    exact("core.psg_edges", "count", Lower),
    exact("core.stack_visits", "count", Lower),
    exact("core.memory_bytes", "bytes", Lower),
    exact("core.bytes_per_block", "bytes", Lower),
    layer("core.us_per_block", "us", Lower),
    layer("core.phase1_ms", "ms", Lower),
    layer("core.phase2_ms", "ms", Lower),
    exact("core.phase1_visits", "count", Lower),
    exact("core.phase2_visits", "count", Lower),
    exact("core.waves", "count", Higher),
    layer("core.scale_exponent", "ratio", Lower),
    layer("core.unattributed_ms", "ms", Lower),
    layer("core.reanalyze_ms", "ms", Lower),
    layer("core.reanalyze_vs_scratch", "ratio", Lower),
    exact("core.reanalyze_reuse_ratio", "ratio", Higher),
    layer("core.query_ms", "ms", Lower),
    exact("core.query_cone_routines", "count", Lower),
    layer("baseline.analyze_ms", "ms", Lower),
    layer("baseline.vs_psg_time", "ratio", Lower),
    layer("lint.run_ms", "ms", Lower),
    exact("lint.diagnostics", "count", Lower),
    exact("lint.errors", "count", Lower),
    layer("serve.render_analyze_ms", "ms", Lower),
    layer("serve.render_lint_ms", "ms", Lower),
    layer("serve.render_optimize_ms", "ms", Lower),
    layer("opt.optimize_ms", "ms", Lower),
    layer("opt.analysis_only_ms", "ms", Lower),
    layer("opt.licm_ms", "ms", Lower),
    layer("opt.spill_ms", "ms", Lower),
    layer("opt.realloc_ms", "ms", Lower),
    layer("opt.stack_dse_ms", "ms", Lower),
    layer("opt.dead_code_ms", "ms", Lower),
    exact("opt.routines_reanalyzed", "count", Lower),
    exact("opt.routines_reused", "count", Higher),
    exact("opt.reuse_ratio", "ratio", Higher),
    exact("opt.dead_deleted", "count", Higher),
    exact("opt.spill_pairs_removed", "count", Higher),
    exact("opt.registers_reallocated", "count", Higher),
    exact("opt.save_restores_deleted", "count", Higher),
    exact("opt.stack_stores_deleted", "count", Higher),
    exact("opt.loads_hoisted", "count", Higher),
    exact("opt.ops_hoisted", "count", Higher),
    exact("opt.insns_removed", "count", Higher),
    exact("sim.steps_original", "count", Lower),
    exact("sim.steps_optimized", "count", Lower),
    layer("sim.run_ms", "ms", Lower),
    layer("serve.hash_ms", "ms", Lower),
    layer("serve.frame_ms", "ms", Lower),
    layer("serve.store_hit_ms", "ms", Lower),
    layer("serve.handler_ms_p50", "ms", Lower),
    layer("serve.wire_overhead_ms", "ms", Lower),
    layer("serve.hit_ms_p50", "ms", Lower),
    layer("serve.diff_ms", "ms", Lower),
    layer("serve.edit_inplace_ms_p50", "ms", Lower),
    layer("serve.edit_shift_ms_p50", "ms", Lower),
    layer("serve.cold_ms_p50", "ms", Lower),
    layer("serve.edit_vs_cold", "ratio", Lower),
    layer("serve.incremental_taken_ratio", "ratio", Higher),
    layer("serve.cache_hits", "count", Higher),
    layer("serve.cache_cold", "count", Lower),
    layer("serve.cache_incremental", "count", Higher),
    layer("serve.cache_coalesced", "count", Higher),
    layer("serve.cache_evictions", "count", Lower),
    layer("serve.rejected_busy", "count", Lower),
    layer("serve.queue_depth_highwater", "count", Lower),
    layer("serve.daemon_p50_us", "us", Lower),
    layer("synth.generate_s", "s", Lower),
    layer("trace.coverage", "ratio", Higher),
    layer("trace.overhead_share", "ratio", Lower),
];

/// The unit of metric `name`, end-to-end or per-layer.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find_map(|(n, u)| (n == name).then_some(u))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Workload;
    use spike_core::json::Json;

    /// `BENCHMARK.json` names exactly these metrics and workloads.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let json =
            Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let list = |k: &str| json.get(k).and_then(Json::as_array).unwrap_or_else(|| panic!("{k}"));
        let text = |j: &Json, k: &str| j.get(k).and_then(Json::as_str).unwrap().to_string();

        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(text(j, "name"), m.name);
            assert_eq!(text(j, "unit"), m.unit);
            assert_eq!(text(j, "better"), m.better.name());
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(m.bound), "{}", m.name);
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(text(j, "name"), m.name);
            assert_eq!(text(j, "unit"), m.unit);
            assert_eq!(text(j, "better"), m.better.name());
        }
        let names: Vec<String> = list("workloads").iter().map(|w| text(w, "name")).collect();
        // All but `analyze-large`, which only `run.sh` runs.
        let listed: Vec<&str> = Workload::ALL
            .iter()
            .filter(|w| **w != Workload::AnalyzeLarge)
            .map(|w| w.name())
            .collect();
        assert_eq!(names, listed);
        assert_eq!(
            list("paths").iter().filter_map(Json::as_str).collect::<Vec<_>>(),
            ["benchmark"]
        );
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> =
            END_TO_END.iter().map(|m| m.name).chain(PER_LAYER.iter().map(|m| m.name)).collect();
        assert!(names.iter().all(|n| {
            n.len() <= 64 && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        }));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
        assert_eq!(unit_of("op_ms_p50"), Some("ms"));
        assert_eq!(unit_of("core.us_per_block"), Some("us"));
        assert_eq!(unit_of("nope"), None);
    }
}
