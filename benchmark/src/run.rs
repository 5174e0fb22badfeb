//! One run of one workload: set-up, the timed section, the oracles, and
//! the metrics derived from them. Every time is wall-clock as measured.

use std::collections::BTreeMap;
use std::time::Instant;

use spike_core::{analyze_with, AnalysisCache, AnalysisOptions, Query};
use spike_isa::CloneExact;
use spike_opt::{optimize_with, OptOptions};
use spike_program::{Program, Rewriter};

use crate::batch::{record_stages, spawn_worker, OpSample, Workload};
use crate::corpus::{self, Image};
use crate::oracle::{self, Checked, Facts};
use crate::serve;
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::{geomean, loglog_slope, mean, median, percentile};
use crate::trace::{self, timed_ms, Recorder, Span};

/// What to run.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed section, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or plain run (end-to-end metrics).
    pub trace: bool,
    /// Corpus at scale 0.1 and at least two passes, for a quick check.
    pub smoke: bool,
}

impl Config {
    fn scale(&self) -> f64 {
        if self.smoke {
            0.1
        } else {
            1.0
        }
    }

    fn sim_fuel(&self) -> u64 {
        if self.smoke {
            oracle::SMOKE_SIM_FUEL
        } else {
            oracle::SIM_FUEL
        }
    }
}

/// One image's (or, for `serve-mix`, one request class's) row of the
/// per-image table: what Table 2 / Figure 13 of the paper show.
pub struct Row {
    /// Image or class name.
    pub name: String,
    /// Named values, in print order.
    pub values: Vec<(String, f64)>,
}

/// What a run produced.
#[derive(Default)]
pub struct Outcome {
    /// Ops attempted in the timed section.
    pub attempted: usize,
    /// Ops that errored, were refused or failed an oracle.
    pub failed: usize,
    /// What went wrong with them, for the log.
    pub failures: Vec<String>,
    /// What is wrong with the run itself (a traced run whose spans miss
    /// the coverage or overhead threshold): like a failed op, it makes
    /// the command exit non-zero.
    pub self_check: Vec<String>,
    /// The reported metrics, in table order: every end-to-end metric for
    /// a plain run, every per-layer metric for a traced run.
    pub metrics: Vec<(&'static str, f64)>,
    /// Mean basic blocks per op (the input size behind `ops_per_s`).
    pub blocks_per_op: f64,
    /// Wall-clock seconds of the run's phases (set-up repetitions, timed
    /// section with warm-up, oracles, probes), for whoever budgets runs.
    pub phases: Vec<(&'static str, f64)>,
    /// Per-image rows (traced runs).
    pub rows: Vec<Row>,
    /// The trace (traced runs).
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Failed share of the attempted ops.
    pub fn fail_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Whether the run's numbers can be trusted: ops were made, none
    /// failed, and the trace passed its self-checks.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.self_check.is_empty()
    }
}

/// Runs `config`'s workload once.
pub fn run(config: &Config) -> Result<Outcome, String> {
    match config.workload {
        Workload::ServeMix => run_serve(config),
        _ => run_batch(config),
    }
}

/// Splits a run's wall-clock into named phases.
struct Laps {
    clock: Instant,
    phases: Vec<(&'static str, f64)>,
}

impl Laps {
    fn start() -> Laps {
        Laps { clock: Instant::now(), phases: Vec::new() }
    }

    /// Ends the phase that has been running since the previous lap.
    fn lap(&mut self, name: &'static str) {
        let so_far: f64 = self.phases.iter().map(|p| p.1).sum();
        self.phases.push((name, self.clock.elapsed().as_secs_f64() - so_far));
    }
}

/// Repeats `setup` (up to three times while it is quick) and returns the
/// last result with the median duration: a single set-up of a few tens
/// of milliseconds would not repeat within `setup_s`'s bound.
fn timed_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        let made = setup()?;
        times.push(t.elapsed().as_secs_f64());
        if times.len() == 3 || times[0] > 2.0 {
            return Ok((made, median(&times)));
        }
    }
}

const MS: f64 = 1e-6; // ns → ms

/// The layer spans must cover this share of the op spans, or the
/// per-layer times do not add up to the op and the traced run fails.
const MIN_COVERAGE: f64 = 0.95;
/// Recording may cost at most this share of the traced ops' time.
const MAX_OVERHEAD: f64 = 0.05;

/// Span name → the per-layer metric holding its total duration.
const SPAN_METRICS: [(&str, &str); 15] = [
    ("program.decode", "program.decode_ms"),
    ("program.encode", "program.encode_ms"),
    ("cfg.build", "cfg.build_ms"),
    ("cfg.init", "cfg.init_ms"),
    ("core.analyze", "core.analyze_ms"),
    ("core.psg_build", "core.psg_build_ms"),
    ("core.phase1", "core.phase1_ms"),
    ("core.phase2", "core.phase2_ms"),
    ("core.stack", "core.stack_ms"),
    ("core.drop", "core.drop_ms"),
    ("lint.run", "lint.run_ms"),
    ("serve.render_analyze", "serve.render_analyze_ms"),
    ("serve.render_lint", "serve.render_lint_ms"),
    ("serve.render_optimize", "serve.render_optimize_ms"),
    ("opt.optimize", "opt.optimize_ms"),
];

/// Span name → (total, self) time in ms.
type SpanTimes = BTreeMap<String, (f64, f64)>;

/// Per image: the median over that image's traced ops of each span's
/// time.
fn span_medians(spans: &[Span], ops: &[OpSample], images: usize) -> Vec<SpanTimes> {
    type Samples = BTreeMap<String, (Vec<f64>, Vec<f64>)>;
    let mut samples: Vec<Samples> = vec![BTreeMap::new(); images];
    for (op, names) in trace::by_op(spans) {
        let Some(sample) = ops.get(op as usize) else { continue };
        for (name, (total, own)) in names {
            let e = samples[sample.input].entry(name).or_default();
            e.0.push(total as f64 * MS);
            e.1.push(own as f64 * MS);
        }
    }
    samples
        .into_iter()
        .map(|m| m.into_iter().map(|(k, (t, o))| (k, (median(&t), median(&o)))).collect())
        .collect()
}

/// The per-layer metric map, every name present and 0 until filled.
struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn new() -> Layers {
        Layers(PER_LAYER.iter().map(|m| (m.name, 0.0)).collect())
    }

    fn set(&mut self, name: &str, value: f64) {
        *self.0.get_mut(name).unwrap_or_else(|| panic!("{name} is not a per-layer metric")) = value;
    }

    fn get(&self, name: &str) -> f64 {
        self.0[name]
    }

    /// Times: mean over images of the per-image median, ms per op.
    fn set_span_times(&mut self, medians: &[SpanTimes]) {
        let per_op = |span: &str, own: bool| {
            let v: Vec<f64> = medians
                .iter()
                .filter_map(|m| m.get(span))
                .map(|t| if own { t.1 } else { t.0 })
                .collect();
            (!v.is_empty()).then(|| v.iter().sum::<f64>() / medians.len() as f64)
        };
        for (span, metric) in SPAN_METRICS {
            if let Some(ms) = per_op(span, false) {
                self.set(metric, ms);
            }
        }
        // What `analyze_with` spends outside its own stage fields.
        if let Some(ms) = per_op("core.analyze", true) {
            self.set("core.unattributed_ms", ms);
        }
    }

    /// Facts: counts are summed over one pass of the corpus, one-shot
    /// reference timings averaged.
    fn set_facts(&mut self, facts: &[Facts]) {
        let names: Vec<&'static str> =
            self.0.keys().copied().filter(|n| facts.iter().any(|f| f.contains_key(n))).collect();
        for name in names {
            let total: f64 = facts.iter().filter_map(|f| f.get(name)).sum();
            self.set(name, if name.ends_with("_ms") { total / facts.len() as f64 } else { total });
        }
    }

    /// Ratios that follow from the times and counts already set.
    fn set_derived(&mut self, images: usize) {
        let blocks = self.get("cfg.blocks");
        if blocks > 0.0 {
            self.set("core.bytes_per_block", self.get("core.memory_bytes") / blocks);
            self.set(
                "core.us_per_block",
                self.get("core.analyze_ms") * 1e3 * images as f64 / blocks,
            );
        }
        let analyses = self.get("opt.routines_reanalyzed") + self.get("opt.routines_reused");
        if analyses > 0.0 {
            self.set("opt.reuse_ratio", self.get("opt.routines_reused") / analyses);
        }
    }

    /// The harness's own numbers: trace coverage and cost. Returns what
    /// they say is wrong with the trace.
    fn set_trace(&mut self, spans: &[Span]) -> Vec<String> {
        let coverage = trace::coverage(spans);
        let overhead = trace::overhead_share(spans, trace::span_cost_ns());
        self.set("trace.coverage", coverage);
        self.set("trace.overhead_share", overhead);
        let mut wrong = Vec::new();
        if coverage < MIN_COVERAGE {
            wrong.push(format!("trace.coverage is {coverage:.3}, below {MIN_COVERAGE}"));
        }
        if overhead > MAX_OVERHEAD {
            wrong.push(format!("trace.overhead_share is {overhead:.3}, above {MAX_OVERHEAD}"));
        }
        wrong
    }

    fn into_metrics(self) -> Vec<(&'static str, f64)> {
        PER_LAYER.iter().map(|m| (m.name, self.0[m.name])).collect()
    }
}

/// The end-to-end timings: the two percentiles over every op of the timed
/// section as it was measured, and the ops completed ÷ the section's
/// wall-clock. Where every op ran on the same input (`analyze-large`) they
/// all do the same work, so whatever lies beyond the median is the host's
/// noise and not a tail of the workload: `op_ms_p90`, which every run must
/// report, repeats the median there.
fn timing_metrics(ops: &[OpSample], wall_s: f64) -> [(&'static str, f64); 3] {
    let ms: Vec<f64> = ops.iter().map(OpSample::ms).collect();
    let one_input = ops.iter().all(|o| o.input == ops[0].input);
    [
        ("op_ms_p50", percentile(&ms, 50)),
        ("op_ms_p90", percentile(&ms, if one_input { 50 } else { 90 })),
        ("ops_per_s", ops.len() as f64 / wall_s),
    ]
}

fn end_to_end(values: &[(&str, f64)]) -> Vec<(&'static str, f64)> {
    END_TO_END
        .iter()
        .map(|m| {
            let v = values.iter().find(|(n, _)| *n == m.name);
            (m.name, v.unwrap_or_else(|| panic!("{} was not measured", m.name)).1)
        })
        .collect()
}

/// The PSG stages of one image (everything but the stack layer), ms.
fn psg_stage_ms(m: &SpanTimes) -> f64 {
    ["cfg.build", "cfg.init", "core.psg_build", "core.phase1", "core.phase2"]
        .iter()
        .filter_map(|s| m.get(*s))
        .map(|v| v.0)
        .sum()
}

fn batch_rows(
    images: &[Image],
    ops: &[OpSample],
    medians: &[SpanTimes],
    facts: &[Facts],
) -> Vec<Row> {
    images
        .iter()
        .enumerate()
        .map(|(i, img)| {
            let mine: Vec<f64> = ops.iter().filter(|o| o.input == i).map(OpSample::ms).collect();
            let op = median(&mine);
            let facts = &facts[i];
            let blocks = facts.get("cfg.blocks").copied().unwrap_or(0.0);
            let mut values =
                vec![("ops".to_string(), mine.len() as f64), ("median_ms".to_string(), op)];
            if let (true, Some(analyze)) = (blocks > 0.0, medians[i].get("core.analyze")) {
                values.push(("blocks".to_string(), blocks));
                values.push(("core.us_per_block".to_string(), analyze.0 * 1e3 / blocks));
                values.push((
                    "core.bytes_per_block".to_string(),
                    facts["core.memory_bytes"] / blocks,
                ));
            }
            // Stage shares use self time, so they add up to the op.
            values.extend(
                medians[i]
                    .iter()
                    .filter(|(span, _)| *span != "op")
                    .map(|(span, (_, own))| (format!("share.{span}"), own / op)),
            );
            if let Some(base) = facts.get("baseline.analyze_ms") {
                values.push(("baseline.vs_psg_time".to_string(), psg_stage_ms(&medians[i]) / base));
            }
            Row { name: img.name.clone(), values }
        })
        .collect()
}

fn run_batch(config: &Config) -> Result<Outcome, String> {
    let w = config.workload;
    let (profiles, execs) = w.corpus();
    let mut laps = Laps::start();
    let (corpus, build_s) =
        timed_setup(|| Ok(corpus::build(profiles, execs, config.scale(), config.seed)))?;
    laps.lap("setup");
    let images = &corpus.images;
    let min_passes = if config.smoke { 2 } else { 1 };
    let worker = spawn_worker(w, images, config.seconds, min_passes, config.trace)?;
    laps.lap("worker");

    // The worker has exited; from here on this process is the only one
    // running.
    let checked: Vec<Checked> = images
        .iter()
        .map(|img| match w {
            Workload::OptimizeExec => oracle::check_optimized(img, config.sim_fuel()),
            _ => oracle::check_analyzed(w, img),
        })
        .collect();
    let mut failures: Vec<String> = checked.iter().flat_map(|c| c.failures.clone()).collect();
    failures.extend(worker.ops.iter().filter_map(|o| {
        let name = &images[o.input].name;
        match &o.outcome {
            Err(e) => Some(format!("{name}: op failed: {e}")),
            Ok(h) if *h != checked[o.input].expected => {
                Some(format!("{name}: rendered bytes differ from the oracle's"))
            }
            Ok(_) => None,
        }
    }));
    laps.lap("oracle");
    let mut facts: Vec<Facts> = checked.iter().map(|c| c.facts.clone()).collect();
    let blocks: f64 = facts.iter().filter_map(|f| f.get("cfg.blocks")).sum();
    let mut outcome = Outcome {
        attempted: worker.ops.len(),
        failed: oracle::failed_ops(&worker.ops, &checked),
        failures,
        blocks_per_op: blocks / images.len() as f64,
        ..Outcome::default()
    };

    if !config.trace {
        let ratio = |num: &str, den: &str| {
            geomean(
                &facts
                    .iter()
                    .filter_map(|f| Some(f.get(num)? / f.get(den).filter(|d| **d > 0.0)?))
                    .collect::<Vec<_>>(),
            )
        };
        let mut values = vec![
            ("setup_s", build_s + worker.startup_s),
            ("peak_rss_mb", worker.vm_hwm_kb as f64 / 1024.0),
            ("dyn_insns_ratio", ratio("sim.steps_optimized", "sim.steps_original")),
            ("code_size_ratio", ratio("opt.insns_after", "program.insns")),
        ];
        values.extend(timing_metrics(&worker.ops, worker.timed_s));
        outcome.metrics = end_to_end(&values);
        outcome.phases = laps.phases;
        return Ok(outcome);
    }

    let mut medians = span_medians(&worker.spans, &worker.ops, images.len());
    let mut layers = Layers::new();
    if w == Workload::OptimizeExec {
        for (name, value) in optimize_probes(images, &mut medians, &mut facts, config.seed) {
            layers.set(name, value);
        }
    } else {
        // The paper's headline ratio, per image: PSG stages ÷ full-CFG time.
        let ratios: Vec<f64> = medians
            .iter()
            .zip(&facts)
            .filter_map(|(m, f)| Some(psg_stage_ms(m) / f.get("baseline.analyze_ms")?))
            .collect();
        layers.set("baseline.vs_psg_time", geomean(&ratios));
    }
    layers.set_span_times(&medians);
    layers.set_facts(&facts);
    layers.set_derived(images.len());
    if matches!(w, Workload::AnalyzeMid | Workload::AnalyzeLarge) {
        layers.set("core.scale_exponent", scale_exponent(config.scale()));
    }
    layers.set("synth.generate_s", corpus.generate_s);
    outcome.self_check = layers.set_trace(&worker.spans);
    laps.lap("probes");
    outcome.phases = laps.phases;
    outcome.rows = batch_rows(images, &worker.ops, &medians, &facts);
    outcome.metrics = layers.into_metrics();
    outcome.spans = worker.spans;
    Ok(outcome)
}

/// Log-log slope of `analyze_with` time over program size: the large
/// profile (ustation) at ⅛, ¼, ½ and the whole of `scale`, analyzed once
/// each. Both analyze workloads report it, so that the scaling of the
/// analysis stays in the per-layer numbers of a run of `analyze-mid` too.
fn scale_exponent(scale: f64) -> f64 {
    let profile = Workload::AnalyzeLarge.corpus().0[0];
    let options = AnalysisOptions::default();
    let points = [0.125, 0.25, 0.5, 1.0].map(|f| {
        let program = corpus::profile_program(profile, scale * f, corpus::CORPUS_SEED);
        let (_, ms) = timed_ms(|| drop(std::hint::black_box(analyze_with(&program, &options))));
        (f, ms)
    });
    loglog_slope(&points)
}

/// One analysis of an image under a recorder.
struct Probe {
    program: Program,
    analysis: spike_core::Analysis,
    /// Counts of the analyzed program.
    facts: Facts,
    /// Stage span name → (total, self) ms.
    stages: SpanTimes,
}

fn probe_analysis(image: &Image, options: &AnalysisOptions) -> Result<Probe, String> {
    let program = Program::from_image(&image.bytes).map_err(|e| e.to_string())?;
    let mut rec = Recorder::new();
    rec.on = true;
    let analysis = rec.span("core.analyze", |_| analyze_with(&program, options));
    record_stages(&mut rec, &analysis.stats);
    let facts = oracle::analysis_facts(image, &program, &analysis);
    let stages = trace::by_op(&rec.into_spans())
        .remove(&0)
        .unwrap_or_default()
        .into_iter()
        .map(|(k, (t, o))| (k, (t as f64 * MS, o as f64 * MS)))
        .collect();
    Ok(Probe { program, analysis, facts, stages })
}

/// One incremental re-analysis against a scratch analysis of the same
/// program.
struct Reanalysis {
    incremental_ms: f64,
    scratch_ms: f64,
    reused: usize,
    reanalyzed: usize,
}

/// `AnalysisCache::from_analysis` + `reanalyze` of `edited`, against
/// `analyze_with` on the same program.
fn probe_reanalyze(
    analysis: &spike_core::Analysis,
    edited: &Program,
    dirty: &[spike_program::RoutineId],
    options: &AnalysisOptions,
) -> Reanalysis {
    let (stats, incremental_ms) = timed_ms(|| {
        let mut cache = AnalysisCache::from_analysis(options.clone(), analysis.clone_exact());
        cache.reanalyze(edited, dirty).stats
    });
    let (_, scratch_ms) = timed_ms(|| drop(std::hint::black_box(analyze_with(edited, options))));
    Reanalysis {
        incremental_ms,
        scratch_ms,
        reused: stats.routines_reused,
        reanalyzed: stats.routines_reanalyzed,
    }
}

fn reanalyze_metrics(samples: &[Reanalysis]) -> Vec<(&'static str, f64)> {
    let reused: usize = samples.iter().map(|s| s.reused).sum();
    let all = reused + samples.iter().map(|s| s.reanalyzed).sum::<usize>();
    vec![
        ("core.reanalyze_ms", mean(&samples.iter().map(|s| s.incremental_ms).collect::<Vec<_>>())),
        (
            "core.reanalyze_vs_scratch",
            geomean(&samples.iter().map(|s| s.incremental_ms / s.scratch_ms).collect::<Vec<_>>()),
        ),
        ("core.reanalyze_reuse_ratio", if all > 0 { reused as f64 / all as f64 } else { 0.0 }),
    ]
}

/// The `optimize-exec` probes: one scratch analysis per image (the
/// `core.*` stage times and counts, and `opt.analysis_only_ms`), each
/// pass alone (its time is that run minus the analysis), and one
/// incremental re-analysis after a one-instruction edit.
fn optimize_probes(
    images: &[Image],
    medians: &mut [SpanTimes],
    facts: &mut [Facts],
    seed: u64,
) -> Vec<(&'static str, f64)> {
    let options = AnalysisOptions::default();
    type Enable = fn(&mut OptOptions);
    let passes: [(&'static str, Enable); 5] = [
        ("opt.licm_ms", |o| o.licm = true),
        ("opt.spill_ms", |o| o.spills = true),
        ("opt.realloc_ms", |o| o.realloc = true),
        ("opt.stack_dse_ms", |o| o.stack = true),
        ("opt.dead_code_ms", |o| o.dead_code = true),
    ];
    let mut pass_ms = vec![Vec::new(); passes.len()];
    let mut analysis_only = Vec::new();
    let mut reanalyses = Vec::new();
    for (i, image) in images.iter().enumerate() {
        let Ok(Probe { program, analysis, facts: image_facts, stages }) =
            probe_analysis(image, &options)
        else {
            continue;
        };
        let analyze_ms = stages.get("core.analyze").map_or(0.0, |v| v.0);
        analysis_only.push(analyze_ms);
        medians[i].extend(stages);
        facts[i].extend(image_facts);
        for (p, (_, enable)) in passes.iter().enumerate() {
            let mut only = OptOptions {
                dead_code: false,
                spills: false,
                realloc: false,
                stack: false,
                licm: false,
                ..OptOptions::default()
            };
            enable(&mut only);
            let (_, ms) = timed_ms(|| drop(std::hint::black_box(optimize_with(&program, &only))));
            pass_ms[p].push((ms - analyze_ms).max(0.0));
        }
        // The edit: exchange the operands of a seed-chosen swappable
        // instruction, as the serve-mix in-place edits do.
        let sites: Vec<u32> = program
            .iter()
            .flat_map(|(_, r)| {
                let base = r.addr();
                r.insns()
                    .iter()
                    .enumerate()
                    .filter_map(move |(o, insn)| corpus::swapped(insn).map(|_| base + o as u32))
            })
            .collect();
        if sites.is_empty() {
            continue;
        }
        let addr = sites[corpus::Rng::new(seed, 500 + i as u64).below(sites.len())];
        let insn = corpus::swapped(program.insn_at(addr).expect("site holds an instruction"));
        let mut rw = Rewriter::new(&program);
        rw.replace(addr, insn.expect("site is swappable"));
        if let Ok((edited, dirty)) = rw.finish() {
            reanalyses.push(probe_reanalyze(&analysis, &edited, &dirty, &options));
        }
    }
    let mut out = vec![("opt.analysis_only_ms", mean(&analysis_only))];
    out.extend(passes.iter().zip(&pass_ms).map(|((name, _), ms)| (*name, mean(ms))));
    out.extend(reanalyze_metrics(&reanalyses));
    out
}

/// The per-layer metrics and per-class rows of a traced `serve-mix` run:
/// class medians from the clients' ops, cache counters from the daemon's
/// `stats` before and after, and in-process probes of the layers behind
/// the socket.
fn serve_layers(
    plan: &serve::Plan,
    ops: &[OpSample],
    spans: &[Span],
    (before, after): (&spike_core::json::Json, &spike_core::json::Json),
    smoke: bool,
) -> Result<(Layers, Vec<Row>, Vec<String>), String> {
    let bases: Vec<&serve::Lineage> = plan.lineages.iter().flatten().collect();
    let mut layers = Layers::new();
    let class_ms = |classes: &[serve::Class]| -> Vec<f64> {
        ops.iter().filter(|o| classes.contains(&plan.groups[o.input].0)).map(OpSample::ms).collect()
    };
    use serve::Class::{Cold, EditInplace, EditShift, Hit};
    let cold = percentile(&class_ms(&[Cold]), 50);
    layers.set("serve.hit_ms_p50", percentile(&class_ms(&[Hit]), 50));
    layers.set("serve.edit_inplace_ms_p50", percentile(&class_ms(&[EditInplace]), 50));
    layers.set("serve.edit_shift_ms_p50", percentile(&class_ms(&[EditShift]), 50));
    layers.set("serve.cold_ms_p50", cold);
    let edits = class_ms(&[EditInplace, EditShift]);
    if cold > 0.0 {
        layers.set("serve.edit_vs_cold", percentile(&edits, 50) / cold);
    }
    let delta =
        |group: &str, key: &str| serve::stat(after, group, key) - serve::stat(before, group, key);
    if !edits.is_empty() {
        layers.set(
            "serve.incremental_taken_ratio",
            delta("cache", "incremental_warm") / edits.len() as f64,
        );
    }
    layers.set("serve.cache_hits", delta("cache", "hits"));
    layers.set("serve.cache_cold", delta("cache", "misses"));
    layers.set("serve.cache_incremental", delta("cache", "incremental_warm"));
    layers.set("serve.cache_coalesced", delta("cache", "coalesced"));
    layers.set("serve.cache_evictions", delta("cache", "evictions"));
    layers.set("serve.rejected_busy", delta("queue", "rejected_busy"));
    layers.set("serve.queue_depth_highwater", serve::stat(after, "queue", "depth_highwater"));
    layers.set("serve.daemon_p50_us", serve::stat(after, "latency_us", "p50"));

    // In-process probes of the layers behind the socket, after the
    // daemon has gone.
    for (name, value) in serve::probes(plan, if smoke { 0.3 } else { 2.0 }) {
        layers.set(name, value);
    }
    layers.set(
        "serve.wire_overhead_ms",
        percentile(&class_ms(&serve::Class::ALL), 50) - layers.get("serve.handler_ms_p50"),
    );
    let options = serve::daemon_analysis_options();
    let mut medians = Vec::new();
    let mut facts = Vec::new();
    let mut reanalyses = Vec::new();
    let (mut query_ms, mut cone) = (Vec::new(), 0);
    for lin in &bases {
        let image = Image { name: lin.name.clone(), bytes: lin.images[0].to_vec() };
        let Probe { program, analysis, facts: image_facts, stages } =
            probe_analysis(&image, &options)?;
        medians.push(stages);
        facts.push(image_facts);
        let edited = Program::from_image(&lin.images[1]).map_err(|e| e.to_string())?;
        if let Some(dirty) = spike_serve::diff::diff_for_reanalysis(&program, &edited) {
            reanalyses.push(probe_reanalyze(&analysis, &edited, &dirty, &options));
        }
        let rid = program.routine_by_name(&lin.routine).ok_or("query routine vanished")?;
        let ((_, stats), ms) =
            timed_ms(|| AnalysisCache::new(options.clone()).query(&program, &Query::Summary(rid)));
        query_ms.push(ms);
        cone += stats.cone_routines;
    }
    layers.set_span_times(&medians);
    layers.set_facts(&facts);
    layers.set_derived(bases.len());
    for (name, value) in reanalyze_metrics(&reanalyses) {
        layers.set(name, value);
    }
    layers.set("core.query_ms", mean(&query_ms));
    layers.set("core.query_cone_routines", cone as f64);
    layers.set("synth.generate_s", plan.generate_s);
    let self_check = layers.set_trace(spans);
    let rows = serve::Class::ALL
        .iter()
        .map(|&c| {
            let ms = class_ms(&[c]);
            Row {
                name: c.span().to_string(),
                values: vec![
                    ("ops".to_string(), ms.len() as f64),
                    ("median_ms".to_string(), median(&ms)),
                    ("p90_ms".to_string(), percentile(&ms, 90)),
                ],
            }
        })
        .collect();
    Ok((layers, rows, self_check))
}

fn run_serve(config: &Config) -> Result<Outcome, String> {
    let mut laps = Laps::start();
    let (profiles, _) = config.workload.corpus();
    let ((plan, mut daemon), setup_s) = timed_setup(|| {
        let plan = serve::build_plan(profiles, config.scale(), config.seed);
        let daemon = serve::Daemon::spawn()?;
        serve::prime(&daemon.endpoint, &plan)?;
        Ok((plan, daemon))
    })?;
    laps.lap("setup");
    let endpoint = daemon.endpoint.clone();
    let replay = |seconds: f64, min_periods: usize, trace: bool| -> Vec<serve::ClientRun> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = plan
                .scripts
                .iter()
                .enumerate()
                .map(|(c, script)| {
                    let endpoint = &endpoint;
                    let id_base = (c as u32) << 24;
                    scope.spawn(move || {
                        serve::run_client(endpoint, script, seconds, min_periods, trace, id_base)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread")).collect()
        })
    };
    // The discarded warm-up: one whole period of every script, which
    // takes each lineage once round its cycle and back to its base, so
    // the cache is full and evicting before the clock starts.
    let t = Instant::now();
    replay(0.0, 1, false);
    let setup_s = setup_s + t.elapsed().as_secs_f64();
    let before = serve::daemon_stats(&endpoint)?;
    let min_periods = if config.smoke { 2 } else { 1 };
    let runs = replay(config.seconds, min_periods, config.trace);
    let after = serve::daemon_stats(&endpoint)?;
    let rss_kb = daemon.vm_hwm_kb();
    daemon.stop()?;
    laps.lap("clients");

    let mut failures = Vec::new();
    let mut failed = 0;
    for run in &runs {
        // A sampled response that differs from the local render fails
        // its op; refusals and errors fail theirs.
        let mismatches = serve::check_samples(&run.sampled);
        failed += mismatches.len();
        failures.extend(mismatches);
        for op in &run.ops {
            if let Err(e) = &op.outcome {
                failed += 1;
                failures.push(format!("{}: {e}", plan.groups[op.input].1));
            }
        }
    }
    laps.lap("oracle");
    let bases: Vec<&serve::Lineage> = plan.lineages.iter().flatten().collect();
    let mut outcome = Outcome {
        attempted: runs.iter().map(|r| r.ops.len()).sum(),
        failed,
        failures,
        blocks_per_op: mean(
            &bases.iter().map(|l| corpus::blocks(&l.images[0])).collect::<Vec<_>>(),
        ),
        ..Outcome::default()
    };
    let ops: Vec<OpSample> = runs.iter().flat_map(|r| r.ops.iter().cloned()).collect();
    // The clients start together; the section ends when the last one does.
    let wall_s = runs.iter().map(|r| r.wall_s).fold(0.0, f64::max);

    if !config.trace {
        let mut values = vec![
            ("setup_s", setup_s),
            ("peak_rss_mb", rss_kb as f64 / 1024.0),
            // Nothing is rewritten here: the images go out as they came in.
            ("dyn_insns_ratio", 1.0),
            ("code_size_ratio", 1.0),
        ];
        values.extend(timing_metrics(&ops, wall_s));
        outcome.metrics = end_to_end(&values);
        outcome.phases = laps.phases;
        return Ok(outcome);
    }

    let mut spans: Vec<Span> = Vec::new();
    for run in runs {
        // Each client numbered its spans from 0.
        let shift = spans.len() as u32;
        spans.extend(run.spans.into_iter().map(|mut s| {
            if s.parent != trace::NO_PARENT {
                s.parent += shift;
            }
            s
        }));
    }
    let (layers, rows, self_check) =
        serve_layers(&plan, &ops, &spans, (&before, &after), config.smoke)?;
    outcome.self_check = self_check;
    laps.lap("probes");
    outcome.phases = laps.phases;
    outcome.rows = rows;
    outcome.metrics = layers.into_metrics();
    outcome.spans = spans;
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(input: usize, ns: u64) -> OpSample {
        OpSample { input, ns, outcome: Ok(0) }
    }

    #[test]
    fn timing_metrics_are_taken_over_the_ops_as_measured() {
        let ms = 1_000_000;
        // Nine quick ops and one slow one, in 0.25 s of wall-clock.
        let mut ops: Vec<OpSample> = (1..=9).map(|k| op(0, k * ms)).collect();
        ops.push(op(1, 100 * ms));
        let [p50, p90, per_s] = timing_metrics(&ops, 0.25);
        assert_eq!((p50, p90), (("op_ms_p50", 5.0), ("op_ms_p90", 9.0)));
        assert_eq!(per_s, ("ops_per_s", 40.0));
        // One input: the same work every time, so no tail to report.
        let [p50, p90, per_s] = timing_metrics(&ops[..9], 0.25);
        assert_eq!((p50.1, p90.1, per_s.1), (5.0, 5.0, 36.0));
    }

    #[test]
    fn a_thin_or_costly_trace_fails_the_self_check() {
        let span =
            |name: &str, start, end, parent| Span { name: name.into(), start, end, parent, op: 0 };
        let ms = 1_000_000;
        let covered =
            [span("op", 0, 100 * ms, trace::NO_PARENT), span("core.analyze", 0, 99 * ms, 0)];
        assert_eq!(Layers::new().set_trace(&covered), Vec::<String>::new());
        let thin = [span("op", 0, 100 * ms, trace::NO_PARENT), span("core.analyze", 0, 90 * ms, 0)];
        let wrong = Layers::new().set_trace(&thin);
        assert!(wrong.len() == 1 && wrong[0].contains("trace.coverage"), "{wrong:?}");
        // A 20 ns op cannot pay for its own two spans.
        let costly = [span("op", 0, 20, trace::NO_PARENT), span("core.analyze", 0, 20, 0)];
        let wrong = Layers::new().set_trace(&costly);
        assert!(wrong.len() == 1 && wrong[0].contains("trace.overhead_share"), "{wrong:?}");
    }

    #[test]
    fn layer_times_average_the_per_image_medians() {
        let mk = |ms: f64| SpanTimes::from([("core.analyze".to_string(), (ms, ms / 10.0))]);
        let mut layers = Layers::new();
        layers.set_span_times(&[mk(10.0), mk(30.0)]);
        assert_eq!(layers.get("core.analyze_ms"), 20.0);
        assert_eq!(layers.get("core.unattributed_ms"), 2.0);
        layers.set_facts(&[
            Facts::from([
                ("cfg.blocks", 100.0),
                ("baseline.analyze_ms", 4.0),
                ("core.memory_bytes", 900.0),
            ]),
            Facts::from([
                ("cfg.blocks", 300.0),
                ("baseline.analyze_ms", 8.0),
                ("core.memory_bytes", 700.0),
            ]),
        ]);
        layers.set_derived(2);
        assert_eq!(layers.get("cfg.blocks"), 400.0);
        assert_eq!(layers.get("baseline.analyze_ms"), 6.0);
        assert_eq!(layers.get("core.bytes_per_block"), 4.0);
        assert_eq!(layers.get("core.us_per_block"), 100.0);
        assert_eq!(layers.into_metrics().len(), PER_LAYER.len());
    }
}
