//! The three batch workloads: what one op does, and the worker process
//! that runs ops against the clock.
//!
//! An *op* takes one image from bytes to rendered output bytes through
//! the same public functions the CLI calls. The worker is a child of the
//! harness so that `peak_rss_mb` is the high-water mark of a process that
//! did nothing but ops: corpus generation and the oracles stay in the
//! parent.

use std::io::{Read, Write};
use std::time::{Duration, Instant};

use spike_core::json::Json;
use spike_core::{analyze_with, Analysis, AnalysisOptions};
use spike_lint::{lint_with, LintOptions, LintReport};
use spike_opt::{optimize_with, OptOptions, OptReport};
use spike_program::Program;
use spike_serve::{render, LintFormat};

use crate::corpus::{fnv64, Image};
use crate::trace::{self, Recorder, Span};

/// The benchmark's workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// `analyze` + `lint` over seven SPECint95 profiles.
    AnalyzeMid,
    /// `analyze` over ustation. The one workload `BENCHMARK.json` does not
    /// list: 4 + 22 runs per listed workload and two builds must end
    /// within 3420 s, which with four leaves 20 s of timed ops a run, and
    /// the median of the seven or eight ustation analyses that fit spread
    /// past its own 25 % bound (31 % and 23 % in the benchmark driver's
    /// two sets of ten runs). With three listed the runs are 35 s. It
    /// stays a workload of `run.sh`, so its numbers are in `results.json`.
    AnalyzeLarge,
    /// `optimize` over five profiles and two runnable images.
    OptimizeExec,
    /// The daemon under a hit/edit/cold request mix.
    ServeMix,
}

impl Workload {
    /// All workloads, in report order.
    pub const ALL: [Workload; 4] =
        [Workload::AnalyzeMid, Workload::AnalyzeLarge, Workload::OptimizeExec, Workload::ServeMix];

    /// The name used on the command line and in every report.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AnalyzeMid => "analyze-mid",
            Workload::AnalyzeLarge => "analyze-large",
            Workload::OptimizeExec => "optimize-exec",
            Workload::ServeMix => "serve-mix",
        }
    }

    /// Parses [`Workload::name`].
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The paper profiles of a batch workload's corpus, smallest first,
    /// and how many `generate_executable` images follow them.
    pub fn corpus(self) -> (&'static [&'static str], usize) {
        match self {
            Workload::AnalyzeMid => {
                (&["compress", "li", "m88ksim", "go", "perl", "vortex", "gcc"], 0)
            }
            Workload::AnalyzeLarge => (&["ustation"], 0),
            Workload::OptimizeExec => (&["compress", "m88ksim", "go", "perl", "vortex"], 2),
            Workload::ServeMix => (&["li", "go", "m88ksim", "perl"], 0),
        }
    }
}

/// Lays the `AnalysisStats` stage fields out under the `core.analyze`
/// span that just closed.
pub(crate) fn record_stages(rec: &mut Recorder, s: &spike_core::AnalysisStats) {
    rec.stages(
        "core.analyze",
        &[
            ("cfg.build", s.cfg_build),
            ("cfg.init", s.init),
            ("core.psg_build", s.psg_build),
            ("core.phase1", s.phase1),
            ("core.phase2", s.phase2),
            ("core.stack", s.stack_build),
        ],
    );
}

/// The bytes an op rendered: its report and, for the optimize op, the
/// optimized image. Ops hand them back unhashed, so that hashing — the
/// harness's work, not a layer's — stays outside the op's clock.
#[derive(Default)]
pub struct Rendered {
    /// The report text.
    pub text: String,
    /// The optimized image (empty for the analyze ops).
    pub image: Vec<u8>,
}

impl Rendered {
    /// What the oracle compares across ops and processes.
    pub fn hash(&self) -> u64 {
        fnv64(self.text.as_bytes()) ^ fnv64(&self.image).rotate_left(1)
    }
}

/// What the analyze op has in hand before it drops everything.
pub struct Analyzed {
    /// The rendered report(s).
    pub rendered: Rendered,
    /// The decoded program.
    pub program: Program,
    /// Its analysis.
    pub analysis: Analysis,
    /// The lint findings, when the op lints.
    pub lint: Option<LintReport>,
}

/// The analyze op up to its last render: `from_image` → `analyze_with` →
/// `analyze_report`, with `lint` also `lint_with` on that analysis →
/// `lint_report` (json). The oracle calls this too, so what it checks is
/// the very analysis whose render the ops must reproduce.
pub fn analyze_render(
    img: &Image,
    options: &AnalysisOptions,
    lint: bool,
    rec: &mut Recorder,
) -> Result<Analyzed, String> {
    let program = rec
        .span("program.decode", |_| Program::from_image(&img.bytes))
        .map_err(|e| e.to_string())?;
    let analysis = rec.span("core.analyze", |_| analyze_with(&program, options));
    record_stages(rec, &analysis.stats);
    let mut out = rec.span("serve.render_analyze", |_| {
        render::analyze_report(&img.name, &program, &analysis, false, None)
    })?;
    let lint = lint.then(|| {
        let report =
            rec.span("lint.run", |_| lint_with(&program, &analysis, &LintOptions::default()));
        out.push_str(&rec.span("serve.render_lint", |_| {
            render::lint_report(&img.name, &report, LintFormat::Json)
        }));
        report
    });
    Ok(Analyzed { rendered: Rendered { text: out, image: Vec::new() }, program, analysis, lint })
}

/// The analyze op: [`analyze_render`], then drop everything but the
/// rendered bytes.
pub fn analyze_op(
    img: &Image,
    options: &AnalysisOptions,
    lint: bool,
    rec: &mut Recorder,
) -> Result<Rendered, String> {
    rec.span("op", |rec| {
        let Analyzed { rendered, program, analysis, lint } =
            analyze_render(img, options, lint, rec)?;
        rec.span("core.drop", |_| drop((program, analysis, lint)));
        Ok(rendered)
    })
}

/// The optimize op: `from_image` → `optimize_with(default)` → `to_image`
/// → `optimize_report`. Returns report text + optimized image, and the
/// optimizer's own report.
pub fn optimize_op(img: &Image, rec: &mut Recorder) -> Result<(Rendered, OptReport), String> {
    rec.span("op", |rec| {
        let program = rec
            .span("program.decode", |_| Program::from_image(&img.bytes))
            .map_err(|e| e.to_string())?;
        let (optimized, report) = rec
            .span("opt.optimize", |_| optimize_with(&program, &OptOptions::default()))
            .map_err(|e| e.to_string())?;
        let image = rec.span("program.encode", |_| optimized.to_image());
        let text = rec.span("serve.render_optimize", |_| {
            render::optimize_report(&img.name, "out.img", &report, true, false)
        });
        rec.span("core.drop", |_| drop((optimized, program)));
        Ok((Rendered { text, image }, report))
    })
}

/// Runs the op of a batch workload.
pub fn run_op(w: Workload, img: &Image, rec: &mut Recorder) -> Result<Rendered, String> {
    match w {
        Workload::AnalyzeMid => analyze_op(img, &AnalysisOptions::default(), true, rec),
        Workload::AnalyzeLarge => analyze_op(img, &AnalysisOptions::default(), false, rec),
        Workload::OptimizeExec => optimize_op(img, rec).map(|r| r.0),
        Workload::ServeMix => Err("serve-mix has no batch op".to_string()),
    }
}

/// One timed op as the worker reports it.
#[derive(Clone, Debug, PartialEq)]
pub struct OpSample {
    /// Which input it ran on: the index of the corpus image for a batch
    /// workload, of the request group for `serve-mix`. Ops on one input do
    /// the same work.
    pub input: usize,
    /// Wall-clock nanoseconds.
    pub ns: u64,
    /// Hash of the rendered output, or the error the op returned.
    pub outcome: Result<u64, String>,
}

impl OpSample {
    /// The op's wall-clock duration in ms.
    pub fn ms(&self) -> f64 {
        self.ns as f64 * 1e-6
    }
}

/// What the worker sends back.
pub struct WorkerReport {
    /// Every timed op, in order; the warm-up pass is not among them.
    pub ops: Vec<OpSample>,
    /// Spans of the traced ops.
    pub spans: Vec<Span>,
    /// Process start to first timed op (reading the corpus + warm-up
    /// pass), seconds.
    pub startup_s: f64,
    /// Wall-clock of the timed section, first op's start to last op's
    /// end, seconds.
    pub timed_s: f64,
    /// `VmHWM` after the timed section, kB.
    pub vm_hwm_kb: u64,
}

/// `VmHWM` of process `pid` (`self` for the caller), in kB.
pub fn vm_hwm_kb(pid: &str) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Whether a loop of whole rounds (passes over the corpus, periods of a
/// script) that has done `done` of them in `elapsed` seconds starts
/// another: until `min` are done, and then while half a round of the
/// average length so far still fits into `seconds` — so the loop ends
/// within half a round of `seconds` either way.
pub fn another_round(done: usize, min: usize, elapsed: f64, seconds: f64) -> bool {
    done < min || elapsed * (1.0 + 0.5 / done as f64) < seconds
}

/// What [`timed_passes`] measured.
pub struct Passes {
    /// Every timed op, in order.
    pub ops: Vec<OpSample>,
    /// Spans of every op (traced runs).
    pub spans: Vec<Span>,
    /// How long the discarded warm-up pass took.
    pub warm_up: Duration,
    /// Wall-clock of the timed section.
    pub timed: Duration,
}

/// Runs whole passes over `images` for about `seconds` (and at least
/// `min_passes`; see [`another_round`]), after one discarded warm-up
/// pass. Whole passes keep the mix of images —
/// and so what the percentiles mean — the same in every run. With
/// `trace`, every timed op records spans.
pub fn timed_passes(
    w: Workload,
    images: &[Image],
    seconds: f64,
    min_passes: usize,
    trace: bool,
) -> Passes {
    let mut rec = Recorder::new();
    let start = Instant::now();
    for img in images {
        let _ = run_op(w, img, &mut rec);
    }
    let warm_up = start.elapsed();
    let mut ops = Vec::new();
    let start = Instant::now();
    let mut pass = 0;
    while another_round(pass, min_passes, start.elapsed().as_secs_f64(), seconds) {
        for (input, img) in images.iter().enumerate() {
            rec.on = trace;
            rec.set_op(ops.len() as u32);
            let t = Instant::now();
            let rendered = run_op(w, img, &mut rec);
            let ns = t.elapsed().as_nanos() as u64;
            ops.push(OpSample { input, ns, outcome: rendered.map(|r| r.hash()) });
        }
        pass += 1;
    }
    Passes { ops, spans: rec.into_spans(), warm_up, timed: start.elapsed() }
}

/// The worker process: reads the corpus from stdin, runs
/// [`timed_passes`], writes a [`WorkerReport`] to stdout.
pub fn worker_main(
    w: Workload,
    seconds: f64,
    min_passes: usize,
    trace: bool,
) -> Result<(), String> {
    let born = Instant::now();
    let mut input = Vec::new();
    std::io::stdin().read_to_end(&mut input).map_err(|e| format!("reading corpus: {e}"))?;
    let images = decode_corpus(&input)?;
    drop(input);
    let before = born.elapsed();
    let passes = timed_passes(w, &images, seconds, min_passes, trace);
    let report = WorkerReport {
        ops: passes.ops,
        spans: passes.spans,
        startup_s: (before + passes.warm_up).as_secs_f64(),
        timed_s: passes.timed.as_secs_f64(),
        vm_hwm_kb: vm_hwm_kb("self"),
    };
    let mut out = String::new();
    report.to_json().write(&mut out);
    out.push('\n');
    std::io::stdout().write_all(out.as_bytes()).map_err(|e| format!("writing report: {e}"))
}

/// Frames `images` for the worker's stdin: count, then per image name
/// and bytes, each length-prefixed (little-endian u64).
pub fn encode_corpus(images: &[Image]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut put = |b: &[u8]| {
        out.extend_from_slice(&(b.len() as u64).to_le_bytes());
        out.extend_from_slice(b);
    };
    put(&(images.len() as u64).to_le_bytes());
    for img in images {
        put(img.name.as_bytes());
        put(&img.bytes);
    }
    out
}

fn decode_corpus(mut input: &[u8]) -> Result<Vec<Image>, String> {
    let mut take = || -> Result<&[u8], String> {
        let (len, rest) = input.split_first_chunk::<8>().ok_or("corpus: truncated length")?;
        let len = usize::try_from(u64::from_le_bytes(*len)).map_err(|e| e.to_string())?;
        if len > rest.len() {
            return Err("corpus: truncated field".to_string());
        }
        let (field, rest) = rest.split_at(len);
        input = rest;
        Ok(field)
    };
    let count = take()?;
    let count = u64::from_le_bytes(count.try_into().map_err(|_| "corpus: bad count")?);
    (0..count)
        .map(|_| {
            let name = String::from_utf8(take()?.to_vec()).map_err(|e| e.to_string())?;
            Ok(Image { name, bytes: take()?.to_vec() })
        })
        .collect()
}

impl WorkerReport {
    fn to_json(&self) -> Json {
        let ops = self
            .ops
            .iter()
            .map(|o| {
                let outcome = match &o.outcome {
                    // Hashes are full 64-bit values; JSON integers are i64.
                    Ok(h) => ("hash", Json::from(format!("{h:016x}"))),
                    Err(e) => ("error", Json::from(e.as_str())),
                };
                Json::Obj(
                    [("input", Json::from(o.input)), ("ns", Json::from(o.ns)), outcome]
                        .into_iter()
                        .map(|(k, v)| (k.to_string(), v))
                        .collect(),
                )
            })
            .collect();
        Json::Obj(vec![
            ("ops".to_string(), Json::Arr(ops)),
            ("spans".to_string(), trace::to_json(&self.spans)),
            ("startup_s".to_string(), Json::from(self.startup_s)),
            ("timed_s".to_string(), Json::from(self.timed_s)),
            ("vm_hwm_kb".to_string(), Json::from(self.vm_hwm_kb)),
        ])
    }

    /// Parses the worker's stdout.
    pub fn from_json(text: &str) -> Result<WorkerReport, String> {
        let json = Json::parse(text.trim()).map_err(|e| format!("worker report: {e}"))?;
        let field = |k: &str| json.get(k).ok_or(format!("worker report: no {k}"));
        let ops = field("ops")?
            .as_array()
            .ok_or("worker report: ops is not an array")?
            .iter()
            .map(|o| {
                let outcome = match (o.get("hash").and_then(Json::as_str), o.get("error")) {
                    (Some(h), _) => Ok(u64::from_str_radix(h, 16).map_err(|e| e.to_string())?),
                    (None, Some(e)) => Err(e.as_str().unwrap_or("op failed").to_string()),
                    (None, None) => return Err("worker report: op without outcome".to_string()),
                };
                Ok(OpSample {
                    input: o.get("input").and_then(Json::as_u64).ok_or("op: no input")? as usize,
                    ns: o.get("ns").and_then(Json::as_u64).ok_or("op: no ns")?,
                    outcome,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(WorkerReport {
            ops,
            spans: trace::from_json(field("spans")?)?,
            startup_s: field("startup_s")?.as_f64().ok_or("worker report: startup_s")?,
            timed_s: field("timed_s")?.as_f64().ok_or("worker report: timed_s")?,
            vm_hwm_kb: field("vm_hwm_kb")?.as_u64().ok_or("worker report: vm_hwm_kb")?,
        })
    }
}

/// Spawns this executable as a worker, feeds it `images`, and returns
/// its report once it has exited.
pub fn spawn_worker(
    w: Workload,
    images: &[Image],
    seconds: f64,
    min_passes: usize,
    trace: bool,
) -> Result<WorkerReport, String> {
    use std::process::{Command, Stdio};
    let exe = std::env::current_exe().map_err(|e| format!("locating the harness: {e}"))?;
    let mut child = Command::new(exe)
        .args(["worker", "--workload", w.name()])
        .args(["--seconds", &seconds.to_string(), "--min-passes", &min_passes.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning the worker: {e}"))?;
    let corpus = encode_corpus(images);
    let mut stdin = child.stdin.take().expect("stdin was piped");
    // The worker reads all of stdin before it writes anything, so a
    // plain write cannot deadlock against its stdout pipe.
    let fed = stdin.write_all(&corpus);
    drop(stdin);
    let output = child.wait_with_output().map_err(|e| format!("waiting for the worker: {e}"))?;
    fed.map_err(|e| format!("feeding the worker: {e}"))?;
    if !output.status.success() {
        return Err(format!("worker exited with {}", output.status));
    }
    WorkerReport::from_json(&String::from_utf8_lossy(&output.stdout))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus;

    #[test]
    fn corpus_framing_round_trips() {
        let images = corpus::build(&["compress"], 1, 0.1, 3).images;
        let back = decode_corpus(&encode_corpus(&images)).unwrap();
        assert_eq!(back.len(), 2);
        for (a, b) in images.iter().zip(&back) {
            assert_eq!((&a.name, &a.bytes), (&b.name, &b.bytes));
        }
        assert!(decode_corpus(&encode_corpus(&images)[..40]).is_err());
    }

    #[test]
    fn ops_are_deterministic_and_traced_when_asked() {
        let images = corpus::build(&["compress"], 0, 0.1, 3).images;
        let Passes { ops, spans, warm_up, timed } =
            timed_passes(Workload::AnalyzeMid, &images, 0.0, 2, true);
        assert_eq!(ops.len(), 2);
        assert!(warm_up > Duration::ZERO);
        assert!(timed.as_nanos() as u64 >= ops.iter().map(|o| o.ns).sum::<u64>());
        let first = ops[0].outcome.clone().unwrap();
        assert!(ops.iter().all(|o| o.outcome == Ok(first)));
        // Every timed op has its spans (the warm-up pass has none), and
        // they cover it.
        let traced_ops: Vec<u32> = spans.iter().filter(|s| s.name == "op").map(|s| s.op).collect();
        assert_eq!(traced_ops, [0, 1]);
        assert!(spans.iter().any(|s| s.name == "core.phase1"));
        assert!(spans.iter().any(|s| s.name == "lint.run"));
        assert!(trace::coverage(&spans) > 0.9);
        let plain = timed_passes(Workload::AnalyzeMid, &images, 0.0, 1, false);
        assert!(plain.spans.is_empty());
        assert_eq!(plain.ops[0].outcome, Ok(first));
    }

    #[test]
    fn worker_report_round_trips_through_json() {
        let report = WorkerReport {
            ops: vec![
                OpSample { input: 1, ns: 12345, outcome: Ok(u64::MAX - 3) },
                OpSample { input: 0, ns: 7, outcome: Err("boom".into()) },
            ],
            spans: vec![Span {
                name: "op".into(),
                start: 1,
                end: 9,
                parent: trace::NO_PARENT,
                op: 0,
            }],
            startup_s: 0.25,
            timed_s: 1.5,
            vm_hwm_kb: 4096,
        };
        let mut text = String::new();
        report.to_json().write(&mut text);
        let back = WorkerReport::from_json(&text).unwrap();
        assert_eq!(back.ops, report.ops);
        assert_eq!(back.spans, report.spans);
        assert_eq!((back.startup_s, back.timed_s, back.vm_hwm_kb), (0.25, 1.5, 4096));
    }
}
