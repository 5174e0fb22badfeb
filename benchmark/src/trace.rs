//! Harness-side spans: one per call into a layer, recorded by the
//! benchmark around the call, held in memory and written out when the
//! run ends. Nothing here touches the program under test.
//!
//! A span is `{name, start, end, parent, op}`: `parent` is the index of
//! the span that was open when this one started, `op` the operation the
//! span belongs to. A layer's *self time* is its span minus the part of
//! it that child spans cover.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use spike_core::json::Json;

/// `parent` of a span that has none (the per-op root).
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded interval, in nanoseconds since the recorder's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `core.analyze`.
    pub name: String,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// The operation this span belongs to.
    pub op: u32,
}

impl Span {
    /// The span's length in ns.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// Records spans while switched on; a no-op (one branch per call) while
/// off, which is how the plain runs' timed sections run.
pub struct Recorder {
    /// Whether [`Recorder::span`] records.
    pub on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
}

impl Recorder {
    /// A recorder that is switched off, with its epoch at now.
    pub fn new() -> Recorder {
        Recorder { on: false, epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), op: 0 }
    }

    /// Sets the operation id stamped on the spans that follow.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    /// Runs `f` inside a span named `name` (when on).
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span { name: name.to_string(), start, end: start, parent, op: self.op });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id as usize].end = self.epoch.elapsed().as_nanos() as u64;
        r
    }

    /// Lays `stages` out as back-to-back child spans of the span that
    /// just closed (the most recently *started* span named `parent`),
    /// from its start. This is how the stage durations a call already
    /// returns (`AnalysisStats`) enter the trace without instrumenting
    /// the program: the parent's self time is then exactly the part of
    /// the call its own stage fields do not account for.
    pub fn stages(&mut self, parent: &str, stages: &[(&str, Duration)]) {
        if !self.on {
            return;
        }
        let Some(pid) = self.spans.iter().rposition(|s| s.name == parent) else { return };
        let (mut at, end, op) = (self.spans[pid].start, self.spans[pid].end, self.spans[pid].op);
        for (name, d) in stages {
            let stop = (at + d.as_nanos() as u64).min(end);
            self.spans.push(Span {
                name: name.to_string(),
                start: at,
                end: stop,
                parent: pid as u32,
                op,
            });
            at = stop;
        }
    }

    /// Everything recorded so far.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Runs `f` and returns its result with its wall-clock duration in ms: how
/// the one-shot probes of single layers are timed.
pub fn timed_ms<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64() * 1e3)
}

/// Self time of every span: its duration minus the sum of its direct
/// children's durations (children never overlap each other here: one
/// thread records, and stage children are laid out back to back).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.dur());
        }
    }
    own
}

/// Per op: span name → (total duration, self time), in ns. Spans of the
/// same name within one op add up.
pub fn by_op(spans: &[Span]) -> BTreeMap<u32, BTreeMap<String, (u64, u64)>> {
    let own = self_times(spans);
    let mut out: BTreeMap<u32, BTreeMap<String, (u64, u64)>> = BTreeMap::new();
    for (s, own) in spans.iter().zip(own) {
        let e = out.entry(s.op).or_default().entry(s.name.clone()).or_default();
        e.0 += s.dur();
        e.1 += own;
    }
    out
}

/// Share of the root spans' time that their descendants cover:
/// `1 − Σ root self time ÷ Σ root duration`. Roots are the spans without
/// a parent (one per op).
pub fn coverage(spans: &[Span]) -> f64 {
    let own = self_times(spans);
    let (mut total, mut uncovered) = (0u64, 0u64);
    for (s, own) in spans.iter().zip(own) {
        if s.parent == NO_PARENT {
            total += s.dur();
            uncovered += own;
        }
    }
    if total == 0 {
        return 0.0;
    }
    1.0 - uncovered as f64 / total as f64
}

/// What recording one span costs, ns: the median of a few batches of
/// empty spans on a scratch recorder.
pub fn span_cost_ns() -> f64 {
    const BATCH: u32 = 10_000;
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let mut rec = Recorder::new();
            rec.on = true;
            let t = Instant::now();
            for _ in 0..BATCH {
                rec.span("core.analyze", |_| ());
            }
            std::hint::black_box(rec.into_spans());
            t.elapsed().as_nanos() as f64 / f64::from(BATCH)
        })
        .collect();
    crate::stats::median(&batches)
}

/// Share of the traced ops' time that went into recording their spans:
/// `spans × cost of one span ÷ Σ root duration`. The ops' own noise (the
/// same op varies by tens of percent on a shared host) does not enter it,
/// which a comparison of traced with untraced op times could not avoid.
pub fn overhead_share(spans: &[Span], span_cost_ns: f64) -> f64 {
    let total: u64 = spans.iter().filter(|s| s.parent == NO_PARENT).map(Span::dur).sum();
    if total == 0 {
        return 0.0;
    }
    spans.len() as f64 * span_cost_ns / total as f64
}

/// The trace file form of `spans`.
pub fn to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("name".to_string(), Json::from(s.name.as_str())),
                    ("start".to_string(), Json::Int(s.start as i64)),
                    ("end".to_string(), Json::Int(s.end as i64)),
                    (
                        "parent".to_string(),
                        if s.parent == NO_PARENT {
                            Json::Int(-1)
                        } else {
                            Json::Int(i64::from(s.parent))
                        },
                    ),
                    ("op".to_string(), Json::Int(i64::from(s.op))),
                ])
            })
            .collect(),
    )
}

/// Parses what [`to_json`] wrote.
pub fn from_json(json: &Json) -> Result<Vec<Span>, String> {
    let arr = json.as_array().ok_or("spans: not an array")?;
    arr.iter()
        .map(|s| {
            let int = |k: &str| s.get(k).and_then(Json::as_i64).ok_or(format!("span: no {k}"));
            let parent = int("parent")?;
            Ok(Span {
                name: s.get("name").and_then(Json::as_str).ok_or("span: no name")?.to_string(),
                start: int("start")? as u64,
                end: int("end")? as u64,
                parent: if parent < 0 { NO_PARENT } else { parent as u32 },
                op: int("op")? as u32,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: u32) -> Span {
        Span { name: name.into(), start, end, parent, op: 0 }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = vec![
            span("op", 0, 100, NO_PARENT),
            span("decode", 0, 10, 0),
            span("analyze", 10, 90, 0),
            span("phase1", 10, 40, 2),
            span("phase2", 40, 60, 2),
        ];
        assert_eq!(self_times(&spans), vec![10, 10, 30, 30, 20]);
        // 90 of the op's 100 ns sit inside layer spans.
        assert!((coverage(&spans) - 0.9).abs() < 1e-12);
        let per_op = by_op(&spans);
        assert_eq!(per_op[&0]["analyze"], (80, 30));
        // Five spans at 2 ns each against 100 ns of op.
        assert!((overhead_share(&spans, 2.0) - 0.1).abs() < 1e-12);
        assert_eq!(overhead_share(&[], 2.0), 0.0);
        assert!(span_cost_ns() > 0.0);
    }

    #[test]
    fn recorder_nests_and_is_silent_when_off() {
        let mut r = Recorder::new();
        r.span("ignored", |_| ());
        r.on = true;
        r.set_op(7);
        r.span("op", |r| {
            r.span("inner", |_| std::thread::sleep(Duration::from_millis(2)));
            r.stages("inner", &[("a", Duration::from_millis(1)), ("b", Duration::from_secs(9))]);
        });
        let spans = r.into_spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["op", "inner", "a", "b"]);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[1].parent, 0);
        assert_eq!((spans[2].parent, spans[3].parent), (1, 1));
        assert!(spans.iter().all(|s| s.op == 7));
        // Stage children are clipped to their parent, so self time never
        // goes negative.
        assert_eq!(spans[3].end, spans[1].end);
        assert_eq!(from_json(&to_json(&spans)).unwrap(), spans);
    }
}
