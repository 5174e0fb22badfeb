//! Daemon counters and a fixed-bucket latency histogram.
//!
//! Everything here is monotonic-clock or counter based — no wall-clock
//! reads — so the `stats` output is reproducible modulo scheduling. The
//! counters are plain relaxed atomics: they are statistics, not
//! synchronization, and every reader tolerates a momentarily stale view.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Duration;

use spike_core::json::Json;

use crate::cache::CacheSnapshot;

/// Number of finite latency buckets. Bucket 0 counts sub-microsecond
/// observations (an elapsed time of `0µs`); bucket `i ≥ 1` counts
/// observations in `[2^(i-1), 2^i)` microseconds, so every finite
/// bucket's exclusive upper bound is `2^i` — the value the percentiles
/// report. Observations of `2^(BUCKETS-1)` microseconds or more land in
/// a separate overflow bucket rather than being silently merged into the
/// top finite bucket (which would make bucket `BUCKETS-1`'s bound a
/// lie); the overflow count is reported explicitly and percentiles that
/// fall into it return `u64::MAX`.
const BUCKETS: usize = 40;

/// A lock-free power-of-two-bucket histogram of request latencies.
pub struct Histogram {
    counts: [AtomicU64; BUCKETS],
    overflow: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            overflow: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one latency observation.
    pub fn record(&self, elapsed: Duration) {
        let us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        let bucket = 64 - us.leading_zeros() as usize;
        match self.counts.get(bucket) {
            Some(slot) => slot.fetch_add(1, Relaxed),
            None => self.overflow.fetch_add(1, Relaxed),
        };
    }

    fn snapshot(&self) -> ([u64; BUCKETS], u64) {
        let mut out = [0u64; BUCKETS];
        for (o, c) in out.iter_mut().zip(&self.counts) {
            *o = c.load(Relaxed);
        }
        (out, self.overflow.load(Relaxed))
    }

    /// The exclusive upper bound (in µs) of the bucket containing the
    /// `p`-th percentile observation; 0 when nothing was recorded and
    /// `u64::MAX` when the percentile falls in the overflow bucket. `p`
    /// is in `(0, 100]`.
    fn percentile(counts: &[u64; BUCKETS], overflow: u64, p: u64) -> u64 {
        let total: u64 = counts.iter().sum::<u64>() + overflow;
        if total == 0 {
            return 0;
        }
        let rank = (total * p).div_ceil(100);
        let mut cumulative = 0;
        for (i, &c) in counts.iter().enumerate() {
            cumulative += c;
            if cumulative >= rank {
                return 1u64 << i;
            }
        }
        u64::MAX
    }
}

/// Per-command request counters, indexed by wire command name.
#[derive(Default)]
pub struct CommandCounters {
    analyze: AtomicU64,
    lint: AtomicU64,
    optimize: AtomicU64,
    query: AtomicU64,
    compare: AtomicU64,
    stats: AtomicU64,
    shutdown: AtomicU64,
}

impl CommandCounters {
    fn slot(&self, cmd: &str) -> Option<&AtomicU64> {
        match cmd {
            "analyze" => Some(&self.analyze),
            "lint" => Some(&self.lint),
            "optimize" => Some(&self.optimize),
            "query" => Some(&self.query),
            "compare" => Some(&self.compare),
            "stats" => Some(&self.stats),
            "shutdown" => Some(&self.shutdown),
            _ => None,
        }
    }
}

/// All daemon counters. One instance lives in an `Arc` shared by the
/// acceptors, the workers, and the `stats` handler.
#[derive(Default)]
pub struct Metrics {
    /// Requests whose frame was successfully read (including ones later
    /// rejected for deadline or bad content).
    pub requests_total: AtomicU64,
    per_command: CommandCounters,
    /// Requests refused because the bounded work queue was full.
    pub rejected_busy: AtomicU64,
    /// Frames refused for exceeding the byte limit.
    pub rejected_oversized: AtomicU64,
    /// Requests whose deadline expired before or during processing.
    pub rejected_deadline: AtomicU64,
    /// Frames that parsed as JSON but not as a request.
    pub bad_requests: AtomicU64,
    /// Handler panics survived via `catch_unwind`.
    pub panics: AtomicU64,
    /// Image-bearing requests forwarded to their owning shard because
    /// they landed on the wrong cluster member.
    pub forwarded: AtomicU64,
    /// Highest queue depth ever observed.
    pub queue_depth_highwater: AtomicU64,
    /// End-to-end handler latency (dequeue to reply written).
    pub latency: Histogram,
}

impl Metrics {
    /// Counts one dispatched request of the given wire command.
    pub fn count_request(&self, cmd: &str) {
        self.requests_total.fetch_add(1, Relaxed);
        if let Some(slot) = self.per_command.slot(cmd) {
            slot.fetch_add(1, Relaxed);
        }
    }

    /// Raises the queue high-water mark to at least `depth`.
    pub fn observe_queue_depth(&self, depth: usize) {
        self.queue_depth_highwater.fetch_max(depth as u64, Relaxed);
    }

    /// Renders the full `stats` document. Schema (stable, checked by the
    /// CI dogfood job): `{tool, version, requests: {total, analyze, lint,
    /// optimize, query, compare, stats, shutdown}, cache: {entries,
    /// bytes, budget_bytes, hits, misses, incremental_warm,
    /// incremental_resolved_none, incremental_resolved_some,
    /// incremental_resolved_all, coalesced, evictions, restored,
    /// routines_shared, routines_decoded, key_collisions}, queue: {capacity, depth_highwater,
    /// rejected_busy}, rejected: {oversized, deadline, bad_request},
    /// panics, forwarded, latency_us: {p50, p95, p99, buckets,
    /// overflow}}`.
    pub fn to_stats_json(&self, cache: &CacheSnapshot, queue_capacity: usize) -> Json {
        let n = |v: u64| Json::from(v);
        let (counts, overflow) = self.latency.snapshot();
        let obj = |fields: Vec<(&str, Json)>| {
            Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
        };
        obj(vec![
            ("tool", Json::from("spike-served")),
            ("version", Json::from(env!("CARGO_PKG_VERSION"))),
            (
                "requests",
                obj(vec![
                    ("total", n(self.requests_total.load(Relaxed))),
                    ("analyze", n(self.per_command.analyze.load(Relaxed))),
                    ("lint", n(self.per_command.lint.load(Relaxed))),
                    ("optimize", n(self.per_command.optimize.load(Relaxed))),
                    ("query", n(self.per_command.query.load(Relaxed))),
                    ("compare", n(self.per_command.compare.load(Relaxed))),
                    ("stats", n(self.per_command.stats.load(Relaxed))),
                    ("shutdown", n(self.per_command.shutdown.load(Relaxed))),
                ]),
            ),
            (
                "cache",
                obj(vec![
                    ("entries", Json::from(cache.entries)),
                    ("bytes", Json::from(cache.bytes)),
                    ("budget_bytes", Json::from(cache.budget_bytes)),
                    ("hits", n(cache.counters.hits)),
                    ("misses", n(cache.counters.misses_cold)),
                    ("incremental_warm", n(cache.counters.misses_incremental)),
                    ("incremental_resolved_none", n(cache.counters.resolved_none)),
                    ("incremental_resolved_some", n(cache.counters.resolved_some)),
                    ("incremental_resolved_all", n(cache.counters.resolved_all)),
                    ("coalesced", n(cache.counters.coalesced)),
                    ("evictions", n(cache.counters.evictions)),
                    ("restored", n(cache.counters.restored)),
                    ("routines_shared", n(cache.counters.routines_shared)),
                    ("routines_decoded", n(cache.counters.routines_decoded)),
                    ("key_collisions", n(cache.counters.key_collisions)),
                ]),
            ),
            (
                "queue",
                obj(vec![
                    ("capacity", Json::from(queue_capacity)),
                    ("depth_highwater", n(self.queue_depth_highwater.load(Relaxed))),
                    ("rejected_busy", n(self.rejected_busy.load(Relaxed))),
                ]),
            ),
            (
                "rejected",
                obj(vec![
                    ("oversized", n(self.rejected_oversized.load(Relaxed))),
                    ("deadline", n(self.rejected_deadline.load(Relaxed))),
                    ("bad_request", n(self.bad_requests.load(Relaxed))),
                ]),
            ),
            ("panics", n(self.panics.load(Relaxed))),
            ("forwarded", n(self.forwarded.load(Relaxed))),
            (
                "latency_us",
                obj(vec![
                    ("p50", n(Histogram::percentile(&counts, overflow, 50))),
                    ("p95", n(Histogram::percentile(&counts, overflow, 95))),
                    ("p99", n(Histogram::percentile(&counts, overflow, 99))),
                    ("buckets", Json::Arr(counts.iter().map(|&c| n(c)).collect())),
                    ("overflow", n(overflow)),
                ]),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheCounters;

    fn empty_cache() -> CacheSnapshot {
        CacheSnapshot {
            entries: 0,
            bytes: 0,
            budget_bytes: 1 << 20,
            counters: CacheCounters::default(),
        }
    }

    #[test]
    fn histogram_percentiles_bracket_observations() {
        let h = Histogram::default();
        for us in [3u64, 5, 9, 900, 1_000_000] {
            h.record(Duration::from_micros(us));
        }
        let (counts, overflow) = h.snapshot();
        let p50 = Histogram::percentile(&counts, overflow, 50);
        let p99 = Histogram::percentile(&counts, overflow, 99);
        // p50 lands in the bucket holding 9µs (<16), p99 in the bucket
        // holding 1s (<2^20 µs is too small; 1e6 < 2^20 = 1048576).
        assert_eq!(p50, 16);
        assert_eq!(p99, 1 << 20);
        assert!(p50 <= p99);
    }

    #[test]
    fn histogram_buckets_hold_exact_half_open_ranges() {
        let h = Histogram::default();
        // Bucket i ≥ 1 holds [2^(i-1), 2^i); bucket 0 holds only 0µs.
        // Probe every boundary of the first few buckets plus interior
        // points, and both sides of the overflow boundary.
        for us in [0u64, 1, 2, 3, 4, 7, 8, 1023, 1024] {
            h.record(Duration::from_micros(us));
        }
        h.record(Duration::from_micros((1 << 39) - 1)); // top finite bucket
        h.record(Duration::from_micros(1 << 39)); // first overflow value
        h.record(Duration::from_micros(u64::MAX));
        let (counts, overflow) = h.snapshot();
        let mut expected = [0u64; BUCKETS];
        expected[0] = 1; // 0
        expected[1] = 1; // 1
        expected[2] = 2; // 2, 3
        expected[3] = 2; // 4, 7
        expected[4] = 1; // 8
        expected[10] = 1; // 1023
        expected[11] = 1; // 1024
        expected[39] = 1; // 2^39 - 1
        assert_eq!(counts, expected);
        assert_eq!(overflow, 2, "≥ 2^39µs observations go to the overflow bucket");
        // A percentile that falls in the overflow bucket says so rather
        // than reporting the top finite bound.
        assert_eq!(Histogram::percentile(&counts, overflow, 99), u64::MAX);
        assert_eq!(Histogram::percentile(&counts, overflow, 50), 8);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let (counts, overflow) = Histogram::default().snapshot();
        assert_eq!(Histogram::percentile(&counts, overflow, 50), 0);
        assert_eq!(Histogram::percentile(&counts, overflow, 99), 0);
    }

    #[test]
    fn stats_json_has_the_documented_shape() {
        let m = Metrics::default();
        m.count_request("analyze");
        m.count_request("analyze");
        m.count_request("stats");
        m.observe_queue_depth(3);
        m.latency.record(Duration::from_micros(7));
        let json = m.to_stats_json(&empty_cache(), 64);
        assert_eq!(json.get("tool").and_then(Json::as_str), Some("spike-served"));
        let requests = json.get("requests").expect("requests");
        assert_eq!(requests.get("total").and_then(Json::as_u64), Some(3));
        assert_eq!(requests.get("analyze").and_then(Json::as_u64), Some(2));
        assert_eq!(
            json.get("queue").and_then(|q| q.get("depth_highwater")).and_then(Json::as_u64),
            Some(3)
        );
        let lat = json.get("latency_us").expect("latency_us");
        assert!(lat.get("p50").and_then(Json::as_u64).unwrap() >= 8);
        assert_eq!(lat.get("buckets").and_then(Json::as_array).unwrap().len(), BUCKETS);
        // The document round-trips through the shared parser.
        let text = json.to_string();
        assert_eq!(Json::parse(&text).unwrap(), json);
    }
}
