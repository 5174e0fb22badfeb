//! The daemon's warm heart: a content-addressed, byte-budgeted LRU of
//! analyzed programs with single-flight request coalescing.
//!
//! Every request that carries an image goes through
//! [`ProgramStore::get_or_analyze`]:
//!
//! * **Hit** — the image's content hash is cached; the request reuses the
//!   converged [`Analysis`] without touching the analyzer.
//! * **Coalesced hit** — another request is analyzing the same bytes
//!   right now; this one blocks on a condvar and wakes to the shared
//!   result instead of duplicating the work.
//! * **Incremental miss** — the image is new but structurally diffable
//!   against a cached program with a small dirty set; the analysis is
//!   seeded from the cached result via
//!   [`spike_core::AnalysisCache::reanalyze`], re-solving only the dirty
//!   routines.
//! * **Cold miss** — nothing comparable is cached; full from-scratch
//!   analysis.
//!
//! Entries are charged their image size plus the analysis' own
//! [`heap-byte estimate`](spike_core::AnalysisCache::heap_bytes); when
//! the total exceeds the configured budget, least-recently-used entries
//! are dropped (never the one just inserted, so a single oversized
//! program still caches).

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use spike_core::{analyze_with, Analysis, AnalysisCache, AnalysisOptions};
use spike_isa::{CloneExact, HeapSize};
use spike_program::Program;

use crate::diff::diff_for_reanalysis;

/// Content hash of an image: [`spike_isa::fnv128`] of its bytes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CacheKey([u64; 2]);

impl CacheKey {
    /// Hashes image bytes to a cache key.
    pub fn of(bytes: &[u8]) -> CacheKey {
        CacheKey(spike_isa::fnv128(bytes))
    }

    /// The two 64-bit lanes, for serialization and for the cluster's
    /// consistent-hash ring (which positions keys by the first lane).
    pub const fn lanes(self) -> [u64; 2] {
        self.0
    }

    /// Rebuilds a key from its serialized lanes.
    pub const fn from_lanes(lanes: [u64; 2]) -> CacheKey {
        CacheKey(lanes)
    }
}

/// How a request's image was resolved; feeds the daemon's counters and
/// the per-response diagnostics.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CacheOutcome {
    /// The exact image was cached.
    Hit,
    /// Another in-flight request for the same image produced the result.
    CoalescedHit,
    /// Analyzed from scratch.
    MissCold,
    /// Analyzed incrementally, seeded from a cached near-identical
    /// program.
    MissIncremental,
}

impl CacheOutcome {
    /// Short name for diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::CoalescedHit => "coalesced-hit",
            CacheOutcome::MissCold => "miss",
            CacheOutcome::MissIncremental => "incremental-miss",
        }
    }
}

/// A cached program with its converged analysis, shared by every request
/// that resolves to the same image bytes.
pub struct AnalyzedProgram {
    /// Content hash of the image this was built from.
    pub key: CacheKey,
    /// The validated program.
    pub program: Program,
    /// The converged interprocedural analysis.
    pub analysis: Analysis,
    /// The raw image bytes. Retained because they are the canonical
    /// program representation for warm-cache snapshots: a snapshot
    /// stores `(image, analysis)` and re-parses the program on restore
    /// (`Program::from_image` is deterministic), and the cluster router
    /// hashes them for ownership checks.
    pub image: Vec<u8>,
}

struct Entry {
    shared: Arc<AnalyzedProgram>,
    /// LRU + heap charge for this entry.
    bytes: usize,
    last_used: u64,
}

/// Monotonically increasing counters, snapshot under the store lock.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct CacheCounters {
    /// Exact-image cache hits.
    pub hits: u64,
    /// Requests that piggybacked on another request's in-flight analysis.
    pub coalesced: u64,
    /// From-scratch analyses.
    pub misses_cold: u64,
    /// Diff-seeded incremental analyses.
    pub misses_incremental: u64,
    /// Entries dropped by the byte-budget LRU.
    pub evictions: u64,
    /// Entries installed warm from a snapshot file at startup.
    pub restored: u64,
}

/// Point-in-time cache occupancy, for the `stats` command.
#[derive(Clone, Copy, Debug)]
pub struct CacheSnapshot {
    /// Cached programs.
    pub entries: usize,
    /// Bytes currently charged against the budget.
    pub bytes: usize,
    /// The configured budget.
    pub budget_bytes: usize,
    /// The counters at snapshot time.
    pub counters: CacheCounters,
}

struct Inner {
    entries: HashMap<CacheKey, Entry>,
    /// Keys currently being analyzed by some thread.
    in_flight: HashSet<CacheKey>,
    /// LRU clock.
    tick: u64,
    total_bytes: usize,
    counters: CacheCounters,
}

impl Inner {
    /// Evicts least-recently-used entries until the budget holds, never
    /// evicting `keep` so a single oversized program still caches.
    fn evict_to_budget(&mut self, budget_bytes: usize, keep: CacheKey) {
        while self.total_bytes > budget_bytes && self.entries.len() > 1 {
            let victim = self
                .entries
                .iter()
                .filter(|(k, _)| **k != keep)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k);
            let Some(key) = victim else { break };
            self.total_bytes -= self.entries.remove(&key).expect("victim exists").bytes;
            self.counters.evictions += 1;
        }
    }
}

/// The shared cache. All public methods are `&self`; the store is meant
/// to live in an `Arc` shared by every worker thread.
pub struct ProgramStore {
    inner: Mutex<Inner>,
    flights: Condvar,
    options: AnalysisOptions,
    budget_bytes: usize,
}

/// Clears the in-flight mark even if analysis panics, so waiting
/// requests wake up and retry instead of hanging forever.
struct FlightGuard<'a> {
    store: &'a ProgramStore,
    key: CacheKey,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        let mut inner = self.store.lock();
        inner.in_flight.remove(&self.key);
        self.store.flights.notify_all();
    }
}

impl ProgramStore {
    /// Creates a store that analyzes with `options` and holds at most
    /// about `budget_bytes` of cached images + analyses.
    pub fn new(options: AnalysisOptions, budget_bytes: usize) -> ProgramStore {
        ProgramStore {
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                in_flight: HashSet::new(),
                tick: 0,
                total_bytes: 0,
                counters: CacheCounters::default(),
            }),
            flights: Condvar::new(),
            options,
            budget_bytes,
        }
    }

    /// The options every analysis through this store uses.
    pub fn options(&self) -> &AnalysisOptions {
        &self.options
    }

    /// A worker panicking while holding the lock leaves only counters and
    /// map bookkeeping, all of which stay internally consistent under
    /// every early exit, so the poison flag carries no information here.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Occupancy and counters, for `stats`.
    pub fn snapshot(&self) -> CacheSnapshot {
        let inner = self.lock();
        CacheSnapshot {
            entries: inner.entries.len(),
            bytes: inner.total_bytes,
            budget_bytes: self.budget_bytes,
            counters: inner.counters,
        }
    }

    /// Resolves image bytes to a cached (or freshly computed) analyzed
    /// program.
    ///
    /// # Errors
    ///
    /// Returns the image loader's error message when `image` does not
    /// decode to a valid [`Program`]. Parse failures are not cached.
    pub fn get_or_analyze(
        &self,
        image: &[u8],
    ) -> Result<(Arc<AnalyzedProgram>, CacheOutcome), String> {
        let key = CacheKey::of(image);

        // Fast path / single-flight gate.
        let donors: Vec<Arc<AnalyzedProgram>> = {
            let mut inner = self.lock();
            let mut waited = false;
            loop {
                if inner.entries.contains_key(&key) {
                    inner.tick += 1;
                    let tick = inner.tick;
                    let e = inner.entries.get_mut(&key).expect("entry just seen");
                    e.last_used = tick;
                    let shared = Arc::clone(&e.shared);
                    let outcome =
                        if waited { CacheOutcome::CoalescedHit } else { CacheOutcome::Hit };
                    match outcome {
                        CacheOutcome::CoalescedHit => inner.counters.coalesced += 1,
                        _ => inner.counters.hits += 1,
                    }
                    return Ok((shared, outcome));
                }
                if inner.in_flight.contains(&key) {
                    waited = true;
                    inner = self.flights.wait(inner).unwrap_or_else(PoisonError::into_inner);
                    continue;
                }
                inner.in_flight.insert(key);
                break;
            }
            // Donor candidates for the incremental path, most recently
            // used first. Snapshot the Arcs so the expensive work below
            // runs outside the lock.
            let mut donors: Vec<(u64, Arc<AnalyzedProgram>)> =
                inner.entries.values().map(|e| (e.last_used, Arc::clone(&e.shared))).collect();
            donors.sort_by_key(|d| std::cmp::Reverse(d.0));
            donors.into_iter().map(|(_, shared)| shared).collect()
        };
        let _flight = FlightGuard { store: self, key };

        let program = Program::from_image(image).map_err(|e| e.to_string())?;

        // Diff against cached programs: the first comparable donor wins
        // (donors are freshest-first, and a recent re-submission is the
        // most likely near-duplicate). Reanalysis pays per dirty routine,
        // so give up when the diff would dirty more than half the
        // program.
        let n = program.routines().len();
        let seeded = donors.iter().find_map(|donor| {
            let dirty = diff_for_reanalysis(&donor.program, &program)?;
            (dirty.len() * 2 <= n).then_some((donor, dirty))
        });

        let analysis = match &seeded {
            Some((donor, dirty)) => {
                // `clone_exact`, not `clone`: the incremental result's
                // `memory_bytes` (and with it the analyze report) must be
                // bit-identical to a from-scratch run, which a plain
                // capacity-compacting clone of the donor would break.
                let mut cache = AnalysisCache::from_analysis(
                    self.options.clone(),
                    donor.analysis.clone_exact(),
                );
                cache.reanalyze(&program, dirty);
                cache.into_analysis().expect("reanalyze always fills the cache")
            }
            None => analyze_with(&program, &self.options),
        };
        let outcome = if analysis.stats.routines_reused > 0 {
            CacheOutcome::MissIncremental
        } else {
            CacheOutcome::MissCold
        };

        let bytes = image.len() + analysis.stats.memory_bytes;
        let shared = Arc::new(AnalyzedProgram { key, program, analysis, image: image.to_vec() });

        let mut inner = self.lock();
        match outcome {
            CacheOutcome::MissIncremental => inner.counters.misses_incremental += 1,
            _ => inner.counters.misses_cold += 1,
        }
        inner.tick += 1;
        let tick = inner.tick;
        inner.total_bytes += bytes;
        inner.entries.insert(key, Entry { shared: Arc::clone(&shared), bytes, last_used: tick });
        inner.evict_to_budget(self.budget_bytes, key);
        drop(inner);
        // FlightGuard drops here: removes the in-flight mark and wakes
        // the coalesced waiters, who now find the entry (or, on the error
        // path above, find nothing and become leaders themselves).
        Ok((shared, outcome))
    }

    /// The entries in LRU order (least recently used first), for
    /// snapshotting. Writing them oldest-first means a restore that
    /// replays insertion order reproduces the eviction order too.
    pub fn export_entries(&self) -> Vec<Arc<AnalyzedProgram>> {
        let inner = self.lock();
        let mut entries: Vec<(u64, Arc<AnalyzedProgram>)> =
            inner.entries.values().map(|e| (e.last_used, Arc::clone(&e.shared))).collect();
        drop(inner);
        entries.sort_by_key(|(last_used, _)| *last_used);
        entries.into_iter().map(|(_, shared)| shared).collect()
    }

    /// Installs one snapshot entry, warm. The snapshot loader has
    /// already validated it (`snapshot::read`); the entry is charged the
    /// heap its analysis holds.
    pub(crate) fn restore_entry(&self, entry: AnalyzedProgram) {
        let key = entry.key;
        let bytes = entry.image.len() + entry.analysis.heap_bytes();
        let shared = Arc::new(entry);
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        // A live entry for the same key wins over the snapshot: it is at
        // least as fresh.
        if inner.entries.contains_key(&key) {
            return;
        }
        inner.total_bytes += bytes;
        inner.entries.insert(key, Entry { shared, bytes, last_used: tick });
        inner.counters.restored += 1;
        inner.evict_to_budget(self.budget_bytes, key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spike_isa::Reg;
    use spike_program::ProgramBuilder;

    fn image(tag: u32) -> Vec<u8> {
        let mut b = ProgramBuilder::new();
        let r = b.routine("main");
        for _ in 0..(tag % 3 + 1) {
            r.def(Reg::A0);
        }
        r.put_int().halt();
        b.build().unwrap().to_image()
    }

    fn store(budget: usize) -> ProgramStore {
        ProgramStore::new(AnalysisOptions::default(), budget)
    }

    #[test]
    fn second_lookup_hits() {
        let s = store(usize::MAX);
        let img = image(0);
        let (_, o1) = s.get_or_analyze(&img).unwrap();
        let (_, o2) = s.get_or_analyze(&img).unwrap();
        assert_eq!(o1, CacheOutcome::MissCold);
        assert_eq!(o2, CacheOutcome::Hit);
        let snap = s.snapshot();
        assert_eq!(snap.entries, 1);
        assert_eq!(snap.counters.hits, 1);
        assert_eq!(snap.counters.misses_cold, 1);
    }

    #[test]
    fn bad_images_error_and_are_not_cached() {
        let s = store(usize::MAX);
        assert!(s.get_or_analyze(b"not an image").is_err());
        assert_eq!(s.snapshot().entries, 0);
        // The flight mark was cleared: a retry errors again rather than
        // deadlocking on a stale in-flight entry.
        assert!(s.get_or_analyze(b"not an image").is_err());
    }

    #[test]
    fn tiny_budget_keeps_exactly_the_newest_entry() {
        let s = store(1);
        for tag in 0..3 {
            s.get_or_analyze(&image(tag)).unwrap();
        }
        let snap = s.snapshot();
        assert_eq!(snap.entries, 1, "every insert evicts the previous sole entry");
        assert_eq!(snap.counters.evictions, 2);
        // The survivor is the most recent image.
        let (_, o) = s.get_or_analyze(&image(2)).unwrap();
        assert_eq!(o, CacheOutcome::Hit);
    }

    #[test]
    fn keys_differ_across_images() {
        assert_ne!(CacheKey::of(&image(0)), CacheKey::of(&image(1)));
        assert_eq!(CacheKey::of(&image(1)), CacheKey::of(&image(1)));
        // A profile binds to its image by the same hash, and the first
        // lane is plain FNV-1a 64 (the ring positions keys by it).
        assert_eq!(CacheKey::of(&image(1)).lanes(), spike_profile::fingerprint(&image(1)));
        assert_eq!(CacheKey::of(b"a").lanes()[0], 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn concurrent_same_image_coalesces_to_one_analysis() {
        let s = Arc::new(store(usize::MAX));
        let img = Arc::new(image(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let s = Arc::clone(&s);
            let img = Arc::clone(&img);
            handles.push(std::thread::spawn(move || s.get_or_analyze(&img).unwrap().1));
        }
        let outcomes: Vec<CacheOutcome> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let misses = outcomes.iter().filter(|o| **o == CacheOutcome::MissCold).count();
        assert_eq!(misses, 1, "exactly one thread does the work: {outcomes:?}");
        let c = s.snapshot().counters;
        assert_eq!(c.misses_cold, 1);
        assert_eq!(c.hits + c.coalesced, 3);
    }
}
