//! Warm-cache snapshots: persist the daemon's analyzed-program LRU
//! across restarts so a replacement instance starts *warm*.
//!
//! # File format
//!
//! A snapshot is a [`spike_isa::container`] with magic `spiksnap`:
//!
//! ```text
//! +----------+--------+-------------+-----------------+----------------------------+
//! | spiksnap | format | payload len | fnv128(payload) | payload                    |
//! | 8 B      | u32 LE | u64 LE      | 2 x u64 LE      | options fp, entries (Snap) |
//! +----------+--------+-------------+-----------------+----------------------------+
//! ```
//!
//! * `format` — [`FORMAT_VERSION`], bumped whenever the payload encoding
//!   changes; a mismatch rejects the file (old daemons never misread new
//!   payloads and vice versa).
//! * the checksum is [`spike_isa::fnv128`] of the payload bytes (the
//!   same [`CacheKey`] hash that content-addresses images), verified
//!   **before** any payload decoding runs.
//!
//! The payload opens with the fingerprint of the analysis options the
//! entries were computed under (see [`spike_core::options_fingerprint`]);
//! a daemon only restores snapshots matching its own configuration,
//! because entries from a different calling standard or filter setting
//! would be *wrong*, not just stale. Then come the entry count and
//! `(key, image, analysis)` triples in LRU order (least recently used
//! first), each [`Snap`]-encoded.
//!
//! Restore is all-or-nothing: every entry is decoded and validated
//! before any is installed, and any truncation, bad tag, or per-entry
//! validation failure abandons the whole snapshot — the daemon starts
//! cold, never with a half-restored cache and never after a panic. The
//! checksum catches accidental damage, not a crafted file, so each entry
//! is checked for what request paths index by:
//!
//! * every compressed-sparse-row table's offsets, one PSG adjacency row
//!   per node or edge ([`spike_core::Psg::check_tables`]), and every
//!   block id a CFG holds naming one of its routine's blocks
//!   (`spike_cfg::ProgramCfg::check_tables`);
//! * the stack layer's tables: one entry per block in each per-block
//!   table, every slot set sized for its frame, and each frame's slots
//!   in strictly increasing offset order
//!   ([`spike_core::StackAnalysis::check_tables`]);
//! * the image parses and hashes to the entry's key;
//! * the analysis fits that program: one CFG, summary, PSG routine and
//!   stack routine per routine, every block's address range inside its
//!   routine, and every SP access of a tracked block on a slot of its
//!   frame ([`spike_core::StackAnalysis::check_slots`]);
//! * the entry is charged the heap its decoded analysis holds, and one
//!   whose stored `memory_bytes` disagrees with that is corrupt.
//!
//! So a restored entry never panics a request or reads out of range; it
//! is not proven to be the analysis its image would get.
//!
//! Writes go through [`container::write_atomic`], so a crash mid-write
//! leaves the previous snapshot intact and a reader never observes a
//! half-written file.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use spike_core::{options_fingerprint, Analysis, AnalysisOptions};
use spike_isa::container::{self, ContainerError};
use spike_isa::{HeapSize, Snap, SnapError, SnapReader, SnapWriter};
use spike_program::Program;

use crate::cache::{AnalyzedProgram, CacheKey, ProgramStore};

/// Payload encoding version. Bump on any change to the `Snap` layout of
/// the analysis structures or to the container.
///
/// 8: each routine's stack facts keep its `CallDigest`, and the stats
/// count the stack layer's routine scans.
/// 9: the stats no longer carry a front-end worker count.
/// 10: each routine CFG keeps one flow table (successor and predecessor
/// rows plus forward ranks) instead of per-block successor and
/// predecessor lists.
/// 11: the shared [`spike_isa::container`] header replaces the JSON one;
/// the options fingerprint opens the payload.
/// 12: a stack summary is two bits, each routine's stack facts keep its
/// own verdict in place of the call digest, and the stats no longer count
/// summary compositions.
pub const FORMAT_VERSION: u32 = 12;

const MAGIC: &[u8; 8] = b"spiksnap";

/// Why a snapshot file was rejected. Every variant maps to "start
/// cold", never to an abort.
#[derive(Debug)]
pub enum SnapshotError {
    /// Filesystem error reading or writing the file.
    Io(std::io::Error),
    /// Not a snapshot file, or one too mangled to carry a header.
    NotASnapshot(&'static str),
    /// A well-formed container produced by an incompatible writer.
    Incompatible(String),
    /// The payload failed its checksum or decode.
    Corrupt(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot i/o error: {e}"),
            SnapshotError::NotASnapshot(what) => write!(f, "not a snapshot file: {what}"),
            SnapshotError::Incompatible(what) => write!(f, "incompatible snapshot: {what}"),
            SnapshotError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> SnapshotError {
        SnapshotError::Io(e)
    }
}

impl From<ContainerError> for SnapshotError {
    fn from(e: ContainerError) -> SnapshotError {
        match e {
            ContainerError::Foreign => SnapshotError::NotASnapshot("bad magic"),
            ContainerError::Incompatible { found } => SnapshotError::Incompatible(format!(
                "format {found} (this daemon writes {FORMAT_VERSION})"
            )),
            ContainerError::Corrupt(what) => SnapshotError::Corrupt(what.into()),
        }
    }
}

impl From<SnapError> for SnapshotError {
    fn from(e: SnapError) -> SnapshotError {
        SnapshotError::Corrupt(e.to_string())
    }
}

/// What a successful restore did, for the startup log line.
#[derive(Clone, Copy, Debug, Default)]
pub struct RestoreReport {
    /// Entries installed warm.
    pub entries: usize,
    /// Total image + analysis bytes charged for them.
    pub bytes: usize,
    /// Wall time spent reading, verifying, and decoding.
    pub elapsed_ms: u128,
}

/// Serializes `entries` into snapshot-file bytes.
pub fn encode(entries: &[Arc<AnalyzedProgram>], options: &AnalysisOptions) -> Vec<u8> {
    let mut payload = SnapWriter::new();
    payload.put_u64(options_fingerprint(options));
    payload.put_usize(entries.len());
    for e in entries {
        e.key.lanes().snap(&mut payload);
        e.image.snap(&mut payload);
        e.analysis.snap(&mut payload);
    }
    container::seal(MAGIC, FORMAT_VERSION, &payload.into_bytes())
}

/// Writes a snapshot of `store`'s full-analysis entries to `path`,
/// atomically (temp file + rename). Returns the entry count and file
/// size written.
///
/// # Errors
///
/// Propagates filesystem errors; the previous snapshot at `path`, if
/// any, survives every failure mode.
pub fn write(
    path: &Path,
    store: &ProgramStore,
    options: &AnalysisOptions,
) -> Result<(usize, usize), SnapshotError> {
    let entries = store.export_entries();
    let bytes = encode(&entries, options);
    container::write_atomic(path, &bytes)?;
    Ok((entries.len(), bytes.len()))
}

/// Reads and fully validates the snapshot at `path` against `options`:
/// the container (magic, format, length, checksum), then the options
/// fingerprint, then every entry (see the module docs). Returns the
/// entries in LRU order (oldest first), not yet installed anywhere.
///
/// # Errors
///
/// Every way a file can be wrong maps to a [`SnapshotError`]; callers
/// treat all of them as "start cold".
pub fn read(path: &Path, options: &AnalysisOptions) -> Result<Vec<AnalyzedProgram>, SnapshotError> {
    let bytes = std::fs::read(path)?;
    let mut r = SnapReader::new(container::open(&bytes, MAGIC, FORMAT_VERSION)?);
    let fp = r.get_u64()?;
    let own_fp = options_fingerprint(options);
    if fp != own_fp {
        return Err(SnapshotError::Incompatible(format!(
            "analysis options fingerprint {fp:016x} != this daemon's {own_fp:016x}"
        )));
    }
    let count = r.get_usize()?;
    let mut entries = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        let key = CacheKey::from_lanes(<[u64; 2]>::unsnap(&mut r)?);
        let image = Vec::<u8>::unsnap(&mut r)?;
        let analysis = Analysis::unsnap(&mut r)?;
        let program = check_entry(key, &image, &analysis).map_err(SnapshotError::Corrupt)?;
        entries.push(AnalyzedProgram { key, program, analysis, image });
    }
    if !r.is_exhausted() {
        return Err(SnapshotError::Corrupt(format!(
            "{} trailing bytes after the last entry",
            r.remaining()
        )));
    }
    Ok(entries)
}

/// Validates one decoded entry and returns its parsed program.
fn check_entry(key: CacheKey, image: &[u8], analysis: &Analysis) -> Result<Program, String> {
    analysis
        .psg
        .check_tables()
        .map_err(|table| format!("psg table {table} does not fit the graph"))?;
    analysis
        .cfg
        .check_tables()
        .map_err(|table| format!("cfg table {table} does not fit the routine"))?;
    analysis
        .stack
        .check_tables(&analysis.cfg)
        .map_err(|table| format!("stack table {table} does not fit the routine"))?;
    // The store charges what the analysis holds; a stored count that
    // disagrees with it was not written by `encode`.
    let held = analysis.heap_bytes();
    if held != analysis.stats.memory_bytes {
        return Err(format!(
            "entry analysis holds {held} bytes, its memory_bytes claims {}",
            analysis.stats.memory_bytes
        ));
    }
    if CacheKey::of(image) != key {
        return Err("entry key does not match its image bytes".into());
    }
    let program = Program::from_image(image).map_err(|e| e.to_string())?;
    // Request paths index the analysis per routine and per block address.
    let routines = program.routines();
    let counts = [
        analysis.cfg.cfgs().len(),
        analysis.summary.routines().len(),
        analysis.psg.all_routine_nodes().len(),
        analysis.stack.all().len(),
    ];
    if counts.iter().any(|&n| n != routines.len()) {
        return Err(format!(
            "entry analysis has {counts:?} (cfg, summary, psg, stack) routines, its image {}",
            routines.len()
        ));
    }
    for (routine, cfg) in routines.iter().zip(analysis.cfg.cfgs()) {
        let span = u64::from(routine.addr())..=u64::from(routine.end_addr());
        let inside = cfg.blocks().iter().all(|b| {
            let start = u64::from(b.start());
            !b.is_empty() && span.contains(&start) && span.contains(&(start + u64::from(b.len())))
        });
        if !inside {
            return Err(format!("a cfg block lies outside routine {}", routine.name()));
        }
    }
    // The stack lints and StackDse index a frame's slots by the offsets
    // its code accesses.
    analysis.stack.check_slots(&program, &analysis.cfg).map_err(|rid| {
        format!("stack frame of {} lacks a slot its code accesses", program.routine(rid).name())
    })?;
    Ok(program)
}

/// Reads the snapshot at `path` and installs every entry into `store`.
/// All-or-nothing: [`read`] builds and validates every entry before
/// any is installed, so on any error the store is left exactly as it
/// was.
///
/// # Errors
///
/// See [`read`].
pub fn restore(
    path: &Path,
    store: &ProgramStore,
    options: &AnalysisOptions,
) -> Result<RestoreReport, SnapshotError> {
    let started = Instant::now();
    let entries = read(path, options)?;
    let mut report = RestoreReport { entries: entries.len(), ..RestoreReport::default() };
    for entry in entries {
        report.bytes += entry.image.len() + entry.analysis.heap_bytes();
        store.restore_entry(entry);
    }
    report.elapsed_ms = started.elapsed().as_millis();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spike_core::{RoutineStack, SlotSet, StackAnalysis};
    use spike_isa::{CloneExact, Reg};
    use spike_program::ProgramBuilder;

    fn image(tag: u32) -> Vec<u8> {
        let mut b = ProgramBuilder::new();
        let r = b.routine("main");
        for _ in 0..(tag % 4 + 1) {
            r.def(Reg::A0);
        }
        r.put_int().halt();
        b.build().unwrap().to_image()
    }

    /// Seals `entries` — an entry count and the entries, as `encode`
    /// writes them — behind `options`' fingerprint, as a snapshot file.
    fn seal(entries: &[u8], options: &AnalysisOptions) -> Vec<u8> {
        let mut payload = options_fingerprint(options).to_le_bytes().to_vec();
        payload.extend_from_slice(entries);
        container::seal(MAGIC, FORMAT_VERSION, &payload)
    }

    fn warm_store(images: &[Vec<u8>]) -> ProgramStore {
        let store = ProgramStore::new(AnalysisOptions::default(), usize::MAX);
        for img in images {
            store.get_or_analyze(img).unwrap();
        }
        store
    }

    #[test]
    fn snapshot_roundtrip_restores_every_entry_warm() {
        let images: Vec<Vec<u8>> = (0..3).map(image).collect();
        let store = warm_store(&images);
        let dir = std::env::temp_dir().join(format!("spike-snap-rt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.snap");
        let options = AnalysisOptions::default();
        let (entries, _) = write(&path, &store, &options).unwrap();
        assert_eq!(entries, 3);

        let fresh = ProgramStore::new(options.clone(), usize::MAX);
        let report = restore(&path, &fresh, &options).unwrap();
        assert_eq!(report.entries, 3);
        for img in &images {
            let (_, outcome) = fresh.get_or_analyze(img).unwrap();
            assert_eq!(outcome, crate::cache::CacheOutcome::Hit, "restored entries serve warm");
        }
        assert_eq!(fresh.snapshot().counters.restored, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejections_are_clean_and_leave_the_store_cold() {
        let images: Vec<Vec<u8>> = (0..2).map(image).collect();
        let store = warm_store(&images);
        let options = AnalysisOptions::default();
        let good = encode(&store.export_entries(), &options);

        let dir = std::env::temp_dir().join(format!("spike-snap-rej-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.snap");

        let mut cases: Vec<(String, Vec<u8>)> = vec![
            ("empty".into(), Vec::new()),
            ("bad magic".into(), b"notasnap".iter().chain(&good[8..]).copied().collect()),
            ("truncated header".into(), good[..10].to_vec()),
            ("truncated payload".into(), good[..good.len() - 7].to_vec()),
            ("flipped payload byte".into(), {
                let mut b = good.clone();
                let last = b.len() - 1;
                b[last] ^= 0x5A;
                b
            }),
        ];
        // Torn at every offset of the first 64 bytes, and at 64 evenly
        // spaced offsets beyond.
        let beyond = (0..64).map(|i| 64 + i * (good.len() - 64) / 64);
        for cut in (0..64).chain(beyond) {
            cases.push((format!("torn at {cut}"), good[..cut].to_vec()));
        }
        for (what, bytes) in cases {
            std::fs::write(&path, &bytes).unwrap();
            let fresh = ProgramStore::new(options.clone(), usize::MAX);
            let err = restore(&path, &fresh, &options);
            assert!(err.is_err(), "{what}: must be rejected");
            assert_eq!(fresh.snapshot().entries, 0, "{what}: store must stay cold");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A file anyone who can write the snapshot can produce: valid header,
    /// valid checksum, and an entry image whose capacity field passes the
    /// plausibility bound but cannot be allocated.
    #[test]
    fn an_unservable_capacity_under_a_valid_checksum_is_corrupt() {
        let mut payload = SnapWriter::new();
        payload.put_usize(1);
        payload.put_u64(0);
        payload.put_u64(0);
        payload.put_usize(1 << 36);
        payload.put_usize(1 << 20);
        payload.put_bytes(&vec![0; 1 << 20]);
        let options = AnalysisOptions::default();
        let bytes = seal(&payload.into_bytes(), &options);

        let dir = std::env::temp_dir().join(format!("spike-snap-cap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.snap");
        std::fs::write(&path, &bytes).unwrap();
        match read(&path, &options) {
            Err(SnapshotError::Corrupt(what)) => assert!(what.contains("vec capacity"), "{what}"),
            Err(other) => panic!("must be Corrupt, got {other:?}"),
            Ok(_) => panic!("must be Corrupt, got a decoded snapshot"),
        }
        let fresh = ProgramStore::new(options.clone(), usize::MAX);
        assert!(restore(&path, &fresh, &options).is_err());
        assert_eq!(fresh.snapshot().entries, 0, "store must stay cold");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Valid header, valid checksum, and an entry whose `memory_bytes`
    /// claims far more than its analysis holds. Charging the stored
    /// number would overflow the byte count, or wrap and undercharge.
    #[test]
    fn a_memory_charge_that_disagrees_with_the_decoded_analysis_is_corrupt() {
        let img = image(0);
        let store = warm_store(std::slice::from_ref(&img));
        let entry = &store.export_entries()[0];
        let mut analysis = entry.analysis.clone_exact();
        analysis.stats.memory_bytes = usize::MAX - 8;
        let mut payload = SnapWriter::new();
        payload.put_usize(1);
        for lane in entry.key.lanes() {
            lane.snap(&mut payload);
        }
        img.snap(&mut payload);
        analysis.snap(&mut payload);
        let options = AnalysisOptions::default();
        let bytes = seal(&payload.into_bytes(), &options);

        let dir = std::env::temp_dir().join(format!("spike-snap-mem-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.snap");
        std::fs::write(&path, &bytes).unwrap();
        match read(&path, &options) {
            Err(SnapshotError::Corrupt(what)) => assert!(what.contains("memory_bytes"), "{what}"),
            Err(other) => panic!("must be Corrupt, got {other:?}"),
            Ok(_) => panic!("must be Corrupt, got a decoded snapshot"),
        }
        let fresh = ProgramStore::new(options.clone(), usize::MAX);
        assert!(restore(&path, &fresh, &options).is_err());
        assert_eq!(fresh.snapshot().entries, 0, "store must stay cold");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Valid header, valid checksum, and a PSG whose out-edge offsets
    /// decrease: decoding must refuse it before any row is looked up.
    #[test]
    fn a_decreasing_csr_offset_under_a_valid_checksum_is_corrupt() {
        let img = image(1);
        let store = warm_store(std::slice::from_ref(&img));
        let entry = &store.export_entries()[0];
        let mut payload = SnapWriter::new();
        payload.put_usize(1);
        for lane in entry.key.lanes() {
            lane.snap(&mut payload);
        }
        img.snap(&mut payload);
        let analysis_at = payload.len();
        entry.analysis.snap(&mut payload);
        let mut bytes = payload.into_bytes();

        // The payload of `Psg` opens with its node and edge vectors, each
        // a (capacity, length) header and the items; the out-edge offsets
        // come next, as another such vector of `u32`s.
        let psg = &entry.analysis.psg;
        assert!(psg.nodes().len() >= 2, "the image needs two rows to make one decrease");
        let mut items = SnapWriter::new();
        psg.nodes().iter().for_each(|n| n.snap(&mut items));
        psg.edges().iter().for_each(|e| e.snap(&mut items));
        let offsets_at = analysis_at + 2 * 16 + items.len();
        let len_at = offsets_at + 8;
        let rows = u64::from_le_bytes(bytes[len_at..len_at + 8].try_into().unwrap());
        assert_eq!(rows as usize, psg.nodes().len() + 1, "found the out-edge offsets");
        let second = offsets_at + 16 + 4;
        bytes[second..second + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let options = AnalysisOptions::default();
        let file = seal(&bytes, &options);

        let dir = std::env::temp_dir().join(format!("spike-snap-csr-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.snap");
        std::fs::write(&path, &file).unwrap();
        match read(&path, &options) {
            Err(SnapshotError::Corrupt(what)) => assert!(what.contains("decrease"), "{what}"),
            Err(other) => panic!("must be Corrupt, got {other:?}"),
            Ok(_) => panic!("must be Corrupt, got a decoded snapshot"),
        }
        let fresh = ProgramStore::new(options.clone(), usize::MAX);
        assert!(restore(&path, &fresh, &options).is_err());
        assert_eq!(fresh.snapshot().entries, 0, "store must stay cold");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Valid header, valid checksum, and a CFG whose first flow
    /// successor names a block past the routine's last: every offset is
    /// in order, so only the CFG table check can refuse it.
    #[test]
    fn an_out_of_range_successor_under_a_valid_checksum_is_corrupt() {
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .cond(spike_isa::BranchCond::Eq, Reg::A0, "join")
            .def(Reg::A0)
            .label("join")
            .put_int()
            .halt();
        let img = b.build().unwrap().to_image();
        let store = warm_store(std::slice::from_ref(&img));
        let entry = &store.export_entries()[0];
        let mut payload = SnapWriter::new();
        payload.put_usize(1);
        for lane in entry.key.lanes() {
            lane.snap(&mut payload);
        }
        img.snap(&mut payload);
        entry.analysis.snap(&mut payload);
        let mut bytes = payload.into_bytes();

        // The flow table opens with its successor offsets and items, each
        // a (capacity, length) header and the `u32`s.
        let cfg = &entry.analysis.cfg.cfgs()[0];
        let blocks = cfg.blocks().len();
        let mut flow = SnapWriter::new();
        cfg.flow().snap(&mut flow);
        let flow = flow.into_bytes();
        let flow_at = bytes.windows(flow.len()).position(|w| w == flow).expect("flow table");
        let items_at = flow_at + 16 + 4 * (blocks + 1);
        let len = u64::from_le_bytes(bytes[items_at + 8..items_at + 16].try_into().unwrap());
        // The routine makes no call, so its flow arcs are its CFG arcs.
        assert!(cfg.arc_count() > 0 && len as usize == cfg.arc_count(), "found the successors");
        let first = items_at + 16;
        bytes[first..first + 4].copy_from_slice(&(blocks as u32).to_le_bytes());
        let options = AnalysisOptions::default();
        let file = seal(&bytes, &options);

        let dir = std::env::temp_dir().join(format!("spike-snap-cfg-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.snap");
        std::fs::write(&path, &file).unwrap();
        match read(&path, &options) {
            Err(SnapshotError::Corrupt(what)) => assert!(what.contains("flow arcs"), "{what}"),
            Err(other) => panic!("must be Corrupt, got {other:?}"),
            Ok(_) => panic!("must be Corrupt, got a decoded snapshot"),
        }
        let fresh = ProgramStore::new(options.clone(), usize::MAX);
        assert!(restore(&path, &fresh, &options).is_err());
        assert_eq!(fresh.snapshot().entries, 0, "store must stay cold");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_and_options_mismatches_are_incompatible() {
        let store = warm_store(&[image(0)]);
        let options = AnalysisOptions::default();
        let good = encode(&store.export_entries(), &options);
        let dir = std::env::temp_dir().join(format!("spike-snap-ver-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.snap");

        // Any other format version is refused up front: a future one,
        // version 3, whose `AnalysisOptions`/`AnalysisStats` layouts still
        // carried the solver-selection fields, version 4, whose
        // `options_fp` was computed with a non-FNV multiplier, version 5,
        // whose `Analysis` payload still carried per-routine loop
        // statistics, version 6, whose PSG tables were one list per row
        // and whose block lists were plain vectors, version 7, whose
        // routine stack facts kept no call digest, version 8, whose
        // stats still counted front-end workers, version 9, whose CFG
        // blocks carried their own successor and predecessor lists,
        // version 10, whose header was JSON, and version 11, whose stack
        // summaries carried offset lists. Splice the format field.
        for other in [999_u32, 3, 4, 5, 6, 7, 8, 9, 10, 11] {
            let mut spliced = good.clone();
            spliced[8..12].copy_from_slice(&other.to_le_bytes());
            std::fs::write(&path, &spliced).unwrap();
            let fresh = ProgramStore::new(options.clone(), usize::MAX);
            match restore(&path, &fresh, &options) {
                Err(SnapshotError::Incompatible(_)) => {}
                got => panic!("format {other} must be Incompatible, got {got:?}"),
            }
            assert_eq!(fresh.snapshot().entries, 0, "format {other}: store must stay cold");
        }

        // A format-10 file as it was written: a length-prefixed JSON
        // header after the magic, whose length reads as the format.
        let payload = &good[container::HEADER_LEN..];
        let [a, b] = CacheKey::of(payload).lanes();
        let header = format!(
            "{{\"tool\":\"spike-served\",\"format\":10,\"entries\":1,\"payload_bytes\":{},\
             \"checksum\":\"{a:016x}{b:016x}\",\"options_fp\":\"{:016x}\"}}",
            payload.len(),
            options_fingerprint(&options)
        );
        let mut v10 = MAGIC.to_vec();
        v10.extend_from_slice(&(header.len() as u32).to_le_bytes());
        v10.extend_from_slice(header.as_bytes());
        v10.extend_from_slice(payload);
        std::fs::write(&path, &v10).unwrap();
        let fresh = ProgramStore::new(options.clone(), usize::MAX);
        match restore(&path, &fresh, &options) {
            Err(SnapshotError::Incompatible(what)) => {
                assert!(what.starts_with(&format!("format {} ", header.len())), "{what}")
            }
            got => panic!("a format-10 file must be Incompatible, got {got:?}"),
        }
        assert_eq!(fresh.snapshot().entries, 0);

        // A snapshot from a daemon with different analysis options is
        // refused even though the payload is pristine.
        std::fs::write(&path, &good).unwrap();
        let other_options = AnalysisOptions { branch_nodes: false, ..AnalysisOptions::default() };
        let fresh = ProgramStore::new(other_options.clone(), usize::MAX);
        match restore(&path, &fresh, &other_options) {
            Err(SnapshotError::Incompatible(_)) => {}
            other => panic!("options mismatch must be Incompatible, got {other:?}"),
        }
        assert_eq!(fresh.snapshot().entries, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Appends one entry, as `encode` writes it, to `payload`.
    fn put_entry(payload: &mut SnapWriter, key: CacheKey, image: &[u8], analysis: &Analysis) {
        key.lanes().snap(payload);
        image.to_vec().snap(payload);
        analysis.snap(payload);
    }

    fn restore_crafted(entries: SnapWriter, name: &str) -> (Result<usize, String>, usize) {
        let options = AnalysisOptions::default();
        let dir = std::env::temp_dir().join(format!("spike-snap-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.snap");
        std::fs::write(&path, seal(&entries.into_bytes(), &options)).unwrap();
        let fresh = ProgramStore::new(options.clone(), usize::MAX);
        let got = restore(&path, &fresh, &options).map(|r| r.entries).map_err(|e| e.to_string());
        let _ = std::fs::remove_dir_all(&dir);
        (got, fresh.snapshot().entries)
    }

    /// Valid checksum, a good first entry, and a second whose image is not
    /// an image: nothing may be installed, not even the first.
    #[test]
    fn a_bad_image_in_a_later_entry_installs_nothing() {
        let img = image(0);
        let store = warm_store(std::slice::from_ref(&img));
        let entry = &store.export_entries()[0];
        let junk = b"definitely not an image";
        let mut entries = SnapWriter::new();
        entries.put_usize(2);
        put_entry(&mut entries, entry.key, &img, &entry.analysis);
        put_entry(&mut entries, CacheKey::of(junk), junk, &entry.analysis);
        let (got, installed) = restore_crafted(entries, "half");
        assert!(got.as_ref().is_err_and(|e| e.starts_with("corrupt snapshot")), "{got:?}");
        assert_eq!(installed, 0, "a failed restore must leave the store cold");
    }

    /// Valid checksum, and stack facts that do not fit their routine: a
    /// `live_out` table one block short, and an inline set over a
    /// 70-slot frame. Either would panic the first lint of the image.
    #[test]
    fn stack_tables_that_do_not_fit_the_routine_are_corrupt() {
        const SLOTS: i16 = 70;
        let mut b = ProgramBuilder::new();
        let main = b.routine("main");
        main.def(Reg::T0).lda(Reg::SP, Reg::SP, -8 * SLOTS);
        for i in 0..SLOTS {
            main.store(Reg::T0, Reg::SP, 8 * i);
        }
        main.lda(Reg::SP, Reg::SP, 8 * SLOTS).halt();
        let img = b.build().unwrap().to_image();
        let store = warm_store(std::slice::from_ref(&img));
        let entry = &store.export_entries()[0];
        let short: fn(&mut RoutineStack) = |rs| {
            rs.live_out.pop();
        };
        let inline: fn(&mut RoutineStack) = |rs| rs.live_out[0] = SlotSet::default();
        for (why, craft) in [("one block short", short), ("an inline set over 70 slots", inline)] {
            let mut routines: Vec<RoutineStack> =
                entry.analysis.stack.all().iter().map(CloneExact::clone_exact).collect();
            assert_eq!(routines[0].frame.slots.len(), SLOTS as usize);
            craft(&mut routines[0]);
            let mut w = SnapWriter::new();
            routines.snap(&mut w);
            let mut analysis = entry.analysis.clone_exact();
            analysis.stack = StackAnalysis::unsnap(&mut SnapReader::new(&w.into_bytes())).unwrap();
            analysis.stats.memory_bytes = analysis.heap_bytes();
            let mut entries = SnapWriter::new();
            entries.put_usize(1);
            put_entry(&mut entries, entry.key, &img, &analysis);
            let (got, installed) = restore_crafted(entries, "stack");
            assert!(
                got.as_ref().is_err_and(|e| e.starts_with("corrupt snapshot: stack table")),
                "{why}: {got:?}"
            );
            assert_eq!(installed, 0, "{why}: store must stay cold");
        }
    }

    /// Valid checksum, stack tables that fit their routine, and a frame
    /// that lacks a slot its code accesses: the last slot dropped (its
    /// sets shrunk to match), or the entry block's displacement moved off
    /// the slots. Either would panic the first lint of the image.
    #[test]
    fn a_frame_missing_an_accessed_slot_is_corrupt() {
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .def(Reg::T0)
            .lda(Reg::SP, Reg::SP, -16)
            .store(Reg::T0, Reg::SP, 0)
            .store(Reg::T0, Reg::SP, 8)
            .load(Reg::V0, Reg::SP, 8)
            .lda(Reg::SP, Reg::SP, 16)
            .put_int()
            .halt();
        let img = b.build().unwrap().to_image();
        let store = warm_store(std::slice::from_ref(&img));
        let entry = &store.export_entries()[0];
        let drop_slot: fn(&mut RoutineStack) = |rs| {
            rs.frame.slots.pop();
            let n = rs.frame.slots.len();
            rs.must_defined_in
                .iter_mut()
                .chain(&mut rs.live_out)
                .for_each(|s| *s = SlotSet::empty(n));
        };
        let shift: fn(&mut RoutineStack) = |rs| rs.sp_disp_in[0] = rs.sp_disp_in[0].map(|d| d + 4);
        for (why, craft) in [("a dropped slot", drop_slot), ("a shifted displacement", shift)] {
            let mut routines: Vec<RoutineStack> =
                entry.analysis.stack.all().iter().map(CloneExact::clone_exact).collect();
            assert_eq!(routines[0].frame.slots.len(), 2);
            assert!(!routines[0].frame.escaped);
            craft(&mut routines[0]);
            let mut w = SnapWriter::new();
            routines.snap(&mut w);
            let mut analysis = entry.analysis.clone_exact();
            analysis.stack = StackAnalysis::unsnap(&mut SnapReader::new(&w.into_bytes())).unwrap();
            analysis.stats.memory_bytes = analysis.heap_bytes();
            assert_eq!(analysis.stack.check_tables(&analysis.cfg), Ok(()), "{why}");
            let mut entries = SnapWriter::new();
            entries.put_usize(1);
            put_entry(&mut entries, entry.key, &img, &analysis);
            let (got, installed) = restore_crafted(entries, "slot");
            assert!(
                got.as_ref().is_err_and(|e| e.starts_with("corrupt snapshot: stack frame of main")),
                "{why}: {got:?}"
            );
            assert_eq!(installed, 0, "{why}: store must stay cold");
        }
    }

    /// Valid checksum, and an image paired with the analysis of another
    /// program: one with more routines, and one whose blocks run past the
    /// image's routine.
    #[test]
    fn an_analysis_of_another_program_is_corrupt() {
        let mut b = ProgramBuilder::new();
        b.routine("main").def(Reg::A0).call("f").put_int().halt();
        b.routine("f").use_reg(Reg::A0).def(Reg::V0).ret();
        let two_routines = b.build().unwrap().to_image();
        let img = image(0);
        for (other, why) in [(two_routines, "routines"), (image(3), "outside routine")] {
            let store = warm_store(std::slice::from_ref(&other));
            let foreign = &store.export_entries()[0].analysis;
            let mut entries = SnapWriter::new();
            entries.put_usize(1);
            put_entry(&mut entries, CacheKey::of(&img), &img, foreign);
            let (got, installed) = restore_crafted(entries, "foreign");
            assert!(got.as_ref().is_err_and(|e| e.contains(why)), "{why}: {got:?}");
            assert_eq!(installed, 0, "{why}: store must stay cold");
        }
    }
}
