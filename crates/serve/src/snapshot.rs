//! Warm-cache snapshot files: persist the daemon's analyzed-program LRU
//! across restarts so a replacement instance starts *warm*.
//!
//! # File format
//!
//! ```text
//! +----------------+-------------------+----------------+------------------+
//! | magic (8 B)    | header len (4 B)  | header (JSON)  | payload (binary) |
//! | "spiksnap"     | u32 LE            |                |  Snap-encoded    |
//! +----------------+-------------------+----------------+------------------+
//! ```
//!
//! The header is a `spike_core::json` object:
//!
//! ```json
//! {"tool": "spike-served", "format": 8, "entries": 3,
//!  "payload_bytes": 123456, "checksum": "<32 hex>", "options_fp": "<16 hex>"}
//! ```
//!
//! * `format` — bumped whenever the payload encoding changes; a
//!   mismatch rejects the file (old daemons never misread new payloads
//!   and vice versa).
//! * `checksum` — [`spike_isa::fnv128`] of the payload bytes (the same
//!   [`CacheKey`] hash that content-addresses images), verified
//!   **before** any payload decoding runs.
//! * `options_fp` — fingerprint of the analysis options the entries
//!   were computed under (see [`spike_core::options_fingerprint`]); a
//!   daemon only restores snapshots matching its own configuration,
//!   because entries from a different calling standard or filter
//!   setting would be *wrong*, not just stale.
//!
//! The payload is `entry count` followed by `(key, image, analysis)`
//! triples in LRU order (least recently used first), each
//! [`Snap`]-encoded. Restore is all-or-nothing: any truncation, bad
//! tag, or per-entry validation failure abandons the whole snapshot
//! and the daemon starts cold — never a panic, never a silently wrong
//! cache. Decoding checks every compressed-sparse-row table's offsets,
//! and each decoded PSG must have one adjacency row per node or edge
//! ([`spike_core::Psg::check_tables`]) before anything solves over it.
//! An entry is charged the heap its decoded analysis holds, and one
//! whose stored `memory_bytes` disagrees with that is corrupt.
//!
//! Writes go through a sibling temp file + atomic rename, so a crash
//! mid-write leaves the previous snapshot intact and a reader never
//! observes a half-written file.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use spike_core::json::Json;
use spike_core::{options_fingerprint, Analysis, AnalysisOptions};
use spike_isa::{HeapSize, Snap, SnapReader, SnapWriter};

use crate::cache::{AnalyzedProgram, CacheKey, ProgramStore};

/// Payload encoding version. Bump on any change to the `Snap` layout of
/// the analysis structures or to how a header field is computed.
///
/// 8: each routine's stack facts keep its `CallDigest`, and the stats
/// count the stack layer's routine scans.
pub const FORMAT_VERSION: i64 = 8;

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

fn hex32(lanes: [u64; 2]) -> String {
    format!("{:016x}{:016x}", lanes[0], lanes[1])
}

fn parse_hex_u64(s: &str) -> Option<u64> {
    if s.len() != 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

fn parse_hex32(s: &str) -> Option<[u64; 2]> {
    if s.len() != 32 {
        return None;
    }
    Some([parse_hex_u64(&s[..16])?, parse_hex_u64(&s[16..])?])
}

/// Serializes `entries` into snapshot-file bytes.
pub fn encode(entries: &[Arc<AnalyzedProgram>], options: &AnalysisOptions) -> Vec<u8> {
    let mut payload = SnapWriter::new();
    payload.put_usize(entries.len());
    for e in entries {
        e.key.lanes()[0].snap(&mut payload);
        e.key.lanes()[1].snap(&mut payload);
        e.image.snap(&mut payload);
        e.analysis.snap(&mut payload);
    }
    seal(&payload.into_bytes(), entries.len(), options)
}

/// Puts the magic and a header carrying `payload`'s checksum in front of
/// it.
fn seal(payload: &[u8], entries: usize, options: &AnalysisOptions) -> Vec<u8> {
    let checksum = CacheKey::of(payload).lanes();

    let header = Json::Obj(vec![
        ("tool".into(), Json::Str("spike-served".into())),
        ("format".into(), Json::Int(FORMAT_VERSION)),
        ("entries".into(), Json::Int(entries as i64)),
        ("payload_bytes".into(), Json::Int(payload.len() as i64)),
        ("checksum".into(), Json::Str(hex32(checksum))),
        ("options_fp".into(), Json::Str(format!("{:016x}", options_fingerprint(options)))),
    ]);
    let mut header_text = String::new();
    header.write(&mut header_text);

    let mut out = Vec::with_capacity(MAGIC.len() + 4 + header_text.len() + payload.len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(header_text.len() as u32).to_le_bytes());
    out.extend_from_slice(header_text.as_bytes());
    out.extend_from_slice(payload);
    out
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
    spike_profile::write_atomic(path, &bytes)?;
    Ok((entries.len(), bytes.len()))
}

/// Decoded snapshot entries, not yet installed anywhere.
pub struct DecodedSnapshot {
    /// `(key, image, analysis)` triples in LRU order (oldest first).
    pub entries: Vec<(CacheKey, Vec<u8>, Analysis)>,
}

/// Reads and fully validates the snapshot at `path` against `options`:
/// magic, header shape, format version, options fingerprint, payload
/// length, checksum — and only then the payload decode.
///
/// # Errors
///
/// Every way a file can be wrong maps to a [`SnapshotError`]; callers
/// treat all of them as "start cold".
pub fn read(path: &Path, options: &AnalysisOptions) -> Result<DecodedSnapshot, SnapshotError> {
    let bytes = std::fs::read(path)?;
    if bytes.len() < MAGIC.len() + 4 {
        return Err(SnapshotError::NotASnapshot("shorter than the fixed header"));
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        return Err(SnapshotError::NotASnapshot("bad magic"));
    }
    let header_len =
        u32::from_le_bytes(bytes[MAGIC.len()..MAGIC.len() + 4].try_into().unwrap()) as usize;
    let header_start = MAGIC.len() + 4;
    let payload_start = header_start.checked_add(header_len).filter(|&p| p <= bytes.len());
    let Some(payload_start) = payload_start else {
        return Err(SnapshotError::NotASnapshot("header length overruns the file"));
    };
    let header_text = std::str::from_utf8(&bytes[header_start..payload_start])
        .map_err(|_| SnapshotError::NotASnapshot("header is not UTF-8"))?;
    let header = Json::parse(header_text)
        .map_err(|e| SnapshotError::Incompatible(format!("header does not parse: {e}")))?;

    let format = header.get("format").and_then(Json::as_i64);
    if format != Some(FORMAT_VERSION) {
        return Err(SnapshotError::Incompatible(format!(
            "format {} (this daemon writes {FORMAT_VERSION})",
            format.map_or_else(|| "missing".to_string(), |v| v.to_string())
        )));
    }
    let fp = header
        .get("options_fp")
        .and_then(Json::as_str)
        .and_then(parse_hex_u64)
        .ok_or_else(|| SnapshotError::Incompatible("missing options fingerprint".into()))?;
    let own_fp = options_fingerprint(options);
    if fp != own_fp {
        return Err(SnapshotError::Incompatible(format!(
            "analysis options fingerprint {fp:016x} != this daemon's {own_fp:016x}"
        )));
    }

    let payload = &bytes[payload_start..];
    let announced = header.get("payload_bytes").and_then(Json::as_i64);
    if announced != Some(payload.len() as i64) {
        return Err(SnapshotError::Corrupt(format!(
            "payload is {} bytes, header announces {announced:?}",
            payload.len()
        )));
    }
    let want = header
        .get("checksum")
        .and_then(Json::as_str)
        .and_then(parse_hex32)
        .ok_or_else(|| SnapshotError::Corrupt("missing checksum".into()))?;
    let got = CacheKey::of(payload).lanes();
    if want != got {
        return Err(SnapshotError::Corrupt(format!(
            "payload checksum {} != header's {}",
            hex32(got),
            hex32(want)
        )));
    }

    let mut r = SnapReader::new(payload);
    let decode = |r: &mut SnapReader<'_>| -> Result<Vec<(CacheKey, Vec<u8>, Analysis)>, String> {
        let count = r.get_usize().map_err(|e| e.to_string())?;
        let announced = header.get("entries").and_then(Json::as_i64);
        if announced != Some(count as i64) {
            return Err(format!("payload has {count} entries, header announces {announced:?}"));
        }
        let mut entries = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            let a = u64::unsnap(r).map_err(|e| e.to_string())?;
            let b = u64::unsnap(r).map_err(|e| e.to_string())?;
            let image = Vec::<u8>::unsnap(r).map_err(|e| e.to_string())?;
            let analysis = Analysis::unsnap(r).map_err(|e| e.to_string())?;
            analysis
                .psg
                .check_tables()
                .map_err(|table| format!("psg table {table} does not fit the graph"))?;
            // The store charges what the analysis holds; a stored count
            // that disagrees with it was not written by `encode`.
            let held = analysis.heap_bytes();
            if held != analysis.stats.memory_bytes {
                return Err(format!(
                    "entry analysis holds {held} bytes, its memory_bytes claims {}",
                    analysis.stats.memory_bytes
                ));
            }
            entries.push((CacheKey::from_lanes([a, b]), image, analysis));
        }
        if !r.is_exhausted() {
            return Err(format!("{} trailing bytes after the last entry", r.remaining()));
        }
        Ok(entries)
    };
    let entries = decode(&mut r).map_err(SnapshotError::Corrupt)?;
    Ok(DecodedSnapshot { entries })
}

/// Reads the snapshot at `path` and installs every entry into `store`.
/// All-or-nothing at the validation level: the file must fully decode
/// and every entry must re-validate (image parses, key matches) or the
/// store is left exactly as it was.
///
/// # Errors
///
/// See [`read`]; additionally any per-entry validation failure.
pub fn restore(
    path: &Path,
    store: &ProgramStore,
    options: &AnalysisOptions,
) -> Result<RestoreReport, SnapshotError> {
    let started = Instant::now();
    let decoded = read(path, options)?;
    // Validate every entry *before* installing any: restore must not
    // leave a half-warm cache behind a corrupt tail.
    for (key, image, _) in &decoded.entries {
        if CacheKey::of(image) != *key {
            return Err(SnapshotError::Corrupt("entry key does not match its image bytes".into()));
        }
    }
    let mut report = RestoreReport::default();
    for (key, image, analysis) in decoded.entries {
        report.bytes += image.len() + analysis.heap_bytes();
        store.restore_entry(key, image, analysis).map_err(SnapshotError::Corrupt)?;
        report.entries += 1;
    }
    report.elapsed_ms = started.elapsed().as_millis();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
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

        let cases: Vec<(&str, Vec<u8>)> = vec![
            ("empty", Vec::new()),
            ("bad magic", b"notasnap".iter().chain(&good[8..]).copied().collect()),
            ("truncated header", good[..10].to_vec()),
            ("truncated payload", good[..good.len() - 7].to_vec()),
            ("flipped payload byte", {
                let mut b = good.clone();
                let last = b.len() - 1;
                b[last] ^= 0x5A;
                b
            }),
        ];
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
        let bytes = seal(&payload.into_bytes(), 1, &options);

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
        let bytes = seal(&payload.into_bytes(), 1, &options);

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
        let file = seal(&bytes, 1, &options);

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
        // and whose block lists were plain vectors, and version 7, whose
        // routine stack facts kept no call digest. Splice the format
        // field in the JSON header and fix up the length field.
        let header_len = u32::from_le_bytes(good[8..12].try_into().unwrap()) as usize;
        let header = std::str::from_utf8(&good[12..12 + header_len]).unwrap();
        for other in [999, 3, 4, 5, 6, 7] {
            let spliced_header = header.replacen(
                &format!("\"format\":{FORMAT_VERSION}"),
                &format!("\"format\":{other}"),
                1,
            );
            assert_ne!(spliced_header, header, "header must contain the format field");
            let mut spliced = good[..8].to_vec();
            spliced.extend_from_slice(&(spliced_header.len() as u32).to_le_bytes());
            spliced.extend_from_slice(spliced_header.as_bytes());
            spliced.extend_from_slice(&good[12 + header_len..]);
            std::fs::write(&path, &spliced).unwrap();
            let fresh = ProgramStore::new(options.clone(), usize::MAX);
            match restore(&path, &fresh, &options) {
                Err(SnapshotError::Incompatible(_)) => {}
                got => panic!("format {other} must be Incompatible, got {got:?}"),
            }
            assert_eq!(fresh.snapshot().entries, 0, "format {other}: store must stay cold");
        }

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
}
