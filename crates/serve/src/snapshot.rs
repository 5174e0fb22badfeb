//! Warm-cache snapshots: persist the images of the daemon's
//! analyzed-program LRU across restarts so a replacement instance
//! starts *warm*.
//!
//! # File format
//!
//! A snapshot is a [`spike_isa::container`] with magic `spiksnap`:
//!
//! ```text
//! +----------+--------+-------------+-----------------+----------------------+
//! | spiksnap | format | payload len | fnv128(payload) | payload              |
//! | 8 B      | u32 LE | u64 LE      | 2 x u64 LE      | images (Snap)        |
//! +----------+--------+-------------+-----------------+----------------------+
//! ```
//!
//! * `format` — [`FORMAT_VERSION`], bumped whenever the payload encoding
//!   changes; a mismatch rejects the file (old daemons never misread new
//!   payloads and vice versa).
//! * the checksum is [`spike_isa::fnv128`] of the payload bytes (the
//!   same [`CacheKey`] hash that content-addresses images), verified
//!   **before** any payload decoding runs.
//!
//! The payload is the [`Snap`] encoding of one `Vec<Vec<u8>>`: the
//! cached images in LRU order, least recently used first. It holds no
//! key, no options and no analysis. An analysis is a deterministic
//! function of its image and the analysis options, so a restore
//! re-derives each entry: it parses the image, analyzes it under the
//! restoring daemon's own options, and keys it by the image's hash. An
//! entry therefore always matches its daemon's configuration, and the
//! only bytes a restore trusts are images, which
//! [`Program::from_image`] checks exactly as it checks every request's.
//!
//! Restore is all-or-nothing: every image is decoded and parsed before
//! any is analyzed or installed, and any truncation, trailing byte or
//! unparsable image abandons the whole snapshot — the daemon starts
//! cold, never with a half-restored cache and never after a panic.
//!
//! Writes go through [`container::write_atomic`], so a crash mid-write
//! leaves the previous snapshot intact and a reader never observes a
//! half-written file.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use spike_core::analyze_with;
use spike_isa::container::{self, ContainerError};
use spike_isa::{Snap, SnapError, SnapReader, SnapWriter};
use spike_program::Program;

use crate::cache::{AnalyzedProgram, CacheKey, ProgramStore};

/// Payload encoding version. Bump on any change to the payload or to
/// the container.
///
/// 13: the payload is the cached images alone; a restore re-analyzes
/// them. Formats 3–12 stored each entry's analysis.
pub const FORMAT_VERSION: u32 = 13;

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
    /// The payload failed its checksum or decode, or an image does not
    /// parse.
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
    /// Wall time spent reading, parsing and re-analyzing.
    pub elapsed_ms: u128,
}

/// Serializes the images of `entries` into snapshot-file bytes.
pub fn encode(entries: &[Arc<AnalyzedProgram>]) -> Vec<u8> {
    let images: Vec<Vec<u8>> = entries.iter().map(|e| e.image.clone()).collect();
    let mut payload = SnapWriter::new();
    images.snap(&mut payload);
    container::seal(MAGIC, FORMAT_VERSION, &payload.into_bytes())
}

/// Writes a snapshot of `store`'s images to `path`, atomically (temp
/// file + rename). Returns the entry count and file size written.
///
/// # Errors
///
/// Propagates filesystem errors; the previous snapshot at `path`, if
/// any, survives every failure mode.
pub fn write(path: &Path, store: &ProgramStore) -> Result<(usize, usize), SnapshotError> {
    let entries = store.export_entries();
    let bytes = encode(&entries);
    container::write_atomic(path, &bytes)?;
    Ok((entries.len(), bytes.len()))
}

/// Reads the snapshot at `path`: the container (magic, format, length,
/// checksum), then the images, then a parse of every one. Returns each
/// image with its program in LRU order (oldest first), not yet analyzed
/// or installed anywhere.
///
/// # Errors
///
/// Every way a file can be wrong maps to a [`SnapshotError`]; callers
/// treat all of them as "start cold".
pub fn read(path: &Path) -> Result<Vec<(Vec<u8>, Program)>, SnapshotError> {
    let bytes = std::fs::read(path)?;
    let mut r = SnapReader::new(container::open(&bytes, MAGIC, FORMAT_VERSION)?);
    let images = Vec::<Vec<u8>>::unsnap(&mut r)?;
    if !r.is_exhausted() {
        return Err(SnapshotError::Corrupt(format!(
            "{} trailing bytes after the last image",
            r.remaining()
        )));
    }
    images
        .into_iter()
        .map(|image| match Program::from_image(&image) {
            Ok(program) => Ok((image, program)),
            Err(e) => Err(SnapshotError::Corrupt(format!("an image does not parse: {e}"))),
        })
        .collect()
}

/// Reads the snapshot at `path`, analyzes every image under `store`'s
/// options and installs the results warm. All-or-nothing: [`read`]
/// parses every image before any is installed, so on any error the
/// store is left exactly as it was.
///
/// # Errors
///
/// See [`read`].
pub fn restore(path: &Path, store: &ProgramStore) -> Result<RestoreReport, SnapshotError> {
    let started = Instant::now();
    let programs = read(path)?;
    let mut report = RestoreReport { entries: programs.len(), ..RestoreReport::default() };
    for (image, program) in programs {
        let analysis = analyze_with(&program, store.options());
        report.bytes += image.len() + analysis.stats.memory_bytes;
        store.restore_entry(AnalyzedProgram {
            key: CacheKey::of(&image),
            program,
            analysis,
            image,
        });
    }
    report.elapsed_ms = started.elapsed().as_millis();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spike_core::AnalysisOptions;
    use spike_isa::Reg;
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

    fn warm_store(images: &[Vec<u8>], options: AnalysisOptions) -> ProgramStore {
        let store = ProgramStore::new(options, usize::MAX);
        for img in images {
            store.get_or_analyze(img).unwrap();
        }
        store
    }

    /// A scratch directory for one test's snapshot file.
    fn scratch(name: &str) -> (std::path::PathBuf, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("spike-snap-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.snap");
        (dir, path)
    }

    /// Seals `images` as a snapshot file, as `encode` writes one.
    fn seal(images: Vec<Vec<u8>>) -> Vec<u8> {
        let mut payload = SnapWriter::new();
        images.snap(&mut payload);
        container::seal(MAGIC, FORMAT_VERSION, &payload.into_bytes())
    }

    #[test]
    fn snapshot_roundtrip_restores_every_entry_warm() {
        let images: Vec<Vec<u8>> = (0..3).map(image).collect();
        let store = warm_store(&images, AnalysisOptions::default());
        let (dir, path) = scratch("rt");
        let (entries, _) = write(&path, &store).unwrap();
        assert_eq!(entries, 3);

        let fresh = ProgramStore::new(AnalysisOptions::default(), usize::MAX);
        let report = restore(&path, &fresh).unwrap();
        assert_eq!(report.entries, 3);
        assert_eq!(report.bytes, store.snapshot().bytes, "charged as the live entries were");
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
        let store = warm_store(&images, AnalysisOptions::default());
        let good = encode(&store.export_entries());
        assert!(good.len() > 128, "long enough to tear beyond the header");
        let (dir, path) = scratch("rej");

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
            ("trailing bytes".into(), {
                let mut payload = SnapWriter::new();
                images.snap(&mut payload);
                payload.put_u8(0);
                container::seal(MAGIC, FORMAT_VERSION, &payload.into_bytes())
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
            let fresh = ProgramStore::new(AnalysisOptions::default(), usize::MAX);
            let err = restore(&path, &fresh);
            assert!(err.is_err(), "{what}: must be rejected");
            assert_eq!(fresh.snapshot().entries, 0, "{what}: store must stay cold");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A file anyone who can write the snapshot can produce: valid header,
    /// valid checksum, and an image whose capacity field passes the
    /// plausibility bound but cannot be allocated.
    #[test]
    fn an_unservable_capacity_under_a_valid_checksum_is_corrupt() {
        let mut payload = SnapWriter::new();
        payload.put_usize(1);
        payload.put_usize(1);
        payload.put_usize(1 << 36);
        payload.put_usize(1 << 20);
        for _ in 0..1 << 20 {
            payload.put_u8(0);
        }
        let bytes = container::seal(MAGIC, FORMAT_VERSION, &payload.into_bytes());

        let (dir, path) = scratch("cap");
        std::fs::write(&path, &bytes).unwrap();
        match read(&path) {
            Err(SnapshotError::Corrupt(what)) => assert!(what.contains("vec capacity"), "{what}"),
            Err(other) => panic!("must be Corrupt, got {other:?}"),
            Ok(_) => panic!("must be Corrupt, got a decoded snapshot"),
        }
        let fresh = ProgramStore::new(AnalysisOptions::default(), usize::MAX);
        assert!(restore(&path, &fresh).is_err());
        assert_eq!(fresh.snapshot().entries, 0, "store must stay cold");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn other_format_versions_are_incompatible() {
        let store = warm_store(&[image(0)], AnalysisOptions::default());
        let good = encode(&store.export_entries());
        let (dir, path) = scratch("ver");

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
        // version 10, whose header was JSON, version 11, whose stack
        // summaries carried offset lists, and version 12, whose payload
        // carried an options fingerprint and each entry's analysis.
        // Splice the format field.
        for other in [999_u32, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12] {
            let mut spliced = good.clone();
            spliced[8..12].copy_from_slice(&other.to_le_bytes());
            std::fs::write(&path, &spliced).unwrap();
            let fresh = ProgramStore::new(AnalysisOptions::default(), usize::MAX);
            match restore(&path, &fresh) {
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
            0x5eed_u64
        );
        let mut v10 = MAGIC.to_vec();
        v10.extend_from_slice(&(header.len() as u32).to_le_bytes());
        v10.extend_from_slice(header.as_bytes());
        v10.extend_from_slice(payload);
        std::fs::write(&path, &v10).unwrap();
        let fresh = ProgramStore::new(AnalysisOptions::default(), usize::MAX);
        match restore(&path, &fresh) {
            Err(SnapshotError::Incompatible(what)) => {
                assert!(what.starts_with(&format!("format {} ", header.len())), "{what}")
            }
            got => panic!("a format-10 file must be Incompatible, got {got:?}"),
        }
        assert_eq!(fresh.snapshot().entries, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A snapshot carries no options: one written by a daemon with other
    /// analysis options restores into this one analyzed under its own.
    #[test]
    fn a_snapshot_restores_under_the_restoring_daemons_options() {
        // A multiway jump between calls: the PSG gets a branch node only
        // under the default options.
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .switch(Reg::T0, &["a", "b"])
            .label("a")
            .call("f")
            .label("b")
            .call("f")
            .put_int()
            .halt();
        b.routine("f").use_reg(Reg::A0).def(Reg::V0).ret();
        let images = vec![image(0), b.build().unwrap().to_image()];
        let other = AnalysisOptions { branch_nodes: false, ..AnalysisOptions::default() };
        let writer = warm_store(&images, other);
        let (dir, path) = scratch("opts");
        write(&path, &writer).unwrap();

        let options = AnalysisOptions::default();
        let fresh = ProgramStore::new(options.clone(), usize::MAX);
        assert_eq!(restore(&path, &fresh).unwrap().entries, images.len());
        let mut differs = false;
        for img in &images {
            let (entry, outcome) = fresh.get_or_analyze(img).unwrap();
            assert_eq!(outcome, crate::cache::CacheOutcome::Hit);
            let expected = analyze_with(&entry.program, &options);
            assert_eq!(entry.analysis.summary, expected.summary);
            assert_eq!(entry.analysis.psg, expected.psg);
            assert_eq!(entry.analysis.stack, expected.stack);
            assert_eq!(entry.analysis.stats.memory_bytes, expected.stats.memory_bytes);
            let (written, _) = writer.get_or_analyze(img).unwrap();
            differs |= written.analysis.psg != expected.psg;
        }
        assert!(differs, "the writer's options must change some analysis");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Valid checksum, a good first image, and a second that is not an
    /// image: nothing may be installed, not even the first.
    #[test]
    fn a_bad_image_in_a_later_entry_installs_nothing() {
        let junk = b"definitely not an image".to_vec();
        let (dir, path) = scratch("half");
        std::fs::write(&path, seal(vec![image(0), junk])).unwrap();
        let fresh = ProgramStore::new(AnalysisOptions::default(), usize::MAX);
        let got = restore(&path, &fresh).map(|r| r.entries).map_err(|e| e.to_string());
        assert!(got.as_ref().is_err_and(|e| e.starts_with("corrupt snapshot")), "{got:?}");
        assert_eq!(fresh.snapshot().entries, 0, "a failed restore must leave the store cold");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
