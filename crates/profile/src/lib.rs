//! # spike-profile
//!
//! Versioned on-disk container for execution profiles.
//!
//! A [`Profile`] is the persistent form of a
//! [`spike_sim::ExecutionProfile`]: edge, call, per-instruction, and
//! per-routine counters gathered by `run_profiled`, bound to the exact
//! program image they were measured on. The binding is a content hash of
//! the image bytes — the same dual-lane FNV-1a the daemon's program
//! cache uses — so a profile can never silently guide the optimization
//! of a program it was not collected from: loading is fine, but
//! consumers check [`Profile::matches`] (and [`Profile::merge`]
//! enforces it) before trusting the counts.
//!
//! The on-disk layout follows the snapshot conventions from
//! `spike-serve`: a magic tag, a format version that is checked before
//! anything else is parsed, a checksum over the counter payload that is
//! verified before decoding, and atomic tmp-file + rename writes.
//! Decoding never panics — truncated, corrupt, or foreign bytes come
//! back as a [`ProfileError`].
//!
//! Profiles from separate runs of the *same* image merge by summing
//! counters ([`Profile::merge`]); `runs` counts how many went in.
//!
//! # Example
//!
//! ```
//! use spike_program::ProgramBuilder;
//! use spike_profile::Profile;
//!
//! let mut b = ProgramBuilder::new();
//! b.routine("main").def(spike_isa::Reg::A0).put_int().halt();
//! let program = b.build()?;
//!
//! let (_, exec) = spike_sim::run_profiled(&program, 1_000);
//! let profile = Profile::collect(&program, &exec);
//! let bytes = profile.to_bytes();
//! let back = Profile::from_bytes(&bytes)?;
//! assert_eq!(back, profile);
//! assert!(back.matches(&program.to_image()));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::fmt;
use std::io::Write as _;
use std::path::Path;

use spike_isa::{SnapError, SnapReader, SnapWriter};
use spike_program::Program;
use spike_sim::ExecutionProfile;

/// Magic tag leading every serialized profile.
pub const MAGIC: &[u8; 8] = b"spikprof";

/// Current serialization format version.
pub const FORMAT_VERSION: u32 = 1;

/// Why profile bytes could not be decoded, loaded, or merged.
#[derive(Debug)]
pub enum ProfileError {
    /// Reading or writing the file failed.
    Io(std::io::Error),
    /// The bytes do not start with the profile magic — not a profile at
    /// all.
    NotAProfile,
    /// The bytes are a profile, but from an incompatible format version.
    Incompatible {
        /// Version found in the file.
        found: u32,
    },
    /// Structurally broken: truncated, bad checksum, or inconsistent
    /// counts.
    Corrupt(&'static str),
    /// The profile's content hash does not match the program image it
    /// was asked to describe (stale profile), or two merged profiles
    /// disagree about their image.
    FingerprintMismatch,
}

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileError::Io(e) => write!(f, "profile i/o error: {e}"),
            ProfileError::NotAProfile => write!(f, "not a spike profile (bad magic)"),
            ProfileError::Incompatible { found } => write!(
                f,
                "incompatible profile format version {found} (this build reads {FORMAT_VERSION})"
            ),
            ProfileError::Corrupt(what) => write!(f, "corrupt profile: {what}"),
            ProfileError::FingerprintMismatch => {
                write!(f, "profile was collected from a different program image (stale profile)")
            }
        }
    }
}

impl std::error::Error for ProfileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProfileError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SnapError> for ProfileError {
    fn from(e: SnapError) -> ProfileError {
        ProfileError::Corrupt(match e {
            SnapError::Truncated => "unexpected end of profile",
            SnapError::Malformed(what) => what,
        })
    }
}

impl From<std::io::Error> for ProfileError {
    fn from(e: std::io::Error) -> ProfileError {
        ProfileError::Io(e)
    }
}

/// Content hash of an image: [`spike_isa::fnv128`], the function the
/// daemon's cache key is, so a profile's binding and the serving layer's
/// content addressing agree about what "the same image" means.
pub fn fingerprint(bytes: &[u8]) -> [u64; 2] {
    spike_isa::fnv128(bytes)
}

/// An execution profile bound to the program image it measured.
///
/// Counter fields mirror [`spike_sim::ExecutionProfile`]; `fingerprint`
/// binds them to the image and `runs` counts how many collected
/// profiles were merged in.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Profile {
    /// Content hash of the image the profile was collected from.
    pub fingerprint: [u64; 2],
    /// Number of runs merged into these counters (1 for a fresh
    /// collection).
    pub runs: u64,
    /// Instructions executed per routine, indexed by routine id.
    pub steps_per_routine: Vec<u64>,
    /// Activations per routine (calls, plus the entry routine's initial
    /// activation), indexed by routine id.
    pub entries_per_routine: Vec<u64>,
    /// Calls executed.
    pub calls: u64,
    /// Calling-convention maintenance instructions executed.
    pub call_overhead_steps: u64,
    /// Total instructions executed.
    pub total_steps: u64,
    /// Lowest code address; `insn_counts[addr - code_base]` is the
    /// execution count of the instruction at `addr`.
    pub code_base: u32,
    /// Per-instruction execution counts over the whole code range.
    pub insn_counts: Vec<u64>,
    /// Control-transfer edge counts: `(source pc, destination pc) →
    /// times taken`.
    pub edges: BTreeMap<(u32, u32), u64>,
}

impl Profile {
    /// Packages a sim-collected [`ExecutionProfile`] of `program` as a
    /// persistent profile bound to `program`'s image bytes.
    pub fn collect(program: &Program, exec: &ExecutionProfile) -> Profile {
        Profile {
            fingerprint: fingerprint(&program.to_image()),
            runs: 1,
            steps_per_routine: exec.steps_per_routine.clone(),
            entries_per_routine: exec.entries_per_routine.clone(),
            calls: exec.calls,
            call_overhead_steps: exec.call_overhead_steps,
            total_steps: exec.total_steps,
            code_base: exec.code_base,
            insn_counts: exec.insn_counts.clone(),
            edges: exec.edges.clone(),
        }
    }

    /// Whether the profile was collected from exactly these image bytes.
    pub fn matches(&self, image: &[u8]) -> bool {
        self.fingerprint == fingerprint(image)
    }

    /// Execution count of the instruction at `addr` (0 outside the
    /// profiled code range).
    pub fn count_at(&self, addr: u32) -> u64 {
        addr.checked_sub(self.code_base)
            .and_then(|off| self.insn_counts.get(off as usize))
            .copied()
            .unwrap_or(0)
    }

    /// Times the control-transfer edge `src → dst` was taken.
    pub fn edge(&self, src: u32, dst: u32) -> u64 {
        self.edges.get(&(src, dst)).copied().unwrap_or(0)
    }

    /// Fraction of all executed instructions spent in routine `index`
    /// (0.0 when nothing ran).
    pub fn routine_fraction(&self, index: usize) -> f64 {
        let steps = self.steps_per_routine.get(index).copied().unwrap_or(0);
        if self.total_steps == 0 {
            0.0
        } else {
            steps as f64 / self.total_steps as f64
        }
    }

    /// Merges another run of the same image into this profile, summing
    /// every counter. Rejects profiles of a different image
    /// ([`ProfileError::FingerprintMismatch`]) or with inconsistent
    /// shapes ([`ProfileError::Corrupt`] — same image implies same
    /// shape, so a mismatch means one side is damaged).
    pub fn merge(&mut self, other: &Profile) -> Result<(), ProfileError> {
        if self.fingerprint != other.fingerprint {
            return Err(ProfileError::FingerprintMismatch);
        }
        if self.steps_per_routine.len() != other.steps_per_routine.len()
            || self.entries_per_routine.len() != other.entries_per_routine.len()
            || self.insn_counts.len() != other.insn_counts.len()
            || self.code_base != other.code_base
        {
            return Err(ProfileError::Corrupt("merge shape mismatch for identical image"));
        }
        self.runs += other.runs;
        for (a, b) in self.steps_per_routine.iter_mut().zip(&other.steps_per_routine) {
            *a += b;
        }
        for (a, b) in self.entries_per_routine.iter_mut().zip(&other.entries_per_routine) {
            *a += b;
        }
        self.calls += other.calls;
        self.call_overhead_steps += other.call_overhead_steps;
        self.total_steps += other.total_steps;
        for (a, b) in self.insn_counts.iter_mut().zip(&other.insn_counts) {
            *a += b;
        }
        for (&edge, &n) in &other.edges {
            *self.edges.entry(edge).or_insert(0) += n;
        }
        Ok(())
    }

    /// Serializes the profile.
    ///
    /// Layout: magic, format version, image fingerprint, payload
    /// checksum (dual-lane FNV of the payload bytes), payload length,
    /// then the little-endian counter payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload = SnapWriter::new();
        payload.put_u64(self.runs);
        payload.put_u64(self.calls);
        payload.put_u64(self.call_overhead_steps);
        payload.put_u64(self.total_steps);
        payload.put_u32(self.code_base);
        payload.put_u32(self.steps_per_routine.len() as u32);
        for &n in &self.steps_per_routine {
            payload.put_u64(n);
        }
        for &n in &self.entries_per_routine {
            payload.put_u64(n);
        }
        payload.put_u32(self.insn_counts.len() as u32);
        for &n in &self.insn_counts {
            payload.put_u64(n);
        }
        payload.put_u32(self.edges.len() as u32);
        for (&(src, dst), &n) in &self.edges {
            payload.put_u32(src);
            payload.put_u32(dst);
            payload.put_u64(n);
        }
        let payload = payload.into_bytes();

        let checksum = fingerprint(&payload);
        let mut out = SnapWriter::new();
        out.put_bytes(MAGIC);
        out.put_u32(FORMAT_VERSION);
        out.put_u64(self.fingerprint[0]);
        out.put_u64(self.fingerprint[1]);
        out.put_u64(checksum[0]);
        out.put_u64(checksum[1]);
        out.put_u32(payload.len() as u32);
        out.put_bytes(&payload);
        out.into_bytes()
    }

    /// Decodes a serialized profile. Never panics: foreign bytes are
    /// [`ProfileError::NotAProfile`], future versions are
    /// [`ProfileError::Incompatible`], and anything truncated or
    /// checksum-damaged is [`ProfileError::Corrupt`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Profile, ProfileError> {
        let mut r = SnapReader::new(bytes);
        if r.get_bytes(MAGIC.len()).ok().map(|m| m != MAGIC.as_slice()).unwrap_or(true) {
            return Err(ProfileError::NotAProfile);
        }
        let version = r.get_u32().map_err(|_| ProfileError::NotAProfile)?;
        if version != FORMAT_VERSION {
            return Err(ProfileError::Incompatible { found: version });
        }
        let fp = [r.get_u64()?, r.get_u64()?];
        let checksum = [r.get_u64()?, r.get_u64()?];
        let payload_len = r.get_u32()? as usize;
        let payload = r.get_bytes(payload_len)?;
        if !r.is_exhausted() {
            return Err(ProfileError::Corrupt("trailing bytes after payload"));
        }
        if fingerprint(payload) != checksum {
            return Err(ProfileError::Corrupt("payload checksum mismatch"));
        }

        let mut p = SnapReader::new(payload);
        let runs = p.get_u64()?;
        let calls = p.get_u64()?;
        let call_overhead_steps = p.get_u64()?;
        let total_steps = p.get_u64()?;
        let code_base = p.get_u32()?;
        let routines = p.get_u32()? as usize;
        // An image holds at most 2^32 instruction words; counter tables
        // beyond that can't come from a real program and would make the
        // preallocations below attacker-sized.
        if routines > payload_len {
            return Err(ProfileError::Corrupt("routine table longer than payload"));
        }
        let mut steps_per_routine = Vec::with_capacity(routines);
        for _ in 0..routines {
            steps_per_routine.push(p.get_u64()?);
        }
        let mut entries_per_routine = Vec::with_capacity(routines);
        for _ in 0..routines {
            entries_per_routine.push(p.get_u64()?);
        }
        let insns = p.get_u32()? as usize;
        if insns > payload_len {
            return Err(ProfileError::Corrupt("instruction table longer than payload"));
        }
        let mut insn_counts = Vec::with_capacity(insns);
        for _ in 0..insns {
            insn_counts.push(p.get_u64()?);
        }
        let edge_count = p.get_u32()? as usize;
        let mut edges = BTreeMap::new();
        for _ in 0..edge_count {
            let src = p.get_u32()?;
            let dst = p.get_u32()?;
            let n = p.get_u64()?;
            edges.insert((src, dst), n);
        }
        if !p.is_exhausted() {
            return Err(ProfileError::Corrupt("payload length disagrees with contents"));
        }
        Ok(Profile {
            fingerprint: fp,
            runs,
            steps_per_routine,
            entries_per_routine,
            calls,
            call_overhead_steps,
            total_steps,
            code_base,
            insn_counts,
            edges,
        })
    }

    /// Writes the profile to `path` through [`write_atomic`], so readers
    /// never observe a half-written profile.
    pub fn save(&self, path: &Path) -> Result<(), ProfileError> {
        Ok(write_atomic(path, &self.to_bytes())?)
    }

    /// Reads a profile from `path`.
    pub fn load(path: &Path) -> Result<Profile, ProfileError> {
        Profile::from_bytes(&std::fs::read(path)?)
    }
}

/// Replaces the file at `path` with `bytes` atomically: the bytes go to
/// a sibling `<file name>.tmp`, are synced to disk, and the temp file
/// is renamed over `path`. A crash mid-write leaves the previous file
/// intact, a reader never observes a half-written one, and no failure
/// leaves the temp file behind.
///
/// # Errors
///
/// Propagates the filesystem error; the previous file at `path`, if
/// any, survives every failure mode.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let staged = std::fs::File::create(&tmp)
        .and_then(|mut f| {
            f.write_all(bytes)?;
            f.sync_all()
        })
        .and_then(|()| std::fs::rename(&tmp, path));
    if staged.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    staged
}

#[cfg(test)]
mod tests {
    use super::*;
    use spike_isa::Reg;
    use spike_program::ProgramBuilder;

    fn sample() -> (Program, Profile) {
        let mut b = ProgramBuilder::new();
        b.routine("main").def(Reg::A0).call("f").put_int().halt();
        b.routine("f").use_reg(Reg::A0).def(Reg::V0).ret();
        let program = b.build().unwrap();
        let (_, exec) = spike_sim::run_profiled(&program, 10_000);
        let profile = Profile::collect(&program, &exec);
        (program, profile)
    }

    #[test]
    fn round_trips_through_bytes() {
        let (program, profile) = sample();
        let back = Profile::from_bytes(&profile.to_bytes()).unwrap();
        assert_eq!(back, profile);
        assert!(back.matches(&program.to_image()));
        assert!(back.total_steps > 0);
        assert!(!back.edges.is_empty());
    }

    /// The `spikprof` layout, byte for byte: a change of codec must not
    /// orphan the files already written.
    #[test]
    fn layout_is_pinned() {
        let profile = Profile {
            fingerprint: [0x0102_0304_0506_0708, 0x1112_1314_1516_1718],
            runs: 1,
            steps_per_routine: vec![5],
            entries_per_routine: vec![6],
            calls: 2,
            call_overhead_steps: 3,
            total_steps: 4,
            code_base: 0x1000,
            insn_counts: vec![7, 8],
            edges: BTreeMap::from([((0x1000, 0x1001), 9)]),
        };
        const PINNED: [&str; 14] = [
            "7370696b70726f66",                         // magic
            "01000000",                                 // format version
            "08070605040302011817161514131211",         // image fingerprint, two lanes
            "b7e3fc45fac0f8e158e1eb4a8c60928b",         // payload checksum, two lanes
            "60000000",                                 // payload length
            "0100000000000000",                         // runs
            "0200000000000000",                         // calls
            "0300000000000000",                         // call_overhead_steps
            "0400000000000000",                         // total_steps
            "00100000",                                 // code_base
            "010000000500000000000000",                 // routines, steps_per_routine
            "0600000000000000",                         // entries_per_routine
            "0200000007000000000000000800000000000000", // insns, insn_counts
            "0100000000100000011000000900000000000000", // edges, (src, dst, n)
        ];
        let pinned: Vec<u8> = PINNED
            .concat()
            .as_bytes()
            .chunks(2)
            .map(|h| u8::from_str_radix(std::str::from_utf8(h).unwrap(), 16).unwrap())
            .collect();
        assert_eq!(profile.to_bytes(), pinned);
        assert_eq!(Profile::from_bytes(&pinned).unwrap(), profile);
    }

    #[test]
    fn merge_sums_counters_and_counts_runs() {
        let (_, mut a) = sample();
        let b = a.clone();
        a.merge(&b).unwrap();
        assert_eq!(a.runs, 2);
        assert_eq!(a.total_steps, 2 * b.total_steps);
        assert_eq!(a.calls, 2 * b.calls);
        for (x, y) in a.insn_counts.iter().zip(&b.insn_counts) {
            assert_eq!(*x, 2 * y);
        }
        for (edge, n) in &a.edges {
            assert_eq!(*n, 2 * b.edges[edge]);
        }
    }

    #[test]
    fn merge_rejects_a_different_image() {
        let (_, mut a) = sample();
        let mut other = a.clone();
        other.fingerprint[0] ^= 1;
        assert!(matches!(a.merge(&other), Err(ProfileError::FingerprintMismatch)));
    }

    #[test]
    fn corruption_is_detected_not_panicked_on() {
        let (_, profile) = sample();
        let good = profile.to_bytes();

        // Every truncation fails cleanly.
        for len in 0..good.len() {
            assert!(Profile::from_bytes(&good[..len]).is_err());
        }
        // Any single-byte flip in the payload trips the checksum.
        let mut flipped = good.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        assert!(matches!(
            Profile::from_bytes(&flipped),
            Err(ProfileError::Corrupt("payload checksum mismatch"))
        ));
        // Foreign bytes are not a profile.
        assert!(matches!(
            Profile::from_bytes(b"hello world, not a profile"),
            Err(ProfileError::NotAProfile)
        ));
        // A future version is incompatible, not corrupt.
        let mut vnext = good.clone();
        vnext[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        assert!(matches!(
            Profile::from_bytes(&vnext),
            Err(ProfileError::Incompatible { found }) if found == FORMAT_VERSION + 1
        ));
    }

    #[test]
    fn save_and_load_round_trip() {
        let (_, profile) = sample();
        let dir = std::env::temp_dir().join(format!("spike-prof-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("a.prof");
        profile.save(&path).unwrap();
        assert_eq!(Profile::load(&path).unwrap(), profile);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn saves_to_sibling_names_do_not_share_a_temp_file() {
        let (_, profile) = sample();
        let dir = std::env::temp_dir().join(format!("spike-prof-sib-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        profile.save(&dir.join("x.a")).unwrap();
        profile.save(&dir.join("x.b")).unwrap();
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(names, ["x.a", "x.b"]);
        // A failed rename (the target is a directory) removes its temp file.
        std::fs::create_dir(dir.join("x.c")).unwrap();
        assert!(profile.save(&dir.join("x.c")).is_err());
        assert!(!dir.join("x.c.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn count_accessors_are_total() {
        let (program, profile) = sample();
        let base = program.routines().first().unwrap().addr();
        assert!(profile.count_at(base) > 0);
        assert_eq!(profile.count_at(0xFFFF_FFFF), 0);
        assert_eq!(profile.edge(1, 2), 0);
    }
}
