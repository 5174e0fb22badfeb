//! # spike-profile
//!
//! Versioned on-disk container for execution profiles.
//!
//! A [`Profile`] is a fingerprint, a run count and one
//! [`spike_sim::ExecutionProfile`] — the edge, call, per-instruction and
//! per-routine counters gathered by `run_profiled` — bound to the exact
//! program image they were measured on. The counters and their
//! accessors (`count_at`, `edge`, `routine_fraction`) are declared once,
//! in `spike-sim`; this crate adds the binding, [`Profile::merge`] and
//! the file. The binding is a content hash of the image bytes — the
//! same dual-lane FNV-1a the daemon's program cache uses — so a profile
//! can never silently guide the optimization of a program it was not
//! collected from: loading is fine, but consumers check
//! [`Profile::matches`] (and [`Profile::merge`] enforces it) before
//! trusting the counts.
//!
//! On disk a profile is a [`spike_isa::container`]: magic `spikprof`,
//! the format version, and the checksummed [`Snap`] encoding of the
//! [`Profile`], fingerprint first; the nested counters encode as their
//! own fields in order, so the layout is format 2's. The container
//! checks the magic, the version and the checksum before anything is
//! decoded, and files are written atomically
//! ([`spike_isa::container::write_atomic`]). Decoding never panics —
//! truncated, corrupt, or foreign bytes come back as a [`ProfileError`].
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

use std::fmt;
use std::path::Path;

use spike_isa::container::{self, ContainerError};
use spike_isa::{Snap, SnapError, SnapReader, SnapWriter};
use spike_program::Program;
use spike_sim::ExecutionProfile;

/// Magic tag leading every serialized profile.
pub const MAGIC: &[u8; 8] = b"spikprof";

/// Current serialization format version.
///
/// 2: the shared [`spike_isa::container`] header, and the payload is
/// the [`Snap`] encoding of [`Profile`].
pub const FORMAT_VERSION: u32 = 2;

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

impl From<ContainerError> for ProfileError {
    fn from(e: ContainerError) -> ProfileError {
        match e {
            ContainerError::Foreign => ProfileError::NotAProfile,
            ContainerError::Incompatible { found } => ProfileError::Incompatible { found },
            ContainerError::Corrupt(what) => ProfileError::Corrupt(what),
        }
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

/// An execution profile bound to the program image it measured: a
/// fingerprint, a run count and the counters.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Profile {
    /// Content hash of the image the profile was collected from.
    pub fingerprint: [u64; 2],
    /// Number of runs merged into these counters (1 for a fresh
    /// collection).
    pub runs: u64,
    /// The counters, summed over the merged runs.
    pub counts: ExecutionProfile,
}

/// The `spikprof` payload: the fingerprint, the run count, then the
/// counters' fields in declaration order, so the nesting adds no bytes.
impl Snap for Profile {
    fn snap(&self, w: &mut SnapWriter) {
        let c = &self.counts;
        self.fingerprint.snap(w);
        self.runs.snap(w);
        c.steps_per_routine.snap(w);
        c.entries_per_routine.snap(w);
        c.calls.snap(w);
        c.call_overhead_steps.snap(w);
        c.total_steps.snap(w);
        c.code_base.snap(w);
        c.insn_counts.snap(w);
        c.edges.snap(w);
    }

    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        // A struct expression evaluates its fields in the order written.
        Ok(Profile {
            fingerprint: Snap::unsnap(r)?,
            runs: Snap::unsnap(r)?,
            counts: ExecutionProfile {
                steps_per_routine: Snap::unsnap(r)?,
                entries_per_routine: Snap::unsnap(r)?,
                calls: Snap::unsnap(r)?,
                call_overhead_steps: Snap::unsnap(r)?,
                total_steps: Snap::unsnap(r)?,
                code_base: Snap::unsnap(r)?,
                insn_counts: Snap::unsnap(r)?,
                edges: Snap::unsnap(r)?,
            },
        })
    }
}

impl Profile {
    /// Packages a sim-collected [`ExecutionProfile`] of `program` as a
    /// persistent profile bound to `program`'s image bytes.
    pub fn collect(program: &Program, exec: &ExecutionProfile) -> Profile {
        Profile { fingerprint: fingerprint(&program.to_image()), runs: 1, counts: exec.clone() }
    }

    /// Whether the profile was collected from exactly these image bytes.
    pub fn matches(&self, image: &[u8]) -> bool {
        self.fingerprint == fingerprint(image)
    }

    /// Merges another run of the same image into this profile, summing
    /// every counter. Rejects profiles of a different image
    /// ([`ProfileError::FingerprintMismatch`]) or with inconsistent
    /// shapes ([`ProfileError::Corrupt`] — same image implies same
    /// shape, so a mismatch means one side is damaged), and a sum that
    /// overflows (`Corrupt("counter overflow")`). All or nothing: on any
    /// error `self` is unchanged.
    pub fn merge(&mut self, other: &Profile) -> Result<(), ProfileError> {
        if self.fingerprint != other.fingerprint {
            return Err(ProfileError::FingerprintMismatch);
        }
        let (a, b) = (&self.counts, &other.counts);
        if a.steps_per_routine.len() != b.steps_per_routine.len()
            || a.entries_per_routine.len() != b.entries_per_routine.len()
            || a.insn_counts.len() != b.insn_counts.len()
            || a.code_base != b.code_base
        {
            return Err(ProfileError::Corrupt("merge shape mismatch for identical image"));
        }
        let add =
            |a: u64, b: u64| a.checked_add(b).ok_or(ProfileError::Corrupt("counter overflow"));
        let add_all = |a: &[u64], b: &[u64]| -> Result<Vec<u64>, ProfileError> {
            a.iter().zip(b).map(|(&a, &b)| add(a, b)).collect()
        };
        let mut edges = a.edges.clone();
        for (&edge, &n) in &b.edges {
            let sum = edges.entry(edge).or_insert(0);
            *sum = add(*sum, n)?;
        }
        let counts = ExecutionProfile {
            steps_per_routine: add_all(&a.steps_per_routine, &b.steps_per_routine)?,
            entries_per_routine: add_all(&a.entries_per_routine, &b.entries_per_routine)?,
            calls: add(a.calls, b.calls)?,
            call_overhead_steps: add(a.call_overhead_steps, b.call_overhead_steps)?,
            total_steps: add(a.total_steps, b.total_steps)?,
            code_base: a.code_base,
            insn_counts: add_all(&a.insn_counts, &b.insn_counts)?,
            edges,
        };
        *self =
            Profile { fingerprint: self.fingerprint, runs: add(self.runs, other.runs)?, counts };
        Ok(())
    }

    /// Serializes the profile: a [`spike_isa::container`] around the
    /// profile's [`Snap`] encoding.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload = SnapWriter::new();
        self.snap(&mut payload);
        container::seal(MAGIC, FORMAT_VERSION, &payload.into_bytes())
    }

    /// Decodes a serialized profile. Never panics: foreign bytes are
    /// [`ProfileError::NotAProfile`], other versions are
    /// [`ProfileError::Incompatible`], and anything truncated,
    /// checksum-damaged or malformed is [`ProfileError::Corrupt`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Profile, ProfileError> {
        let mut r = SnapReader::new(container::open(bytes, MAGIC, FORMAT_VERSION)?);
        let profile = Profile::unsnap(&mut r)?;
        if !r.is_exhausted() {
            return Err(ProfileError::Corrupt("payload length disagrees with contents"));
        }
        Ok(profile)
    }

    /// Writes the profile to `path` through
    /// [`container::write_atomic`], so readers never observe a
    /// half-written profile.
    pub fn save(&self, path: &Path) -> Result<(), ProfileError> {
        Ok(container::write_atomic(path, &self.to_bytes())?)
    }

    /// Reads a profile from `path`.
    pub fn load(path: &Path) -> Result<Profile, ProfileError> {
        Profile::from_bytes(&std::fs::read(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spike_isa::Reg;
    use spike_program::ProgramBuilder;
    use std::collections::BTreeMap;

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
        assert!(back.counts.total_steps > 0);
        assert!(!back.counts.edges.is_empty());
    }

    fn unhex(parts: &[&str]) -> Vec<u8> {
        parts
            .concat()
            .as_bytes()
            .chunks(2)
            .map(|h| u8::from_str_radix(std::str::from_utf8(h).unwrap(), 16).unwrap())
            .collect()
    }

    fn pinned_profile() -> Profile {
        Profile {
            fingerprint: [0x0102_0304_0506_0708, 0x1112_1314_1516_1718],
            runs: 1,
            counts: ExecutionProfile {
                steps_per_routine: vec![5],
                entries_per_routine: vec![6],
                calls: 2,
                call_overhead_steps: 3,
                total_steps: 4,
                code_base: 0x1000,
                insn_counts: vec![7, 8],
                edges: BTreeMap::from([((0x1000, 0x1001), 9)]),
            },
        }
    }

    /// The `spikprof` layout, byte for byte: a change of codec must not
    /// orphan the files already written.
    #[test]
    fn layout_is_pinned() {
        let pinned = unhex(&[
            "7370696b70726f66",                                                 // magic
            "02000000",                                                         // format version
            "9c00000000000000",                                                 // payload length
            "8410898691a19472ef851d72ef4b434b", // payload checksum, two lanes
            "08070605040302011817161514131211", // image fingerprint, two lanes
            "0100000000000000",                 // runs
            "010000000000000001000000000000000500000000000000", // steps_per_routine: cap, len, items
            "010000000000000001000000000000000600000000000000", // entries_per_routine
            "0200000000000000",                                 // calls
            "0300000000000000",                                 // call_overhead_steps
            "0400000000000000",                                 // total_steps
            "00100000",                                         // code_base
            "0200000000000000020000000000000007000000000000000800000000000000", // insn_counts
            "010000000000000000100000011000000900000000000000", // edges: len, (src, dst, n)
        ]);
        assert_eq!(pinned_profile().to_bytes(), pinned);
        assert_eq!(Profile::from_bytes(&pinned).unwrap(), pinned_profile());
    }

    /// The same profile as `spikprof` version 1 wrote it: refused by its
    /// version, never misread.
    #[test]
    fn a_version_1_profile_is_incompatible() {
        let v1 = unhex(&[
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
        ]);
        assert!(matches!(Profile::from_bytes(&v1), Err(ProfileError::Incompatible { found: 1 })));
    }

    #[test]
    fn merge_sums_counters_and_counts_runs() {
        let (_, mut a) = sample();
        let b = a.clone();
        a.merge(&b).unwrap();
        assert_eq!(a.runs, 2);
        assert_eq!(a.counts.total_steps, 2 * b.counts.total_steps);
        assert_eq!(a.counts.calls, 2 * b.counts.calls);
        for (x, y) in a.counts.insn_counts.iter().zip(&b.counts.insn_counts) {
            assert_eq!(*x, 2 * y);
        }
        for (edge, n) in &a.counts.edges {
            assert_eq!(*n, 2 * b.counts.edges[edge]);
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
    fn an_overflowing_merge_is_corrupt_and_changes_nothing() {
        let (_, mut a) = sample();
        let mut other = Profile::from_bytes(&a.to_bytes()).unwrap();
        other.counts.total_steps = u64::MAX;
        let before = a.clone();
        assert!(matches!(a.merge(&other), Err(ProfileError::Corrupt("counter overflow"))));
        assert_eq!(a, before);
        // An overflow in the last table summed leaves the earlier ones alone too.
        let mut other = before.clone();
        *other.counts.edges.values_mut().next().unwrap() = u64::MAX;
        assert!(matches!(a.merge(&other), Err(ProfileError::Corrupt("counter overflow"))));
        assert_eq!(a, before);
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
    fn count_accessors_are_total() {
        let (program, profile) = sample();
        let base = program.routines().first().unwrap().addr();
        assert!(profile.counts.count_at(base) > 0);
        assert_eq!(profile.counts.count_at(0xFFFF_FFFF), 0);
        assert_eq!(profile.counts.edge(1, 2), 0);
    }
}
