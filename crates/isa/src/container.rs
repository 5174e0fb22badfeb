//! The one container both files the tools write use: `spiksnap` warm-cache
//! snapshots and `spikprof` execution profiles.
//!
//! ```text
//! +----------+------------+-----------------+--------------------+---------+
//! | magic    | format     | payload length  | fnv128(payload)    | payload |
//! | 8 B      | u32 LE     | u64 LE          | 2 x u64 LE         |         |
//! +----------+------------+-----------------+--------------------+---------+
//! ```
//!
//! The payload is the [`Snap`](crate::Snap) encoding of one value; what
//! that value is belongs to the format. [`open`] checks the magic, then
//! the format, then that the announced length is exactly what follows,
//! then the checksum — all before the caller decodes a byte. The checksum
//! detects accidental damage (a torn write, a flipped bit), not forgery:
//! decoders still validate everything they read.

use std::io::Write as _;
use std::path::Path;

use crate::fnv128;

/// Bytes in front of the payload.
pub const HEADER_LEN: usize = 36;

/// Why [`open`] refused some bytes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ContainerError {
    /// The bytes do not start with the expected magic.
    Foreign,
    /// The right kind of file, written in another format version.
    Incompatible {
        /// Format found in the file.
        found: u32,
    },
    /// Truncated, trailing bytes, or a payload checksum mismatch.
    Corrupt(&'static str),
}

/// Puts the header for `payload` in front of it.
pub fn seal(magic: &[u8; 8], format: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(magic);
    out.extend_from_slice(&format.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    for lane in fnv128(payload) {
        out.extend_from_slice(&lane.to_le_bytes());
    }
    out.extend_from_slice(payload);
    out
}

/// The payload of a container [`seal`]ed with `magic` and `format`.
///
/// # Errors
///
/// [`ContainerError::Foreign`] on another magic,
/// [`ContainerError::Incompatible`] on another format, and
/// [`ContainerError::Corrupt`] when the bytes are truncated, run past the
/// announced length, or fail the checksum.
pub fn open<'a>(bytes: &'a [u8], magic: &[u8; 8], format: u32) -> Result<&'a [u8], ContainerError> {
    if bytes.get(..8) != Some(magic.as_slice()) {
        return Err(ContainerError::Foreign);
    }
    let truncated = ContainerError::Corrupt("truncated header");
    let found = bytes.get(8..12).ok_or(truncated)?;
    let found = u32::from_le_bytes(found.try_into().expect("four bytes"));
    if found != format {
        return Err(ContainerError::Incompatible { found });
    }
    let (header, payload) = bytes.split_at_checked(HEADER_LEN).ok_or(truncated)?;
    let word = |at: usize| u64::from_le_bytes(header[at..at + 8].try_into().expect("eight bytes"));
    if word(12) != payload.len() as u64 {
        return Err(ContainerError::Corrupt("payload length mismatch"));
    }
    if fnv128(payload) != [word(20), word(28)] {
        return Err(ContainerError::Corrupt("payload checksum mismatch"));
    }
    Ok(payload)
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

    const MAGIC: &[u8; 8] = b"testmagi";

    #[test]
    fn round_trips_and_an_empty_payload_is_a_bare_header() {
        let sealed = seal(MAGIC, 3, b"payload");
        assert_eq!(sealed.len(), HEADER_LEN + 7);
        assert_eq!(open(&sealed, MAGIC, 3), Ok(&b"payload"[..]));
        let empty = seal(MAGIC, 3, b"");
        assert_eq!(empty.len(), HEADER_LEN);
        assert_eq!(open(&empty, MAGIC, 3), Ok(&b""[..]));
    }

    #[test]
    fn every_truncation_fails() {
        let sealed = seal(MAGIC, 3, b"some payload bytes");
        for len in 0..sealed.len() {
            let got = open(&sealed[..len], MAGIC, 3);
            match len {
                0..=7 => assert_eq!(got, Err(ContainerError::Foreign), "cut at {len}"),
                _ => {
                    assert!(matches!(got, Err(ContainerError::Corrupt(_))), "cut at {len}: {got:?}")
                }
            }
        }
        let mut longer = sealed.clone();
        longer.push(0);
        assert_eq!(
            open(&longer, MAGIC, 3),
            Err(ContainerError::Corrupt("payload length mismatch"))
        );
    }

    #[test]
    fn every_header_byte_flip_fails_by_field() {
        let sealed = seal(MAGIC, 3, b"some payload bytes");
        for at in 0..HEADER_LEN {
            let mut flipped = sealed.clone();
            flipped[at] ^= 0x01;
            let got = open(&flipped, MAGIC, 3);
            match at {
                0..=7 => assert_eq!(got, Err(ContainerError::Foreign), "flip at {at}"),
                8..=11 => assert!(
                    matches!(got, Err(ContainerError::Incompatible { found }) if found != 3),
                    "flip at {at}: {got:?}"
                ),
                _ => {
                    assert!(matches!(got, Err(ContainerError::Corrupt(_))), "flip at {at}: {got:?}")
                }
            }
        }
        let mut flipped = sealed;
        *flipped.last_mut().unwrap() ^= 0x01;
        assert_eq!(
            open(&flipped, MAGIC, 3),
            Err(ContainerError::Corrupt("payload checksum mismatch"))
        );
    }

    #[test]
    fn saves_to_sibling_names_do_not_share_a_temp_file() {
        let dir = std::env::temp_dir().join(format!("spike-atomic-sib-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        write_atomic(&dir.join("x.a"), b"a").unwrap();
        write_atomic(&dir.join("x.b"), b"b").unwrap();
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(names, ["x.a", "x.b"]);
        assert_eq!(std::fs::read(dir.join("x.a")).unwrap(), b"a");
        // A failed rename (the target is a directory) removes its temp file.
        std::fs::create_dir(dir.join("x.c")).unwrap();
        assert!(write_atomic(&dir.join("x.c"), b"c").is_err());
        assert!(!dir.join("x.c.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
