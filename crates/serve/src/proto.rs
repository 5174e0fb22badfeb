//! The wire protocol: length-prefixed JSON frames with an optional binary
//! attachment.
//!
//! A frame is an 8-byte big-endian header — `u32` JSON length, `u32` blob
//! length — followed by the JSON bytes and then the blob bytes. Requests
//! carry the executable image in the blob (no base64 inflation), followed
//! by the execution profile when the JSON's `profile_len` says so.
//! Responses mirror that: the report text travels raw at the front of the
//! blob, `stdout_bytes` long, never escaped into the JSON, and `optimize`
//! appends the rewritten image after it. [`Response::send`] and
//! [`Response::from_frame`] are the only writer and reader of that
//! layout. One connection carries exactly one request/response exchange:
//! the client connects, writes one frame, reads one frame, and both sides
//! close. That keeps the server's worker loop free of idle-connection
//! bookkeeping, and connecting over a Unix socket is far cheaper than any
//! analysis the request triggers.
//!
//! All JSON is read and written through [`spike_core::json`], so the
//! daemon shares the workspace's one escaping implementation.

use std::fmt;
use std::io::{self, Read, Write};

use spike_core::json::Json;

/// Frame header size: two big-endian `u32` lengths.
const HEADER_LEN: usize = 8;

/// What [`read_frame`] produced.
#[derive(Debug)]
pub enum FrameRead {
    /// A complete frame: the decoded JSON document and the blob.
    Frame(Json, Vec<u8>),
    /// The peer closed the connection before sending a header.
    Eof,
}

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying transport failed.
    Io(io::Error),
    /// The header announced more than the configured byte limit. The
    /// frame body was *not* consumed; the connection must be dropped
    /// after the error reply.
    TooLarge {
        /// Announced total frame size in bytes.
        announced: usize,
        /// The configured limit.
        limit: usize,
    },
    /// The JSON payload failed to parse.
    BadJson(String),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "transport error: {e}"),
            FrameError::TooLarge { announced, limit } => {
                write!(f, "frame of {announced} bytes exceeds the {limit}-byte limit")
            }
            FrameError::BadJson(e) => write!(f, "malformed JSON payload: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> FrameError {
        FrameError::Io(e)
    }
}

/// Writes one frame. The JSON document is serialized in stored member
/// order, so identical values produce identical bytes.
pub fn write_frame(w: &mut impl Write, json: &Json, blob: &[u8]) -> io::Result<()> {
    write_frame_parts(w, json, &[blob])
}

/// [`write_frame`] with the blob given as consecutive parts, so a caller
/// never concatenates them into one buffer first.
fn write_frame_parts(w: &mut impl Write, json: &Json, blob: &[&[u8]]) -> io::Result<()> {
    let mut text = String::new();
    json.write(&mut text);
    let blob_len: usize = blob.iter().map(|part| part.len()).sum();
    let mut header = [0u8; HEADER_LEN];
    header[..4].copy_from_slice(&(text.len() as u32).to_be_bytes());
    header[4..].copy_from_slice(&(blob_len as u32).to_be_bytes());
    w.write_all(&header)?;
    w.write_all(text.as_bytes())?;
    for part in blob {
        w.write_all(part)?;
    }
    w.flush()
}

/// Reads one frame, refusing to consume bodies larger than `max_bytes`
/// (JSON length + blob length combined).
pub fn read_frame(r: &mut impl Read, max_bytes: usize) -> Result<FrameRead, FrameError> {
    let mut header = [0u8; HEADER_LEN];
    if !read_exact_or_eof(r, &mut header)? {
        return Ok(FrameRead::Eof);
    }
    let json_len = u32::from_be_bytes(header[..4].try_into().expect("4 bytes")) as usize;
    let blob_len = u32::from_be_bytes(header[4..].try_into().expect("4 bytes")) as usize;
    let total = json_len.saturating_add(blob_len);
    if total > max_bytes {
        return Err(FrameError::TooLarge { announced: total, limit: max_bytes });
    }
    // The header has been read, so an EOF anywhere in the payloads is a
    // mid-frame close — report it as such, not as a generic short read.
    let mut json_bytes = vec![0u8; json_len];
    read_exact_mid_frame(r, &mut json_bytes)?;
    let mut blob = vec![0u8; blob_len];
    read_exact_mid_frame(r, &mut blob)?;
    let text = String::from_utf8(json_bytes)
        .map_err(|e| FrameError::BadJson(format!("payload is not UTF-8: {e}")))?;
    let json = Json::parse(&text).map_err(|e| FrameError::BadJson(e.to_string()))?;
    Ok(FrameRead::Frame(json, blob))
}

/// Fills `buf` completely; an EOF at any point (the frame header is
/// already consumed) is a mid-frame close.
fn read_exact_mid_frame(r: &mut impl Read, buf: &mut [u8]) -> io::Result<()> {
    if read_exact_or_eof(r, buf)? {
        Ok(())
    } else {
        Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed mid-frame"))
    }
}

/// Fills `buf` completely, or reports a clean EOF if the stream ended
/// before the first byte.
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// How `lint` output should be formatted, mirroring `spike lint --format`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LintFormat {
    /// One diagnostic per line plus a summary line.
    Human,
    /// The stable JSON report.
    Json,
}

impl LintFormat {
    fn name(self) -> &'static str {
        match self {
            LintFormat::Human => "human",
            LintFormat::Json => "json",
        }
    }

    /// Parses a `--format` value; the error text matches the local CLI's.
    ///
    /// # Errors
    ///
    /// Rejects anything other than `human` or `json`.
    pub fn parse(s: &str) -> Result<LintFormat, String> {
        match s {
            "human" => Ok(LintFormat::Human),
            "json" => Ok(LintFormat::Json),
            other => Err(format!("--format must be `human` or `json`, got `{other}`")),
        }
    }
}

/// Which question a `query` request asks, mirroring
/// `spike query <kind>`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum QueryKind {
    /// The routine's phase-1 entry summary.
    Summary,
    /// The routine's live-at-entry / live-at-exit sets.
    LiveAtEntry,
    /// The single-routine uninitialized-read check.
    Uninit,
    /// Whether one routine transitively calls another.
    Reaches,
}

impl QueryKind {
    /// The kebab-case wire name, identical to the CLI argument.
    pub fn name(self) -> &'static str {
        match self {
            QueryKind::Summary => "summary",
            QueryKind::LiveAtEntry => "live-at-entry",
            QueryKind::Uninit => "uninit",
            QueryKind::Reaches => "reaches",
        }
    }

    /// Parses a query kind; the error text matches the local CLI's.
    ///
    /// # Errors
    ///
    /// Rejects anything other than the four kind names.
    pub fn parse(s: &str) -> Result<QueryKind, String> {
        match s {
            "summary" => Ok(QueryKind::Summary),
            "live-at-entry" => Ok(QueryKind::LiveAtEntry),
            "uninit" => Ok(QueryKind::Uninit),
            "reaches" => Ok(QueryKind::Reaches),
            other => Err(format!(
                "query kind must be `summary`, `live-at-entry`, `uninit` or `reaches`, \
                 got `{other}`"
            )),
        }
    }
}

/// What the client asks the daemon to do.
#[derive(Clone, PartialEq, Debug)]
pub enum Command {
    /// Interprocedural dataflow analysis; the deterministic report of
    /// `spike analyze`.
    Analyze {
        /// Print every routine's summary (`--summaries`).
        summaries: bool,
        /// Print only this routine's summary (`--routine`).
        routine: Option<String>,
    },
    /// Static checks; the report of `spike lint`.
    Lint {
        /// Output format.
        format: LintFormat,
    },
    /// The Figure-1 optimizations; returns the rewritten image as the
    /// response blob.
    Optimize {
        /// Display name of the output path (report text only; the client
        /// decides where the blob is written).
        out: String,
        /// Loop the pass sequence to a fixpoint (`--iterate`).
        iterate: bool,
        /// Incremental re-analysis between passes (`--incremental`).
        incremental: bool,
        /// Run loop-invariant code motion (off under `--no-licm`).
        licm: bool,
    },
    /// One question about one routine, read from the image's cache
    /// entry (the one `analyze` and `lint` share); the report of
    /// `spike query`.
    Query {
        /// Which question to ask.
        kind: QueryKind,
        /// The routine the question is about (for `reaches`, the caller).
        routine: String,
        /// For `reaches`: the callee end of the path.
        callee: Option<String>,
    },
    /// PSG vs whole-CFG cross-validation; the report of `spike compare`.
    Compare,
    /// The daemon's counters as one JSON document.
    Stats,
    /// Graceful drain: stop accepting, finish queued work, exit 0.
    Shutdown,
}

impl Command {
    /// The wire name of the command.
    pub fn name(&self) -> &'static str {
        match self {
            Command::Analyze { .. } => "analyze",
            Command::Lint { .. } => "lint",
            Command::Optimize { .. } => "optimize",
            Command::Query { .. } => "query",
            Command::Compare => "compare",
            Command::Stats => "stats",
            Command::Shutdown => "shutdown",
        }
    }
}

/// One request: a command plus the metadata shared by all commands.
#[derive(Clone, PartialEq, Debug)]
pub struct Request {
    /// The command to run.
    pub cmd: Command,
    /// Display name for the image (the client's path string); appears in
    /// report text exactly where the local CLI would print its path
    /// argument, which is what makes the two paths byte-identical.
    pub image_name: String,
    /// Processing deadline in milliseconds, measured from the moment the
    /// daemon finished reading the request. `Some(0)` is already expired
    /// (useful for probing); `None` uses the daemon's default.
    pub deadline_ms: Option<u64>,
    /// Length of the execution-profile blob appended after the image in
    /// the frame blob: the blob is `image ++ profile`, and the image ends
    /// `profile_len` bytes before the end. Zero means no profile.
    pub profile_len: usize,
}

impl Request {
    /// Serializes the request to its wire JSON document.
    pub fn to_json(&self) -> Json {
        let mut members = vec![("cmd".to_string(), Json::from(self.cmd.name()))];
        if !self.image_name.is_empty() {
            members.push(("image".to_string(), Json::from(self.image_name.as_str())));
        }
        if let Some(ms) = self.deadline_ms {
            members.push(("deadline_ms".to_string(), Json::from(ms)));
        }
        if self.profile_len > 0 {
            members.push(("profile_len".to_string(), Json::from(self.profile_len as u64)));
        }
        let mut opts: Vec<(String, Json)> = Vec::new();
        match &self.cmd {
            Command::Analyze { summaries, routine } => {
                if *summaries {
                    opts.push(("summaries".to_string(), Json::Bool(true)));
                }
                if let Some(r) = routine {
                    opts.push(("routine".to_string(), Json::from(r.as_str())));
                }
            }
            Command::Lint { format } => {
                opts.push(("format".to_string(), Json::from(format.name())));
            }
            Command::Optimize { out, iterate, incremental, licm } => {
                opts.push(("out".to_string(), Json::from(out.as_str())));
                opts.push(("iterate".to_string(), Json::Bool(*iterate)));
                opts.push(("incremental".to_string(), Json::Bool(*incremental)));
                opts.push(("licm".to_string(), Json::Bool(*licm)));
            }
            Command::Query { kind, routine, callee } => {
                opts.push(("query".to_string(), Json::from(kind.name())));
                opts.push(("routine".to_string(), Json::from(routine.as_str())));
                if let Some(c) = callee {
                    opts.push(("callee".to_string(), Json::from(c.as_str())));
                }
            }
            Command::Compare | Command::Stats | Command::Shutdown => {}
        }
        if !opts.is_empty() {
            members.push(("opts".to_string(), Json::Obj(opts)));
        }
        Json::Obj(members)
    }

    /// Decodes a request from its wire JSON document.
    pub fn from_json(json: &Json) -> Result<Request, String> {
        let name = json
            .get("cmd")
            .and_then(Json::as_str)
            .ok_or_else(|| "request is missing the `cmd` field".to_string())?;
        let opts = json.get("opts");
        let opt = |key: &str| opts.and_then(|o| o.get(key));
        let cmd = match name {
            "analyze" => Command::Analyze {
                summaries: opt("summaries").and_then(Json::as_bool).unwrap_or(false),
                routine: opt("routine").and_then(Json::as_str).map(str::to_string),
            },
            "lint" => Command::Lint {
                format: LintFormat::parse(opt("format").and_then(Json::as_str).unwrap_or("human"))?,
            },
            "optimize" => Command::Optimize {
                out: opt("out").and_then(Json::as_str).unwrap_or("out.img").to_string(),
                iterate: opt("iterate").and_then(Json::as_bool).unwrap_or(false),
                incremental: opt("incremental").and_then(Json::as_bool).unwrap_or(true),
                licm: opt("licm").and_then(Json::as_bool).unwrap_or(true),
            },
            "query" => Command::Query {
                kind: QueryKind::parse(opt("query").and_then(Json::as_str).unwrap_or(""))?,
                routine: opt("routine")
                    .and_then(Json::as_str)
                    .filter(|r| !r.is_empty())
                    .ok_or_else(|| "query request is missing the `routine` option".to_string())?
                    .to_string(),
                callee: opt("callee").and_then(Json::as_str).map(str::to_string),
            },
            "compare" => Command::Compare,
            "stats" => Command::Stats,
            "shutdown" => Command::Shutdown,
            other => return Err(format!("unknown command `{other}`")),
        };
        Ok(Request {
            cmd,
            image_name: json.get("image").and_then(Json::as_str).unwrap_or("").to_string(),
            deadline_ms: json.get("deadline_ms").and_then(Json::as_u64),
            profile_len: json.get("profile_len").and_then(Json::as_u64).unwrap_or(0) as usize,
        })
    }
}

/// Machine-readable failure category of a request. The daemon always
/// replies with a structured error — a request never silently drops — and
/// the client maps every kind to exit code 2.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ErrorKind {
    /// The work queue was full; retry later.
    Busy,
    /// The request frame exceeded the daemon's byte limit.
    TooLarge,
    /// The request's processing deadline expired.
    Deadline,
    /// The request JSON was missing fields or malformed.
    BadRequest,
    /// The image failed to load or validate (commands other than `lint`,
    /// which reports this as a `malformed-image` finding instead).
    BadImage,
    /// The worker handling the request panicked; the daemon keeps
    /// serving.
    Panic,
    /// The daemon is draining and no longer accepts work.
    ShuttingDown,
}

impl ErrorKind {
    /// The kebab-case wire name.
    pub fn name(self) -> &'static str {
        match self {
            ErrorKind::Busy => "busy",
            ErrorKind::TooLarge => "too-large",
            ErrorKind::Deadline => "deadline",
            ErrorKind::BadRequest => "bad-request",
            ErrorKind::BadImage => "bad-image",
            ErrorKind::Panic => "panic",
            ErrorKind::ShuttingDown => "shutting-down",
        }
    }

    fn parse(s: &str) -> Option<ErrorKind> {
        [
            ErrorKind::Busy,
            ErrorKind::TooLarge,
            ErrorKind::Deadline,
            ErrorKind::BadRequest,
            ErrorKind::BadImage,
            ErrorKind::Panic,
            ErrorKind::ShuttingDown,
        ]
        .into_iter()
        .find(|k| k.name() == s)
    }
}

/// One response. `stdout` holds the exact bytes the local CLI would have
/// printed to stdout; `diag` holds non-deterministic diagnostics (timings,
/// cache disposition) that belong on stderr.
#[derive(Clone, PartialEq, Debug)]
pub struct Response {
    /// Suggested process exit code for the client (0 ok, 1 lint errors,
    /// 2 failures).
    pub exit: u8,
    /// Byte-stable report text.
    pub stdout: String,
    /// Timing and cache diagnostics; never part of the stability
    /// contract.
    pub diag: String,
    /// Present when the request failed.
    pub error: Option<(ErrorKind, String)>,
}

impl Response {
    /// A successful response.
    pub fn ok(stdout: String, diag: String) -> Response {
        Response { exit: 0, stdout, diag, error: None }
    }

    /// A failure response; the client exits 2.
    pub fn error(kind: ErrorKind, message: impl Into<String>) -> Response {
        Response {
            exit: 2,
            stdout: String::new(),
            diag: String::new(),
            error: Some((kind, message.into())),
        }
    }

    /// Writes the response as one frame. The JSON holds the exit code,
    /// the diagnostics, the error and `stdout_bytes`; the blob is the
    /// stdout bytes followed by `image` (the rewritten image of
    /// `optimize`, empty otherwise). The report is never escaped.
    ///
    /// # Errors
    ///
    /// Fails when the transport does.
    pub fn send(&self, w: &mut impl Write, image: &[u8]) -> io::Result<()> {
        let mut members = vec![
            ("status".to_string(), Json::from(if self.error.is_some() { "error" } else { "ok" })),
            ("exit".to_string(), Json::from(u64::from(self.exit))),
        ];
        if !self.stdout.is_empty() {
            members.push(("stdout_bytes".to_string(), Json::from(self.stdout.len() as u64)));
        }
        if !self.diag.is_empty() {
            members.push(("diag".to_string(), Json::from(self.diag.as_str())));
        }
        if let Some((kind, message)) = &self.error {
            members.push((
                "error".to_string(),
                Json::Obj(vec![
                    ("kind".to_string(), Json::from(kind.name())),
                    ("message".to_string(), Json::from(message.as_str())),
                ]),
            ));
        }
        write_frame_parts(w, &Json::Obj(members), &[self.stdout.as_bytes(), image])
    }

    /// Decodes a frame [`Response::send`] wrote: the response, and the
    /// image that followed its stdout in the blob.
    ///
    /// # Errors
    ///
    /// Rejects a frame without an exit code or with an unknown error
    /// kind, and a `stdout_bytes` that runs past the blob or does not end
    /// on a UTF-8 boundary.
    pub fn from_frame(json: &Json, mut blob: Vec<u8>) -> Result<(Response, Vec<u8>), String> {
        let exit = json
            .get("exit")
            .and_then(Json::as_u64)
            .ok_or_else(|| "response is missing the `exit` field".to_string())?;
        let error = match json.get("error") {
            Some(e) => {
                let kind = e
                    .get("kind")
                    .and_then(Json::as_str)
                    .and_then(ErrorKind::parse)
                    .ok_or_else(|| "error response has no recognizable kind".to_string())?;
                let message =
                    e.get("message").and_then(Json::as_str).unwrap_or_default().to_string();
                Some((kind, message))
            }
            None => None,
        };
        let stdout_bytes = match json.get("stdout_bytes") {
            None => 0,
            Some(n) => n
                .as_u64()
                .and_then(|n| usize::try_from(n).ok())
                .ok_or_else(|| "`stdout_bytes` is not a byte count".to_string())?,
        };
        if stdout_bytes > blob.len() {
            return Err(format!(
                "stdout_bytes {stdout_bytes} exceeds the {}-byte frame blob",
                blob.len()
            ));
        }
        let image = blob.split_off(stdout_bytes);
        let stdout = String::from_utf8(blob).map_err(|e| format!("stdout is not UTF-8: {e}"))?;
        let response = Response {
            exit: u8::try_from(exit).map_err(|_| format!("exit code {exit} out of range"))?,
            stdout,
            diag: json.get("diag").and_then(Json::as_str).unwrap_or("").to_string(),
            error,
        };
        Ok((response, image))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_roundtrip() {
        let reqs = [
            Request {
                cmd: Command::Analyze { summaries: true, routine: Some("main".into()) },
                image_name: "a.img".into(),
                deadline_ms: Some(250),
                profile_len: 0,
            },
            Request {
                cmd: Command::Analyze { summaries: false, routine: None },
                image_name: "a.img".into(),
                deadline_ms: None,
                profile_len: 104,
            },
            Request {
                cmd: Command::Lint { format: LintFormat::Json },
                image_name: "b.img".into(),
                deadline_ms: None,
                profile_len: 0,
            },
            Request {
                cmd: Command::Optimize {
                    out: "o.img".into(),
                    iterate: true,
                    incremental: false,
                    licm: false,
                },
                image_name: "c.img".into(),
                deadline_ms: None,
                profile_len: 0,
            },
            Request {
                cmd: Command::Optimize {
                    out: "o.img".into(),
                    iterate: false,
                    incremental: true,
                    licm: true,
                },
                image_name: "c.img".into(),
                deadline_ms: None,
                profile_len: 4096,
            },
            Request {
                cmd: Command::Compare,
                image_name: "d.img".into(),
                deadline_ms: None,
                profile_len: 0,
            },
            Request {
                cmd: Command::Query {
                    kind: QueryKind::LiveAtEntry,
                    routine: "main".into(),
                    callee: None,
                },
                image_name: "e.img".into(),
                deadline_ms: None,
                profile_len: 0,
            },
            Request {
                cmd: Command::Query {
                    kind: QueryKind::Reaches,
                    routine: "main".into(),
                    callee: Some("leaf".into()),
                },
                image_name: "f.img".into(),
                deadline_ms: Some(100),
                profile_len: 0,
            },
            Request {
                cmd: Command::Stats,
                image_name: String::new(),
                deadline_ms: None,
                profile_len: 0,
            },
            Request {
                cmd: Command::Shutdown,
                image_name: String::new(),
                deadline_ms: Some(0),
                profile_len: 0,
            },
        ];
        for r in reqs {
            assert_eq!(Request::from_json(&r.to_json()).unwrap(), r);
        }
    }

    /// Sends `response` with `image` through an in-memory frame and reads
    /// it back.
    fn through_frame(response: &Response, image: &[u8]) -> Result<(Response, Vec<u8>), String> {
        let mut buf = Vec::new();
        response.send(&mut buf, image).unwrap();
        match read_frame(&mut &buf[..], 1 << 20).unwrap() {
            FrameRead::Frame(json, blob) => Response::from_frame(&json, blob),
            FrameRead::Eof => panic!("expected a frame"),
        }
    }

    /// A frame carrying `json` and `blob` verbatim, read back.
    fn decode(json: &str, blob: &[u8]) -> Result<(Response, Vec<u8>), String> {
        Response::from_frame(&Json::parse(json).unwrap(), blob.to_vec())
    }

    #[test]
    fn responses_roundtrip() {
        let rs = [
            Response::ok("report\n".into(), "time 1ms\n".into()),
            Response { exit: 1, stdout: "error[x]\n".into(), diag: String::new(), error: None },
            Response::error(ErrorKind::Busy, "queue full"),
        ];
        for r in rs {
            assert_eq!(through_frame(&r, &[]).unwrap(), (r, Vec::new()));
        }
    }

    #[test]
    fn stdout_roundtrips_byte_for_byte() {
        let texts = [
            String::new(),
            "\"quoted\" and \\back\\slashed\n".to_string(),
            (0u8..0x20).map(char::from).chain(['\u{7f}']).collect(),
            "multi-byte: é ß 漢字 🦀\n".to_string(),
        ];
        for text in texts {
            let r = Response::ok(text.clone(), String::new());
            let (back, image) = through_frame(&r, &[]).unwrap();
            assert_eq!(back.stdout.as_bytes(), text.as_bytes());
            assert!(image.is_empty());
        }
    }

    #[test]
    fn an_optimize_reply_splits_into_stdout_and_image() {
        let r = Response::ok("optimized: 3 insns removed\n".into(), String::new());
        let image = [0u8, 159, 146, 150, 255];
        let (back, blob) = through_frame(&r, &image).unwrap();
        assert_eq!(back, r);
        assert_eq!(blob, image);
        // No stdout: the whole blob is the image.
        let (back, blob) =
            through_frame(&Response::ok(String::new(), "d\n".into()), &image).unwrap();
        assert_eq!((back.stdout.as_str(), blob.as_slice()), ("", &image[..]));
    }

    #[test]
    fn bad_stdout_lengths_are_protocol_errors() {
        let past = decode(r#"{"exit":0,"stdout_bytes":4}"#, b"abc").unwrap_err();
        assert!(past.contains("exceeds the 3-byte frame blob"), "{past}");
        // 4 bytes of "é漢" end inside the three-byte sequence of 漢.
        let split = decode(r#"{"exit":0,"stdout_bytes":4}"#, "é漢".as_bytes()).unwrap_err();
        assert!(split.contains("not UTF-8"), "{split}");
        assert!(decode(r#"{"exit":0,"stdout_bytes":-1}"#, b"").is_err());
        assert!(decode(r#"{"exit":0,"stdout_bytes":"2"}"#, b"ab").is_err());
        // The same lengths on a well-formed blob decode.
        let (r, image) = decode(r#"{"exit":0,"stdout_bytes":2}"#, "é漢".as_bytes()).unwrap();
        assert_eq!((r.stdout.as_str(), image.as_slice()), ("é", "漢".as_bytes()));
    }

    #[test]
    fn frames_roundtrip_through_a_buffer() {
        let req = Request {
            cmd: Command::Lint { format: LintFormat::Human },
            image_name: "x.img".into(),
            deadline_ms: None,
            profile_len: 0,
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &req.to_json(), b"image-bytes").unwrap();
        let mut cursor = &buf[..];
        match read_frame(&mut cursor, 1 << 20).unwrap() {
            FrameRead::Frame(json, blob) => {
                assert_eq!(Request::from_json(&json).unwrap(), req);
                assert_eq!(blob, b"image-bytes");
            }
            FrameRead::Eof => panic!("expected a frame"),
        }
        match read_frame(&mut cursor, 1 << 20).unwrap() {
            FrameRead::Eof => {}
            FrameRead::Frame(..) => panic!("expected EOF"),
        }
    }

    #[test]
    fn oversized_frames_are_refused_without_reading_the_body() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Json::Null, &[0u8; 4096]).unwrap();
        let mut cursor = &buf[..];
        match read_frame(&mut cursor, 64) {
            Err(FrameError::TooLarge { announced, limit: 64 }) => assert!(announced >= 4096),
            other => panic!("expected TooLarge, got {other:?}"),
        }
        // The body was left unread.
        assert_eq!(cursor.len(), buf.len() - 8);
    }

    #[test]
    fn truncated_frames_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Json::Bool(true), b"xyz").unwrap();
        buf.truncate(buf.len() - 1);
        let mut cursor = &buf[..];
        assert!(matches!(read_frame(&mut cursor, 1 << 20), Err(FrameError::Io(_))));
    }
}
