//! The client side of the protocol: connect, one request frame out, one
//! response frame back.

use std::fmt;
use std::io;
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::Duration;

use crate::proto::{read_frame, write_frame, FrameError, FrameRead, Request, Response};

/// Where the daemon listens. Parsed from the CLI's `--connect` value:
/// `unix:<path>` selects a Unix socket, anything else is a TCP
/// `host:port`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Endpoint {
    /// TCP `host:port`.
    Tcp(String),
    /// Unix socket path.
    Unix(PathBuf),
}

impl Endpoint {
    /// Parses an endpoint string.
    ///
    /// # Errors
    ///
    /// Rejects empty addresses.
    pub fn parse(s: &str) -> Result<Endpoint, String> {
        if let Some(path) = s.strip_prefix("unix:") {
            if path.is_empty() {
                return Err("unix endpoint needs a socket path after `unix:`".to_string());
            }
            return Ok(Endpoint::Unix(PathBuf::from(path)));
        }
        if s.is_empty() {
            return Err("endpoint must be `host:port` or `unix:<path>`".to_string());
        }
        Ok(Endpoint::Tcp(s.to_string()))
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "{addr}"),
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

/// Why a round-trip failed. All variants are connection/protocol-level
/// problems — the daemon's own refusals travel inside a [`Response`] —
/// and the CLI maps every one of them to exit code 2.
#[derive(Debug)]
pub enum ClientError {
    /// Could not connect to the endpoint.
    Connect(String),
    /// The connection broke or a frame was malformed.
    Protocol(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Connect(m) => write!(f, "cannot connect: {m}"),
            ClientError::Protocol(m) => write!(f, "protocol failure: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// The client tolerates responses bigger than any request it sends
/// (optimized images are never larger than their input plus framing, but
/// leave generous room).
const MAX_RESPONSE_BYTES: usize = 256 << 20;

fn io_timeouts<S>(
    stream: &S,
    set_read: impl Fn(&S, Option<Duration>) -> io::Result<()>,
    set_write: impl Fn(&S, Option<Duration>) -> io::Result<()>,
) -> io::Result<()> {
    // Requests can legitimately take a while (a cold gcc-scale analysis);
    // the timeout guards against a dead daemon, not a slow one.
    let t = Some(Duration::from_secs(600));
    set_read(stream, t)?;
    set_write(stream, t)
}

/// Performs one request round-trip: connect, send `request` with `image`
/// as the frame blob, read the response frame.
///
/// # Errors
///
/// Fails on connect, transport, or framing problems; a daemon-side
/// refusal (busy, deadline, bad image, …) is a successful round-trip
/// whose [`Response::error`] is set.
pub fn request(
    endpoint: &Endpoint,
    request: &Request,
    image: &[u8],
) -> Result<(Response, Vec<u8>), ClientError> {
    let connect_err = |e: io::Error| ClientError::Connect(format!("{endpoint}: {e}"));
    match endpoint {
        Endpoint::Tcp(addr) => {
            let stream = TcpStream::connect(addr).map_err(connect_err)?;
            io_timeouts(&stream, TcpStream::set_read_timeout, TcpStream::set_write_timeout)
                .map_err(connect_err)?;
            round_trip(stream, request, image)
        }
        #[cfg(unix)]
        Endpoint::Unix(path) => {
            let stream = UnixStream::connect(path).map_err(connect_err)?;
            io_timeouts(&stream, UnixStream::set_read_timeout, UnixStream::set_write_timeout)
                .map_err(connect_err)?;
            round_trip(stream, request, image)
        }
        #[cfg(not(unix))]
        Endpoint::Unix(_) => {
            Err(ClientError::Connect("unix sockets are not available on this platform".into()))
        }
    }
}

fn round_trip(
    mut stream: impl io::Read + io::Write,
    req: &Request,
    image: &[u8],
) -> Result<(Response, Vec<u8>), ClientError> {
    write_frame(&mut stream, &req.to_json(), image)
        .map_err(|e| ClientError::Protocol(format!("sending request: {e}")))?;
    match read_frame(&mut stream, MAX_RESPONSE_BYTES) {
        Ok(FrameRead::Frame(json, blob)) => {
            Response::from_frame(&json, blob).map_err(ClientError::Protocol)
        }
        Ok(FrameRead::Eof) => {
            Err(ClientError::Protocol("daemon closed the connection without replying".into()))
        }
        Err(e @ (FrameError::Io(_) | FrameError::TooLarge { .. } | FrameError::BadJson(_))) => {
            Err(ClientError::Protocol(format!("reading response: {e}")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_parsing() {
        assert_eq!(
            Endpoint::parse("unix:/tmp/s.sock").unwrap(),
            Endpoint::Unix(PathBuf::from("/tmp/s.sock"))
        );
        assert_eq!(
            Endpoint::parse("127.0.0.1:4100").unwrap(),
            Endpoint::Tcp("127.0.0.1:4100".to_string())
        );
        assert!(Endpoint::parse("unix:").is_err());
        assert!(Endpoint::parse("").is_err());
        assert_eq!(Endpoint::parse("unix:/a b/s.sock").unwrap().to_string(), "unix:/a b/s.sock");
    }

    /// A transport that swallows the request and replays a canned reply.
    struct Canned(io::Cursor<Vec<u8>>);

    impl io::Read for Canned {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.0.read(buf)
        }
    }

    impl io::Write for Canned {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_bad_stdout_length_is_a_protocol_error() {
        let req = Request {
            cmd: crate::proto::Command::Stats,
            image_name: String::new(),
            deadline_ms: None,
            profile_len: 0,
        };
        let mut reply = Vec::new();
        let json = spike_core::json::Json::parse(r#"{"exit":0,"stdout_bytes":9}"#).unwrap();
        write_frame(&mut reply, &json, b"short").unwrap();
        match round_trip(Canned(io::Cursor::new(reply)), &req, &[]) {
            Err(ClientError::Protocol(m)) => assert!(m.contains("stdout_bytes 9"), "{m}"),
            other => panic!("expected a protocol error, got {other:?}"),
        }
    }

    #[test]
    fn connect_failure_is_reported_as_connect() {
        // Port 1 on localhost is essentially never listening.
        let ep = Endpoint::Tcp("127.0.0.1:1".to_string());
        let req = Request {
            cmd: crate::proto::Command::Stats,
            image_name: String::new(),
            deadline_ms: None,
            profile_len: 0,
        };
        match request(&ep, &req, &[]) {
            Err(ClientError::Connect(_)) => {}
            other => panic!("expected Connect error, got {other:?}"),
        }
    }
}
