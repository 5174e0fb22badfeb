//! The event-driven connection core (Linux only): one epoll-driven
//! thread owns every listener and every in-flight *read*, so thousands
//! of idle or slow clients cost a few buffer bytes each instead of a
//! parked worker thread.
//!
//! Division of labor:
//!
//! * The reactor accepts connections (nonblocking listeners), keeps each
//!   socket nonblocking, and incrementally assembles its one request
//!   frame across however many `EPOLLIN` wakeups it takes.
//! * A **complete** frame is unregistered from epoll and handed to the
//!   bounded worker queue as [`Work::Frame`]; the worker re-arms
//!   blocking I/O with timeouts, dispatches, and writes the reply. CPU
//!   work and response writes never run on the reactor thread.
//! * Backpressure is unchanged: a full queue gets an immediate `busy`
//!   reply, an oversized header a `too-large` reply, and malformed JSON
//!   a `bad-request` reply — all written by the reactor, which is safe
//!   because error replies are tiny (they fit a socket send buffer).
//!
//! The epoll syscalls are declared directly against libc (which std
//! already links), mirroring how the daemon installs its SIGTERM
//! handler: three calls do not justify a dependency.

use std::collections::HashMap;
use std::io::{self, Read};
use std::net::TcpListener;
use std::os::raw::c_int;
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

use spike_core::json::Json;

use crate::metrics::Metrics;
use crate::proto::{frame_lengths, parse_payload, ErrorKind, FrameError, Response, HEADER_LEN};
use crate::server::{Conn, Queue, Work};

/// A bound, not-yet-nonblocking listener handed over by the server.
pub(crate) enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl Listener {
    fn set_nonblocking(&self) -> io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(true),
            Listener::Unix(l) => l.set_nonblocking(true),
        }
    }

    fn fd(&self) -> c_int {
        match self {
            Listener::Tcp(l) => l.as_raw_fd(),
            Listener::Unix(l) => l.as_raw_fd(),
        }
    }

    fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
            Listener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
        }
    }
}

impl Conn {
    fn fd(&self) -> c_int {
        match self {
            Conn::Tcp(s) => s.as_raw_fd(),
            Conn::Unix(s) => s.as_raw_fd(),
        }
    }

    fn set_nonblocking(&self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_nonblocking(true),
            Conn::Unix(s) => s.set_nonblocking(true),
        }
    }
}

// glibc packs `struct epoll_event` on x86-64 (the kernel ABI there has
// no padding between the two fields); other architectures use natural
// alignment.
#[cfg(target_arch = "x86_64")]
#[repr(C, packed)]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}
#[cfg(not(target_arch = "x86_64"))]
#[repr(C)]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

const EPOLLIN: u32 = 0x001;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
}

/// RAII epoll instance.
struct Epoll {
    fd: c_int,
}

impl Epoll {
    fn new() -> io::Result<Epoll> {
        // 0x80000 = EPOLL_CLOEXEC, so child processes spawned elsewhere
        // in the host binary do not inherit the instance.
        let fd = unsafe { epoll_create1(0x8_0000) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    fn add(&self, fd: c_int, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events: EPOLLIN, data: token };
        if unsafe { epoll_ctl(self.fd, EPOLL_CTL_ADD, fd, &mut ev) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    fn del(&self, fd: c_int) {
        let mut ev = EpollEvent { events: 0, data: 0 };
        // Failure here means the fd is already gone; nothing to recover.
        unsafe { epoll_ctl(self.fd, EPOLL_CTL_DEL, fd, &mut ev) };
    }

    /// Waits up to `timeout_ms`, filling `events`; EINTR reads as "no
    /// events" so the caller just re-checks its flags and loops.
    fn wait(&self, events: &mut [EpollEvent], timeout_ms: c_int) -> usize {
        let n =
            unsafe { epoll_wait(self.fd, events.as_mut_ptr(), events.len() as c_int, timeout_ms) };
        if n < 0 {
            return 0;
        }
        n as usize
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        unsafe { close(self.fd) };
    }
}

/// A connection whose request frame is still being assembled.
struct Pending {
    conn: Conn,
    /// Raw bytes received so far: 8-byte header, then JSON, then blob.
    buf: Vec<u8>,
    /// The JSON and blob lengths, once the header is in.
    lengths: Option<(usize, usize)>,
}

/// What one readiness wakeup did to a pending connection.
enum Pump {
    /// Still waiting for more bytes.
    More,
    /// A full frame: decoded JSON plus blob.
    Done(Json, Vec<u8>),
    /// Peer went away (EOF or hard error); drop silently.
    Gone,
    /// Protocol failure to report before closing.
    Reject(FrameError),
}

impl Pending {
    /// Reads whatever the socket has, returning as soon as the frame
    /// completes, the peer blocks, or something is wrong.
    fn pump(&mut self, max_frame_bytes: usize) -> Pump {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if self.lengths.is_none() && self.buf.len() >= HEADER_LEN {
                let header = self.buf[..HEADER_LEN].try_into().expect("header bytes");
                match frame_lengths(header, max_frame_bytes) {
                    Ok(lengths) => self.lengths = Some(lengths),
                    Err(e) => return Pump::Reject(e),
                }
            }
            if let Some((json_len, blob_len)) = self.lengths {
                if self.buf.len() >= HEADER_LEN + json_len + blob_len {
                    let (json, rest) = self.buf[HEADER_LEN..].split_at(json_len);
                    return match parse_payload(json) {
                        Ok(json) => Pump::Done(json, rest[..blob_len].to_vec()),
                        Err(e) => Pump::Reject(e),
                    };
                }
            }
            match self.conn.read(&mut chunk) {
                Ok(0) => return Pump::Gone,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Pump::More,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return Pump::Gone,
            }
        }
    }
}

/// Writes a tiny error reply on the reactor thread and drops the
/// connection. The socket is flipped back to blocking with timeouts
/// first so a reply to a wedged peer cannot stall the event loop long.
fn reject(mut conn: Conn, kind: ErrorKind, msg: String) {
    if conn.prepare().is_ok() {
        let resp = Response::error(kind, msg);
        let _ = resp.send(&mut conn, &[]);
    }
}

/// Starts the reactor thread.
pub(crate) fn spawn_reactor(
    listeners: Vec<Listener>,
    shutdown: Arc<AtomicBool>,
    queue: Arc<Queue<Work>>,
    metrics: Arc<Metrics>,
    max_frame_bytes: usize,
) -> io::Result<JoinHandle<()>> {
    let epoll = Epoll::new()?;
    for (i, l) in listeners.iter().enumerate() {
        l.set_nonblocking()?;
        epoll.add(l.fd(), i as u64)?;
    }
    thread::Builder::new()
        .name("reactor".into())
        .spawn(move || run(epoll, listeners, &shutdown, &queue, &metrics, max_frame_bytes))
}

fn run(
    epoll: Epoll,
    listeners: Vec<Listener>,
    shutdown: &AtomicBool,
    queue: &Queue<Work>,
    metrics: &Metrics,
    max_frame_bytes: usize,
) {
    // Connection tokens start above the listener range and are keyed by
    // a monotonically increasing id, never reused, so a stale event for
    // a closed connection (possible within one wait batch) misses the
    // map instead of hitting an unrelated newcomer.
    let base = listeners.len() as u64;
    let mut next_token = base;
    let mut pending: HashMap<u64, Pending> = HashMap::new();
    let mut events = [EpollEvent { events: 0, data: 0 }; 256];

    while !shutdown.load(Ordering::SeqCst) && !crate::server::sigterm_requested() {
        let n = epoll.wait(&mut events, 250);
        for ev in &events[..n] {
            let token = ev.data;
            if token < base {
                // Listener readiness: accept everything available now.
                let listener = &listeners[token as usize];
                loop {
                    match listener.accept() {
                        Ok(conn) => {
                            if conn.set_nonblocking().is_err() {
                                continue;
                            }
                            let t = next_token;
                            next_token += 1;
                            if epoll.add(conn.fd(), t).is_ok() {
                                pending.insert(t, Pending { conn, buf: Vec::new(), lengths: None });
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        // Transient (peer reset mid-handshake) or fd
                        // exhaustion; either way there is nothing more
                        // to accept right now.
                        Err(_) => break,
                    }
                }
                continue;
            }
            let Some(mut p) = pending.remove(&token) else { continue };
            match p.pump(max_frame_bytes) {
                Pump::More => {
                    pending.insert(token, p);
                }
                Pump::Gone => {
                    epoll.del(p.conn.fd());
                }
                Pump::Reject(e @ FrameError::TooLarge { .. }) => {
                    epoll.del(p.conn.fd());
                    metrics.rejected_oversized.fetch_add(1, Ordering::Relaxed);
                    reject(p.conn, ErrorKind::TooLarge, e.to_string());
                }
                Pump::Reject(e) => {
                    epoll.del(p.conn.fd());
                    metrics.bad_requests.fetch_add(1, Ordering::Relaxed);
                    reject(p.conn, ErrorKind::BadRequest, e.to_string());
                }
                Pump::Done(json, blob) => {
                    epoll.del(p.conn.fd());
                    match queue.push(Work::Frame(p.conn, json, blob)) {
                        Ok(depth) => metrics.observe_queue_depth(depth),
                        Err(refused) => {
                            let Work::Frame(conn, _, _) = refused else { unreachable!() };
                            metrics.rejected_busy.fetch_add(1, Ordering::Relaxed);
                            reject(conn, ErrorKind::Busy, "work queue is full".into());
                        }
                    }
                }
            }
        }
    }
    // Drain: connections that never completed a frame are dropped
    // (their clients see EOF); completed frames are already queued and
    // the workers will answer them.
}
