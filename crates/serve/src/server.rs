//! The daemon runtime: listeners, a bounded work queue, a worker pool
//! with panic isolation, and graceful drain.
//!
//! Life of a request:
//!
//! 1. An acceptor thread (one per listener, blocking `accept`) accepts
//!    the connection. If the bounded queue is full, the acceptor itself
//!    writes a `busy` error frame and closes — explicit backpressure,
//!    never an unbounded backlog.
//! 2. A worker pops the connection, reads the request frame (size-capped,
//!    socket read/write timeouts armed), dispatches through
//!    [`Handler`] under `catch_unwind`, and
//!    writes the response frame. A panicking handler costs that request
//!    a `panic` error reply, not the daemon.
//! 3. `shutdown` (the command, [`Server::shutdown`], or SIGTERM in the
//!    daemon binary) flips one flag: acceptors stop accepting and exit,
//!    workers drain the queue, then everything joins and the Unix socket
//!    is unlinked. Requests already accepted are always answered.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use spike_core::json::Json;
use spike_core::AnalysisOptions;

use crate::cache::ProgramStore;
use crate::handler::{Deadline, Handler};
use crate::metrics::Metrics;
use crate::proto::{read_frame, ErrorKind, FrameError, FrameRead, Request, Response};
use crate::snapshot::{self, RestoreReport};

/// How the daemon listens, queues, and bounds work.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// TCP listen address (`host:port`), if any. Port 0 binds an
    /// ephemeral port; see [`Server::tcp_addr`].
    pub tcp: Option<String>,
    /// Unix socket path, if any. An existing socket file at the path is
    /// replaced.
    pub unix: Option<PathBuf>,
    /// Worker threads; 0 picks a small default from the machine size.
    pub workers: usize,
    /// Byte budget for the program/analysis cache.
    pub cache_bytes: usize,
    /// Bounded work-queue capacity; accepts beyond it are refused with a
    /// `busy` reply.
    pub queue_capacity: usize,
    /// Maximum request frame size (JSON + image blob) in bytes.
    pub max_frame_bytes: usize,
    /// Default per-request processing deadline (ms) when the request
    /// does not carry its own.
    pub default_deadline_ms: u64,
    /// `threads` knob passed into every analysis.
    pub analysis_threads: usize,
    /// Warm-cache snapshot file. When set, the daemon restores the cache
    /// from it at startup (falling back to cold on any mismatch or
    /// corruption) and writes a final snapshot after draining, so a
    /// plain restart starts warm.
    pub snapshot: Option<PathBuf>,
    /// Also write the snapshot every this many milliseconds while
    /// serving, so a crash loses at most one interval of warmth.
    /// Ignored without [`snapshot`](Self::snapshot).
    pub snapshot_interval_ms: Option<u64>,
    /// All shard addresses of the cluster this instance belongs to, in
    /// shard-index order. Empty means standalone (no ownership checks,
    /// no forwarding).
    pub cluster: Vec<String>,
    /// This instance's index into [`cluster`](Self::cluster). Required
    /// when `cluster` is non-empty.
    pub shard_index: Option<usize>,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            tcp: None,
            unix: None,
            workers: 0,
            cache_bytes: 256 << 20,
            queue_capacity: 64,
            max_frame_bytes: 64 << 20,
            default_deadline_ms: 300_000,
            analysis_threads: 0,
            snapshot: None,
            snapshot_interval_ms: None,
            cluster: Vec::new(),
            shard_index: None,
        }
    }
}

/// One accepted connection, transport-erased.
pub(crate) enum Conn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Conn {
    pub(crate) fn prepare(&mut self) -> io::Result<()> {
        // Workers want blocking I/O with timeouts so a stalled client
        // cannot pin a worker forever.
        let timeout = Some(Duration::from_secs(10));
        match self {
            Conn::Tcp(s) => {
                s.set_nonblocking(false)?;
                s.set_read_timeout(timeout)?;
                s.set_write_timeout(timeout)
            }
            #[cfg(unix)]
            Conn::Unix(s) => {
                s.set_nonblocking(false)?;
                s.set_read_timeout(timeout)?;
                s.set_write_timeout(timeout)
            }
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// One unit of work for the pool: either a raw accepted connection
/// (threaded acceptors — the worker reads the frame itself) or a frame
/// the reactor already read off a nonblocking socket (the worker only
/// dispatches and replies).
pub(crate) enum Work {
    Conn(Conn),
    Frame(Conn, Json, Vec<u8>),
}

/// The bounded handoff between acceptors (or the reactor) and workers.
pub(crate) struct Queue {
    inner: Mutex<VecDeque<Work>>,
    ready: Condvar,
    capacity: usize,
}

impl Queue {
    fn new(capacity: usize) -> Queue {
        Queue { inner: Mutex::new(VecDeque::new()), ready: Condvar::new(), capacity }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<Work>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueues unless full; reports the depth after the push.
    pub(crate) fn push(&self, work: Work) -> Result<usize, Work> {
        let mut q = self.lock();
        if q.len() >= self.capacity {
            return Err(work);
        }
        q.push_back(work);
        let depth = q.len();
        drop(q);
        self.ready.notify_one();
        Ok(depth)
    }

    /// Pops the next work item; `None` once `shutdown` is set and the
    /// queue is empty (the drain guarantee: accepted work is finished).
    fn pop(&self, shutdown: &AtomicBool) -> Option<Work> {
        let mut q = self.lock();
        loop {
            if let Some(work) = q.pop_front() {
                return Some(work);
            }
            if shutdown.load(Ordering::SeqCst) {
                return None;
            }
            let (guard, _) = self
                .ready
                .wait_timeout(q, Duration::from_millis(250))
                .unwrap_or_else(PoisonError::into_inner);
            q = guard;
        }
    }
}

/// Binds a TCP listener with a listen backlog of 1024. std's
/// `TcpListener::bind` listens with a backlog of 128, and a burst of
/// connections beyond it — the loadgen's open-everything phase, a
/// cluster router's fan-in — waits out SYN retransmits: opening 5 000
/// connections took about 30 times as long through it (EXPERIMENTS.md
/// "Cluster serving and connection scale").
/// `SO_REUSEADDR` is set as std sets it, so a restarted daemon or
/// cluster shard rebinds its fixed port despite lingering TIME_WAIT
/// sockets.
#[cfg(target_os = "linux")]
pub(crate) fn bind_listener(addr: &str) -> io::Result<TcpListener> {
    use std::net::ToSocketAddrs;
    use std::os::fd::FromRawFd;

    extern "C" {
        fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
        fn bind(fd: i32, addr: *const u8, len: u32) -> i32;
        fn listen(fd: i32, backlog: i32) -> i32;
        fn close(fd: i32) -> i32;
    }
    const AF_INET: i32 = 2;
    const AF_INET6: i32 = 10;
    const SOCK_STREAM: i32 = 1;
    const SOCK_CLOEXEC: i32 = 0x80000;
    const SOL_SOCKET: i32 = 1;
    const SO_REUSEADDR: i32 = 2;

    #[repr(C)]
    struct SockaddrIn {
        sin_family: u16,
        sin_port: u16,
        sin_addr: u32,
        sin_zero: [u8; 8],
    }
    #[repr(C)]
    struct SockaddrIn6 {
        sin6_family: u16,
        sin6_port: u16,
        sin6_flowinfo: u32,
        sin6_addr: [u8; 16],
        sin6_scope_id: u32,
    }

    let resolved = addr.to_socket_addrs()?.next().ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, format!("cannot resolve {addr}"))
    })?;
    let domain = if resolved.is_ipv4() { AF_INET } else { AF_INET6 };
    // SAFETY: plain syscalls on an owned fd; on any failure the fd is
    // closed before returning, on success it becomes a TcpListener.
    unsafe {
        let fd = socket(domain, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        let fail = |fd: i32| -> io::Error {
            let e = io::Error::last_os_error();
            close(fd);
            e
        };
        let one: i32 = 1;
        if setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, size_of::<i32>() as u32) < 0 {
            return Err(fail(fd));
        }
        let rc = match resolved {
            SocketAddr::V4(a) => {
                let sa = SockaddrIn {
                    sin_family: AF_INET as u16,
                    sin_port: a.port().to_be(),
                    sin_addr: u32::from_ne_bytes(a.ip().octets()),
                    sin_zero: [0; 8],
                };
                bind(fd, (&sa as *const SockaddrIn).cast(), size_of::<SockaddrIn>() as u32)
            }
            SocketAddr::V6(a) => {
                let sa = SockaddrIn6 {
                    sin6_family: AF_INET6 as u16,
                    sin6_port: a.port().to_be(),
                    sin6_flowinfo: a.flowinfo(),
                    sin6_addr: a.ip().octets(),
                    sin6_scope_id: a.scope_id(),
                };
                bind(fd, (&sa as *const SockaddrIn6).cast(), size_of::<SockaddrIn6>() as u32)
            }
        };
        if rc < 0 || listen(fd, 1024) < 0 {
            return Err(fail(fd));
        }
        Ok(TcpListener::from_raw_fd(fd))
    }
}

/// Off Linux, plain `bind` (the reactor is Linux-only anyway and tests
/// there use ephemeral ports).
#[cfg(not(target_os = "linux"))]
pub(crate) fn bind_listener(addr: &str) -> io::Result<TcpListener> {
    TcpListener::bind(addr)
}

/// SIGTERM flag, set by the handler installed with
/// [`install_sigterm_handler`].
static SIGTERM: AtomicBool = AtomicBool::new(false);

/// Whether SIGTERM has requested a drain; the reactor polls this
/// alongside the server's own shutdown flag.
pub(crate) fn sigterm_requested() -> bool {
    SIGTERM.load(Ordering::SeqCst)
}

/// Installs a SIGTERM handler that requests graceful drain (the accept
/// loops watch the flag). Call once, from a binary's `main`, before
/// starting the server; libraries and tests should use
/// [`Server::shutdown`] or the `shutdown` command instead.
#[cfg(unix)]
pub fn install_sigterm_handler() {
    extern "C" fn on_sigterm(_signum: std::os::raw::c_int) {
        SIGTERM.store(true, Ordering::SeqCst);
    }
    // std links libc but exposes no signal API; `signal(2)` is the one
    // call needed, declared here directly. SIG_ERR (usize::MAX) is
    // ignored: failing to install only costs graceful-on-SIGTERM.
    extern "C" {
        fn signal(signum: std::os::raw::c_int, handler: usize) -> usize;
    }
    const SIGTERM_NUM: std::os::raw::c_int = 15;
    unsafe {
        signal(SIGTERM_NUM, on_sigterm as *const () as usize);
    }
}

/// A running daemon. Dropping the handle does *not* stop it; call
/// [`shutdown`](Server::shutdown) then [`join`](Server::join).
pub struct Server {
    shutdown: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    tcp_addr: Option<SocketAddr>,
    unix_path: Option<PathBuf>,
    store: Arc<ProgramStore>,
    snapshot_path: Option<PathBuf>,
    restored: Option<RestoreReport>,
}

impl Server {
    /// Binds the configured listeners and starts the acceptor and worker
    /// threads.
    ///
    /// # Errors
    ///
    /// Fails when no listener is configured or a bind fails.
    pub fn start(options: &ServeOptions) -> io::Result<Server> {
        if options.tcp.is_none() && options.unix.is_none() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "serve needs --listen and/or --unix",
            ));
        }
        let analysis =
            AnalysisOptions { threads: options.analysis_threads, ..AnalysisOptions::default() };
        let cluster = if options.cluster.is_empty() {
            None
        } else {
            let index = options.shard_index.ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "cluster mode needs --shard-index to say which shard this is",
                )
            })?;
            if index >= options.cluster.len() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "shard index {index} is out of range for a {}-shard cluster",
                        options.cluster.len()
                    ),
                ));
            }
            Some(Arc::new(crate::cluster::ShardIdentity {
                ring: crate::cluster::Ring::new(options.cluster.clone()),
                index,
            }))
        };
        let store = Arc::new(ProgramStore::new(analysis, options.cache_bytes));
        let metrics = Arc::new(Metrics::default());
        let shutdown = Arc::new(AtomicBool::new(false));
        let queue = Arc::new(Queue::new(options.queue_capacity.max(1)));
        let mut threads = Vec::new();

        // Warm restart: try the snapshot before accepting anything, so
        // the first request already sees the restored entries. Every
        // failure mode degrades to a cold start.
        let restored = match &options.snapshot {
            Some(path) => match snapshot::restore(path, &store, store.options()) {
                Ok(report) => {
                    eprintln!(
                        "spike-served: restored {} cached analyses ({} bytes) from {} in {} ms",
                        report.entries,
                        report.bytes,
                        path.display(),
                        report.elapsed_ms,
                    );
                    Some(report)
                }
                Err(snapshot::SnapshotError::Io(e)) if e.kind() == io::ErrorKind::NotFound => None,
                Err(e) => {
                    eprintln!(
                        "spike-served: ignoring snapshot {}: {e}; starting cold",
                        path.display()
                    );
                    None
                }
            },
            None => None,
        };

        let tcp_listener = match &options.tcp {
            Some(addr) => Some(bind_listener(addr)?),
            None => None,
        };
        let tcp_addr = match &tcp_listener {
            Some(l) => Some(l.local_addr()?),
            None => None,
        };
        #[cfg(unix)]
        let unix_listener = match &options.unix {
            Some(path) => {
                // A stale socket file from a previous run blocks bind.
                let _ = std::fs::remove_file(path);
                Some(UnixListener::bind(path)?)
            }
            None => None,
        };
        #[cfg(unix)]
        let unix_path = options.unix.clone();
        #[cfg(not(unix))]
        let unix_path = {
            if options.unix.is_some() {
                return Err(io::Error::new(
                    io::ErrorKind::Unsupported,
                    "unix sockets are not available on this platform",
                ));
            }
            None
        };

        // On Linux the event-driven reactor (epoll) holds the connections,
        // so thousands of idle clients cost one thread plus a few bytes
        // each; elsewhere thread-per-connection acceptors do.
        if cfg!(target_os = "linux") {
            #[cfg(target_os = "linux")]
            {
                let mut listeners = Vec::new();
                if let Some(l) = tcp_listener {
                    listeners.push(crate::reactor::Listener::Tcp(l));
                }
                if let Some(l) = unix_listener {
                    listeners.push(crate::reactor::Listener::Unix(l));
                }
                threads.push(crate::reactor::spawn_reactor(
                    listeners,
                    Arc::clone(&shutdown),
                    Arc::clone(&queue),
                    Arc::clone(&metrics),
                    options.max_frame_bytes,
                )?);
            }
        } else {
            if let Some(listener) = tcp_listener {
                threads.push(spawn_acceptor(
                    "tcp-acceptor",
                    Arc::clone(&shutdown),
                    Arc::clone(&queue),
                    Arc::clone(&metrics),
                    move || listener.accept().map(|(s, _)| Conn::Tcp(s)),
                ));
            }
            #[cfg(unix)]
            if let Some(listener) = unix_listener {
                threads.push(spawn_acceptor(
                    "unix-acceptor",
                    Arc::clone(&shutdown),
                    Arc::clone(&queue),
                    Arc::clone(&metrics),
                    move || listener.accept().map(|(s, _)| Conn::Unix(s)),
                ));
            }
        }

        let workers = if options.workers == 0 {
            thread::available_parallelism().map(usize::from).unwrap_or(2).clamp(2, 8)
        } else {
            options.workers
        };
        for i in 0..workers {
            let handler = Handler {
                store: Arc::clone(&store),
                metrics: Arc::clone(&metrics),
                queue_capacity: options.queue_capacity.max(1),
                shutdown: Arc::clone(&shutdown),
                cluster: cluster.clone(),
            };
            let queue = Arc::clone(&queue);
            let shutdown = Arc::clone(&shutdown);
            let default_deadline_ms = options.default_deadline_ms;
            let max_frame_bytes = options.max_frame_bytes;
            threads.push(
                thread::Builder::new()
                    .name(format!("worker-{i}"))
                    .spawn(move || {
                        while let Some(work) = queue.pop(&shutdown) {
                            match work {
                                Work::Conn(conn) => serve_connection(
                                    conn,
                                    &handler,
                                    default_deadline_ms,
                                    max_frame_bytes,
                                ),
                                Work::Frame(conn, json, blob) => {
                                    serve_frame(conn, json, blob, &handler, default_deadline_ms);
                                }
                            }
                        }
                    })
                    .expect("spawn worker"),
            );
        }

        // The periodic snapshotter: bounds how much warmth a crash can
        // lose. The graceful paths (drain, SIGTERM) write their own
        // final snapshot in `join`.
        if let (Some(path), Some(interval_ms)) = (&options.snapshot, options.snapshot_interval_ms) {
            let path = path.clone();
            let store = Arc::clone(&store);
            let shutdown = Arc::clone(&shutdown);
            let interval = Duration::from_millis(interval_ms.max(1));
            threads.push(
                thread::Builder::new()
                    .name("snapshotter".into())
                    .spawn(move || {
                        let mut last = Instant::now();
                        while !shutdown.load(Ordering::SeqCst) && !SIGTERM.load(Ordering::SeqCst) {
                            thread::sleep(Duration::from_millis(100).min(interval));
                            if last.elapsed() < interval {
                                continue;
                            }
                            if let Err(e) = snapshot::write(&path, &store, store.options()) {
                                eprintln!(
                                    "spike-served: periodic snapshot to {} failed: {e}",
                                    path.display()
                                );
                            }
                            last = Instant::now();
                        }
                    })
                    .expect("spawn snapshotter"),
            );
        }

        Ok(Server {
            shutdown,
            threads,
            tcp_addr,
            unix_path,
            store,
            snapshot_path: options.snapshot.clone(),
            restored,
        })
    }

    /// The bound TCP address, if a TCP listener was configured — the way
    /// to learn the port after binding `:0`.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// What the startup snapshot restore installed, if a snapshot was
    /// configured, present, and valid.
    pub fn restored(&self) -> Option<RestoreReport> {
        self.restored
    }

    /// Whether a drain has been requested (by [`shutdown`](Self::shutdown),
    /// the `shutdown` command, or SIGTERM).
    pub fn draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || SIGTERM.load(Ordering::SeqCst)
    }

    /// Requests graceful drain.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.wake_acceptors();
    }

    /// Unblocks acceptors parked in `accept` so they re-check the
    /// shutdown flag now rather than at the next real client. The
    /// throwaway connections are accepted, queued, and drain as
    /// immediate-EOF requests.
    fn wake_acceptors(&self) {
        if let Some(mut addr) = self.tcp_addr {
            if addr.ip().is_unspecified() {
                addr.set_ip(match addr {
                    SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
                    SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
                });
            }
            let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(100));
        }
        #[cfg(unix)]
        if let Some(path) = &self.unix_path {
            let _ = UnixStream::connect(path);
        }
    }

    /// Waits for every acceptor and worker to finish, then removes the
    /// Unix socket file. Only returns once all accepted requests are
    /// answered.
    pub fn join(mut self) {
        // SIGTERM and the in-band shutdown command both funnel into the
        // same flag the threads watch.
        if SIGTERM.load(Ordering::SeqCst) {
            self.shutdown.store(true, Ordering::SeqCst);
        }
        // The in-band `shutdown` command sets the flag from a worker
        // without going through [`Server::shutdown`]; acceptors may
        // still be parked in `accept`.
        self.wake_acceptors();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        // Drain-time snapshot: every accepted request has been answered
        // and the workers are gone, so this captures the final warm
        // state. A plain restart pointed at the same file starts warm.
        if let Some(path) = &self.snapshot_path {
            match snapshot::write(path, &self.store, self.store.options()) {
                Ok((entries, bytes)) => eprintln!(
                    "spike-served: wrote snapshot of {entries} cached analyses ({bytes} bytes) to {}",
                    path.display()
                ),
                Err(e) => {
                    eprintln!("spike-served: final snapshot to {} failed: {e}", path.display());
                }
            }
        }
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
    }

    /// Blocks until a drain is requested, polling the shutdown and
    /// SIGTERM flags, then joins.
    pub fn run_to_completion(self) {
        while !self.draining() {
            thread::sleep(Duration::from_millis(25));
        }
        self.shutdown();
        self.join();
    }
}

fn spawn_acceptor(
    name: &str,
    shutdown: Arc<AtomicBool>,
    queue: Arc<Queue>,
    metrics: Arc<Metrics>,
    mut accept: impl FnMut() -> io::Result<Conn> + Send + 'static,
) -> JoinHandle<()> {
    thread::Builder::new()
        .name(name.to_string())
        .spawn(move || {
            while !shutdown.load(Ordering::SeqCst) && !SIGTERM.load(Ordering::SeqCst) {
                match accept() {
                    Ok(conn) => match queue.push(Work::Conn(conn)) {
                        Ok(depth) => metrics.observe_queue_depth(depth),
                        Err(refused) => {
                            let Work::Conn(mut refused) = refused else { unreachable!() };
                            metrics.rejected_busy.fetch_add(1, Ordering::Relaxed);
                            // Backpressure is explicit: the refused client
                            // gets a structured reply, not a hang.
                            if refused.prepare().is_ok() {
                                let resp = Response::error(ErrorKind::Busy, "work queue is full");
                                let _ = resp.send(&mut refused, &[]);
                            }
                        }
                    },
                    // Blocking accept only fails transiently (e.g. the
                    // peer reset before the handshake finished); back
                    // off briefly rather than spin on a persistent one.
                    Err(_) => thread::sleep(Duration::from_millis(5)),
                }
            }
        })
        .expect("spawn acceptor")
}

/// Reads one request from `conn`, serves it, writes one response.
fn serve_connection(
    mut conn: Conn,
    handler: &Handler,
    default_deadline_ms: u64,
    max_frame_bytes: usize,
) {
    if conn.prepare().is_err() {
        return;
    }
    let (json, blob) = match read_frame(&mut conn, max_frame_bytes) {
        Ok(FrameRead::Frame(json, blob)) => (json, blob),
        Ok(FrameRead::Eof) => return,
        Err(e @ FrameError::TooLarge { .. }) => {
            handler.metrics.rejected_oversized.fetch_add(1, Ordering::Relaxed);
            let resp = Response::error(ErrorKind::TooLarge, e.to_string());
            let _ = resp.send(&mut conn, &[]);
            return;
        }
        Err(e @ FrameError::BadJson(_)) => {
            handler.metrics.bad_requests.fetch_add(1, Ordering::Relaxed);
            let resp = Response::error(ErrorKind::BadRequest, e.to_string());
            let _ = resp.send(&mut conn, &[]);
            return;
        }
        Err(FrameError::Io(_)) => return,
    };
    dispatch(conn, json, blob, handler, default_deadline_ms);
}

/// Serves a frame the reactor already read: re-arms blocking I/O with
/// timeouts for the reply write, then dispatches like the threaded path.
pub(crate) fn serve_frame(
    mut conn: Conn,
    json: Json,
    blob: Vec<u8>,
    handler: &Handler,
    default_deadline_ms: u64,
) {
    if conn.prepare().is_err() {
        return;
    }
    dispatch(conn, json, blob, handler, default_deadline_ms);
}

/// The shared tail of both intake paths: decode the request, run it
/// under `catch_unwind`, record latency, write the reply.
fn dispatch(
    mut conn: Conn,
    json: Json,
    blob: Vec<u8>,
    handler: &Handler,
    default_deadline_ms: u64,
) {
    let request = match Request::from_json(&json) {
        Ok(r) => r,
        Err(msg) => {
            handler.metrics.bad_requests.fetch_add(1, Ordering::Relaxed);
            let resp = Response::error(ErrorKind::BadRequest, msg);
            let _ = resp.send(&mut conn, &[]);
            return;
        }
    };
    handler.metrics.count_request(request.cmd.name());

    let started = Instant::now();
    let deadline = Deadline::starting_now(request.deadline_ms.unwrap_or(default_deadline_ms));
    let outcome = catch_unwind(AssertUnwindSafe(|| handler.handle(&request, &blob, &deadline)));
    let (response, out_blob) = match outcome {
        Ok(x) => x,
        Err(panic) => {
            handler.metrics.panics.fetch_add(1, Ordering::Relaxed);
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "request handler panicked".to_string());
            (Response::error(ErrorKind::Panic, msg), Vec::new())
        }
    };
    handler.metrics.latency.record(started.elapsed());
    let _ = response.send(&mut conn, &out_blob);
}
