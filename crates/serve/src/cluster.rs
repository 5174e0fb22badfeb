//! Sharded cluster mode: consistent-hash request routing over image
//! content hashes.
//!
//! A cluster is N daemon instances ("shards"), each owning a disjoint
//! slice of the key space, so each shard's warm cache holds a disjoint
//! working set and the fleet's effective cache is the *sum* of the
//! shards' budgets instead of N copies of the same hot entries.
//!
//! Ownership is decided by a [`Ring`]: every shard contributes
//! [`VNODES`] points (FNV-1a of `"{addr}#{i}"`) to a shared hash
//! circle, and a key belongs to the shard owning the first point at or
//! after the key's position ([`CacheKey`] lane 0). The classic
//! consistent-hashing properties hold *exactly*, not just in
//! expectation, and are enforced by property tests:
//!
//! * removing a shard only moves the keys that shard owned;
//! * adding a shard only moves keys *to* the new shard;
//! * every other key keeps its owner.
//!
//! Three parties consult the ring, all computing identical ownership
//! because they hash identical bytes:
//!
//! * the [`Router`] — a thin stateless front that reads each request
//!   frame, hashes the image blob, and relays the frame to the owner;
//! * each shard — a request landing on the wrong shard (stale client
//!   config, mid-resize) is forwarded shard-to-shard to the owner and
//!   the owner's byte-identical response relayed back;
//! * `spike client --cluster` — computes ownership client-side and
//!   connects straight to the owner, no extra hop.
//!
//! Blob-less requests have no key: the router sends `stats` (and other
//! image-free commands) to shard 0, except `shutdown`, which broadcasts
//! to every shard so one command drains the whole cluster.

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use spike_core::json::Json;

use crate::cache::CacheKey;
use crate::client::{request, ClientError, Endpoint};
use crate::proto::{read_frame, write_frame, ErrorKind, FrameRead, Request, Response};

/// Virtual nodes per shard: enough that each shard's slice of the
/// circle is fragmented into many arcs, keeping per-shard load within a
/// few percent of uniform without weighting.
pub const VNODES: usize = 64;

/// Murmur3's 64-bit finalizer. FNV-1a mixes new bytes into the *low*
/// bits, so hashes of short, similar strings (vnode labels differ in a
/// few characters) cluster in their high bits — exactly the bits that
/// dominate ordering on the ring. The finalizer avalanches every input
/// bit across the whole word, making ring positions uniform.
fn mix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^= h >> 33;
    h
}

/// The consistent-hash circle over a cluster's shard addresses.
#[derive(Clone, Debug)]
pub struct Ring {
    shards: Vec<String>,
    /// `(point, shard index)`, sorted by point then index so ties (two
    /// vnode hashes colliding) resolve identically everywhere.
    points: Vec<(u64, u32)>,
}

impl Ring {
    /// Builds the ring for `shards` (their order defines shard
    /// indices).
    pub fn new(shards: Vec<String>) -> Ring {
        let mut points = Vec::with_capacity(shards.len() * VNODES);
        for (index, addr) in shards.iter().enumerate() {
            for i in 0..VNODES {
                points.push((
                    mix64(spike_isa::fnv64(format!("{addr}#{i}").as_bytes())),
                    index as u32,
                ));
            }
        }
        points.sort_unstable();
        Ring { shards, points }
    }

    /// The shard addresses, in index order.
    pub fn shards(&self) -> &[String] {
        &self.shards
    }

    /// The index of the shard owning `key`: the first ring point at or
    /// after the key's position, wrapping at the top.
    pub fn owner_of(&self, key: CacheKey) -> usize {
        let pos = mix64(key.lanes()[0]);
        let i = self.points.partition_point(|&(p, _)| p < pos);
        let (_, shard) = self.points[if i == self.points.len() { 0 } else { i }];
        shard as usize
    }

    /// The address of the shard owning `key`.
    pub fn owner_addr(&self, key: CacheKey) -> &str {
        &self.shards[self.owner_of(key)]
    }
}

/// Sends one request to the shard owning its image (computed
/// client-side over `shards`), avoiding the router hop entirely.
/// Blob-less requests go to shard 0. Ownership is keyed on the image
/// alone — `blob` may carry a profile after it (`req.profile_len`
/// trailing bytes), which must not perturb the shard choice.
///
/// # Errors
///
/// Connection and protocol failures, exactly like [`request`].
pub fn cluster_request(
    shards: &[String],
    req: &Request,
    blob: &[u8],
) -> Result<(Response, Vec<u8>), ClientError> {
    let ring = Ring::new(shards.to_vec());
    let image = &blob[..blob.len().saturating_sub(req.profile_len)];
    let addr = if image.is_empty() {
        ring.shards()[0].clone()
    } else {
        ring.owner_addr(CacheKey::of(image)).to_string()
    };
    request(&Endpoint::Tcp(addr), req, blob)
}

/// What this shard needs to know about its cluster: the ring plus its
/// own position in it. Carried by the request handler so misrouted
/// requests can be forwarded to their owner.
pub struct ShardIdentity {
    /// The cluster's ring.
    pub ring: Ring,
    /// This instance's index into [`Ring::shards`].
    pub index: usize,
}

impl ShardIdentity {
    /// `Some(owner index)` when `image` belongs to a *different* shard,
    /// `None` when this shard owns it (or there is no image to hash).
    pub fn misrouted(&self, image: &[u8]) -> Option<usize> {
        if image.is_empty() {
            return None;
        }
        let owner = self.ring.owner_of(CacheKey::of(image));
        (owner != self.index).then_some(owner)
    }
}

/// How the router front listens and where it forwards.
#[derive(Clone, Debug)]
pub struct RouterOptions {
    /// TCP listen address (`host:port`; port 0 binds ephemeral).
    pub listen: String,
    /// Shard addresses in index order.
    pub shards: Vec<String>,
    /// Maximum request frame size accepted from clients.
    pub max_frame_bytes: usize,
    /// Relay worker threads.
    pub workers: usize,
}

impl Default for RouterOptions {
    fn default() -> RouterOptions {
        RouterOptions {
            listen: String::new(),
            shards: Vec::new(),
            max_frame_bytes: 64 << 20,
            workers: 4,
        }
    }
}

/// A running router front. Shut down like the [`Server`](crate::Server):
/// [`shutdown`](Router::shutdown) then [`join`](Router::join).
pub struct Router {
    shutdown: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    addr: SocketAddr,
}

impl Router {
    /// Binds the listener and starts the accept and relay threads.
    ///
    /// # Errors
    ///
    /// Fails when no shards are configured or the bind fails.
    pub fn start(options: &RouterOptions) -> io::Result<Router> {
        if options.shards.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "router needs at least one shard address",
            ));
        }
        let listener = crate::server::bind_listener(&options.listen)?;
        let addr = listener.local_addr()?;
        let ring = Arc::new(Ring::new(options.shards.clone()));
        let shutdown = Arc::new(AtomicBool::new(false));
        let queue = Arc::new(RelayQueue::new(options.workers.max(1) * 16));
        let mut threads = Vec::new();

        {
            let shutdown = Arc::clone(&shutdown);
            let queue = Arc::clone(&queue);
            threads.push(
                thread::Builder::new()
                    .name("router-acceptor".into())
                    .spawn(move || {
                        while !shutdown.load(Ordering::SeqCst) {
                            match listener.accept() {
                                Ok((stream, _)) => {
                                    if let Err(mut refused) = queue.push(stream) {
                                        let resp = Response::error(
                                            ErrorKind::Busy,
                                            "router relay queue is full",
                                        );
                                        let _ = prepare(&refused);
                                        let _ = resp.send(&mut refused, &[]);
                                    }
                                }
                                Err(_) => thread::sleep(Duration::from_millis(5)),
                            }
                        }
                    })
                    .expect("spawn router acceptor"),
            );
        }
        for i in 0..options.workers.max(1) {
            let shutdown = Arc::clone(&shutdown);
            let queue = Arc::clone(&queue);
            let ring = Arc::clone(&ring);
            let max_frame_bytes = options.max_frame_bytes;
            threads.push(
                thread::Builder::new()
                    .name(format!("router-relay-{i}"))
                    .spawn(move || {
                        while let Some(stream) = queue.pop(&shutdown) {
                            relay(stream, &ring, max_frame_bytes);
                        }
                    })
                    .expect("spawn router relay"),
            );
        }
        Ok(Router { shutdown, threads, addr })
    }

    /// The bound listen address (the way to learn an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown; acceptor and relays exit after draining.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the acceptor parked in `accept`.
        let mut addr = self.addr;
        if addr.ip().is_unspecified() {
            addr.set_ip(match addr {
                SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(100));
    }

    /// Waits for the acceptor and every relay in flight to finish.
    pub fn join(mut self) {
        self.shutdown();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    /// Serves until SIGTERM (see
    /// [`install_sigterm_handler`](crate::server::install_sigterm_handler))
    /// or [`shutdown`](Router::shutdown) from another thread, then joins.
    /// This is the `spike route` foreground path.
    pub fn run_to_completion(self) {
        while !self.shutdown.load(Ordering::SeqCst) && !crate::server::sigterm_requested() {
            thread::sleep(Duration::from_millis(250));
        }
        self.join();
    }
}

/// The router's bounded accept-to-relay handoff (same shape as the
/// daemon's queue, but over raw TCP streams).
struct RelayQueue {
    inner: std::sync::Mutex<std::collections::VecDeque<TcpStream>>,
    ready: std::sync::Condvar,
    capacity: usize,
}

impl RelayQueue {
    fn new(capacity: usize) -> RelayQueue {
        RelayQueue {
            inner: std::sync::Mutex::new(std::collections::VecDeque::new()),
            ready: std::sync::Condvar::new(),
            capacity,
        }
    }

    fn push(&self, stream: TcpStream) -> Result<(), TcpStream> {
        let mut q = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if q.len() >= self.capacity {
            return Err(stream);
        }
        q.push_back(stream);
        drop(q);
        self.ready.notify_one();
        Ok(())
    }

    fn pop(&self, shutdown: &AtomicBool) -> Option<TcpStream> {
        let mut q = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            if let Some(stream) = q.pop_front() {
                return Some(stream);
            }
            if shutdown.load(Ordering::SeqCst) {
                return None;
            }
            let (guard, _) = self
                .ready
                .wait_timeout(q, Duration::from_millis(250))
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            q = guard;
        }
    }
}

fn prepare(stream: &TcpStream) -> io::Result<()> {
    let t = Some(Duration::from_secs(10));
    stream.set_read_timeout(t)?;
    stream.set_write_timeout(t)
}

/// Forwards one raw frame to `addr` and returns the shard's raw reply.
/// The frame travels verbatim — the router never re-encodes the JSON —
/// so the owner's response bytes are exactly what the client receives.
pub(crate) fn forward_frame(
    addr: &str,
    json: &Json,
    blob: &[u8],
) -> Result<(Json, Vec<u8>), String> {
    let mut upstream =
        TcpStream::connect(addr).map_err(|e| format!("shard {addr} unreachable: {e}"))?;
    // Shard-side work can legitimately take a while; this guards
    // against a dead shard, not a slow one.
    let t = Some(Duration::from_secs(600));
    upstream.set_read_timeout(t).map_err(|e| e.to_string())?;
    upstream.set_write_timeout(t).map_err(|e| e.to_string())?;
    write_frame(&mut upstream, json, blob).map_err(|e| format!("sending to shard {addr}: {e}"))?;
    match read_frame(&mut upstream, 256 << 20) {
        Ok(FrameRead::Frame(json, blob)) => Ok((json, blob)),
        Ok(FrameRead::Eof) => Err(format!("shard {addr} closed without replying")),
        Err(e) => Err(format!("reading from shard {addr}: {e}")),
    }
}

/// Handles one client connection: read the frame, pick the owner, relay.
fn relay(mut stream: TcpStream, ring: &Ring, max_frame_bytes: usize) {
    if prepare(&stream).is_err() {
        return;
    }
    let (json, blob) = match read_frame(&mut stream, max_frame_bytes) {
        Ok(FrameRead::Frame(json, blob)) => (json, blob),
        Ok(FrameRead::Eof) => return,
        Err(e) => {
            let resp = Response::error(ErrorKind::BadRequest, e.to_string());
            let _ = resp.send(&mut stream, &[]);
            return;
        }
    };
    let cmd = json.get("cmd").and_then(Json::as_str).unwrap_or("");
    if cmd == "shutdown" && blob.is_empty() {
        // One shutdown drains the whole cluster; the client sees the
        // last shard's acknowledgement (they are identical anyway).
        let mut last = Err("no shards".to_string());
        for addr in ring.shards() {
            last = forward_frame(addr, &json, &blob);
        }
        finish(&mut stream, last);
        return;
    }
    // Ownership is keyed on the image alone; a request may append a
    // profile blob after it (`profile_len` trailing bytes), which must
    // not perturb the shard choice.
    let profile_len = json.get("profile_len").and_then(Json::as_u64).unwrap_or(0) as usize;
    let image = &blob[..blob.len().saturating_sub(profile_len)];
    let addr =
        if image.is_empty() { &ring.shards()[0] } else { ring.owner_addr(CacheKey::of(image)) };
    finish(&mut stream, forward_frame(addr, &json, &blob));
}

fn finish(stream: &mut TcpStream, result: Result<(Json, Vec<u8>), String>) {
    match result {
        Ok((json, blob)) => {
            let _ = write_frame(stream, &json, &blob);
        }
        Err(msg) => {
            let resp = Response::error(ErrorKind::Busy, msg);
            let _ = resp.send(stream, &[]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn addrs(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("127.0.0.1:{}", 9000 + i)).collect()
    }

    fn keys(n: u64) -> Vec<CacheKey> {
        (0..n).map(|i| CacheKey::of(format!("image-{i}").as_bytes())).collect()
    }

    #[test]
    fn ownership_is_total_and_deterministic() {
        let ring = Ring::new(addrs(3));
        let again = Ring::new(addrs(3));
        for key in keys(1000) {
            let owner = ring.owner_of(key);
            assert!(owner < 3);
            assert_eq!(owner, again.owner_of(key), "same shards => same ring => same owner");
        }
    }

    #[test]
    fn removing_a_shard_moves_only_its_keys() {
        let all = addrs(4);
        let ring = Ring::new(all.clone());
        // Drop the last shard. Keys it owned must move; every other
        // key must keep its owner (by address, since indices shift).
        let smaller = Ring::new(all[..3].to_vec());
        for key in keys(2000) {
            let before = ring.owner_addr(key).to_string();
            let after = smaller.owner_addr(key).to_string();
            if before == all[3] {
                assert_ne!(after, all[3], "removed shard cannot own anything");
            } else {
                assert_eq!(after, before, "keys of surviving shards must not move");
            }
        }
    }

    #[test]
    fn adding_a_shard_moves_keys_only_to_it() {
        let three = addrs(3);
        let mut four = three.clone();
        four.push("127.0.0.1:9100".to_string());
        let ring3 = Ring::new(three);
        let ring4 = Ring::new(four.clone());
        let mut moved = 0usize;
        let sample = keys(4000);
        for key in &sample {
            let before = ring3.owner_addr(*key).to_string();
            let after = ring4.owner_addr(*key).to_string();
            if after != before {
                assert_eq!(after, four[3], "a moved key may only move to the new shard");
                moved += 1;
            }
        }
        // ~K/N keys move (1/4 here). Allow a generous band: vnode
        // placement is hash-random, but 64 vnodes keep it near uniform.
        let expect = sample.len() / 4;
        assert!(
            moved > expect / 2 && moved < expect * 2,
            "moved {moved} of {} keys, expected about {expect}",
            sample.len()
        );
    }

    #[test]
    fn load_spreads_over_all_shards() {
        let ring = Ring::new(addrs(3));
        let mut per: HashMap<usize, usize> = HashMap::new();
        for key in keys(3000) {
            *per.entry(ring.owner_of(key)).or_default() += 1;
        }
        for shard in 0..3 {
            let n = per.get(&shard).copied().unwrap_or(0);
            assert!(n > 300, "shard {shard} owns only {n} of 3000 keys");
        }
    }

    #[test]
    fn misrouted_detects_ownership() {
        let ring = Ring::new(addrs(2));
        let image = b"some image bytes";
        let owner = ring.owner_of(CacheKey::of(image));
        let me = ShardIdentity { ring: ring.clone(), index: owner };
        assert_eq!(me.misrouted(image), None);
        assert_eq!(me.misrouted(&[]), None);
        let other = ShardIdentity { ring, index: 1 - owner };
        assert_eq!(other.misrouted(image), Some(owner));
    }
}
