//! Load generator for the daemon: opens thousands of concurrent
//! connections against one instance and measures per-request latency
//! percentiles.
//!
//! The run has two phases that match what the event-driven connection
//! core is built for:
//!
//! 1. **Open** — every connection is established up front, so the
//!    daemon holds all of them simultaneously (idle sockets parked in
//!    epoll, no thread each).
//! 2. **Drive** — a small pool of sender threads walks the open
//!    connections, sending one `analyze` request per connection
//!    (round-robin over a few pre-warmed images) and timing the full
//!    write-to-reply round trip.
//!
//! The daemon and the generator each hold one file descriptor per
//! connection, so a 10k-connection run wants the two in *separate
//! processes* — `spike loadgen` exists for exactly that.

use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use spike_core::json::Json;

use crate::proto::{read_frame, write_frame, FrameRead, Request, Response};

/// What to aim at and how hard. The request mix (the program images
/// cycled over) is supplied by the caller — the daemon crate does not
/// generate programs.
#[derive(Clone, Debug)]
pub struct LoadgenOptions {
    /// Daemon TCP address (`host:port`).
    pub connect: String,
    /// Concurrent connections to hold open (one request each).
    pub connections: usize,
    /// Sender threads draining the open connections.
    pub inflight: usize,
}

impl Default for LoadgenOptions {
    fn default() -> LoadgenOptions {
        LoadgenOptions { connect: String::new(), connections: 10_000, inflight: 32 }
    }
}

/// What a run measured.
#[derive(Clone, Debug, Default)]
pub struct LoadgenReport {
    /// Connections successfully opened (and therefore requests sent).
    pub connections: usize,
    /// Requests answered with exit 0.
    pub ok: usize,
    /// Requests that failed (daemon error, protocol error, connect
    /// failure).
    pub errors: usize,
    /// Wall time to open every connection.
    pub open_ms: u128,
    /// Wall time to drive one request over every connection.
    pub drive_ms: u128,
    /// Requests per second over the drive phase.
    pub rps: f64,
    /// Round-trip latency percentiles, microseconds.
    pub p50_us: u64,
    /// 95th percentile, microseconds.
    pub p95_us: u64,
    /// 99th percentile, microseconds.
    pub p99_us: u64,
    /// Slowest request, microseconds.
    pub max_us: u64,
}

impl LoadgenReport {
    /// The report as JSON, the shape `spike loadgen` prints.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            [
                ("connections", Json::from(self.connections)),
                ("ok", Json::from(self.ok)),
                ("errors", Json::from(self.errors)),
                ("open_ms", Json::Int(self.open_ms as i64)),
                ("drive_ms", Json::Int(self.drive_ms as i64)),
                ("rps", Json::Float((self.rps * 1000.0).round() / 1000.0)),
                ("p50_us", Json::Int(self.p50_us as i64)),
                ("p95_us", Json::Int(self.p95_us as i64)),
                ("p99_us", Json::Int(self.p99_us as i64)),
                ("max_us", Json::Int(self.max_us as i64)),
            ]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
        )
    }
}

fn percentile(sorted: &[u64], pct: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[(sorted.len() - 1) * pct / 100]
}

fn analyze_request(name: &str) -> Request {
    Request {
        cmd: crate::proto::Command::Analyze { summaries: false, routine: None },
        image_name: name.to_string(),
        deadline_ms: None,
        profile_len: 0,
    }
}

/// One timed round trip over an already-open connection.
fn round_trip(stream: &mut TcpStream, json: &Json, image: &[u8]) -> Result<u64, String> {
    let t = Instant::now();
    write_frame(stream, json, image).map_err(|e| format!("send: {e}"))?;
    match read_frame(stream, 256 << 20) {
        Ok(FrameRead::Frame(reply, blob)) => {
            let elapsed = t.elapsed().as_micros() as u64;
            let (response, _) =
                Response::from_frame(&reply, blob).map_err(|e| format!("reply: {e}"))?;
            match response.error {
                None => Ok(elapsed),
                Some((kind, message)) => {
                    Err(format!("daemon refused ({}): {message}", kind.name()))
                }
            }
        }
        Ok(FrameRead::Eof) => Err("daemon closed without replying".to_string()),
        Err(e) => Err(format!("reply: {e}")),
    }
}

/// Runs one load generation pass against a live daemon, cycling the
/// request stream over `images` (each is pre-warmed before timing).
///
/// # Errors
///
/// Fails when no images are given, the daemon is unreachable, or a
/// warm-up request is refused; individual drive-phase failures are
/// *counted*, not fatal.
pub fn run(options: &LoadgenOptions, images: &[Vec<u8>]) -> Result<LoadgenReport, String> {
    if images.is_empty() {
        return Err("loadgen needs at least one image".to_string());
    }
    let requests: Vec<Json> =
        (0..images.len()).map(|i| analyze_request(&format!("load{i}")).to_json()).collect();

    // Warm every image once so the drive phase measures the serving
    // path (cache hit + render + wire), not N analyses of one image
    // serialized behind the single-flight lock.
    for (i, image) in images.iter().enumerate() {
        let mut stream = TcpStream::connect(&options.connect)
            .map_err(|e| format!("cannot connect to {}: {e}", options.connect))?;
        prepare(&stream)?;
        round_trip(&mut stream, &requests[i], image).map_err(|e| format!("warm-up: {e}"))?;
    }

    // Phase 1: open every connection before sending anything. The
    // daemon now holds `connections` concurrent sockets.
    let t_open = Instant::now();
    let mut conns = Vec::with_capacity(options.connections);
    let mut errors = 0usize;
    for i in 0..options.connections {
        match connect_with_retry(&options.connect) {
            Ok(stream) => conns.push((i, stream)),
            Err(_) => errors += 1,
        }
    }
    let open_ms = t_open.elapsed().as_millis();
    let connections = conns.len();

    // Phase 2: drain them from a bounded sender pool, one request per
    // connection, timing each round trip.
    let work = Mutex::new(conns);
    let results = Mutex::new(Vec::with_capacity(connections));
    let t_drive = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..options.inflight.max(1) {
            scope.spawn(|| loop {
                let Some((i, mut stream)) = work.lock().unwrap().pop() else { break };
                let which = i % images.len();
                let outcome = round_trip(&mut stream, &requests[which], &images[which]);
                results.lock().unwrap().push(outcome);
            });
        }
    });
    let drive_ms = t_drive.elapsed().as_millis();

    let mut latencies = Vec::with_capacity(connections);
    for outcome in results.into_inner().unwrap() {
        match outcome {
            Ok(us) => latencies.push(us),
            Err(_) => errors += 1,
        }
    }
    latencies.sort_unstable();
    let ok = latencies.len();
    Ok(LoadgenReport {
        connections,
        ok,
        errors,
        open_ms,
        drive_ms,
        rps: ok as f64 / (drive_ms.max(1) as f64 / 1000.0),
        p50_us: percentile(&latencies, 50),
        p95_us: percentile(&latencies, 95),
        p99_us: percentile(&latencies, 99),
        max_us: latencies.last().copied().unwrap_or(0),
    })
}

fn prepare(stream: &TcpStream) -> Result<(), String> {
    let t = Some(Duration::from_secs(600));
    stream.set_read_timeout(t).map_err(|e| e.to_string())?;
    stream.set_write_timeout(t).map_err(|e| e.to_string())
}

/// Connects with a few short retries: under a mass-open the listener
/// backlog can momentarily fill while the reactor drains it.
fn connect_with_retry(addr: &str) -> Result<TcpStream, String> {
    let mut last = String::new();
    for attempt in 0..5 {
        match TcpStream::connect(addr) {
            Ok(stream) => {
                prepare(&stream)?;
                return Ok(stream);
            }
            Err(e) => {
                last = e.to_string();
                std::thread::sleep(Duration::from_millis(1 << attempt));
            }
        }
    }
    Err(format!("cannot connect to {addr}: {last}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{ServeOptions, Server};

    #[test]
    fn percentiles_index_the_sorted_samples() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 50), 50);
        assert_eq!(percentile(&sorted, 95), 95);
        assert_eq!(percentile(&sorted, 99), 99);
        assert_eq!(percentile(&[], 50), 0);
        assert_eq!(percentile(&[7], 99), 7);
    }

    #[test]
    fn a_small_run_measures_every_connection() {
        let server = Server::start(&ServeOptions {
            tcp: Some("127.0.0.1:0".into()),
            ..ServeOptions::default()
        })
        .expect("daemon starts");
        let options = LoadgenOptions {
            connect: server.tcp_addr().expect("tcp bound").to_string(),
            connections: 64,
            inflight: 8,
        };
        let images: Vec<Vec<u8>> =
            (0..2).map(|i| spike_synth::generate_executable(0x10AD ^ i, 4).to_image()).collect();
        let report = run(&options, &images).expect("loadgen runs");
        assert_eq!(report.connections, 64);
        assert_eq!(report.ok, 64, "{report:?}");
        assert_eq!(report.errors, 0, "{report:?}");
        assert!(report.p50_us <= report.p95_us && report.p95_us <= report.p99_us);
        assert!(report.max_us > 0);
        let json = report.to_json();
        for key in ["connections", "ok", "errors", "rps", "p50_us", "p95_us", "p99_us"] {
            assert!(json.get(key).is_some(), "loadgen JSON must carry {key}");
        }
        server.shutdown();
        server.join();
    }
}
