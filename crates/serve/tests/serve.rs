//! End-to-end tests against a live in-process daemon: byte-identity
//! under concurrency, cache eviction and re-warming, the incremental
//! path, and the robustness rejections (deadline, oversized frames,
//! garbage JSON).

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::thread;

use spike_core::json::Json;
use spike_core::AnalysisOptions;
use spike_isa::Reg;
use spike_program::{Program, ProgramBuilder, Rewriter};
use spike_serve::proto::{read_frame, FrameError, FrameRead};
use spike_serve::render;
use spike_serve::{
    client, Command, Endpoint, ErrorKind, LintFormat, Request, Response, Ring, ServeOptions, Server,
};

/// Starts a daemon on an ephemeral TCP port and returns it with its
/// client endpoint.
fn start(mutate: impl FnOnce(&mut ServeOptions)) -> (Server, Endpoint) {
    let mut options = ServeOptions { tcp: Some("127.0.0.1:0".into()), ..ServeOptions::default() };
    mutate(&mut options);
    let server = Server::start(&options).expect("daemon starts");
    let addr = server.tcp_addr().expect("tcp listener bound");
    (server, Endpoint::Tcp(addr.to_string()))
}

fn req(cmd: Command, image_name: &str) -> Request {
    Request { cmd, image_name: image_name.to_string(), deadline_ms: None, profile_len: 0 }
}

fn send(endpoint: &Endpoint, request: &Request, image: &[u8]) -> Response {
    client::request(endpoint, request, image).expect("round trip").0
}

/// Sends `shutdown` and waits for the daemon to drain.
fn stop(server: Server, endpoint: &Endpoint) {
    let r = send(endpoint, &req(Command::Shutdown, ""), &[]);
    assert_eq!(r.exit, 0, "{:?}", r.error);
    server.join();
}

fn stats(endpoint: &Endpoint) -> Json {
    let r = send(endpoint, &req(Command::Stats, ""), &[]);
    assert_eq!(r.exit, 0, "{:?}", r.error);
    Json::parse(&r.stdout).expect("stats is valid JSON")
}

fn counter(stats: &Json, group: &str, name: &str) -> u64 {
    stats.get(group).and_then(|g| g.get(name)).and_then(Json::as_u64).unwrap()
}

/// A program with one hub routine and `leaves` callees, so a one-leaf
/// edit dirties a small fraction of the routine set.
fn fanout_program(leaves: usize) -> Program {
    let mut b = ProgramBuilder::new();
    let names: Vec<String> = (0..leaves).map(|i| format!("leaf{i}")).collect();
    let main = b.routine("main");
    main.def(Reg::A0);
    for name in &names {
        main.call(name);
    }
    main.halt();
    for name in &names {
        b.routine(name).def(Reg::T0).def(Reg::V0).ret();
    }
    b.build().unwrap()
}

#[test]
fn concurrent_mixed_requests_return_byte_identical_reports() {
    let images: Vec<(String, Vec<u8>)> = (0..2)
        .map(|i| {
            let program = spike_synth::generate_executable(11 + i, 12);
            (format!("img{i}"), program.to_image())
        })
        .collect();

    // The expected bytes come straight from the library path the local
    // CLI uses, not from a first daemon round-trip: this pins the daemon
    // to the local CLI's output, not merely to itself.
    let expected: Vec<(String, String)> = images
        .iter()
        .map(|(name, image)| {
            let program = Program::from_image(image).unwrap();
            let analysis = spike_core::analyze_with(&program, &AnalysisOptions::default());
            let analyze = render::analyze_report(name, &program, &analysis, false, None).unwrap();
            let report =
                spike_lint::lint_with(&program, &analysis, &spike_lint::LintOptions::default());
            let lint = render::lint_report(name, &report, LintFormat::Json);
            (analyze, lint)
        })
        .collect();

    let (server, endpoint) = start(|o| o.workers = 4);
    let images = Arc::new(images);
    let expected = Arc::new(expected);
    let mut handles = Vec::new();
    for t in 0..8 {
        let endpoint = endpoint.clone();
        let images = Arc::clone(&images);
        let expected = Arc::clone(&expected);
        handles.push(thread::spawn(move || {
            for round in 0..2 {
                let which = (t + round) % images.len();
                let (name, image) = &images[which];
                let (want_analyze, want_lint) = &expected[which];
                let cmd = if t % 2 == 0 {
                    Command::Analyze { summaries: false, routine: None }
                } else {
                    Command::Lint { format: LintFormat::Json }
                };
                let r = send(&endpoint, &req(cmd, name), image);
                assert_eq!(r.exit, 0, "{:?}", r.error);
                let want = if t % 2 == 0 { want_analyze } else { want_lint };
                assert_eq!(&r.stdout, want, "thread {t} round {round} diverged");
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    let s = stats(&endpoint);
    assert!(counter(&s, "cache", "hits") >= 1, "repeat submissions must warm-hit: {s}");
    assert_eq!(counter(&s, "cache", "entries"), 2);
    assert_eq!(counter(&s, "requests", "total"), 17, "16 work requests + this stats call");
    stop(server, &endpoint);
}

#[test]
fn evicted_entries_rewarm_as_cold_misses() {
    // A one-byte budget keeps exactly one entry, so every new image
    // evicts the previous one.
    let (server, endpoint) = start(|o| o.cache_bytes = 1);
    let images: Vec<Vec<u8>> =
        (0..3).map(|i| spike_synth::generate_executable(31 + i, 6).to_image()).collect();
    let analyze = || Command::Analyze { summaries: false, routine: None };
    for (i, image) in images.iter().enumerate() {
        let r = send(&endpoint, &req(analyze(), &format!("img{i}")), image);
        assert_eq!(r.exit, 0, "{:?}", r.error);
        assert!(r.diag.contains("cache: miss"), "{}", r.diag);
    }
    let s = stats(&endpoint);
    assert_eq!(counter(&s, "cache", "entries"), 1);
    assert!(counter(&s, "cache", "evictions") >= 2, "{s}");

    // The survivor is the last image; the first was evicted and must be
    // analyzed again from scratch, after which it hits.
    let r = send(&endpoint, &req(analyze(), "img2"), &images[2]);
    assert!(r.diag.contains("cache: hit"), "{}", r.diag);
    let r = send(&endpoint, &req(analyze(), "img0"), &images[0]);
    assert!(r.diag.contains("cache: miss"), "{}", r.diag);
    let r = send(&endpoint, &req(analyze(), "img0"), &images[0]);
    assert!(r.diag.contains("cache: hit"), "{}", r.diag);
    stop(server, &endpoint);
}

#[test]
fn small_edits_take_the_incremental_path() {
    let base = fanout_program(10);
    let victim = base.routine_by_name("leaf5").unwrap();
    let (edited, _) = Rewriter::new(&base).delete(base.routine(victim).addr()).finish().unwrap();

    let (server, endpoint) = start(|_| {});
    let analyze = Command::Analyze { summaries: false, routine: None };
    let r = send(&endpoint, &req(analyze.clone(), "base"), &base.to_image());
    assert!(r.diag.contains("cache: miss\n"), "{}", r.diag);
    let r = send(&endpoint, &req(analyze, "edited"), &edited.to_image());
    assert_eq!(r.exit, 0, "{:?}", r.error);
    assert!(
        r.diag.contains("cache: incremental-miss"),
        "a one-routine edit should reanalyze incrementally: {}",
        r.diag
    );
    let s = stats(&endpoint);
    assert_eq!(counter(&s, "cache", "incremental_warm"), 1, "{s}");
    stop(server, &endpoint);
}

#[test]
fn an_in_place_edit_decodes_one_routine() {
    let base = fanout_program(10);
    let leaf = base.routine(base.routine_by_name("leaf5").unwrap());
    let constant = spike_isa::Instruction::Lda { rd: Reg::T0, base: Reg::ZERO, disp: 7 };
    let (edited, _) = Rewriter::new(&base).replace(leaf.addr(), constant).finish().unwrap();

    let (server, endpoint) = start(|_| {});
    let analyze = Command::Analyze { summaries: false, routine: None };
    send(&endpoint, &req(analyze.clone(), "base"), &base.to_image());
    let s = stats(&endpoint);
    assert_eq!(counter(&s, "cache", "routines_decoded"), 11, "{s}");
    assert_eq!(counter(&s, "cache", "routines_shared"), 0, "{s}");

    let r = send(&endpoint, &req(analyze, "edited"), &edited.to_image());
    assert!(r.diag.contains("cache: incremental-miss"), "{}", r.diag);
    let analysis = spike_core::analyze_with(&edited, &AnalysisOptions::default());
    let expected = render::analyze_report("edited", &edited, &analysis, false, None).unwrap();
    assert_eq!(r.stdout, expected, "a shared entry must render as a scratch analysis");
    let s = stats(&endpoint);
    assert_eq!(counter(&s, "cache", "routines_decoded"), 12, "only the edited leaf: {s}");
    assert_eq!(counter(&s, "cache", "routines_shared"), 10, "{s}");
    assert_eq!(counter(&s, "cache", "key_collisions"), 0, "{s}");
    stop(server, &endpoint);
}

#[test]
fn expired_deadlines_are_refused() {
    let (server, endpoint) = start(|_| {});
    let image = fanout_program(3).to_image();
    let request = Request {
        cmd: Command::Analyze { summaries: false, routine: None },
        image_name: "img".into(),
        deadline_ms: Some(0),
        profile_len: 0,
    };
    let (r, _) = client::request(&endpoint, &request, &image).unwrap();
    assert_eq!(r.exit, 2);
    let (kind, _) = r.error.expect("structured error");
    assert_eq!(kind, ErrorKind::Deadline);
    let s = stats(&endpoint);
    assert_eq!(counter(&s, "rejected", "deadline"), 1);
    stop(server, &endpoint);
}

#[test]
fn oversized_and_garbage_frames_get_structured_refusals() {
    let (server, endpoint) = start(|o| o.max_frame_bytes = 4096);
    assert_refusals(&endpoint);
    stop(server, &endpoint);

    // A routing front refuses them the same way and counts them itself.
    let shards = reserve_addrs(1);
    let shard = start_shard(&shards, 0);
    let (front, endpoint) = start(|o| {
        o.max_frame_bytes = 4096;
        o.cluster = shards.clone();
    });
    assert_refusals(&endpoint);
    stop(front, &endpoint);
    shard.join();

    // Sanity: the raw TooLarge error our client would see on a response
    // that large names both numbers.
    let e = FrameError::TooLarge { announced: 9, limit: 8 };
    assert!(format!("{e}").contains('9'));
}

/// Sends `endpoint` (capped at 4096-byte frames) one oversized header and
/// one frame of garbage JSON, and checks each gets its structured
/// refusal and is counted.
fn assert_refusals(endpoint: &Endpoint) {
    let addr = match endpoint {
        Endpoint::Tcp(a) => a.clone(),
        Endpoint::Unix(_) => unreachable!(),
    };

    // A header announcing more bytes than the daemon will accept is
    // refused from the header alone, before any body is transferred.
    let mut stream = TcpStream::connect(&addr).unwrap();
    let mut header = Vec::new();
    header.extend_from_slice(&8u32.to_be_bytes());
    header.extend_from_slice(&(1u32 << 30).to_be_bytes());
    stream.write_all(&header).unwrap();
    stream.flush().unwrap();
    match read_frame(&mut stream, usize::MAX).expect("refusal frame") {
        FrameRead::Frame(json, _) => {
            assert_eq!(
                json.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str),
                Some("too-large"),
                "{json}"
            );
        }
        FrameRead::Eof => panic!("connection closed without a refusal"),
    }

    // A well-sized frame whose JSON does not parse is a bad-request.
    let mut stream = TcpStream::connect(&addr).unwrap();
    let body = b"this is not json";
    let mut frame = Vec::new();
    frame.extend_from_slice(&(body.len() as u32).to_be_bytes());
    frame.extend_from_slice(&0u32.to_be_bytes());
    frame.extend_from_slice(body);
    stream.write_all(&frame).unwrap();
    match read_frame(&mut stream, usize::MAX).expect("refusal frame") {
        FrameRead::Frame(json, _) => {
            assert_eq!(
                json.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str),
                Some("bad-request"),
                "{json}"
            );
        }
        FrameRead::Eof => panic!("connection closed without a refusal"),
    }

    let s = stats(endpoint);
    assert_eq!(counter(&s, "rejected", "oversized"), 1, "{s}");
    assert_eq!(counter(&s, "rejected", "bad_request"), 1, "{s}");
}

#[test]
fn concurrent_submissions_of_one_image_coalesce_to_a_single_analysis() {
    let (server, endpoint) = start(|o| o.workers = 4);
    let image = Arc::new(spike_synth::generate_executable(47, 16).to_image());
    let mut handles = Vec::new();
    for _ in 0..4 {
        let endpoint = endpoint.clone();
        let image = Arc::clone(&image);
        handles.push(thread::spawn(move || {
            let cmd = Command::Analyze { summaries: false, routine: None };
            let r = send(&endpoint, &req(cmd, "img"), &image);
            assert_eq!(r.exit, 0, "{:?}", r.error);
            r.stdout
        }));
    }
    let outputs: Vec<String> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert!(outputs.windows(2).all(|w| w[0] == w[1]), "all callers see the same report");
    let s = stats(&endpoint);
    assert_eq!(counter(&s, "cache", "misses"), 1, "single-flight must dedupe the analysis: {s}");
    assert_eq!(counter(&s, "cache", "hits") + counter(&s, "cache", "coalesced"), 3, "{s}");
    stop(server, &endpoint);
}

#[test]
fn drain_snapshot_makes_a_plain_restart_start_warm() {
    let dir = std::env::temp_dir().join(format!("spike-serve-snap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("cache.snap");
    let analyze = || Command::Analyze { summaries: false, routine: None };

    let images: Vec<Vec<u8>> =
        (0..2).map(|i| spike_synth::generate_executable(61 + i, 8).to_image()).collect();
    let (server, endpoint) = start(|o| o.snapshot = Some(snap.clone()));
    assert!(server.restored().is_none(), "nothing to restore on the first boot");
    let first: Vec<String> = images
        .iter()
        .enumerate()
        .map(|(i, image)| {
            let r = send(&endpoint, &req(analyze(), &format!("img{i}")), image);
            assert_eq!(r.exit, 0, "{:?}", r.error);
            assert!(r.diag.contains("cache: miss"), "{}", r.diag);
            r.stdout
        })
        .collect();
    stop(server, &endpoint);
    assert!(snap.exists(), "graceful drain must write the final snapshot");

    // Same options, same snapshot path: the restart begins warm and
    // serves byte-identical reports without a single analysis.
    let (server, endpoint) = start(|o| o.snapshot = Some(snap.clone()));
    let report = server.restored().expect("snapshot restores");
    assert_eq!(report.entries, 2);
    for (i, image) in images.iter().enumerate() {
        let r = send(&endpoint, &req(analyze(), &format!("img{i}")), image);
        assert_eq!(r.exit, 0, "{:?}", r.error);
        assert!(r.diag.contains("cache: hit"), "restored entries must serve warm: {}", r.diag);
        assert_eq!(r.stdout, first[i], "restored analysis must render identically");
    }
    let s = stats(&endpoint);
    assert_eq!(counter(&s, "cache", "restored"), 2, "{s}");
    assert_eq!(counter(&s, "cache", "misses"), 0, "{s}");
    stop(server, &endpoint);

    // A corrupted snapshot file degrades to a cold start, not a panic.
    let mut bytes = std::fs::read(&snap).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x5A;
    std::fs::write(&snap, &bytes).unwrap();
    let (server, endpoint) = start(|o| o.snapshot = Some(snap.clone()));
    assert!(server.restored().is_none(), "corrupt snapshot must be rejected");
    let r = send(&endpoint, &req(analyze(), "img0"), &images[0]);
    assert_eq!(r.exit, 0, "{:?}", r.error);
    assert!(r.diag.contains("cache: miss"), "cold fallback: {}", r.diag);
    assert_eq!(r.stdout, first[0], "cold answers still match");
    stop(server, &endpoint);

    // So does a pristine snapshot of the previous format version (that
    // drain just rewrote the file): the header is refused before any
    // payload byte is decoded.
    let mut bytes = std::fs::read(&snap).unwrap();
    let version = spike_serve::snapshot::FORMAT_VERSION;
    bytes[8..12].copy_from_slice(&(version - 1).to_le_bytes());
    std::fs::write(&snap, &bytes).unwrap();
    let (server, endpoint) = start(|o| o.snapshot = Some(snap.clone()));
    assert!(server.restored().is_none(), "a previous-format snapshot must be refused");
    let r = send(&endpoint, &req(analyze(), "img0"), &images[0]);
    assert!(r.diag.contains("cache: miss"), "cold start: {}", r.diag);
    stop(server, &endpoint);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Starts shard `i` of the cluster `shards` on its own address.
fn start_shard(shards: &[String], i: usize) -> Server {
    Server::start(&ServeOptions {
        tcp: Some(shards[i].clone()),
        cluster: shards.to_vec(),
        shard_index: Some(i),
        ..ServeOptions::default()
    })
    .expect("shard starts")
}

/// Grabs `n` distinct ephemeral ports and frees them, so a cluster can
/// be configured with every member's address known up front.
fn reserve_addrs(n: usize) -> Vec<String> {
    let listeners: Vec<std::net::TcpListener> =
        (0..n).map(|_| std::net::TcpListener::bind("127.0.0.1:0").unwrap()).collect();
    listeners.iter().map(|l| l.local_addr().unwrap().to_string()).collect()
}

#[test]
fn cluster_routes_by_content_hash_and_forwards_misroutes() {
    let shards = reserve_addrs(3);
    let servers: Vec<Server> = (0..shards.len()).map(|i| start_shard(&shards, i)).collect();
    // The routing front is a daemon that owns no key.
    let (front, via_front) = start(|o| o.cluster = shards.clone());

    let images: Vec<(String, Vec<u8>)> = (0..6)
        .map(|i| {
            let program = spike_synth::generate_executable(71 + i, 6);
            (format!("img{i}"), program.to_image())
        })
        .collect();
    let ring = Ring::new(shards.clone());
    let owners: Vec<usize> = images.iter().map(|(_, image)| ring.owner_of(key_of(image))).collect();
    assert!(
        owners.iter().collect::<std::collections::HashSet<_>>().len() >= 2,
        "sample images should spread over shards: {owners:?}"
    );

    let analyze = || Command::Analyze { summaries: false, routine: None };
    for (name, image) in &images {
        // Through the front: the answer matches the local library path
        // byte for byte, whichever shard served it.
        let program = Program::from_image(image).unwrap();
        let analysis = spike_core::analyze_with(&program, &AnalysisOptions::default());
        let expected = render::analyze_report(name, &program, &analysis, false, None).unwrap();
        let r = send(&via_front, &req(analyze(), name), image);
        assert_eq!(r.exit, 0, "{:?}", r.error);
        assert_eq!(r.stdout, expected, "routed response must match the local path");
        assert!(r.diag.contains("cluster: forwarded to shard"), "{}", r.diag);

        // Straight at the wrong shard: forwarded to the owner, same
        // bytes, and the diagnostics say so.
        let owner = ring.owner_of(key_of(image));
        let wrong = (owner + 1) % shards.len();
        let r = send(&Endpoint::Tcp(shards[wrong].clone()), &req(analyze(), name), image);
        assert_eq!(r.exit, 0, "{:?}", r.error);
        assert_eq!(r.stdout, expected, "forwarded response must be byte-identical");
        assert!(r.diag.contains("cluster: forwarded to shard"), "{}", r.diag);
    }

    // Each shard's warm set is disjoint: the cluster analyzed each image
    // exactly once, on its owner, and holds exactly one copy.
    let mut total_entries = 0;
    let mut total_misses = 0;
    let mut total_forwarded = 0;
    for addr in &shards {
        let s = stats(&Endpoint::Tcp(addr.clone()));
        total_entries += counter(&s, "cache", "entries");
        total_misses += counter(&s, "cache", "misses");
        total_forwarded += s.get("forwarded").and_then(Json::as_u64).unwrap();
    }
    assert_eq!(total_entries, images.len() as u64, "one warm copy per image, cluster-wide");
    assert_eq!(total_misses, images.len() as u64, "each image analyzed exactly once");
    assert_eq!(total_forwarded, images.len() as u64, "every wrong-shard send was forwarded");

    // The front answers `stats` itself: it holds nothing and forwarded
    // every image.
    let s = stats(&via_front);
    assert_eq!(counter(&s, "cache", "entries"), 0, "{s}");
    assert_eq!(s.get("forwarded").and_then(Json::as_u64), Some(images.len() as u64), "{s}");

    // One shutdown through the front drains the whole cluster, the front
    // included: every `join` returns.
    let r = send(&via_front, &req(Command::Shutdown, ""), &[]);
    assert_eq!(r.exit, 0, "{:?}", r.error);
    front.join();
    for server in servers {
        server.join();
    }
}

#[test]
fn a_misrouted_lint_returns_the_local_report_bytes() {
    let shards = reserve_addrs(2);
    let servers: Vec<Server> = (0..shards.len()).map(|i| start_shard(&shards, i)).collect();
    let ring = Ring::new(shards.clone());
    // A profile image: its JSON report runs to many findings, with
    // quotes and backslashes the old wire format had to escape.
    let program = spike_synth::generate(&spike_synth::profiles()[0], 0.05, 3);
    let image = program.to_image();
    let analysis = spike_core::analyze_with(&program, &AnalysisOptions::default());
    let report = spike_lint::lint_with(&program, &analysis, &spike_lint::LintOptions::default());
    let wrong = (ring.owner_of(key_of(&image)) + 1) % shards.len();
    for format in [LintFormat::Json, LintFormat::Human] {
        let expected = render::lint_report("p\\\"q.img", &report, format);
        let r = send(
            &Endpoint::Tcp(shards[wrong].clone()),
            &req(Command::Lint { format }, "p\\\"q.img"),
            &image,
        );
        assert_eq!(r.error, None);
        assert_eq!(
            r.stdout.as_bytes(),
            expected.as_bytes(),
            "forwarded lint must be byte-identical"
        );
        assert!(r.diag.contains("cluster: forwarded to shard"), "{}", r.diag);
    }
    for (server, addr) in servers.into_iter().zip(&shards) {
        stop(server, &Endpoint::Tcp(addr.clone()));
    }
}

/// The image content hash, via the public serve API.
fn key_of(image: &[u8]) -> spike_serve::cache::CacheKey {
    spike_serve::cache::CacheKey::of(image)
}

#[test]
fn a_lint_with_witness_paths_and_notes_is_byte_identical_through_the_daemon() {
    // Findings whose text comes from the report's side and name tables:
    // an uninit read with a witness path and a missing-return-value note
    // naming a callee whose name needs escaping, a clobber demoted by an
    // unknown jump (its note), and an orphan with a control character.
    let mut b = ProgramBuilder::new();
    b.routine("main").call("g").call("f\"\\").use_reg(Reg::V0).halt();
    b.routine("f\"\\").def(Reg::T0).ret();
    b.routine("g")
        .def(Reg::T0)
        .cond(spike_isa::BranchCond::Eq, Reg::T0, "away")
        .def(Reg::S0)
        .ret()
        .label("away")
        .insn(spike_isa::Instruction::Jmp { base: Reg::T0 });
    b.routine("orphan\t\u{1}é").ret();
    let program = b.build().expect("valid program");
    let image = program.to_image();
    let analysis = spike_core::analyze_with(&program, &AnalysisOptions::default());
    let report = spike_lint::lint_with(&program, &analysis, &spike_lint::LintOptions::default());

    let (server, endpoint) = start(|_| {});
    for format in [LintFormat::Human, LintFormat::Json] {
        let expected = render::lint_report("n\"q.img", &report, format);
        let r = send(&endpoint, &req(Command::Lint { format }, "n\"q.img"), &image);
        assert_eq!(r.error, None);
        assert_eq!(r.exit, 1, "the uninit read is an error");
        assert_eq!(r.stdout.as_bytes(), expected.as_bytes(), "{format:?} report diverged");
    }
    let human = render::lint_report("n\"q.img", &report, LintFormat::Human);
    for part in [
        "(path: ",
        "note: return value expected from the call to f\"\\,",
        "note: demoted to a warning",
        "orphan\t\u{1}é",
    ] {
        assert!(human.contains(part), "missing {part:?} in:\n{human}");
    }
    stop(server, &endpoint);
}
