//! Per-request dispatch: turns a decoded [`Request`] plus its image blob
//! into a [`Response`], routing images through the warm
//! [`ProgramStore`].

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use spike_core::{AnalysisOptions, QueryStats};
use spike_program::Program;

use crate::cache::{CacheOutcome, ProgramStore};
use crate::metrics::Metrics;
use crate::proto::{Command, ErrorKind, QueryKind, Request, Response};
use crate::render;

/// A request's processing budget, measured on the monotonic clock from
/// the moment the daemon finished reading its frame.
pub struct Deadline {
    start: Instant,
    limit: Duration,
}

impl Deadline {
    /// Starts the clock with `limit_ms` to go. `0` is already expired.
    pub fn starting_now(limit_ms: u64) -> Deadline {
        Deadline { start: Instant::now(), limit: Duration::from_millis(limit_ms) }
    }

    /// Whether the budget is spent.
    pub fn expired(&self) -> bool {
        self.start.elapsed() >= self.limit
    }
}

/// The shared state a worker needs to serve one request.
pub struct Handler {
    /// The cross-request analysis cache.
    pub store: Arc<ProgramStore>,
    /// Daemon counters.
    pub metrics: Arc<Metrics>,
    /// Work-queue capacity, echoed in `stats`.
    pub queue_capacity: usize,
    /// Set by the `shutdown` command; the accept loops watch it.
    pub shutdown: Arc<AtomicBool>,
    /// Cluster membership, when this instance is one shard of a
    /// cluster or its routing front. Image-bearing requests owned by a
    /// different shard are forwarded there and the owner's reply
    /// relayed with identical stdout.
    pub cluster: Option<Arc<crate::cluster::ShardIdentity>>,
}

impl Handler {
    /// Serves one request. The frame blob is `image ++ profile` with the
    /// profile occupying the final `req.profile_len` bytes (zero for no
    /// profile). Returns the response and the response blob (non-empty
    /// only for `optimize`, which returns the rewritten image). Never
    /// panics outward for request-level failures — those become
    /// structured error responses; a genuine handler panic is the
    /// caller's `catch_unwind` problem.
    pub fn handle(&self, req: &Request, blob: &[u8], deadline: &Deadline) -> (Response, Vec<u8>) {
        if deadline.expired() {
            self.metrics.rejected_deadline.fetch_add(1, Ordering::Relaxed);
            return (Response::error(ErrorKind::Deadline, "deadline expired"), Vec::new());
        }
        let Some(image_len) = blob.len().checked_sub(req.profile_len) else {
            return (
                Response::error(
                    ErrorKind::BadRequest,
                    format!(
                        "profile_len {} exceeds the {}-byte frame blob",
                        req.profile_len,
                        blob.len()
                    ),
                ),
                Vec::new(),
            );
        };
        let (image, profile_bytes) = blob.split_at(image_len);
        // Misroute forwarding: a request for an image another shard owns
        // is relayed to the owner, whose renderers produce the same
        // bytes this shard would — the client cannot tell which shard
        // answered, except through the diagnostics. Ownership is keyed
        // on the image alone; the forwarded frame carries the full blob
        // so the owner sees the profile too. A routing front owns no
        // key, so every image-bearing request takes this path.
        if let Some(cluster) = &self.cluster {
            if let Some(owner) = cluster.misrouted(image) {
                self.metrics.forwarded.fetch_add(1, Ordering::Relaxed);
                let addr = &cluster.ring.shards()[owner];
                return match crate::cluster::forward(addr, req, blob) {
                    Ok((mut resp, blob)) => {
                        let _ = writeln!(resp.diag, "cluster: forwarded to shard {owner} ({addr})");
                        (resp, blob)
                    }
                    Err(msg) => (Response::error(ErrorKind::Busy, msg), Vec::new()),
                };
            }
        }
        // A profile blob must parse and must bind to *this* image; a
        // stale or corrupt profile is a clean structured error, exactly
        // like the local CLI's exit-2 message.
        let profile = if req.profile_len > 0 {
            match spike_profile::Profile::from_bytes(profile_bytes) {
                Ok(p) if !p.matches(image) => {
                    return (
                        Response::error(
                            ErrorKind::BadRequest,
                            "profile was collected from a different program image (stale profile)",
                        ),
                        Vec::new(),
                    );
                }
                Ok(p) => Some(p),
                Err(e) => {
                    return (
                        Response::error(ErrorKind::BadRequest, format!("bad profile blob: {e}")),
                        Vec::new(),
                    );
                }
            }
        } else {
            None
        };
        let (mut response, blob) = match &req.cmd {
            Command::Analyze { summaries, routine } => (
                self.analyze(req, image, profile.as_ref(), *summaries, routine.as_deref()),
                Vec::new(),
            ),
            Command::Lint { format } => (self.lint(req, image, *format), Vec::new()),
            Command::Optimize { out, iterate, incremental, licm } => {
                self.optimize(req, image, profile, out, *iterate, *incremental, *licm)
            }
            Command::Query { kind, routine, callee } => {
                (self.query(req, image, *kind, routine, callee.as_deref()), Vec::new())
            }
            Command::Compare => (self.compare(req, image), Vec::new()),
            Command::Stats => (self.stats(), Vec::new()),
            Command::Shutdown => {
                let mut diag = String::new();
                // One shutdown sent to a routing front drains the cluster
                // behind it: every shard is told before the front drains.
                if let Some(front) = self.cluster.as_deref().filter(|c| c.index.is_none()) {
                    for addr in front.ring.shards() {
                        let refused = match crate::cluster::forward(addr, req, &[]) {
                            Ok((resp, _)) => resp.error.map(|(_, msg)| msg),
                            Err(msg) => Some(msg),
                        };
                        if let Some(msg) = refused {
                            let _ = writeln!(diag, "cluster: shard {addr} did not drain: {msg}");
                        }
                    }
                }
                self.shutdown.store(true, Ordering::SeqCst);
                diag.push_str("draining; daemon exits when idle\n");
                (Response::ok(String::new(), diag), Vec::new())
            }
        };
        // Work that outlived its budget is thrown away rather than
        // returned late: the client asked for a bound, not a result.
        if deadline.expired() && response.error.is_none() {
            self.metrics.rejected_deadline.fetch_add(1, Ordering::Relaxed);
            response = Response::error(ErrorKind::Deadline, "deadline expired during processing");
            return (response, Vec::new());
        }
        (response, blob)
    }

    fn analyze(
        &self,
        req: &Request,
        image: &[u8],
        profile: Option<&spike_profile::Profile>,
        summaries: bool,
        routine: Option<&str>,
    ) -> Response {
        let (entry, outcome) = match self.store.get_or_analyze(image) {
            Ok(x) => x,
            Err(msg) => return Response::error(ErrorKind::BadImage, msg),
        };
        match render::analyze_report(
            &req.image_name,
            &entry.program,
            &entry.analysis,
            summaries,
            routine,
        ) {
            Ok(mut stdout) => {
                if let Some(p) = profile {
                    stdout.push_str(&render::profile_report(&entry.program, p));
                }
                let mut diag = render::analyze_diag(&entry.analysis);
                let _ = writeln!(diag, "cache: {}", outcome.name());
                Response::ok(stdout, diag)
            }
            Err(msg) => Response::error(ErrorKind::BadRequest, msg),
        }
    }

    fn lint(&self, req: &Request, image: &[u8], format: crate::proto::LintFormat) -> Response {
        // Mirrors the local CLI's contract: an unreadable *file* is the
        // client's problem (exit 2 before any request is sent), but bytes
        // that fail image validation are a `malformed-image` finding with
        // exit 1, so automated callers see it in the report.
        let (report, diag) = match self.store.get_or_analyze(image) {
            Ok((entry, outcome)) => (
                spike_lint::lint_with(
                    &entry.program,
                    &entry.analysis,
                    &spike_lint::LintOptions::default(),
                ),
                format!("cache: {}\n", outcome.name()),
            ),
            Err(msg) => (spike_lint::malformed_image(msg), String::new()),
        };
        let stdout = render::lint_report(&req.image_name, &report, format);
        let exit = if report.errors() > 0 { 1 } else { 0 };
        Response { exit, stdout, diag, error: None }
    }

    fn query(
        &self,
        req: &Request,
        image: &[u8],
        kind: QueryKind,
        routine: &str,
        callee: Option<&str>,
    ) -> Response {
        // The same shared entry `analyze` and `lint` resolve: a query on a
        // never-seen image analyzes it once, for every later command.
        let (entry, outcome) = match self.store.get_or_analyze(image) {
            Ok(x) => x,
            Err(msg) => return Response::error(ErrorKind::BadImage, msg),
        };
        let program = &entry.program;
        let Some(rid) = program.routine_by_name(routine) else {
            return Response::error(ErrorKind::BadRequest, format!("no routine named `{routine}`"));
        };
        let query = match kind {
            QueryKind::Summary => Some(spike_core::Query::Summary(rid)),
            QueryKind::LiveAtEntry => Some(spike_core::Query::LiveAtEntry(rid)),
            QueryKind::Uninit => None,
            QueryKind::Reaches => {
                let Some(callee) = callee else {
                    return Response::error(
                        ErrorKind::BadRequest,
                        "reaches query needs a callee routine",
                    );
                };
                let Some(cid) = program.routine_by_name(callee) else {
                    return Response::error(
                        ErrorKind::BadRequest,
                        format!("no routine named `{callee}`"),
                    );
                };
                Some(spike_core::Query::Reaches { caller: rid, callee: cid })
            }
        };

        let analysis = &entry.analysis;
        let mut response = match &query {
            Some(q) => {
                let answer = spike_core::query_analysis(analysis, program, q);
                Response::ok(render::query_report(routine, callee, &answer), String::new())
            }
            // `uninit` is a lint-shaped query: exit 1 with findings,
            // rendered exactly like `spike lint`'s human format.
            None => {
                let report =
                    spike_lint::uninit_routine(program, &analysis.cfg, &analysis.summary, rid);
                let stdout =
                    render::lint_report(&req.image_name, &report, crate::proto::LintFormat::Human);
                let exit = if report.errors() > 0 { 1 } else { 0 };
                Response { exit, stdout, diag: String::new(), error: None }
            }
        };

        // A miss paid for the entry's analysis; anything else read it.
        let stats = match outcome {
            CacheOutcome::MissCold | CacheOutcome::MissIncremental => {
                QueryStats::of_run(&analysis.stats)
            }
            CacheOutcome::Hit | CacheOutcome::CoalescedHit => QueryStats::default(),
        };
        let mut diag = render::query_diag(&stats);
        let _ = writeln!(diag, "cache: {}", outcome.name());
        response.diag = diag;
        response
    }

    #[allow(clippy::too_many_arguments)]
    fn optimize(
        &self,
        req: &Request,
        image: &[u8],
        profile: Option<spike_profile::Profile>,
        out: &str,
        iterate: bool,
        incremental: bool,
        licm: bool,
    ) -> (Response, Vec<u8>) {
        // Optimization rewrites the program, so there is nothing to share
        // across requests: parse and run fresh, exactly like the local
        // path. (The *analysis* passes inside optimize_with still use the
        // optimizer's own per-run incremental cache.)
        let program = match Program::from_image(image) {
            Ok(p) => p,
            Err(e) => return (Response::error(ErrorKind::BadImage, e.to_string()), Vec::new()),
        };
        let pgo = profile.is_some();
        let options = spike_opt::OptOptions {
            analysis: self.store.options().clone(),
            iterate,
            incremental,
            licm,
            profile,
            ..spike_opt::OptOptions::default()
        };
        match spike_opt::optimize_with(&program, &options) {
            Ok((optimized, report)) => {
                let stdout =
                    render::optimize_report(&req.image_name, out, &report, incremental, pgo);
                (Response::ok(stdout, String::new()), optimized.to_image())
            }
            Err(e) => (Response::error(ErrorKind::BadImage, e.to_string()), Vec::new()),
        }
    }

    fn compare(&self, _req: &Request, image: &[u8]) -> Response {
        let (entry, outcome) = match self.store.get_or_analyze(image) {
            Ok(x) => x,
            Err(msg) => return Response::error(ErrorKind::BadImage, msg),
        };
        // The PSG side comes warm from the cache; the whole-CFG baseline
        // is the expensive cross-check and always runs fresh.
        let opts: &AnalysisOptions = self.store.options();
        let full = spike_baseline::analyze_baseline_with(&entry.program, opts);
        match render::compare_report(&entry.program, &entry.analysis, &full) {
            Ok(stdout) => {
                let mut diag = render::compare_diag(&entry.analysis, &full);
                let _ = writeln!(diag, "cache: {}", outcome.name());
                Response::ok(stdout, diag)
            }
            Err(msg) => Response::error(ErrorKind::Panic, msg),
        }
    }

    fn stats(&self) -> Response {
        let snapshot = self.store.snapshot();
        let json = self.metrics.to_stats_json(&snapshot, self.queue_capacity);
        Response::ok(format!("{json}\n"), String::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::LintFormat;
    use spike_isa::Reg;
    use spike_program::ProgramBuilder;

    fn handler() -> Handler {
        Handler {
            store: Arc::new(ProgramStore::new(AnalysisOptions::default(), usize::MAX)),
            metrics: Arc::new(Metrics::default()),
            queue_capacity: 8,
            shutdown: Arc::new(AtomicBool::new(false)),
            cluster: None,
        }
    }

    fn image() -> Vec<u8> {
        let mut b = ProgramBuilder::new();
        b.routine("main").def(Reg::A0).call("leaf").put_int().halt();
        b.routine("leaf").copy(Reg::A0, Reg::V0).ret();
        b.build().unwrap().to_image()
    }

    fn req(cmd: Command) -> Request {
        Request { cmd, image_name: "x.img".into(), deadline_ms: None, profile_len: 0 }
    }

    fn far_deadline() -> Deadline {
        Deadline::starting_now(60_000)
    }

    #[test]
    fn analyze_matches_the_shared_renderer() {
        let h = handler();
        let img = image();
        let r = req(Command::Analyze { summaries: false, routine: None });
        let (resp, blob) = h.handle(&r, &img, &far_deadline());
        assert_eq!(resp.exit, 0, "{:?}", resp.error);
        assert!(blob.is_empty());

        let program = Program::from_image(&img).unwrap();
        let analysis = spike_core::analyze(&program);
        let expected = render::analyze_report("x.img", &program, &analysis, false, None).unwrap();
        assert_eq!(resp.stdout, expected);
        assert!(resp.diag.contains("cache: miss"));

        // Second identical request hits the cache, byte-identically.
        let (resp2, _) = h.handle(&r, &img, &far_deadline());
        assert_eq!(resp2.stdout, resp.stdout);
        assert!(resp2.diag.contains("cache: hit"));
    }

    /// A frame blob of `image ++ profile` plus the request that
    /// announces the split.
    fn with_profile(cmd: Command, image: &[u8]) -> (Request, Vec<u8>) {
        let program = Program::from_image(image).unwrap();
        let (_, exec) = spike_sim::run_profiled(&program, 10_000);
        let prof = spike_profile::Profile::collect(&program, &exec).to_bytes();
        let mut blob = image.to_vec();
        blob.extend_from_slice(&prof);
        let mut r = req(cmd);
        r.profile_len = prof.len();
        (r, blob)
    }

    #[test]
    fn analyze_with_profile_appends_the_hot_cold_section() {
        let h = handler();
        let img = image();
        let (r, blob) = with_profile(Command::Analyze { summaries: false, routine: None }, &img);
        let (resp, _) = h.handle(&r, &blob, &far_deadline());
        assert_eq!(resp.exit, 0, "{:?}", resp.error);
        assert!(resp.stdout.contains("hot/cold:"), "{}", resp.stdout);

        // The section is exactly what the shared renderer appends, so
        // the client path stays byte-identical to the local one.
        let program = Program::from_image(&img).unwrap();
        let (_, exec) = spike_sim::run_profiled(&program, 10_000);
        let prof = spike_profile::Profile::collect(&program, &exec);
        let analysis = spike_core::analyze(&program);
        let mut expected =
            render::analyze_report("x.img", &program, &analysis, false, None).unwrap();
        expected.push_str(&render::profile_report(&program, &prof));
        assert_eq!(resp.stdout, expected);
    }

    #[test]
    fn stale_or_corrupt_profiles_are_bad_requests() {
        let h = handler();
        let img = image();
        // A profile of a *different* program: parses, doesn't bind.
        let other = spike_synth::generate_executable(3, 2);
        let (_, exec) = spike_sim::run_profiled(&other, 10_000);
        let prof = spike_profile::Profile::collect(&other, &exec).to_bytes();
        let mut blob = img.clone();
        blob.extend_from_slice(&prof);
        let mut r = req(Command::Analyze { summaries: false, routine: None });
        r.profile_len = prof.len();
        let (resp, _) = h.handle(&r, &blob, &far_deadline());
        assert_eq!(resp.error.as_ref().map(|(k, _)| *k), Some(ErrorKind::BadRequest));
        assert!(resp.error.unwrap().1.contains("stale profile"));

        // Garbage where the profile should be.
        let mut blob = img.clone();
        blob.extend_from_slice(b"not a profile");
        r.profile_len = 13;
        let (resp, _) = h.handle(&r, &blob, &far_deadline());
        assert_eq!(resp.error.as_ref().map(|(k, _)| *k), Some(ErrorKind::BadRequest));

        // profile_len longer than the whole blob.
        r.profile_len = img.len() + 1000;
        let (resp, _) = h.handle(&r, &img, &far_deadline());
        assert_eq!(resp.error.as_ref().map(|(k, _)| *k), Some(ErrorKind::BadRequest));
    }

    #[test]
    fn optimize_honors_licm_and_profile_flags() {
        let h = handler();
        let img = image();
        let opt = |licm| Command::Optimize {
            out: "o.img".into(),
            iterate: false,
            incremental: true,
            licm,
        };
        let (resp, blob) = h.handle(&req(opt(true)), &img, &far_deadline());
        assert_eq!(resp.exit, 0, "{:?}", resp.error);
        assert!(!blob.is_empty());
        assert!(resp.stdout.contains("(static loop-depth estimate)"), "{}", resp.stdout);

        let (r, pblob) = with_profile(opt(false), &img);
        let (resp, _) = h.handle(&r, &pblob, &far_deadline());
        assert_eq!(resp.exit, 0, "{:?}", resp.error);
        assert!(resp.stdout.contains("(profile-weighted)"), "{}", resp.stdout);
        assert!(resp.stdout.contains("licm: 0 load(s) + 0 op(s) hoisted"), "{}", resp.stdout);
    }

    #[test]
    fn lint_reports_malformed_images_as_findings() {
        let h = handler();
        let r = req(Command::Lint { format: LintFormat::Human });
        let (resp, _) = h.handle(&r, b"garbage", &far_deadline());
        assert_eq!(resp.exit, 1);
        assert!(resp.stdout.contains("error[malformed-image]"));
        assert!(resp.error.is_none());
    }

    #[test]
    fn expired_deadline_rejects_before_work() {
        let h = handler();
        let r = req(Command::Analyze { summaries: false, routine: None });
        let (resp, _) = h.handle(&r, &image(), &Deadline::starting_now(0));
        assert_eq!(resp.exit, 2);
        assert_eq!(resp.error.as_ref().map(|(k, _)| *k), Some(ErrorKind::Deadline));
        // The rejected request never touched the cache.
        assert_eq!(h.store.snapshot().entries, 0);
    }

    #[test]
    fn shutdown_sets_the_flag() {
        let h = handler();
        let (resp, _) = h.handle(&req(Command::Shutdown), &[], &far_deadline());
        assert_eq!(resp.exit, 0);
        assert!(h.shutdown.load(Ordering::SeqCst));
    }

    #[test]
    fn empty_image_is_a_truncated_image() {
        let h = handler();
        let r = req(Command::Analyze { summaries: false, routine: None });
        let (resp, _) = h.handle(&r, &[], &far_deadline());
        let (kind, msg) = resp.error.expect("an empty image is refused");
        assert_eq!(kind, ErrorKind::BadImage);
        assert_eq!(msg, "image is truncated");
    }

    #[test]
    fn query_answers_match_the_analyze_slice() {
        let h = handler();
        let img = image();
        let q =
            req(Command::Query { kind: QueryKind::Summary, routine: "main".into(), callee: None });
        let (resp, blob) = h.handle(&q, &img, &far_deadline());
        assert_eq!(resp.exit, 0, "{:?}", resp.error);
        assert!(blob.is_empty());
        assert!(resp.diag.contains("query: analyzed 2 routine(s)"), "{}", resp.diag);
        assert!(resp.diag.contains("cache: miss"));

        // Every line of the answer appears verbatim in the whole-program
        // analyze slice for the same routine.
        let program = Program::from_image(&img).unwrap();
        let analysis = spike_core::analyze(&program);
        let slice =
            render::analyze_report("x.img", &program, &analysis, false, Some("main")).unwrap();
        for line in resp.stdout.lines() {
            assert!(slice.contains(line), "query line {line:?} missing from analyze slice");
        }

        // A repeat hits the warm entry and analyzes nothing.
        let (resp2, _) = h.handle(&q, &img, &far_deadline());
        assert_eq!(resp2.stdout, resp.stdout);
        assert!(resp2.diag.contains("query: analyzed 0 routine(s), 0 visit(s)"), "{}", resp2.diag);
        assert!(resp2.diag.contains("cache: hit"));
    }

    #[test]
    fn query_after_analyze_answers_from_the_full_state() {
        let h = handler();
        let img = image();
        h.handle(&req(Command::Analyze { summaries: false, routine: None }), &img, &far_deadline());
        let q = req(Command::Query {
            kind: QueryKind::LiveAtEntry,
            routine: "leaf".into(),
            callee: None,
        });
        let (resp, _) = h.handle(&q, &img, &far_deadline());
        assert_eq!(resp.exit, 0, "{:?}", resp.error);
        assert!(resp.diag.contains("query: analyzed 0 routine(s), 0 visit(s)"), "{}", resp.diag);
        assert!(resp.diag.contains("cache: hit"), "{}", resp.diag);
        assert_eq!(h.store.snapshot().entries, 1);
    }

    #[test]
    fn a_query_warms_the_entry_every_later_command_hits() {
        let h = handler();
        let img = image();
        let q =
            req(Command::Query { kind: QueryKind::Uninit, routine: "main".into(), callee: None });
        let (resp, _) = h.handle(&q, &img, &far_deadline());
        assert!(resp.diag.contains("cache: miss"), "{}", resp.diag);
        let snap = h.store.snapshot();
        assert_eq!((snap.entries, snap.counters.misses_cold), (1, 1));
        assert_eq!(h.store.export_entries().len(), 1, "and a snapshot would carry it");

        let a = req(Command::Analyze { summaries: false, routine: None });
        let (resp, _) = h.handle(&a, &img, &far_deadline());
        assert!(resp.diag.contains("cache: hit"), "{}", resp.diag);
        let snap = h.store.snapshot();
        assert_eq!((snap.entries, snap.counters.misses_cold, snap.counters.hits), (1, 1, 1));
    }

    #[test]
    fn concurrent_queries_on_a_new_image_coalesce() {
        let h = handler();
        let img = spike_synth::generate_executable(5, 40).to_image();
        let q = |kind| req(Command::Query { kind, routine: "main".into(), callee: None });
        let (qa, qb) = (q(QueryKind::Summary), q(QueryKind::LiveAtEntry));
        let gate = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for q in [&qa, &qb] {
                s.spawn(|| {
                    gate.wait();
                    let (resp, _) = h.handle(q, &img, &far_deadline());
                    assert_eq!(resp.exit, 0, "{:?}", resp.error);
                });
            }
        });
        let snap = h.store.snapshot();
        assert_eq!(snap.entries, 1);
        assert_eq!(snap.counters.misses_cold, 1, "one of the two analyzed: {:?}", snap.counters);
        assert_eq!(snap.counters.hits + snap.counters.coalesced, 1);
    }

    #[test]
    fn reaches_query_renders_both_verdicts() {
        let h = handler();
        let img = image();
        let q = |caller: &str, callee: &str| {
            req(Command::Query {
                kind: QueryKind::Reaches,
                routine: caller.into(),
                callee: Some(callee.into()),
            })
        };
        let (resp, _) = h.handle(&q("main", "leaf"), &img, &far_deadline());
        assert_eq!(resp.stdout, "main reaches leaf\n");
        let (resp, _) = h.handle(&q("leaf", "main"), &img, &far_deadline());
        assert_eq!(resp.stdout, "leaf does not reach main\n");
    }

    #[test]
    fn uninit_query_exits_like_lint() {
        let h = handler();
        let q =
            req(Command::Query { kind: QueryKind::Uninit, routine: "main".into(), callee: None });
        let (resp, _) = h.handle(&q, &image(), &far_deadline());
        assert_eq!(resp.exit, 0, "the sample image is clean: {:?}", resp.stdout);
        assert!(resp.stdout.ends_with("0 error(s), 0 warning(s)\n"));

        let (defective, _) =
            spike_synth::generate_executable_with_defect(7, 5, spike_synth::DefectKind::UninitRead);
        let rname = {
            let report = spike_lint::lint(&defective);
            report.routine(&report.diagnostics()[0]).to_string()
        };
        let q = req(Command::Query { kind: QueryKind::Uninit, routine: rname, callee: None });
        let (resp, _) = h.handle(&q, &defective.to_image(), &far_deadline());
        assert_eq!(resp.exit, 1, "{}", resp.stdout);
        assert!(resp.stdout.contains("uninit"));
    }

    #[test]
    fn query_rejects_unknown_routines_and_missing_callees() {
        let h = handler();
        let img = image();
        let q =
            req(Command::Query { kind: QueryKind::Summary, routine: "nope".into(), callee: None });
        let (resp, _) = h.handle(&q, &img, &far_deadline());
        assert_eq!(resp.error.as_ref().map(|(k, _)| *k), Some(ErrorKind::BadRequest));
        let q =
            req(Command::Query { kind: QueryKind::Reaches, routine: "main".into(), callee: None });
        let (resp, _) = h.handle(&q, &img, &far_deadline());
        assert_eq!(resp.error.as_ref().map(|(k, _)| *k), Some(ErrorKind::BadRequest));
    }

    #[test]
    fn stats_round_trips_through_the_parser() {
        let h = handler();
        h.handle(
            &req(Command::Analyze { summaries: false, routine: None }),
            &image(),
            &far_deadline(),
        );
        let (resp, _) = h.handle(&req(Command::Stats), &[], &far_deadline());
        let json = spike_core::json::Json::parse(resp.stdout.trim()).unwrap();
        let cache = json.get("cache").expect("cache section");
        assert_eq!(cache.get("entries").and_then(spike_core::json::Json::as_u64), Some(1));
    }
}
