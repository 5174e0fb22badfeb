//! The `serve-mix` workload: the daemon as a child process, two client
//! connections each replaying a deterministic request script.
//!
//! Each client owns two image *lineages*. A lineage is a cycle of images
//! in which every image differs from its predecessor by exactly one
//! instruction: the first half of the cycle applies one edit per step
//! (alternating an in-place `Rewriter::replace` and an address-shifting
//! `Rewriter::delete`), the second half undoes them in the same order, so
//! replaying the cycle forever keeps sending "the head plus one more
//! edit" — by the time an image comes round again the daemon's 64 MiB
//! cache has long evicted it. The mix by count is 30 % hits on a lineage
//! head, 60 % edits, 10 % cold images of the same profiles.

use std::io::{BufRead, BufReader, Cursor, Write};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

use spike_core::json::Json;
use spike_core::{analyze_with, AnalysisCache, AnalysisOptions, Query};
use spike_isa::Instruction;
use spike_lint::{lint_with, Check, LintOptions};
use spike_program::{Program, Rewriter};
use spike_serve::cache::CacheKey;
use spike_serve::handler::{Deadline, Handler};
use spike_serve::metrics::Metrics;
use spike_serve::proto::{read_frame, write_frame};
use spike_serve::{
    client, render, Command as Cmd, Endpoint, LintFormat, ProgramStore, QueryKind, Request,
    ServeOptions, Server,
};

use crate::batch::{another_round, vm_hwm_kb, OpSample};
use crate::corpus::{fnv64, profile_program, reencode, Rng, CORPUS_SEED};
use crate::stats::median;
use crate::trace::{timed_ms, Recorder, Span};

/// The daemon configuration the workload fixes.
pub const WORKERS: usize = 2;
/// Cache budget: small enough that the edit chain overflows it.
pub const CACHE_BYTES: usize = 64 << 20;
/// Client connections (one thread each), at most `nproc`.
pub const CLIENTS: usize = 2;
/// Edits per half-cycle of a lineage.
const HALF_CYCLE: usize = 6;
/// Cold images per client.
const COLD_POOL: usize = 4;
/// One in this many responses is compared byte for byte with a local
/// render of the same request.
const SAMPLE_EVERY: usize = 16;

/// The analysis options the daemon runs with (`analysis_threads` 1).
pub fn daemon_analysis_options() -> AnalysisOptions {
    AnalysisOptions { threads: 1, ..AnalysisOptions::default() }
}

fn serve_options() -> ServeOptions {
    ServeOptions {
        tcp: Some("127.0.0.1:0".to_string()),
        workers: WORKERS,
        cache_bytes: CACHE_BYTES,
        analysis_threads: 1,
        ..ServeOptions::default()
    }
}

/// Request classes, in the order their indices are reported.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Class {
    /// A request on an image the daemon has cached.
    Hit,
    /// The head plus an in-place one-instruction edit.
    EditInplace,
    /// The head plus an edit that shifts every later address.
    EditShift,
    /// An image unlike anything cached.
    Cold,
}

impl Class {
    /// All classes, by index.
    pub const ALL: [Class; 4] = [Class::Hit, Class::EditInplace, Class::EditShift, Class::Cold];

    /// The span name of a request of this class.
    pub fn span(self) -> &'static str {
        match self {
            Class::Hit => "serve.hit",
            Class::EditInplace => "serve.edit_inplace",
            Class::EditShift => "serve.edit_shift",
            Class::Cold => "serve.cold",
        }
    }
}

/// One scripted request.
#[derive(Clone)]
pub struct ScriptOp {
    /// Its class.
    pub class: Class,
    /// Its group (index into [`Plan::groups`]): requests of one group
    /// ask the same thing about images of the same lineage, so they cost
    /// the same.
    pub group: usize,
    /// The request header.
    pub request: Request,
    /// The image it carries.
    pub image: Arc<Vec<u8>>,
}

/// A cyclic chain of one-instruction edits over one base image.
pub struct Lineage {
    /// `images[k + 1]` is `images[k]` plus one edit; the edit after the
    /// last image yields `images[0]` again.
    pub images: Vec<Arc<Vec<u8>>>,
    /// Whether the edit *producing* `images[k]` shifts addresses.
    pub shifts: Vec<bool>,
    /// Display name of the lineage's images.
    pub name: String,
    /// A routine to ask `query summary` about.
    pub routine: String,
}

/// Where one edit lands: routine index and instruction offset in it.
#[derive(Clone, Copy)]
struct Site {
    routine: usize,
    offset: u32,
}

/// Builds the edit cycle of `base`. Sites come from the seeded `rng`;
/// every site lies in its own routine so the offsets of the other sites
/// never move.
fn build_lineage(name: &str, base: &Program, rng: &mut Rng) -> Lineage {
    let options = daemon_analysis_options();
    let analysis = analyze_with(base, &options);
    // Deleting a register computation that lint already reports dead
    // cannot introduce a lint error, so every image of the lineage still
    // lints clean. Loads and callee-saved registers are left alone: a
    // "dead" reload of a saved register is the restore that the
    // callee-saved-clobber check looks for.
    let only_dead = LintOptions {
        uninit: false,
        clobber: false,
        reach: false,
        tables: false,
        stack: false,
        dead: true,
    };
    let callee_saved = options.calling_standard.callee_saved();
    // Deleting and re-inserting an instruction must give the base image
    // back, or the cycle would not close. It does not when the
    // instruction or its successor starts a block (branches into the gap
    // are relinked to its neighbour); rather than list such cases, try it.
    let restores = |a: u32| {
        let insn = *base.insn_at(a).expect("site holds an instruction");
        let without = Rewriter::new(base).delete(a).finish();
        without.is_ok_and(|(p, _)| {
            Rewriter::new(&p).insert_before(a, vec![insn]).finish().is_ok_and(|(q, _)| q == *base)
        })
    };
    let mut deletable: Vec<u32> = lint_with(base, &analysis, &only_dead)
        .diagnostics()
        .iter()
        .filter(|d| d.check == Check::DeadStore && d.reg.is_some_and(|r| !callee_saved.contains(r)))
        .filter_map(|d| d.addr)
        .filter(|&a| !matches!(base.insn_at(a), Some(Instruction::Load { .. }) | None))
        .collect();
    let mut swappable: Vec<u32> = base
        .iter()
        .flat_map(|(_, r)| {
            r.insns()
                .iter()
                .enumerate()
                .filter(|(_, i)| crate::corpus::swapped(i).is_some())
                .map(|(o, _)| r.addr() + o as u32)
        })
        .collect();
    rng.shuffle(&mut deletable);
    rng.shuffle(&mut swappable);

    let mut used = Vec::new();
    let mut pick = |candidates: &[u32], fits: &dyn Fn(u32) -> bool| -> Site {
        let addr = candidates
            .iter()
            .copied()
            .filter(|&a| !used.contains(&base.routine_containing(a).expect("site in a routine")))
            .find(|&a| fits(a))
            .expect("enough edit sites in distinct routines");
        let rid = base.routine_containing(addr).expect("site in a routine");
        used.push(rid);
        Site { routine: rid.index(), offset: addr - base.routine(rid).addr() }
    };
    let sites: Vec<(Site, bool)> = (0..HALF_CYCLE)
        .map(|k| match k % 2 {
            0 => (pick(&swappable, &|_| true), false),
            _ => (pick(&deletable, &restores), true),
        })
        .collect();

    let addr_of = |p: &Program, s: Site| p.routines()[s.routine].addr() + s.offset;
    let mut current = base.clone();
    let mut images = vec![Arc::new(base.to_image())];
    let mut shifts = Vec::new();
    let mut deleted: Vec<Option<Instruction>> = vec![None; sites.len()];
    for undo in [false, true] {
        for (k, &(site, shift)) in sites.iter().enumerate() {
            let addr = addr_of(&current, site);
            let mut rw = Rewriter::new(&current);
            match (shift, undo) {
                (false, _) => {
                    let insn = current.insn_at(addr).expect("site holds an instruction");
                    rw.replace(addr, crate::corpus::swapped(insn).expect("site is swappable"));
                }
                (true, false) => {
                    deleted[k] = current.insn_at(addr).copied();
                    rw.delete(addr);
                }
                (true, true) => {
                    rw.insert_before(addr, vec![deleted[k].expect("deleted in the first half")]);
                }
            }
            current = rw.finish().expect("a one-instruction edit relinks").0;
            images.push(Arc::new(current.to_image()));
            shifts.push(shift);
        }
    }
    let back = images.pop().expect("the cycle's closing image");
    assert!(back == images[0], "undoing every edit must restore the base image");
    shifts.rotate_right(1);
    let routine = base.routines()[rng.below(base.routines().len())].name().to_string();
    Lineage { images, shifts, name: format!("{name}.img"), routine }
}

/// Everything the workload sends: per client its lineages and its
/// request script (one period; replayed cyclically).
pub struct Plan {
    /// `lineages[c]` are client `c`'s two lineages.
    pub lineages: Vec<Vec<Lineage>>,
    /// `scripts[c]` is client `c`'s script period.
    pub scripts: Vec<Vec<ScriptOp>>,
    /// Class and label of every request group.
    pub groups: Vec<(Class, String)>,
    /// Seconds spent in `spike-synth` generators.
    pub generate_s: f64,
}

fn request(cmd: Cmd, name: &str) -> Request {
    Request { cmd, image_name: name.to_string(), deadline_ms: None, profile_len: 0 }
}

fn analyze_cmd() -> Cmd {
    Cmd::Analyze { summaries: false, routine: None }
}

/// Builds the plan for `seed`. `profiles` are dealt to the clients two
/// each, in order.
pub fn build_plan(profiles: &[&str], scale: f64, seed: u64) -> Plan {
    let mut generate_s = 0.0;
    let mut generate = |p: &str, gen_seed: u64| {
        let t = Instant::now();
        let program = profile_program(p, scale, gen_seed);
        generate_s += t.elapsed().as_secs_f64();
        program
    };
    let mut lineages = Vec::new();
    let mut scripts = Vec::new();
    let mut groups = Vec::new();
    for (c, pair) in profiles.chunks(profiles.len().div_ceil(CLIENTS)).enumerate() {
        let mut rng = Rng::new(seed, 1000 + c as u64);
        let mine: Vec<Lineage> = pair
            .iter()
            .map(|p| {
                let base = reencode(&generate(p, CORPUS_SEED), &mut rng);
                build_lineage(p, &base, &mut rng)
            })
            .collect();
        let colds: Vec<(String, Arc<Vec<u8>>)> = (0..COLD_POOL)
            .map(|i| {
                let p = pair[i % pair.len()];
                let image = generate(p, (CORPUS_SEED ^ rng.next()) | (1 << 40)).to_image();
                (format!("{p}-cold{i}.img"), Arc::new(image))
            })
            .collect();

        // One period: every lineage walks its cycle exactly once. A
        // block of ten ops holds six edits (three per lineage), three
        // hits and one cold, in a seed-shuffled order.
        let cycle = mine[0].images.len();
        let blocks = cycle * mine.len() / 6;
        let mut script = Vec::new();
        let mut step = vec![0usize; mine.len()];
        let (mut edits, mut hits, mut cold) = (0usize, 0usize, 0usize);
        let mut push = |class: Class, what: &str, request: Request, image: &Arc<Vec<u8>>| {
            let label = format!("{} {what}", request.image_name);
            let group =
                groups.iter().position(|g: &(Class, String)| g.1 == label).unwrap_or_else(|| {
                    groups.push((class, label));
                    groups.len() - 1
                });
            script.push(ScriptOp { class, group, request, image: Arc::clone(image) });
        };
        for _ in 0..blocks {
            let mut kinds = [0u8, 0, 0, 0, 0, 0, 1, 1, 1, 2];
            rng.shuffle(&mut kinds);
            for kind in kinds {
                match kind {
                    0 => {
                        let l = edits % mine.len();
                        edits += 1;
                        step[l] = (step[l] + 1) % cycle;
                        let lin = &mine[l];
                        let (class, what) = if lin.shifts[step[l]] {
                            (Class::EditShift, "edit-shift")
                        } else {
                            (Class::EditInplace, "edit-inplace")
                        };
                        push(class, what, request(analyze_cmd(), &lin.name), &lin.images[step[l]]);
                    }
                    1 => {
                        let l = hits % mine.len();
                        let lin = &mine[l];
                        let cmd = match hits / mine.len() % 3 {
                            0 => analyze_cmd(),
                            1 => Cmd::Lint { format: LintFormat::Json },
                            _ => Cmd::Query {
                                kind: QueryKind::Summary,
                                routine: lin.routine.clone(),
                                callee: None,
                            },
                        };
                        hits += 1;
                        let what = format!("hit-{}", cmd.name());
                        push(Class::Hit, &what, request(cmd, &lin.name), &lin.images[step[l]]);
                    }
                    _ => {
                        let (name, image) = &colds[cold % colds.len()];
                        cold += 1;
                        push(Class::Cold, "cold", request(analyze_cmd(), name), image);
                    }
                }
            }
        }
        lineages.push(mine);
        scripts.push(script);
    }
    Plan { lineages, scripts, groups, generate_s }
}

/// The daemon child: serves until its stdin closes, then drains.
pub fn daemon_main() -> Result<(), String> {
    let server = Server::start(&serve_options()).map_err(|e| format!("daemon start: {e}"))?;
    let addr = server.tcp_addr().ok_or("daemon bound no TCP address")?;
    println!("{addr}");
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    let mut sink = String::new();
    while std::io::stdin().read_line(&mut sink).map_err(|e| e.to_string())? > 0 {}
    server.shutdown();
    server.join();
    Ok(())
}

/// A running daemon child.
pub struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    /// Where it listens.
    pub endpoint: Endpoint,
}

impl Daemon {
    /// Spawns this executable as the daemon and waits for its address.
    pub fn spawn() -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating the harness: {e}"))?;
        let mut child = Command::new(exe)
            .arg("daemon")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning the daemon: {e}"))?;
        let stdin = child.stdin.take();
        let mut line = String::new();
        BufReader::new(child.stdout.take().expect("stdout was piped"))
            .read_line(&mut line)
            .map_err(|e| format!("reading the daemon's address: {e}"))?;
        let mut daemon = Daemon { child, stdin, endpoint: Endpoint::Tcp(line.trim().to_string()) };
        if line.trim().is_empty() {
            daemon.stop()?;
            return Err("the daemon exited before announcing its address".to_string());
        }
        Ok(daemon)
    }

    /// `VmHWM` of the daemon process, kB.
    pub fn vm_hwm_kb(&self) -> u64 {
        vm_hwm_kb(&self.child.id().to_string())
    }

    /// Closes the daemon's stdin (its cue to drain) and waits for it.
    pub fn stop(&mut self) -> Result<(), String> {
        drop(self.stdin.take());
        let status = self.child.wait().map_err(|e| format!("waiting for the daemon: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.stdin.is_some() {
            let _ = self.stop();
        }
    }
}

/// One round trip; `Ok(stdout)` when the daemon answered with exit 0.
fn round_trip(endpoint: &Endpoint, request: &Request, image: &[u8]) -> Result<String, String> {
    let (response, _) = client::request(endpoint, request, image).map_err(|e| e.to_string())?;
    match response.error {
        Some((kind, message)) => Err(format!("refused ({}): {message}", kind.name())),
        None if response.exit != 0 => Err(format!("exit {}", response.exit)),
        None => Ok(response.stdout),
    }
}

/// Sends every lineage base once so the timed section starts from a
/// primed cache.
pub fn prime(endpoint: &Endpoint, plan: &Plan) -> Result<(), String> {
    for lin in plan.lineages.iter().flatten() {
        round_trip(endpoint, &request(analyze_cmd(), &lin.name), &lin.images[0])
            .map_err(|e| format!("priming {}: {e}", lin.name))?;
    }
    Ok(())
}

/// A response kept for the byte-identity check.
pub struct Sampled {
    /// The request that produced it.
    pub op: ScriptOp,
    /// The daemon's stdout.
    pub stdout: String,
}

/// What one client measured.
pub struct ClientRun {
    /// Timed ops; `input` holds the request's group.
    pub ops: Vec<OpSample>,
    /// Spans of every op (traced runs).
    pub spans: Vec<Span>,
    /// The 1-in-[`SAMPLE_EVERY`] responses.
    pub sampled: Vec<Sampled>,
    /// First request sent to last response received, seconds.
    pub wall_s: f64,
}

/// Replays whole periods of `script` against the daemon for about
/// `seconds` (and at least `min_periods`; see [`another_round`]), one
/// request at a time. Whole periods keep each client's mix of requests the
/// same in every run. With `trace`, every op records spans. Op ids are
/// `id_base + n`.
pub fn run_client(
    endpoint: &Endpoint,
    script: &[ScriptOp],
    seconds: f64,
    min_periods: usize,
    trace: bool,
    id_base: u32,
) -> ClientRun {
    let mut rec = Recorder::new();
    let (mut ops, mut sampled) = (Vec::new(), Vec::new());
    let clock = Instant::now();
    let mut period = 0;
    while another_round(period, min_periods, clock.elapsed().as_secs_f64(), seconds) {
        for op in script {
            rec.on = trace;
            rec.set_op(id_base + ops.len() as u32);
            let t = Instant::now();
            let reply = rec.span("op", |rec| {
                rec.span(op.class.span(), |_| round_trip(endpoint, &op.request, &op.image))
            });
            let ns = t.elapsed().as_nanos() as u64;
            let outcome = reply.as_ref().map(|s| fnv64(s.as_bytes())).map_err(String::clone);
            if let (Ok(stdout), true) = (reply, ops.len() % SAMPLE_EVERY == 0) {
                sampled.push(Sampled { op: op.clone(), stdout });
            }
            ops.push(OpSample { input: op.group, ns, outcome });
        }
        period += 1;
    }
    ClientRun { ops, spans: rec.into_spans(), sampled, wall_s: clock.elapsed().as_secs_f64() }
}

/// What the local CLI would print for `op`, rendered by the harness from
/// the same bytes with the daemon's analysis options.
pub fn local_render(op: &ScriptOp) -> Result<String, String> {
    let options = daemon_analysis_options();
    let program = Program::from_image(&op.image).map_err(|e| e.to_string())?;
    let name = &op.request.image_name;
    match &op.request.cmd {
        Cmd::Analyze { summaries, routine } => {
            let analysis = analyze_with(&program, &options);
            render::analyze_report(name, &program, &analysis, *summaries, routine.as_deref())
        }
        Cmd::Lint { format } => {
            let analysis = analyze_with(&program, &options);
            let report = lint_with(&program, &analysis, &LintOptions::default());
            Ok(render::lint_report(name, &report, *format))
        }
        Cmd::Query { kind: QueryKind::Summary, routine, callee: None } => {
            let rid = program.routine_by_name(routine).ok_or("no such routine")?;
            let (answer, _) = AnalysisCache::new(options).query(&program, &Query::Summary(rid));
            Ok(render::query_report(routine, None, &answer))
        }
        other => Err(format!("the script never sends {}", other.name())),
    }
}

/// Byte-identity failures among `sampled`; each distinct request is
/// rendered locally once.
pub fn check_samples(sampled: &[Sampled]) -> Vec<String> {
    let mut seen: Vec<(u64, String, String)> = Vec::new();
    let mut failures = Vec::new();
    for s in sampled {
        let key = (fnv64(&s.op.image), s.op.request.cmd.name().to_string());
        let expected = match seen.iter().find(|e| (e.0, &e.1) == (key.0, &key.1)) {
            Some(e) => e.2.clone(),
            None => {
                let text =
                    local_render(&s.op).unwrap_or_else(|e| format!("<local render failed: {e}>"));
                seen.push((key.0, key.1, text.clone()));
                text
            }
        };
        if expected != s.stdout {
            failures.push(format!(
                "{} {}: daemon output differs from the local render",
                s.op.request.cmd.name(),
                s.op.request.image_name
            ));
        }
    }
    failures
}

/// The daemon's `stats` document.
pub fn daemon_stats(endpoint: &Endpoint) -> Result<Json, String> {
    let (response, _) =
        client::request(endpoint, &request(Cmd::Stats, ""), &[]).map_err(|e| e.to_string())?;
    Json::parse(response.stdout.trim()).map_err(|e| format!("stats: {e}"))
}

/// `stats[group][key]` as a number (0 when absent).
pub fn stat(stats: &Json, group: &str, key: &str) -> f64 {
    stats.get(group).and_then(|g| g.get(key)).and_then(Json::as_f64).unwrap_or(0.0)
}

/// A bare in-process `Handler` over a fresh store with the daemon's
/// configuration — the daemon minus sockets, queue and worker threads.
pub fn bare_handler() -> Handler {
    Handler {
        store: Arc::new(ProgramStore::new(daemon_analysis_options(), CACHE_BYTES)),
        metrics: Arc::new(Metrics::default()),
        queue_capacity: ServeOptions::default().queue_capacity,
        shutdown: Arc::new(AtomicBool::new(false)),
        cluster: None,
    }
}

fn median_ms(mut f: impl FnMut(), reps: usize) -> f64 {
    median(&(0..reps).map(|_| timed_ms(&mut f).1).collect::<Vec<_>>())
}

/// The in-process probes of the serving layers, keyed by metric name:
/// hashing, framing, a store hit, diffing, and client 0's script against
/// a bare handler for `seconds`.
pub fn probes(plan: &Plan, seconds: f64) -> Vec<(&'static str, f64)> {
    let bases: Vec<&Lineage> = plan.lineages.iter().flatten().collect();
    let per_base = |f: &mut dyn FnMut(&Lineage) -> f64| {
        crate::stats::mean(&bases.iter().map(|l| f(l)).collect::<Vec<_>>())
    };
    let hash_ms = per_base(&mut |l| {
        median_ms(
            || {
                std::hint::black_box(CacheKey::of(&l.images[0]));
            },
            15,
        )
    });
    let frame_ms = per_base(&mut |l| {
        let header = request(analyze_cmd(), &l.name).to_json();
        median_ms(
            || {
                let mut wire = Vec::new();
                write_frame(&mut wire, &header, &l.images[0]).expect("writing to memory");
                let frame = read_frame(&mut Cursor::new(&wire), usize::MAX);
                drop(std::hint::black_box(frame));
            },
            15,
        )
    });
    let store = ProgramStore::new(daemon_analysis_options(), usize::MAX);
    let store_hit_ms = per_base(&mut |l| {
        store.get_or_analyze(&l.images[0]).expect("base image analyzes");
        median_ms(|| drop(std::hint::black_box(store.get_or_analyze(&l.images[0]))), 15)
    });
    let diff_ms = per_base(&mut |l| {
        let old = Program::from_image(&l.images[0]).expect("base image loads");
        // images[1] is an in-place edit of the base, images[2] adds a shift.
        let new = Program::from_image(&l.images[2]).expect("edited image loads");
        median_ms(
            || drop(std::hint::black_box(spike_serve::diff::diff_for_reanalysis(&old, &new))),
            7,
        )
    });

    let handler = bare_handler();
    let far = || Deadline::starting_now(ServeOptions::default().default_deadline_ms);
    for l in &plan.lineages[0] {
        handler.handle(&request(analyze_cmd(), &l.name), &l.images[0], &far());
    }
    let mut samples = Vec::new();
    let start = Instant::now();
    'replay: loop {
        for op in &plan.scripts[0] {
            if start.elapsed() >= Duration::from_secs_f64(seconds) && !samples.is_empty() {
                break 'replay;
            }
            let handle =
                || drop(std::hint::black_box(handler.handle(&op.request, &op.image, &far())));
            samples.push(timed_ms(handle).1);
        }
    }
    vec![
        ("serve.hash_ms", hash_ms),
        ("serve.frame_ms", frame_ms),
        ("serve.store_hit_ms", store_hit_ms),
        ("serve.diff_ms", diff_ms),
        ("serve.handler_ms_p50", crate::stats::percentile(&samples, 50)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small versions of the workload's own profiles (19–25 routines).
    const PROFILES: [&str; 4] = ["li", "go", "m88ksim", "perl"];

    fn wire(plan: &Plan) -> Vec<Vec<(Class, String, u64)>> {
        plan.scripts
            .iter()
            .map(|s| {
                s.iter()
                    .map(|op| {
                        let mut header = String::new();
                        op.request.to_json().write(&mut header);
                        (op.class, header, fnv64(&op.image))
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_scripts_and_edit_chains() {
        let (a, b, c) = (
            build_plan(&PROFILES, 0.05, 9),
            build_plan(&PROFILES, 0.05, 9),
            build_plan(&PROFILES, 0.05, 10),
        );
        assert_eq!(wire(&a), wire(&b));
        assert_ne!(wire(&a), wire(&c));
        for (x, y) in a.lineages.iter().flatten().zip(b.lineages.iter().flatten()) {
            assert_eq!(x.images, y.images);
        }
    }

    #[test]
    fn the_script_has_the_stated_mix_and_single_edit_steps() {
        let plan = build_plan(&PROFILES, 0.05, 4);
        assert_eq!(plan.scripts.len(), CLIENTS);
        let script = &plan.scripts[0];
        let count = |c: Class| script.iter().filter(|o| o.class == c).count();
        assert_eq!(script.len(), 40);
        assert_eq!(count(Class::Hit), 12);
        assert_eq!(count(Class::EditInplace) + count(Class::EditShift), 24);
        assert_eq!(count(Class::EditInplace), count(Class::EditShift));
        assert_eq!(count(Class::Cold), 4);
        for lin in &plan.lineages[0] {
            let n = lin.images.len();
            assert_eq!(n, 2 * HALF_CYCLE);
            for k in 0..n {
                let (a, b) = (&lin.images[k], &lin.images[(k + 1) % n]);
                assert_ne!(a, b);
                let (p, q) = (Program::from_image(a).unwrap(), Program::from_image(b).unwrap());
                let delta = p.total_instructions().abs_diff(q.total_instructions());
                assert_eq!(delta == 1, lin.shifts[(k + 1) % n], "step {k}");
                // An in-place edit dirties its routine only; a shift also
                // dirties every routine with a call across the edit.
                let dirty = spike_serve::diff::diff_for_reanalysis(&p, &q).unwrap();
                assert!(!dirty.is_empty() && (delta == 1 || dirty.len() == 1), "step {k}");
            }
            // All images of the cycle are distinct.
            let mut hashes: Vec<u64> = lin.images.iter().map(|i| fnv64(i)).collect();
            hashes.sort_unstable();
            hashes.dedup();
            assert_eq!(hashes.len(), n);
        }
    }

    #[test]
    fn every_seed_closes_its_cycles() {
        // `build_lineage` asserts that undoing every edit restores the base.
        for seed in 0..40 {
            build_plan(&PROFILES, 0.05, seed);
        }
    }

    #[test]
    #[ignore = "builds the real plan for 60 seeds, about two minutes"]
    fn every_seed_closes_its_cycles_at_scale_1() {
        for seed in 400..460 {
            build_plan(&PROFILES, 1.0, seed);
        }
    }

    #[test]
    fn every_image_of_every_lineage_lints_clean() {
        for seed in 0..6 {
            let plan = build_plan(&PROFILES, 0.05, seed);
            for lin in plan.lineages.iter().flatten() {
                for (k, image) in lin.images.iter().enumerate() {
                    let p = Program::from_image(image).unwrap();
                    let a = analyze_with(&p, &daemon_analysis_options());
                    let report = lint_with(&p, &a, &LintOptions::default());
                    assert_eq!(report.errors(), 0, "seed {seed} {} step {k}: {report}", lin.name);
                }
            }
        }
    }

    #[test]
    fn a_bare_handler_answers_the_script_like_the_local_render() {
        let plan = build_plan(&PROFILES, 0.05, 2);
        let handler = bare_handler();
        let deadline = Deadline::starting_now(60_000);
        let mut sampled = Vec::new();
        for op in &plan.scripts[0] {
            let (response, _) = handler.handle(&op.request, &op.image, &deadline);
            assert_eq!((response.exit, &response.error), (0, &None), "{}", op.request.cmd.name());
            sampled.push(Sampled { op: op.clone(), stdout: response.stdout });
        }
        assert_eq!(check_samples(&sampled), Vec::<String>::new());
        // The planted failure: one tampered response is caught.
        sampled[3].stdout.push('x');
        assert_eq!(check_samples(&sampled).len(), 1);
    }
}
