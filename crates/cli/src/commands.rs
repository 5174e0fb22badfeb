//! Subcommand implementations for the `spike` binary.

use std::error::Error;
use std::fs;
use std::io::{self, Write as _};
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

use spike_core::{analyze, AnalysisOptions};
use spike_program::Program;
use spike_serve::handler::{Deadline, Handler};
use spike_serve::{
    Command, Endpoint, LintFormat, ProgramStore, QueryKind, Request, Response, ServeOptions, Server,
};
use spike_sim::Outcome;

type Result<T> = std::result::Result<T, Box<dyn Error>>;

const USAGE: &str = "\
usage: spike <command> [options]

commands:
  gen <benchmark> [--scale S] [--seed N] -o <img>   generate a paper-profile image
  gen-exec [--routines K] [--seed N] -o <img>       generate a runnable image
  asm <file.s> -o <img>                             assemble a text module
  disasm <img>                                      disassemble to parseable assembly
  analyze <img> [--summaries] [--routine NAME] [--profile p.prof]
                                                    interprocedural dataflow analysis
                                                    (--profile adds hot/cold routines)
  optimize <img> -o <img> [--iterate] [--profile p.prof] [--no-licm]
           [--incremental|--no-incremental]         apply the Figure-1 optimizations
                                                    plus loop-invariant code motion;
                                                    --profile weights loop and spill
                                                    decisions with measured counts
  run <img> [--fuel N]                              execute under the simulator
  profile <img> [--out p.prof] [--fuel N]           execute with edge/call/routine
                                                    counters and write (or merge into)
                                                    an execution profile
  lint <img> [--format human|json]                  interprocedural static checks
  query <kind> <routine> [<callee>] <img>           one question about one routine
                                                    (summary, live-at-entry, uninit,
                                                    reaches <caller> <callee>)
  compare <img>                                     PSG vs whole-CFG comparison
  dot <img> [--routine NAME]                        Program Summary Graph as GraphViz
  profiles                                          list generator benchmarks
  serve [--listen HOST:PORT] [--unix PATH] [--workers N] [--cache-bytes N]
        [--queue N] [--max-frame-bytes N] [--deadline-ms N]
        [--snapshot PATH] [--snapshot-interval-ms N]
        [--cluster A,B,C --shard-index I]
                                                    run the analysis daemon;
                                                    --snapshot keeps the cached
                                                    images in PATH and re-analyzes
                                                    them at the next start
  route --listen HOST:PORT --cluster A,B,C [--workers N] [--max-frame-bytes N]
                                                    run a cluster's routing front: a
                                                    daemon that owns no image and
                                                    forwards each to its shard
  client <cmd> [args] --connect <HOST:PORT|unix:PATH> [--deadline-ms N]
                                                    run analyze/lint/optimize/query/
                                                    compare/stats/shutdown against a
                                                    daemon; --cluster A,B,C instead of
                                                    --connect routes straight to the
                                                    owning shard
  loadgen --connect HOST:PORT [--connections N] [--inflight N] [--images M]
          [--routines K] [--seed S]                 hold N concurrent connections
                                                    against a daemon and report
                                                    p50/p95/p99 latency as JSON

analyze, lint, optimize, query and compare run the daemon's request handler
in process: stdout and exit code are what `client <cmd>` gets from a daemon.
";

/// Parses and executes one invocation. The returned code is the process
/// exit status: 0 on success, 1 when `lint` or `query uninit` has
/// error-severity findings, and 2 via the `Err` path for usage and I/O
/// problems. The commands the daemon serves (`analyze`, `lint`,
/// `optimize`, `query`, `compare`) run its request handler in process,
/// so `spike <cmd>` and `spike client <cmd>` print the same bytes.
pub fn dispatch(args: &[String]) -> Result<ExitCode> {
    let ok = |()| ExitCode::SUCCESS;
    let mut it = args.iter().map(String::as_str);
    match it.next() {
        Some("gen") => gen(&args[1..]).map(ok),
        Some("gen-exec") => gen_exec(&args[1..]).map(ok),
        Some("asm") => asm(&args[1..]).map(ok),
        Some("disasm") => disasm(&args[1..]).map(ok),
        Some(cmd @ ("analyze" | "lint" | "optimize" | "query" | "compare")) => {
            local(cmd, &args[1..])
        }
        Some("run") => cmd_run(&args[1..]).map(ok),
        Some("profile") => cmd_profile(&args[1..]).map(ok),
        Some("dot") => dot(&args[1..]).map(ok),
        Some("serve") => serve(&args[1..]).map(ok),
        Some("route") => route(&args[1..]).map(ok),
        Some("client") => client(&args[1..]),
        Some("loadgen") => loadgen(&args[1..]).map(ok),
        Some("profiles") => {
            let mut text = String::new();
            for p in spike_synth::profiles() {
                text += &format!(
                    "{:<10} {:>7} routines {:>9} instructions  {}\n",
                    p.name, p.routines, p.instructions, p.description
                );
            }
            to_stdout(&text).map(ok)
        }
        Some("--help" | "-h" | "help") | None => to_stdout(USAGE).map(ok),
        Some(other) => Err(format!("unknown command `{other}`\n{USAGE}").into()),
    }
}

/// Writes `text` to stdout. A reader that closes the pipe early (`spike
/// disasm img | head -1`) ends the output quietly: the rest is dropped
/// and the command keeps the exit code it computed. Any other write
/// error is an I/O problem (exit 2).
fn to_stdout(text: &str) -> Result<()> {
    let mut stdout = io::stdout().lock();
    match stdout.write_all(text.as_bytes()).and_then(|()| stdout.flush()) {
        Err(e) if e.kind() != io::ErrorKind::BrokenPipe => {
            Err(format!("cannot write stdout: {e}").into())
        }
        _ => Ok(()),
    }
}

/// Writes `text` to stderr, the twin of [`to_stdout`] for diagnostics and
/// the one way this binary writes there. A reader that closes the pipe
/// early (`spike analyze img 2>&1 >/dev/null | true`) ends the
/// diagnostics quietly and the command keeps the exit code it computed;
/// so does any other write error, which there is nowhere left to report.
pub(crate) fn to_stderr(text: &str) {
    let mut stderr = io::stderr().lock();
    let _ = stderr.write_all(text.as_bytes()).and_then(|()| stderr.flush());
}

/// Pulls `--flag value` pairs and positionals out of an argument list.
struct Opts<'a> {
    positional: Vec<&'a str>,
    scale: f64,
    seed: u64,
    routines: usize,
    fuel: u64,
    out: Option<&'a str>,
    summaries: bool,
    routine: Option<&'a str>,
    iterate: bool,
    incremental: bool,
    licm: bool,
    profile: Option<&'a str>,
    format: &'a str,
    listen: Option<&'a str>,
    connect: Option<&'a str>,
    workers: usize,
    max_frame_bytes: Option<usize>,
    deadline_ms: Option<u64>,
    cluster: Vec<String>,
    connections: usize,
    inflight: usize,
    images: usize,
}

fn parse(args: &[String]) -> Result<Opts<'_>> {
    let mut o = Opts {
        positional: Vec::new(),
        scale: 0.05,
        seed: 1,
        routines: 6,
        fuel: 10_000_000,
        out: None,
        summaries: false,
        routine: None,
        iterate: false,
        incremental: true,
        licm: true,
        profile: None,
        format: "human",
        listen: None,
        connect: None,
        workers: 0,
        max_frame_bytes: None,
        deadline_ms: None,
        cluster: Vec::new(),
        connections: 10_000,
        inflight: 32,
        images: 4,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut want = |name: &str| -> Result<&str> {
            it.next().map(String::as_str).ok_or_else(|| format!("{name} needs a value").into())
        };
        match a.as_str() {
            "--scale" => o.scale = want("--scale")?.parse()?,
            "--seed" => o.seed = want("--seed")?.parse()?,
            "--routines" => o.routines = want("--routines")?.parse()?,
            "--fuel" => o.fuel = want("--fuel")?.parse()?,
            "-o" | "--out" => o.out = Some(want("-o")?),
            "--summaries" => o.summaries = true,
            "--routine" => o.routine = Some(want("--routine")?),
            "--iterate" => o.iterate = true,
            "--incremental" => o.incremental = true,
            "--no-incremental" => o.incremental = false,
            "--no-licm" => o.licm = false,
            "--profile" => o.profile = Some(want("--profile")?),
            "--format" => o.format = want("--format")?,
            "--listen" => o.listen = Some(want("--listen")?),
            "--connect" => o.connect = Some(want("--connect")?),
            "--workers" => o.workers = want("--workers")?.parse()?,
            "--max-frame-bytes" => o.max_frame_bytes = Some(want("--max-frame-bytes")?.parse()?),
            "--deadline-ms" => o.deadline_ms = Some(want("--deadline-ms")?.parse()?),
            "--cluster" => {
                o.cluster = want("--cluster")?.split(',').map(|s| s.trim().to_string()).collect();
            }
            "--connections" => o.connections = want("--connections")?.parse()?,
            "--inflight" => o.inflight = want("--inflight")?.parse()?,
            "--images" => o.images = want("--images")?.parse()?,
            other if other.starts_with('-') => {
                return Err(format!("unknown option `{other}`").into())
            }
            other => o.positional.push(other),
        }
    }
    Ok(o)
}

fn load(path: &str) -> Result<Program> {
    let bytes = fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Ok(Program::from_image(&bytes)?)
}

/// Loads a `--profile` file and verifies it binds to `image`. A stale or
/// corrupt profile is a usage error (exit 2), with the same message the
/// daemon puts in its `bad-request` response.
fn load_profile(path: &str, image: &[u8]) -> Result<spike_profile::Profile> {
    let profile = spike_profile::Profile::load(Path::new(path))
        .map_err(|e| format!("cannot load profile {path}: {e}"))?;
    if !profile.matches(image) {
        return Err(format!(
            "{path}: profile was collected from a different program image (stale profile)"
        )
        .into());
    }
    Ok(profile)
}

fn save(program: &Program, path: &str) -> Result<()> {
    fs::write(path, program.to_image()).map_err(|e| format!("cannot write {path}: {e}"))?;
    Ok(())
}

fn gen(args: &[String]) -> Result<()> {
    let o = parse(args)?;
    let [name] = o.positional[..] else {
        return Err("gen needs a benchmark name (see `spike profiles`)".into());
    };
    let profile =
        spike_synth::profile(name).ok_or_else(|| format!("unknown benchmark `{name}`"))?;
    let program = spike_synth::generate(&profile, o.scale, o.seed);
    let out = o.out.ok_or("gen needs -o <img>")?;
    save(&program, out)?;
    to_stdout(&format!(
        "wrote {out}: {} routines, {} instructions ({} at scale {})\n",
        program.routines().len(),
        program.total_instructions(),
        name,
        o.scale
    ))?;
    Ok(())
}

fn gen_exec(args: &[String]) -> Result<()> {
    let o = parse(args)?;
    let program = spike_synth::try_generate_executable(o.seed, o.routines)
        .map_err(|e| format!("cannot generate {} routines: {e}", o.routines))?;
    let out = o.out.ok_or("gen-exec needs -o <img>")?;
    save(&program, out)?;
    to_stdout(&format!(
        "wrote {out}: {} routines, {} instructions (runnable)\n",
        program.routines().len(),
        program.total_instructions()
    ))?;
    Ok(())
}

fn asm(args: &[String]) -> Result<()> {
    let o = parse(args)?;
    let [path] = o.positional[..] else {
        return Err("asm needs a source path".into());
    };
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let program = spike_asm::parse_asm(&text)?;
    let out = o.out.ok_or("asm needs -o <img>")?;
    save(&program, out)?;
    to_stdout(&format!(
        "wrote {out}: {} routines, {} instructions\n",
        program.routines().len(),
        program.total_instructions()
    ))?;
    Ok(())
}

fn disasm(args: &[String]) -> Result<()> {
    let o = parse(args)?;
    let [path] = o.positional[..] else {
        return Err("disasm needs an image path".into());
    };
    let program = load(path)?;
    // The output is the assembler's input format: `spike asm` accepts it.
    to_stdout(&spike_asm::write_asm(&program))
}

fn cmd_run(args: &[String]) -> Result<()> {
    let o = parse(args)?;
    let [path] = o.positional[..] else {
        return Err("run needs an image path".into());
    };
    let program = load(path)?;
    match spike_sim::run(&program, o.fuel) {
        Outcome::Halted { output, steps } => {
            to_stdout(&output.iter().map(|v| format!("{v}\n")).collect::<String>())?;
            to_stderr(&format!("halted after {steps} instructions\n"));
            Ok(())
        }
        Outcome::OutOfFuel { .. } => Err(format!("did not halt within {} steps", o.fuel).into()),
        Outcome::Fault(f) => Err(format!("fault: {f}").into()),
        other => Err(format!("unexpected simulator outcome: {other:?}").into()),
    }
}

fn cmd_profile(args: &[String]) -> Result<()> {
    let o = parse(args)?;
    let [path] = o.positional[..] else {
        return Err("profile needs an image path".into());
    };
    let bytes = fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let program = Program::from_image(&bytes)?;
    let out = o.out.map(str::to_string).unwrap_or_else(|| format!("{path}.prof"));

    let (outcome, exec) = spike_sim::run_profiled(&program, o.fuel);
    let mut profile = spike_profile::Profile::collect(&program, &exec);

    // A profile file for the same image accumulates: counts from every
    // run add up. A file bound to a *different* image is replaced (its
    // counts are meaningless here), with a note on stderr.
    let mut merged = false;
    if fs::metadata(&out).is_ok() {
        let existing = spike_profile::Profile::load(Path::new(&out))
            .map_err(|e| format!("cannot load existing profile {out}: {e}"))?;
        if existing.matches(&bytes) {
            profile.merge(&existing).map_err(|e| format!("cannot merge into {out}: {e}"))?;
            merged = true;
        } else {
            to_stderr(&format!(
                "spike: {out} was collected from a different image; replacing it\n"
            ));
        }
    }
    profile.save(Path::new(&out)).map_err(|e| format!("cannot write {out}: {e}"))?;

    let ending = match &outcome {
        Outcome::Halted { .. } => "halted",
        Outcome::OutOfFuel { .. } => "ran out of fuel",
        Outcome::Fault(_) => "faulted",
        _ => "stopped",
    };
    to_stdout(&format!(
        "wrote {out}: {} after {} instructions, {} call(s); {} run(s) recorded{}\n",
        ending,
        exec.total_steps,
        exec.calls,
        profile.runs,
        if merged { " (merged)" } else { "" }
    ))?;
    Ok(())
}

/// Splits `query`'s positionals into (kind, routine, callee, image).
/// Only `reaches` takes a callee.
fn query_args<'a>(
    positional: &[&'a str],
) -> Result<(QueryKind, &'a str, Option<&'a str>, &'a str)> {
    let (kind, routine, callee, path) = match *positional {
        [kind, routine, path] => (kind, routine, None, path),
        [kind, routine, callee, path] => (kind, routine, Some(callee), path),
        _ => return Err("query needs: query <kind> <routine> [<callee>] <img>".into()),
    };
    let kind = QueryKind::parse(kind)?;
    match (kind, callee) {
        (QueryKind::Reaches, None) => {
            Err("reaches needs: query reaches <caller> <callee> <img>".into())
        }
        (QueryKind::Reaches, Some(_)) | (_, None) => Ok((kind, routine, callee, path)),
        (_, Some(_)) => {
            Err(format!("only `reaches` takes a callee, `{}` does not", kind.name()).into())
        }
    }
}

fn dot(args: &[String]) -> Result<()> {
    let o = parse(args)?;
    let [path] = o.positional[..] else {
        return Err("dot needs an image path".into());
    };
    let program = load(path)?;
    let analysis = analyze(&program);
    let routine = match o.routine {
        Some(name) => Some(
            program.routine_by_name(name).ok_or_else(|| format!("no routine named `{name}`"))?,
        ),
        None => None,
    };
    to_stdout(&analysis.psg.to_dot(&program, routine))
}

fn serve(args: &[String]) -> Result<()> {
    let options = ServeOptions::parse(args)?;
    #[cfg(unix)]
    spike_serve::server::install_sigterm_handler();
    let server = Server::start(&options)?;
    if let Some(addr) = server.tcp_addr() {
        to_stderr(&format!("spike: serving on tcp {addr}\n"));
    }
    if let Some(path) = &options.unix {
        to_stderr(&format!("spike: serving on unix {}\n", path.display()));
    }
    // Returns once a `shutdown` command or SIGTERM drains the daemon;
    // all accepted requests have been answered.
    server.run_to_completion();
    Ok(())
}

/// `spike route`: a daemon that owns no key of the cluster, so every
/// image-bearing request is forwarded to its owning shard.
fn route(args: &[String]) -> Result<()> {
    let o = parse(args)?;
    let defaults = ServeOptions::default();
    let options = ServeOptions {
        tcp: Some(o.listen.ok_or("route needs --listen HOST:PORT")?.to_string()),
        workers: o.workers,
        max_frame_bytes: o.max_frame_bytes.unwrap_or(defaults.max_frame_bytes),
        cluster: o.cluster.clone(),
        ..defaults
    };
    if options.cluster.is_empty() {
        return Err("route needs --cluster A,B,C (the shard addresses)".into());
    }
    #[cfg(unix)]
    spike_serve::server::install_sigterm_handler();
    let server = Server::start(&options)?;
    if let Some(addr) = server.tcp_addr() {
        to_stderr(&format!(
            "spike: routing on tcp {addr} over {} shard(s)\n",
            options.cluster.len()
        ));
    }
    // Returns once a `shutdown` (which it forwards to every shard first)
    // or SIGTERM drains the front.
    server.run_to_completion();
    Ok(())
}

fn loadgen(args: &[String]) -> Result<()> {
    let o = parse(args)?;
    let options = spike_serve::loadgen::LoadgenOptions {
        connect: o.connect.ok_or("loadgen needs --connect HOST:PORT")?.to_string(),
        connections: o.connections,
        inflight: o.inflight,
    };
    let images: Vec<Vec<u8>> = (0..o.images.max(1))
        .map(|i| spike_synth::generate_executable(o.seed ^ i as u64, o.routines).to_image())
        .collect();
    to_stderr(&format!(
        "spike: loadgen {} connections ({} in flight) against {}\n",
        options.connections, options.inflight, options.connect
    ));
    let report = spike_serve::loadgen::run(&options, &images)
        .map_err(|e| -> Box<dyn Error> { format!("loadgen: {e}").into() })?;
    to_stderr(&format!(
        "spike: {} ok, {} errors, p50 {} us, p95 {} us, p99 {} us\n",
        report.ok, report.errors, report.p50_us, report.p95_us, report.p99_us
    ));
    let mut json = String::new();
    report.to_json().write(&mut json);
    json.push('\n');
    to_stdout(&json)?;
    if report.errors > 0 {
        return Err(format!("loadgen saw {} failed requests", report.errors).into());
    }
    Ok(())
}

fn client(args: &[String]) -> Result<ExitCode> {
    let Some(sub) = args.first().map(String::as_str) else {
        return Err(
            "client needs a subcommand (analyze, lint, optimize, query, compare, stats, shutdown)"
                .into(),
        );
    };
    let o = parse(&args[1..])?;
    // `--connect` names one daemon; `--cluster` lists every shard and
    // the client computes the owning shard itself (no router hop).
    let endpoint = match o.connect {
        Some(c) => Some(Endpoint::parse(c)?),
        None if !o.cluster.is_empty() => None,
        None => {
            return Err("client needs --connect <HOST:PORT|unix:PATH> or --cluster A,B,C".into())
        }
    };
    let (request, blob) = request(sub, &o)?;
    let (mut response, image) = match &endpoint {
        Some(endpoint) => spike_serve::client::request(endpoint, &request, &blob)?,
        None => spike_serve::cluster::cluster_request(&o.cluster, &request, &blob)?,
    };
    if let Some((kind, message)) = &mut response.error {
        *message = format!("daemon refused request ({}): {message}", kind.name());
    }
    reply(&request, &response, &image)
}

/// `spike analyze|lint|optimize|query|compare`: the request `spike
/// client` would send, served by the daemon's [`Handler`] in this
/// process over a fresh store. The deadline is unbounded, so a long
/// local run is never thrown away.
fn local(sub: &str, args: &[String]) -> Result<ExitCode> {
    let o = parse(args)?;
    let (request, blob) = request(sub, &o)?;
    let handler = Handler {
        store: Arc::new(ProgramStore::new(AnalysisOptions::default(), usize::MAX)),
        metrics: Arc::default(),
        queue_capacity: ServeOptions::default().queue_capacity,
        shutdown: Arc::default(),
        cluster: None,
    };
    let deadline = Deadline::starting_now(u64::MAX);
    let (response, image) = handler.handle(&request, &blob, &deadline);
    reply(&request, &response, &image)
}

/// Maps a served command's arguments to its request and frame blob
/// (image ++ validated profile); both transports send exactly this.
fn request(sub: &str, o: &Opts) -> Result<(Request, Vec<u8>)> {
    let image_path = |what: &str| -> Result<&str> {
        match o.positional[..] {
            [path] => Ok(path),
            _ => Err(format!("{what} needs an image path").into()),
        }
    };
    let (cmd, path) = match sub {
        "analyze" => (
            Command::Analyze { summaries: o.summaries, routine: o.routine.map(str::to_string) },
            Some(image_path("analyze")?),
        ),
        "lint" => {
            (Command::Lint { format: LintFormat::parse(o.format)? }, Some(image_path("lint")?))
        }
        "optimize" => (
            Command::Optimize {
                out: o.out.unwrap_or_default().to_string(),
                iterate: o.iterate,
                incremental: o.incremental,
                licm: o.licm,
            },
            Some(image_path("optimize")?),
        ),
        "query" => {
            let (kind, routine, callee, path) = query_args(&o.positional)?;
            (
                Command::Query {
                    kind,
                    routine: routine.to_string(),
                    callee: callee.map(str::to_string),
                },
                Some(path),
            )
        }
        "compare" => (Command::Compare, Some(image_path("compare")?)),
        "stats" => (Command::Stats, None),
        "shutdown" => (Command::Shutdown, None),
        other => return Err(format!("unknown client subcommand `{other}`").into()),
    };

    // An unreadable file is a usage problem (exit 2) on either
    // transport. A `--profile` file rides in the same frame blob, after
    // the image, and is validated here too, so a stale profile fails
    // before any work is done.
    let mut blob = match path {
        Some(p) => fs::read(p).map_err(|e| format!("cannot read {p}: {e}"))?,
        None => Vec::new(),
    };
    if sub == "optimize" && o.out.is_none() {
        return Err("optimize needs -o <img>".into());
    }
    let mut profile_len = 0;
    if let Some(ppath) = o.profile {
        let profile_bytes = load_profile(ppath, &blob)?.to_bytes();
        profile_len = profile_bytes.len();
        blob.extend_from_slice(&profile_bytes);
    }
    let request = Request {
        cmd,
        image_name: path.unwrap_or_default().to_string(),
        deadline_ms: o.deadline_ms,
        profile_len,
    };
    Ok((request, blob))
}

/// Hands a response to the user, whichever transport produced it: the
/// report on stdout, diagnostics (timings, cache disposition) on
/// stderr, the `optimize` image to its `-o` path, and the response's
/// exit code. An error response is `error: <message>` and exit 2.
fn reply(request: &Request, response: &Response, image: &[u8]) -> Result<ExitCode> {
    if let Some((_, message)) = &response.error {
        to_stderr(&response.diag);
        return Err(message.as_str().into());
    }
    if let Command::Optimize { out, .. } = &request.cmd {
        fs::write(out, image).map_err(|e| format!("cannot write {out}: {e}"))?;
    }
    to_stdout(&response.stdout)?;
    to_stderr(&response.diag);
    Ok(ExitCode::from(response.exit))
}
