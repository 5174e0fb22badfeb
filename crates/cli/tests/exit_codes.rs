//! Exit-code audit for the `spike` binary. The contract (documented in
//! `main.rs` and README): 0 = success, and for `lint` specifically no
//! error-severity findings; 1 = `lint` found errors; 2 = usage or I/O
//! problems, for every subcommand.

use std::process::{Command, Output};

fn spike(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_spike-cli")).args(args).output().expect("binary runs")
}

fn code(o: &Output) -> i32 {
    o.status.code().expect("no signal")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

struct TempDirGuard {
    path: std::path::PathBuf,
}

impl Drop for TempDirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

fn tempdir(tag: &str) -> TempDirGuard {
    let path = std::env::temp_dir().join(format!("spike-exit-codes-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&path).expect("temp dir");
    TempDirGuard { path }
}

/// Assembles `text` into an image file and returns its path.
fn assemble(dir: &TempDirGuard, name: &str, text: &str) -> String {
    let src = dir.path.join(format!("{name}.s"));
    let img = dir.path.join(format!("{name}.img"));
    std::fs::write(&src, text).unwrap();
    let o = spike(&["asm", src.to_str().unwrap(), "-o", img.to_str().unwrap()]);
    assert_eq!(code(&o), 0, "{}", stderr(&o));
    img.to_string_lossy().into_owned()
}

#[test]
fn lint_clean_program_exits_zero() {
    let dir = tempdir("clean");
    let img = dir.path.join("prog.img");
    let o = spike(&["gen-exec", "--seed", "11", "--routines", "5", "-o", img.to_str().unwrap()]);
    assert_eq!(code(&o), 0, "{}", stderr(&o));

    let o = spike(&["lint", img.to_str().unwrap()]);
    assert_eq!(code(&o), 0, "{}{}", stdout(&o), stderr(&o));
    assert!(stdout(&o).contains("0 error(s)"));

    let o = spike(&["lint", img.to_str().unwrap(), "--format", "json"]);
    assert_eq!(code(&o), 0);
    let json = stdout(&o);
    assert!(json.starts_with("{\"tool\":\"spike-lint\""));
    assert!(json.contains("\"summary\":{\"errors\":0,"));
}

#[test]
fn lint_warnings_do_not_fail_the_exit_code() {
    let dir = tempdir("warn");
    // The write to t0 is never read: a dead-store warning, not an error.
    let img = assemble(&dir, "warn", ".routine main\n    lda t0, 1(zero)\n    halt\n");
    let o = spike(&["lint", &img]);
    assert_eq!(code(&o), 0, "{}", stdout(&o));
    assert!(stdout(&o).contains("warning[dead-store]"));
}

#[test]
fn lint_error_findings_exit_one() {
    let dir = tempdir("uninit");
    // t0 is read before any write: an uninit-read error.
    let img = assemble(&dir, "bad", ".routine main\n    addq t0, t0, v0\n    putint\n    halt\n");

    let o = spike(&["lint", &img]);
    assert_eq!(code(&o), 1, "{}", stdout(&o));
    assert!(stdout(&o).contains("error[uninit-read]"));

    let o = spike(&["lint", &img, "--format", "json"]);
    assert_eq!(code(&o), 1);
    assert!(stdout(&o).contains("\"check\":\"uninit-read\""));
}

#[test]
fn lint_reports_malformed_images_as_findings() {
    let dir = tempdir("malformed");
    let path = dir.path.join("junk.img");
    std::fs::write(&path, b"not an image").unwrap();
    let o = spike(&["lint", path.to_str().unwrap()]);
    assert_eq!(code(&o), 1, "{}", stderr(&o));
    assert!(stdout(&o).contains("error[malformed-image]"));

    let o = spike(&["lint", path.to_str().unwrap(), "--format", "json"]);
    assert_eq!(code(&o), 1);
    assert!(stdout(&o).contains("\"check\":\"malformed-image\""));
}

#[test]
fn optimize_rejects_a_relocation_to_a_non_instruction_address() {
    use spike_isa::{Instruction, Reg};

    let dir = tempdir("badreloc");
    let img = assemble(&dir, "reloc", ".routine main\n    lda t0, &t\nt:\n    halt\n");
    let mut bytes = std::fs::read(&img).unwrap();

    // The image ends with its one relocation record, `(addr, target)`.
    // Point both the record and the `lda` immediate it describes far past
    // the program's two instructions.
    let tail = bytes.len() - 4;
    let target = u32::from_le_bytes(bytes[tail..].try_into().unwrap());
    let bad = target + 100;
    let lda = |disp: u32| {
        Instruction::Lda { rd: Reg::T0, base: Reg::ZERO, disp: disp as i16 }.encode().to_le_bytes()
    };
    let at = bytes.windows(4).position(|w| w == lda(target)).expect("the lda word");
    bytes[at..at + 4].copy_from_slice(&lda(bad));
    bytes[tail..].copy_from_slice(&bad.to_le_bytes());
    std::fs::write(&img, &bytes).unwrap();

    let out = dir.path.join("out.img");
    let o = spike(&["optimize", &img, "-o", out.to_str().unwrap()]);
    assert_eq!(code(&o), 2, "{}", stderr(&o));
    assert!(stderr(&o).contains("holds no instruction"), "{}", stderr(&o));
    assert!(!stderr(&o).contains("panicked"), "{}", stderr(&o));
}

/// Kills the daemon child on test failure; the happy path takes it out
/// with [`ServeGuard::into_inner`] to assert a graceful exit instead.
struct ServeGuard {
    child: Option<std::process::Child>,
}

impl ServeGuard {
    fn into_inner(mut self) -> std::process::Child {
        self.child.take().expect("child not yet taken")
    }
}

impl Drop for ServeGuard {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Starts `spike serve` on a Unix socket and waits until it accepts
/// requests.
fn start_daemon(sock: &str) -> ServeGuard {
    let child = Command::new(env!("CARGO_BIN_EXE_spike-cli"))
        .args(["serve", "--unix", sock, "--workers", "2"])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("daemon starts");
    let guard = ServeGuard { child: Some(child) };
    let connect = format!("unix:{sock}");
    for _ in 0..200 {
        if std::path::Path::new(sock).exists() {
            let o = spike(&["client", "stats", "--connect", &connect]);
            if code(&o) == 0 {
                return guard;
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    panic!("daemon did not come up on {sock}");
}

#[test]
fn client_relays_daemon_exit_codes_and_output_bytes() {
    let dir = tempdir("client");
    let sock = dir.path.join("d.sock").to_string_lossy().into_owned();
    let connect = format!("unix:{sock}");
    let clean =
        assemble(&dir, "clean", ".routine main\n    lda v0, 7(zero)\n    putint\n    halt\n");
    let bad = assemble(&dir, "bad", ".routine main\n    addq t0, t0, v0\n    putint\n    halt\n");
    let two = assemble(
        &dir,
        "two",
        ".routine main\n    lda a0, 1(zero)\n    bsr leaf\n    putint\n    halt\n\
         .routine leaf\n    addq a0, a0, v0\n    ret (ra)\n",
    );
    let out = dir.path.join("out.img").to_string_lossy().into_owned();
    let empty = dir.path.join("empty.img").to_string_lossy().into_owned();
    std::fs::write(&empty, b"").unwrap();

    let daemon = start_daemon(&sock);

    // The same exit code, stdout bytes and written image whether the
    // command runs in process or through the daemon.
    let run = |args: &[&str]| {
        let o = spike(args);
        let image = std::fs::read(&out).ok();
        let _ = std::fs::remove_file(&out);
        (o, image)
    };
    for (args, exit) in [
        (vec!["lint", clean.as_str()], 0),
        (vec!["analyze", clean.as_str()], 0),
        (vec!["lint", clean.as_str(), "--format", "json"], 0),
        (vec!["query", "summary", "main", clean.as_str()], 0),
        (vec!["query", "live-at-entry", "main", clean.as_str()], 0),
        (vec!["query", "uninit", "main", clean.as_str()], 0),
        (vec!["optimize", two.as_str(), "-o", out.as_str()], 0),
        (vec!["compare", two.as_str()], 0),
        (vec!["analyze", two.as_str(), "--summaries"], 0),
        (vec!["analyze", two.as_str(), "--routine", "main"], 0),
        (vec!["query", "reaches", "main", "leaf", two.as_str()], 0),
        (vec!["query", "reaches", "leaf", "main", two.as_str()], 0),
        (vec!["analyze", two.as_str(), "--routine", "nope"], 2),
        (vec!["query", "summary", "nope", two.as_str()], 2),
        (vec!["lint", empty.as_str()], 1),
        (vec!["analyze", empty.as_str()], 2),
    ] {
        let (local, local_image) = run(&args);
        let mut remote_args = vec!["client"];
        remote_args.extend(&args);
        remote_args.extend(["--connect", connect.as_str()]);
        let (remote, remote_image) = run(&remote_args);
        assert_eq!(code(&local), exit, "{:?}: {}", args, stderr(&local));
        assert_eq!(code(&remote), exit, "client {:?}: {}", args, stderr(&remote));
        assert_eq!(remote.stdout, local.stdout, "client {:?} diverged from local", args);
        assert_eq!(local_image.is_some(), args.contains(&"-o"), "{args:?}");
        assert_eq!(remote_image, local_image, "client {:?} wrote another image", args);
    }

    // A zero-byte image is a truncated one on either transport.
    for args in
        [vec!["analyze", empty.as_str()], vec!["client", "analyze", &empty, "--connect", &connect]]
    {
        let o = spike(&args);
        assert!(stderr(&o).contains("image is truncated"), "{args:?}: {}", stderr(&o));
    }

    // `optimize` without `-o` fails before it optimizes.
    let o = spike(&["optimize", &two]);
    assert_eq!(code(&o), 2, "{}", stderr(&o));
    assert!(stderr(&o).contains("needs -o"), "{}", stderr(&o));

    // Lint errors are relayed as exit 1, same report bytes.
    let local = spike(&["lint", &bad]);
    let remote = spike(&["client", "lint", &bad, "--connect", &connect]);
    assert_eq!(code(&remote), 1);
    assert_eq!(remote.stdout, local.stdout);
    assert!(stdout(&remote).contains("error[uninit-read]"));

    // An unreadable image fails client-side with the local message.
    let o = spike(&["client", "lint", "/nonexistent/image.img", "--connect", &connect]);
    assert_eq!(code(&o), 2);
    assert!(stderr(&o).contains("cannot read"));

    // Graceful shutdown: the command exits 0 and so does the daemon.
    let o = spike(&["client", "shutdown", "--connect", &connect]);
    assert_eq!(code(&o), 0, "{}", stderr(&o));
    let status = daemon.into_inner().wait().expect("daemon exits");
    assert_eq!(status.code(), Some(0), "daemon must drain and exit 0");
}

/// Reads one complete request frame (8-byte header + body) so the fake
/// daemons below can fail *after* the client has committed its request.
fn drain_request(conn: &mut impl std::io::Read) {
    let mut header = [0u8; 8];
    conn.read_exact(&mut header).expect("request header");
    let json = u32::from_be_bytes(header[0..4].try_into().unwrap()) as usize;
    let blob = u32::from_be_bytes(header[4..8].try_into().unwrap()) as usize;
    let mut body = vec![0u8; json + blob];
    conn.read_exact(&mut body).expect("request body");
}

/// Transport failures mid-conversation are exit 2 (infrastructure), never
/// 0 or 1 (verdicts): a truncated response must not read as "clean".
#[test]
fn client_transport_failures_exit_two() {
    use std::io::Write as _;
    use std::os::unix::net::UnixListener;

    let dir = tempdir("transport");
    let img = assemble(&dir, "ok", ".routine main\n    lda v0, 7(zero)\n    putint\n    halt\n");

    // A daemon that replies with a frame header promising 100 bytes of
    // response, sends 10, and closes: the client dies mid-frame.
    let sock = dir.path.join("trunc.sock").to_string_lossy().into_owned();
    let listener = UnixListener::bind(&sock).unwrap();
    let t = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        drain_request(&mut conn);
        let mut frame = Vec::new();
        frame.extend_from_slice(&100u32.to_be_bytes());
        frame.extend_from_slice(&0u32.to_be_bytes());
        frame.extend_from_slice(&[b'{'; 10]);
        let _ = conn.write_all(&frame);
    });
    let o = spike(&["client", "lint", &img, "--connect", &format!("unix:{sock}")]);
    t.join().unwrap();
    assert_eq!(code(&o), 2, "truncated frame: {}", stderr(&o));
    assert!(stderr(&o).contains("mid-frame"), "{}", stderr(&o));

    // A daemon that reads the request, then closes without replying.
    let sock = dir.path.join("close.sock").to_string_lossy().into_owned();
    let listener = UnixListener::bind(&sock).unwrap();
    let t = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        drain_request(&mut conn);
    });
    let o = spike(&["client", "lint", &img, "--connect", &format!("unix:{sock}")]);
    t.join().unwrap();
    assert_eq!(code(&o), 2, "connection closed without reply: {}", stderr(&o));
    assert!(stderr(&o).contains("without replying"), "{}", stderr(&o));

    // A daemon that slams the door before even reading the request: the
    // client sees a reset or an immediate EOF, both infrastructure.
    let sock = dir.path.join("reset.sock").to_string_lossy().into_owned();
    let listener = UnixListener::bind(&sock).unwrap();
    let t = std::thread::spawn(move || {
        let (conn, _) = listener.accept().unwrap();
        drop(conn);
    });
    let o = spike(&["client", "lint", &img, "--connect", &format!("unix:{sock}")]);
    t.join().unwrap();
    assert_eq!(code(&o), 2, "connection reset: {}", stderr(&o));
}

#[test]
fn query_exit_codes_follow_the_contract() {
    let dir = tempdir("query");
    let clean = assemble(
        &dir,
        "clean",
        ".routine main\n    lda a0, 1(zero)\n    bsr leaf\n    putint\n    halt\n\
         .routine leaf\n    addq a0, a0, v0\n    ret (ra)\n",
    );
    let bad = assemble(&dir, "bad", ".routine main\n    addq t0, t0, v0\n    putint\n    halt\n");

    // Answerable queries exit 0, whatever the verdict.
    for args in [
        vec!["query", "summary", "main", clean.as_str()],
        vec!["query", "live-at-entry", "leaf", clean.as_str()],
        vec!["query", "reaches", "main", "leaf", clean.as_str()],
        vec!["query", "reaches", "leaf", "main", clean.as_str()],
        vec!["query", "uninit", "main", clean.as_str()],
    ] {
        let o = spike(&args);
        assert_eq!(code(&o), 0, "{args:?}: {}{}", stdout(&o), stderr(&o));
        assert!(!stdout(&o).is_empty(), "{args:?} printed nothing");
    }

    // `uninit` findings exit 1, like lint.
    let o = spike(&["query", "uninit", "main", &bad]);
    assert_eq!(code(&o), 1, "{}{}", stdout(&o), stderr(&o));
    assert!(stdout(&o).contains("error[uninit-read]"));

    // Usage problems exit 2.
    for args in [
        vec!["query", "summary", "nope", clean.as_str()],
        vec!["query", "reaches", "main", "nope", clean.as_str()],
        vec!["query", "frobnicate", "main", clean.as_str()],
        vec!["query", "reaches", "main", clean.as_str()],
        vec!["query", "summary", "main", "leaf", clean.as_str()],
        vec!["query", "summary", "main", "/nonexistent/image.img"],
        vec!["query", "summary"],
    ] {
        let o = spike(&args);
        assert_eq!(code(&o), 2, "{args:?}: {}{}", stdout(&o), stderr(&o));
    }
}

#[test]
fn client_connect_and_usage_failures_exit_two() {
    let dir = tempdir("client-fail");
    let img = assemble(&dir, "ok", ".routine main\n    halt\n");

    // Nothing listening.
    let o = spike(&["client", "lint", &img, "--connect", "unix:/nonexistent/d.sock"]);
    assert_eq!(code(&o), 2);
    assert!(stderr(&o).contains("cannot connect"), "{}", stderr(&o));

    // Usage problems.
    let o = spike(&["client", "lint", &img]);
    assert_eq!(code(&o), 2);
    assert!(stderr(&o).contains("--connect"));
    let o = spike(&["client", "frobnicate", "--connect", "unix:/tmp/x.sock"]);
    assert_eq!(code(&o), 2);
    assert!(stderr(&o).contains("unknown client subcommand"));
    let o = spike(&["client"]);
    assert_eq!(code(&o), 2);
    assert!(stderr(&o).contains("needs a subcommand"));

    // `serve` with no listener configured is a usage problem too.
    let o = spike(&["serve"]);
    assert_eq!(code(&o), 2);
    assert!(stderr(&o).contains("--listen"));
    // The connection path follows the platform; the flag that used to
    // pick it is gone (spelled in two pieces: CI greps the tree for it).
    let o = spike(&["serve", "--unix", "/tmp/unused.sock", concat!("--no-", "reactor")]);
    assert_eq!(code(&o), 2);
    assert!(stderr(&o).contains("unknown option"), "{}", stderr(&o));
}

#[test]
fn usage_and_io_problems_exit_two() {
    // Missing file is exit 2 for every file-taking subcommand.
    for cmd in ["lint", "run", "analyze", "optimize", "compare", "disasm", "dot"] {
        let o = spike(&[cmd, "/nonexistent/image.img"]);
        assert_eq!(code(&o), 2, "{cmd} on a missing file");
        assert!(stderr(&o).contains("cannot read"), "{cmd}: {}", stderr(&o));
    }
    // Missing operand.
    let o = spike(&["lint"]);
    assert_eq!(code(&o), 2);
    assert!(stderr(&o).contains("needs an image path"));
    // Bad flag value.
    let dir = tempdir("badflag");
    let img = assemble(&dir, "ok", ".routine main\n    halt\n");
    let o = spike(&["lint", &img, "--format", "yaml"]);
    assert_eq!(code(&o), 2);
    assert!(stderr(&o).contains("--format"));
    // Unknown command / unknown option.
    assert_eq!(code(&spike(&["frobnicate"])), 2);
    assert_eq!(code(&spike(&["lint", &img, "--bogus"])), 2);
    // The front end is serial; the worker-count flag is gone (spelled in
    // two pieces: CI greps the tree for it).
    let out = dir.path.join("out.img").to_string_lossy().into_owned();
    for args in [
        vec!["analyze", &img],
        vec!["optimize", &img, "-o", &out],
        vec!["compare", &img],
        vec!["serve", "--unix", "/tmp/unused.sock"],
    ] {
        let o = spike(&[&args[..], &[concat!("--thr", "eads"), "2"]].concat());
        assert_eq!(code(&o), 2, "{args:?}");
        assert!(stderr(&o).contains("unknown option"), "{args:?}: {}", stderr(&o));
    }
}

/// The `spike-served` binary of the `spike-serve` package, beside this
/// package's `spike-cli` in the same target directory. `cargo build`
/// brings it up to date first, since a `-p spike-cli` run builds only
/// this package's binary.
fn spike_served() -> std::path::PathBuf {
    let cli = std::path::Path::new(env!("CARGO_BIN_EXE_spike-cli"));
    let profile_dir = cli.parent().expect("binary directory");
    let mut build = Command::new(env!("CARGO"));
    build.args(["build", "-q", "-p", "spike-serve", "--bin", "spike-served", "--target-dir"]);
    build.arg(profile_dir.parent().expect("target directory"));
    if profile_dir.ends_with("release") {
        build.arg("--release");
    }
    assert!(build.status().expect("cargo runs").success(), "cannot build spike-served");
    cli.with_file_name(format!("spike-served{}", std::env::consts::EXE_SUFFIX))
}

#[test]
fn serve_and_spike_served_share_one_flag_parser() {
    let served = spike_served();
    // Every case fails while the flags are parsed, before anything binds.
    let cases: [(&[&str], &str); 4] = [
        (&["--unix", "/tmp/unused.sock", "--seed", "3"], "error: unknown option `--seed`"),
        (&["--unix", "/tmp/unused.sock", "--snapshot"], "error: --snapshot needs a value"),
        (
            &["--unix", "/tmp/unused.sock", "--workers", "x"],
            "error: --workers needs a number, got `x`",
        ),
        (
            &["--cache-bytes", "-1", "--unix", "/tmp/unused.sock"],
            "error: --cache-bytes needs a number, got `-1`",
        ),
    ];
    for (args, message) in cases {
        let cli = spike(&[&["serve"][..], args].concat());
        let daemon = Command::new(&served).args(args).output().expect("binary runs");
        for (who, o) in [("spike serve", &cli), ("spike-served", &daemon)] {
            assert_eq!(code(o), 2, "{who} {args:?}: {}", stderr(o));
            assert_eq!(stderr(o).lines().next(), Some(message), "{who} {args:?}");
        }
    }
}

#[test]
fn gen_exec_reports_a_program_too_large_to_encode() {
    // From about 2000 routines a branch displacement outgrows its 21-bit
    // field; the generator's builder error is a usage problem, not a panic.
    let dir = tempdir("gen-exec-big");
    let out = dir.path.join("big.img").to_string_lossy().into_owned();
    let o = spike(&["gen-exec", "--routines", "2000", "--seed", "1", "-o", &out]);
    assert_eq!(code(&o), 2, "{}", stderr(&o));
    assert!(stderr(&o).starts_with("error: "), "{}", stderr(&o));
    assert!(stderr(&o).contains("displacement overflow"), "{}", stderr(&o));
    let o = spike(&["gen-exec", "--routines", "0", "-o", &out]);
    assert_eq!(code(&o), 2, "{}", stderr(&o));
    assert!(stderr(&o).contains("no routines"), "{}", stderr(&o));
}
