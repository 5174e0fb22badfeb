//! End-to-end tests of the `spike` binary: every subcommand, driven the
//! way a user would drive it, through real image files on disk.

use std::path::PathBuf;
use std::process::{Command, Output};

fn spike(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_spike-cli")).args(args).output().expect("binary runs")
}

fn tmp(name: &str) -> (tempdir::TempDirGuard, String) {
    let dir = tempdir::create();
    let path = dir.path.join(name).to_string_lossy().into_owned();
    (dir, path)
}

/// Minimal self-cleaning temp dir (no external crates).
mod tempdir {
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    static COUNTER: AtomicU64 = AtomicU64::new(0);

    pub struct TempDirGuard {
        pub path: PathBuf,
    }

    impl Drop for TempDirGuard {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.path);
        }
    }

    pub fn create() -> TempDirGuard {
        let path = std::env::temp_dir().join(format!(
            "spike-cli-test-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path).expect("temp dir");
        TempDirGuard { path }
    }
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

#[test]
fn help_lists_commands() {
    let o = spike(&["--help"]);
    assert!(o.status.success());
    for cmd in ["gen", "disasm", "analyze", "optimize", "run", "lint", "compare"] {
        assert!(stdout(&o).contains(cmd), "missing {cmd}");
    }
}

#[test]
fn unknown_command_fails_cleanly() {
    let o = spike(&["frobnicate"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("unknown command"));
}

#[test]
fn profiles_lists_all_sixteen() {
    let o = spike(&["profiles"]);
    assert!(o.status.success());
    let out = stdout(&o);
    for name in ["compress", "gcc", "acad", "winword"] {
        assert!(out.contains(name));
    }
}

#[test]
fn gen_analyze_compare_pipeline() {
    let (_dir, img) = tmp("li.img");
    let o = spike(&["gen", "li", "--scale", "0.05", "--seed", "3", "-o", &img]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).contains("routines"));

    let o = spike(&["analyze", &img]);
    assert!(o.status.success(), "{}", stderr(&o));
    let out = stdout(&o);
    assert!(out.contains("psg:"));
    assert!(out.contains("call graph:"));

    let o = spike(&["analyze", &img, "--routine", "r1"]);
    assert!(o.status.success());
    assert!(stdout(&o).contains("call-used"));

    let o = spike(&["compare", &img]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).contains("summaries identical"));
}

#[test]
fn gen_exec_optimize_run_pipeline() {
    let (_dir, img) = tmp("prog.img");
    let (_dir2, opt) = tmp("prog.opt.img");

    let o = spike(&["gen-exec", "--seed", "7", "--routines", "5", "-o", &img]);
    assert!(o.status.success(), "{}", stderr(&o));

    let before = spike(&["run", &img]);
    assert!(before.status.success(), "{}", stderr(&before));

    let o = spike(&["optimize", &img, "-o", &opt]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).contains("instructions"));

    let after = spike(&["run", &opt]);
    assert!(after.status.success(), "{}", stderr(&after));
    // Identical observable output.
    assert_eq!(stdout(&before), stdout(&after));
}

#[test]
fn disasm_emits_reassemblable_text() {
    let dir = tempdir::create();
    let img = dir.path.join("gcc.img");
    let asm = dir.path.join("gcc.s");
    let img2 = dir.path.join("gcc2.img");
    let o = spike(&["gen", "gcc", "--scale", "0.01", "--seed", "5", "-o", img.to_str().unwrap()]);
    assert!(o.status.success(), "{}", stderr(&o));

    let o = spike(&["disasm", img.to_str().unwrap()]);
    assert!(o.status.success());
    let text = stdout(&o);
    assert!(text.contains(".routine r0"));
    assert!(text.contains("bsr") || text.contains("jsr"));

    // disasm | asm round-trips to a byte-identical image.
    std::fs::write(&asm, &text).unwrap();
    let o = spike(&["asm", asm.to_str().unwrap(), "-o", img2.to_str().unwrap()]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert_eq!(std::fs::read(&img).unwrap(), std::fs::read(&img2).unwrap());
}

/// A reader that stops after one line (`spike disasm img | head -1`)
/// ends the output quietly: no panic, no crash exit.
#[test]
fn a_closed_stdout_ends_the_output_quietly() {
    use std::io::BufRead as _;
    use std::process::Stdio;

    let (_dir, img) = tmp("gcc.img");
    let o = spike(&["gen", "gcc", "--scale", "0.05", "--seed", "1", "-o", &img]);
    assert!(o.status.success(), "{}", stderr(&o));
    for args in [&["disasm", &img][..], &["analyze", &img, "--summaries"]] {
        // More than a pipe buffer, so the writer is still writing when
        // the reader goes away.
        assert!(spike(args).stdout.len() > 64 << 10, "{args:?} must print over 64 KiB");
        let mut child = Command::new(env!("CARGO_BIN_EXE_spike-cli"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary runs");
        let mut first = String::new();
        let mut out = std::io::BufReader::new(child.stdout.take().unwrap());
        out.read_line(&mut first).unwrap();
        assert!(!first.is_empty(), "{args:?}: one line arrives");
        drop(out);
        let o = child.wait_with_output().unwrap();
        assert_ne!(o.status.code(), Some(101), "{args:?}: {}", stderr(&o));
        assert!(!stderr(&o).contains("panicked"), "{args:?}: {}", stderr(&o));
    }
}

/// A reader that has gone before the command writes its diagnostics
/// (`spike analyze img 2>&1 >/dev/null | true`) ends them quietly: the
/// command exits with its own code — 0, 1 for lint findings, 2 for the
/// `error:` line — not 101.
#[test]
fn a_closed_stderr_keeps_the_commands_exit_code() {
    use std::process::Stdio;

    let (_dir, img) = tmp("exec.img");
    let o = spike(&["gen-exec", "--seed", "3", "--routines", "6", "-o", &img]);
    assert!(o.status.success(), "{}", stderr(&o));
    let (_src_dir, src) = tmp("bad.s");
    std::fs::write(&src, ".routine main\n    addq t0, t0, v0\n    putint\n    halt\n").unwrap();
    let (_bad_dir, bad) = tmp("bad.img");
    let o = spike(&["asm", &src, "-o", &bad]);
    assert!(o.status.success(), "{}", stderr(&o));

    let cases: [(&[&str], i32); 5] = [
        (&["analyze", &img], 0),
        (&["run", &img], 0),
        (&["lint", &bad], 1),
        (&["analyze", "/nonexistent/missing.img"], 2),
        (&["frobnicate"], 2),
    ];
    for (args, code) in cases {
        // The read end is dropped before the child starts, so every
        // write to its stderr meets a closed pipe.
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let o = Command::new(env!("CARGO_BIN_EXE_spike-cli"))
            .args(args)
            .stdout(Stdio::null())
            .stderr(Stdio::from(writer))
            .output()
            .expect("binary runs");
        assert_eq!(o.status.code(), Some(code), "{args:?}");
    }
}

#[test]
fn dot_emits_graphviz() {
    let (_dir, img) = tmp("dot.img");
    let o = spike(&["gen-exec", "--seed", "2", "--routines", "3", "-o", &img]);
    assert!(o.status.success(), "{}", stderr(&o));
    let o = spike(&["dot", &img, "--routine", "main"]);
    assert!(o.status.success(), "{}", stderr(&o));
    let out = stdout(&o);
    assert!(out.starts_with("digraph psg {"));
    assert!(out.contains("main entry 0"));
}

#[test]
fn asm_reports_errors_with_line_numbers() {
    let dir = tempdir::create();
    let src = dir.path.join("bad.s");
    std::fs::write(&src, ".routine main\n    frobnicate a0\n    halt\n").unwrap();
    let o = spike(&["asm", src.to_str().unwrap(), "-o", "/dev/null"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("line 2"));
}

#[test]
fn hand_written_assembly_runs() {
    let dir = tempdir::create();
    let src = dir.path.join("prog.s");
    let img = dir.path.join("prog.img");
    std::fs::write(
        &src,
        "\
.routine main
    lda a0, 20(zero)
    bsr double
    putint
    halt

.routine double
    addq a0, a0, v0
    ret (ra)
",
    )
    .unwrap();
    let o = spike(&["asm", src.to_str().unwrap(), "-o", img.to_str().unwrap()]);
    assert!(o.status.success(), "{}", stderr(&o));
    let o = spike(&["run", img.to_str().unwrap()]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert_eq!(stdout(&o).trim(), "40");
}

#[test]
fn run_reports_faults_and_missing_files() {
    let o = spike(&["run", "/nonexistent/image.img"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("cannot read"));

    let o = spike(&["analyze"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("needs an image path"));
}

#[test]
fn corrupt_images_are_rejected() {
    let dir = tempdir::create();
    let path: PathBuf = dir.path.join("junk.img");
    std::fs::write(&path, b"not an image").unwrap();
    let o = spike(&["analyze", path.to_str().unwrap()]);
    assert!(!o.status.success());
}

#[test]
fn a_merged_profile_reports_the_calls_of_this_run() {
    let (_dir, img) = tmp("prog.img");
    let prof = format!("{img}.prof");
    let o = spike(&["gen-exec", "--seed", "7", "--routines", "5", "-o", &img]);
    assert!(o.status.success(), "{}", stderr(&o));

    let calls = |line: &str| -> String {
        let before = line.split(" call(s)").next().expect("a call count");
        before.rsplit(' ').next().expect("a number").to_string()
    };
    let first = spike(&["profile", &img, "-o", &prof]);
    assert!(first.status.success(), "{}", stderr(&first));
    let second = spike(&["profile", &img, "-o", &prof]);
    assert!(second.status.success(), "{}", stderr(&second));
    let (first, second) = (stdout(&first), stdout(&second));
    assert!(second.contains("2 run(s) recorded (merged)"), "{second}");
    assert_eq!(calls(&first), calls(&second), "first: {first}second: {second}");
    assert_ne!(calls(&first), "0", "the run makes calls: {first}");
}
