//! The standalone daemon binary. `spike serve` is the same runtime
//! reached through the main CLI; this binary exists so a deployment can
//! ship the service without the rest of the toolchain.

use std::path::PathBuf;
use std::process::ExitCode;

use spike_serve::{server, ServeOptions, Server};

const USAGE: &str = "\
usage: spike-served [--listen HOST:PORT] [--unix PATH] [--workers N]
                    [--cache-bytes N] [--queue N] [--max-frame-bytes N]
                    [--deadline-ms N] [--snapshot PATH]
                    [--snapshot-interval-ms N]
                    [--cluster A,B,C --shard-index I]

At least one of --listen / --unix is required. Runs until SIGTERM or a
client sends the `shutdown` command; both drain gracefully and exit 0.

--snapshot writes the cached images to PATH on drain and, at startup,
re-analyzes the images PATH holds into a warm cache (cold fallback on
any unreadable file); with --snapshot-interval-ms it also snapshots
periodically while serving.
--cluster/--shard-index join a sharded cluster: this instance owns its
consistent-hash slice and forwards misrouted requests to the owner.
";

fn parse(args: &[String]) -> Result<ServeOptions, String> {
    let mut o = ServeOptions::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut want = |name: &str| -> Result<&str, String> {
            it.next().map(String::as_str).ok_or_else(|| format!("{name} needs a value"))
        };
        let num = |name: &str, v: &str| -> Result<u64, String> {
            v.parse().map_err(|_| format!("{name} needs a number, got `{v}`"))
        };
        match a.as_str() {
            "--listen" => o.tcp = Some(want("--listen")?.to_string()),
            "--unix" => o.unix = Some(PathBuf::from(want("--unix")?)),
            "--workers" => o.workers = num("--workers", want("--workers")?)? as usize,
            "--cache-bytes" => {
                o.cache_bytes = num("--cache-bytes", want("--cache-bytes")?)? as usize
            }
            "--queue" => o.queue_capacity = num("--queue", want("--queue")?)? as usize,
            "--max-frame-bytes" => {
                o.max_frame_bytes = num("--max-frame-bytes", want("--max-frame-bytes")?)? as usize
            }
            "--deadline-ms" => {
                o.default_deadline_ms = num("--deadline-ms", want("--deadline-ms")?)?
            }
            "--snapshot" => o.snapshot = Some(PathBuf::from(want("--snapshot")?)),
            "--snapshot-interval-ms" => {
                o.snapshot_interval_ms =
                    Some(num("--snapshot-interval-ms", want("--snapshot-interval-ms")?)?)
            }
            "--cluster" => {
                o.cluster = want("--cluster")?.split(',').map(|s| s.trim().to_string()).collect()
            }
            "--shard-index" => {
                o.shard_index = Some(num("--shard-index", want("--shard-index")?)? as usize)
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse(&args) {
        Ok(o) => o,
        Err(msg) if msg.is_empty() => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    #[cfg(unix)]
    server::install_sigterm_handler();
    let server = match Server::start(&options) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(addr) = server.tcp_addr() {
        eprintln!("spike-served: listening on tcp {addr}");
    }
    if let Some(path) = &options.unix {
        eprintln!("spike-served: listening on unix {}", path.display());
    }
    server.run_to_completion();
    eprintln!("spike-served: drained, exiting");
    ExitCode::SUCCESS
}
