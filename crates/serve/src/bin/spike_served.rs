//! The standalone daemon binary. `spike serve` is the same runtime
//! reached through the main CLI; this binary exists so a deployment can
//! ship the service without the rest of the toolchain.

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

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let options = match ServeOptions::parse(&args) {
        Ok(o) => o,
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
