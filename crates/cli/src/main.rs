//! `spike` — the command-line front end of the post-link optimizer.
//!
//! ```text
//! spike gen <benchmark> [--scale S] [--seed N] -o prog.img
//! spike gen-exec [--routines K] [--seed N] -o prog.img
//! spike disasm <img>
//! spike analyze <img> [--summaries] [--routine NAME]
//! spike optimize <img> -o out.img
//! spike run <img> [--fuel N]
//! spike lint <img> [--format human|json]
//! spike query <kind> <routine> [<callee>] <img>
//! spike compare <img>
//! spike serve --unix /tmp/spike.sock
//! spike client lint <img> --connect unix:/tmp/spike.sock
//! ```
//!
//! `analyze`, `lint`, `optimize`, `query` and `compare` build the
//! request `spike client` sends and run the daemon's request handler
//! (`spike_serve::handler::Handler`) in process, so local and daemon
//! output are one code path.
//!
//! Exit codes: 0 on success (for `lint`: no error-severity findings),
//! 1 when `lint` or `query uninit` reports errors, 2 on usage or I/O
//! problems. `client` relays the daemon's exit code (so `client lint`
//! still exits 1 on findings) and exits 2 on connect or protocol
//! failures.

#![forbid(unsafe_code)]

use std::process::ExitCode;

mod commands;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&args) {
        Ok(code) => code,
        Err(e) => {
            commands::to_stderr(&format!("error: {e}\n"));
            ExitCode::from(2)
        }
    }
}
