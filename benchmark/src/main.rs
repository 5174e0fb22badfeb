//! The repo's benchmark: four workloads over the analyze, optimize and
//! daemon paths, seven user-visible numbers per workload, and per-layer
//! metrics from a traced run. See `README.md` beside this package.
//!
//! ```text
//! spike-benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke] [--out DIR]
//! spike-benchmark all [--workload W] [--seed N] [--seconds S] [--smoke] [--out DIR]
//! spike-benchmark compare A.json B.json
//! ```

mod batch;
mod corpus;
mod oracle;
mod report;
mod run;
mod serve;
mod spec;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use batch::Workload;

/// Seed of a full run when none is given.
const DEFAULT_SEED: u64 = 1;
/// Length of one timed section; `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 35.0;
/// Length of one timed section under `--smoke`.
const SMOKE_SECONDS: f64 = 0.5;

/// Command-line options shared by the run modes.
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    min_passes: usize,
    out: PathBuf,
    rest: Vec<String>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: None,
        smoke: false,
        min_passes: 1,
        out: PathBuf::from("benchmark/out"),
        rest: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        fn num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag}: `{v}` is not a valid number"))
        }
        match arg.as_str() {
            "--workload" => {
                let v = value()?;
                a.workload = Some(Workload::parse(v).ok_or(format!("no workload named `{v}`"))?);
            }
            "--seed" => a.seed = num(arg, value()?)?,
            "--seconds" => a.seconds = Some(num(arg, value()?)?),
            "--min-passes" => a.min_passes = num(arg, value()?)?,
            "--trace" => a.trace = Some(num::<u8>(arg, value()?)? != 0),
            "--out" => a.out = PathBuf::from(value()?),
            "--smoke" => a.smoke = true,
            flag if flag.starts_with("--") => return Err(format!("unknown option `{flag}`")),
            _ => a.rest.push(arg.clone()),
        }
    }
    if a.seconds.is_some_and(|s| !(s.is_finite() && s >= 0.0)) {
        return Err("--seconds must be a non-negative number".to_string());
    }
    Ok(a)
}

fn real_main(argv: &[String]) -> Result<bool, String> {
    let a = parse(argv)?;
    let seconds = a.seconds.unwrap_or(if a.smoke { SMOKE_SECONDS } else { DEFAULT_SECONDS });
    match a.rest.iter().map(String::as_str).collect::<Vec<_>>().as_slice() {
        ["worker"] => {
            let w = a.workload.ok_or("worker needs --workload")?;
            batch::worker_main(w, seconds, a.min_passes, a.trace.unwrap_or(false)).map(|()| true)
        }
        ["daemon"] => serve::daemon_main().map(|()| true),
        ["compare", first, second] => report::compare_files(first.as_ref(), second.as_ref()),
        ["all"] => {
            let workloads = a.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
            report::run_all(&workloads, a.seed, seconds, a.smoke, &a.out)
        }
        [] => {
            let workload = a.workload.ok_or("a run needs --workload (or use `all`)")?;
            let trace = a.trace.ok_or("a run needs --trace 0 or --trace 1")?;
            let config = run::Config { workload, seed: a.seed, seconds, trace, smoke: a.smoke };
            let outcome = run::run(&config)?;
            if trace {
                report::write_trace(&a.out, &config, &outcome)?;
            }
            report::print_run(&config, &outcome);
            Ok(outcome.correct())
        }
        other => Err(format!("unknown command `{}`", other.join(" "))),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        // Failed ops or regressions: the numbers were printed, the exit
        // code says they must not be trusted.
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("spike-benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spike_core::json::Json;

    #[test]
    fn default_run_length_is_the_one_benchmark_json_states() {
        let json = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        assert_eq!(json.get("run_seconds").and_then(Json::as_f64), Some(DEFAULT_SECONDS));
    }

    #[test]
    fn the_contract_flags_parse() {
        let argv: Vec<String> = "--workload serve-mix --seed 7 --seconds 3 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse(&argv).unwrap();
        assert_eq!(a.workload, Some(Workload::ServeMix));
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(3.0), Some(true)));
        assert!(parse(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse(&["--bogus".into()]).is_err());
        assert!(parse(&["--seconds".into(), "-1".into()]).is_err());
    }
}
