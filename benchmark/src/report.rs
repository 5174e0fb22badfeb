//! What the harness prints and writes: the per-run result line, the
//! `results.json` of a full run, and the comparison of two such files.

use std::path::Path;

use spike_core::json::Json;

use crate::batch::Workload;
use crate::run::{Config, Outcome, Row};
use crate::spec::{unit_of, Better, END_TO_END, PER_LAYER};
use crate::trace;

fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// The one-line result object: `correct`, `attempted`, `failed`,
/// `metrics` (each `{value, unit}`).
pub fn result_line(outcome: &Outcome) -> String {
    let metrics = outcome
        .metrics
        .iter()
        .map(|(name, value)| {
            let unit = unit_of(name).expect("reported metrics are in the tables");
            (*name, obj(vec![("value", Json::from(*value)), ("unit", Json::from(unit))]))
        })
        .collect();
    let mut out = String::new();
    obj(vec![
        ("correct", Json::from(outcome.correct())),
        ("attempted", Json::from(outcome.attempted)),
        ("failed", Json::from(outcome.failed)),
        ("metrics", obj(metrics)),
    ])
    .write(&mut out);
    out
}

/// Prints every metric as `name value unit`, the failures, and — last —
/// the result line.
pub fn print_run(config: &Config, outcome: &Outcome) {
    println!(
        "# {} seed {} trace {}: {} ops, {:.0} blocks/op",
        config.workload.name(),
        config.seed,
        u8::from(config.trace),
        outcome.attempted,
        outcome.blocks_per_op
    );
    let phases: Vec<String> = outcome.phases.iter().map(|(n, s)| format!("{n} {s:.1} s")).collect();
    println!("# wall-clock: {}", phases.join(", "));
    for (name, value) in &outcome.metrics {
        println!("{name} {value} {}", unit_of(name).unwrap_or(""));
    }
    println!(
        "fail_share {} ratio ({} of {})",
        outcome.fail_share(),
        outcome.failed,
        outcome.attempted
    );
    for row in &outcome.rows {
        let values: Vec<String> = row.values.iter().map(|(k, v)| format!("{k}={v:.4}")).collect();
        println!("#   {}: {}", row.name, values.join(" "));
    }
    for f in outcome.failures.iter().take(20).chain(&outcome.self_check) {
        println!("# FAILED {f}");
    }
    println!("{}", result_line(outcome));
}

fn rows_json(rows: &[Row]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| {
                let mut members = vec![("name".to_string(), Json::from(r.name.as_str()))];
                members.extend(r.values.iter().map(|(k, v)| (k.clone(), Json::from(*v))));
                Json::Obj(members)
            })
            .collect(),
    )
}

/// Writes `trace-<workload>.json` under `dir`: the spans and the
/// per-image rows of a traced run.
pub fn write_trace(dir: &Path, config: &Config, outcome: &Outcome) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}.json", config.workload.name()));
    let mut text = String::new();
    obj(vec![
        ("workload", Json::from(config.workload.name())),
        ("seed", Json::from(config.seed)),
        ("rows", rows_json(&outcome.rows)),
        ("spans", trace::to_json(&outcome.spans)),
    ])
    .write(&mut text);
    text.push('\n');
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs this executable once for `config` as a fresh child process and
/// returns its result object, echoing what it printed before that.
fn child_run(config: &Config, out_dir: &Path) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the harness: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", config.workload.name()])
        .args(["--seed", &config.seed.to_string(), "--seconds", &config.seconds.to_string()])
        .args(["--trace", if config.trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out_dir);
    if config.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| format!("running {}: {e}", config.workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    for l in lines {
        println!("{l}");
    }
    Json::parse(last).map_err(|e| {
        format!(
            "{} printed no result ({e}); it exited with {}",
            config.workload.name(),
            output.status
        )
    })
}

fn metric_values(result: &Json) -> Json {
    let members = match result.get("metrics") {
        Some(Json::Obj(m)) => m.as_slice(),
        _ => &[],
    };
    Json::Obj(
        members
            .iter()
            .map(|(k, v)| (k.clone(), v.get("value").cloned().unwrap_or(Json::Null)))
            .collect(),
    )
}

/// Runs `workloads` — each in its own child process, plain run then
/// traced run — and writes `results.json` under `out_dir`. Returns
/// whether every op of every run was correct.
pub fn run_all(
    workloads: &[Workload],
    seed: u64,
    seconds: f64,
    smoke: bool,
    out_dir: &Path,
) -> Result<bool, String> {
    let mut all_correct = true;
    let mut entries = Vec::new();
    for &workload in workloads {
        let mut config = Config { workload, seed, seconds, trace: false, smoke };
        let plain = child_run(&config, out_dir)?;
        config.trace = true;
        let traced = child_run(&config, out_dir)?;
        let count = |r: &Json, k: &str| r.get(k).and_then(Json::as_u64).unwrap_or(0);
        let (attempted, failed) = (
            count(&plain, "attempted") + count(&traced, "attempted"),
            count(&plain, "failed") + count(&traced, "failed"),
        );
        let correct = |r: &Json| r.get("correct") == Some(&Json::Bool(true));
        all_correct &= correct(&plain) && correct(&traced);
        let trace_path = out_dir.join(format!("trace-{}.json", workload.name()));
        let rows = std::fs::read_to_string(&trace_path)
            .ok()
            .and_then(|t| Json::parse(&t).ok())
            .and_then(|t| t.get("rows").cloned())
            .unwrap_or(Json::Arr(Vec::new()));
        entries.push((
            workload.name(),
            obj(vec![
                ("attempted", Json::from(attempted)),
                ("failed", Json::from(failed)),
                ("fail_share", Json::from(failed as f64 / attempted.max(1) as f64)),
                ("end_to_end", metric_values(&plain)),
                ("per_layer", metric_values(&traced)),
                ("rows", rows),
            ]),
        ));
    }
    let mut text = String::new();
    obj(vec![
        ("seed", Json::from(seed)),
        ("seconds", Json::from(seconds)),
        ("smoke", Json::from(smoke)),
        ("workloads", obj(entries)),
    ])
    .write(&mut text);
    text.push('\n');
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let path = out_dir.join("results.json");
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# wrote {}", path.display());
    Ok(all_correct)
}

/// How one metric fared between two runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// Within the bound (identical, for an exact metric).
    Ok,
    /// Better by more than the bound's width (at all, for an exact metric).
    Improved,
    /// Worse by more than the bound (at all, for an exact metric).
    Regressed,
    /// A time or load-dependent count of a single layer: shown, not judged.
    Info,
}

/// Judges `b` against `a` for a metric that may worsen by `bound` (a
/// share of `a`) in direction `better`.
pub fn judge(a: f64, b: f64, better: Better, bound: f64) -> Verdict {
    let worse_by = match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    let allowed = bound * a.abs();
    if worse_by > allowed {
        Verdict::Regressed
    } else if -worse_by > allowed && worse_by != 0.0 {
        Verdict::Improved
    } else {
        Verdict::Ok
    }
}

/// One line of the comparison table.
pub struct Compared {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: &'static str,
    /// Which direction is an improvement.
    pub better: Better,
    /// Value in the first file.
    pub a: f64,
    /// Value in the second file.
    pub b: f64,
    /// How `b` fares against `a`.
    pub verdict: Verdict,
}

/// Compares two `results.json` documents metric by metric: end-to-end
/// metrics against their bounds, the failed share and the exact per-layer
/// metrics against a bound of 0 (any worsening regresses, any gain shows
/// as improved); the other per-layer metrics are listed without a verdict.
pub fn compare(a: &Json, b: &Json) -> Result<Vec<Compared>, String> {
    let mut rows = Vec::new();
    let workloads = |j: &Json| match j.get("workloads") {
        Some(Json::Obj(m)) => Ok(m.clone()),
        _ => Err("not a results.json: no workloads".to_string()),
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    for (name, ea) in &wa {
        let Some((_, eb)) = wb.iter().find(|(n, _)| n == name) else {
            return Err(format!("workload {name} is missing from the second file"));
        };
        let pair = |section: &str, metric: &str| -> Result<(f64, f64), String> {
            let value = |e: &Json| {
                let v =
                    if section.is_empty() { e.get(metric) } else { e.get(section)?.get(metric) };
                v.and_then(Json::as_f64)
            };
            value(ea).zip(value(eb)).ok_or(format!("{name}: no {metric}"))
        };
        let mut push = |metric, better, (a, b): (f64, f64), verdict| {
            rows.push(Compared { workload: name.clone(), metric, better, a, b, verdict });
        };
        for m in &END_TO_END {
            let (va, vb) = pair("end_to_end", m.name)?;
            push(m.name, m.better, (va, vb), judge(va, vb, m.better, m.bound));
        }
        // Any increase of the failed share is a regression.
        let (fa, fb) = pair("", "fail_share")?;
        push("fail_share", Better::Lower, (fa, fb), judge(fa, fb, Better::Lower, 0.0));
        for m in &PER_LAYER {
            let (va, vb) = pair("per_layer", m.name)?;
            let verdict = if m.exact { judge(va, vb, m.better, 0.0) } else { Verdict::Info };
            push(m.name, m.better, (va, vb), verdict);
        }
    }
    Ok(rows)
}

/// `compare A.json B.json`: prints one row per workload × metric and
/// returns whether nothing regressed.
pub fn compare_files(a: &Path, b: &Path) -> Result<bool, String> {
    let load = |p: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let rows = compare(&load(a)?, &load(b)?)?;
    println!(
        "{:<14} {:<32} {:<6} {:>16} {:>16} {:>8}  verdict",
        "workload", "metric", "better", "A", "B", "B/A"
    );
    let mut regressed = 0;
    for r in &rows {
        let ratio = if r.a != 0.0 { format!("{:.3}", r.b / r.a) } else { "-".to_string() };
        let word = match r.verdict {
            Verdict::Ok => "ok",
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Info => "",
        };
        println!(
            "{:<14} {:<32} {:<6} {:>16.4} {:>16.4} {ratio:>8}  {word}",
            r.workload,
            r.metric,
            r.better.name(),
            r.a,
            r.b
        );
        regressed += usize::from(r.verdict == Verdict::Regressed);
    }
    println!("# {regressed} regression(s) in {} rows", rows.len());
    Ok(regressed == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_are_shares_of_the_first_value_in_the_metrics_direction() {
        use Better::{Higher, Lower};
        assert_eq!(judge(100.0, 109.0, Lower, 0.10), Verdict::Ok);
        assert_eq!(judge(100.0, 111.0, Lower, 0.10), Verdict::Regressed);
        assert_eq!(judge(100.0, 85.0, Lower, 0.10), Verdict::Improved);
        assert_eq!(judge(100.0, 91.0, Higher, 0.10), Verdict::Ok);
        assert_eq!(judge(100.0, 89.0, Higher, 0.10), Verdict::Regressed);
        assert_eq!(judge(100.0, 120.0, Higher, 0.10), Verdict::Improved);
        // A bound of 0: any worsening regresses, equality is fine.
        assert_eq!(judge(0.0, 0.0, Lower, 0.0), Verdict::Ok);
        assert_eq!(judge(0.0, 0.01, Lower, 0.0), Verdict::Regressed);
    }

    fn results(p50: f64, blocks: f64, fail: f64) -> Json {
        let section = |names: Vec<&'static str>, special: (&str, f64)| {
            obj(names
                .into_iter()
                .map(|n| (n, Json::from(if n == special.0 { special.1 } else { 1.0 })))
                .collect())
        };
        let entry = obj(vec![
            ("fail_share", Json::from(fail)),
            (
                "end_to_end",
                section(END_TO_END.iter().map(|m| m.name).collect(), ("op_ms_p50", p50)),
            ),
            (
                "per_layer",
                section(PER_LAYER.iter().map(|m| m.name).collect(), ("cfg.blocks", blocks)),
            ),
        ]);
        obj(vec![("workloads", obj(vec![("analyze-mid", entry)]))])
    }

    #[test]
    fn compare_applies_bounds_exactness_and_the_failure_gate() {
        let regressed = |a: &Json, b: &Json| -> Vec<String> {
            compare(a, b)
                .unwrap()
                .into_iter()
                .filter(|r| r.verdict == Verdict::Regressed)
                .map(|r| r.metric.to_string())
                .collect()
        };
        let base = results(10.0, 500.0, 0.0);
        assert!(regressed(&base, &base).is_empty());
        let bound = END_TO_END.iter().find(|m| m.name == "op_ms_p50").unwrap().bound;
        assert!(regressed(&base, &results(10.0 * (1.0 + bound) - 0.1, 500.0, 0.0)).is_empty());
        assert_eq!(
            regressed(&base, &results(10.0 * (1.0 + bound) + 0.1, 500.0, 0.0)),
            ["op_ms_p50"]
        );
        // An exact count regresses only in its worse direction.
        assert_eq!(regressed(&base, &results(10.0, 501.0, 0.0)), ["cfg.blocks"]);
        assert!(regressed(&base, &results(10.0, 499.0, 0.0)).is_empty());
        let fewer = compare(&base, &results(10.0, 499.0, 0.0)).unwrap();
        let blocks = fewer.iter().find(|r| r.metric == "cfg.blocks").unwrap();
        assert_eq!(blocks.verdict, Verdict::Improved);
        assert_eq!(regressed(&base, &results(10.0, 500.0, 0.01)), ["fail_share"]);
        let rows = compare(&base, &base).unwrap();
        assert_eq!(rows.len(), END_TO_END.len() + 1 + PER_LAYER.len());
        assert!(compare(&base, &obj(vec![("workloads", obj(vec![]))])).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let outcome = Outcome {
            attempted: 10,
            failed: 1,
            metrics: vec![("op_ms_p50", 1.25), ("setup_s", 0.5)],
            ..Outcome::default()
        };
        let json = Json::parse(&result_line(&outcome)).unwrap();
        let Json::Obj(members) = &json else { panic!("not an object") };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(json.get("correct"), Some(&Json::Bool(false)));
        let m = json.get("metrics").and_then(|m| m.get("op_ms_p50")).unwrap();
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("ms"));
    }
}
