//! Regenerates every table and figure of the paper's evaluation (§4).
//!
//! ```text
//! report [--scale S] [--seed N] [--baseline] [SECTION...]
//! SECTION: table1 table2 table3 table4 table5 fig13 fig14 fig15 opts
//!          ablate all
//! ```
//!
//! `--scale` shrinks every benchmark proportionally (default 0.1); pass
//! `--scale 1` for paper-sized programs. `--baseline` additionally runs
//! the full-CFG analysis and prints its time/memory comparison. With no
//! section (or `all`) every table and figure plus `opts` prints;
//! `ablate`, the §3.4 callee-saved filter ablation, prints only when
//! named.
//!
//! This binary reproduces the paper and nothing else. What the system
//! costs end to end and layer by layer — the analyze, optimize and
//! daemon paths — is measured by the standalone `benchmark/` package
//! (`bash benchmark/run.sh`).

#![forbid(unsafe_code)]

use std::collections::BTreeSet;

use spike_bench::{linear_fit, BenchRun, DEFAULT_SEED};
use spike_sim::Outcome;
use spike_synth::{generate_executable, profiles, Suite};

/// The sections `all` (and no argument) expands to, in print order.
const PAPER_SECTIONS: [&str; 9] =
    ["table1", "table2", "table3", "table4", "table5", "fig13", "fig14", "fig15", "opts"];

fn main() {
    let mut scale = 0.1f64;
    let mut seed = DEFAULT_SEED;
    let mut with_baseline = false;
    let mut sections: BTreeSet<String> = BTreeSet::new();

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                scale = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--scale needs a positive number"));
            }
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"));
            }
            "--baseline" => with_baseline = true,
            "--help" | "-h" => {
                println!(
                    "report [--scale S] [--seed N] [--baseline] [{}|ablate|all]",
                    PAPER_SECTIONS.join("|")
                );
                return;
            }
            s if PAPER_SECTIONS.contains(&s) || s == "ablate" || s == "all" => {
                sections.insert(s.to_string());
            }
            other => die(&format!("unknown argument {other}")),
        }
    }
    if sections.is_empty() || sections.contains("all") {
        sections.extend(PAPER_SECTIONS.iter().map(|s| s.to_string()));
    }

    let want_runs = sections.iter().any(|s| !matches!(s.as_str(), "table1" | "ablate"));

    println!("# Spike interprocedural dataflow — evaluation report");
    println!("# scale = {scale}, seed = {seed:#x}\n");

    if sections.contains("table1") {
        table1();
    }

    let runs: Vec<BenchRun> = if want_runs {
        profiles()
            .iter()
            .map(|p| {
                eprintln!("measuring {} ...", p.name);
                BenchRun::measure(p, scale, seed, with_baseline)
            })
            .collect()
    } else {
        Vec::new()
    };

    if sections.contains("table2") {
        table2(&runs, with_baseline);
    }
    if sections.contains("table3") {
        table3(&runs);
    }
    if sections.contains("table4") {
        table4(&runs);
    }
    if sections.contains("table5") {
        table5(&runs);
    }
    if sections.contains("fig13") {
        fig13(&runs);
    }
    if sections.contains("fig14") {
        fig_scaling(&runs, "Figure 14: total analysis time", |r| r.total_secs() * 1e3, "time (ms)");
    }
    if sections.contains("fig15") {
        fig_scaling(&runs, "Figure 15: analysis memory", |r| r.memory_mb(), "memory (MB)");
    }
    if sections.contains("opts") {
        opts_report(&runs, seed);
    }
    if sections.contains("ablate") {
        ablate(scale, seed);
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn suite_of(s: Suite) -> &'static str {
    match s {
        Suite::SpecInt95 => "SPECint95",
        Suite::PcApp => "PC App",
    }
}

fn table1() {
    println!("## Table 1: PC application benchmarks\n");
    println!("{:<10} description", "app");
    for p in profiles().iter().filter(|p| p.suite == Suite::PcApp) {
        println!("{:<10} {}", p.name, p.description);
    }
    println!();
}

fn table2(runs: &[BenchRun], with_baseline: bool) {
    println!("## Table 2: benchmark size, dataflow analysis time and memory usage\n");
    println!(
        "{:<10} {:<10} {:>9} {:>13} {:>10} {:>11} {:>12}",
        "suite", "benchmark", "routines", "basic blocks", "instr (k)", "time (s)", "memory (MB)"
    );
    for r in runs {
        println!(
            "{:<10} {:<10} {:>9} {:>13} {:>10.1} {:>11.3} {:>12.2}",
            suite_of(r.profile.suite),
            r.profile.name,
            r.routines(),
            r.blocks(),
            r.instructions() as f64 / 1e3,
            r.total_secs(),
            r.memory_mb(),
        );
    }
    if with_baseline {
        println!("\n  (full-CFG baseline comparison)");
        println!(
            "{:<10} {:>13} {:>14} {:>13} {:>14}",
            "benchmark", "psg time (s)", "cfg time (s)", "psg mem (MB)", "cfg mem (MB)"
        );
        for r in runs {
            if let Some(b) = &r.baseline {
                println!(
                    "{:<10} {:>13.3} {:>14.3} {:>13.2} {:>14.2}",
                    r.profile.name,
                    r.total_secs(),
                    b.stats.total().as_secs_f64(),
                    r.memory_mb(),
                    b.stats.memory_bytes as f64 / 1e6,
                );
            }
        }
    }
    println!();
}

fn table3(runs: &[BenchRun]) {
    println!("## Table 3: benchmark characteristics influencing PSG size\n");
    println!(
        "{:<10} {:>10} {:>8} {:>8} {:>10} {:>11} {:>11}",
        "benchmark", "entr/rtn", "exit/rtn", "call/rtn", "branch/rtn", "nodes/rtn", "edges/rtn"
    );
    for r in runs {
        let n = r.routines() as f64;
        let cfgs = r.analysis.cfg.cfgs();
        let entrances: usize = cfgs.iter().map(|c| c.entries().len()).sum();
        let exits: usize = cfgs.iter().map(|c| c.exits().len()).sum();
        let calls: usize = cfgs.iter().map(|c| c.call_count()).sum();
        let branches: usize = cfgs.iter().map(|c| c.branch_count()).sum();
        let stats = r.analysis.psg.stats();
        println!(
            "{:<10} {:>10.2} {:>8.2} {:>8.2} {:>10.2} {:>11.2} {:>11.2}",
            r.profile.name,
            entrances as f64 / n,
            exits as f64 / n,
            calls as f64 / n,
            branches as f64 / n,
            stats.nodes as f64 / n,
            stats.edges as f64 / n,
        );
    }
    println!();
}

fn table4(runs: &[BenchRun]) {
    println!("## Table 4: PSG edge reduction provided by branch nodes\n");
    println!(
        "{:<10} {:>16} {:>15} {:>12} {:>12}",
        "benchmark", "edge reduction", "node increase", "edges with", "edges w/o"
    );
    for r in runs {
        println!(
            "{:<10} {:>15.1}% {:>14.1}% {:>12} {:>12}",
            r.profile.name,
            r.edge_reduction_pct(),
            r.node_increase_pct(),
            r.analysis.psg.stats().edges,
            r.no_branch_nodes.psg.stats().edges,
        );
    }
    println!();
}

fn table5(runs: &[BenchRun]) {
    println!("## Table 5: PSG nodes and edges vs CFG basic blocks and arcs\n");
    println!(
        "{:<10} {:>10} {:>10} {:>12} {:>10} {:>12} {:>11}",
        "benchmark",
        "psg nodes",
        "psg edges",
        "basic blocks",
        "cfg arcs",
        "nodes/block",
        "edges/arc"
    );
    for r in runs {
        let stats = r.analysis.psg.stats();
        let counts = r.analysis.cfg.counts();
        println!(
            "{:<10} {:>10} {:>10} {:>12} {:>10} {:>12.2} {:>11.2}",
            r.profile.name,
            stats.nodes,
            stats.edges,
            counts.basic_blocks,
            counts.total_arcs(),
            stats.nodes as f64 / counts.basic_blocks as f64,
            stats.edges as f64 / counts.total_arcs() as f64,
        );
    }
    let nodes: usize = runs.iter().map(|r| r.analysis.psg.stats().nodes).sum();
    let blocks: usize = runs.iter().map(|r| r.analysis.cfg.counts().basic_blocks).sum();
    let edges: usize = runs.iter().map(|r| r.analysis.psg.stats().edges).sum();
    let arcs: usize = runs.iter().map(|r| r.analysis.cfg.counts().total_arcs()).sum();
    println!(
        "\n  average: PSG has {:.0}% fewer nodes than CFG blocks, {:.0}% fewer edges than CFG arcs",
        100.0 * (1.0 - nodes as f64 / blocks as f64),
        100.0 * (1.0 - edges as f64 / arcs as f64),
    );
    println!();
}

fn fig13(runs: &[BenchRun]) {
    println!("## Figure 13: fraction of total time per analysis stage\n");
    println!(
        "{:<10} {:>10} {:>8} {:>10} {:>9} {:>9}",
        "benchmark", "cfg build", "init", "psg build", "phase 1", "phase 2"
    );
    for r in runs {
        let s = &r.analysis.stats;
        let total = s.total().as_secs_f64().max(1e-12);
        let pct = |d: std::time::Duration| 100.0 * d.as_secs_f64() / total;
        println!(
            "{:<10} {:>9.1}% {:>7.1}% {:>9.1}% {:>8.1}% {:>8.1}%",
            r.profile.name,
            pct(s.cfg_build),
            pct(s.init),
            pct(s.psg_build),
            pct(s.phase1),
            pct(s.phase2),
        );
    }
    println!();
}

fn fig_scaling(runs: &[BenchRun], title: &str, metric: impl Fn(&BenchRun) -> f64, unit: &str) {
    println!("## {title} as a function of program size\n");
    println!(
        "{:<10} {:>9} {:>13} {:>10} {:>14}",
        "benchmark", "routines", "basic blocks", "instr (k)", unit
    );
    let mut sorted: Vec<&BenchRun> = runs.iter().collect();
    sorted.sort_by_key(|r| r.blocks());
    for r in &sorted {
        println!(
            "{:<10} {:>9} {:>13} {:>10.1} {:>14.3}",
            r.profile.name,
            r.routines(),
            r.blocks(),
            r.instructions() as f64 / 1e3,
            metric(r),
        );
    }
    for (label, xs) in [
        ("routines", sorted.iter().map(|r| r.routines() as f64).collect::<Vec<_>>()),
        ("basic blocks", sorted.iter().map(|r| r.blocks() as f64).collect()),
        ("instructions", sorted.iter().map(|r| r.instructions() as f64).collect()),
    ] {
        let ys: Vec<f64> = sorted.iter().map(|r| metric(r)).collect();
        let (slope, _, r2) = linear_fit(&xs, &ys);
        println!("  linear fit vs {label}: slope {slope:.3e} {unit}/unit, R² = {r2:.3}");
    }
    println!();
}

/// Ablation of the §3.4 callee-saved filter: how much larger the
/// caller-visible summaries get when definitions and uses of saved
/// registers are allowed to leak to call sites.
fn ablate(scale: f64, seed: u64) {
    use spike_core::{analyze_with, AnalysisOptions};

    println!("## Ablation: §3.4 callee-saved register filtering\n");
    println!(
        "{:<10} {:>14} {:>14} {:>14} {:>14}",
        "benchmark", "killed (on)", "killed (off)", "used (on)", "used (off)"
    );
    for name in ["compress", "li", "gcc", "texim"] {
        let p = spike_synth::profile(name).expect("known benchmark");
        let program = spike_synth::generate(&p, scale, seed);
        let on = analyze_with(&program, &AnalysisOptions::default());
        let off = analyze_with(
            &program,
            &AnalysisOptions { callee_saved_filter: false, ..AnalysisOptions::default() },
        );
        let avg = |a: &spike_core::Analysis, f: fn(&spike_core::RoutineSummary) -> f64| {
            let total: f64 = a.summary.routines().iter().map(f).sum();
            total / a.summary.routines().len() as f64
        };
        let killed = |s: &spike_core::RoutineSummary| {
            s.call_killed.iter().map(|k| k.len()).sum::<usize>() as f64
                / s.call_killed.len().max(1) as f64
        };
        let used = |s: &spike_core::RoutineSummary| {
            s.call_used.iter().map(|k| k.len()).sum::<usize>() as f64
                / s.call_used.len().max(1) as f64
        };
        println!(
            "{:<10} {:>14.2} {:>14.2} {:>14.2} {:>14.2}",
            name,
            avg(&on, killed),
            avg(&off, killed),
            avg(&on, used),
            avg(&off, used),
        );
    }
    println!(
        "\n  smaller call-killed/call-used sets mean more registers provably\n  \
         survive calls — the enabler for Figure 1(c)/(d).\n"
    );
}

fn opts_report(runs: &[BenchRun], seed: u64) {
    println!("## Optimization impact (Figure 1 motivation)\n");
    println!("static effect on profile benchmarks (instructions removed):\n");
    println!(
        "{:<10} {:>8} {:>8} {:>9} {:>9} {:>9}",
        "benchmark", "before", "after", "dead", "spills", "reallocs"
    );
    for r in runs.iter().take(4) {
        match spike_opt::optimize(&r.program) {
            Ok((_, rep)) => println!(
                "{:<10} {:>8} {:>8} {:>9} {:>9} {:>9}",
                r.profile.name,
                rep.instructions_before,
                rep.instructions_after,
                rep.dead_deleted,
                rep.spill_pairs_removed,
                rep.registers_reallocated,
            ),
            Err(e) => println!("{:<10} optimization failed: {e}", r.profile.name),
        }
    }

    println!("\ndynamic effect on executable programs (simulated steps):\n");
    println!(
        "{:<8} {:>12} {:>12} {:>9} {:>14} {:>13}",
        "program", "steps before", "steps after", "speedup", "overhead before", "after"
    );
    let mut total_before = 0u64;
    let mut total_after = 0u64;
    let mut ovh_before = 0u64;
    let mut ovh_after = 0u64;
    for i in 0..8u64 {
        let p = generate_executable(seed.wrapping_add(i), 12);
        let (q, _) = spike_opt::optimize(&p).expect("optimization succeeds");
        let (out0, prof0) = spike_sim::run_profiled(&p, 10_000_000);
        let (out1, prof1) = spike_sim::run_profiled(&q, 10_000_000);
        let (Outcome::Halted { steps: s0, output: o0 }, Outcome::Halted { steps: s1, output: o1 }) =
            (out0, out1)
        else {
            panic!("generated executables must halt");
        };
        assert_eq!(o0, o1, "optimization must preserve behaviour");
        total_before += s0;
        total_after += s1;
        ovh_before += prof0.call_overhead_steps;
        ovh_after += prof1.call_overhead_steps;
        println!(
            "exec-{i:<3} {s0:>12} {s1:>12} {:>8.1}% {:>13.1}% {:>12.1}%",
            100.0 * (s0 - s1) as f64 / s0 as f64,
            100.0 * prof0.overhead_fraction(),
            100.0 * prof1.overhead_fraction(),
        );
    }
    println!(
        "\n  total: {total_before} -> {total_after} steps ({:.1}% fewer); \
         call-overhead instructions {ovh_before} -> {ovh_after}\n  \
         (the paper's §1 motivation: call overhead is up to 16% of runtime;\n  \
         Figure 1(c)/(d) remove exactly these instructions)\n",
        100.0 * (total_before - total_after) as f64 / total_before as f64
    );
}
