//! Regenerates every table and figure of the paper's evaluation (§4).
//!
//! ```text
//! report [--scale S] [--seed N] [--baseline] [--threads N] [SECTION...]
//! SECTION: table1 table2 table3 table4 table5 fig13 fig14 fig15 opts
//!          parallel incremental serve all
//! ```
//!
//! `--scale` shrinks every benchmark proportionally (default 0.1); pass
//! `--scale 1` for paper-sized programs. `--baseline` additionally runs
//! the full-CFG analysis and prints its time/memory comparison.
//! `--threads` selects the analysis front-end worker count (0 = all
//! available hardware threads). The `parallel` section (not part of
//! `all`) compares threads=1 against threads=N on the two largest
//! benchmarks and writes the measurements to `BENCH_parallel.json`.
//! The `incremental` section (not part of `all`) runs the optimizer with
//! incremental re-analysis off and on, cross-checks bit-identical output
//! programs, and writes the measurements to `BENCH_incremental.json`.
//! The `serve` section (not part of `all`) starts an in-process
//! `spike-served` daemon, measures cold vs warm vs incremental-warm
//! request throughput at 1/4/8 concurrent clients, cross-checks that
//! daemon responses are byte-identical to the local library path, and
//! writes the measurements to `BENCH_serve.json`.
//! The `queries` section (not part of `all`) measures the demand-driven
//! query engine against the whole-program solve on gcc: per-routine cone
//! solve time over a deterministic routine sample, cross-checked
//! bit-identical to the whole-program solution slice, written to
//! `BENCH_query.json`.
//! The `pgo` section (not part of `all`) profiles all 16 benchmarks
//! under the simulator, re-optimizes each with its profile, and counts
//! the dynamic instructions both variants need to produce the same
//! output prefix; written to `BENCH_pgo.json`. It uses a fixed
//! calibrated shape (scale 20/routines, seed 1) rather than `--scale`,
//! matching the workspace PGO property tests.

#![forbid(unsafe_code)]

use std::collections::BTreeSet;

use spike_bench::{linear_fit, BenchRun, DEFAULT_SEED};
use spike_sim::Outcome;
use spike_synth::{generate_executable, profiles, Suite};

fn main() {
    let mut scale = 0.1f64;
    let mut seed = DEFAULT_SEED;
    let mut with_baseline = false;
    let mut threads = 0usize;
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
            "--threads" => {
                threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--threads needs a non-negative integer"));
            }
            "--help" | "-h" => {
                println!(
                    "report [--scale S] [--seed N] [--baseline] [--threads N] \
                     [table1|table2|table3|table4|table5|fig13|fig14|fig15|opts|parallel|\
                     incremental|serve|serve_cluster|queries|pgo|all]"
                );
                return;
            }
            s if [
                "table1",
                "table2",
                "table3",
                "table4",
                "table5",
                "fig13",
                "fig14",
                "fig15",
                "opts",
                "ablate",
                "parallel",
                "incremental",
                "serve",
                "serve_cluster",
                "queries",
                "pgo",
                "all",
            ]
            .contains(&s) =>
            {
                sections.insert(s.to_string());
            }
            other => die(&format!("unknown argument {other}")),
        }
    }
    if sections.is_empty() || sections.contains("all") {
        for s in
            ["table1", "table2", "table3", "table4", "table5", "fig13", "fig14", "fig15", "opts"]
        {
            sections.insert(s.to_string());
        }
    }

    let want_runs = sections.iter().any(|s| {
        !matches!(
            s.as_str(),
            "table1"
                | "ablate"
                | "parallel"
                | "incremental"
                | "serve"
                | "serve_cluster"
                | "queries"
                | "pgo"
        )
    });

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
                BenchRun::measure(p, scale, seed, with_baseline, threads)
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
    if sections.contains("parallel") {
        parallel_report(scale, seed, threads);
    }
    if sections.contains("incremental") {
        incremental_report(scale, seed, threads);
    }
    if sections.contains("serve") {
        serve_report(scale, seed);
    }
    if sections.contains("serve_cluster") {
        serve_cluster_report(scale, seed);
    }
    if sections.contains("queries") {
        queries_report(scale, seed, threads);
    }
    if sections.contains("pgo") {
        pgo_report(threads);
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

/// Compares the per-routine analysis front-end at `threads = 1` against
/// `threads = N` on the two largest benchmarks, cross-checks that both
/// settings produce bit-identical results, and records the measurements
/// in `BENCH_parallel.json`.
fn parallel_report(scale: f64, seed: u64, threads: usize) {
    use spike_core::{analyze_with, Analysis, AnalysisOptions, AnalysisStats};

    let requested = spike_core::parallel::resolve_threads(threads);
    println!("## Parallel front-end: threads=1 vs threads={requested}\n");
    println!(
        "{:<10} {:>9} {:>14} {:>14} {:>9} {:>12}",
        "benchmark", "routines", "front 1t (ms)", "front Nt (ms)", "speedup", "workers used"
    );

    let front_secs = |s: &AnalysisStats| (s.cfg_build + s.init + s.psg_build).as_secs_f64();
    let mut rows = Vec::new();
    for name in ["sqlservr", "winword"] {
        let p = spike_synth::profile(name).expect("known benchmark");
        eprintln!("measuring {name} ...");
        let program = spike_synth::generate(&p, scale, seed);

        // Best of three per setting, to damp scheduler noise.
        let measure = |t: usize| -> Analysis {
            let options = AnalysisOptions { threads: t, ..AnalysisOptions::default() };
            let mut best: Option<Analysis> = None;
            for _ in 0..3 {
                let a = analyze_with(&program, &options);
                if best.as_ref().is_none_or(|b| front_secs(&a.stats) < front_secs(&b.stats)) {
                    best = Some(a);
                }
            }
            best.expect("three measurement iterations ran")
        };
        let serial = measure(1);
        let parallel = measure(requested);

        // The determinism contract, checked on real workloads: identical
        // summaries and identical deterministic memory accounting.
        for (rid, r) in program.iter() {
            assert_eq!(
                serial.summary.routine(rid),
                parallel.summary.routine(rid),
                "threads=1 vs threads={requested} summary mismatch for {}",
                r.name()
            );
        }
        assert_eq!(serial.stats.memory_bytes, parallel.stats.memory_bytes);
        assert_eq!(serial.psg.stats(), parallel.psg.stats());

        let f1 = front_secs(&serial.stats);
        let fn_ = front_secs(&parallel.stats);
        println!(
            "{:<10} {:>9} {:>14.2} {:>14.2} {:>8.2}x {:>12}",
            name,
            program.routines().len(),
            f1 * 1e3,
            fn_ * 1e3,
            f1 / fn_,
            parallel.stats.front_end_workers,
        );
        rows.push(format!(
            "    {{\"benchmark\": \"{name}\", \"routines\": {}, \"scale\": {scale}, \
             \"front_end_secs_threads1\": {f1:.6}, \"front_end_secs_threadsN\": {fn_:.6}, \
             \"total_secs_threads1\": {:.6}, \"total_secs_threadsN\": {:.6}, \
             \"speedup_front_end\": {:.3}, \"workers_used\": {}, \
             \"results_identical\": true}}",
            program.routines().len(),
            serial.stats.total().as_secs_f64(),
            parallel.stats.total().as_secs_f64(),
            f1 / fn_,
            parallel.stats.front_end_workers,
        ));
    }

    let json = format!(
        "{{\n  \"requested_threads\": {requested},\n  \
         \"available_parallelism\": {},\n  \"seed\": {seed},\n  \"runs\": [\n{}\n  ]\n}}\n",
        spike_core::parallel::resolve_threads(0),
        rows.join(",\n"),
    );
    match std::fs::write("BENCH_parallel.json", &json) {
        Ok(()) => println!("\n  wrote BENCH_parallel.json\n"),
        Err(e) => eprintln!("cannot write BENCH_parallel.json: {e}"),
    }
}

/// Runs the full optimizer pipeline with incremental re-analysis disabled
/// and enabled, cross-checks that both modes emit bit-identical programs
/// and identical optimization counts, and records the measurements in
/// `BENCH_incremental.json`.
fn incremental_report(scale: f64, seed: u64, threads: usize) {
    use spike_core::AnalysisOptions;
    use spike_opt::{optimize_with, OptOptions, OptReport};
    use spike_program::Program;

    println!("## Incremental re-analysis: from-scratch vs cached pass manager\n");
    println!(
        "{:<10} {:>9} {:>14} {:>14} {:>9} {:>12} {:>8}",
        "benchmark", "routines", "scratch (ms)", "incr (ms)", "speedup", "reanalyzed", "reused"
    );

    let mut rows = Vec::new();
    for name in ["compress", "li", "gcc", "texim"] {
        let p = spike_synth::profile(name).expect("known benchmark");
        eprintln!("measuring {name} ...");
        let program = spike_synth::generate(&p, scale, seed);

        // Best of three per setting, to damp scheduler noise.
        let measure = |incremental: bool| -> (Program, OptReport, f64) {
            let options = OptOptions {
                analysis: AnalysisOptions { threads, ..AnalysisOptions::default() },
                incremental,
                ..OptOptions::default()
            };
            let mut best: Option<(Program, OptReport, f64)> = None;
            for _ in 0..3 {
                let t = std::time::Instant::now();
                let (q, rep) = optimize_with(&program, &options).expect("optimization succeeds");
                let secs = t.elapsed().as_secs_f64();
                if best.as_ref().is_none_or(|(_, _, b)| secs < *b) {
                    best = Some((q, rep, secs));
                }
            }
            best.expect("three measurement iterations ran")
        };
        let (scratch_prog, scratch_rep, scratch_secs) = measure(false);
        let (incr_prog, incr_rep, incr_secs) = measure(true);

        // The equivalence contract, checked on real workloads: the cached
        // pass manager must emit the same program and the same counts as
        // three from-scratch analysis runs.
        assert_eq!(scratch_prog, incr_prog, "incremental output differs for {name}");
        assert_eq!(scratch_rep.instructions_after, incr_rep.instructions_after);
        assert_eq!(scratch_rep.dead_deleted, incr_rep.dead_deleted);
        assert_eq!(scratch_rep.spill_pairs_removed, incr_rep.spill_pairs_removed);
        assert_eq!(scratch_rep.registers_reallocated, incr_rep.registers_reallocated);
        assert_eq!(scratch_rep.routines_reused, 0, "scratch mode must not reuse");

        println!(
            "{:<10} {:>9} {:>14.2} {:>14.2} {:>8.2}x {:>12} {:>8}",
            name,
            program.routines().len(),
            scratch_secs * 1e3,
            incr_secs * 1e3,
            scratch_secs / incr_secs,
            incr_rep.routines_reanalyzed,
            incr_rep.routines_reused,
        );
        rows.push(format!(
            "    {{\"benchmark\": \"{name}\", \"routines\": {}, \"scale\": {scale}, \
             \"opt_secs_scratch\": {scratch_secs:.6}, \"opt_secs_incremental\": {incr_secs:.6}, \
             \"speedup\": {:.3}, \"rounds\": {}, \
             \"routines_reanalyzed\": {}, \"routines_reused\": {}, \
             \"instructions_removed\": {}, \"results_identical\": true}}",
            program.routines().len(),
            scratch_secs / incr_secs,
            incr_rep.rounds,
            incr_rep.routines_reanalyzed,
            incr_rep.routines_reused,
            incr_rep.instructions_before - incr_rep.instructions_after,
        ));
    }

    let json = format!(
        "{{\n  \"threads\": {threads},\n  \"seed\": {seed},\n  \"runs\": [\n{}\n  ]\n}}\n",
        rows.join(",\n"),
    );
    match std::fs::write("BENCH_incremental.json", &json) {
        Ok(()) => println!("\n  wrote BENCH_incremental.json\n"),
        Err(e) => eprintln!("cannot write BENCH_incremental.json: {e}"),
    }
}

/// Measures the demand-driven query engine on gcc: the one-time engine
/// build, then the marginal cone solve for `live-at-entry` on each of a
/// deterministic sample of routines, each cross-checked bit-identical to
/// the corresponding slice of a whole-program solve. Writes the
/// per-query latencies and the median speedup over the whole-program solve to
/// `BENCH_query.json`.
fn queries_report(scale: f64, seed: u64, threads: usize) {
    use spike_core::{analyze_with, AnalysisOptions, Query, QueryAnswer, QueryEngine};
    use spike_program::RoutineId;
    use std::time::Instant;

    const SAMPLES: usize = 24;

    println!("## Demand-driven queries: per-routine cone solve vs whole-program solve\n");

    let p = spike_synth::profile("gcc").expect("known benchmark");
    eprintln!("measuring gcc ...");
    let program = spike_synth::generate(&p, scale, seed);
    let n = program.routines().len();
    let options = AnalysisOptions { threads, ..AnalysisOptions::default() };

    // Median of three for the two fixed costs, to damp scheduler noise.
    let median3 = |mut f: Box<dyn FnMut() -> f64>| -> f64 {
        let mut t = [f(), f(), f()];
        t.sort_by(f64::total_cmp);
        t[1]
    };
    let full = analyze_with(&program, &options);
    let full_solve_secs = {
        let (program, options) = (&program, &options);
        median3(Box::new(move || {
            let t = Instant::now();
            std::hint::black_box(analyze_with(program, options));
            t.elapsed().as_secs_f64()
        }))
    };
    let engine_build_secs = {
        let (program, options) = (&program, &options);
        median3(Box::new(move || {
            let t = Instant::now();
            std::hint::black_box(QueryEngine::new(program, options));
            t.elapsed().as_secs_f64()
        }))
    };

    // A deterministic seeded sample of distinct routines, spread by a
    // golden-ratio stride so cones of all depths are represented.
    let mut sample: Vec<usize> = Vec::new();
    let mut x = seed | 1;
    while sample.len() < SAMPLES.min(n) {
        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let i = (x >> 33) as usize % n;
        if !sample.contains(&i) {
            sample.push(i);
        }
    }
    sample.sort_unstable();

    println!(
        "  gcc: {n} routines, full solve {:.2} ms, engine build {:.2} ms\n",
        full_solve_secs * 1e3,
        engine_build_secs * 1e3
    );
    println!(
        "{:>8} {:>9} {:>9} {:>9} {:>8} {:>12} {:>9}",
        "routine", "cone rtn", "p1 comps", "p2 comps", "visits", "query (ms)", "speedup"
    );

    let mut rows = Vec::new();
    let mut marginals = Vec::new();
    for &i in &sample {
        let rid = RoutineId::from_index(i);
        // A fresh engine per routine isolates one cold cone: memoization
        // across sampled routines would understate the marginal cost.
        let mut engine = QueryEngine::new(&program, &options);
        let t = Instant::now();
        let (answer, stats) = engine.query(&Query::LiveAtEntry(rid));
        let query_secs = t.elapsed().as_secs_f64();

        // The exactness contract, checked on the measured workload: the
        // demand answer is the bit-identical slice of the whole-program solve.
        let s = full.summary.routine(rid);
        let QueryAnswer::LiveAtEntry { live_at_entry, live_at_exit } = answer else {
            panic!("liveness query must return a liveness answer");
        };
        assert_eq!(live_at_entry, s.live_at_entry, "query diverged for routine {i}");
        assert_eq!(live_at_exit, s.live_at_exit, "query diverged for routine {i}");

        let speedup = full_solve_secs / query_secs;
        println!(
            "{:>8} {:>9} {:>9} {:>9} {:>8} {:>12.3} {:>8.1}x",
            i,
            stats.cone_routines,
            stats.phase1_cone_components,
            stats.phase2_cone_components,
            stats.visits,
            query_secs * 1e3,
            speedup,
        );
        marginals.push(query_secs);
        rows.push(format!(
            "    {{\"routine\": {i}, \"cone_routines\": {}, \
             \"phase1_cone_components\": {}, \"phase2_cone_components\": {}, \
             \"visits\": {}, \"query_secs\": {query_secs:.9}, \"speedup\": {speedup:.3}}}",
            stats.cone_routines,
            stats.phase1_cone_components,
            stats.phase2_cone_components,
            stats.visits,
        ));
    }

    marginals.sort_by(f64::total_cmp);
    let median_query_secs = marginals[marginals.len() / 2];
    let speedup_median = full_solve_secs / median_query_secs;
    println!(
        "\n  median query {:.3} ms vs full solve {:.2} ms: {speedup_median:.1}x \
         (engine build, paid once per image: {:.2} ms)\n",
        median_query_secs * 1e3,
        full_solve_secs * 1e3,
        engine_build_secs * 1e3,
    );

    let json = format!(
        "{{\n  \"benchmark\": \"gcc\",\n  \"scale\": {scale},\n  \"seed\": {seed},\n  \
         \"threads\": {threads},\n  \"routines\": {n},\n  \
         \"full_solve_secs\": {full_solve_secs:.9},\n  \
         \"engine_build_secs\": {engine_build_secs:.9},\n  \
         \"median_query_secs\": {median_query_secs:.9},\n  \
         \"speedup_median\": {speedup_median:.3},\n  \
         \"results_identical\": true,\n  \"queries\": [\n{}\n  ]\n}}\n",
        rows.join(",\n"),
    );
    match std::fs::write("BENCH_query.json", &json) {
        Ok(()) => println!("\n  wrote BENCH_query.json\n"),
        Err(e) => eprintln!("cannot write BENCH_query.json: {e}"),
    }
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

/// Starts an in-process `spike-served`, drives it with 1/4/8 concurrent
/// clients over three request mixes — *cold* (every image new), *warm*
/// (one image re-submitted), *incremental-warm* (small edits of a cached
/// image) — cross-checks that daemon responses are byte-identical to the
/// local library path, and records requests/sec in `BENCH_serve.json`.
fn serve_report(scale: f64, seed: u64) {
    use spike_core::AnalysisOptions;
    use spike_program::Rewriter;
    use spike_serve::{client, render, Command, Endpoint, Request, ServeOptions, Server};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    println!("## Service throughput: cold vs warm vs incremental-warm requests\n");
    println!(
        "{:<10} {:>7} {:>10} {:>10} {:>10} {:>9} {:>9}",
        "benchmark", "clients", "cold r/s", "warm r/s", "incr r/s", "warm x", "incr x"
    );

    let analyze = || Command::Analyze { summaries: false, routine: None };
    let request = |image_name: &str| Request {
        profile_len: 0,
        cmd: analyze(),
        image_name: image_name.to_string(),
        deadline_ms: None,
    };

    // Drives `images` through the daemon from `clients` threads, checking
    // every response succeeded; returns requests/sec.
    let drive = |endpoint: &Endpoint, images: &[Arc<Vec<u8>>], clients: usize| -> f64 {
        let next = AtomicUsize::new(0);
        let t = std::time::Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..clients {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(image) = images.get(i) else { break };
                    let (r, _) = client::request(endpoint, &request("img"), image)
                        .expect("daemon round-trip");
                    assert_eq!(r.exit, 0, "request {i} failed: {:?}", r.error);
                });
            }
        });
        images.len() as f64 / t.elapsed().as_secs_f64()
    };

    let mut rows = Vec::new();
    for name in ["compress", "li", "gcc"] {
        let p = spike_synth::profile(name).expect("known benchmark");
        eprintln!("measuring {name} ...");
        let base = spike_synth::generate(&p, scale, seed);
        let base_image = Arc::new(base.to_image());

        // The local-path report the daemon must reproduce byte-for-byte.
        let expected = {
            let analysis = spike_core::analyze_with(&base, &AnalysisOptions::default());
            render::analyze_report("img", &base, &analysis, false, None)
                .expect("base program renders")
        };

        // Single-instruction edits of `base`, chained so each variant
        // diffs against a cached near-duplicate.
        let variants: Vec<Arc<Vec<u8>>> = {
            let mut out = Vec::new();
            let mut current = base.clone();
            let ids: Vec<_> = base.iter().map(|(id, _)| id).collect();
            for rid in ids {
                if out.len() == 16 {
                    break;
                }
                let addr = current.routine(rid).addr();
                if let Ok((q, _)) = Rewriter::new(&current).delete(addr).finish() {
                    out.push(Arc::new(q.to_image()));
                    current = q;
                }
            }
            out
        };

        for clients in [1usize, 4, 8] {
            // A fresh daemon per cell: clean cache, clean counters.
            let options = ServeOptions {
                tcp: Some("127.0.0.1:0".into()),
                workers: clients.max(2),
                analysis_threads: 1,
                ..ServeOptions::default()
            };
            let server = Server::start(&options).expect("daemon starts");
            let endpoint = Endpoint::Tcp(server.tcp_addr().expect("tcp bound").to_string());

            // Cold: every request is a distinct, never-seen image.
            let cold_images: Vec<Arc<Vec<u8>>> = (0..clients.max(2) * 2)
                .map(|i| {
                    let s = seed ^ (0x5ED + (clients * 131 + i) as u64);
                    Arc::new(spike_synth::generate(&p, scale, s).to_image())
                })
                .collect();
            let cold_rps = drive(&endpoint, &cold_images, clients);

            // Warm: prime once, then every request hits the cache.
            let (r, _) = client::request(&endpoint, &request("img"), &base_image)
                .expect("priming round-trip");
            assert_eq!(r.exit, 0, "priming failed: {:?}", r.error);
            let byte_identical = r.stdout == expected;
            assert!(byte_identical, "daemon analyze report diverged from the local path");
            let warm_images: Vec<Arc<Vec<u8>>> =
                (0..clients.max(2) * 8).map(|_| Arc::clone(&base_image)).collect();
            let warm_rps = drive(&endpoint, &warm_images, clients);

            // Incremental-warm: small edits of the (now cached) base.
            let incr_rps = drive(&endpoint, &variants, clients);
            let (stats, _) = client::request(
                &endpoint,
                &Request {
                    cmd: Command::Stats,
                    image_name: String::new(),
                    deadline_ms: None,
                    profile_len: 0,
                },
                &[],
            )
            .expect("stats round-trip");
            let stats = spike_core::json::Json::parse(&stats.stdout).expect("stats is JSON");
            let incremental_hits = stats
                .get("cache")
                .and_then(|c| c.get("incremental_warm"))
                .and_then(spike_core::json::Json::as_u64)
                .unwrap_or(0);

            let (_, _) = client::request(
                &endpoint,
                &Request {
                    cmd: Command::Shutdown,
                    image_name: String::new(),
                    deadline_ms: None,
                    profile_len: 0,
                },
                &[],
            )
            .expect("shutdown round-trip");
            server.join();

            println!(
                "{:<10} {:>7} {:>10.1} {:>10.1} {:>10.1} {:>8.1}x {:>8.1}x",
                name,
                clients,
                cold_rps,
                warm_rps,
                incr_rps,
                warm_rps / cold_rps,
                incr_rps / cold_rps,
            );
            rows.push(format!(
                "    {{\"benchmark\": \"{name}\", \"scale\": {scale}, \"clients\": {clients}, \
                 \"cold_rps\": {cold_rps:.3}, \"warm_rps\": {warm_rps:.3}, \
                 \"incremental_rps\": {incr_rps:.3}, \
                 \"warm_speedup\": {:.3}, \"incremental_speedup\": {:.3}, \
                 \"incremental_hits\": {incremental_hits}, \
                 \"byte_identical\": {byte_identical}}}",
                warm_rps / cold_rps,
                incr_rps / cold_rps,
            ));
        }
    }

    let runs = spike_core::json::Json::parse(&format!("[{}]", rows.join(",")))
        .expect("bench rows are valid JSON");
    update_bench_serve(vec![("seed", spike_core::json::Json::Int(seed as i64)), ("runs", runs)]);
}

/// Rewrites `BENCH_serve.json`, replacing only the keys in `updates`
/// and preserving everything else the file already holds — the `serve`
/// section owns `seed`/`runs`, the `serve_cluster` section owns
/// `loadgen`/`cluster`, and either can run alone.
fn update_bench_serve(updates: Vec<(&'static str, spike_core::json::Json)>) {
    use spike_core::json::Json;
    let mut members: Vec<(String, Json)> = match std::fs::read_to_string("BENCH_serve.json") {
        Ok(text) => match Json::parse(&text) {
            Ok(Json::Obj(members)) => members,
            _ => Vec::new(),
        },
        Err(_) => Vec::new(),
    };
    for (key, value) in updates {
        match members.iter_mut().find(|(k, _)| k == key) {
            Some(slot) => slot.1 = value,
            None => members.push((key.to_string(), value)),
        }
    }
    members.sort_by(|a, b| a.0.cmp(&b.0));
    let mut out = String::from("{\n");
    for (i, (key, value)) in members.iter().enumerate() {
        out.push_str("  \"");
        out.push_str(key);
        out.push_str("\": ");
        match value {
            // One element per line for arrays of rows, compact otherwise.
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (j, item) in items.iter().enumerate() {
                    out.push_str("    ");
                    item.write(&mut out);
                    if j + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str("  ]");
            }
            other => other.write(&mut out),
        }
        if i + 1 < members.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("}\n");
    match std::fs::write("BENCH_serve.json", &out) {
        Ok(()) => println!("\n  wrote BENCH_serve.json\n"),
        Err(e) => eprintln!("cannot write BENCH_serve.json: {e}"),
    }
}

/// Fleet-scale serving. Three measurements, merged into
/// `BENCH_serve.json` as the `loadgen` and `cluster` keys:
///
/// 1. **10k concurrent connections** against one event-driven instance.
///    The daemon runs as a *separate process* (`spike-served`, found
///    next to this binary) because each side holds one file descriptor
///    per connection; latency percentiles come from the in-process
///    load generator.
/// 2. **Cold start vs warm restart**: the same request set served by a
///    fresh daemon (every image analyzed) and by a restart from the
///    snapshot the first daemon wrote when it drained (every image a
///    cache hit).
/// 3. **A 3-shard cluster behind the router**: every routed response is
///    cross-checked byte-for-byte against the local library path, one
///    shard is killed mid-run and restarted warm from its snapshot on
///    the same port, and per-shard hit rates are recorded.
fn serve_cluster_report(scale: f64, seed: u64) {
    use spike_core::json::Json;
    use spike_core::AnalysisOptions;
    use spike_serve::{
        client, loadgen, render, Command, Endpoint, Request, Ring, Router, RouterOptions,
        ServeOptions, Server,
    };
    use std::time::{Duration, Instant};

    let analyze = || Command::Analyze { summaries: false, routine: None };
    let request = |name: &str| Request {
        cmd: analyze(),
        image_name: name.to_string(),
        deadline_ms: None,
        profile_len: 0,
    };
    let blobless = |cmd: Command| Request {
        cmd,
        image_name: String::new(),
        deadline_ms: None,
        profile_len: 0,
    };
    let shutdown_cmd = |endpoint: &Endpoint| {
        let (r, _) = client::request(endpoint, &blobless(Command::Shutdown), &[])
            .expect("shutdown round trip");
        assert_eq!(r.exit, 0, "{:?}", r.error);
    };
    let stats_of = |endpoint: &Endpoint| -> Json {
        let (r, _) =
            client::request(endpoint, &blobless(Command::Stats), &[]).expect("stats round trip");
        Json::parse(&r.stdout).expect("stats is JSON")
    };
    let counter = |s: &Json, group: &str, name: &str| {
        s.get(group).and_then(|g| g.get(name)).and_then(Json::as_u64).unwrap_or(0)
    };
    let reserve = |n: usize| -> Vec<String> {
        let held: Vec<std::net::TcpListener> =
            (0..n).map(|_| std::net::TcpListener::bind("127.0.0.1:0").unwrap()).collect();
        held.iter().map(|l| l.local_addr().unwrap().to_string()).collect()
    };
    let dir = std::env::temp_dir().join(format!("spike-report-cluster-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");

    println!("## Fleet-scale serving: event-driven core, snapshots, sharded cluster\n");

    // ---- 1. ten thousand concurrent connections, one instance ----
    let loadgen_json = {
        let addr = reserve(1).pop().unwrap();
        let served = std::env::current_exe()
            .ok()
            .and_then(|p| p.parent().map(|d| d.join("spike-served")))
            .filter(|p| p.exists());
        match served {
            None => {
                eprintln!(
                    "spike-served not found next to this binary; skipping the loadgen \
                     section (build it with `cargo build --release -p spike-serve`)"
                );
                Json::Null
            }
            Some(bin) => {
                let mut child = std::process::Command::new(&bin)
                    .args(["--listen", &addr, "--workers", "4"])
                    .stderr(std::process::Stdio::null())
                    .spawn()
                    .expect("spawn spike-served");
                let deadline = Instant::now() + Duration::from_secs(30);
                loop {
                    match std::net::TcpStream::connect(&addr) {
                        Ok(_) => break,
                        Err(_) if Instant::now() < deadline => {
                            std::thread::sleep(Duration::from_millis(25))
                        }
                        Err(e) => panic!("spike-served never came up on {addr}: {e}"),
                    }
                }
                let images: Vec<Vec<u8>> = (0..4)
                    .map(|i| generate_executable(seed ^ (0x10AD + i as u64), 6).to_image())
                    .collect();
                let options = loadgen::LoadgenOptions {
                    connect: addr.clone(),
                    connections: 10_000,
                    inflight: 32,
                };
                eprintln!("loadgen: {} connections against {addr} ...", options.connections);
                let report = loadgen::run(&options, &images).expect("loadgen runs");
                shutdown_cmd(&Endpoint::Tcp(addr.clone()));
                let _ = child.wait();
                println!(
                    "{:>12} {} held concurrently: p50 {} us, p95 {} us, p99 {} us \
                     ({:.0} r/s, {} errors)",
                    "connections:",
                    report.connections,
                    report.p50_us,
                    report.p95_us,
                    report.p99_us,
                    report.rps,
                    report.errors,
                );
                assert!(
                    report.connections >= 10_000,
                    "the daemon must hold at least 10k concurrent connections, got {}",
                    report.connections
                );
                assert_eq!(report.errors, 0, "load generation saw failed requests");
                report.to_json()
            }
        }
    };

    // ---- 2. cold start vs warm restart from the drain snapshot ----
    let gcc = spike_synth::profile("gcc").expect("known benchmark");
    let restart_images: Vec<Vec<u8>> = (0..6)
        .map(|i| spike_synth::generate(&gcc, scale, seed ^ (0x5AAB + i as u64)).to_image())
        .collect();
    let snap = dir.join("single.snap");
    let boot = |snapshot: std::path::PathBuf| -> (Server, Endpoint) {
        let server = Server::start(&ServeOptions {
            tcp: Some("127.0.0.1:0".into()),
            snapshot: Some(snapshot),
            workers: 2,
            analysis_threads: 1,
            ..ServeOptions::default()
        })
        .expect("daemon starts");
        let endpoint = Endpoint::Tcp(server.tcp_addr().expect("tcp bound").to_string());
        (server, endpoint)
    };
    let drive_all = |endpoint: &Endpoint| {
        for (i, image) in restart_images.iter().enumerate() {
            let (r, _) =
                client::request(endpoint, &request(&format!("img{i}")), image).expect("round trip");
            assert_eq!(r.exit, 0, "{:?}", r.error);
        }
    };
    let t = Instant::now();
    let (server, endpoint) = boot(snap.clone());
    drive_all(&endpoint);
    let cold_ms = t.elapsed().as_millis().max(1);
    shutdown_cmd(&endpoint);
    server.join();
    let t = Instant::now();
    let (server, endpoint) = boot(snap.clone());
    let restored = server.restored().map(|r| r.entries).unwrap_or(0);
    drive_all(&endpoint);
    let warm_ms = t.elapsed().as_millis().max(1);
    shutdown_cmd(&endpoint);
    server.join();
    assert_eq!(restored, restart_images.len(), "drain snapshot must restore every entry");
    assert!(
        warm_ms < cold_ms,
        "a warm restart must beat a cold start ({warm_ms} ms vs {cold_ms} ms)"
    );
    println!(
        "{:>12} cold start-and-serve {cold_ms} ms, warm restart {warm_ms} ms ({:.1}x)",
        "snapshot:",
        cold_ms as f64 / warm_ms as f64
    );
    let restart_json = Json::parse(&format!(
        "{{\"images\": {}, \"restored_entries\": {restored}, \"cold_ms\": {cold_ms}, \
         \"warm_ms\": {warm_ms}, \"warm_speedup\": {:.3}}}",
        restart_images.len(),
        cold_ms as f64 / warm_ms as f64
    ))
    .expect("restart row is JSON");

    // ---- 3. three shards behind the router, one killed mid-run ----
    let shards = reserve(3);
    let boot_shard = |i: usize| -> Server {
        Server::start(&ServeOptions {
            tcp: Some(shards[i].clone()),
            cluster: shards.clone(),
            shard_index: Some(i),
            snapshot: Some(dir.join(format!("shard{i}.snap"))),
            workers: 2,
            analysis_threads: 1,
            ..ServeOptions::default()
        })
        .expect("shard starts")
    };
    let mut servers: Vec<Option<Server>> = (0..shards.len()).map(|i| Some(boot_shard(i))).collect();
    let router = Router::start(&RouterOptions {
        listen: "127.0.0.1:0".into(),
        shards: shards.clone(),
        ..RouterOptions::default()
    })
    .expect("router starts");
    let via = Endpoint::Tcp(router.addr().to_string());

    let compress = spike_synth::profile("compress").expect("known benchmark");
    let cluster_images: Vec<(String, Vec<u8>, String)> = (0..12)
        .map(|i| {
            let program = spike_synth::generate(&compress, scale, seed ^ (0xC1 + i as u64));
            let image = program.to_image();
            let analysis = spike_core::analyze_with(&program, &AnalysisOptions::default());
            let name = format!("img{i}");
            let expected = render::analyze_report(&name, &program, &analysis, false, None)
                .expect("program renders");
            (name, image, expected)
        })
        .collect();
    let ring = Ring::new(shards.clone());

    // Two routed passes (cold then warm), byte-identity on every answer.
    for _pass in 0..2 {
        for (name, image, expected) in &cluster_images {
            let (r, _) = client::request(&via, &request(name), image).expect("routed round trip");
            assert_eq!(r.exit, 0, "{:?}", r.error);
            assert_eq!(r.stdout, *expected, "routed response diverged from the local path");
        }
    }

    // Kill shard 0 (drains, writes its snapshot), restart it warm on the
    // same port, keep serving.
    let t = Instant::now();
    shutdown_cmd(&Endpoint::Tcp(shards[0].clone()));
    servers[0].take().expect("shard 0 is up").join();
    let reborn = boot_shard(0);
    let shard0_restored = reborn.restored().map(|r| r.entries).unwrap_or(0);
    servers[0] = Some(reborn);
    let restart_ms = t.elapsed().as_millis();
    assert!(shard0_restored > 0, "the restarted shard must come back warm from its snapshot");

    for (name, image, expected) in &cluster_images {
        let (r, _) = client::request(&via, &request(name), image).expect("routed round trip");
        assert_eq!(r.exit, 0, "{:?}", r.error);
        assert_eq!(r.stdout, *expected, "response changed after the shard restart");
    }
    println!(
        "{:>12} shard 0 killed and restarted warm in {restart_ms} ms ({shard0_restored} \
         entries restored); responses stayed byte-identical",
        "cluster:"
    );

    let mut per_shard = Vec::new();
    println!(
        "\n{:<8} {:>8} {:>8} {:>8} {:>10} {:>9}",
        "shard", "owned", "entries", "hits", "misses", "hit rate"
    );
    for (i, addr) in shards.iter().enumerate() {
        let owned = cluster_images
            .iter()
            .filter(|(_, image, _)| ring.owner_of(spike_serve::cache::CacheKey::of(image)) == i)
            .count();
        let s = stats_of(&Endpoint::Tcp(addr.clone()));
        let (entries, hits) = (counter(&s, "cache", "entries"), counter(&s, "cache", "hits"));
        let misses = counter(&s, "cache", "misses");
        let forwarded = s.get("forwarded").and_then(Json::as_u64).unwrap_or(0);
        let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
        println!("{i:<8} {owned:>8} {entries:>8} {hits:>8} {misses:>10} {hit_rate:>9.3}");
        per_shard.push(format!(
            "{{\"shard\": {i}, \"owned_images\": {owned}, \"entries\": {entries}, \
             \"hits\": {hits}, \"misses\": {misses}, \"forwarded\": {forwarded}, \
             \"hit_rate\": {hit_rate:.3}}}"
        ));
    }
    let total_entries: u64 = shards
        .iter()
        .map(|addr| counter(&stats_of(&Endpoint::Tcp(addr.clone())), "cache", "entries"))
        .sum();
    assert_eq!(
        total_entries,
        cluster_images.len() as u64,
        "shards must hold disjoint warm sets: one copy of each image cluster-wide"
    );

    // One shutdown through the router drains the whole cluster.
    shutdown_cmd(&via);
    router.join();
    for server in servers {
        server.expect("shard is up").join();
    }
    let _ = std::fs::remove_dir_all(&dir);

    let cluster_json = Json::parse(&format!(
        "{{\"shards\": {}, \"images\": {}, \"byte_identical\": true, \
         \"shard0_restart\": {{\"restored_entries\": {shard0_restored}, \
         \"restart_ms\": {restart_ms}}}, \"restart\": {restart_json_text}, \
         \"per_shard\": [{per_shard_text}]}}",
        shards.len(),
        cluster_images.len(),
        restart_json_text = {
            let mut s = String::new();
            restart_json.write(&mut s);
            s
        },
        per_shard_text = per_shard.join(", "),
    ))
    .expect("cluster row is JSON");

    update_bench_serve(vec![("loadgen", loadgen_json), ("cluster", cluster_json)]);
}

/// Profiles every paper benchmark under the simulator, re-optimizes it
/// with the measured profile, and counts the dynamic instructions the
/// PGO build saves over a LICM-less build producing the same output
/// prefix. Uses the same calibrated shape as the workspace PGO property
/// tests (scale 20/routines, seed 1) so the committed `BENCH_pgo.json`
/// reflects exactly what `tests/prop_pgo.rs` verifies for behaviour.
fn pgo_report(threads: usize) {
    use spike_core::AnalysisOptions;
    use spike_opt::{optimize_with, OptOptions};
    use spike_profile::Profile;
    use spike_sim::{run, run_profiled, steps_to_output};

    const PROFILE_FUEL: u64 = 200_000;

    println!("## Profile-guided loop optimization: dynamic instructions to equal output\n");
    println!(
        "{:<10} {:>9} {:>7} {:>5} {:>12} {:>12} {:>9}",
        "benchmark", "routines", "hoists", "spill", "base (dyn)", "pgo (dyn)", "saved"
    );

    let analysis = AnalysisOptions { threads, ..AnalysisOptions::default() };
    let mut rows = Vec::new();
    let mut reduced = 0usize;
    let mut total = 0usize;
    for p in profiles() {
        eprintln!("profiling {} ...", p.name);
        let program = spike_synth::generate(&p, 20.0 / p.routines as f64, 1);
        let (_, exec) = run_profiled(&program, PROFILE_FUEL);
        let profile = Profile::collect(&program, &exec);

        let base_opts =
            OptOptions { analysis: analysis.clone(), licm: false, ..OptOptions::default() };
        let pgo_opts = OptOptions {
            analysis: analysis.clone(),
            profile: Some(profile),
            ..OptOptions::default()
        };
        let (base, _) = optimize_with(&program, &base_opts).expect("baseline optimizes");
        let (pgo, rep) = optimize_with(&program, &pgo_opts).expect("pgo optimizes");

        // Both variants preserve behaviour, so equal output prefixes are
        // comparable work: count the instructions each needs to emit the
        // longest prefix both produce within the fuel budget.
        let outputs = |prog: &spike_program::Program| match run(prog, PROFILE_FUEL) {
            Outcome::Halted { output, .. } | Outcome::OutOfFuel { output, .. } => output.len(),
            _ => 0,
        };
        let k = outputs(&base).min(outputs(&pgo));
        let dyn_base = steps_to_output(&base, PROFILE_FUEL, k).expect("k outputs were produced");
        let dyn_pgo = steps_to_output(&pgo, PROFILE_FUEL, k).expect("k outputs were produced");

        total += 1;
        if dyn_pgo < dyn_base {
            reduced += 1;
        }
        let saved_pct = if dyn_base == 0 {
            0.0
        } else {
            100.0 * (dyn_base as f64 - dyn_pgo as f64) / dyn_base as f64
        };
        println!(
            "{:<10} {:>9} {:>7} {:>5} {:>12} {:>12} {:>8.1}%",
            p.name,
            program.routines().len(),
            rep.loads_hoisted + rep.ops_hoisted,
            rep.spill_pairs_removed,
            dyn_base,
            dyn_pgo,
            saved_pct,
        );
        rows.push(format!(
            "    {{\"benchmark\": \"{}\", \"routines\": {}, \"outputs\": {k}, \
             \"loads_hoisted\": {}, \"ops_hoisted\": {}, \"spill_pairs_removed\": {}, \
             \"spill_dynamic_saved\": {}, \"dyn_insns_base\": {dyn_base}, \
             \"dyn_insns_pgo\": {dyn_pgo}, \"reduced\": {}}}",
            p.name,
            program.routines().len(),
            rep.loads_hoisted,
            rep.ops_hoisted,
            rep.spill_pairs_removed,
            rep.spill_dynamic_saved,
            dyn_pgo < dyn_base,
        ));
    }

    println!("\n  {reduced} of {total} profiles execute fewer dynamic instructions with PGO");
    assert!(
        reduced * 4 >= total * 3,
        "PGO regression: only {reduced} of {total} profiles improved (acceptance: >= 12 of 16)"
    );

    let json = format!(
        "{{\n  \"profile_fuel\": {PROFILE_FUEL},\n  \"seed\": 1,\n  \"profiles\": {total},\n  \
         \"reduced\": {reduced},\n  \"runs\": [\n{}\n  ]\n}}\n",
        rows.join(",\n"),
    );
    match std::fs::write("BENCH_pgo.json", &json) {
        Ok(()) => println!("\n  wrote BENCH_pgo.json\n"),
        Err(e) => eprintln!("cannot write BENCH_pgo.json: {e}"),
    }
}
