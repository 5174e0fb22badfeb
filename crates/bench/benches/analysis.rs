//! Criterion benchmarks mirroring the paper's evaluation:
//!
//! * `table2/analyze/<bench>` — end-to-end interprocedural dataflow time
//!   per benchmark profile (Table 2's "Total Dataflow Time");
//! * `table4/<bench>/{with,without}-branch-nodes` — the §3.6 ablation;
//! * `table5/<bench>/{psg,full-cfg}` — PSG vs whole-program-CFG analysis;
//! * `fig14/gcc/scale-*` — analysis time as program size grows;
//! * `stages/<stage>` — the Figure 13 stage split on one mid-size input;
//! * `opt/passes` — the Figure 1 optimizer on a mid-size input;
//! * `incremental/<bench>/{scratch,incremental}` — the optimizer's pass
//!   manager with from-scratch analysis per pass vs one cached
//!   [`spike_core::AnalysisCache`] re-analyzing only dirty routines;
//! * `serve/{warm-analyze,warm-lint,stats}` — steady-state round-trips
//!   against an in-process `spike-served` daemon: a warm cache hit pays
//!   hashing, rendering and framing but no analysis, so this isolates
//!   the service overhead the `report serve` throughput numbers sit on;
//! * `query/{full-solve,engine-build,cold-query,memoized-repeat}` —
//!   the demand-driven query engine against the whole-program solve it
//!   replaces for single-routine questions: `engine-build` is the
//!   one-time front-end cost, `cold-query` a fresh engine plus one
//!   `live-at-entry` cone solve (the marginal cone cost is the
//!   difference), `memoized-repeat` the steady-state re-ask.
//!
//! Profiles are scaled down (default 5%) so the whole suite runs in
//! minutes; relative shapes are what the paper's claims are about.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use spike_baseline::analyze_baseline;
use spike_cfg::{ProgramCfg, RoutineCfg};
use spike_core::{analyze, analyze_with, AnalysisOptions};
use spike_synth::{generate, profile, profiles};

const SCALE: f64 = 0.05;
const SEED: u64 = 0x5B1CE;

/// The subset of profiles benchmarked individually (one small, one large
/// per suite plus the branch-node extremes).
const PICKS: [&str; 6] = ["compress", "li", "gcc", "perl", "sqlservr", "vc"];

fn bench_table2(c: &mut Criterion) {
    let mut g = c.benchmark_group("table2");
    g.sample_size(10);
    for p in profiles() {
        if !PICKS.contains(&p.name) {
            continue;
        }
        let program = generate(&p, SCALE, SEED);
        g.bench_with_input(BenchmarkId::new("analyze", p.name), &program, |b, prog| {
            b.iter(|| black_box(analyze(prog)));
        });
    }
    g.finish();
}

fn bench_table4(c: &mut Criterion) {
    let mut g = c.benchmark_group("table4");
    g.sample_size(10);
    for name in ["sqlservr", "winword"] {
        let p = profile(name).expect("known benchmark");
        let program = generate(&p, SCALE, SEED);
        g.bench_with_input(BenchmarkId::new(name, "with-branch-nodes"), &program, |b, prog| {
            b.iter(|| black_box(analyze(prog)))
        });
        let ablated = AnalysisOptions { branch_nodes: false, ..AnalysisOptions::default() };
        g.bench_with_input(BenchmarkId::new(name, "without-branch-nodes"), &program, |b, prog| {
            b.iter(|| black_box(analyze_with(prog, &ablated)))
        });
    }
    g.finish();
}

fn bench_table5(c: &mut Criterion) {
    let mut g = c.benchmark_group("table5");
    g.sample_size(10);
    for name in ["gcc", "texim"] {
        let p = profile(name).expect("known benchmark");
        let program = generate(&p, SCALE, SEED);
        g.bench_with_input(BenchmarkId::new(name, "psg"), &program, |b, prog| {
            b.iter(|| black_box(analyze(prog)));
        });
        g.bench_with_input(BenchmarkId::new(name, "full-cfg"), &program, |b, prog| {
            b.iter(|| black_box(analyze_baseline(prog)));
        });
    }
    g.finish();
}

fn bench_fig14(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig14");
    g.sample_size(10);
    let p = profile("gcc").expect("known benchmark");
    for scale_pct in [2usize, 5, 10, 20] {
        let program = generate(&p, scale_pct as f64 / 100.0, SEED);
        g.bench_with_input(
            BenchmarkId::new("gcc", format!("scale-{scale_pct}pct")),
            &program,
            |b, prog| b.iter(|| black_box(analyze(prog))),
        );
    }
    g.finish();
}

fn bench_stages(c: &mut Criterion) {
    let mut g = c.benchmark_group("stages");
    g.sample_size(10);
    let p = profile("perl").expect("known benchmark");
    let program = generate(&p, SCALE, SEED);

    g.bench_function("cfg-build", |b| {
        b.iter(|| {
            for (id, _) in program.iter() {
                black_box(RoutineCfg::build_structure(&program, id));
            }
        })
    });
    g.bench_function("init-def-ubd", |b| {
        let mut cfgs: Vec<RoutineCfg> =
            program.iter().map(|(id, _)| RoutineCfg::build_structure(&program, id)).collect();
        b.iter(|| {
            for c in &mut cfgs {
                c.init_def_ubd(&program);
            }
            black_box(&cfgs);
        })
    });
    g.bench_function("full-pipeline", |b| b.iter(|| black_box(analyze(&program))));
    let _ = ProgramCfg::build(&program);
    g.finish();
}

fn bench_parallel(c: &mut Criterion) {
    let mut g = c.benchmark_group("parallel");
    g.sample_size(10);
    for name in ["sqlservr", "winword"] {
        let p = profile(name).expect("known benchmark");
        let program = generate(&p, SCALE, SEED);
        for threads in [1usize, 4] {
            let opts = AnalysisOptions { threads, ..AnalysisOptions::default() };
            g.bench_with_input(
                BenchmarkId::new(name, format!("threads-{threads}")),
                &program,
                |b, prog| b.iter(|| black_box(analyze_with(prog, &opts))),
            );
        }
    }
    g.finish();
}

fn bench_opt(c: &mut Criterion) {
    let mut g = c.benchmark_group("opt");
    g.sample_size(10);
    let p = profile("li").expect("known benchmark");
    let program = generate(&p, 0.1, SEED);
    g.bench_function("passes", |b| {
        b.iter(|| black_box(spike_opt::optimize(&program).expect("optimizes")))
    });
    g.finish();
}

fn bench_incremental(c: &mut Criterion) {
    let mut g = c.benchmark_group("incremental");
    g.sample_size(10);
    for name in ["li", "gcc"] {
        let p = profile(name).expect("known benchmark");
        let program = generate(&p, 0.1, SEED);
        for (label, incremental) in [("scratch", false), ("incremental", true)] {
            let opts = spike_opt::OptOptions { incremental, ..spike_opt::OptOptions::default() };
            g.bench_with_input(BenchmarkId::new(name, label), &program, |b, prog| {
                b.iter(|| black_box(spike_opt::optimize_with(prog, &opts).expect("optimizes")))
            });
        }
    }
    g.finish();
}

fn bench_serve(c: &mut Criterion) {
    use spike_serve::{client, Command, Endpoint, LintFormat, Request, ServeOptions, Server};

    let mut g = c.benchmark_group("serve");
    g.sample_size(10);
    let p = profile("li").expect("known benchmark");
    let image = generate(&p, SCALE, SEED).to_image();

    let options = ServeOptions {
        tcp: Some("127.0.0.1:0".into()),
        analysis_threads: 1,
        ..ServeOptions::default()
    };
    let server = Server::start(&options).expect("daemon starts");
    let endpoint = Endpoint::Tcp(server.tcp_addr().expect("tcp bound").to_string());
    let request =
        |cmd: Command| Request { cmd, image_name: "img".into(), deadline_ms: None, profile_len: 0 };
    let send = |cmd: Command, image: &[u8]| {
        let (r, _) = client::request(&endpoint, &request(cmd), image).expect("round-trip");
        assert_eq!(r.exit, 0, "{:?}", r.error);
        r
    };
    let analyze = || Command::Analyze { summaries: false, routine: None };

    // Prime the cache so every timed request is a warm hit.
    send(analyze(), &image);

    g.bench_function("warm-analyze", |b| b.iter(|| black_box(send(analyze(), &image))));
    g.bench_function("warm-lint", |b| {
        b.iter(|| black_box(send(Command::Lint { format: LintFormat::Json }, &image)))
    });
    g.bench_function("stats", |b| b.iter(|| black_box(send(Command::Stats, &[]))));
    g.finish();

    send(Command::Shutdown, &[]);
    server.join();
}

fn bench_query(c: &mut Criterion) {
    use spike_core::{Query, QueryEngine};
    use spike_program::RoutineId;

    let mut g = c.benchmark_group("query");
    g.sample_size(10);
    let p = profile("gcc").expect("known benchmark");
    let program = generate(&p, SCALE, SEED);
    let options = AnalysisOptions::default();
    // A mid-index routine: deep enough in the call graph to have a
    // non-trivial cone, far from the entry's worst case.
    let rid = RoutineId::from_index(program.routines().len() / 2);

    g.bench_function("full-solve", |b| b.iter(|| black_box(analyze(&program))));
    g.bench_function("engine-build", |b| {
        b.iter(|| black_box(QueryEngine::new(&program, &options)))
    });
    // Fresh engine + one cold cone — the latency an interactive client
    // sees for its first question about an image; subtract engine-build
    // for the marginal cone cost (`report queries` isolates it exactly).
    g.bench_function("cold-query", |b| {
        b.iter(|| {
            let mut e = QueryEngine::new(&program, &options);
            black_box(e.query(&Query::LiveAtEntry(rid)))
        })
    });
    // Steady state: the cone is memoized, a repeat re-solves nothing.
    g.bench_function("memoized-repeat", |b| {
        let mut e = QueryEngine::new(&program, &options);
        e.query(&Query::LiveAtEntry(rid));
        b.iter(|| black_box(e.query(&Query::LiveAtEntry(rid))));
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_table2,
    bench_table4,
    bench_table5,
    bench_fig14,
    bench_stages,
    bench_parallel,
    bench_opt,
    bench_incremental,
    bench_serve,
    bench_query
);
criterion_main!(benches);
