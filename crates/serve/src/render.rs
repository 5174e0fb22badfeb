//! Deterministic report rendering shared by the local CLI and the daemon.
//!
//! The byte-identity contract — `spike client <cmd>` must print exactly
//! what `spike <cmd>` prints — is enforced *by construction*: both paths
//! call the renderers in this module to produce the stdout text, and both
//! route everything non-deterministic (wall-clock timings, scheduler
//! effort, cache disposition) through the separate `*_diag` renderers,
//! which go to stderr locally and to the response's `diag` field over the
//! wire. Nothing in a report string may depend on timing, thread count,
//! or cache state.

use std::fmt::Write as _;

use spike_baseline::BaselineAnalysis;
use spike_core::{Analysis, QueryAnswer, QueryStats};
use spike_lint::LintReport;
use spike_opt::OptReport;
use spike_program::Program;

use crate::proto::LintFormat;

/// The deterministic `spike analyze` report: structure counts, reduction
/// ratios, memory, and (optionally) routine summaries.
///
/// # Errors
///
/// Returns the usage message when `routine` names a routine the program
/// does not contain (checked before anything is rendered, so a failing
/// request produces no partial report).
pub fn analyze_report(
    image_name: &str,
    program: &Program,
    analysis: &Analysis,
    summaries: bool,
    routine: Option<&str>,
) -> Result<String, String> {
    if let Some(name) = routine {
        if program.routine_by_name(name).is_none() {
            return Err(format!("no routine named `{name}`"));
        }
    }
    let stats = &analysis.stats;
    let psg = analysis.psg.stats();
    let counts = analysis.cfg.counts();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{}: {} routines, {} basic blocks, {} instructions",
        image_name,
        program.routines().len(),
        analysis.cfg.total_blocks(),
        program.total_instructions()
    );
    let _ = writeln!(out, "call graph: {}", stats.call_graph);
    let _ = writeln!(
        out,
        "psg: {} nodes, {} edges ({} flow, {} call-return, {} branch nodes)",
        psg.nodes, psg.edges, psg.flow_edges, psg.call_return_edges, psg.branch_nodes
    );
    let _ = writeln!(
        out,
        "cfg: {} blocks, {} arcs -> psg is {:.0}% / {:.0}% smaller",
        counts.basic_blocks,
        counts.total_arcs(),
        100.0 * (1.0 - psg.nodes as f64 / counts.basic_blocks as f64),
        100.0 * (1.0 - psg.edges as f64 / counts.total_arcs() as f64)
    );
    let _ = writeln!(
        out,
        "stack: {} slots in {} frames ({} escaped)",
        analysis.stack.slot_count(),
        program.routines().len() - analysis.stack.escaped_count(),
        analysis.stack.escaped_count()
    );
    // Table 2's yardstick: bytes per basic block, overall and per layer,
    // each layer measured by its own `HeapSize` when the run finished it.
    let blocks = analysis.cfg.total_blocks().max(1) as f64;
    let per_block = |bytes: usize| bytes as f64 / blocks;
    let layers = &stats.layer_bytes;
    let _ = writeln!(
        out,
        "memory {:.2} MB ({:.1} B/block: cfg {:.1}, psg {:.1}, stack {:.1}, summaries {:.1})",
        stats.memory_bytes as f64 / 1e6,
        per_block(stats.memory_bytes),
        per_block(layers.cfg),
        per_block(layers.psg),
        per_block(layers.stack),
        per_block(layers.summaries),
    );

    let wanted = |name: &str| routine.map_or(summaries, |r| r == name);
    for (rid, r) in program.iter() {
        if !wanted(r.name()) {
            continue;
        }
        let s = analysis.summary.routine(rid);
        let _ = writeln!(out, "\n{}:", r.name());
        for (i, _) in s.call_used.iter().enumerate() {
            let _ = writeln!(
                out,
                "  entrance {i}: call-used={} call-defined={} call-killed={}",
                s.call_used[i], s.call_defined[i], s.call_killed[i]
            );
            let _ = writeln!(out, "  live-at-entry[{i}] = {}", s.live_at_entry[i]);
        }
        for (i, live) in s.live_at_exit.iter().enumerate() {
            let _ = writeln!(out, "  live-at-exit[{i}]  = {live}");
        }
        if !s.saved_restored.is_empty() {
            let _ = writeln!(out, "  saves/restores {}", s.saved_restored);
        }
    }
    Ok(out)
}

/// The non-deterministic half of the analyze report: wall-clock phase
/// timings and solver effort, and how many routines the stack layer
/// found opaque.
pub fn analyze_diag(analysis: &Analysis) -> String {
    let stats = &analysis.stats;
    let (opaque, own_opaque) = analysis.stack.opaque_counts();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "time {:?} (cfg {:?}, init {:?}, psg {:?}, phase1 {:?}, phase2 {:?}, stack {:?})",
        stats.total(),
        stats.cfg_build,
        stats.init,
        stats.psg_build,
        stats.phase1,
        stats.phase2,
        stats.stack_build,
    );
    let _ = writeln!(
        out,
        "phases: {} + {} node visits (phase 1 + 2)",
        stats.phase1_visits, stats.phase2_visits
    );
    let _ = writeln!(
        out,
        "stack slots: {} + {} block visits (must-defined + live), {} opaque routine(s), {} by \
         their own code, {} routine scan(s)",
        stats.stack_forward_visits,
        stats.stack_backward_visits,
        opaque,
        own_opaque,
        stats.stack_scans
    );
    out
}

/// The deterministic `spike optimize` report (edit counts, loop motion,
/// and the rounds/reuse accounting, which are exact replay properties of
/// the pass pipeline, not timings). `pgo` records whether an execution
/// profile weighted the loop and spill decisions.
pub fn optimize_report(
    image_name: &str,
    out_name: &str,
    report: &OptReport,
    incremental: bool,
    pgo: bool,
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} -> {}: {} -> {} instructions ({} dead, {} spill pairs, {} reallocations, \
         {} dead stack stores, {} frame bytes shrunk)",
        image_name,
        out_name,
        report.instructions_before,
        report.instructions_after,
        report.dead_deleted,
        report.spill_pairs_removed,
        report.registers_reallocated,
        report.stack_stores_deleted,
        report.frame_bytes_shrunk
    );
    let _ = writeln!(
        out,
        "licm: {} load(s) + {} op(s) hoisted; spill placement saved {} dynamic instruction(s) \
         ({})",
        report.loads_hoisted,
        report.ops_hoisted,
        report.spill_dynamic_saved,
        if pgo { "profile-weighted" } else { "static loop-depth estimate" }
    );
    let _ = writeln!(
        out,
        "{} round(s); analysis re-ran {} routine(s), reused {} from cache, solved the stack \
         layer {} time(s){}",
        report.rounds,
        report.routines_reanalyzed,
        report.routines_reused,
        report.stack_solves,
        if incremental { "" } else { " (incremental re-analysis disabled)" }
    );
    out
}

/// A profile is *hot* for a routine when that routine's measured share of
/// executed instructions reaches this fraction.
pub const HOT_FRACTION: f64 = 0.05;

/// The deterministic hot/cold classification section appended to `spike
/// analyze --profile` output (and to the daemon's analyze response when
/// the request carries a profile blob). Fully derived from the profile's
/// counters, so it is byte-stable for a given (image, profile) pair.
pub fn profile_report(program: &Program, profile: &spike_profile::Profile) -> String {
    let counts = &profile.counts;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "profile: {} run(s), {} instructions executed, {} call(s)",
        profile.runs, counts.total_steps, counts.calls
    );
    // Hot routines sorted by measured steps (descending), ties broken by
    // routine id so the listing is deterministic.
    let mut hot: Vec<(usize, u64)> = program
        .iter()
        .map(|(rid, _)| {
            let i = rid.index();
            (i, counts.steps_per_routine.get(i).copied().unwrap_or(0))
        })
        .filter(|&(i, steps)| steps > 0 && counts.routine_fraction(i) >= HOT_FRACTION)
        .collect();
    hot.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let covered: u64 = hot.iter().map(|&(_, s)| s).sum();
    let coverage = if counts.total_steps == 0 {
        0.0
    } else {
        100.0 * covered as f64 / counts.total_steps as f64
    };
    let _ = writeln!(
        out,
        "hot/cold: {} hot routine(s) of {} (>= {:.0}% of execution each, {:.1}% together)",
        hot.len(),
        program.routines().len(),
        100.0 * HOT_FRACTION,
        coverage
    );
    for (i, steps) in hot {
        let r = program.routines().get(i).expect("routine index from program iteration");
        let _ = writeln!(
            out,
            "  hot {:<24} {:>12} steps ({:.1}%)",
            r.name(),
            steps,
            100.0 * counts.routine_fraction(i)
        );
    }
    out
}

/// The deterministic `spike query` report for summary, live-at-entry and
/// reaches queries (`uninit` renders through [`lint_report`] instead).
///
/// The per-routine lines are byte-identical to the corresponding lines of
/// `analyze_report`'s routine slice, so an answer can be diffed directly
/// against the whole-program report.
pub fn query_report(routine: &str, callee: Option<&str>, answer: &QueryAnswer) -> String {
    let mut out = String::new();
    match answer {
        QueryAnswer::Summary { call_used, call_defined, call_killed, saved_restored } => {
            let _ = writeln!(out, "{routine}:");
            for (i, _) in call_used.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "  entrance {i}: call-used={} call-defined={} call-killed={}",
                    call_used[i], call_defined[i], call_killed[i]
                );
            }
            if !saved_restored.is_empty() {
                let _ = writeln!(out, "  saves/restores {saved_restored}");
            }
        }
        QueryAnswer::LiveAtEntry { live_at_entry, live_at_exit } => {
            let _ = writeln!(out, "{routine}:");
            for (i, live) in live_at_entry.iter().enumerate() {
                let _ = writeln!(out, "  live-at-entry[{i}] = {live}");
            }
            for (i, live) in live_at_exit.iter().enumerate() {
                let _ = writeln!(out, "  live-at-exit[{i}]  = {live}");
            }
        }
        QueryAnswer::Reaches(reaches) => {
            let callee = callee.unwrap_or("?");
            let verb = if *reaches { "reaches" } else { "does not reach" };
            let _ = writeln!(out, "{routine} {verb} {callee}");
        }
    }
    out
}

/// The non-deterministic half of the query report: what had to be
/// analyzed before the answer could be read (nothing, on a warm cache).
pub fn query_diag(stats: &QueryStats) -> String {
    format!("query: analyzed {} routine(s), {} visit(s)\n", stats.routines_analyzed, stats.visits)
}

/// The `spike lint` report in either format. Fully deterministic.
pub fn lint_report(image_name: &str, report: &LintReport, format: LintFormat) -> String {
    match format {
        LintFormat::Json => {
            // The report is the output: append the newline, do not copy it.
            let mut out = report.to_json(Some(image_name));
            out.push('\n');
            out
        }
        LintFormat::Human => {
            let mut out = report.to_human(Some(image_name));
            out.push('\n');
            out
        }
    }
}

/// The deterministic `spike compare` report: summary identity plus the
/// PSG-vs-supergraph size comparison.
///
/// # Errors
///
/// Returns the mismatch message when a PSG summary disagrees with the
/// whole-CFG baseline — which is a bug in the analysis, surfaced the same
/// way the local CLI surfaces it.
pub fn compare_report(
    program: &Program,
    psg: &Analysis,
    full: &BaselineAnalysis,
) -> Result<String, String> {
    for (rid, r) in program.iter() {
        if psg.summary.routine(rid) != &full.summaries[rid.index()] {
            return Err(format!("summary mismatch for {} — this is a bug", r.name()));
        }
    }
    let s = psg.psg.stats();
    let c = &full.counts;
    let mut out = String::new();
    let _ = writeln!(out, "summaries identical for all {} routines", program.routines().len());
    let _ = writeln!(
        out,
        "psg: {} nodes / {} edges; full cfg: {} blocks / {} arcs",
        s.nodes,
        s.edges,
        c.basic_blocks,
        c.total_arcs(),
    );
    Ok(out)
}

/// The non-deterministic half of the compare report: the two analyses'
/// wall-clock times.
pub fn compare_diag(psg: &Analysis, full: &BaselineAnalysis) -> String {
    format!("psg time {:?}; full cfg time {:?}\n", psg.stats.total(), full.stats.total())
}

#[cfg(test)]
mod tests {
    use super::*;
    use spike_core::{analyze, AnalysisOptions};
    use spike_isa::{HeapSize, Reg};
    use spike_program::ProgramBuilder;

    fn sample() -> Program {
        let mut b = ProgramBuilder::new();
        b.routine("main").def(Reg::A0).call("leaf").put_int().halt();
        b.routine("leaf").copy(Reg::A0, Reg::V0).ret();
        b.build().unwrap()
    }

    #[test]
    fn analyze_report_is_deterministic_and_structural() {
        let p = sample();
        let a = analyze(&p);
        let r1 = analyze_report("x.img", &p, &a, true, None).unwrap();
        let r2 = analyze_report("x.img", &p, &a, true, None).unwrap();
        assert_eq!(r1, r2);
        assert!(r1.starts_with("x.img: 2 routines"));
        assert!(r1.contains("call graph:"));
        assert!(r1.contains("\nmain:\n"));
        assert!(r1.contains("call-used"));
        // Timings live in the diag renderer, never in the report.
        assert!(!r1.contains("time "));
        assert!(analyze_diag(&a).contains("time "));
    }

    /// Opacity counts come from the stack layer: an unknown call makes
    /// its routine opaque by its own code, and every caller above it
    /// opaque through it.
    #[test]
    fn diag_counts_opaque_routines_and_those_opaque_by_their_own_code() {
        let mut b = ProgramBuilder::new();
        b.routine("main").call("mid").halt();
        b.routine("mid").call("leaf").ret();
        b.routine("leaf").def(Reg::PV).jsr_unknown(Reg::PV).ret();
        let a = analyze(&b.build().unwrap());
        assert!(analyze_diag(&a).contains(", 3 opaque routine(s), 1 by their own code, "));
    }

    /// The memory line splits `memory_bytes` per basic block and per
    /// layer, and the layers add up to the total.
    #[test]
    fn memory_line_reports_bytes_per_block_by_layer() {
        let p = sample();
        let a = analyze(&p);
        let report = analyze_report("x.img", &p, &a, false, None).unwrap();
        let line = report.lines().find(|l| l.starts_with("memory ")).expect("memory line");
        let blocks = a.cfg.total_blocks() as f64;
        let layers = [
            ("cfg", a.cfg.heap_bytes()),
            ("psg", a.psg.heap_bytes()),
            ("stack", a.stack.heap_bytes()),
            ("summaries", a.summary.heap_bytes()),
        ];
        assert_eq!(layers.iter().map(|l| l.1).sum::<usize>(), a.stats.memory_bytes);
        let mut expected = format!(
            "memory {:.2} MB ({:.1} B/block:",
            a.stats.memory_bytes as f64 / 1e6,
            a.stats.memory_bytes as f64 / blocks
        );
        for (i, (name, bytes)) in layers.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            expected.push_str(&format!("{sep} {name} {:.1}", *bytes as f64 / blocks));
        }
        expected.push(')');
        assert_eq!(line, expected);
    }

    #[test]
    fn analyze_report_rejects_unknown_routines_before_rendering() {
        let p = sample();
        let a = analyze(&p);
        let err = analyze_report("x.img", &p, &a, false, Some("nope")).unwrap_err();
        assert_eq!(err, "no routine named `nope`");
    }

    #[test]
    fn compare_report_confirms_identity() {
        let p = sample();
        let a = analyze(&p);
        let full = spike_baseline::analyze_baseline_with(&p, &AnalysisOptions::default());
        let report = compare_report(&p, &a, &full).unwrap();
        assert!(report.starts_with("summaries identical for all 2 routines\n"));
        assert!(!report.contains("in "));
        assert!(compare_diag(&a, &full).contains("psg time"));
    }

    #[test]
    fn query_report_lines_match_the_analyze_slice() {
        let p = sample();
        let a = analyze(&p);
        let slice = analyze_report("x.img", &p, &a, false, Some("main")).unwrap();
        let mut cache =
            spike_core::AnalysisCache::from_analysis(AnalysisOptions::default(), analyze(&p));
        let main = p.routine_by_name("main").unwrap();
        let (summary, _) = cache.query(&p, &spike_core::Query::Summary(main));
        let (live, _) = cache.query(&p, &spike_core::Query::LiveAtEntry(main));
        for report in [query_report("main", None, &summary), query_report("main", None, &live)] {
            for line in report.lines() {
                assert!(slice.contains(line), "query line {line:?} missing from analyze slice");
            }
        }
        let leaf = p.routine_by_name("leaf").unwrap();
        let (r, _) = cache.query(&p, &spike_core::Query::Reaches { caller: main, callee: leaf });
        assert_eq!(query_report("main", Some("leaf"), &r), "main reaches leaf\n");
        let (r, _) = cache.query(&p, &spike_core::Query::Reaches { caller: leaf, callee: main });
        assert_eq!(query_report("leaf", Some("main"), &r), "leaf does not reach main\n");
    }

    #[test]
    fn optimize_report_names_the_weighting_mode() {
        let report = OptReport {
            instructions_before: 10,
            instructions_after: 8,
            loads_hoisted: 1,
            spill_dynamic_saved: 42,
            rounds: 1,
            ..OptReport::default()
        };
        let s = optimize_report("x.img", "o.img", &report, true, false);
        assert!(s.contains("licm: 1 load(s) + 0 op(s) hoisted"), "{s}");
        assert!(s.contains("saved 42 dynamic instruction(s) (static loop-depth estimate)"), "{s}");
        let s = optimize_report("x.img", "o.img", &report, true, true);
        assert!(s.contains("(profile-weighted)"), "{s}");
    }

    #[test]
    fn profile_report_classifies_hot_routines() {
        let p = sample();
        let (_, exec) = spike_sim::run_profiled(&p, 10_000);
        let prof = spike_profile::Profile::collect(&p, &exec);
        let s = profile_report(&p, &prof);
        assert!(s.starts_with("profile: 1 run(s)"), "{s}");
        // Both routines run once in a 7-instruction program, so both
        // clear the 5% bar and together cover everything.
        assert!(s.contains("hot/cold: 2 hot routine(s) of 2"), "{s}");
        assert!(s.contains("100.0% together"), "{s}");
        assert!(s.contains("hot main"), "{s}");
        assert!(s.contains("hot leaf"), "{s}");
        // Deterministic, like every report.
        assert_eq!(s, profile_report(&p, &prof));
    }

    #[test]
    fn lint_report_matches_cli_shapes() {
        let p = sample();
        let report = spike_lint::lint(&p);
        let human = lint_report("x.img", &report, LintFormat::Human);
        assert!(human.ends_with("error(s), 0 warning(s)\n"));
        let json = lint_report("x.img", &report, LintFormat::Json);
        assert!(json.starts_with("{\"tool\":\"spike-lint\""));
        assert!(json.ends_with("}\n"));
    }
}
