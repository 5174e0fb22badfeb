//! Queries: one question about one routine, answered by reading the
//! whole-program analysis.
//!
//! The exhaustive solve is cheap enough to just run (the paper's §4
//! claim, and ours since the FIFO worklist became the only phase
//! solver), so there is no second engine behind a [`Query`]:
//! [`query_analysis`](crate::query_analysis) slices a converged
//! [`Analysis`](crate::Analysis), and
//! [`AnalysisCache::query`](crate::AnalysisCache::query) on a cold cache
//! first runs the register-only solve and then does the same.

use spike_isa::RegSet;
use spike_program::RoutineId;

use crate::analysis::AnalysisStats;

/// One question about the analyzed program.
///
/// The single-routine uninitialized-read check is a fourth kind of
/// question, but it lives in `spike-lint` (`uninit_routine`), which
/// reads an [`Analysis`](crate::Analysis)'s `cfg` and `summary`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Query {
    /// The routine's phase-1 entry summary: `call-used`,
    /// `call-defined`, `call-killed` per entrance, and the §3.4
    /// saved/restored set.
    Summary(RoutineId),
    /// The routine's liveness: `live-at-entry` per entrance and
    /// `live-at-exit` per exit.
    LiveAtEntry(RoutineId),
    /// Whether `caller` transitively calls `callee` (a call path of at
    /// least one edge): a walk of the call graph.
    Reaches {
        /// The routine the path starts from.
        caller: RoutineId,
        /// The routine the path must reach.
        callee: RoutineId,
    },
}

/// The answer to a [`Query`], sliced bit-identically from the
/// whole-program fixpoint.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum QueryAnswer {
    /// Answer to [`Query::Summary`], one entry per entrance.
    Summary {
        /// `MAY-USE` at each entrance, saved/restored filtered.
        call_used: Vec<RegSet>,
        /// `MUST-DEF` at each entrance, saved/restored filtered.
        call_defined: Vec<RegSet>,
        /// `MAY-DEF` at each entrance, saved/restored filtered.
        call_killed: Vec<RegSet>,
        /// The §3.4 saved-and-restored set.
        saved_restored: RegSet,
    },
    /// Answer to [`Query::LiveAtEntry`].
    LiveAtEntry {
        /// Liveness at each entrance.
        live_at_entry: Vec<RegSet>,
        /// Liveness at each exit.
        live_at_exit: Vec<RegSet>,
    },
    /// Answer to [`Query::Reaches`].
    Reaches(bool),
}

/// Effort accounting for one query: what had to be analyzed before the
/// answer could be read. A query on a cache that already holds the
/// program's analysis reports zeros.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct QueryStats {
    /// Routines analyzed to answer: all of them on a cold cache, none on
    /// a warm one.
    pub routines_analyzed: usize,
    /// PSG node evaluations (phases 1 and 2) that analysis performed.
    pub visits: usize,
    /// Always 0: no query restricts the solve to a cone. Kept for the
    /// benchmark package, which sums it.
    pub cone_routines: usize,
}

impl QueryStats {
    /// The effort of the analysis run `stats` describes, as the cost of
    /// the query that needed it.
    pub fn of_run(stats: &AnalysisStats) -> QueryStats {
        QueryStats {
            routines_analyzed: stats.routines_reanalyzed,
            visits: stats.phase1_visits + stats.phase2_visits,
            cone_routines: 0,
        }
    }
}
