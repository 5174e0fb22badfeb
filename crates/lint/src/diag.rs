//! Diagnostic types: checks, severities, findings and the report.
//!
//! A finding is a [`Diagnostic`], a `Copy` record of at most 40 bytes:
//! check, severity, routine index, address, register and slot. No finding
//! owns a string. The [`LintReport`] keeps one copy of each mentioned
//! routine's name, and a side table for the few findings whose text needs
//! more than their record (an access width, a jump-table target, a
//! witness path, a note). Messages are written only when the report
//! renders (`text.rs`, `json.rs`).

use std::fmt;

use spike_core::AccessKind;
use spike_isa::{MemWidth, Reg};
use spike_program::RoutineId;

/// How serious a finding is. Error-severity findings make `spike lint`
/// exit nonzero; warnings are informational.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Severity {
    /// A defect: the program can read garbage or violate the calling
    /// standard on some path.
    Error,
    /// A code-quality observation with no soundness impact.
    Warning,
}

impl Severity {
    /// The lowercase name used in human and JSON output.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The catalogue of checks `spike-lint` runs. See DESIGN.md for the facts
/// each check consumes and its severity rationale.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum Check {
    /// A register may be read before any definition reaches the read.
    UninitRead,
    /// A callee-saved register is overwritten on a path to an exit without
    /// a matching save/restore (§3.4).
    CalleeSavedClobber,
    /// A register write no valid path reads (Figure 1(a) as a diagnostic).
    DeadStore,
    /// An argument register set for a call that does not use it
    /// (Figure 1(b) as a diagnostic).
    DeadArgument,
    /// A routine no known call path from the entry or an exported routine
    /// reaches.
    UnreachableRoutine,
    /// A basic block no intra-routine path from an entrance reaches.
    UnreachableBlock,
    /// A multiway jump whose recovered jump table has no targets.
    EmptyJumpTable,
    /// A jump table listing the same target more than once.
    DuplicateJumpTargets,
    /// The image failed to load or validate.
    MalformedImage,
    /// A stack slot may be read before any store reaches it (the slot
    /// analogue of [`Check::UninitRead`]).
    UninitStackRead,
    /// An SP-relative access outside the live frame region
    /// `[sp, entry_sp)` — reads caller memory or below-SP garbage.
    OutOfFrameAccess,
    /// A stack store no valid path reads before the slot is popped
    /// (the slot analogue of [`Check::DeadStore`]).
    DeadStackStore,
}

impl Check {
    /// The kebab-case check id used in human and JSON output.
    pub fn name(self) -> &'static str {
        match self {
            Check::UninitRead => "uninit-read",
            Check::CalleeSavedClobber => "callee-saved-clobber",
            Check::DeadStore => "dead-store",
            Check::DeadArgument => "dead-argument",
            Check::UnreachableRoutine => "unreachable-routine",
            Check::UnreachableBlock => "unreachable-block",
            Check::EmptyJumpTable => "empty-jump-table",
            Check::DuplicateJumpTargets => "duplicate-jump-targets",
            Check::MalformedImage => "malformed-image",
            Check::UninitStackRead => "uninit-stack-read",
            Check::OutOfFrameAccess => "out-of-frame-access",
            Check::DeadStackStore => "dead-stack-store",
        }
    }

    /// The default severity of findings from this check.
    pub fn severity(self) -> Severity {
        match self {
            Check::UninitRead
            | Check::CalleeSavedClobber
            | Check::EmptyJumpTable
            | Check::MalformedImage
            | Check::UninitStackRead
            | Check::OutOfFrameAccess => Severity::Error,
            Check::DeadStore
            | Check::DeadArgument
            | Check::UnreachableRoutine
            | Check::UnreachableBlock
            | Check::DuplicateJumpTargets
            | Check::DeadStackStore => Severity::Warning,
        }
    }

    /// This check's position among all checks sorted by [`Check::name`] —
    /// the finding order's last key as an integer. A new check must be
    /// slotted in by name (a unit test compares every pair).
    fn name_rank(self) -> u8 {
        match self {
            Check::CalleeSavedClobber => 0,
            Check::DeadArgument => 1,
            Check::DeadStackStore => 2,
            Check::DeadStore => 3,
            Check::DuplicateJumpTargets => 4,
            Check::EmptyJumpTable => 5,
            Check::MalformedImage => 6,
            Check::OutOfFrameAccess => 7,
            Check::UninitRead => 8,
            Check::UninitStackRead => 9,
            Check::UnreachableBlock => 10,
            Check::UnreachableRoutine => 11,
        }
    }
}

impl fmt::Display for Check {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One finding: a small `Copy` record of what a check found and where.
///
/// The record holds no text. Its routine's name lives once in the
/// report's name table, and the message, witness path and note are
/// written only when the report renders ([`LintReport::line`],
/// [`LintReport::to_json`]), from these fields and, for the few findings
/// whose text needs more, the report's side table.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Diagnostic {
    /// Which check produced the finding.
    pub check: Check,
    /// Its severity (usually [`Check::severity`], but a check may demote
    /// itself when the CFG is too uncertain to be confident).
    pub severity: Severity,
    /// The routine the finding is in, or `None` for whole-image findings.
    /// [`LintReport::routine`] gives its name.
    pub routine: Option<RoutineId>,
    /// The word address of the offending instruction, if one exists.
    pub addr: Option<u32>,
    /// The register involved, if one is.
    pub reg: Option<Reg>,
    /// For stack-slot findings: the entry-SP-relative byte offset of the
    /// slot involved.
    pub slot: Option<i64>,
    /// The finding's entry in the report's side table, or [`NO_DETAIL`].
    detail: u32,
}

/// [`Diagnostic::detail`] of a finding whose text its record covers.
const NO_DETAIL: u32 = u32::MAX;

impl Diagnostic {
    /// A finding of `check` with the check's default severity and no
    /// register, slot or side-table entry.
    pub(crate) fn new(check: Check, routine: Option<RoutineId>, addr: Option<u32>) -> Diagnostic {
        Diagnostic {
            check,
            severity: check.severity(),
            routine,
            addr,
            reg: None,
            slot: None,
            detail: NO_DETAIL,
        }
    }
}

/// A finding's side-table entry: what its text needs beyond its record.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Detail {
    pub(crate) operands: Operands,
    /// The witness path: block-start addresses from a routine entrance to
    /// the offending instruction, as a range of the report's `paths`.
    /// Empty when no path is meaningful.
    path: (u32, u32),
    pub(crate) note: Note,
}

/// Message operands beyond `(check, reg, slot, addr)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Operands {
    None,
    /// `out-of-frame-access`: the access and the SP displacement it runs
    /// at.
    OutOfFrame {
        kind: AccessKind,
        sp_disp: i64,
    },
    /// `uninit-stack-read`: the load's width.
    StackRead(MemWidth),
    /// `duplicate-jump-targets`: the repeated target and how often the
    /// table lists it.
    Duplicate {
        target: u32,
        count: u32,
    },
}

/// A clarifying note on a finding.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Note {
    None,
    /// A callee-saved clobber demoted to a warning: the routine contains
    /// an unknown-target jump.
    Demoted,
    /// A missing return value: the last call on the witness path, which
    /// was expected to produce it.
    ReturnValue(Callee),
}

/// The callee a [`Note::ReturnValue`] names.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Callee {
    Routine(RoutineId),
    Indirect,
}

/// The names of the routines a report mentions, each copied once.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
struct Names {
    /// Every name, one after another.
    text: String,
    /// Per routine index: its name's byte range in `text`, empty for a
    /// routine the report does not mention.
    spans: Vec<(u32, u32)>,
}

impl Names {
    /// `routine`'s name; the empty string for `None`.
    fn get(&self, routine: Option<RoutineId>) -> &str {
        match routine.and_then(|r| self.spans.get(r.index())) {
            Some(&(start, end)) => &self.text[start as usize..end as usize],
            None => "",
        }
    }
}

/// All findings over one program, errors first.
///
/// Besides the records, a report holds a name table (one copy of each
/// mentioned routine's name), a side table for the findings whose text
/// needs more than their record, the witness paths those entries point
/// into and the loader text of a `malformed-image` finding: a handful of
/// allocations whatever the number of findings.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct LintReport {
    diagnostics: Vec<Diagnostic>,
    details: Vec<Detail>,
    paths: Vec<u32>,
    /// The message of the `malformed-image` finding, the one finding of a
    /// report on an image that failed to load.
    loader_text: String,
    names: Names,
}

fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("report tables under 4 GiB")
}

impl LintReport {
    pub(crate) fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Pushes `d` with a side-table entry: message operands, a witness
    /// path and a note.
    pub(crate) fn push_detailed(
        &mut self,
        mut d: Diagnostic,
        operands: Operands,
        path: &[u32],
        note: Note,
    ) {
        let start = offset(self.paths.len());
        self.paths.extend_from_slice(path);
        let path = (start, offset(self.paths.len()));
        d.detail = offset(self.details.len());
        self.details.push(Detail { operands, path, note });
        self.diagnostics.push(d);
    }

    /// The report on an image that failed to load: one `malformed-image`
    /// finding whose message is the loader's `text`.
    pub(crate) fn malformed_image(text: String) -> LintReport {
        let d = Diagnostic::new(Check::MalformedImage, None, None);
        LintReport { diagnostics: vec![d], loader_text: text, ..LintReport::default() }
    }

    /// Sorts findings errors-first, then by routine name, address (none
    /// first) and check name, ties kept in push order — so output is
    /// deterministic and the serious findings lead. `name_of` names the
    /// program's routines; each one the report mentions is asked for and
    /// copied once.
    ///
    /// Each finding gets one integer key of those five fields with the
    /// routine name replaced by its rank in name order, so the sort
    /// compares no strings; then every record moves into place once.
    pub(crate) fn finish<'p>(&mut self, name_of: impl Fn(RoutineId) -> &'p str) {
        let rank = self.name_routines(name_of);
        let diagnostics = &mut self.diagnostics;
        let mut keys: Vec<u128> = Vec::with_capacity(diagnostics.len());
        for (i, d) in diagnostics.iter().enumerate() {
            let name_rank = u128::from(d.routine.map_or(0, |r| rank[r.index()]));
            let severity = u128::from(d.severity == Severity::Warning);
            let addr = d.addr.map_or(0, |a| u128::from(a) + 1);
            let index = u32::try_from(i).expect("fewer than 2^32 findings");
            keys.push(
                severity << 105
                    | name_rank << 73
                    | addr << 40
                    | u128::from(d.check.name_rank()) << 32
                    | u128::from(index),
            );
        }
        keys.sort_unstable();

        // Slot `i` takes the finding that was at `order[i]`: follow each
        // cycle of the permutation, marking slots done as they fill.
        let mut order: Vec<u32> = keys.into_iter().map(|k| k as u32).collect();
        for start in 0..order.len() {
            let mut i = start;
            loop {
                let from = order[i] as usize;
                order[i] = i as u32;
                if from == start {
                    break;
                }
                diagnostics.swap(i, from);
                i = from;
            }
        }
    }

    /// Copies the name of every routine a finding or a note mentions into
    /// the name table, once each, and returns their ranks in name order
    /// by routine index. The empty name ranks 0, tying with the
    /// whole-image findings, and equal names rank equal.
    fn name_routines<'p>(&mut self, name_of: impl Fn(RoutineId) -> &'p str) -> Vec<u32> {
        // Checks push a routine's findings together, so one routine per
        // run of equal routines collects them all.
        let mut named: Vec<RoutineId> = Vec::new();
        let mut last = None;
        for d in &self.diagnostics {
            if d.routine != last {
                named.extend(d.routine);
                last = d.routine;
            }
        }
        named.extend(self.details.iter().filter_map(|x| match x.note {
            Note::ReturnValue(Callee::Routine(r)) => Some(r),
            _ => None,
        }));
        named.sort_unstable();
        named.dedup();

        let names = &mut self.names;
        names.text.clear();
        names.spans = vec![(0, 0); named.last().map_or(0, |r| r.index() + 1)];
        for &r in &named {
            let start = offset(names.text.len());
            names.text.push_str(name_of(r));
            names.spans[r.index()] = (start, offset(names.text.len()));
        }

        named.sort_by(|&a, &b| names.get(Some(a)).cmp(names.get(Some(b))));
        let mut rank = vec![0; names.spans.len()];
        let (mut current, mut previous) = (0, "");
        for &r in &named {
            let name = names.get(Some(r));
            if name != previous {
                (current, previous) = (current + 1, name);
            }
            rank[r.index()] = current;
        }
        rank
    }

    /// The comparator [`LintReport::finish`] replaced: a stable sort on
    /// the same keys, comparing routine and check names as strings.
    #[cfg(test)]
    fn finish_reference<'p>(&mut self, name_of: impl Fn(RoutineId) -> &'p str) {
        self.name_routines(name_of);
        let names = &self.names;
        self.diagnostics.sort_by(|a, b| {
            let rank = |d: &Diagnostic| (d.severity == Severity::Warning) as u8;
            rank(a)
                .cmp(&rank(b))
                .then_with(|| names.get(a.routine).cmp(names.get(b.routine)))
                .then_with(|| a.addr.cmp(&b.addr))
                .then_with(|| a.check.name().cmp(b.check.name()))
        });
    }

    /// All findings, errors first.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Error).count()
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Warning).count()
    }

    /// `true` when there are no error-severity findings (warnings are
    /// allowed).
    pub fn is_clean(&self) -> bool {
        self.errors() == 0
    }

    /// The name of the routine finding `d` of this report is in; empty
    /// for whole-image findings.
    pub fn routine(&self, d: &Diagnostic) -> &str {
        self.names.get(d.routine)
    }

    /// The path witnessing finding `d` of this report: block-start
    /// addresses from a routine entrance to the offending instruction.
    /// Empty when no path is meaningful (e.g. unreachable code).
    pub fn witness(&self, d: &Diagnostic) -> &[u32] {
        self.detail(d).map_or(&[], |x| &self.paths[x.path.0 as usize..x.path.1 as usize])
    }

    /// The name of `routine`, which this report mentions.
    pub(crate) fn routine_name(&self, routine: RoutineId) -> &str {
        self.names.get(Some(routine))
    }

    /// Finding `d`'s side-table entry, if it has one.
    pub(crate) fn detail(&self, d: &Diagnostic) -> Option<&Detail> {
        self.details.get(d.detail as usize)
    }

    /// The loader's text of a `malformed-image` finding.
    pub(crate) fn loader_text(&self) -> &str {
        &self.loader_text
    }
}

impl fmt::Display for LintReport {
    /// The human report: one line per finding, then the error and warning
    /// counts (no trailing newline).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_human(None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Every check. The match stops compiling when a variant is added, so
    /// a new check cannot miss the rank test below.
    const ALL: [Check; 12] = [
        Check::UninitRead,
        Check::CalleeSavedClobber,
        Check::DeadStore,
        Check::DeadArgument,
        Check::UnreachableRoutine,
        Check::UnreachableBlock,
        Check::EmptyJumpTable,
        Check::DuplicateJumpTargets,
        Check::MalformedImage,
        Check::UninitStackRead,
        Check::OutOfFrameAccess,
        Check::DeadStackStore,
    ];

    fn listed(c: Check) -> bool {
        match c {
            Check::UninitRead
            | Check::CalleeSavedClobber
            | Check::DeadStore
            | Check::DeadArgument
            | Check::UnreachableRoutine
            | Check::UnreachableBlock
            | Check::EmptyJumpTable
            | Check::DuplicateJumpTargets
            | Check::MalformedImage
            | Check::UninitStackRead
            | Check::OutOfFrameAccess
            | Check::DeadStackStore => ALL.contains(&c),
        }
    }

    #[test]
    fn check_name_rank_follows_name_order() {
        for a in ALL {
            assert!(listed(a));
            assert!(usize::from(a.name_rank()) < ALL.len(), "{a}: rank out of range");
            for b in ALL {
                assert_eq!(
                    a.name_rank().cmp(&b.name_rank()),
                    a.name().cmp(b.name()),
                    "{a} vs {b}: name rank disagrees with name order"
                );
            }
        }
    }

    #[test]
    fn a_finding_is_a_small_record() {
        assert!(std::mem::size_of::<Diagnostic>() <= 40, "{}", std::mem::size_of::<Diagnostic>());
    }

    /// Routine names with shared prefixes, the empty name, upper case and
    /// multi-byte UTF-8, so byte order is what decides. Index
    /// `ROUTINES.len()` stands for a whole-image finding, whose empty name
    /// ties with routine 0's.
    const ROUTINES: [&str; 6] = ["", "a", "ab", "b", "B", "é"];

    fn name_of(r: RoutineId) -> &'static str {
        ROUTINES[r.index()]
    }

    fn report(raw: &[(bool, usize, u32, usize)]) -> LintReport {
        let mut r = LintReport::default();
        for (i, &(warning, routine, addr, check)) in raw.iter().enumerate() {
            let routine = (routine < ROUTINES.len()).then(|| RoutineId::from_index(routine));
            let mut d = Diagnostic::new(ALL[check], routine, addr.checked_sub(1));
            d.severity = if warning { Severity::Warning } else { Severity::Error };
            // The slot carries the push index, so stability shows.
            d.slot = Some(i as i64);
            r.push(d);
        }
        r
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn finish_matches_the_string_comparator(
            raw in proptest::collection::vec(
                (any::<bool>(), 0usize..=ROUTINES.len(), 0u32..4, 0usize..ALL.len()),
                0..200,
            ),
            grouped in any::<bool>(),
        ) {
            // Duplicate keys are common at this length. `grouped` gives the
            // long runs of one routine that the checks push.
            let mut raw = raw;
            if grouped {
                raw.sort_by_key(|&(_, routine, _, _)| routine);
            }
            let mut fast = report(&raw);
            fast.finish(name_of);
            let mut reference = report(&raw);
            reference.finish_reference(name_of);
            prop_assert_eq!(fast.diagnostics(), reference.diagnostics());
        }
    }
}
