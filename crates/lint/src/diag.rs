//! Diagnostic types: checks, severities, findings and the report.

use std::fmt;

use spike_isa::Reg;

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

/// One finding.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Diagnostic {
    /// Which check produced the finding.
    pub check: Check,
    /// Its severity (usually [`Check::severity`], but a check may demote
    /// itself when the CFG is too uncertain to be confident).
    pub severity: Severity,
    /// The routine the finding is in, or an empty string for whole-image
    /// findings.
    pub routine: String,
    /// The word address of the offending instruction, if one exists.
    pub addr: Option<u32>,
    /// The register involved, if one is.
    pub reg: Option<Reg>,
    /// For stack-slot findings: the entry-SP-relative byte offset of the
    /// slot involved.
    pub slot: Option<i64>,
    /// Human-readable description.
    pub message: String,
    /// A path witnessing the finding: block-start addresses from a routine
    /// entrance to the offending instruction. Empty when no path is
    /// meaningful (e.g. unreachable code).
    pub witness: Vec<u32>,
    /// An optional clarifying note (e.g. the missing-return-value case of
    /// `uninit-read` names the call expected to produce the value).
    pub note: Option<String>,
}

impl Diagnostic {
    /// Builds a diagnostic for `check` with its default severity.
    pub fn new(check: Check, routine: impl Into<String>, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            check,
            severity: check.severity(),
            routine: routine.into(),
            addr: None,
            reg: None,
            slot: None,
            message: message.into(),
            witness: Vec::new(),
            note: None,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.severity.name())?;
        f.write_str("[")?;
        f.write_str(self.check.name())?;
        f.write_str("]")?;
        if !self.routine.is_empty() {
            f.write_str(" ")?;
            f.write_str(&self.routine)?;
        }
        if let Some(addr) = self.addr {
            write!(f, "+{addr:#x}")?;
        }
        f.write_str(": ")?;
        f.write_str(&self.message)?;
        if let Some((first, rest)) = self.witness.split_first() {
            write!(f, " (path: {first:#x}")?;
            for a in rest {
                write!(f, " -> {a:#x}")?;
            }
            f.write_str(")")?;
        }
        if let Some(note) = &self.note {
            write!(f, "; note: {note}")?;
        }
        Ok(())
    }
}

/// All findings over one program, errors first.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct LintReport {
    diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    pub(crate) fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Sorts findings errors-first, then by routine, address (none first)
    /// and check name, ties kept in push order — so output is
    /// deterministic and the serious findings lead.
    ///
    /// Each finding gets one integer key of those five fields with the
    /// routine name replaced by its rank among the distinct names, so the
    /// sort compares no strings; then every finding moves into place once.
    pub(crate) fn finish(&mut self) {
        let diagnostics = &mut self.diagnostics;
        // Checks push a routine's findings together, so one name per run
        // of equal names collects every distinct name.
        let mut names: Vec<&str> = Vec::new();
        for d in diagnostics.iter() {
            if names.last() != Some(&d.routine.as_str()) {
                names.push(&d.routine);
            }
        }
        names.sort_unstable();
        names.dedup();

        let mut keys: Vec<u128> = Vec::with_capacity(diagnostics.len());
        let mut run: Option<(&str, u128)> = None;
        for (i, d) in diagnostics.iter().enumerate() {
            let name_rank = match run {
                Some((name, rank)) if name == d.routine => rank,
                _ => {
                    let rank = names.binary_search(&d.routine.as_str()).expect("name ranked");
                    run = Some((&d.routine, rank as u128));
                    rank as u128
                }
            };
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

    /// The comparator [`LintReport::finish`] replaced: a stable sort on
    /// the same keys, comparing routine and check names as strings.
    #[cfg(test)]
    fn finish_reference(&mut self) {
        self.diagnostics.sort_by(|a, b| {
            let rank = |d: &Diagnostic| (d.severity == Severity::Warning) as u8;
            rank(a)
                .cmp(&rank(b))
                .then_with(|| a.routine.cmp(&b.routine))
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
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        write!(f, "{} error(s), {} warning(s)", self.errors(), self.warnings())
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

    /// Routine names with shared prefixes, the empty whole-image name and
    /// multi-byte UTF-8, so byte order is what decides.
    const ROUTINES: [&str; 6] = ["", "a", "ab", "b", "B", "é"];

    fn report(raw: &[(bool, usize, u32, usize)]) -> LintReport {
        let mut r = LintReport::default();
        for (i, &(warning, routine, addr, check)) in raw.iter().enumerate() {
            // The message carries the push index, so stability shows.
            let mut d = Diagnostic::new(ALL[check], ROUTINES[routine], format!("#{i}"));
            d.severity = if warning { Severity::Warning } else { Severity::Error };
            d.addr = addr.checked_sub(1);
            r.push(d);
        }
        r
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn finish_matches_the_string_comparator(
            raw in proptest::collection::vec(
                (any::<bool>(), 0usize..ROUTINES.len(), 0u32..4, 0usize..ALL.len()),
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
            fast.finish();
            let mut reference = report(&raw);
            reference.finish_reference();
            prop_assert_eq!(fast.diagnostics(), reference.diagnostics());
        }
    }
}
