//! The Alpha/NT calling standard register roles (§3.4, §3.5 of the paper).

use crate::reg::Reg;
use crate::regset::RegSet;

crate::analysis_struct! {
    /// Register roles defined by the Windows NT calling standard for Alpha
    /// (`[CALLSTD]` in the paper).
    ///
    /// Spike's analysis consults the calling standard in two places:
    ///
    /// * **§3.4 callee-saved registers** — definitions and uses of registers in
    ///   [`callee_saved`](CallingStandard::callee_saved) that a routine saves and
    ///   restores must not propagate to callers;
    /// * **§3.5 indirect calls to unknown targets** — assumed to obey the
    ///   standard: [`argument`](CallingStandard::argument) registers are
    ///   call-used, [`return_value`](CallingStandard::return_value) registers are
    ///   call-defined, and [`temporary`](CallingStandard::temporary) registers
    ///   are call-killed.
    ///
    /// ```
    /// use spike_isa::{CallingStandard, Reg};
    /// let std = CallingStandard::alpha_nt();
    /// assert!(std.callee_saved().contains(Reg::S0));
    /// assert!(std.argument().contains(Reg::A0));
    /// assert!(std.temporary().contains(Reg::T0));
    /// assert!(std.callee_saved().is_disjoint(std.temporary()));
    /// ```
    #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
    pub struct CallingStandard {
        argument: RegSet,
        return_value: RegSet,
        callee_saved: RegSet,
        temporary: RegSet,
        special: RegSet,
    }
}

impl CallingStandard {
    /// The Alpha/NT calling standard used throughout the paper.
    ///
    /// Integer bank: `v0` return value; `t0..t7`, `t8..t11`, `at`, `pv`
    /// temporaries; `s0..s5`, `fp` callee-saved; `a0..a5` arguments; `ra`,
    /// `gp`, `sp`, `zero` special. Floating-point bank: `f0`/`f1` return
    /// values, `f16..f21` arguments, `f2..f9` callee-saved, the rest
    /// temporaries.
    pub fn alpha_nt() -> CallingStandard {
        let mut argument = RegSet::new();
        for n in 16..=21 {
            argument.insert(Reg::int(n));
            argument.insert(Reg::fp(n));
        }

        let return_value = RegSet::of(&[Reg::V0, Reg::fp(0), Reg::fp(1)]);

        let mut callee_saved = RegSet::new();
        for n in 9..=14 {
            callee_saved.insert(Reg::int(n));
        }
        callee_saved.insert(Reg::FP);
        for n in 2..=9 {
            callee_saved.insert(Reg::fp(n));
        }

        let mut temporary = RegSet::new();
        for n in 1..=8 {
            temporary.insert(Reg::int(n));
        }
        for n in 22..=25 {
            temporary.insert(Reg::int(n));
        }
        temporary.insert(Reg::int(27)); // pv
        temporary.insert(Reg::int(28)); // at
        for n in 10..=15 {
            temporary.insert(Reg::fp(n));
        }
        for n in 22..=30 {
            temporary.insert(Reg::fp(n));
        }

        let special = RegSet::of(&[Reg::RA, Reg::GP, Reg::SP, Reg::ZERO, Reg::FZERO]);

        CallingStandard { argument, return_value, callee_saved, temporary, special }
    }

    /// Registers used to pass arguments (`a0..a5`, `f16..f21`).
    #[inline]
    pub fn argument(&self) -> RegSet {
        self.argument
    }

    /// Registers used to return values (`v0`, `f0`, `f1`).
    #[inline]
    pub fn return_value(&self) -> RegSet {
        self.return_value
    }

    /// Callee-saved registers (`s0..s5`, `fp`, `f2..f9`).
    #[inline]
    pub fn callee_saved(&self) -> RegSet {
        self.callee_saved
    }

    /// Caller-saved (temporary) registers. Return-value and argument
    /// registers are *not* included even though they are also volatile;
    /// query [`caller_saved`](CallingStandard::caller_saved) for the full
    /// volatile set.
    #[inline]
    pub fn temporary(&self) -> RegSet {
        self.temporary
    }

    /// Special registers (`ra`, `gp`, `sp`, and the zero registers) that
    /// take no part in ordinary value dataflow.
    #[inline]
    pub fn special(&self) -> RegSet {
        self.special
    }

    /// Every register a call may clobber: temporaries, argument and
    /// return-value registers, and `ra`.
    #[inline]
    pub fn caller_saved(&self) -> RegSet {
        self.temporary | self.argument | self.return_value | RegSet::singleton(Reg::RA)
    }

    /// The registers assumed **call-used** by an indirect call to an
    /// unknown target (§3.5): the argument registers plus `sp`/`gp` (the
    /// stack and global environment are always considered consumed).
    #[inline]
    pub fn unknown_call_used(&self) -> RegSet {
        self.argument | RegSet::of(&[Reg::SP, Reg::GP, Reg::PV])
    }

    /// The registers assumed **call-defined** by an indirect call to an
    /// unknown target (§3.5): the return-value registers.
    #[inline]
    pub fn unknown_call_defined(&self) -> RegSet {
        self.return_value
    }

    /// The registers assumed **call-killed** by an indirect call to an
    /// unknown target (§3.5): every caller-saved register.
    #[inline]
    pub fn unknown_call_killed(&self) -> RegSet {
        self.caller_saved()
    }

    /// The registers assumed live at the target of an indirect jump whose
    /// jump table cannot be recovered (§3.5): all of them.
    #[inline]
    pub fn unknown_jump_live(&self) -> RegSet {
        RegSet::ALL
    }
}

impl Default for CallingStandard {
    fn default() -> CallingStandard {
        CallingStandard::alpha_nt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn role_sets_partition_the_register_file() {
        let std = CallingStandard::alpha_nt();
        let all = std.argument()
            | std.return_value()
            | std.callee_saved()
            | std.temporary()
            | std.special();
        assert_eq!(all, RegSet::ALL, "every register has a role");

        // Pairwise disjoint.
        let sets = [
            std.argument(),
            std.return_value(),
            std.callee_saved(),
            std.temporary(),
            std.special(),
        ];
        for (i, a) in sets.iter().enumerate() {
            for (j, b) in sets.iter().enumerate() {
                if i != j {
                    assert!(a.is_disjoint(*b), "roles {i} and {j} overlap");
                }
            }
        }
    }

    #[test]
    fn documented_examples_hold() {
        let std = CallingStandard::alpha_nt();
        assert!(std.argument().contains(Reg::A0));
        assert!(std.argument().contains(Reg::fp(16)));
        assert!(std.return_value().contains(Reg::V0));
        assert!(std.callee_saved().contains(Reg::S0));
        assert!(std.callee_saved().contains(Reg::FP));
        assert!(std.callee_saved().contains(Reg::fp(2)));
        assert!(std.temporary().contains(Reg::T0));
        assert!(std.temporary().contains(Reg::PV));
        assert!(std.special().contains(Reg::SP));
        assert!(std.special().contains(Reg::ZERO));
    }

    #[test]
    fn unknown_call_assumptions_follow_section_3_5() {
        let std = CallingStandard::alpha_nt();
        assert!(std.unknown_call_used().contains(Reg::A0));
        assert!(std.unknown_call_defined().contains(Reg::V0));
        assert!(std.unknown_call_killed().contains(Reg::T0));
        assert!(std.unknown_call_killed().contains(Reg::RA));
        // Callee-saved registers are never assumed killed.
        assert!(std.unknown_call_killed().is_disjoint(std.callee_saved()));
        assert_eq!(std.unknown_jump_live(), RegSet::ALL);
    }

    #[test]
    fn caller_saved_is_superset_of_temporaries_and_args() {
        let std = CallingStandard::alpha_nt();
        assert!(std.temporary().is_subset(std.caller_saved()));
        assert!(std.argument().is_subset(std.caller_saved()));
        assert!(std.return_value().is_subset(std.caller_saved()));
        assert!(std.caller_saved().is_disjoint(std.callee_saved()));
    }
}
