//! # spike-asm
//!
//! A textual assembly format for the synthetic ISA, with a writer
//! ([`write_asm`]) and parser ([`parse_asm`]) that round-trip whole
//! programs exactly — including jump tables, indirect-call target lists,
//! §3.5 hints, alternate entrances, exports and address relocations.
//!
//! # Format
//!
//! ```text
//! ; comment
//! .routine main export        ; `export` marks unseen external callers
//!     lda a0, 21(zero)
//!     bsr double              ; direct call by routine name
//!     putint
//!     halt
//!
//! .routine double
//! top:                        ; labels name branch targets
//!     addq a0, a0, v0
//!     beq a0, top
//!     ret (ra)
//! ```
//!
//! Multiway jumps, indirect calls and address materializations carry
//! their auxiliary information inline:
//!
//! ```text
//!     jmp (t0), [case0, case1]            ; jump table
//!     jmp (t0)                            ; unknown target
//!     jmp (t0), live={v0, a0}             ; §3.5 live-register hint
//!     jsr (pv), {f, g}                    ; recovered target set
//!     jsr (pv)                            ; unknown target
//!     jsr (pv), used={a0} defined={v0} killed={v0, t0}
//!     lda t0, &case0                      ; address of a local label
//!     lda pv, &&double                    ; address of a routine entrance
//! .entry mid                              ; `mid:` is an alternate entrance
//! ```
//!
//! # Example
//!
//! ```
//! let text = "\
//! .routine main
//!     lda a0, 21(zero)
//!     bsr double
//!     putint
//!     halt
//! .routine double
//!     addq a0, a0, v0
//!     ret (ra)
//! ";
//! let program = spike_asm::parse_asm(text)?;
//! assert_eq!(program.routines().len(), 2);
//! // The writer emits an equivalent module.
//! let round = spike_asm::parse_asm(&spike_asm::write_asm(&program))?;
//! assert_eq!(round, program);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

mod parse;
mod write;

pub use parse::{parse_asm, AsmError};
pub use write::write_asm;

#[cfg(test)]
mod tests {
    use spike_isa::{Reg, RegSet};
    use spike_program::ProgramBuilder;

    use super::*;

    #[test]
    fn round_trips_a_feature_complete_program() {
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .def(Reg::A0)
            .label("top")
            .cond(spike_isa::BranchCond::Ne, Reg::A0, "top")
            .call("util")
            .call("util:alt")
            .lda_label(Reg::T0, "cases")
            .label("cases")
            .switch(Reg::T0, &["c0", "c1"])
            .label("c0")
            .br("end")
            .label("c1")
            .def(Reg::T1)
            .label("end")
            .lda_routine(Reg::PV, "util")
            .jsr_known(Reg::PV, &["util"])
            .jsr_unknown(Reg::PV)
            .jsr_hinted(
                Reg::PV,
                RegSet::of(&[Reg::A0]),
                RegSet::of(&[Reg::V0]),
                RegSet::of(&[Reg::V0, Reg::T0]),
            )
            .put_int()
            .halt();
        b.routine("util").export().def(Reg::T2).label("alt").alt_entry("alt").def(Reg::V0).ret();
        b.routine("spinner").jmp_hinted(Reg::T3, RegSet::of(&[Reg::V0])).halt();
        let program = b.build().unwrap();

        let text = write_asm(&program);
        let parsed = parse_asm(&text).unwrap_or_else(|e| panic!("parse failed: {e}\n{text}"));
        assert_eq!(parsed, program, "round trip:\n{text}");
    }

    #[test]
    fn generated_profiles_round_trip() {
        for name in ["li", "perl", "vortex"] {
            let p = spike_synth::profile(name).unwrap();
            let program = spike_synth::generate(&p, 25.0 / p.routines as f64, 11);
            let text = write_asm(&program);
            let parsed = parse_asm(&text).unwrap_or_else(|e| panic!("{name} parse failed: {e}"));
            assert_eq!(parsed, program, "{name} round trip");
        }
    }

    #[test]
    fn generated_executables_round_trip() {
        for seed in 0..10 {
            let program = spike_synth::generate_executable(seed, 5);
            let parsed = parse_asm(&write_asm(&program)).expect("parses");
            assert_eq!(parsed, program, "seed {seed}");
        }
    }
}
