//! The assembly writer: renders a [`Program`] as text the parser can read
//! back exactly.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use spike_isa::Instruction;
use spike_program::{IndirectTargets, Program, Routine};

/// Renders `program` in the crate's assembly format.
///
/// Every branch target, jump-table case, alternate entrance and
/// relocation target gets a local label `L<offset>`; direct calls and
/// routine-address materializations are written symbolically, so the text
/// is position-independent and [`crate::parse_asm`] reproduces the
/// program exactly.
pub fn write_asm(program: &Program) -> String {
    let mut out = String::new();
    for (_, r) in program.iter() {
        write_routine(&mut out, program, r);
    }
    out
}

/// The offsets within `r` that need a label: branch targets, jump-table
/// cases, alternate entrances, and in-routine relocation targets.
fn label_offsets(program: &Program, r: &Routine) -> BTreeSet<u32> {
    let mut labels = BTreeSet::new();
    for (i, insn) in r.insns().iter().enumerate() {
        let addr = r.addr() + i as u32;
        match *insn {
            Instruction::Br { disp } | Instruction::CondBranch { disp, .. } => {
                labels.insert(addr.wrapping_add(1).wrapping_add(disp as u32) - r.addr());
            }
            Instruction::Jmp { .. } => {
                if let Some(table) = program.jump_table(addr) {
                    for &t in table {
                        labels.insert(t - r.addr());
                    }
                }
            }
            _ => {}
        }
    }
    for &off in r.entry_offsets() {
        if off != 0 {
            labels.insert(off);
        }
    }
    for &target in program.relocations().values() {
        if r.contains_addr(target) && !r.entry_addrs().any(|a| a == target) {
            labels.insert(target - r.addr());
        }
    }
    labels
}

/// Symbolic name for an entrance address: `name` or `name:L<off>`.
fn entry_name(program: &Program, addr: u32) -> String {
    let (rid, _) = program.entry_at(addr).expect("address is an entrance");
    let r = program.routine(rid);
    if addr == r.addr() {
        r.name().to_string()
    } else {
        format!("{}:L{}", r.name(), addr - r.addr())
    }
}

fn write_routine(out: &mut String, program: &Program, r: &Routine) {
    let labels = label_offsets(program, r);
    let export = if r.exported() { " export" } else { "" };
    writeln!(out, ".routine {}{export}", r.name()).unwrap();
    for &off in r.entry_offsets() {
        if off != 0 {
            writeln!(out, ".entry L{off}").unwrap();
        }
    }

    for (i, insn) in r.insns().iter().enumerate() {
        let off = i as u32;
        let addr = r.addr() + off;
        if labels.contains(&off) {
            writeln!(out, "L{off}:").unwrap();
        }
        write!(out, "    ").unwrap();
        write_insn(out, program, r, addr, insn);
        writeln!(out).unwrap();
    }
    writeln!(out).unwrap();
}

/// Writes one instruction. Only the forms whose text names program
/// context (branch labels, call targets, jump tables and hints, indirect
/// call targets, relocated address materializations) are spelled here;
/// every other form is the instruction's own [`Display`](std::fmt::Display).
fn write_insn(out: &mut String, program: &Program, r: &Routine, addr: u32, insn: &Instruction) {
    let local =
        |disp: i32| -> String { format!("L{}", (addr + 1).wrapping_add(disp as u32) - r.addr()) };
    match *insn {
        Instruction::Br { disp } => write!(out, "br {}", local(disp)).unwrap(),
        Instruction::CondBranch { cond, ra, disp } => {
            write!(out, "{} {ra}, {}", cond.mnemonic(), local(disp)).unwrap()
        }
        Instruction::Bsr { disp } => {
            let target = addr.wrapping_add(1).wrapping_add(disp as u32);
            write!(out, "bsr {}", entry_name(program, target)).unwrap()
        }
        Instruction::Jmp { .. } => {
            write!(out, "{insn}").unwrap();
            if let Some(table) = program.jump_table(addr) {
                let cases: Vec<String> =
                    table.iter().map(|&t| format!("L{}", t - r.addr())).collect();
                write!(out, ", [{}]", cases.join(", ")).unwrap();
            } else if let Some(hint) = program.jump_hint(addr) {
                write!(out, ", live={hint}").unwrap();
            }
        }
        Instruction::Jsr { .. } => {
            write!(out, "{insn}").unwrap();
            match program.indirect_call_targets(addr) {
                IndirectTargets::Unknown => {}
                IndirectTargets::Known(list) => {
                    let names: Vec<String> = list.iter().map(|&a| entry_name(program, a)).collect();
                    write!(out, ", {{{}}}", names.join(", ")).unwrap();
                }
                IndirectTargets::Hinted { used, defined, killed } => {
                    write!(out, ", used={used} defined={defined} killed={killed}").unwrap();
                }
            }
        }
        Instruction::Lda { rd, .. } if program.relocations().contains_key(&addr) => {
            let target = program.relocations()[&addr];
            if r.contains_addr(target) && !r.entry_addrs().any(|a| a == target) {
                write!(out, "lda {rd}, &L{}", target - r.addr()).unwrap();
            } else {
                write!(out, "lda {rd}, &&{}", entry_name(program, target)).unwrap();
            }
        }
        _ => write!(out, "{insn}").unwrap(),
    }
}
