//! The assembly parser: builds a [`Program`] from the crate's textual
//! format via [`spike_program::ProgramBuilder`].

use std::fmt;

use spike_isa::{AluOp, BranchCond, FpOp, Instruction, MemWidth, Reg, RegSet};
use spike_program::{Program, ProgramBuilder};

/// Error produced by [`parse_asm`], carrying the 1-based source line.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AsmError {
    /// 1-based line number of the offending text (0 for whole-module
    /// errors such as build failures).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "asm error: {}", self.message)
        } else {
            write!(f, "asm error at line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for AsmError {}

fn err(line: usize, message: impl Into<String>) -> AsmError {
    AsmError { line, message: message.into() }
}

/// Parses a module in the format produced by [`crate::write_asm`].
///
/// # Errors
///
/// Returns an [`AsmError`] with the offending line for syntax problems,
/// unknown mnemonics/registers, malformed operands, or (line 0) whole-
/// program assembly failures (undefined labels, fall-through ends, …).
pub fn parse_asm(text: &str) -> Result<Program, AsmError> {
    let mut builder = ProgramBuilder::new();
    let mut current: Option<String> = None;

    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.split(';').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }

        if let Some(rest) = line.strip_prefix(".routine") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().ok_or_else(|| err(lineno, ".routine needs a name"))?;
            let export = match parts.next() {
                None => false,
                Some("export") => true,
                Some(other) => return Err(err(lineno, format!("unexpected `{other}`"))),
            };
            let r = builder.routine(name);
            if export {
                r.export();
            }
            current = Some(name.to_string());
            continue;
        }

        let name =
            current.clone().ok_or_else(|| err(lineno, "instruction outside of a .routine"))?;
        let r = builder.routine(&name);

        if let Some(rest) = line.strip_prefix(".entry") {
            r.alt_entry(rest.trim());
            continue;
        }
        if let Some(label) = line.strip_suffix(':') {
            if label.contains(char::is_whitespace) {
                return Err(err(lineno, "label names cannot contain spaces"));
            }
            r.label(label);
            continue;
        }

        parse_instruction(r, line, lineno)?;
    }

    builder.build().map_err(|e| err(0, format!("assembly failed: {e}")))
}

/// Splits an operand list on top-level commas (commas inside `{}`/`[]`
/// group registers and cases, not operands).
fn split_operands(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, c) in s.char_indices() {
        match c {
            '{' | '[' | '(' => depth += 1,
            '}' | ']' | ')' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                out.push(s[start..i].trim());
                start = i + 1;
            }
            _ => {}
        }
    }
    let last = s[start..].trim();
    if !last.is_empty() {
        out.push(last);
    }
    out
}

/// Splits on whitespace outside of `{}`/`[]`/`()`.
fn split_ws_toplevel(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut start: Option<usize> = None;
    for (i, c) in s.char_indices() {
        match c {
            '{' | '[' | '(' => depth += 1,
            '}' | ']' | ')' => depth = depth.saturating_sub(1),
            _ => {}
        }
        if c.is_whitespace() && depth == 0 {
            if let Some(st) = start.take() {
                out.push(&s[st..i]);
            }
        } else if start.is_none() {
            start = Some(i);
        }
    }
    if let Some(st) = start {
        out.push(&s[st..]);
    }
    out
}

fn parse_reg(s: &str, line: usize) -> Result<Reg, AsmError> {
    Reg::all()
        .find(|r| r.to_string() == s)
        .ok_or_else(|| err(line, format!("unknown register `{s}`")))
}

/// Parses `(reg)`.
fn parse_paren_reg(s: &str, line: usize) -> Result<Reg, AsmError> {
    let inner = s
        .strip_prefix('(')
        .and_then(|s| s.strip_suffix(')'))
        .ok_or_else(|| err(line, format!("expected (reg), got `{s}`")))?;
    parse_reg(inner.trim(), line)
}

/// Parses `disp(base)`.
fn parse_mem(s: &str, line: usize) -> Result<(i16, Reg), AsmError> {
    let open = s.find('(').ok_or_else(|| err(line, format!("expected disp(base), got `{s}`")))?;
    let disp: i16 =
        s[..open].trim().parse().map_err(|_| err(line, format!("bad displacement in `{s}`")))?;
    let base = parse_paren_reg(s[open..].trim(), line)?;
    Ok((disp, base))
}

/// Parses `{a0, v0}` (or `{}`).
fn parse_regset(s: &str, line: usize) -> Result<RegSet, AsmError> {
    let inner = s
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(|| err(line, format!("expected {{regs}}, got `{s}`")))?;
    let mut set = RegSet::new();
    for part in inner.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        set.insert(parse_reg(part, line)?);
    }
    Ok(set)
}

/// Parses `key={regs}` where the operand begins with `key=`.
fn parse_keyed_set(s: &str, key: &str, line: usize) -> Result<RegSet, AsmError> {
    let rest = s
        .strip_prefix(key)
        .and_then(|s| s.strip_prefix('='))
        .ok_or_else(|| err(line, format!("expected {key}={{...}}, got `{s}`")))?;
    parse_regset(rest.trim(), line)
}

fn parse_instruction(
    r: &mut spike_program::RoutineBuilder,
    line: &str,
    lineno: usize,
) -> Result<(), AsmError> {
    let (mn, rest) = match line.split_once(char::is_whitespace) {
        Some((m, rest)) => (m, rest.trim()),
        None => (line, ""),
    };
    let ops = split_operands(rest);
    let want = |n: usize| -> Result<(), AsmError> {
        if ops.len() == n {
            Ok(())
        } else {
            Err(err(lineno, format!("`{mn}` expects {n} operands, got {}", ops.len())))
        }
    };

    if let Some(op) = AluOp::from_mnemonic(mn) {
        want(3)?;
        let ra = parse_reg(ops[0], lineno)?;
        let rc = parse_reg(ops[2], lineno)?;
        if let Some(imm) = ops[1].strip_prefix('#') {
            let imm: u8 =
                imm.parse().map_err(|_| err(lineno, format!("bad immediate `{}`", ops[1])))?;
            r.insn(Instruction::OperateImm { op, ra, imm, rc });
        } else {
            let rb = parse_reg(ops[1], lineno)?;
            r.insn(Instruction::Operate { op, ra, rb, rc });
        }
        return Ok(());
    }
    if let Some(op) = FpOp::from_mnemonic(mn) {
        want(3)?;
        r.insn(Instruction::FpOperate {
            op,
            fa: parse_reg(ops[0], lineno)?,
            fb: parse_reg(ops[1], lineno)?,
            fc: parse_reg(ops[2], lineno)?,
        });
        return Ok(());
    }
    if let Some(width) = MemWidth::from_load_mnemonic(mn) {
        want(2)?;
        let rd = parse_reg(ops[0], lineno)?;
        let (disp, base) = parse_mem(ops[1], lineno)?;
        r.insn(Instruction::Load { width, rd, base, disp });
        return Ok(());
    }
    if let Some(width) = MemWidth::from_store_mnemonic(mn) {
        want(2)?;
        let rs = parse_reg(ops[0], lineno)?;
        let (disp, base) = parse_mem(ops[1], lineno)?;
        r.insn(Instruction::Store { width, rs, base, disp });
        return Ok(());
    }
    if let Some(cond) = BranchCond::from_mnemonic(mn) {
        want(2)?;
        r.cond(cond, parse_reg(ops[0], lineno)?, ops[1]);
        return Ok(());
    }

    match mn {
        "lda" => {
            want(2)?;
            let rd = parse_reg(ops[0], lineno)?;
            if let Some(target) = ops[1].strip_prefix("&&") {
                r.lda_routine(rd, target);
            } else if let Some(label) = ops[1].strip_prefix('&') {
                r.lda_label(rd, label);
            } else {
                let (disp, base) = parse_mem(ops[1], lineno)?;
                r.insn(Instruction::Lda { rd, base, disp });
            }
        }
        "ldah" => {
            want(2)?;
            let rd = parse_reg(ops[0], lineno)?;
            let (disp, base) = parse_mem(ops[1], lineno)?;
            r.insn(Instruction::Ldah { rd, base, disp });
        }
        "br" => {
            want(1)?;
            r.br(ops[0]);
        }
        "bsr" => {
            want(1)?;
            r.call(ops[0]);
        }
        "jmp" => {
            let base = parse_paren_reg(ops.first().copied().unwrap_or(""), lineno)?;
            match ops.len() {
                1 => {
                    r.insn(Instruction::Jmp { base });
                }
                2 if ops[1].starts_with('[') => {
                    let inner = ops[1]
                        .strip_prefix('[')
                        .and_then(|s| s.strip_suffix(']'))
                        .ok_or_else(|| err(lineno, "malformed jump table"))?;
                    let cases: Vec<&str> =
                        inner.split(',').map(str::trim).filter(|s| !s.is_empty()).collect();
                    r.switch(base, &cases);
                }
                2 if ops[1].starts_with("live=") => {
                    let live = parse_keyed_set(ops[1], "live", lineno)?;
                    r.jmp_hinted(base, live);
                }
                _ => return Err(err(lineno, "malformed jmp operands")),
            }
        }
        "jsr" => {
            let base = parse_paren_reg(ops.first().copied().unwrap_or(""), lineno)?;
            match ops.len() {
                1 => {
                    r.jsr_unknown(base);
                }
                2 if ops[1].starts_with('{') => {
                    let inner = ops[1]
                        .strip_prefix('{')
                        .and_then(|s| s.strip_suffix('}'))
                        .ok_or_else(|| err(lineno, "malformed target set"))?;
                    let names: Vec<&str> =
                        inner.split(',').map(str::trim).filter(|s| !s.is_empty()).collect();
                    r.jsr_known(base, &names);
                }
                2 => {
                    // `used={..} defined={..} killed={..}` in one operand;
                    // sets may contain spaces, so split at brace depth 0.
                    let parts = split_ws_toplevel(ops[1]);
                    if parts.len() != 3 {
                        return Err(err(lineno, "hinted jsr needs used/defined/killed"));
                    }
                    let used = parse_keyed_set(parts[0], "used", lineno)?;
                    let defined = parse_keyed_set(parts[1], "defined", lineno)?;
                    let killed = parse_keyed_set(parts[2], "killed", lineno)?;
                    r.jsr_hinted(base, used, defined, killed);
                }
                _ => return Err(err(lineno, "malformed jsr operands")),
            }
        }
        "ret" => {
            want(1)?;
            r.insn(Instruction::Ret { base: parse_paren_reg(ops[0], lineno)? });
        }
        "halt" => {
            want(0)?;
            r.halt();
        }
        "putint" => {
            want(0)?;
            r.put_int();
        }
        other => return Err(err(lineno, format!("unknown mnemonic `{other}`"))),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_minimal_module() {
        let p = parse_asm(".routine main\n    lda v0, 7(zero)\n    putint\n    halt\n").unwrap();
        assert_eq!(p.routines().len(), 1);
        assert_eq!(p.total_instructions(), 3);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let p =
            parse_asm("; leading comment\n\n.routine main ; trailing\n    halt ; done\n").unwrap();
        assert_eq!(p.total_instructions(), 1);
    }

    #[test]
    fn reports_unknown_mnemonic_with_line() {
        let e = parse_asm(".routine main\n    frobnicate a0\n    halt\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("frobnicate"));
    }

    #[test]
    fn reports_unknown_register() {
        let e = parse_asm(".routine main\n    addq a0, q9, v0\n    halt\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("q9"));
    }

    #[test]
    fn reports_undefined_label_at_build() {
        let e = parse_asm(".routine main\n    br nowhere\n    halt\n").unwrap_err();
        assert_eq!(e.line, 0);
        assert!(e.message.contains("nowhere"));
    }

    #[test]
    fn rejects_instructions_outside_routines() {
        let e = parse_asm("    halt\n").unwrap_err();
        assert_eq!(e.line, 1);
    }

    #[test]
    fn operand_count_is_checked() {
        let e = parse_asm(".routine main\n    addq a0, a1\n    halt\n").unwrap_err();
        assert!(e.message.contains("expects 3 operands"));
    }

    #[test]
    fn split_operands_respects_nesting() {
        assert_eq!(split_operands("a0, {b, c}, [d, e]"), vec!["a0", "{b, c}", "[d, e]"]);
        assert_eq!(split_operands("(pv), {f, g}"), vec!["(pv)", "{f, g}"]);
        assert_eq!(split_operands(""), Vec::<&str>::new());
    }

    #[test]
    fn regset_round_trip() {
        let s = parse_regset("{v0, a0}", 1).unwrap();
        assert_eq!(s.to_string(), "{v0, a0}");
        assert_eq!(parse_regset("{}", 1).unwrap(), RegSet::EMPTY);
    }
}
