//! The exact text of every lint check, pinned as literals.
//!
//! `tests/lint_golden.rs` pins hashes of whole reports, so a drift shows
//! there but not where. This suite builds one small program per check
//! (and per message variant the goldens do not reach: an empty and a
//! duplicated jump table, an unreachable block, an out-of-frame *read*, a
//! clobber demoted by an unknown jump, a `malformed-image` text that needs
//! JSON escaping) and asserts every human line and every JSON finding
//! object of its report byte for byte.

use spike::isa::{BranchCond, Instruction, Reg};
use spike::lint::{lint, malformed_image, LintReport};
use spike::program::{Program, ProgramBuilder};

/// Asserts the report's human form is exactly `human` (the finding lines
/// and then the summary line) and its JSON form is exactly the fixed
/// header followed by the `json` finding objects.
fn assert_report(report: &LintReport, human: &[&str], json: &[&str]) {
    assert_eq!(report.to_string(), human.join("\n"), "human report");
    let expected = format!(
        "{{\"tool\":\"spike-lint\",\"version\":\"{}\",\"image\":\"t.img\",\
         \"summary\":{{\"errors\":{},\"warnings\":{}}},\"findings\":[{}]}}",
        env!("CARGO_PKG_VERSION"),
        report.errors(),
        report.warnings(),
        json.join(",")
    );
    assert_eq!(report.to_json(Some("t.img")), expected, "JSON report");
}

fn build(b: &ProgramBuilder) -> Program {
    b.build().expect("valid program")
}

#[test]
fn uninit_read() {
    let mut b = ProgramBuilder::new();
    b.routine("main").def(Reg::T1).use_reg(Reg::T0).put_int().halt();
    assert_report(&lint(&build(&b)),
        &[
            "error[uninit-read] main+0x401: register t0 may be read before it is initialized (path: 0x400)",
            "error[uninit-read] main+0x402: register v0 may be read before it is initialized (path: 0x400)",
            "warning[dead-store] main+0x400: the value written to t1 is never read on any valid path",
            "2 error(s), 1 warning(s)",
        ],
        &[
            r#"{"check":"uninit-read","severity":"error","routine":"main","addr":1025,"reg":"t0","slot":null,"message":"register t0 may be read before it is initialized","witness":[1024],"note":null}"#,
            r#"{"check":"uninit-read","severity":"error","routine":"main","addr":1026,"reg":"v0","slot":null,"message":"register v0 may be read before it is initialized","witness":[1024],"note":null}"#,
            r#"{"check":"dead-store","severity":"warning","routine":"main","addr":1024,"reg":"t1","slot":null,"message":"the value written to t1 is never read on any valid path","witness":[],"note":null}"#,
        ],
    );
}

#[test]
fn uninit_read_of_a_missing_return_value_has_a_note() {
    let mut b = ProgramBuilder::new();
    b.routine("main").call("f").use_reg(Reg::V0).halt();
    b.routine("f").ret();
    assert_report(&lint(&build(&b)),
        &[
            "error[uninit-read] main+0x401: register v0 may be read before it is initialized (path: 0x400 -> 0x401); note: return value expected from the call to f, which does not always define v0",
            "1 error(s), 0 warning(s)",
        ],
        &[
            r#"{"check":"uninit-read","severity":"error","routine":"main","addr":1025,"reg":"v0","slot":null,"message":"register v0 may be read before it is initialized","witness":[1024,1025],"note":"return value expected from the call to f, which does not always define v0"}"#,
        ],
    );
}

#[test]
fn callee_saved_clobber() {
    let mut b = ProgramBuilder::new();
    b.routine("main").call("f").halt();
    b.routine("f").def(Reg::S0).ret();
    assert_report(&lint(&build(&b)),
        &[
            "error[callee-saved-clobber] f+0x402: callee-saved register s0 is overwritten on a path that returns, without a matching save and restore (path: 0x402 -> 0x402)",
            "warning[dead-store] f+0x402: the value written to s0 is never read on any valid path",
            "1 error(s), 1 warning(s)",
        ],
        &[
            r#"{"check":"callee-saved-clobber","severity":"error","routine":"f","addr":1026,"reg":"s0","slot":null,"message":"callee-saved register s0 is overwritten on a path that returns, without a matching save and restore","witness":[1026,1026],"note":null}"#,
            r#"{"check":"dead-store","severity":"warning","routine":"f","addr":1026,"reg":"s0","slot":null,"message":"the value written to s0 is never read on any valid path","witness":[],"note":null}"#,
        ],
    );
}

#[test]
fn callee_saved_clobber_demoted_by_an_unknown_jump() {
    let mut b = ProgramBuilder::new();
    b.routine("main").call("f").halt();
    b.routine("f")
        .def(Reg::T0)
        .cond(BranchCond::Eq, Reg::T0, "away")
        .def(Reg::S0)
        .ret()
        .label("away")
        .insn(Instruction::Jmp { base: Reg::T0 });
    assert_report(&lint(&build(&b)),
        &[
            "warning[callee-saved-clobber] f+0x404: callee-saved register s0 is overwritten on a path that returns, without a matching save and restore (path: 0x404 -> 0x404); note: demoted to a warning: the routine contains an unknown-target jump",
            "warning[dead-store] f+0x404: the value written to s0 is never read on any valid path",
            "0 error(s), 2 warning(s)",
        ],
        &[
            r#"{"check":"callee-saved-clobber","severity":"warning","routine":"f","addr":1028,"reg":"s0","slot":null,"message":"callee-saved register s0 is overwritten on a path that returns, without a matching save and restore","witness":[1028,1028],"note":"demoted to a warning: the routine contains an unknown-target jump"}"#,
            r#"{"check":"dead-store","severity":"warning","routine":"f","addr":1028,"reg":"s0","slot":null,"message":"the value written to s0 is never read on any valid path","witness":[],"note":null}"#,
        ],
    );
}

#[test]
fn dead_store_and_dead_argument() {
    let mut b = ProgramBuilder::new();
    b.routine("main").def(Reg::T0).def(Reg::A0).call("f").halt();
    b.routine("f").ret();
    assert_report(&lint(&build(&b)),
        &[
            "warning[dead-store] main+0x400: the value written to t0 is never read on any valid path",
            "warning[dead-argument] main+0x401: argument register a0 is set, but the call ending this block does not read it",
            "0 error(s), 2 warning(s)",
        ],
        &[
            r#"{"check":"dead-store","severity":"warning","routine":"main","addr":1024,"reg":"t0","slot":null,"message":"the value written to t0 is never read on any valid path","witness":[],"note":null}"#,
            r#"{"check":"dead-argument","severity":"warning","routine":"main","addr":1025,"reg":"a0","slot":null,"message":"argument register a0 is set, but the call ending this block does not read it","witness":[],"note":null}"#,
        ],
    );
}

#[test]
fn unreachable_routine_and_block() {
    let mut b = ProgramBuilder::new();
    b.routine("main").br("end").put_int().label("end").halt();
    b.routine("orphan").ret();
    assert_report(&lint(&build(&b)),
        &[
            "warning[unreachable-block] main+0x401: no path from a routine entrance reaches this block",
            "warning[unreachable-routine] orphan+0x403: no known call path from the program entry or an exported routine reaches this routine",
            "0 error(s), 2 warning(s)",
        ],
        &[
            r#"{"check":"unreachable-block","severity":"warning","routine":"main","addr":1025,"reg":null,"slot":null,"message":"no path from a routine entrance reaches this block","witness":[],"note":null}"#,
            r#"{"check":"unreachable-routine","severity":"warning","routine":"orphan","addr":1027,"reg":null,"slot":null,"message":"no known call path from the program entry or an exported routine reaches this routine","witness":[],"note":null}"#,
        ],
    );
}

#[test]
fn empty_jump_table() {
    let mut b = ProgramBuilder::new();
    b.routine("main").def(Reg::T0).switch(Reg::T0, &[]);
    assert_report(&lint(&build(&b)),
        &[
            "error[empty-jump-table] main+0x401: the jump table for the multiway jump at 0x401 is empty: the jump has no successors and code after it is lost",
            "1 error(s), 0 warning(s)",
        ],
        &[
            r#"{"check":"empty-jump-table","severity":"error","routine":"main","addr":1025,"reg":null,"slot":null,"message":"the jump table for the multiway jump at 0x401 is empty: the jump has no successors and code after it is lost","witness":[],"note":null}"#,
        ],
    );
}

#[test]
fn duplicate_jump_targets() {
    let mut b = ProgramBuilder::new();
    b.routine("main")
        .def(Reg::T0)
        .switch(Reg::T0, &["l", "m", "l", "l", "m"])
        .label("l")
        .halt()
        .label("m")
        .halt();
    assert_report(&lint(&build(&b)),
        &[
            "warning[duplicate-jump-targets] main+0x401: the jump table at 0x401 lists target 0x402 3 times",
            "warning[duplicate-jump-targets] main+0x401: the jump table at 0x401 lists target 0x403 2 times",
            "0 error(s), 2 warning(s)",
        ],
        &[
            r#"{"check":"duplicate-jump-targets","severity":"warning","routine":"main","addr":1025,"reg":null,"slot":null,"message":"the jump table at 0x401 lists target 0x402 3 times","witness":[],"note":null}"#,
            r#"{"check":"duplicate-jump-targets","severity":"warning","routine":"main","addr":1025,"reg":null,"slot":null,"message":"the jump table at 0x401 lists target 0x403 2 times","witness":[],"note":null}"#,
        ],
    );
}

#[test]
fn malformed_image_text_is_escaped() {
    let report = malformed_image("bad magic \"SPK\"\tat byte 0\\1\n\u{1}é");
    assert_report(
        &report,
        &[
            "error[malformed-image]: bad magic \"SPK\"\tat byte 0\\1\n\u{1}é",
            "1 error(s), 0 warning(s)",
        ],
        &[
            r#"{"check":"malformed-image","severity":"error","routine":"","addr":null,"reg":null,"slot":null,"message":"bad magic \"SPK\"\tat byte 0\\1\n\u0001é","witness":[],"note":null}"#,
        ],
    );
}

#[test]
fn uninit_stack_read() {
    let mut b = ProgramBuilder::new();
    b.routine("main")
        .def(Reg::T0)
        .lda(Reg::SP, Reg::SP, -16)
        .cond(BranchCond::Eq, Reg::T0, "skip")
        .store(Reg::T0, Reg::SP, 8)
        .label("skip")
        .load(Reg::T1, Reg::SP, 8)
        .copy(Reg::T1, Reg::A0)
        .put_int()
        .lda(Reg::SP, Reg::SP, 16)
        .halt();
    assert_report(&lint(&build(&b)),
        &[
            "error[uninit-stack-read] main+0x404: 8-byte stack slot at entry-SP-8 may be read before any store reaches it (path: 0x400 -> 0x404)",
            "error[uninit-read] main+0x406: register v0 may be read before it is initialized (path: 0x400 -> 0x404)",
            "warning[dead-store] main+0x405: the value written to a0 is never read on any valid path",
            "warning[dead-store] main+0x407: the value written to sp is never read on any valid path",
            "2 error(s), 2 warning(s)",
        ],
        &[
            r#"{"check":"uninit-stack-read","severity":"error","routine":"main","addr":1028,"reg":null,"slot":-8,"message":"8-byte stack slot at entry-SP-8 may be read before any store reaches it","witness":[1024,1028],"note":null}"#,
            r#"{"check":"uninit-read","severity":"error","routine":"main","addr":1030,"reg":"v0","slot":null,"message":"register v0 may be read before it is initialized","witness":[1024,1028],"note":null}"#,
            r#"{"check":"dead-store","severity":"warning","routine":"main","addr":1029,"reg":"a0","slot":null,"message":"the value written to a0 is never read on any valid path","witness":[],"note":null}"#,
            r#"{"check":"dead-store","severity":"warning","routine":"main","addr":1031,"reg":"sp","slot":null,"message":"the value written to sp is never read on any valid path","witness":[],"note":null}"#,
        ],
    );
}

#[test]
fn out_of_frame_store_and_read() {
    let mut b = ProgramBuilder::new();
    b.routine("main")
        .def(Reg::T0)
        .lda(Reg::SP, Reg::SP, -16)
        .store(Reg::T0, Reg::SP, 24)
        .load(Reg::A0, Reg::SP, 32)
        .put_int()
        .lda(Reg::SP, Reg::SP, 16)
        .halt();
    assert_report(&lint(&build(&b)),
        &[
            "error[out-of-frame-access] main+0x402: stack store at entry-SP+8 lies outside the live frame [SP-16, entry SP)",
            "error[out-of-frame-access] main+0x403: stack read at entry-SP+16 lies outside the live frame [SP-16, entry SP)",
            "error[uninit-read] main+0x404: register v0 may be read before it is initialized (path: 0x400)",
            "warning[dead-store] main+0x403: the value written to a0 is never read on any valid path",
            "warning[dead-store] main+0x405: the value written to sp is never read on any valid path",
            "3 error(s), 2 warning(s)",
        ],
        &[
            r#"{"check":"out-of-frame-access","severity":"error","routine":"main","addr":1026,"reg":null,"slot":8,"message":"stack store at entry-SP+8 lies outside the live frame [SP-16, entry SP)","witness":[],"note":null}"#,
            r#"{"check":"out-of-frame-access","severity":"error","routine":"main","addr":1027,"reg":null,"slot":16,"message":"stack read at entry-SP+16 lies outside the live frame [SP-16, entry SP)","witness":[],"note":null}"#,
            r#"{"check":"uninit-read","severity":"error","routine":"main","addr":1028,"reg":"v0","slot":null,"message":"register v0 may be read before it is initialized","witness":[1024],"note":null}"#,
            r#"{"check":"dead-store","severity":"warning","routine":"main","addr":1027,"reg":"a0","slot":null,"message":"the value written to a0 is never read on any valid path","witness":[],"note":null}"#,
            r#"{"check":"dead-store","severity":"warning","routine":"main","addr":1029,"reg":"sp","slot":null,"message":"the value written to sp is never read on any valid path","witness":[],"note":null}"#,
        ],
    );
}

#[test]
fn dead_stack_store() {
    let mut b = ProgramBuilder::new();
    b.routine("main")
        .def(Reg::T0)
        .lda(Reg::SP, Reg::SP, -16)
        .store(Reg::T0, Reg::SP, 0)
        .store(Reg::T0, Reg::SP, 8)
        .load(Reg::A0, Reg::SP, 8)
        .put_int()
        .lda(Reg::SP, Reg::SP, 16)
        .halt();
    assert_report(&lint(&build(&b)),
        &[
            "error[uninit-read] main+0x405: register v0 may be read before it is initialized (path: 0x400)",
            "warning[dead-stack-store] main+0x402: store to stack slot at entry-SP-16 is never read on any valid path",
            "warning[dead-store] main+0x404: the value written to a0 is never read on any valid path",
            "warning[dead-store] main+0x406: the value written to sp is never read on any valid path",
            "1 error(s), 3 warning(s)",
        ],
        &[
            r#"{"check":"uninit-read","severity":"error","routine":"main","addr":1029,"reg":"v0","slot":null,"message":"register v0 may be read before it is initialized","witness":[1024],"note":null}"#,
            r#"{"check":"dead-stack-store","severity":"warning","routine":"main","addr":1026,"reg":null,"slot":-16,"message":"store to stack slot at entry-SP-16 is never read on any valid path","witness":[],"note":null}"#,
            r#"{"check":"dead-store","severity":"warning","routine":"main","addr":1028,"reg":"a0","slot":null,"message":"the value written to a0 is never read on any valid path","witness":[],"note":null}"#,
            r#"{"check":"dead-store","severity":"warning","routine":"main","addr":1030,"reg":"sp","slot":null,"message":"the value written to sp is never read on any valid path","witness":[],"note":null}"#,
        ],
    );
}
