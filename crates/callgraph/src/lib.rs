//! # spike-callgraph
//!
//! The whole-program call graph: which routines may call which, including
//! recovered indirect targets. Spike-style interprocedural dataflow
//! converges fastest when callees are solved before callers, so the crate
//! provides Tarjan strongly-connected components and a bottom-up
//! (callees-first) component order; it also feeds the evaluation report's
//! program-structure statistics.
//!
//! # Example
//!
//! ```
//! use spike_cfg::ProgramCfg;
//! use spike_callgraph::CallGraph;
//! use spike_isa::Reg;
//! use spike_program::ProgramBuilder;
//!
//! let mut b = ProgramBuilder::new();
//! b.routine("main").call("a").halt();
//! b.routine("a").call("b").ret();
//! b.routine("b").ret();
//! let program = b.build()?;
//!
//! let cg = CallGraph::build(&program, &ProgramCfg::build(&program));
//! let main = program.routine_by_name("main").unwrap();
//! let a = program.routine_by_name("a").unwrap();
//! assert_eq!(cg.callees(main), &[a]);
//!
//! // Bottom-up: b before a before main.
//! let order = cg.sccs().bottom_up().concat();
//! assert_eq!(order.len(), 3);
//! assert_eq!(program.routine(order[0]).name(), "b");
//! assert_eq!(program.routine(order[2]).name(), "main");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

use std::fmt;

use spike_cfg::{CallTarget, ProgramCfg, TermKind};
use spike_isa::HeapSize;
use spike_program::{Program, RoutineId};

/// The may-call relation over a program's routines.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CallGraph {
    callees: Vec<Vec<RoutineId>>,
    callers: Vec<Vec<RoutineId>>,
    /// Routines containing at least one unknown-target indirect call.
    calls_unknown: Vec<bool>,
}

impl CallGraph {
    /// Builds the call graph from a program's CFGs. Edges are deduplicated;
    /// indirect calls with recovered target lists contribute one edge per
    /// target.
    pub fn build(program: &Program, cfg: &ProgramCfg) -> CallGraph {
        let n = program.routines().len();
        let mut callees = vec![Vec::new(); n];
        let mut callers = vec![Vec::new(); n];
        let mut calls_unknown = vec![false; n];

        for (ri, rcfg) in cfg.cfgs().iter().enumerate() {
            for block in rcfg.blocks() {
                let TermKind::Call { target, .. } = block.term() else {
                    continue;
                };
                let mut note = |callee: RoutineId| {
                    if !callees[ri].contains(&callee) {
                        callees[ri].push(callee);
                        callers[callee.index()].push(RoutineId::from_index(ri));
                    }
                };
                match target {
                    CallTarget::Direct(rid, _) => note(*rid),
                    CallTarget::IndirectKnown(list) => {
                        for (rid, _) in list {
                            note(*rid);
                        }
                    }
                    CallTarget::IndirectUnknown | CallTarget::IndirectHinted { .. } => {
                        calls_unknown[ri] = true;
                    }
                }
            }
        }
        CallGraph { callees, callers, calls_unknown }
    }

    /// Number of routines.
    pub fn len(&self) -> usize {
        self.callees.len()
    }

    /// Whether the program has no routines (never true for validated
    /// programs).
    pub fn is_empty(&self) -> bool {
        self.callees.is_empty()
    }

    /// The routines `id` may call (deduplicated, in first-seen order).
    pub fn callees(&self, id: RoutineId) -> &[RoutineId] {
        &self.callees[id.index()]
    }

    /// The routines that may call `id`.
    pub fn callers(&self, id: RoutineId) -> &[RoutineId] {
        &self.callers[id.index()]
    }

    /// `roots` and every routine some `roots` member may (transitively)
    /// call, as a per-routine mask.
    pub fn callee_closure(&self, roots: &[RoutineId]) -> Vec<bool> {
        closure(&self.callees, roots)
    }

    /// `roots` and every routine with a call path to some `roots`
    /// member, as a per-routine mask.
    pub fn caller_closure(&self, roots: &[RoutineId]) -> Vec<bool> {
        closure(&self.callers, roots)
    }

    /// Whether `id` makes at least one unknown-target indirect call.
    pub fn calls_unknown(&self, id: RoutineId) -> bool {
        self.calls_unknown[id.index()]
    }

    /// Whether `id` can (transitively) call itself.
    pub fn is_recursive(&self, id: RoutineId) -> bool {
        let sccs = self.sccs();
        let c = sccs.component_of(id);
        sccs.components()[c].len() > 1 || self.callees(id).contains(&id)
    }

    /// Tarjan strongly-connected components.
    pub fn sccs(&self) -> Sccs {
        let n = self.len();
        let mut state = TarjanState {
            graph: self,
            index: vec![usize::MAX; n],
            lowlink: vec![0; n],
            on_stack: vec![false; n],
            stack: Vec::new(),
            next_index: 0,
            comp_of: vec![usize::MAX; n],
            comps: Vec::new(),
        };
        for v in 0..n {
            if state.index[v] == usize::MAX {
                state.visit(v);
            }
        }
        // Tarjan emits components in reverse topological order of the
        // condensation (callees before callers) — exactly bottom-up.
        Sccs { comp_of: state.comp_of, comps: state.comps }
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> CallGraphStats {
        let sccs = self.sccs();
        let edges: usize = self.callees.iter().map(Vec::len).sum();
        let recursive_routines = (0..self.len())
            .filter(|&i| {
                let id = RoutineId::from_index(i);
                let c = sccs.component_of(id);
                sccs.components()[c].len() > 1 || self.callees(id).contains(&id)
            })
            .count();
        CallGraphStats {
            routines: self.len(),
            edges,
            max_fanout: self.callees.iter().map(Vec::len).max().unwrap_or(0),
            recursive_routines,
            components: sccs.components().len(),
            largest_component: sccs.components().iter().map(Vec::len).max().unwrap_or(0),
            unknown_call_routines: self.calls_unknown.iter().filter(|&&b| b).count(),
        }
    }
}

/// The routines reachable from `roots` along `rel`, `roots` included.
fn closure(rel: &[Vec<RoutineId>], roots: &[RoutineId]) -> Vec<bool> {
    let mut seen = vec![false; rel.len()];
    let mut stack: Vec<RoutineId> = Vec::new();
    for &r in roots {
        if !std::mem::replace(&mut seen[r.index()], true) {
            stack.push(r);
        }
    }
    while let Some(r) = stack.pop() {
        for &s in &rel[r.index()] {
            if !std::mem::replace(&mut seen[s.index()], true) {
                stack.push(s);
            }
        }
    }
    seen
}

impl HeapSize for CallGraph {
    fn heap_bytes(&self) -> usize {
        self.callees.heap_bytes() + self.callers.heap_bytes() + self.calls_unknown.heap_bytes()
    }
}

/// Aggregate call-graph statistics.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CallGraphStats {
    /// Routine count.
    pub routines: usize,
    /// Deduplicated call edges.
    pub edges: usize,
    /// Largest callee fan-out of any routine.
    pub max_fanout: usize,
    /// Routines that can transitively call themselves.
    pub recursive_routines: usize,
    /// Strongly-connected components.
    pub components: usize,
    /// Size of the largest component (mutual-recursion cluster).
    pub largest_component: usize,
    /// Routines making unknown-target indirect calls.
    pub unknown_call_routines: usize,
}

impl fmt::Display for CallGraphStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} routines, {} call edges (max fanout {}), {} recursive, \
             {} SCCs (largest {}), {} with unknown calls",
            self.routines,
            self.edges,
            self.max_fanout,
            self.recursive_routines,
            self.components,
            self.largest_component,
            self.unknown_call_routines,
        )
    }
}

/// Strongly-connected components in bottom-up order.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Sccs {
    comp_of: Vec<usize>,
    comps: Vec<Vec<RoutineId>>,
}

impl Sccs {
    /// The components, callees-first (reverse topological order of the
    /// condensation).
    pub fn components(&self) -> &[Vec<RoutineId>] {
        &self.comps
    }

    /// The component index of `id`.
    pub fn component_of(&self, id: RoutineId) -> usize {
        self.comp_of[id.index()]
    }

    /// Components in callees-before-callers order (an alias for
    /// [`Sccs::components`], named for intent).
    pub fn bottom_up(&self) -> &[Vec<RoutineId>] {
        &self.comps
    }
}

struct TarjanState<'a> {
    graph: &'a CallGraph,
    index: Vec<usize>,
    lowlink: Vec<usize>,
    on_stack: Vec<bool>,
    stack: Vec<usize>,
    next_index: usize,
    comp_of: Vec<usize>,
    comps: Vec<Vec<RoutineId>>,
}

impl TarjanState<'_> {
    /// Iterative Tarjan (explicit stack: recursion would overflow on
    /// million-routine call chains).
    fn visit(&mut self, root: usize) {
        let mut call_stack: Vec<(usize, usize)> = vec![(root, 0)];
        self.open(root);
        while let Some(&mut (v, ref mut next)) = call_stack.last_mut() {
            let callees = &self.graph.callees[v];
            if *next < callees.len() {
                let w = callees[*next].index();
                *next += 1;
                if self.index[w] == usize::MAX {
                    self.open(w);
                    call_stack.push((w, 0));
                } else if self.on_stack[w] {
                    self.lowlink[v] = self.lowlink[v].min(self.index[w]);
                }
            } else {
                call_stack.pop();
                if let Some(&(parent, _)) = call_stack.last() {
                    self.lowlink[parent] = self.lowlink[parent].min(self.lowlink[v]);
                }
                if self.lowlink[v] == self.index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = self.stack.pop().expect("component member on stack");
                        self.on_stack[w] = false;
                        self.comp_of[w] = self.comps.len();
                        comp.push(RoutineId::from_index(w));
                        if w == v {
                            break;
                        }
                    }
                    self.comps.push(comp);
                }
            }
        }
    }

    fn open(&mut self, v: usize) {
        self.index[v] = self.next_index;
        self.lowlink[v] = self.next_index;
        self.next_index += 1;
        self.stack.push(v);
        self.on_stack[v] = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spike_isa::Reg;
    use spike_program::ProgramBuilder;

    fn graph_of(b: &ProgramBuilder) -> (Program, CallGraph) {
        let p = b.build().unwrap();
        let cfg = ProgramCfg::build(&p);
        let cg = CallGraph::build(&p, &cfg);
        (p, cg)
    }

    fn id(p: &Program, name: &str) -> RoutineId {
        p.routine_by_name(name).unwrap()
    }

    #[test]
    fn edges_and_dedup() {
        let mut b = ProgramBuilder::new();
        b.routine("main").call("a").call("a").call("b").halt();
        b.routine("a").ret();
        b.routine("b").ret();
        let (p, cg) = graph_of(&b);
        assert_eq!(cg.callees(id(&p, "main")), &[id(&p, "a"), id(&p, "b")]);
        assert_eq!(cg.callers(id(&p, "a")), &[id(&p, "main")]);
        assert_eq!(cg.stats().edges, 2);
        assert!(!cg.is_empty());
    }

    #[test]
    fn closures_follow_calls_both_ways() {
        // main → a → b ⇄ c, and d → c; e stands alone.
        let mut b = ProgramBuilder::new();
        b.routine("main").call("a").halt();
        b.routine("a").call("b").ret();
        b.routine("b").call("c").ret();
        b.routine("c").call("b").ret();
        b.routine("d").call("c").ret();
        b.routine("e").ret();
        let (p, cg) = graph_of(&b);
        let names = |mask: Vec<bool>| -> Vec<&str> {
            p.iter().filter(|(r, _)| mask[r.index()]).map(|(_, r)| r.name()).collect()
        };
        assert_eq!(names(cg.callee_closure(&[id(&p, "a")])), ["a", "b", "c"]);
        assert_eq!(names(cg.caller_closure(&[id(&p, "b")])), ["main", "a", "b", "c", "d"]);
        assert_eq!(names(cg.callee_closure(&[id(&p, "e"), id(&p, "d")])), ["b", "c", "d", "e"]);
        assert_eq!(names(cg.caller_closure(&[])), Vec::<&str>::new());
    }

    #[test]
    fn indirect_known_targets_are_edges() {
        let mut b = ProgramBuilder::new();
        b.routine("main").jsr_known(Reg::PV, &["a", "b"]).halt();
        b.routine("a").ret();
        b.routine("b").ret();
        let (p, cg) = graph_of(&b);
        assert_eq!(cg.callees(id(&p, "main")).len(), 2);
        assert!(!cg.calls_unknown(id(&p, "main")));
    }

    #[test]
    fn unknown_calls_are_flagged_not_edges() {
        let mut b = ProgramBuilder::new();
        b.routine("main").jsr_unknown(Reg::PV).halt();
        let (p, cg) = graph_of(&b);
        assert!(cg.callees(id(&p, "main")).is_empty());
        assert!(cg.calls_unknown(id(&p, "main")));
        assert_eq!(cg.stats().unknown_call_routines, 1);
    }

    #[test]
    fn bottom_up_order_solves_callees_first() {
        let mut b = ProgramBuilder::new();
        b.routine("main").call("mid").halt();
        b.routine("mid").call("leaf").ret();
        b.routine("leaf").ret();
        let (p, cg) = graph_of(&b);
        let order: Vec<RoutineId> = cg.sccs().bottom_up().concat();
        let pos = |n: &str| order.iter().position(|&r| r == id(&p, n)).unwrap();
        assert!(pos("leaf") < pos("mid"));
        assert!(pos("mid") < pos("main"));
    }

    #[test]
    fn mutual_recursion_is_one_component() {
        let mut b = ProgramBuilder::new();
        b.routine("main").call("even").halt();
        b.routine("even").call("odd").ret();
        b.routine("odd").call("even").ret();
        let (p, cg) = graph_of(&b);
        let sccs = cg.sccs();
        assert_eq!(sccs.component_of(id(&p, "even")), sccs.component_of(id(&p, "odd")));
        assert_ne!(sccs.component_of(id(&p, "main")), sccs.component_of(id(&p, "even")));
        assert!(cg.is_recursive(id(&p, "even")));
        assert!(!cg.is_recursive(id(&p, "main")));
        let stats = cg.stats();
        assert_eq!(stats.largest_component, 2);
        assert_eq!(stats.recursive_routines, 2);
    }

    #[test]
    fn self_recursion_is_recursive_but_singleton() {
        let mut b = ProgramBuilder::new();
        b.routine("main").call("rec").halt();
        b.routine("rec").call("rec").ret();
        let (p, cg) = graph_of(&b);
        assert!(cg.is_recursive(id(&p, "rec")));
        assert_eq!(cg.sccs().components().iter().filter(|c| c.len() > 1).count(), 0);
    }

    #[test]
    fn deep_chain_does_not_overflow() {
        // 20k-deep call chain: would blow the stack with recursive Tarjan.
        let n = 20_000;
        let mut b = ProgramBuilder::new();
        for i in 0..n {
            let r = b.routine(&format!("r{i}"));
            if i + 1 < n {
                r.call(&format!("r{}", i + 1));
            }
            if i == 0 {
                r.halt();
            } else {
                r.ret();
            }
        }
        let (p, cg) = graph_of(&b);
        let sccs = cg.sccs();
        assert_eq!(sccs.components().len(), n);
        // Bottom-up: the leaf (r{n-1}) first, the entry last.
        assert_eq!(sccs.bottom_up()[0][0], id(&p, &format!("r{}", n - 1)));
        assert_eq!(sccs.bottom_up()[n - 1][0], id(&p, "r0"));
    }

    #[test]
    fn stats_display_is_informative() {
        let mut b = ProgramBuilder::new();
        b.routine("main").call("a").halt();
        b.routine("a").ret();
        let (_, cg) = graph_of(&b);
        let s = cg.stats().to_string();
        assert!(s.contains("2 routines"));
        assert!(s.contains("1 call edges"));
    }
}
