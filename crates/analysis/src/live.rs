//! Liveness and reachability lints: variables no output transitively
//! reads ([`codes::W0104`]) and nodes never instantiated from the root
//! ([`codes::W0105`]).
//!
//! Liveness is a backwards closure per node: the outputs seed the live
//! set, and any equation defining a live variable makes everything it
//! reads — clock variables included — live too. A local that never
//! becomes live is dead weight: its equation still executes (and may
//! allocate state for a `fby`), but nothing observable depends on it.
//!
//! Compiler-introduced names (they contain `#`, which the surface
//! grammar cannot produce) are never reported: the normalizer is free
//! to introduce helper streams that later passes fuse away.

use velus_common::{
    codes, ident_map_with_capacity, ident_set_with_capacity, DiagStage, Diagnostic, Diagnostics,
    Ident, IdentMap, IdentSet, NodeId, SpanMap,
};
use velus_nlustre::ast::{Equation, Node, Program};
use velus_nlustre::clock::Clock;
use velus_ops::Ops;

/// Which nodes `root` transitively instantiates through the call
/// equations whose clock `follow` accepts, `root` included, by node id.
/// Callees come before their callers, so one sweep down from the root
/// settles every node.
pub fn reachable<O: Ops>(
    prog: &Program<O>,
    root: NodeId,
    follow: impl Fn(&Clock) -> bool,
) -> Vec<bool> {
    let mut seen = vec![false; prog.nodes.len()];
    if let Some(r) = seen.get_mut(root.index()) {
        *r = true;
    }
    for k in (0..seen.len()).rev() {
        if !seen[k] {
            continue;
        }
        for eq in &prog.nodes[k].eqs {
            if let Equation::Call {
                ck, node: callee, ..
            } = eq
            {
                if follow(ck) {
                    seen[callee.index()] = true;
                }
            }
        }
    }
    seen
}

/// The variables of `node` an output transitively depends on (through
/// data *or* clock reads), outputs included.
///
/// A backward worklist: each defined variable maps to its defining
/// equation, and an equation is visited once, when the first variable
/// it defines becomes live, so the cost is linear in the size of the
/// node.
pub fn live_vars<O: Ops>(node: &Node<O>) -> IdentSet {
    let vars = node.inputs.len() + node.outputs.len() + node.locals.len();
    // Variable → its defining equation, for equations not visited yet.
    let mut def_eq: IdentMap<usize> = ident_map_with_capacity(vars);
    for (i, eq) in node.eqs.iter().enumerate() {
        for &x in eq.defined() {
            def_eq.insert(x, i);
        }
    }
    let mut live = ident_set_with_capacity(vars);
    let mut work: Vec<usize> = Vec::new();
    let mut mark = |x: Ident, live: &mut IdentSet, work: &mut Vec<usize>| {
        if live.insert(x) {
            if let Some(i) = def_eq.remove(&x) {
                for y in node.eqs[i].defined() {
                    def_eq.remove(y);
                }
                work.push(i);
            }
        }
    };
    for o in &node.outputs {
        mark(o.name, &mut live, &mut work);
    }
    let mut reads: Vec<Ident> = Vec::new();
    while let Some(i) = work.pop() {
        reads.clear();
        node.eqs[i].reads_into(&node.exprs, &mut reads);
        for &x in &reads {
            mark(x, &mut live, &mut work);
        }
    }
    live
}

/// Appends the liveness ([`codes::W0104`]) and reachability
/// ([`codes::W0105`]) lints for `prog` rooted at `root` to `diags`.
pub fn check_liveness<O: Ops>(
    prog: &Program<O>,
    root: NodeId,
    spans: &SpanMap,
    diags: &mut Diagnostics,
) {
    let reached = reachable(prog, root, |_| true);
    for (node, reached) in prog.nodes.iter().zip(reached) {
        if !reached {
            diags.push(
                Diagnostic::warning(
                    codes::W0105,
                    format!(
                        "node {} is never instantiated from the root node {}",
                        node.name,
                        prog.nodes[root.index()].name
                    ),
                    spans.node_span(node.name),
                )
                .at_stage(DiagStage::Analysis),
            );
        }
        let live = live_vars(node);
        for eq in &node.eqs {
            if eq.defined().iter().any(|x| live.contains(x)) {
                continue;
            }
            for &x in eq.defined() {
                if x.as_str().contains('#') {
                    continue; // compiler-introduced helper stream
                }
                diags.push(
                    Diagnostic::warning(
                        codes::W0104,
                        format!("variable {x} is never read by any output of {}", node.name),
                        spans.eq_span(node.name, x),
                    )
                    .at_stage(DiagStage::Analysis),
                );
            }
        }
    }
}

/// The round-robin sweep `live_vars` replaced: repeat a pass over the
/// equations in program order until the live set stops growing. Kept
/// as the reference the worklist is checked against.
#[cfg(test)]
fn live_vars_sweep<O: Ops>(node: &Node<O>) -> IdentSet {
    let mut live = IdentSet::default();
    for o in &node.outputs {
        live.insert(o.name);
    }
    let mut reads: Vec<Ident> = Vec::new();
    let mut changed = true;
    while changed {
        changed = false;
        for eq in &node.eqs {
            if !eq.defined().iter().any(|x| live.contains(x)) {
                continue;
            }
            reads.clear();
            eq.reads_into(&node.exprs, &mut reads);
            for &x in &reads {
                changed |= live.insert(x);
            }
        }
    }
    live
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use velus_nlustre::ast::{Exprs, VarDecl};
    use velus_nlustre::clock::Clock;
    use velus_ops::{CConst, CTy, ClightOps};
    use velus_testkit::campaign::{default_profiles, lint_traps_profile};
    use velus_testkit::gen::gen_program;
    use velus_testkit::industrial::{industrial_program, IndustrialConfig};

    fn assert_matches_sweep(prog: &Program<ClightOps>, context: &str) {
        for node in &prog.nodes {
            assert_eq!(
                live_vars(node),
                live_vars_sweep(node),
                "{context}: live set of node {}",
                node.name
            );
        }
    }

    #[test]
    fn worklist_matches_the_round_robin_sweep_on_campaign_programs() {
        let mut profiles = default_profiles();
        profiles.push(lint_traps_profile());
        assert!(profiles.iter().any(|p| p.name == "clock-heavy"));
        for profile in &profiles {
            for seed in 0..40u64 {
                let mut rng = StdRng::seed_from_u64(seed);
                let prog = gen_program(&mut rng, &profile.gen);
                assert_matches_sweep(&prog, &format!("{} seed {seed}", profile.name));
            }
        }
    }

    #[test]
    fn worklist_matches_the_round_robin_sweep_on_industrial_programs() {
        for subclock_depth in 0..3 {
            for fan_in in 1..3 {
                let cfg = IndustrialConfig {
                    nodes: 12,
                    eqs_per_node: 10,
                    fan_in,
                    subclock_depth,
                };
                assert_matches_sweep(&industrial_program(&cfg), &format!("{cfg:?}"));
            }
        }
    }

    fn decl(n: &str, ty: CTy) -> VarDecl<ClightOps> {
        VarDecl {
            name: Ident::new(n),
            ty,
            ck: Clock::Base,
        }
    }

    fn copy_eq(ex: &mut Exprs<ClightOps>, x: &str, y: &str) -> Equation<ClightOps> {
        let y = ex.var(Ident::new(y), CTy::I32);
        Equation::Def {
            x: Ident::new(x),
            ck: Clock::Base,
            rhs: ex.simple(y),
        }
    }

    /// A node `name(x) returns (o)` with `o = x`.
    fn copy_node(name: &str) -> Node<ClightOps> {
        let mut ex = Exprs::new();
        Node {
            name: Ident::new(name),
            inputs: vec![decl("x", CTy::I32)],
            outputs: vec![decl("o", CTy::I32)],
            locals: vec![],
            eqs: vec![copy_eq(&mut ex, "o", "x")],
            exprs: ex,
        }
    }

    #[test]
    fn unused_locals_and_unreachable_nodes_are_reported() {
        // helper: reachable; orphan: not. In f, `dead` feeds nothing,
        // and the compiler-shaped `n#tmp` is exempt.
        let (orphan, helper) = (copy_node("orphan"), copy_node("helper"));
        let mut ex = Exprs::new();
        let one = ex.constant(CConst::int(1));
        let dead = ex.simple(one);
        let tmp = copy_eq(&mut ex, "n#tmp", "x");
        let x = ex.var(Ident::new("x"), CTy::I32);
        let y = copy_eq(&mut ex, "y", "mid");
        let f = Node::<ClightOps> {
            name: Ident::new("f"),
            inputs: vec![decl("x", CTy::I32)],
            outputs: vec![decl("y", CTy::I32)],
            locals: vec![
                decl("dead", CTy::I32),
                decl("n#tmp", CTy::I32),
                decl("mid", CTy::I32),
            ],
            eqs: vec![
                Equation::Def {
                    x: Ident::new("dead"),
                    ck: Clock::Base,
                    rhs: dead,
                },
                tmp,
                Equation::Call {
                    xs: vec![Ident::new("mid")],
                    ck: Clock::Base,
                    node: NodeId::new(1),
                    args: vec![x],
                },
                y,
            ],
            exprs: ex,
        };
        let prog = Program::new(vec![orphan, helper, f]);
        let mut diags = Diagnostics::new();
        check_liveness(&prog, NodeId::new(2), &SpanMap::new(), &mut diags);
        let mut found: Vec<(&str, String)> = diags
            .iter()
            .map(|d| (d.code.id, d.message.clone()))
            .collect();
        found.sort();
        assert_eq!(found.len(), 2, "{diags}");
        assert_eq!(found[0].0, "W0104");
        assert!(found[0].1.contains("dead"));
        assert_eq!(found[1].0, "W0105");
        assert!(found[1].1.contains("orphan"));
    }

    #[test]
    fn clock_reads_keep_variables_live() {
        // k only appears as a clock of y's equation — still live.
        let mut ex = Exprs::new();
        let k = copy_eq(&mut ex, "k", "c");
        let x = ex.var(Ident::new("x"), CTy::I32);
        let x = ex.when(x, Ident::new("k"), true);
        let y = ex.simple(x);
        let f = Node::<ClightOps> {
            name: Ident::new("f"),
            inputs: vec![decl("x", CTy::I32), decl("c", CTy::Bool)],
            outputs: vec![VarDecl {
                name: Ident::new("y"),
                ty: CTy::I32,
                ck: Clock::Base.on(Ident::new("k"), true),
            }],
            locals: vec![decl("k", CTy::Bool)],
            eqs: vec![
                k,
                Equation::Def {
                    x: Ident::new("y"),
                    ck: Clock::Base.on(Ident::new("k"), true),
                    rhs: y,
                },
            ],
            exprs: ex,
        };
        let prog = Program::new(vec![f]);
        let mut diags = Diagnostics::new();
        check_liveness(&prog, NodeId::new(0), &SpanMap::new(), &mut diags);
        assert!(diags.is_empty(), "{diags}");
    }
}
