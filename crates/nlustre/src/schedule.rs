//! The scheduling pass: N-Lustre → SN-Lustre.
//!
//! The paper implements scheduling as an untrusted OCaml heuristic whose
//! output is validated by a Coq-verified checker (§2.1). We keep that
//! architecture: [`schedule_order`] is a heuristic, [`apply_order`]
//! refuses any order that is not a permutation of the node's equations,
//! and every caller validates the result with
//! [`crate::deps::check_schedule`], which builds no dependency graph of
//! its own. Nothing re-checks typing and clocking after scheduling: the
//! judgment of [`crate::check`] does not depend on the order of a node's
//! equations, so a permutation of a checked program is checked (the
//! paper proves this once as a lemma; `tests/check_permutation.rs` pins
//! it as a property).
//!
//! The heuristic is a Kahn topological sort that *prefers to keep
//! equations of equal clocks adjacent*. This is the property that makes
//! the later fusion optimization effective — "scheduling places similarly
//! clocked equations together" (§3.3) — and it is why, on the benchmarks
//! with the deepest clock nesting, the schedule coincides with the one
//! Heptagon finds (§5).

use std::collections::VecDeque;

use velus_ops::Ops;

use crate::ast::{Equation, Node, Program};
use crate::deps::{check_schedule, cycle_witness, DepGraph};
use crate::SemError;

/// The scheduling heuristic with its working memory: one dependency
/// graph and one ready queue, reused across the nodes it orders, so
/// scheduling a program allocates per node only the order it returns.
#[derive(Debug, Default)]
pub struct Scheduler {
    graph: DepGraph,
    ready: VecDeque<usize>,
}

impl Scheduler {
    /// A scheduler with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules the equations of one node. Returns the new equation
    /// order as indices into the original list.
    ///
    /// # Errors
    ///
    /// [`SemError::SchedulingCycle`] when the dependency graph is cyclic.
    pub fn order<O: Ops>(&mut self, node: &Node<O>) -> Result<Vec<usize>, SemError> {
        let Scheduler { graph, ready } = self;
        graph.rebuild(node);
        let n = graph.len();
        // Ready equations, grouped to allow clock-affine picking.
        ready.clear();
        ready.extend((0..n).filter(|&i| graph.preds[i] == 0));
        let mut order = Vec::with_capacity(n);
        // The previously picked equation (its clock is read through the
        // node, so no per-step `Clock` clone is needed).
        let mut last: Option<usize> = None;

        while !ready.is_empty() {
            // Prefer an equation on the same clock as the previous one;
            // fall back to the earliest ready equation (stable order).
            let pick_pos = last
                .and_then(|p| {
                    let ck = node.eqs[p].clock();
                    ready.iter().position(|&i| node.eqs[i].clock() == ck)
                })
                .unwrap_or(0);
            let i = ready.remove(pick_pos).expect("position is in range");
            last = Some(i);
            order.push(i);
            graph.release(i, |j| ready.push_back(j));
        }
        if order.len() != n {
            // The sort consumed the predecessor counts; the witness
            // needs them whole.
            graph.rebuild(node);
            return Err(SemError::SchedulingCycle(
                node.name,
                cycle_witness(node, graph),
            ));
        }
        Ok(order)
    }
}

/// Schedules the equations of one node with a fresh [`Scheduler`].
///
/// # Errors
///
/// [`SemError::SchedulingCycle`] when the dependency graph is cyclic.
pub fn schedule_order<O: Ops>(node: &Node<O>) -> Result<Vec<usize>, SemError> {
    Scheduler::new().order(node)
}

/// Reorders a node's equations so that the `k`-th becomes the
/// `order[k]`-th of the current list (the shape [`schedule_order`]
/// returns), moving them rather than cloning them.
///
/// # Errors
///
/// [`SemError::BadSchedule`] when `order` is not a permutation of the
/// node's equation indices: an index out of range, an index given
/// twice, or too few indices. The node is left as it was.
pub fn apply_order<O: Ops>(node: &mut Node<O>, order: &[usize]) -> Result<(), SemError> {
    let n = node.eqs.len();
    let mut placed = vec![false; n];
    for &i in order {
        let fault = match placed.get_mut(i) {
            None => format!("names equation {i} of {n}"),
            Some(true) => format!("places equation {i} twice"),
            Some(seen) => {
                *seen = true;
                continue;
            }
        };
        return Err(not_a_permutation(node, &fault));
    }
    if order.len() != n {
        let fault = format!("has {} indices for {n} equations", order.len());
        return Err(not_a_permutation(node, &fault));
    }
    let mut slots: Vec<Option<Equation<O>>> = std::mem::take(&mut node.eqs)
        .into_iter()
        .map(Some)
        .collect();
    node.eqs = order
        .iter()
        .map(|&i| slots[i].take().expect("order is a permutation"))
        .collect();
    Ok(())
}

fn not_a_permutation<O: Ops>(node: &Node<O>, fault: &str) -> SemError {
    SemError::BadSchedule(format!(
        "in node {}: the order {fault}, not a permutation",
        node.name
    ))
}

/// Schedules a node in place (reorders its equations) and validates the
/// result with the independent checker.
///
/// # Errors
///
/// [`SemError::SchedulingCycle`] on causality cycles; [`SemError::BadSchedule`]
/// if (impossibly, absent bugs) the heuristic produced an invalid order —
/// the untrusted-scheduler/validated-checker split of the paper.
pub fn schedule_node<O: Ops>(node: &mut Node<O>) -> Result<(), SemError> {
    schedule_node_with(&mut Scheduler::new(), node)
}

fn schedule_node_with<O: Ops>(
    scheduler: &mut Scheduler,
    node: &mut Node<O>,
) -> Result<(), SemError> {
    let order = scheduler.order(node)?;
    apply_order(node, &order)?;
    check_schedule(node)
}

/// Schedules every node of a program, validating each schedule.
///
/// # Errors
///
/// See [`schedule_node`].
pub fn schedule_program<O: Ops>(prog: &mut Program<O>) -> Result<(), SemError> {
    let mut scheduler = Scheduler::new();
    for node in &mut prog.nodes {
        schedule_node_with(&mut scheduler, node)?;
    }
    Ok(())
}

/// Counts the clock discontinuities of a schedule: the number of adjacent
/// equation pairs with different clocks. Lower is better for fusion; used
/// by the schedule-quality experiment (§5).
pub fn clock_switches<O: Ops>(node: &Node<O>) -> usize {
    node.eqs
        .windows(2)
        .filter(|w| w[0].clock() != w[1].clock())
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Exprs, VarDecl};
    use crate::clock::Clock;
    use velus_common::Ident;
    use velus_ops::{CConst, CTy, ClightOps};

    fn id(s: &str) -> Ident {
        Ident::new(s)
    }

    fn decl(name: &str, ty: CTy, ck: Clock) -> VarDecl<ClightOps> {
        VarDecl {
            name: id(name),
            ty,
            ck,
        }
    }

    /// A node with interleaved clocks, deliberately badly ordered.
    fn messy() -> Node<ClightOps> {
        let on_k = Clock::Base.on(id("k"), true);
        let mut ex = Exprs::new();
        let sum = |ex: &mut Exprs<ClightOps>| {
            let (c, x) = (ex.var(id("c"), CTy::I32), ex.var(id("x"), CTy::I32));
            ex.binop(velus_ops::CBinOp::Add, c, x, CTy::I32)
        };
        let o = sum(&mut ex);
        let o = ex.simple(o);
        let a = ex.var(id("x"), CTy::I32);
        let a = ex.when(a, id("k"), true);
        let a = ex.simple(a);
        let c = sum(&mut ex);
        let b = ex.var(id("a"), CTy::I32);
        let b = ex.simple(b);
        Node {
            name: id("messy"),
            inputs: vec![
                decl("k", CTy::Bool, Clock::Base),
                decl("x", CTy::I32, Clock::Base),
            ],
            outputs: vec![decl("o", CTy::I32, Clock::Base)],
            locals: vec![
                decl("a", CTy::I32, on_k.clone()),
                decl("b", CTy::I32, on_k.clone()),
                decl("c", CTy::I32, Clock::Base),
            ],
            eqs: vec![
                // o = c + x        (base)   — reads c
                Equation::Def {
                    x: id("o"),
                    ck: Clock::Base,
                    rhs: o,
                },
                // a = x when k     (on k)
                Equation::Def {
                    x: id("a"),
                    ck: on_k.clone(),
                    rhs: a,
                },
                // c = 0 fby (c+x)  (base)   — written after all readers
                Equation::Fby {
                    x: id("c"),
                    ck: Clock::Base,
                    init: CConst::int(0),
                    rhs: c,
                },
                // b = a            (on k)   — reads a
                Equation::Def {
                    x: id("b"),
                    ck: on_k,
                    rhs: b,
                },
            ],
            exprs: ex,
        }
    }

    #[test]
    fn schedule_is_valid_and_groups_clocks() {
        let mut node = messy();
        schedule_node(&mut node).unwrap();
        check_schedule(&node).unwrap();
        // Equal-clock equations end up adjacent: at most 2 switches for
        // two clock groups, where the original order had 3.
        assert!(clock_switches(&node) <= 2, "schedule: {node}");
    }

    #[test]
    fn cycle_reported_with_witness() {
        let mut node = messy();
        // Introduce a = b to close an instantaneous cycle a -> b -> a.
        let b = node.exprs.var(id("b"), CTy::I32);
        node.eqs[1] = Equation::Def {
            x: id("a"),
            ck: Clock::Base.on(id("k"), true),
            rhs: node.exprs.simple(b),
        };
        let err = schedule_node(&mut node).unwrap_err();
        match err {
            SemError::SchedulingCycle(n, vars) => {
                assert_eq!(n, id("messy"));
                assert!(vars.contains(&id("a")) && vars.contains(&id("b")));
            }
            other => panic!("expected cycle, got {other}"),
        }
    }

    #[test]
    fn orders_that_are_not_permutations_are_refused() {
        let node = messy();
        let (short, repeat, out_of_range, long) =
            ([2, 0, 1], [2, 0, 0, 3], [2, 0, 4, 3], [2, 0, 1, 3, 3]);
        for order in [&short[..], &repeat, &out_of_range, &long] {
            let mut refused = node.clone();
            assert!(
                matches!(
                    apply_order(&mut refused, order),
                    Err(SemError::BadSchedule(_))
                ),
                "{order:?}"
            );
            assert_eq!(refused, node, "a refused order moves nothing");
        }
        let mut reordered = node.clone();
        apply_order(&mut reordered, &[2, 0, 1, 3]).unwrap();
        assert_eq!(reordered.eqs[0], node.eqs[2]);
    }

    #[test]
    fn already_scheduled_nodes_are_stable() {
        let mut node = messy();
        schedule_node(&mut node).unwrap();
        let once = node.clone();
        schedule_node(&mut node).unwrap();
        assert_eq!(node, once);
    }
}
