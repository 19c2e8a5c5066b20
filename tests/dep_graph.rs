//! The compressed-row dependency graph against the adjacency-list
//! builder it replaced: the same successors, in the same order, for
//! every equation. Successor order decides which ready equation the
//! scheduler sees first, so any difference would move schedules and
//! with them the emitted C. And the schedule checker, which decides the
//! precedence condition without a graph, against the same reference: a
//! node's order passes exactly when no edge points backward.

use rand::prelude::*;

use velus_common::{DenseBitSet, Ident, IdentMap};
use velus_nlustre::ast::{Equation, Node};
use velus_nlustre::deps::{check_schedule, dep_graph, DepGraph};
use velus_nlustre::schedule::{apply_order, schedule_order, Scheduler};
use velus_ops::ClightOps;
use velus_testkit::gen::{gen_program, GenConfig};

/// The adjacency-list builder: one successor list per equation, each
/// edge appended unless its row already holds it.
fn reference_succs(node: &Node<ClightOps>) -> (Vec<Vec<usize>>, Vec<usize>) {
    let n = node.eqs.len();
    let mut def_of: IdentMap<usize> = IdentMap::default();
    for (i, eq) in node.eqs.iter().enumerate() {
        for &x in eq.defined() {
            def_of.insert(x, i);
        }
    }
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut preds = vec![0usize; n];
    let mut seen = DenseBitSet::new();
    let mut reads: Vec<Ident> = Vec::new();
    for (i, eq) in node.eqs.iter().enumerate() {
        reads.clear();
        eq.reads_into(&node.exprs, &mut reads);
        seen.reset(n);
        for x in &reads {
            let Some(&d) = def_of.get(x) else { continue };
            if !seen.insert(d) {
                continue;
            }
            let (from, to) = match &node.eqs[d] {
                Equation::Fby { .. } if d == i => continue,
                Equation::Fby { .. } => (i, d),
                _ => (d, i),
            };
            if !succs[from].contains(&to) {
                succs[from].push(to);
                preds[to] += 1;
            }
        }
    }
    (succs, preds)
}

fn assert_same_graph(node: &Node<ClightOps>) {
    assert_graph_matches(&dep_graph(node), node);
}

fn assert_graph_matches(graph: &DepGraph, node: &Node<ClightOps>) {
    let (succs, preds) = reference_succs(node);
    assert_eq!(graph.len(), succs.len(), "node {}", node.name);
    for (i, expected) in succs.iter().enumerate() {
        assert_eq!(
            graph.succs(i),
            &expected[..],
            "node {}, equation {i}",
            node.name
        );
    }
    assert_eq!(graph.preds, preds, "node {}", node.name);
}

#[test]
fn compressed_rows_match_the_adjacency_lists_on_generated_programs() {
    let mut edges = 0;
    // One graph rebuilt for every node, as the scheduler does, must
    // match too: nothing of the previous node may leak into the next.
    let mut reused = DepGraph::default();
    for seed in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = GenConfig {
            subclock_pct: 40,
            ..GenConfig::default()
        };
        for node in &gen_program(&mut rng, &cfg).nodes {
            assert_same_graph(node);
            reused.rebuild(node);
            assert_graph_matches(&reused, node);
            let graph = dep_graph(node);
            edges += (0..graph.len())
                .map(|i| graph.succs(i).len())
                .sum::<usize>();
        }
    }
    assert!(edges > 1000, "the generated graphs have edges ({edges})");
}

#[test]
fn the_cross_reader_duplicate_edge_is_kept_once() {
    // `y` reads the delay `cum` (edge 0→1) and the delay reads `y` (the
    // same edge 0→1 again, found from the other end).
    let src = "
        node acc(x: int) returns (y: int)
        var cum: int;
        let
          y = cum + x;
          cum = 0 fby y;
        tel
    ";
    let (prog, _) = velus_lustre::compile_to_nlustre::<ClightOps>(src).unwrap();
    let node = &prog.nodes[0];
    assert_same_graph(node);
    let graph = dep_graph(node);
    let y = node
        .eqs
        .iter()
        .position(|eq| eq.defines(Ident::new("y")))
        .unwrap();
    let cum = node
        .eqs
        .iter()
        .position(|eq| eq.defines(Ident::new("cum")))
        .unwrap();
    assert_eq!(graph.succs(y), [cum]);
    assert_eq!(graph.preds[cum], 1);
}

/// Whether the reference graph of `node` has an edge from an equation to
/// itself or to an earlier one.
fn has_backward_edge(node: &Node<ClightOps>) -> bool {
    let (succs, _) = reference_succs(node);
    succs
        .iter()
        .enumerate()
        .any(|(i, row)| row.iter().any(|&j| j <= i))
}

#[test]
fn the_schedule_checker_accepts_exactly_the_orders_without_a_backward_edge() {
    let (mut accepted, mut rejected) = (0, 0);
    let mut scheduler = Scheduler::new();
    for seed in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = GenConfig {
            subclock_pct: 40,
            ..GenConfig::default()
        };
        for node in gen_program(&mut rng, &cfg).nodes {
            let mut scheduled = node.clone();
            let order = schedule_order(&node).expect("generated nodes are causal");
            // A scheduler reused from node to node orders each the same.
            assert_eq!(scheduler.order(&node).expect("causal"), order);
            apply_order(&mut scheduled, &order).expect("the scheduler returns a permutation");
            // The schedule, then orders ever further from it: a few
            // random swaps, then a full shuffle.
            let mut orders: Vec<Vec<usize>> = vec![(0..node.eqs.len()).collect()];
            for swaps in [1, 2, 4] {
                let mut order: Vec<usize> = (0..node.eqs.len()).collect();
                for _ in 0..swaps.min(order.len()) {
                    let (a, b) = (rng.gen_range(0..order.len()), rng.gen_range(0..order.len()));
                    order.swap(a, b);
                }
                orders.push(order);
            }
            let mut shuffled: Vec<usize> = (0..node.eqs.len()).collect();
            shuffled.shuffle(&mut rng);
            orders.push(shuffled);
            for order in orders {
                let mut permuted = scheduled.clone();
                apply_order(&mut permuted, &order).expect("a permutation");
                let verdict = check_schedule(&permuted);
                assert_eq!(
                    verdict.is_ok(),
                    !has_backward_edge(&permuted),
                    "seed {seed}, node {}, order {order:?}: {verdict:?}",
                    node.name
                );
                if verdict.is_ok() {
                    accepted += 1;
                } else {
                    rejected += 1;
                }
            }
        }
    }
    assert!(
        accepted > 500 && rejected > 500,
        "accepted {accepted}, rejected {rejected}"
    );
}
