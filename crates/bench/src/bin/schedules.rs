//! The §5 schedule-quality observation.
//!
//! "For the example with the deepest nesting of clocks (3 levels), both
//! Heptagon and our prototype found the same optimal schedule."
//!
//! Our scheduler's clock-affine tie-breaking minimizes the number of
//! adjacent equation pairs with different clocks (`clock_switches`),
//! which is what makes fusion effective. This binary reports, for every
//! benchmark node: the deepest clock nesting, the switches produced by
//! the clock-affine scheduler, and the switches produced by a naive
//! (plain Kahn) order, to show the scheduler is at the optimum for the
//! suite's deepest-clock programs.

use velus_bench::suite::{load, BENCHMARKS};
use velus_nlustre::clock::Clock;
use velus_nlustre::deps::dep_graph;
use velus_nlustre::schedule::clock_switches;

/// A clock-oblivious Kahn schedule (plain FIFO), for comparison.
fn naive_switches(node: &velus_nlustre::ast::Node<velus_ops::ClightOps>) -> usize {
    let graph = dep_graph(node);
    let mut preds = graph.preds.clone();
    let mut queue: std::collections::VecDeque<usize> =
        (0..graph.len()).filter(|&i| preds[i] == 0).collect();
    let mut order = Vec::new();
    while let Some(i) = queue.pop_front() {
        order.push(i);
        for &j in graph.succs(i) {
            preds[j] -= 1;
            if preds[j] == 0 {
                queue.push_back(j);
            }
        }
    }
    order
        .windows(2)
        .filter(|w| node.eqs[w[0]].clock() != node.eqs[w[1]].clock())
        .count()
}

fn deepest_clock(node: &velus_nlustre::ast::Node<velus_ops::ClightOps>) -> usize {
    node.eqs
        .iter()
        .map(|eq| eq.clock().depth())
        .chain(node.locals.iter().map(|d| d.ck.depth()))
        .max()
        .unwrap_or(0)
}

/// The minimum possible number of clock switches: the number of distinct
/// clocks minus one (every clock group contiguous), when dependencies
/// permit.
fn distinct_clocks(node: &velus_nlustre::ast::Node<velus_ops::ClightOps>) -> usize {
    let mut clocks: Vec<&Clock> = node.eqs.iter().map(|eq| eq.clock()).collect();
    clocks.sort();
    clocks.dedup();
    clocks.len()
}

fn main() {
    println!(
        "{:<22} {:<18} {:>6} {:>9} {:>7} {:>10}",
        "benchmark", "node", "depth", "switches", "naive", "lower bnd"
    );
    let mut deepest = 0usize;
    for name in BENCHMARKS {
        let source = load(name);
        let compiled = velus::compile(&source, Some(name)).expect("benchmarks compile");
        for node in &compiled.snlustre.nodes {
            let depth = deepest_clock(node);
            deepest = deepest.max(depth);
            if depth == 0 {
                continue;
            }
            let switches = clock_switches(node);
            let naive = naive_switches(node);
            let lower = distinct_clocks(node).saturating_sub(1);
            println!(
                "{:<22} {:<18} {:>6} {:>9} {:>7} {:>10}{}",
                name,
                node.name.to_string(),
                depth,
                switches,
                naive,
                lower,
                if switches == lower {
                    "  (optimal)"
                } else if switches <= naive {
                    "  (<= naive)"
                } else {
                    ""
                }
            );
        }
    }
    println!("\ndeepest clock nesting in the suite: {deepest}");
    println!("'switches' counts adjacent equation pairs on different clocks after");
    println!("clock-affine scheduling; fewer switches means better fusion.");
}
