//! Dependency analysis between the equations of a node.
//!
//! Scheduling (§2.1) sorts equations so that "variables must be written
//! before they are read, except those defined by fbys which must be read
//! before they are written with their next value". This module computes
//! the corresponding precedence graph:
//!
//! * if equation `e` reads `x` and `x` is defined by a `Def` or `Call`
//!   equation `d`, then `d` must run before `e` (write-before-read);
//! * if equation `e` (≠ the `fby` itself) reads `x` and `x` is defined by
//!   a `Fby` equation `d`, then `e` must run before `d` (the delayed
//!   value is read before the state cell is overwritten).
//!
//! Cycles in this graph are causality errors. A `Def` or `Call` equation
//! that reads a variable it defines (`y = y + x`, `y = g(y)`) gets a self
//! edge, so it is a cycle of length one; a `Fby` that reads its own
//! variable (`a = 0 fby a + x`) reads the previous value and is legal.
//!
//! [`DepGraph::rebuild`] builds the graph for the scheduler to sort,
//! reusing one graph's buffers from node to node.
//! [`check_schedule`], the validator of its output, decides the same two
//! rules on a given order directly, without the graph.

use velus_common::{DenseBitSet, Ident, IdentMap};
use velus_ops::Ops;

use crate::ast::{Equation, Node};
use crate::SemError;

/// The precedence graph of a node's equations, in compressed sparse row
/// form: the successors of equation `i` — the equations that must run
/// *after* it — are `targets[offsets[i]..offsets[i + 1]]`, in the order
/// the edges were found. Two flat arrays instead of one list per
/// equation, and [`DepGraph::rebuild`] reuses them and its working
/// memory, so a scheduler that builds one graph per node allocates only
/// while the buffers grow to the largest node.
#[derive(Debug, Clone, Default)]
pub struct DepGraph {
    /// Row starts into `targets`, one per equation plus the end.
    offsets: Vec<usize>,
    /// Every equation's successors, row after row.
    targets: Vec<usize>,
    /// Predecessor counts, indexed by equation.
    pub preds: Vec<usize>,
    /// The working memory of [`DepGraph::rebuild`].
    scratch: Scratch,
}

/// What building a graph needs besides the graph itself.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// The equation defining each variable.
    def_of: IdentMap<usize>,
    /// The edges as found, `(from, to)`.
    edges: Vec<(usize, usize)>,
    /// The definers already reached from the current reader.
    seen: DenseBitSet,
    /// The variables the current reader reads.
    reads: Vec<Ident>,
    /// Per equation, a write position into `targets`, then the row that
    /// last reached it.
    cursor: Vec<usize>,
}

impl DepGraph {
    /// Number of equations.
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// Whether the graph has no equations.
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// The equations that must run after equation `i`, in the order the
    /// edges were found (readers in equation order, each reader's
    /// definers in read order).
    pub fn succs(&self, i: usize) -> &[usize] {
        &self.targets[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Removes equation `i` from the predecessor counts of its
    /// successors, in edge order, calling `ready` on each successor
    /// whose count reaches zero — one step of a topological sort, which
    /// consumes [`DepGraph::preds`].
    pub fn release(&mut self, i: usize, mut ready: impl FnMut(usize)) {
        for &j in &self.targets[self.offsets[i]..self.offsets[i + 1]] {
            self.preds[j] -= 1;
            if self.preds[j] == 0 {
                ready(j);
            }
        }
    }

    /// Makes this the precedence graph of `node`, reusing the buffers.
    ///
    /// Reads of inputs and of variables not defined in the node impose
    /// no constraints (undefined variables are caught by the type
    /// checker).
    pub fn rebuild<O: Ops>(&mut self, node: &Node<O>) {
        let n = node.eqs.len();
        let Scratch {
            def_of,
            edges,
            seen,
            reads,
            cursor,
        } = &mut self.scratch;
        def_of.clear();
        for (i, eq) in node.eqs.iter().enumerate() {
            for &x in eq.defined() {
                def_of.insert(x, i);
            }
        }
        // A per-reader seen-bitset over the definer index (reset per
        // reader) collapses duplicate reads of the same variable to one
        // candidate edge, so the list holds each (reader, definer) pair
        // once. The one duplicate it can still hold is across readers: a
        // Def equation and the Fby it reads from give the same directed
        // edge from both ends (`y = cum + x; cum = 0 fby y` yields 0→1
        // twice); the row pass below drops it.
        edges.clear();
        for (i, eq) in node.eqs.iter().enumerate() {
            reads.clear();
            eq.reads_into(&node.exprs, reads);
            if reads.is_empty() {
                continue;
            }
            seen.reset(n);
            for x in reads.iter() {
                if let Some(&d) = def_of.get(x) {
                    if seen.insert(d) {
                        match &node.eqs[d] {
                            Equation::Fby { .. } if d == i => {}
                            Equation::Fby { .. } => edges.push((i, d)),
                            _ => edges.push((d, i)),
                        }
                    }
                }
            }
        }
        // Rows by a stable counting sort on the source, so each row keeps
        // the order its edges were found in.
        let offsets = &mut self.offsets;
        offsets.clear();
        offsets.resize(n + 1, 0);
        for &(a, _) in edges.iter() {
            offsets[a + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        cursor.clear();
        cursor.extend_from_slice(&offsets[..n]);
        let targets = &mut self.targets;
        targets.clear();
        targets.resize(edges.len(), 0);
        for &(a, b) in edges.iter() {
            targets[cursor[a]] = b;
            cursor[a] += 1;
        }
        // Drop the repeat of an edge within its row (keeping the first)
        // and count predecessors, compacting the rows in place. `cursor`
        // is reused as the row that last reached each target.
        let last_row = cursor;
        last_row.fill(usize::MAX);
        let preds = &mut self.preds;
        preds.clear();
        preds.resize(n, 0);
        let mut kept = 0;
        let mut start = 0;
        for a in 0..n {
            let end = offsets[a + 1];
            offsets[a] = kept;
            for k in start..end {
                let b = targets[k];
                if last_row[b] != a {
                    last_row[b] = a;
                    targets[kept] = b;
                    kept += 1;
                    preds[b] += 1;
                }
            }
            start = end;
        }
        offsets[n] = kept;
        targets.truncate(kept);
    }
}

/// Builds the precedence graph of `node` (see [`DepGraph::rebuild`]).
pub fn dep_graph<O: Ops>(node: &Node<O>) -> DepGraph {
    let mut graph = DepGraph::default();
    graph.rebuild(node);
    graph
}

/// Extracts the variables on a dependency cycle, for error reporting.
pub fn cycle_witness<O: Ops>(node: &Node<O>, graph: &DepGraph) -> Vec<Ident> {
    let n = graph.len();
    // Kahn elimination from the sources leaves the cycles and everything
    // downstream of them.
    let mut preds = graph.preds.clone();
    let mut stack: Vec<usize> = (0..n).filter(|&i| preds[i] == 0).collect();
    while let Some(i) = stack.pop() {
        for &j in graph.succs(i) {
            preds[j] -= 1;
            if preds[j] == 0 {
                stack.push(j);
            }
        }
    }
    let mut left: Vec<bool> = preds.iter().map(|&p| p > 0).collect();
    // Peeling the equations with no remaining successor then drops the
    // downstream readers: what is left lies on a cycle.
    let mut succs_left = vec![0usize; n];
    let mut preds_of: Vec<Vec<usize>> = vec![Vec::new(); n];
    for i in (0..n).filter(|&i| left[i]) {
        for &j in graph.succs(i).iter().filter(|&&j| left[j]) {
            succs_left[i] += 1;
            preds_of[j].push(i);
        }
    }
    let mut stack: Vec<usize> = (0..n).filter(|&i| left[i] && succs_left[i] == 0).collect();
    while let Some(j) = stack.pop() {
        left[j] = false;
        for &i in &preds_of[j] {
            succs_left[i] -= 1;
            if succs_left[i] == 0 {
                stack.push(i);
            }
        }
    }
    (0..n)
        .filter(|&i| left[i])
        .flat_map(|i| node.eqs[i].defined().iter().copied())
        .collect()
}

/// Checks that the equations, *in their current order*, satisfy every
/// precedence constraint: the executable schedule validator.
///
/// This plays the role of the paper's Coq-verified schedule checker — the
/// scheduling heuristic is untrusted, its output is validated. It
/// decides the precedence condition of the module docs directly, in one
/// pass over the reads, and builds no [`DepGraph`]: the checker shares
/// no code with the graph the scheduler sorts. With each defined
/// variable's position `d` recorded, a read in equation `i` is in order
/// when
///
/// * the variable is defined by a `Def` or `Call` equation and `d < i`
///   (written before it is read), or
/// * it is defined by a `Fby` equation and `i <= d` (the delayed value
///   is read before the state cell is overwritten; `i == d` is the
///   delay reading its own previous value).
///
/// Reads of inputs and of variables the node does not define impose no
/// constraint.
///
/// # Errors
///
/// [`SemError::BadSchedule`] naming the offending variable.
pub fn check_schedule<O: Ops>(node: &Node<O>) -> Result<(), SemError> {
    let mut position: IdentMap<usize> = velus_common::ident_map_with_capacity(node.eqs.len());
    for (d, eq) in node.eqs.iter().enumerate() {
        for &x in eq.defined() {
            position.insert(x, d);
        }
    }
    let mut reads: Vec<Ident> = Vec::new();
    for (i, eq) in node.eqs.iter().enumerate() {
        reads.clear();
        eq.reads_into(&node.exprs, &mut reads);
        for x in &reads {
            let Some(&d) = position.get(x) else { continue };
            // Equation `first` must run before equation `then`.
            let (first, then, in_order) = match node.eqs[d] {
                Equation::Fby { .. } => (i, d, i <= d),
                _ => (d, i, d < i),
            };
            if !in_order {
                return Err(SemError::BadSchedule(format!(
                    "in node {}: equation for {} must come after equation {first}",
                    node.name,
                    node.eqs[then]
                        .defined()
                        .first()
                        .map(|x| x.to_string())
                        .unwrap_or_default(),
                )));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{ExprId, Exprs, Program, VarDecl};
    use crate::clock::Clock;
    use velus_ops::{CConst, CTy, ClightOps};

    fn id(s: &str) -> Ident {
        Ident::new(s)
    }

    fn decl(name: &str, ty: CTy) -> VarDecl<ClightOps> {
        VarDecl {
            name: id(name),
            ty,
            ck: Clock::Base,
        }
    }

    fn var(ex: &mut Exprs<ClightOps>, x: &str) -> ExprId {
        ex.var(id(x), CTy::I32)
    }

    fn add(ex: &mut Exprs<ClightOps>, a: ExprId, b: ExprId) -> ExprId {
        ex.binop(velus_ops::CBinOp::Add, a, b, CTy::I32)
    }

    /// y = cum + x ; cum = 0 fby y (well scheduled)
    fn two_eq_node(order: [usize; 2]) -> Node<ClightOps> {
        let mut ex = Exprs::new();
        let (cum, x) = (var(&mut ex, "cum"), var(&mut ex, "x"));
        let sum = add(&mut ex, cum, x);
        let eqs = [
            Equation::Def {
                x: id("y"),
                ck: Clock::Base,
                rhs: ex.simple(sum),
            },
            Equation::Fby {
                x: id("cum"),
                ck: Clock::Base,
                init: CConst::int(0),
                rhs: var(&mut ex, "y"),
            },
        ];
        Node {
            name: id("acc"),
            inputs: vec![decl("x", CTy::I32)],
            outputs: vec![decl("y", CTy::I32)],
            locals: vec![decl("cum", CTy::I32)],
            eqs: order.into_iter().map(|i| eqs[i].clone()).collect(),
            exprs: ex,
        }
    }

    #[test]
    fn fby_readers_precede_the_fby() {
        let node = two_eq_node([0, 1]);
        assert_eq!(check_schedule(&node), Ok(()));
        let node = two_eq_node([1, 0]);
        assert!(matches!(
            check_schedule(&node),
            Err(SemError::BadSchedule(_))
        ));
    }

    #[test]
    fn graph_has_expected_edges() {
        let node = two_eq_node([0, 1]);
        let g = dep_graph(&node);
        // y's equation (0) must precede the fby (1): edge 0 -> 1 from the
        // fby reading y, and edge 0 -> 1 from y reading cum (fby).
        assert_eq!(g.succs(0), [1]);
        assert!(g.succs(1).is_empty());
        assert_eq!(g.preds, [0, 1], "the edge found twice counts once");
    }

    #[test]
    fn dense_duplicate_reads_produce_unique_edges() {
        // The dense-graph regression for the seen-bitset: many equations
        // each reading the same variable many times. Every (def, reader)
        // pair must yield exactly one edge, and predecessor counts must
        // agree with the successor lists.
        let m = 40usize;
        let mut ex = Exprs::new();
        let x = var(&mut ex, "x");
        let mut eqs: Vec<Equation<ClightOps>> = vec![Equation::Def {
            x: id("a"),
            ck: Clock::Base,
            rhs: ex.simple(x),
        }];
        for i in 0..m {
            // w_i = a + a + … + a  (nine duplicate reads of `a`).
            let mut rhs = var(&mut ex, "a");
            for _ in 0..8 {
                let a = var(&mut ex, "a");
                rhs = add(&mut ex, rhs, a);
            }
            eqs.push(Equation::Def {
                x: id(&format!("w{i}")),
                ck: Clock::Base,
                rhs: ex.simple(rhs),
            });
        }
        let node: Node<ClightOps> = Node {
            name: id("dense"),
            inputs: vec![decl("x", CTy::I32)],
            outputs: vec![decl("a", CTy::I32)],
            locals: (0..m).map(|i| decl(&format!("w{i}"), CTy::I32)).collect(),
            eqs,
            exprs: ex,
        };
        let g = dep_graph(&node);
        // One edge from `a`'s equation to each reader, despite the nine
        // duplicate reads per equation.
        let mut succs = g.succs(0).to_vec();
        succs.sort_unstable();
        succs.dedup();
        assert_eq!(succs.len(), m, "duplicate edges survived deduplication");
        assert_eq!(g.succs(0).len(), m);
        assert_eq!(g.preds[0], 0);
        for i in 1..=m {
            assert_eq!(g.preds[i], 1, "reader {i} must have exactly one pred");
        }
        // The same property through the fby-reversed edge direction:
        // swap `a`'s definition for a delay, so each reader now precedes
        // the fby equation — edges i -> 0, again deduplicated.
        let mut node = node;
        node.eqs[0] = Equation::Fby {
            x: id("a"),
            ck: Clock::Base,
            init: CConst::int(0),
            rhs: x,
        };
        let g = dep_graph(&node);
        assert!(g.succs(0).is_empty());
        assert_eq!(g.preds[0], m, "one edge per reader into the fby");
        for i in 1..=m {
            assert_eq!(g.succs(i), [0]);
        }
    }

    #[test]
    fn cycle_is_reported() {
        // a = b; b = a — instantaneous cycle; y = a reads it but is not
        // on it, so the witness leaves it out.
        let mut ex = Exprs::new();
        let mut read = |x: &str| {
            let v = var(&mut ex, x);
            ex.simple(v)
        };
        let (b, a1, a2) = (read("b"), read("a"), read("a"));
        let node: Node<ClightOps> = Node {
            name: id("cyc"),
            inputs: vec![],
            outputs: vec![decl("y", CTy::I32)],
            locals: vec![decl("a", CTy::I32), decl("b", CTy::I32)],
            eqs: vec![
                Equation::Def {
                    x: id("a"),
                    ck: Clock::Base,
                    rhs: b,
                },
                Equation::Def {
                    x: id("b"),
                    ck: Clock::Base,
                    rhs: a1,
                },
                Equation::Def {
                    x: id("y"),
                    ck: Clock::Base,
                    rhs: a2,
                },
            ],
            exprs: ex,
        };
        let g = dep_graph(&node);
        assert_eq!(cycle_witness(&node, &g), vec![id("a"), id("b")]);
        let _ = Program::new(vec![node]); // silence unused-import style paths
    }

    /// A node `f(x) returns (y)` with the single equation `eq` over the
    /// expressions `ex`.
    fn one_eq_node(eq: Equation<ClightOps>, ex: Exprs<ClightOps>) -> Node<ClightOps> {
        Node {
            name: id("f"),
            inputs: vec![decl("x", CTy::I32)],
            outputs: vec![decl("y", CTy::I32)],
            locals: vec![],
            eqs: vec![eq],
            exprs: ex,
        }
    }

    /// `y + x`, and the pool it is in.
    fn y_plus_x() -> (ExprId, Exprs<ClightOps>) {
        let mut ex = Exprs::new();
        let (y, x) = (var(&mut ex, "y"), var(&mut ex, "x"));
        (add(&mut ex, y, x), ex)
    }

    #[test]
    fn an_equation_reading_what_it_defines_is_a_cycle() {
        // y = y + x and y = g(y): instantaneous self-dependencies.
        let (sum, mut def) = y_plus_x();
        let rhs = def.simple(sum);
        let mut call = Exprs::new();
        let y = var(&mut call, "y");
        for (eq, ex) in [
            (
                Equation::Def {
                    x: id("y"),
                    ck: Clock::Base,
                    rhs,
                },
                def,
            ),
            (
                Equation::Call {
                    xs: vec![id("y")],
                    ck: Clock::Base,
                    node: velus_common::NodeId::new(0),
                    args: vec![y],
                },
                call,
            ),
        ] {
            let node = one_eq_node(eq, ex);
            let g = dep_graph(&node);
            assert_eq!((g.succs(0), g.preds[0]), (&[0][..], 1));
            assert_eq!(cycle_witness(&node, &g), vec![id("y")]);
            assert!(matches!(
                crate::schedule::schedule_order(&node),
                Err(SemError::SchedulingCycle(_, w)) if w == vec![id("y")]
            ));
        }
    }

    #[test]
    fn a_delay_reading_its_own_variable_is_legal() {
        // y = 0 fby (y + x) reads the previous value of y.
        let (rhs, ex) = y_plus_x();
        let node = one_eq_node(
            Equation::Fby {
                x: id("y"),
                ck: Clock::Base,
                init: CConst::int(0),
                rhs,
            },
            ex,
        );
        let g = dep_graph(&node);
        assert!(g.succs(0).is_empty());
        assert_eq!(g.preds[0], 0);
        assert_eq!(check_schedule(&node), Ok(()));
    }
}
