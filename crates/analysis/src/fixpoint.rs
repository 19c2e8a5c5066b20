//! The worklist fixpoint engine.
//!
//! Every analysis of this crate is an instance of the same scheme: an
//! abstract value per variable (an element of a [`Lattice`]), a
//! *transfer function* per equation mapping the current environment to
//! new abstract values for the variables the equation defines, and a
//! worklist iteration to a fixpoint.
//!
//! # Termination
//!
//! The engine terminates for every monotone transfer function because
//!
//! * environments only grow: new values are *joined* into the old ones,
//!   and an equation is re-queued only when some variable it reads
//!   actually changed;
//! * after [`WIDEN_AFTER`] visits of the same equation, joins are
//!   replaced by [`Lattice::widen_with`], whose contract is that every
//!   chain `x, x ∇ y₁, (x ∇ y₁) ∇ y₂, …` stabilizes in finitely many
//!   steps (finite lattices take `widen = join`; the interval lattice
//!   jumps to ⊤).
//!
//! # Iteration order
//!
//! The worklist pops the queued equation with the lowest rank in a
//! reverse postorder of the definition→reader graph: an edge runs from
//! each equation to every equation reading a variable it defines,
//! `fby` equations included. Program order alone is not enough:
//! scheduling puts a `fby` after the equations that read its (delayed)
//! output, so a schedule-order first sweep reads every `fby` variable
//! before its equation has run, and each `fby` re-runs the chain below
//! it. In reverse postorder an acyclic node is solved with exactly one
//! transfer call per equation; only cycles through a `fby` re-queue.
//!
//! The graph is a reader index built once per node in compressed
//! sparse row form: one flat `Vec<u32>` of reader equations and one
//! offset per defined variable. The ranks come from an iterative
//! depth-first search over it, and all per-equation state (rank, visit
//! count, queued flag) sits in one `Vec`, so the engine allocates a
//! fixed handful of buffers per node however many variables it has.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use velus_common::{ident_map_with_capacity, Ident, IdentMap};
use velus_nlustre::ast::Node;
use velus_ops::Ops;

/// A join-semilattice of abstract values.
///
/// The contract the engine relies on:
///
/// * [`Lattice::bottom`] is a least element: `bottom.join_with(x)`
///   makes the receiver equal to `x`;
/// * [`Lattice::join_with`] computes an upper bound in place and
///   reports whether the receiver changed (ascending chains only);
/// * [`Lattice::widen_with`] is an upper bound like `join_with` but
///   with the additional guarantee that repeated widening stabilizes
///   in finitely many steps. Finite-height lattices keep the default
///   (`widen = join`).
pub trait Lattice: Clone + PartialEq {
    /// The least element (no information / unreachable).
    fn bottom() -> Self;

    /// Joins `other` into `self`; returns whether `self` changed.
    fn join_with(&mut self, other: &Self) -> bool;

    /// Widens `self` by `other`; returns whether `self` changed.
    /// Defaults to [`Lattice::join_with`] (correct for finite lattices).
    fn widen_with(&mut self, other: &Self) -> bool {
        self.join_with(other)
    }
}

/// An abstract environment: variable → lattice element, with unmapped
/// variables implicitly at [`Lattice::bottom`].
#[derive(Debug, Clone)]
pub struct Env<L: Lattice> {
    map: IdentMap<L>,
    bottom: L,
}

impl<L: Lattice> Env<L> {
    /// An empty environment (everything at bottom).
    pub fn new() -> Env<L> {
        Env {
            map: IdentMap::default(),
            bottom: L::bottom(),
        }
    }

    /// The abstract value of `x` (bottom when never written).
    pub fn get(&self, x: Ident) -> &L {
        self.map.get(&x).unwrap_or(&self.bottom)
    }

    /// Sets the abstract value of `x` outright (used to seed inputs).
    pub fn set(&mut self, x: Ident, v: L) {
        self.map.insert(x, v);
    }

    /// Joins (or, when `widen`, widens) `v` into the value of `x`;
    /// returns whether the value changed.
    pub fn update(&mut self, x: Ident, v: L, widen: bool) -> bool {
        match self.map.get_mut(&x) {
            Some(cur) => {
                if widen {
                    cur.widen_with(&v)
                } else {
                    cur.join_with(&v)
                }
            }
            None => {
                let changed = v != self.bottom;
                if changed {
                    self.map.insert(x, v);
                }
                changed
            }
        }
    }
}

impl<L: Lattice> Default for Env<L> {
    fn default() -> Env<L> {
        Env::new()
    }
}

/// Number of visits of one equation after which joins become widenings.
pub const WIDEN_AFTER: usize = 8;

/// The reader index of a node in compressed sparse row form.
///
/// Every variable some equation defines gets a *slot*, numbered in
/// equation order, so the slots of one equation are contiguous. The
/// equations reading slot `s` (clock reads included) are
/// `readers[offsets[s]..offsets[s + 1]]`, in equation order, and the
/// readers of all the variables equation `i` defines, its successors in
/// the definition→reader graph, form one contiguous run too.
struct ReaderIndex {
    /// Defined variable → slot.
    slot_of: IdentMap<u32>,
    offsets: Vec<u32>,
    readers: Vec<u32>,
}

impl ReaderIndex {
    /// Builds the index and records each equation's first slot in
    /// `state`.
    fn new<O: Ops>(node: &Node<O>, state: &mut [EqState]) -> ReaderIndex {
        let mut slot_of: IdentMap<u32> = ident_map_with_capacity(node.eqs.len());
        let mut slots = 0u32;
        for (eq, st) in node.eqs.iter().zip(state.iter_mut()) {
            st.first_slot = slots;
            for &x in eq.defined() {
                slot_of.insert(x, slots);
                slots += 1;
            }
        }
        // Count the readers of each slot, turn the counts into start
        // offsets, fill each slot's run while advancing its offset to
        // the run's end, then shift the offsets back by one slot.
        let mut offsets = vec![0u32; slots as usize + 1];
        let mut reads: Vec<Ident> = Vec::new();
        let mut each_read = |f: &mut dyn FnMut(u32, u32)| {
            for (j, eq) in node.eqs.iter().enumerate() {
                reads.clear();
                eq.reads_into(&node.exprs, &mut reads);
                for x in &reads {
                    if let Some(&s) = slot_of.get(x) {
                        f(s, j as u32);
                    }
                }
            }
        };
        each_read(&mut |s, _| offsets[s as usize] += 1);
        let mut total = 0;
        for o in offsets.iter_mut() {
            let count = *o;
            *o = total;
            total += count;
        }
        let mut readers = vec![0u32; total as usize];
        each_read(&mut |s, j| {
            readers[offsets[s as usize] as usize] = j;
            offsets[s as usize] += 1;
        });
        offsets.copy_within(..slots as usize, 1);
        offsets[0] = 0;
        ReaderIndex {
            slot_of,
            offsets,
            readers,
        }
    }

    /// The equations reading slot `s`.
    fn readers_of(&self, s: u32) -> &[u32] {
        &self.readers[self.offsets[s as usize] as usize..self.offsets[s as usize + 1] as usize]
    }
}

/// What the engine tracks per equation.
#[derive(Debug, Clone, Copy, Default)]
struct EqState {
    /// First slot of the variables the equation defines.
    first_slot: u32,
    /// Position in the reverse postorder: the worklist pops the
    /// lowest rank first.
    rank: u32,
    visits: u32,
    queued: bool,
}

/// Ranks the equations of `node` by a reverse postorder of the
/// definition→reader graph (`fby` edges included), computed by an
/// iterative depth-first search from every equation in program order.
/// On an acyclic graph the ranks are a topological order; on a cycle
/// they order its body after its entry. Leaves every equation queued.
fn rank_equations<O: Ops>(node: &Node<O>, index: &ReaderIndex, state: &mut [EqState]) {
    let succ = |i: u32, state: &[EqState]| {
        let first = state[i as usize].first_slot;
        let defs = node.eqs[i as usize].defined().len() as u32;
        (
            index.offsets[first as usize],
            index.offsets[(first + defs) as usize],
        )
    };
    let mut next_rank = state.len() as u32;
    // (equation, cursor into its successor run); `queued` marks the
    // equations the search has reached.
    let mut stack: Vec<(u32, u32)> = Vec::new();
    for root in 0..state.len() as u32 {
        if state[root as usize].queued {
            continue;
        }
        state[root as usize].queued = true;
        stack.push((root, succ(root, state).0));
        while let Some(&(i, cursor)) = stack.last() {
            let end = succ(i, state).1;
            if cursor < end {
                stack.last_mut().expect("non-empty").1 += 1;
                let j = index.readers[cursor as usize];
                if !state[j as usize].queued {
                    state[j as usize].queued = true;
                    stack.push((j, succ(j, state).0));
                }
            } else {
                stack.pop();
                next_rank -= 1;
                state[i as usize].rank = next_rank;
            }
        }
    }
}

/// Runs the worklist iteration over the equations of `node` until the
/// environment stabilizes.
///
/// `transfer` receives the node, the index of the equation to
/// (re-)evaluate and the current environment, and appends the abstract
/// values the equation produces to `out` (one entry per defined
/// variable). The engine joins them into the environment and re-queues
/// every equation that reads a variable whose value changed. The
/// worklist always pops the queued equation of lowest rank in a reverse
/// postorder of the definition→reader graph, so an acyclic node is
/// solved with one transfer call per equation.
pub fn solve<O: Ops, L: Lattice>(
    node: &Node<O>,
    env: &mut Env<L>,
    mut transfer: impl FnMut(&Node<O>, usize, &Env<L>, &mut Vec<(Ident, L)>),
) {
    let n = node.eqs.len();
    let mut state = vec![EqState::default(); n];
    let index = ReaderIndex::new(node, &mut state);
    rank_equations(node, &index, &mut state);

    let mut queue: BinaryHeap<Reverse<(u32, u32)>> = state
        .iter()
        .enumerate()
        .map(|(i, st)| Reverse((st.rank, i as u32)))
        .collect();
    let mut out: Vec<(Ident, L)> = Vec::new();
    while let Some(Reverse((_, i))) = queue.pop() {
        let st = &mut state[i as usize];
        st.queued = false;
        st.visits += 1;
        let widen = st.visits as usize > WIDEN_AFTER;
        out.clear();
        transfer(node, i as usize, env, &mut out);
        for (x, v) in out.drain(..) {
            if !env.update(x, v, widen) {
                continue;
            }
            let Some(&s) = index.slot_of.get(&x) else {
                continue;
            };
            for &j in index.readers_of(s) {
                let rj = &mut state[j as usize];
                if !rj.queued {
                    rj.queued = true;
                    queue.push(Reverse((rj.rank, j)));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use velus_nlustre::ast::{Equation, Exprs, VarDecl};
    use velus_nlustre::clock::Clock;
    use velus_ops::{CConst, CTy, ClightOps};

    /// A one-bit "reached" lattice.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Reach(bool);

    impl Lattice for Reach {
        fn bottom() -> Reach {
            Reach(false)
        }
        fn join_with(&mut self, other: &Reach) -> bool {
            let changed = !self.0 && other.0;
            self.0 |= other.0;
            changed
        }
    }

    #[test]
    fn propagates_through_a_copy_chain_and_a_fby_back_edge() {
        // x = 0 fby z; y = x; z = y;  — the back edge forces a re-queue.
        let mut ex = Exprs::new();
        let z = ex.var(Ident::new("z"), CTy::I32);
        let x = ex.var(Ident::new("x"), CTy::I32);
        let x = ex.simple(x);
        let y = ex.var(Ident::new("y"), CTy::I32);
        let y = ex.simple(y);
        let node: Node<ClightOps> = Node {
            name: Ident::new("f"),
            inputs: vec![],
            outputs: vec![VarDecl {
                name: Ident::new("z"),
                ty: CTy::I32,
                ck: Clock::Base,
            }],
            locals: vec![],
            eqs: vec![
                Equation::Fby {
                    x: Ident::new("x"),
                    ck: Clock::Base,
                    init: CConst::int(0),
                    rhs: z,
                },
                Equation::Def {
                    x: Ident::new("y"),
                    ck: Clock::Base,
                    rhs: x,
                },
                Equation::Def {
                    x: Ident::new("z"),
                    ck: Clock::Base,
                    rhs: y,
                },
            ],
            exprs: ex,
        };
        let mut env: Env<Reach> = Env::new();
        // Taint the fby: everything downstream must become reached.
        solve(&node, &mut env, reach_transfer);
        assert_eq!(env.get(Ident::new("x")), &Reach(true));
        assert_eq!(env.get(Ident::new("y")), &Reach(true));
        assert_eq!(env.get(Ident::new("z")), &Reach(true));
    }

    /// The reach transfer of the back-edge test, for any `Def`/`Fby`:
    /// every `fby` is a source, every other equation joins its reads.
    fn reach_transfer(
        node: &Node<ClightOps>,
        i: usize,
        env: &Env<Reach>,
        out: &mut Vec<(Ident, Reach)>,
    ) {
        match &node.eqs[i] {
            Equation::Fby { x, .. } => out.push((*x, Reach(true))),
            Equation::Def { x, rhs, .. } => {
                let mut v = Reach::bottom();
                let mut reads = Vec::new();
                node.exprs.control_free_vars_into(*rhs, &mut reads);
                for y in reads {
                    v.join_with(env.get(y));
                }
                out.push((*x, v));
            }
            Equation::Call { .. } => unreachable!(),
        }
    }

    #[test]
    fn a_scheduled_chain_with_fbys_takes_one_transfer_per_equation() {
        // v1 = x + 1; v_i = v_{i-1} + 1, but every sixth v_i = 0 fby
        // v_{i-1}. Scheduling moves each fby after the equation reading
        // it, so in program order every fby output is read before its
        // equation runs; ranked by reverse postorder, the node is acyclic
        // and each equation is visited exactly once.
        const N: usize = 1_000;
        let v = |i: usize| Ident::new(&format!("v{i}"));
        let mut ex = Exprs::new();
        let eqs = (1..=N)
            .map(|i| {
                let prev = if i == 1 { Ident::new("x") } else { v(i - 1) };
                let read = ex.var(prev, CTy::I32);
                if i % 6 == 0 {
                    Equation::Fby {
                        x: v(i),
                        ck: Clock::Base,
                        init: CConst::int(0),
                        rhs: read,
                    }
                } else {
                    let one = ex.constant(CConst::int(1));
                    let sum = ex.binop(velus_ops::CBinOp::Add, read, one, CTy::I32);
                    Equation::Def {
                        x: v(i),
                        ck: Clock::Base,
                        rhs: ex.simple(sum),
                    }
                }
            })
            .collect();
        let decl = |name: Ident| VarDecl {
            name,
            ty: CTy::I32,
            ck: Clock::Base,
        };
        let mut node: Node<ClightOps> = Node {
            name: Ident::new("chain"),
            inputs: vec![decl(Ident::new("x"))],
            outputs: vec![decl(v(N))],
            locals: (1..N).map(|i| decl(v(i))).collect(),
            eqs,
            exprs: ex,
        };
        velus_nlustre::schedule::schedule_node(&mut node).expect("schedulable");
        let fby_pos = node
            .eqs
            .iter()
            .position(|eq| eq.defines(v(6)))
            .expect("v6 is defined");
        let reader_pos = node
            .eqs
            .iter()
            .position(|eq| eq.defines(v(7)))
            .expect("v7 is defined");
        assert!(
            reader_pos < fby_pos,
            "scheduling puts the fby after its reader"
        );

        let mut calls = 0usize;
        let mut env: Env<Reach> = Env::new();
        solve(&node, &mut env, |node, i, env, out| {
            calls += 1;
            reach_transfer(node, i, env, out);
        });
        assert_eq!(calls, N);
        assert_eq!(env.get(v(N)), &Reach(true));
        assert_eq!(env.get(v(5)), &Reach::bottom());
    }
}
