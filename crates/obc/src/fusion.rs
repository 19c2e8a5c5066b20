//! The fusion optimization (paper §3.3, Fig. 8).
//!
//! Translation produces one nesting of conditionals per equation, so the
//! step code tests the same clock guards over and over. `fuse` merges
//! adjacent conditionals with (syntactically) equal guards — effective
//! because scheduling places similarly clocked equations together.
//!
//! The first `zip` rule does **not** preserve semantics in general: if the
//! first branch writes a variable read by the shared guard, merging
//! changes the second test. Soundness holds under the [`fusible`]
//! predicate — no `if` writes the free variables of its own guard in
//! either branch — which the paper proves of all translated code via a
//! "subtle technical argument about well-formed clocks"; here it is an
//! executable check (asserted by the validation harness) and a property
//! test.

use velus_common::{Ident, IdentMap};
use velus_ops::Ops;

use crate::ast::{Block, Class, ObcExpr, ObcExprId, ObcExprs, ObcProgram, Stmt};

/// The `zip` function of Fig. 8: integrates the statements of `t`, in
/// order, into the end of `s`. An incoming conditional whose guard equals
/// that of the conditional currently ending `s` is merged into it, its
/// branches zipped into the existing branches the same way; any other
/// statement is appended. Both blocks read their expressions from `ex`,
/// and guards are compared as expressions, not as ids.
///
/// On blocks this is one pass over `t`: the paper's rules that walk down
/// right-nested sequences become "look at the last statement", and only
/// merged branches recurse (so depth follows `if` nesting, not the
/// length of the sequence). `t` is consumed: every statement moves into
/// `s` and nothing is cloned, and the guard of a merged conditional is
/// dropped (its nodes stay in the pool, unreferenced).
pub fn zip<O: Ops>(ex: &ObcExprs<O>, s: &mut Block, t: Block) {
    for stmt in t.0 {
        match (s.last_mut(), stmt) {
            (Some(Stmt::If(e1, t1, f1)), Stmt::If(e2, t2, f2)) if ex.same(*e1, e2) => {
                zip(ex, t1, t2);
                zip(ex, f1, f2);
            }
            (_, stmt) => s.push(stmt),
        }
    }
}

/// The `fuse` function: zips a sequence into `skip`, so every run of
/// adjacent conditionals on equal guards ends up as one conditional.
///
/// The sequence is fused in place, as `zip` into an empty block would
/// build it: the statements kept move down over the merged ones, so the
/// outer sequence is never copied and a body without conditionals to
/// merge is only read.
pub fn fuse<O: Ops>(ex: &ObcExprs<O>, mut s: Block) -> Block {
    // `s[..kept]` is the fused prefix; `s[kept..next]` holds the emptied
    // conditionals already merged into it.
    let mut kept = 0;
    for next in 0..s.len() {
        if kept > 0 {
            let (fused, rest) = s.0.split_at_mut(next);
            if let (Stmt::If(e1, t1, f1), Stmt::If(e2, t2, f2)) =
                (&mut fused[kept - 1], &mut rest[0])
            {
                if ex.same(*e1, *e2) {
                    zip(ex, t1, std::mem::take(t2));
                    zip(ex, f1, std::mem::take(f2));
                    continue;
                }
            }
        }
        if kept != next {
            s.0.swap(kept, next);
        }
        kept += 1;
    }
    s.0.truncate(kept);
    s
}

/// Appends the free variables of a guard, locals and state cells alike
/// (the `MayWrite` check treats `x` and `state(x)` uniformly, as in the
/// paper), to `out`.
fn guard_vars_into<O: Ops>(ex: &ObcExprs<O>, e: ObcExprId, out: &mut Vec<Ident>) {
    if let ObcExpr::Var(x, _) | ObcExpr::State(x, _) = ex[e] {
        return out.push(x);
    }
    for n in ex.tree(e) {
        if let ObcExpr::Var(x, _) | ObcExpr::State(x, _) = n {
            out.push(*x);
        }
    }
}

/// The `Fusible` predicate: conditionals never write the free variables of
/// their own guards.
///
/// One pass over the body: a statement breaks the predicate exactly when
/// it writes a variable that the guard of an enclosing conditional
/// reads, so the walk keeps a count of enclosing guard reads per
/// variable. Checking each guard against `MayWrite` of its branches
/// instead would be quadratic in the depth of an `if` nest.
pub fn fusible<O: Ops>(ex: &ObcExprs<O>, s: &Block) -> bool {
    fusible_block(ex, s, &mut Guards::default())
}

/// The guards of the conditionals enclosing the statement being checked.
#[derive(Default)]
struct Guards {
    /// Their variables, innermost guard last.
    vars: Vec<Ident>,
    /// Variable → number of its occurrences in `vars`.
    counts: IdentMap<u32>,
}

impl Guards {
    /// Enters a conditional guarded by `e`; returns the mark to
    /// [`Guards::leave`] it with.
    fn enter<O: Ops>(&mut self, ex: &ObcExprs<O>, e: ObcExprId) -> usize {
        let mark = self.vars.len();
        guard_vars_into(ex, e, &mut self.vars);
        for &x in &self.vars[mark..] {
            *self.counts.entry(x).or_default() += 1;
        }
        mark
    }

    fn leave(&mut self, mark: usize) {
        for x in self.vars.drain(mark..) {
            *self.counts.get_mut(&x).expect("counted on entry") -= 1;
        }
    }

    /// Whether an enclosing guard reads `x`.
    fn read(&self, x: &Ident) -> bool {
        self.counts.get(x).is_some_and(|&n| n > 0)
    }
}

fn fusible_block<O: Ops>(ex: &ObcExprs<O>, s: &Block, g: &mut Guards) -> bool {
    s.iter().all(|s| match s {
        Stmt::Assign(x, _) | Stmt::AssignSt(x, _) => !g.read(x),
        Stmt::Call { results, .. } => !results.iter().any(|x| g.read(x)),
        Stmt::If(e, t, f) => {
            let mark = g.enter(ex, *e);
            let ok = fusible_block(ex, t, g) && fusible_block(ex, f, g);
            g.leave(mark);
            ok
        }
    })
}

/// Fuses the bodies of every method of a class, in place.
pub fn fuse_class<O: Ops>(class: &mut Class<O>) {
    for m in &mut class.methods {
        m.body = fuse(&m.exprs, std::mem::take(&mut m.body));
    }
}

/// Fuses a whole program. The program is consumed: each body is fused
/// in place ([`fuse`]), so no statement is copied.
///
/// The contract that lets the pipeline check only [`fusible`] after
/// fusion, and not re-run the Obc type check:
///
/// * only method bodies change: class and method declarations and the
///   expression pools are untouched, so the post-order pool invariant
///   checked after translation still holds;
/// * a body only regroups its statements: a conditional is merged into
///   the one before it when their guards are the same expression
///   ([`ObcExprs::same`]), so every guard and every statement comes from
///   the input;
/// * Obc typing judges each statement on its own, in a scope (the
///   method's variables, the class's memories and instances) that
///   fusion does not touch.
///
/// So a well-typed input gives a well-typed output
/// (`tests/fusion_props.rs` pins it). What a faulty regrouping can break
/// is [`fusible`] itself — a merge under the wrong guard can leave a
/// conditional that writes its own guard — and that is checked.
pub fn fuse_program<O: Ops>(mut prog: ObcProgram<O>) -> ObcProgram<O> {
    prog.classes.iter_mut().for_each(fuse_class);
    prog
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sem::{eval_expr, Interp, VEnv};
    use velus_nlustre::memory::Memory;
    use velus_ops::{CConst, CTy, CVal, ClightOps};

    type S = Stmt;
    type B = Block;
    type Ex = ObcExprs<ClightOps>;

    fn id(s: &str) -> Ident {
        Ident::new(s)
    }

    fn guard(ex: &mut Ex, x: &str) -> ObcExprId {
        ex.push(ObcExpr::Var(id(x), CTy::Bool))
    }

    fn assign(ex: &mut Ex, x: &str, v: i32) -> S {
        Stmt::Assign(id(x), ex.push(ObcExpr::Const(CConst::int(v))))
    }

    fn set(ex: &mut Ex, x: &str, b: bool) -> S {
        Stmt::Assign(id(x), ex.push(ObcExpr::Const(CConst::bool(b))))
    }

    fn iff(ex: &mut Ex, x: &str, t: impl Into<B>, f: impl Into<B>) -> S {
        Stmt::If(guard(ex, x), t.into(), f.into())
    }

    /// The §3.3 example: two ifs on x and a trailing state update.
    fn tracker(ex: &mut Ex) -> B {
        let c = assign(ex, "c", 1);
        let first = iff(ex, "x", c, B::new());
        let t2 = assign(ex, "t", 2);
        let pt = ex.push(ObcExpr::State(id("pt"), CTy::I32));
        let second = iff(ex, "x", t2, Stmt::Assign(id("t"), pt));
        let t = ex.push(ObcExpr::Var(id("t"), CTy::I32));
        Block(vec![first, second, Stmt::AssignSt(id("pt"), t)])
    }

    #[test]
    fn adjacent_equal_guards_merge() {
        // if x { a := 1 }; if x { b := 2 }  ==>  if x { a := 1; b := 2 }
        let mut ex = Ex::new();
        let (a, b) = (assign(&mut ex, "a", 1), assign(&mut ex, "b", 2));
        let s = Block(vec![
            iff(&mut ex, "x", a, B::new()),
            iff(&mut ex, "x", b, B::new()),
        ]);
        let fused = fuse(&ex, s);
        match &fused[..] {
            [Stmt::If(_, t, f)] => {
                assert_eq!(t.size(), 2);
                assert!(f.is_empty());
            }
            _ => panic!("expected a single if, got {}", fused.show(&ex)),
        }
    }

    #[test]
    fn tracker_shape_from_the_paper() {
        // The two ifs on x fuse into one if plus the update.
        let mut ex = Ex::new();
        let s = tracker(&mut ex);
        let fused = fuse(&ex, s);
        // One if remains, followed by the state update.
        let text = fused.show(&ex);
        assert_eq!(text.matches("if x {").count(), 1, "{text}");
        assert!(text.contains("state(pt) := t;"), "{text}");
    }

    #[test]
    fn different_guards_do_not_merge() {
        let mut ex = Ex::new();
        let (a, b) = (assign(&mut ex, "a", 1), assign(&mut ex, "b", 2));
        let s = Block(vec![
            iff(&mut ex, "x", a, B::new()),
            iff(&mut ex, "y", b, B::new()),
        ]);
        let fused = fuse(&ex, s);
        assert_eq!(fused.show(&ex).matches("if ").count(), 2);
    }

    #[test]
    fn compound_guards_merge_when_equal() {
        // if (a + 1) { .. }; if (a + 1) { .. } merge; if (1 + a) does not.
        let mut ex = Ex::new();
        let sum = |ex: &mut Ex, swap: bool| {
            let a = ex.push(ObcExpr::Var(id("a"), CTy::I32));
            let one = ex.push(ObcExpr::Const(CConst::int(1)));
            let (l, r) = if swap { (one, a) } else { (a, one) };
            ex.push(ObcExpr::Binop(velus_ops::CBinOp::Lt, l, r, CTy::Bool))
        };
        let (g1, g2, g3) = (sum(&mut ex, false), sum(&mut ex, false), sum(&mut ex, true));
        let s: B = [g1, g2, g3]
            .into_iter()
            .map(|g| Stmt::If(g, assign(&mut ex, "b", 2).into(), B::new()))
            .collect();
        assert_eq!(fuse(&ex, s).len(), 2);
    }

    #[test]
    fn fusible_rejects_guard_writers() {
        // The paper's footnote 8: (if x then x := false else x := true); if x …
        let mut ex = Ex::new();
        let (t, f) = (set(&mut ex, "x", false), set(&mut ex, "x", true));
        let s = iff(&mut ex, "x", t, f);
        assert!(!fusible(&ex, &B::from(s)));
        let a = assign(&mut ex, "a", 1);
        let ok = iff(&mut ex, "x", a, B::new());
        assert!(fusible(&ex, &B::from(ok)));
    }

    /// Runs a statement from a fixed initial environment and returns the
    /// final (mem, env).
    fn run(ex: &Ex, s: &B, x: bool) -> (Memory<CVal>, VEnv<ClightOps>) {
        let prog = ObcProgram::default();
        let mut mem: Memory<CVal> = Memory::new();
        mem.set_value(id("pt"), CVal::int(9));
        let mut env: VEnv<ClightOps> = VEnv::<ClightOps>::default();
        env.insert(id("x"), CVal::bool(x));
        Interp::new(&prog)
            .exec_block(&mut mem, &mut env, ex, s)
            .unwrap();
        (mem, env)
    }

    #[test]
    fn fuse_preserves_semantics_on_fusible_code() {
        let mut ex = Ex::new();
        let s = tracker(&mut ex);
        assert!(fusible(&ex, &s));
        let fused = fuse(&ex, s.clone());
        assert!(fusible(&ex, &fused));
        for x in [true, false] {
            let (m1, e1) = run(&ex, &s, x);
            let (m2, e2) = run(&ex, &fused, x);
            assert_eq!(m1, m2);
            assert_eq!(e1, e2);
        }
    }

    #[test]
    fn footnote8_shows_zip_unsound_without_fusible() {
        // (if x { x := false } else { x := true }); if x { a := 1 } else { a := 2 }
        let mut ex = Ex::new();
        let (t, f) = (set(&mut ex, "x", false), set(&mut ex, "x", true));
        let s1 = iff(&mut ex, "x", t, f);
        let (a1, a2) = (assign(&mut ex, "a", 1), assign(&mut ex, "a", 2));
        let s2 = iff(&mut ex, "x", a1, a2);
        let whole = Block(vec![s1, s2]);
        assert!(!fusible(&ex, &whole));
        let fused = fuse(&ex, whole.clone());
        // Semantics differ when x starts true: original sets a := 2
        // (x was flipped), fused sets a := 1.
        let (_, e1) = run(&ex, &whole, true);
        let (_, e2) = run(&ex, &fused, true);
        assert_ne!(e1.get(&id("a")), e2.get(&id("a")));
    }

    #[test]
    fn zip_eliminates_skips() {
        let mut ex = Ex::new();
        let a = B::from(assign(&mut ex, "a", 1));
        let mut s = B::new();
        zip(&ex, &mut s, a.clone());
        assert_eq!(s, a);
        zip(&ex, &mut s, B::new());
        assert_eq!(s, a);
    }

    #[test]
    fn merged_branches_fuse_recursively() {
        // if x { if y { a } }; if x { if y { b } }  ==>  if x { if y { a; b } }
        let mut ex = Ex::new();
        let nest = |ex: &mut Ex, v: &str, k: i32| {
            let a = assign(ex, v, k);
            let inner = iff(ex, "y", a, B::new());
            iff(ex, "x", inner, B::new())
        };
        let s = Block(vec![nest(&mut ex, "a", 1), nest(&mut ex, "b", 2)]);
        let fused = fuse(&ex, s);
        let text = fused.show(&ex);
        assert_eq!(text.matches("if y {").count(), 1, "{text}");
        assert_eq!(fused.size(), 6, "{text}");
    }

    #[test]
    fn long_sequences_fuse_without_deep_recursion() {
        // A node-sized body (one guarded statement per equation) fuses
        // into one conditional on a small thread stack: fusion loops over
        // the sequence rather than recursing per statement.
        let mut ex = Ex::new();
        let body: B = (0..100_000)
            .map(|k| {
                let a = assign(&mut ex, "a", k);
                iff(&mut ex, "x", a, B::new())
            })
            .collect();
        let fused = std::thread::Builder::new()
            .stack_size(64 * 1024)
            .spawn(move || {
                let fused = fuse(&ex, body);
                assert!(fusible(&ex, &fused));
                fused.len()
            })
            .unwrap()
            .join()
            .unwrap();
        assert_eq!(fused, 1);
    }

    /// `Fusible` as the paper states it: every guard checked against
    /// `MayWrite` of both of its branches.
    fn fusible_by_may_write(ex: &Ex, s: &B) -> bool {
        s.iter().all(|s| match s {
            Stmt::If(e, t, f) => {
                let mut vars = Vec::new();
                guard_vars_into(ex, *e, &mut vars);
                fusible_by_may_write(ex, t)
                    && fusible_by_may_write(ex, f)
                    && vars.iter().all(|&x| !t.may_write(x) && !f.may_write(x))
            }
            _ => true,
        })
    }

    /// A random `if` nest `depth` deep over the variables `g0`…`g59`,
    /// from a linear congruential `seed`: each level is an assignment
    /// and a conditional whose then-branch is the next level down and
    /// whose else-branch is one assignment.
    fn random_nest(ex: &mut Ex, seed: &mut u64, depth: usize) -> B {
        fn next(seed: &mut u64, n: u64) -> u64 {
            *seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (*seed >> 33) % n
        }
        fn leaf(ex: &mut Ex, seed: &mut u64) -> S {
            if next(seed, 12) == 0 {
                assign(ex, &format!("g{}", next(seed, 60)), 1)
            } else {
                assign(ex, "out", 1)
            }
        }
        let mut body = B::from(leaf(ex, seed));
        for _ in 0..depth {
            let (first, other) = (leaf(ex, seed), leaf(ex, seed));
            let c = format!("g{}", next(seed, 60));
            body = Block(vec![first, iff(ex, &c, body, other)]);
        }
        body
    }

    #[test]
    fn fusible_agrees_with_may_write_on_deep_nests() {
        let mut seed = 7u64;
        let (mut accepted, mut rejected) = (0, 0);
        for k in 0..400 {
            let mut ex = Ex::new();
            let body = random_nest(&mut ex, &mut seed, 4 + k % 60);
            let expected = fusible_by_may_write(&ex, &body);
            assert_eq!(fusible(&ex, &body), expected, "{}", body.show(&ex));
            if expected {
                accepted += 1;
            } else {
                rejected += 1;
            }
        }
        assert!(accepted > 20 && rejected > 20, "{accepted} / {rejected}");
    }

    #[test]
    fn eval_guard_sanity() {
        // Keep eval_expr in the public API exercised from this module.
        let mem: Memory<CVal> = Memory::new();
        let mut env: VEnv<ClightOps> = VEnv::<ClightOps>::default();
        env.insert(id("x"), CVal::bool(true));
        let mut ex = Ex::new();
        let x = guard(&mut ex, "x");
        assert_eq!(
            eval_expr::<ClightOps>(&mem, &env, &ex, x).unwrap(),
            CVal::TRUE
        );
    }
}
