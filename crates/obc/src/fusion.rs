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

use crate::ast::{Block, Class, ObcExpr, ObcProgram, Stmt};

/// The `zip` function of Fig. 8: integrates the statements of `t`, in
/// order, into the end of `s`. An incoming conditional whose guard equals
/// that of the conditional currently ending `s` is merged into it, its
/// branches zipped into the existing branches the same way; any other
/// statement is appended.
///
/// On blocks this is one pass over `t`: the paper's rules that walk down
/// right-nested sequences become "look at the last statement", and only
/// merged branches recurse (so depth follows `if` nesting, not the
/// length of the sequence). `t` is consumed: every statement moves into
/// `s` and nothing is cloned, and the guard of a merged conditional is
/// dropped.
pub fn zip<O: Ops>(s: &mut Block<O>, t: Block<O>) {
    for stmt in t.0 {
        match (s.last_mut(), stmt) {
            (Some(Stmt::If(e1, t1, f1)), Stmt::If(e2, t2, f2)) if *e1 == e2 => {
                zip(t1, t2);
                zip(f1, f2);
            }
            (_, stmt) => s.push(stmt),
        }
    }
}

/// The `fuse` function: zips a sequence into `skip`, so every run of
/// adjacent conditionals on equal guards ends up as one conditional.
pub fn fuse<O: Ops>(s: Block<O>) -> Block<O> {
    let mut fused = Block(Vec::with_capacity(s.len()));
    zip(&mut fused, s);
    fused
}

/// Appends the free variables of a guard, locals and state cells alike
/// (the `MayWrite` check treats `x` and `state(x)` uniformly, as in the
/// paper), to `out`.
fn guard_vars_into<O: Ops>(e: &ObcExpr<O>, out: &mut Vec<Ident>) {
    e.free_vars_into(out);
    e.state_vars_into(out);
}

/// The `Fusible` predicate: conditionals never write the free variables of
/// their own guards.
///
/// One pass over the body: a statement breaks the predicate exactly when
/// it writes a variable that the guard of an enclosing conditional
/// reads, so the walk keeps a count of enclosing guard reads per
/// variable. Checking each guard against `MayWrite` of its branches
/// instead would be quadratic in the depth of an `if` nest.
pub fn fusible<O: Ops>(s: &Block<O>) -> bool {
    fusible_block(s, &mut Guards::default())
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
    fn enter<O: Ops>(&mut self, e: &ObcExpr<O>) -> usize {
        let mark = self.vars.len();
        guard_vars_into(e, &mut self.vars);
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

fn fusible_block<O: Ops>(s: &Block<O>, g: &mut Guards) -> bool {
    s.iter().all(|s| match s {
        Stmt::Assign(x, _) | Stmt::AssignSt(x, _) => !g.read(x),
        Stmt::Call { results, .. } => !results.iter().any(|x| g.read(x)),
        Stmt::If(e, t, f) => {
            let mark = g.enter(e);
            let ok = fusible_block(t, g) && fusible_block(f, g);
            g.leave(mark);
            ok
        }
    })
}

/// Fuses the bodies of every method of a class, in place.
pub fn fuse_class<O: Ops>(class: &mut Class<O>) {
    for m in &mut class.methods {
        m.body = fuse(std::mem::take(&mut m.body));
    }
}

/// Fuses a whole program. The program is consumed: the fused bodies are
/// built from the moved statements of the unfused ones.
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

    type S = Stmt<ClightOps>;
    type B = Block<ClightOps>;
    type E = ObcExpr<ClightOps>;

    fn id(s: &str) -> Ident {
        Ident::new(s)
    }

    fn guard(x: &str) -> E {
        ObcExpr::Var(id(x), CTy::Bool)
    }

    fn assign(x: &str, v: i32) -> S {
        Stmt::Assign(id(x), ObcExpr::Const(CConst::int(v)))
    }

    fn iff(x: &str, t: impl Into<B>, f: impl Into<B>) -> S {
        Stmt::If(guard(x), t.into(), f.into())
    }

    #[test]
    fn adjacent_equal_guards_merge() {
        // if x { a := 1 }; if x { b := 2 }  ==>  if x { a := 1; b := 2 }
        let s = Block(vec![
            iff("x", assign("a", 1), B::new()),
            iff("x", assign("b", 2), B::new()),
        ]);
        let fused = fuse(s);
        match &fused[..] {
            [Stmt::If(_, t, f)] => {
                assert_eq!(t.size(), 2);
                assert!(f.is_empty());
            }
            _ => panic!("expected a single if, got {fused}"),
        }
    }

    #[test]
    fn tracker_shape_from_the_paper() {
        // The §3.3 example: two ifs on x and a trailing state update fuse
        // into one if plus the update.
        let s = Block(vec![
            iff("x", assign("c", 1), B::new()),
            iff(
                "x",
                assign("t", 2),
                Stmt::Assign(id("t"), ObcExpr::State(id("pt"), CTy::I32)),
            ),
            Stmt::AssignSt(id("pt"), ObcExpr::Var(id("t"), CTy::I32)),
        ]);
        let fused = fuse(s);
        // One if remains, followed by the state update.
        let text = fused.to_string();
        assert_eq!(text.matches("if x {").count(), 1, "{text}");
        assert!(text.contains("state(pt) := t;"), "{text}");
    }

    #[test]
    fn different_guards_do_not_merge() {
        let s = Block(vec![
            iff("x", assign("a", 1), B::new()),
            iff("y", assign("b", 2), B::new()),
        ]);
        let fused = fuse(s);
        assert_eq!(fused.to_string().matches("if ").count(), 2);
    }

    #[test]
    fn fusible_rejects_guard_writers() {
        // The paper's footnote 8: (if x then x := false else x := true); if x …
        let s = iff(
            "x",
            Stmt::Assign(id("x"), ObcExpr::Const(CConst::bool(false))),
            Stmt::Assign(id("x"), ObcExpr::Const(CConst::bool(true))),
        );
        assert!(!fusible(&B::from(s)));
        let ok = iff("x", assign("a", 1), B::new());
        assert!(fusible(&B::from(ok)));
    }

    /// Runs a statement from a fixed initial environment and returns the
    /// final (mem, env).
    fn run(s: &B, x: bool) -> (Memory<CVal>, VEnv<ClightOps>) {
        let prog = ObcProgram::default();
        let mut mem: Memory<CVal> = Memory::new();
        mem.set_value(id("pt"), CVal::int(9));
        let mut env: VEnv<ClightOps> = VEnv::<ClightOps>::default();
        env.insert(id("x"), CVal::bool(x));
        Interp::new(&prog)
            .exec_block(&mut mem, &mut env, s)
            .unwrap();
        (mem, env)
    }

    #[test]
    fn fuse_preserves_semantics_on_fusible_code() {
        let s = Block(vec![
            iff("x", assign("c", 1), B::new()),
            iff(
                "x",
                assign("t", 2),
                Stmt::Assign(id("t"), ObcExpr::State(id("pt"), CTy::I32)),
            ),
            Stmt::AssignSt(id("pt"), ObcExpr::Var(id("t"), CTy::I32)),
        ]);
        assert!(fusible(&s));
        let fused = fuse(s.clone());
        assert!(fusible(&fused));
        for x in [true, false] {
            let (m1, e1) = run(&s, x);
            let (m2, e2) = run(&fused, x);
            assert_eq!(m1, m2);
            assert_eq!(e1, e2);
        }
    }

    #[test]
    fn footnote8_shows_zip_unsound_without_fusible() {
        // (if x { x := false } else { x := true }); if x { a := 1 } else { a := 2 }
        let s1 = iff(
            "x",
            Stmt::Assign(id("x"), ObcExpr::Const(CConst::bool(false))),
            Stmt::Assign(id("x"), ObcExpr::Const(CConst::bool(true))),
        );
        let s2 = iff("x", assign("a", 1), assign("a", 2));
        let whole = Block(vec![s1, s2]);
        assert!(!fusible(&whole));
        let fused = fuse(whole.clone());
        // Semantics differ when x starts true: original sets a := 2
        // (x was flipped), fused sets a := 1.
        let (_, e1) = run(&whole, true);
        let (_, e2) = run(&fused, true);
        assert_ne!(e1.get(&id("a")), e2.get(&id("a")));
    }

    #[test]
    fn zip_eliminates_skips() {
        let a = B::from(assign("a", 1));
        let mut s = B::new();
        zip(&mut s, a.clone());
        assert_eq!(s, a);
        zip(&mut s, B::new());
        assert_eq!(s, a);
    }

    #[test]
    fn merged_branches_fuse_recursively() {
        // if x { if y { a } }; if x { if y { b } }  ==>  if x { if y { a; b } }
        let s = Block(vec![
            iff("x", iff("y", assign("a", 1), B::new()), B::new()),
            iff("x", iff("y", assign("b", 2), B::new()), B::new()),
        ]);
        let fused = fuse(s);
        let text = fused.to_string();
        assert_eq!(text.matches("if y {").count(), 1, "{text}");
        assert_eq!(fused.size(), 6, "{text}");
    }

    #[test]
    fn long_sequences_fuse_without_deep_recursion() {
        // A node-sized body (one guarded statement per equation) fuses
        // into one conditional on a small thread stack: fusion loops over
        // the sequence rather than recursing per statement.
        let body: B = (0..100_000)
            .map(|k| iff("x", assign("a", k), B::new()))
            .collect();
        let fused = std::thread::Builder::new()
            .stack_size(64 * 1024)
            .spawn(move || {
                let fused = fuse(body);
                assert!(fusible(&fused));
                fused.len()
            })
            .unwrap()
            .join()
            .unwrap();
        assert_eq!(fused, 1);
    }

    /// `Fusible` as the paper states it: every guard checked against
    /// `MayWrite` of both of its branches.
    fn fusible_by_may_write(s: &B) -> bool {
        s.iter().all(|s| match s {
            Stmt::If(e, t, f) => {
                let mut vars = Vec::new();
                guard_vars_into(e, &mut vars);
                fusible_by_may_write(t)
                    && fusible_by_may_write(f)
                    && vars.iter().all(|&x| !t.may_write(x) && !f.may_write(x))
            }
            _ => true,
        })
    }

    /// A random `if` nest `depth` deep over the variables `g0`…`g59`,
    /// from a linear congruential `seed`: each level is an assignment
    /// and a conditional whose then-branch is the next level down and
    /// whose else-branch is one assignment.
    fn random_nest(seed: &mut u64, depth: usize) -> B {
        fn next(seed: &mut u64, n: u64) -> u64 {
            *seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (*seed >> 33) % n
        }
        fn leaf(seed: &mut u64) -> S {
            if next(seed, 12) == 0 {
                assign(&format!("g{}", next(seed, 60)), 1)
            } else {
                assign("out", 1)
            }
        }
        let mut body = B::from(leaf(seed));
        for _ in 0..depth {
            let (first, other) = (leaf(seed), leaf(seed));
            let c = format!("g{}", next(seed, 60));
            body = Block(vec![first, iff(&c, body, other)]);
        }
        body
    }

    #[test]
    fn fusible_agrees_with_may_write_on_deep_nests() {
        let mut seed = 7u64;
        let (mut accepted, mut rejected) = (0, 0);
        for k in 0..400 {
            let body = random_nest(&mut seed, 4 + k % 60);
            let expected = fusible_by_may_write(&body);
            assert_eq!(fusible(&body), expected, "{body}");
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
        assert_eq!(
            eval_expr::<ClightOps>(&mem, &env, &guard("x")).unwrap(),
            CVal::TRUE
        );
    }
}
