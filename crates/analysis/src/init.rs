//! Semantic initialization analysis.
//!
//! Replaces the front end's old syntactic `W0001` check. A surface
//! `pre e` desugars to `default fby e`: its value at the first instant
//! is a compiler-synthesized default the programmer never chose. The
//! question the analysis answers, per `pre`, is *can that default reach
//! a node output* — or is it provably masked by an initialization
//! guard (`->`, or a handwritten `if h then … else …` over a
//! `true fby false` flag) before any output observes it?
//!
//! # The lattice
//!
//! Per variable, a [`InitMask`]: a 9-bit set over instants — bits
//! `0..=7` mean "may carry the suspect default at (activation) instant
//! *i*", bit 8 ([`InitMask::TAIL`]) means "at some instant ≥ 8". The
//! join is bitwise or; the lattice is finite, so the fixpoint needs no
//! widening.
//!
//! # Transfer functions
//!
//! One fixpoint runs per marked memory `m` (the [`PreMarks`] the
//! normalizer records; marked memories are rare, so this stays cheap):
//!
//! * the equation defining `m` injects bit 0 and shifts its operand's
//!   mask by one instant (`x = d fby e` holds `e`'s instant-*n* value
//!   at instant *n + 1*);
//! * every other `fby` only shifts — an *explicit* initializer is a
//!   real value, which is exactly what kills the old syntactic false
//!   positives on `c fby e` patterns;
//! * `if h then t else f` and `merge h t f` where `h` is a recognized
//!   *initialization flag* (`true fby false`, or a propagated copy of
//!   one — the shape `->` normalizes to) select `t` only at instant 0
//!   and `f` only afterwards: `(mask(t) & 1) | (mask(f) & !1)`;
//! * operators or the masks of their operands; a suspect *sampling* or
//!   clock variable smears from its first suspect instant onward (a
//!   corrupted guard can mis-route every later value);
//! * node instantiations are conservative: if any argument (or clock)
//!   is suspect, every result is suspect from that instant on.
//!
//! A warning ([`codes::W0101`]) is emitted iff some output's mask is
//! non-empty, pointing at the originating `pre`'s span.

use velus_common::{codes, DiagStage, Diagnostic, Diagnostics, Ident, IdentSet, PreMarks, Span};
use velus_nlustre::ast::{CExpr, CExprId, Equation, Expr, ExprId, Exprs, Node, Program};
use velus_nlustre::clock::Clock;
use velus_ops::Ops;

use crate::fixpoint::{solve, Env, Lattice};

/// The per-variable abstract value: at which instants may this stream
/// carry a `pre`'s synthesized default?
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InitMask(pub u16);

impl InitMask {
    /// The "some instant ≥ 8" summary bit.
    pub const TAIL: u16 = 0x100;
    /// All nine bits.
    pub const ALL: u16 = 0x1ff;

    /// The clean mask (never suspect).
    pub const fn clean() -> InitMask {
        InitMask(0)
    }

    /// Whether any instant is suspect.
    pub fn is_suspect(self) -> bool {
        self.0 != 0
    }

    /// Delays the mask by one instant (the effect of `fby`): bit 7
    /// moves into the tail.
    pub fn shift(self) -> InitMask {
        InitMask(((self.0 & 0xff) << 1) | (self.0 & InitMask::TAIL))
    }

    /// From the first suspect instant onward, every instant is suspect
    /// (the summary used for values that cross a node instantiation or
    /// corrupt a sampling decision).
    pub fn smear(self) -> InitMask {
        if self.0 == 0 {
            InitMask(0)
        } else {
            InitMask(InitMask::ALL & !((1u16 << self.0.trailing_zeros()) - 1))
        }
    }

    /// The earliest suspect instant, `None` when clean or tail-only.
    pub fn first_instant(self) -> Option<u32> {
        let head = self.0 & 0xff;
        if head == 0 {
            None
        } else {
            Some(head.trailing_zeros())
        }
    }
}

impl std::ops::BitOr for InitMask {
    type Output = InitMask;
    fn bitor(self, rhs: InitMask) -> InitMask {
        InitMask(self.0 | rhs.0)
    }
}

impl Lattice for InitMask {
    fn bottom() -> InitMask {
        InitMask::clean()
    }
    fn join_with(&mut self, other: &InitMask) -> bool {
        let old = self.0;
        self.0 |= other.0;
        self.0 != old
    }
}

/// The variables of `node` that behave as *initialization flags*: true
/// at the first instant, false ever after. The seed is the structural
/// shape `h = true fby false` (what `->` normalizes to, shared per
/// clock); copies and re-expressions of a flag (`x = h`,
/// `x = if h then true else false`, `x = merge h true false`)
/// propagate until fixpoint.
fn init_flags<O: Ops>(node: &Node<O>) -> IdentSet {
    let is_true = |c: &O::Const| O::as_bool(&O::sem_const(c)) == Some(true);
    let is_false = |c: &O::Const| O::as_bool(&O::sem_const(c)) == Some(false);
    let ex = &node.exprs;
    let mut flags = IdentSet::default();
    for eq in &node.eqs {
        if let Equation::Fby { x, init, rhs, .. } = eq {
            if matches!(&ex[*rhs], Expr::Const(c) if is_true(init) && is_false(c)) {
                flags.insert(*x);
            }
        }
    }
    let constant = |c: CExprId, is: &dyn Fn(&O::Const) -> bool| match ex[c] {
        CExpr::Expr(e) => matches!(&ex[e], Expr::Const(c) if is(c)),
        _ => false,
    };
    loop {
        let mut grew = false;
        for eq in &node.eqs {
            let Equation::Def { x, rhs, .. } = eq else {
                continue;
            };
            if flags.contains(x) {
                continue;
            }
            let guard = match ex[*rhs] {
                CExpr::Expr(e) | CExpr::If(e, _, _) => match &ex[e] {
                    Expr::Var(h, _) => Some(*h),
                    _ => None,
                },
                CExpr::Merge(h, _, _) => Some(h),
            };
            let is_flag = match (ex[*rhs], guard) {
                (CExpr::Expr(_), Some(y)) => flags.contains(&y),
                (CExpr::If(_, t, f) | CExpr::Merge(_, t, f), Some(h)) => {
                    flags.contains(&h) && constant(t, &is_true) && constant(f, &is_false)
                }
                _ => false,
            };
            if is_flag {
                flags.insert(*x);
                grew = true;
            }
        }
        if !grew {
            return flags;
        }
    }
}

/// The mask of `e`: operators or their operands' masks, so one loop
/// over its post-order run joins its variables and smeared samplers.
fn eval_expr<O: Ops>(ex: &Exprs<O>, e: ExprId, env: &Env<InitMask>) -> InitMask {
    match &ex[e] {
        Expr::Var(x, _) => return *env.get(*x),
        Expr::Const(_) => return InitMask::clean(),
        _ => {}
    }
    let mut m = InitMask::clean();
    for n in ex.tree(e) {
        match n {
            Expr::Var(x, _) => m = m | *env.get(*x),
            Expr::When(_, x, _) => m = m | env.get(*x).smear(),
            Expr::Const(_) | Expr::Unop(..) | Expr::Binop(..) => {}
        }
    }
    m
}

/// The mask of control expression `ce` (recursing on its `merge`/`if`
/// nesting).
fn eval_cexpr<O: Ops>(
    ex: &Exprs<O>,
    ce: CExprId,
    env: &Env<InitMask>,
    flags: &IdentSet,
) -> InitMask {
    match ex[ce] {
        CExpr::Merge(x, t, f) => {
            let (mt, mf) = (eval_cexpr(ex, t, env, flags), eval_cexpr(ex, f, env, flags));
            if flags.contains(&x) {
                InitMask((mt.0 & 1) | (mf.0 & !1))
            } else {
                env.get(x).smear() | mt | mf
            }
        }
        CExpr::If(c, t, f) => {
            let (mt, mf) = (eval_cexpr(ex, t, env, flags), eval_cexpr(ex, f, env, flags));
            if let Expr::Var(h, _) = &ex[c] {
                if flags.contains(h) {
                    return InitMask((mt.0 & 1) | (mf.0 & !1));
                }
            }
            eval_expr(ex, c, env).smear() | mt | mf
        }
        CExpr::Expr(e) => eval_expr(ex, e, env),
    }
}

fn clock_mask(ck: &Clock, env: &Env<InitMask>) -> InitMask {
    match ck {
        Clock::Base => InitMask::clean(),
        Clock::On(parent, x, _) => clock_mask(parent, env) | env.get(*x).smear(),
    }
}

/// Runs the analysis for one marked memory of `node` and returns the
/// first suspect output with its mask, if any.
fn suspect_output<O: Ops>(
    node: &Node<O>,
    flags: &IdentSet,
    marked: Ident,
) -> Option<(Ident, InitMask)> {
    let mut env: Env<InitMask> = Env::new();
    solve(node, &mut env, |node, i, env, out| {
        let eq = &node.eqs[i];
        let ck = clock_mask(eq.clock(), env);
        let ex = &node.exprs;
        match eq {
            Equation::Def { x, rhs, .. } => out.push((*x, eval_cexpr(ex, *rhs, env, flags) | ck)),
            Equation::Fby { x, rhs, .. } => {
                let mut m = eval_expr(ex, *rhs, env).shift() | ck;
                if *x == marked {
                    m = m | InitMask(1);
                }
                out.push((*x, m));
            }
            Equation::Call { xs, args, .. } => {
                let mut m = ck;
                for &a in args {
                    m = m | eval_expr(ex, a, env);
                }
                let m = m.smear();
                for x in xs {
                    out.push((*x, m));
                }
            }
        }
    });
    node.outputs.iter().find_map(|o| {
        let m = *env.get(o.name);
        m.is_suspect().then_some((o.name, m))
    })
}

/// Checks every marked `pre` of every node of `prog` and appends one
/// [`codes::W0101`] warning (at the `pre`'s own span, stage
/// `analysis`) per `pre` whose default may reach a node output.
pub fn check_initialization<O: Ops>(prog: &Program<O>, marks: &PreMarks, diags: &mut Diagnostics) {
    for node in &prog.nodes {
        let node_marks: Vec<(Ident, Span)> = marks.of_node(node.name).collect();
        if node_marks.is_empty() {
            continue;
        }
        let flags = init_flags(node);
        for (mvar, mspan) in node_marks {
            if let Some((out, mask)) = suspect_output(node, &flags, mvar) {
                let when = match mask.first_instant() {
                    Some(k) => format!("first at instant {k}"),
                    None => "at a later instant".to_string(),
                };
                diags.push(
                    Diagnostic::warning(
                        codes::W0101,
                        format!(
                            "the default value of this `pre` may reach output {out} ({when}); \
                             consider `e -> pre …`"
                        ),
                        mspan,
                    )
                    .at_stage(DiagStage::Analysis),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use velus_ops::{CConst, CTy, ClightOps};

    type Ex = Exprs<ClightOps>;

    fn ivar(ex: &mut Ex, n: &str) -> ExprId {
        ex.var(Ident::new(n), CTy::I32)
    }

    /// `n` as a control expression.
    fn read(ex: &mut Ex, n: &str) -> CExprId {
        let e = ivar(ex, n);
        ex.simple(e)
    }

    /// The constant `c` as a control expression.
    fn konst(ex: &mut Ex, c: CConst) -> CExprId {
        let e = ex.constant(c);
        ex.simple(e)
    }

    /// `if h then c else m`, `h` a boolean variable.
    fn guarded(ex: &mut Ex, h: &str, c: CConst, m: &str) -> CExprId {
        let h = ex.var(Ident::new(h), CTy::Bool);
        let (c, m) = (konst(ex, c), read(ex, m));
        ex.ite(h, c, m)
    }

    fn decl(n: &str, ty: CTy) -> velus_nlustre::ast::VarDecl<ClightOps> {
        velus_nlustre::ast::VarDecl {
            name: Ident::new(n),
            ty,
            ck: Clock::Base,
        }
    }

    fn def(x: &str, rhs: CExprId) -> Equation<ClightOps> {
        Equation::Def {
            x: Ident::new(x),
            ck: Clock::Base,
            rhs,
        }
    }

    fn fby(x: &str, init: CConst, rhs: ExprId) -> Equation<ClightOps> {
        Equation::Fby {
            x: Ident::new(x),
            ck: Clock::Base,
            init,
            rhs,
        }
    }

    /// `x = true fby false`.
    fn flag(ex: &mut Ex, x: &str) -> Equation<ClightOps> {
        let f = ex.constant(CConst::bool(false));
        fby(x, CConst::bool(true), f)
    }

    fn node(
        outputs: Vec<velus_nlustre::ast::VarDecl<ClightOps>>,
        locals: Vec<velus_nlustre::ast::VarDecl<ClightOps>>,
        eqs: Vec<Equation<ClightOps>>,
        ex: Ex,
    ) -> Node<ClightOps> {
        Node {
            name: Ident::new("f"),
            inputs: vec![decl("x", CTy::I32)],
            outputs,
            locals,
            eqs,
            exprs: ex,
        }
    }

    fn run(n: &Node<ClightOps>, marked: &[&str]) -> Diagnostics {
        let mut marks = PreMarks::new();
        for m in marked {
            marks.record(n.name, Ident::new(m), Span::new(1, 4));
        }
        let prog = Program::new(vec![n.clone()]);
        let mut d = Diagnostics::new();
        check_initialization(&prog, &marks, &mut d);
        d
    }

    #[test]
    fn masks_shift_and_smear() {
        let m = InitMask(1);
        assert_eq!(m.shift(), InitMask(2));
        assert_eq!(InitMask(0x80).shift(), InitMask(InitMask::TAIL));
        assert_eq!(InitMask(InitMask::TAIL).shift().0, InitMask::TAIL);
        assert_eq!(InitMask(0b100).smear().0, 0x1fc);
        assert_eq!(InitMask(0).smear().0, 0);
        assert_eq!(InitMask(0b110).first_instant(), Some(1));
        assert_eq!(InitMask(InitMask::TAIL).first_instant(), None);
    }

    #[test]
    fn bare_pre_reaching_an_output_warns() {
        // m = default fby x (marked); y = m;
        let mut ex = Ex::new();
        let x = ivar(&mut ex, "x");
        let m = read(&mut ex, "m");
        let n = node(
            vec![decl("y", CTy::I32)],
            vec![decl("m", CTy::I32)],
            vec![fby("m", CConst::int(0), x), def("y", m)],
            ex,
        );
        let d = run(&n, &["m"]);
        assert_eq!(d.len(), 1);
        let w = d.iter().next().unwrap();
        assert_eq!(w.code, codes::W0101);
        assert_eq!(w.stage, DiagStage::Analysis);
        assert!(w.message.contains("pre"), "{}", w.message);
        assert!(w.message.contains("instant 0"), "{}", w.message);
        assert_eq!(w.span, Span::new(1, 4));
    }

    #[test]
    fn flag_guarded_pre_is_clean() {
        // h = true fby false; m = default fby x (marked);
        // y = if h then 0 else m;   — the arrow shape: provably masked.
        let mut ex = Ex::new();
        let h = flag(&mut ex, "h");
        let x = ivar(&mut ex, "x");
        let y = guarded(&mut ex, "h", CConst::int(0), "m");
        let n = node(
            vec![decl("y", CTy::I32)],
            vec![decl("h", CTy::Bool), decl("m", CTy::I32)],
            vec![h, fby("m", CConst::int(0), x), def("y", y)],
            ex,
        );
        assert!(run(&n, &["m"]).is_empty());
    }

    #[test]
    fn delayed_leak_through_an_explicit_fby_still_warns() {
        // m = default fby x (marked); y = 0 fby m — the default leaks
        // to y at instant 1 even though y itself is initialized.
        let mut ex = Ex::new();
        let (x, m) = (ivar(&mut ex, "x"), ivar(&mut ex, "m"));
        let n = node(
            vec![decl("y", CTy::I32)],
            vec![decl("m", CTy::I32)],
            vec![fby("m", CConst::int(0), x), fby("y", CConst::int(0), m)],
            ex,
        );
        let d = run(&n, &["m"]);
        assert_eq!(d.len(), 1);
        assert!(
            d.iter().next().unwrap().message.contains("instant 1"),
            "{d}"
        );
    }

    #[test]
    fn flag_guard_does_not_mask_a_doubly_delayed_default() {
        // m1 = default fby x (marked); m2 = default fby m1 (marked);
        // h = true fby false; y = if h then 0 else m2 — the guard only
        // masks instant 0, but m1's default reaches y at instant 1.
        let mut ex = Ex::new();
        let h = flag(&mut ex, "h");
        let (x, m1) = (ivar(&mut ex, "x"), ivar(&mut ex, "m1"));
        let y = guarded(&mut ex, "h", CConst::int(0), "m2");
        let n = node(
            vec![decl("y", CTy::I32)],
            vec![
                decl("h", CTy::Bool),
                decl("m1", CTy::I32),
                decl("m2", CTy::I32),
            ],
            vec![
                h,
                fby("m1", CConst::int(0), x),
                fby("m2", CConst::int(0), m1),
                def("y", y),
            ],
            ex,
        );
        // m1's run warns (its default reaches y at instant 1 through
        // m2); m2's own run is clean (bit 0 masked by the guard).
        let d = run(&n, &["m1", "m2"]);
        assert_eq!(d.len(), 1, "{d}");
        assert!(d.iter().next().unwrap().message.contains("instant 1"));
    }

    #[test]
    fn propagated_flags_are_recognized() {
        // g = true fby false; h = if g then true else false;
        // y = merge h 0 m — still provably masked.
        let mut ex = Ex::new();
        let g = flag(&mut ex, "g");
        let gv = ex.var(Ident::new("g"), CTy::Bool);
        let (t, f) = (
            konst(&mut ex, CConst::bool(true)),
            konst(&mut ex, CConst::bool(false)),
        );
        let h = ex.ite(gv, t, f);
        let x = ivar(&mut ex, "x");
        let (zero, m) = (konst(&mut ex, CConst::int(0)), read(&mut ex, "m"));
        let y = ex.merge(Ident::new("h"), zero, m);
        let n = node(
            vec![decl("y", CTy::I32)],
            vec![
                decl("g", CTy::Bool),
                decl("h", CTy::Bool),
                decl("m", CTy::I32),
            ],
            vec![g, def("h", h), fby("m", CConst::int(0), x), def("y", y)],
            ex,
        );
        assert!(run(&n, &["m"]).is_empty());
    }
}
