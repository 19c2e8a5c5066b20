//! The well-typedness (§2.1) and well-clockedness (§2.2) judgments of
//! N-Lustre, checked together in one walk.
//!
//! The paper proves that elaboration yields well-typed, well-clocked
//! N-Lustre. Because our elaborator is unverified, we instead make the
//! judgments *checkable*: the `velus` crate's staged pipeline runs
//! [`check_program`] on the elaborated program. It does not run it
//! again after scheduling. Nothing here depends on the order of a
//! node's equations — the environment is built from the declarations,
//! each equation is judged alone, and "defined exactly once" counts
//! definitions — so a permutation of an accepted node is accepted,
//! which is the paper's lemma that scheduling preserves typing and
//! clocking (pinned as a property by `tests/check_permutation.rs`).
//!
//! The two judgments are separate in the paper, but they read the same
//! declarations and the same expressions, so [`check_program`] builds one
//! environment per node, holding each variable's type and clock, and
//! walks each equation once. For every node it verifies:
//!
//! * structural sanity: distinct node names, distinct variable names,
//!   every non-input defined exactly once, inputs never defined, calls
//!   naming a node *before* the caller (callee id < caller id: no
//!   recursion) with matching arities;
//! * the typing judgment: every annotation matches the operator
//!   interface's typing functions, equation left- and right-hand sides
//!   agree, call arguments and results match the callee's signature;
//! * the clocking judgment: node interfaces live on the base clock, every
//!   declared clock samples variables on its parent clock, every equation
//!   defines variables declared on its own clock, sampled expressions only
//!   combine streams on the right clocks, and `merge` combines
//!   *complementary* streams — so the program can execute synchronously,
//!   without buffering.

use velus_common::{Ident, IdentMap, IdentSet, NodeId, Step};
use velus_ops::Ops;

use crate::ast::{CExpr, CExprId, Equation, Expr, ExprId, Exprs, Node, Program};
use crate::clock::{Clock, Clocks};
use crate::SemError;
use velus_common::PoolId;

/// What the environment knows of one declared variable, borrowed from
/// its declaration.
struct Var<'n, O: Ops> {
    ty: &'n O::Ty,
    ck: &'n Clock,
    input: bool,
}

type Env<'n, O> = IdentMap<Var<'n, O>>;

fn type_error<T>(msg: String) -> Result<T, SemError> {
    Err(SemError::TypeError(msg))
}

fn clock_error<T>(msg: String) -> Result<T, SemError> {
    Err(SemError::ClockError(msg))
}

fn var<'e, 'n, O: Ops>(env: &'e Env<'n, O>, x: Ident) -> Result<&'e Var<'n, O>, SemError> {
    env.get(&x).ok_or(SemError::UndefinedVariable(x))
}

/// The reusable stacks of the simple-expression walk, kept across
/// equations and nodes so checking a program allocates them once.
pub(crate) struct Walk<O: Ops> {
    /// Simple-expression steps, each with its count of enclosing `when`s
    /// (its clock is that many parents above the walk's clock).
    steps: Vec<(Step<ExprId>, usize)>,
    tys: Vec<O::Ty>,
}

impl<O: Ops> Default for Walk<O> {
    fn default() -> Walk<O> {
        Walk {
            steps: Vec::new(),
            tys: Vec::new(),
        }
    }
}

/// The clock `whens` levels above `ck` (what a `when` that many levels up
/// shifted the expectation to).
fn up(ck: &Clock, whens: usize) -> &Clock {
    let mut ck = ck;
    for _ in 0..whens {
        ck = ck
            .parent()
            .expect("a `when` was checked against an `on` clock");
    }
    ck
}

/// Checks that expression `e` is well typed and well clocked *at* clock
/// `ck`, and returns its type. Constants are clock-polymorphic; every
/// variable must sit on exactly the expected clock; `e when x` shifts the
/// expectation to the parent clock. `e` must first be stored in
/// post-order, as every later walk assumes; the walk then visits the
/// nodes in the order a recursive checker would, so the first violation
/// reported is the same.
fn check_expr<O: Ops>(
    env: &Env<O>,
    ex: &Exprs<O>,
    w: &mut Walk<O>,
    e: ExprId,
    ck: &Clock,
) -> Result<O::Ty, SemError> {
    // The walk also checks the layout every later walk relies on: each
    // operand comes before its parent, and the nodes finish in the order
    // of the post-order run.
    let mut next = ex
        .simple
        .first_checked(e)
        .ok_or_else(|| not_post_order(e))?
        .index();
    let mut finish = |id: ExprId| {
        if id.index() == next {
            next += 1;
            Ok(())
        } else {
            Err(not_post_order(id))
        }
    };
    let before = |child: ExprId, parent: ExprId| {
        if child < parent {
            Ok(child)
        } else {
            Err(not_post_order(parent))
        }
    };
    if let Some(t) = leaf_ty(env, &ex[e], ck)? {
        return Ok(t);
    }
    w.steps.clear();
    w.steps.push((Step::Enter(e), 0));
    while let Some((step, whens)) = w.steps.pop() {
        let ck = up(ck, whens);
        // A leaf operand is checked as soon as its turn comes, not pushed
        // as a step of its own.
        let t = match (step, &ex[step.id()]) {
            (Step::Enter(id), Expr::Unop(op, e1, ty)) => {
                let e1 = before(*e1, id)?;
                match leaf_ty(env, &ex[e1], ck)? {
                    Some(t1) => {
                        finish(e1)?;
                        unop_ty::<O>(*op, t1, ty)?
                    }
                    None => {
                        w.steps
                            .extend([(Step::Exit(id), whens), (Step::Enter(e1), whens)]);
                        continue;
                    }
                }
            }
            (Step::Enter(id), Expr::Binop(op, e1, e2, ty)) => {
                let (e1, e2) = (before(*e1, id)?, before(*e2, id)?);
                let Some(t1) = leaf_ty(env, &ex[e1], ck)? else {
                    w.steps.extend([
                        (Step::Exit(id), whens),
                        (Step::Enter(e2), whens),
                        (Step::Enter(e1), whens),
                    ]);
                    continue;
                };
                finish(e1)?;
                match leaf_ty(env, &ex[e2], ck)? {
                    Some(t2) => {
                        finish(e2)?;
                        binop_ty::<O>(*op, t1, t2, ty)?
                    }
                    None => {
                        w.tys.push(t1);
                        w.steps
                            .extend([(Step::Exit(id), whens), (Step::Enter(e2), whens)]);
                        continue;
                    }
                }
            }
            (Step::Enter(id), Expr::When(e1, x, k)) => {
                let e1 = before(*e1, id)?;
                let parent = match ck {
                    Clock::On(parent, y, k2) if y == x && k2 == k => parent.as_ref(),
                    _ => {
                        return clock_error(format!(
                            "sampled expression `… when {x}` at clock {ck}"
                        ))
                    }
                };
                // The sampling variable is a boolean on the parent clock.
                let v = var(env, *x)?;
                if v.ck != parent {
                    return clock_error(format!(
                        "sampler {x} on clock {}, expected {parent}",
                        v.ck
                    ));
                }
                if *v.ty != O::bool_type() {
                    return type_error(format!(
                        "sampling variable {x} has type {}, expected bool",
                        v.ty
                    ));
                }
                // The operand's type is the expression's.
                match leaf_ty(env, &ex[e1], parent)? {
                    Some(t) => {
                        finish(e1)?;
                        t
                    }
                    None => {
                        w.steps
                            .extend([(Step::Exit(id), whens), (Step::Enter(e1), whens + 1)]);
                        continue;
                    }
                }
            }
            (Step::Enter(_), leaf) => leaf_ty(env, leaf, ck)?.expect("a leaf"),
            (Step::Exit(_), Expr::Unop(op, _, ty)) => {
                let t1 = w.tys.pop().expect("operand type");
                unop_ty::<O>(*op, t1, ty)?
            }
            (Step::Exit(_), Expr::Binop(op, _, _, ty)) => {
                let t2 = w.tys.pop().expect("operand type");
                let t1 = w.tys.pop().expect("operand type");
                binop_ty::<O>(*op, t1, t2, ty)?
            }
            (Step::Exit(_), Expr::When(..)) => w.tys.pop().expect("operand type"),
            (Step::Exit(_), _) => unreachable!("only operators are finished"),
        };
        finish(step.id())?;
        w.tys.push(t);
    }
    Ok(w.tys.pop().expect("the expression's type"))
}

/// The type of a leaf (a variable, which must sit on clock `ck`, or a
/// constant), `None` for an operator.
fn leaf_ty<O: Ops>(env: &Env<O>, e: &Expr<O>, ck: &Clock) -> Result<Option<O::Ty>, SemError> {
    match e {
        Expr::Var(x, ty) => {
            let v = var(env, *x)?;
            if v.ty != ty {
                return type_error(format!("variable {x} annotated {ty}, declared {}", v.ty));
            }
            if v.ck != ck {
                return clock_error(format!("variable {x} on clock {}, expected {ck}", v.ck));
            }
            Ok(Some(ty.clone()))
        }
        Expr::Const(c) => Ok(Some(O::type_of_const(c))),
        Expr::Unop(..) | Expr::Binop(..) | Expr::When(..) => Ok(None),
    }
}

/// The type of `op` applied to an operand of type `t1`, which must be
/// the annotation `ty`.
fn unop_ty<O: Ops>(op: O::UnOp, t1: O::Ty, ty: &O::Ty) -> Result<O::Ty, SemError> {
    match O::type_unop(op, &t1) {
        Some(rt) if rt == *ty => Ok(rt),
        Some(rt) => type_error(format!("unop {op} annotated {ty}, inferred {rt}")),
        None => type_error(format!("unop {op} inapplicable to {t1}")),
    }
}

/// The type of `op` applied to operands of types `t1`, `t2`, which must
/// be the annotation `ty`.
fn binop_ty<O: Ops>(op: O::BinOp, t1: O::Ty, t2: O::Ty, ty: &O::Ty) -> Result<O::Ty, SemError> {
    match O::type_binop(op, &t1, &t2) {
        Some(rt) if rt == *ty => Ok(rt),
        Some(rt) => type_error(format!("binop {op} annotated {ty}, inferred {rt}")),
        None => type_error(format!("binop {op} inapplicable to {t1}, {t2}")),
    }
}

/// The error for an expression whose pool run is not a post-order tree.
fn not_post_order(e: impl std::fmt::Debug) -> SemError {
    SemError::Malformed(format!("expression {e:?} is not stored in post-order"))
}

/// Checks that control expression `ce` is well typed and well clocked at
/// clock `ck`, and returns its type. The branch clocks of a `merge` come
/// from `clocks`, so each is built once per node. The recursion follows
/// the `merge`/`if` nesting only, as the statements it compiles to do,
/// and checks the control pool's post-order layout on the way.
fn check_cexpr<O: Ops>(
    env: &Env<O>,
    ex: &Exprs<O>,
    w: &mut Walk<O>,
    clocks: &mut Clocks,
    ce: CExprId,
    ck: &Clock,
) -> Result<O::Ty, SemError> {
    let mut next = ex
        .control
        .first_checked(ce)
        .ok_or_else(|| not_post_order(ce))?
        .index();
    check_control(env, ex, w, clocks, ce, ck, &mut next)
}

fn check_control<O: Ops>(
    env: &Env<O>,
    ex: &Exprs<O>,
    w: &mut Walk<O>,
    clocks: &mut Clocks,
    ce: CExprId,
    ck: &Clock,
    next: &mut usize,
) -> Result<O::Ty, SemError> {
    let before = |child: CExprId| {
        if child < ce {
            Ok(child)
        } else {
            Err(not_post_order(ce))
        }
    };
    let t = match ex[ce] {
        CExpr::Merge(x, t, f) => {
            let v = var(env, x)?;
            if *v.ty != O::bool_type() {
                return type_error(format!(
                    "merge variable {x} has type {}, expected bool",
                    v.ty
                ));
            }
            if v.ck != ck {
                return clock_error(format!(
                    "merge variable {x} on clock {}, expected {ck}",
                    v.ck
                ));
            }
            let (on_t, on_f) = (clocks.on(ck, x, true), clocks.on(ck, x, false));
            let (t, f) = (before(t)?, before(f)?);
            let tt = check_control(env, ex, w, clocks, t, &on_t, next)?;
            let tf = check_control(env, ex, w, clocks, f, &on_f, next)?;
            if tt != tf {
                return type_error(format!("merge branches disagree: {tt} vs {tf}"));
            }
            tt
        }
        CExpr::If(c, t, f) => {
            let tc = check_expr::<O>(env, ex, w, c, ck)?;
            if tc != O::bool_type() {
                return type_error(format!("mux guard has type {tc}, expected bool"));
            }
            let (t, f) = (before(t)?, before(f)?);
            let tt = check_control(env, ex, w, clocks, t, ck, next)?;
            let tf = check_control(env, ex, w, clocks, f, ck, next)?;
            if tt != tf {
                return type_error(format!("mux branches disagree: {tt} vs {tf}"));
            }
            tt
        }
        CExpr::Expr(e) => check_expr(env, ex, w, e, ck)?,
    };
    if ce.index() != *next {
        return Err(not_post_order(ce));
    }
    *next += 1;
    Ok(t)
}

/// Checks that every sampler of clock `ck` (declared for `x`) is declared
/// on the clock it samples.
fn check_decl_clock<O: Ops>(env: &Env<O>, x: Ident, ck: &Clock) -> Result<(), SemError> {
    if let Clock::On(parent, y, _) = ck {
        let cy = var(env, *y)?.ck;
        if cy != parent.as_ref() {
            return clock_error(format!(
                "declaration of {x}: sampler {y} on clock {cy}, expected {parent}"
            ));
        }
        check_decl_clock(env, x, parent)?;
    }
    Ok(())
}

/// Checks one equation of node `caller` against the node's environment.
fn check_equation<O: Ops>(
    env: &Env<O>,
    ex: &Exprs<O>,
    w: &mut Walk<O>,
    clocks: &mut Clocks,
    nodes: &[Node<O>],
    caller: NodeId,
    eq: &Equation<O>,
) -> Result<(), SemError> {
    let ck = eq.clock();
    // The defined variables must be declared on the equation's clock.
    for &x in eq.defined() {
        let cx = var(env, x)?.ck;
        if cx != ck {
            return clock_error(format!("{x} declared on clock {cx} but defined on {ck}"));
        }
    }
    check_decl_clock(env, eq.defined()[0], ck)?;
    match eq {
        Equation::Def { x, rhs, .. } => {
            let trhs = check_cexpr::<O>(env, ex, w, clocks, *rhs, ck)?;
            let tx = var(env, *x)?.ty;
            if *tx != trhs {
                return type_error(format!("{x} has type {tx} but is defined with type {trhs}"));
            }
        }
        Equation::Fby { x, init, rhs, .. } => {
            let trhs = check_expr::<O>(env, ex, w, *rhs, ck)?;
            let tinit = O::type_of_const(init);
            let tx = var(env, *x)?.ty;
            if tinit != trhs {
                return type_error(format!("fby initial value has type {tinit}, body {trhs}"));
            }
            if *tx != trhs {
                return type_error(format!("{x} has type {tx} but fby produces {trhs}"));
            }
        }
        Equation::Call {
            xs, node: f, args, ..
        } => {
            if !f.callable_from(caller) {
                return Err(SemError::UnknownNode(*f));
            }
            let callee = &nodes[f.index()];
            let f = callee.name;
            if callee.inputs.len() != args.len() {
                return Err(SemError::InputMismatch(format!(
                    "call to {f}: {} arguments for {} inputs",
                    args.len(),
                    callee.inputs.len()
                )));
            }
            if callee.outputs.len() != xs.len() {
                return Err(SemError::InputMismatch(format!(
                    "call to {f}: {} result variables for {} outputs",
                    xs.len(),
                    callee.outputs.len()
                )));
            }
            for (a, d) in args.iter().zip(&callee.inputs) {
                let ta = check_expr::<O>(env, ex, w, *a, ck)?;
                if ta != d.ty {
                    return type_error(format!(
                        "call to {f}: argument for {} has type {ta}, expected {}",
                        d.name, d.ty
                    ));
                }
            }
            for (x, d) in xs.iter().zip(&callee.outputs) {
                let tx = var(env, *x)?.ty;
                if *tx != d.ty {
                    return type_error(format!(
                        "call to {f}: result {x} has type {tx}, output {} has type {}",
                        d.name, d.ty
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Checks node `id` of `nodes`, whose calls may only name the nodes
/// before it, through an environment, a definition set and a clock
/// table, all cleared first, which a program check reuses across nodes.
fn check_node<'n, O: Ops>(
    nodes: &'n [Node<O>],
    id: NodeId,
    env: &mut Env<'n, O>,
    defined: &mut IdentSet,
    clocks: &mut Clocks,
    w: &mut Walk<O>,
) -> Result<(), SemError> {
    let node = &nodes[id.index()];
    let vars = node.inputs.len() + node.outputs.len() + node.locals.len();
    env.clear();
    env.shrink_to(vars);
    env.reserve(vars);
    clocks.clear();
    let decls = node.inputs.iter().chain(&node.outputs).chain(&node.locals);
    for (k, d) in decls.enumerate() {
        let v = Var {
            ty: &d.ty,
            ck: &d.ck,
            input: k < node.inputs.len(),
        };
        if env.insert(d.name, v).is_some() {
            return Err(SemError::Malformed(format!(
                "duplicate declaration of {}",
                d.name
            )));
        }
        clocks.share(&d.ck);
    }
    if node.outputs.is_empty() {
        return Err(SemError::Malformed("node has no outputs".to_owned()));
    }
    // Node interfaces live on the base clock (the paper's simplification:
    // all inputs and outputs of an application share one clock).
    for d in node.inputs.iter().chain(&node.outputs) {
        if d.ck != Clock::Base {
            return clock_error(format!(
                "interface variable {} must be on the base clock",
                d.name
            ));
        }
    }
    for d in &node.locals {
        check_decl_clock(env, d.name, &d.ck)?;
    }

    // Every output and local is defined exactly once; inputs never.
    let vars = node.outputs.len() + node.locals.len();
    defined.clear();
    defined.shrink_to(vars);
    defined.reserve(vars);
    for eq in &node.eqs {
        for &x in eq.defined() {
            if env.get(&x).is_some_and(|v| v.input) {
                return Err(SemError::Malformed(format!(
                    "input {x} is defined by an equation"
                )));
            }
            if !defined.insert(x) {
                return Err(SemError::Malformed(format!("variable {x} defined twice")));
            }
        }
        // The instance is identified by the first result variable.
        check_equation::<O>(env, &node.exprs, w, clocks, nodes, id, eq)
            .map_err(|e| e.in_node_at(node.name, eq.defined().first().copied()))?;
    }
    for d in node.outputs.iter().chain(&node.locals) {
        if !defined.contains(&d.name) {
            return Err(SemError::Malformed(format!(
                "variable {} is never defined",
                d.name
            )));
        }
    }
    Ok(())
}

/// Checks a whole program: unique node names, and the structure, typing
/// and clocking of every node, with calls restricted to the nodes before
/// the caller (which rules out recursion, as the paper requires).
///
/// # Errors
///
/// Returns the first violation found, in declaration order.
pub fn check_program<O: Ops>(prog: &Program<O>) -> Result<(), SemError> {
    // Names only: each node becomes a class and a C function of its name.
    // Callees are found by id, never through this set.
    let mut names: IdentSet = velus_common::ident_set_with_capacity(prog.nodes.len());
    let (mut env, mut defined, mut clocks) =
        (Env::<O>::default(), IdentSet::default(), Clocks::default());
    let mut walk = Walk::default();
    for (i, node) in prog.nodes.iter().enumerate() {
        if !names.insert(node.name) {
            return Err(SemError::Malformed(format!(
                "duplicate node name {}",
                node.name
            )));
        }
        check_node::<O>(
            &prog.nodes,
            NodeId::new(i),
            &mut env,
            &mut defined,
            &mut clocks,
            &mut walk,
        )
        .map_err(|e| e.in_node(node.name))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::VarDecl;
    use velus_ops::{CBinOp, CConst, CTy, ClightOps};

    type P = Program<ClightOps>;

    fn id(s: &str) -> Ident {
        Ident::new(s)
    }

    fn decl(name: &str, ty: CTy) -> VarDecl<ClightOps> {
        decl_on(name, ty, Clock::Base)
    }

    fn decl_on(name: &str, ty: CTy, ck: Clock) -> VarDecl<ClightOps> {
        VarDecl {
            name: id(name),
            ty,
            ck,
        }
    }

    // Typing.

    /// node double(x: int) returns (y: int) let y = x + x; tel
    fn double() -> Node<ClightOps> {
        let mut ex = Exprs::new();
        let (x1, x2) = (ex.var(id("x"), CTy::I32), ex.var(id("x"), CTy::I32));
        let sum = ex.binop(CBinOp::Add, x1, x2, CTy::I32);
        Node {
            name: id("double"),
            inputs: vec![decl("x", CTy::I32)],
            outputs: vec![decl("y", CTy::I32)],
            locals: vec![],
            eqs: vec![Equation::Def {
                x: id("y"),
                ck: Clock::Base,
                rhs: ex.simple(sum),
            }],
            exprs: ex,
        }
    }

    /// Re-annotates the sum of `double` with `ty`.
    fn retype_sum(n: &mut Node<ClightOps>, ty: CTy) {
        let sum = n.exprs.simple.iter().last().unwrap().0;
        if let Expr::Binop(_, _, _, t) = &mut n.exprs.simple[sum] {
            *t = ty;
        }
    }

    #[test]
    fn accepts_well_typed_node() {
        let p = P::new(vec![double()]);
        assert_eq!(check_program(&p), Ok(()));
    }

    #[test]
    fn rejects_bad_annotation() {
        let mut n = double();
        retype_sum(&mut n, CTy::Bool);
        let p = P::new(vec![n]);
        assert!(matches!(
            check_program(&p).unwrap_err().innermost(),
            SemError::TypeError(_)
        ));
    }

    #[test]
    fn rejects_undefined_output() {
        let mut n = double();
        n.eqs.clear();
        let p = P::new(vec![n]);
        assert!(matches!(
            check_program(&p).unwrap_err().innermost(),
            SemError::Malformed(_)
        ));
    }

    #[test]
    fn rejects_duplicate_node_names() {
        let p = P::new(vec![double(), double()]);
        assert_eq!(
            check_program(&p),
            Err(SemError::Malformed("duplicate node name double".to_owned()))
        );
    }

    #[test]
    fn rejects_double_definition() {
        let mut n = double();
        let eq = n.eqs[0].clone();
        n.eqs.push(eq);
        let p = P::new(vec![n]);
        assert!(matches!(
            check_program(&p).unwrap_err().innermost(),
            SemError::Malformed(_)
        ));
    }

    #[test]
    fn rejects_input_definition() {
        let mut n = double();
        let zero = n.exprs.constant(CConst::int(0));
        let rhs = n.exprs.simple(zero);
        n.eqs.push(Equation::Def {
            x: id("x"),
            ck: Clock::Base,
            rhs,
        });
        let p = P::new(vec![n]);
        assert!(matches!(
            check_program(&p).unwrap_err().innermost(),
            SemError::Malformed(_)
        ));
    }

    #[test]
    fn rejects_call_to_later_node() {
        // caller declared before callee: forward reference is rejected.
        let mut ex = Exprs::new();
        let a = ex.var(id("a"), CTy::I32);
        let mut caller = Node {
            name: id("caller"),
            inputs: vec![decl("a", CTy::I32)],
            outputs: vec![decl("b", CTy::I32)],
            locals: vec![],
            eqs: vec![Equation::Call {
                xs: vec![id("b")],
                ck: Clock::Base,
                node: NodeId::new(1),
                args: vec![a],
            }],
            exprs: ex,
        };
        let mut calling = |k: usize| {
            if let Equation::Call { node, .. } = &mut caller.eqs[0] {
                *node = NodeId::new(k);
            }
            caller.clone()
        };
        // A later node, then a node past the end of the program.
        for p in [vec![calling(1), double()], vec![double(), calling(7)]] {
            assert!(matches!(
                check_program(&P::new(p)).unwrap_err().innermost(),
                SemError::UnknownNode(_)
            ));
        }
        let p = P::new(vec![double(), calling(0)]);
        assert_eq!(check_program(&p), Ok(()));
    }

    #[test]
    fn rejects_fby_type_mismatch() {
        let mut ex = Exprs::new();
        let x = ex.var(id("x"), CTy::I32);
        let n = Node {
            name: id("bad"),
            inputs: vec![decl("x", CTy::I32)],
            outputs: vec![decl("y", CTy::I32)],
            locals: vec![],
            eqs: vec![Equation::Fby {
                x: id("y"),
                ck: Clock::Base,
                init: CConst::bool(true),
                rhs: x,
            }],
            exprs: ex,
        };
        let p = P::new(vec![n]);
        assert!(matches!(
            check_program(&p).unwrap_err().innermost(),
            SemError::TypeError(_)
        ));
    }

    // Clocking.

    /// node sampler(x: bool; v: int) returns (o: int)
    ///   var s: int when x;
    /// let s = v when x; o = merge x s ((0 fby o) whenot x); ...
    fn sampler_node(good: bool) -> Node<ClightOps> {
        let on_x = Clock::Base.on(id("x"), true);
        let s_clock = if good { on_x.clone() } else { Clock::Base };
        let mut ex = Exprs::new();
        let v = ex.var(id("v"), CTy::I32);
        let v = ex.when(v, id("x"), true);
        let s_rhs = ex.simple(v);
        let s = ex.var(id("s"), CTy::I32);
        let s = ex.simple(s);
        let zero = ex.constant(CConst::int(0));
        let zero = ex.when(zero, id("x"), false);
        let zero = ex.simple(zero);
        let o_rhs = ex.merge(id("x"), s, zero);
        Node {
            name: id("sampler"),
            inputs: vec![decl("x", CTy::Bool), decl("v", CTy::I32)],
            outputs: vec![decl("o", CTy::I32)],
            locals: vec![decl_on("s", CTy::I32, s_clock.clone())],
            eqs: vec![
                Equation::Def {
                    x: id("s"),
                    ck: s_clock,
                    rhs: s_rhs,
                },
                Equation::Def {
                    x: id("o"),
                    ck: Clock::Base,
                    rhs: o_rhs,
                },
            ],
            exprs: ex,
        }
    }

    #[test]
    fn accepts_well_clocked_sampling() {
        let p = Program::new(vec![sampler_node(true)]);
        assert_eq!(check_program(&p), Ok(()));
    }

    #[test]
    fn rejects_misdeclared_sampled_variable() {
        let p = Program::new(vec![sampler_node(false)]);
        assert!(matches!(
            check_program(&p).unwrap_err().innermost(),
            SemError::ClockError(_)
        ));
    }

    #[test]
    fn rejects_binop_across_clocks() {
        // o = v + (v when x) is not synchronizable.
        let mut ex = Exprs::new();
        let v1 = ex.var(id("v"), CTy::I32);
        let v2 = ex.var(id("v"), CTy::I32);
        let v2 = ex.when(v2, id("x"), true);
        let sum = ex.binop(CBinOp::Add, v1, v2, CTy::I32);
        let rhs = ex.simple(sum);
        let n = Node {
            name: id("bad"),
            inputs: vec![decl("x", CTy::Bool), decl("v", CTy::I32)],
            outputs: vec![decl("o", CTy::I32)],
            locals: vec![],
            eqs: vec![Equation::Def {
                x: id("o"),
                ck: Clock::Base,
                rhs,
            }],
            exprs: ex,
        };
        let p = Program::new(vec![n]);
        assert!(matches!(
            check_program(&p).unwrap_err().innermost(),
            SemError::ClockError(_)
        ));
    }

    #[test]
    fn rejects_sampled_interface() {
        let mut n = sampler_node(true);
        n.outputs[0].ck = Clock::Base.on(id("x"), true);
        let p = Program::new(vec![n]);
        assert!(matches!(
            check_program(&p).unwrap_err().innermost(),
            SemError::ClockError(_)
        ));
    }

    #[test]
    fn rejects_calls_to_later_or_missing_nodes() {
        let leaf = || sampler_node(true);
        // A well-typed instance of the leaf: a distinct name, and one
        // argument per leaf input.
        let call = |k: usize| {
            let mut ex = Exprs::new();
            let args = vec![ex.var(id("x"), CTy::Bool), ex.var(id("v"), CTy::I32)];
            Node {
                name: id("caller"),
                locals: vec![],
                eqs: vec![Equation::Call {
                    xs: vec![id("o")],
                    ck: Clock::Base,
                    node: NodeId::new(k),
                    args,
                }],
                exprs: ex,
                ..leaf()
            }
        };
        // A later node, the caller itself, and a node past the end.
        for p in [[call(1), leaf()], [leaf(), call(1)], [leaf(), call(9)]] {
            assert!(matches!(
                check_program(&Program::new(p.into()))
                    .unwrap_err()
                    .innermost(),
                SemError::UnknownNode(_)
            ));
        }
        let p = Program::new(vec![leaf(), call(0)]);
        assert_eq!(check_program(&p), Ok(()));
    }

    #[test]
    fn a_program_breaking_both_judgments_reports_its_first_violation() {
        // Node `a` breaks clocking, the later node `b` breaks typing: the
        // one walk reports them in declaration order.
        let mut clocked = sampler_node(false);
        clocked.name = id("a");
        let mut typed = double();
        typed.name = id("b");
        retype_sum(&mut typed, CTy::Bool);
        let err = check_program(&P::new(vec![clocked, typed])).unwrap_err();
        assert!(matches!(err.innermost(), SemError::ClockError(_)), "{err}");
    }

    #[test]
    fn rejects_expressions_out_of_post_order() {
        // `x + x` whose operands are named right to left.
        let mut n = double();
        let sum = n.exprs.simple.iter().last().unwrap().0;
        if let Expr::Binop(_, a, b, _) = &mut n.exprs.simple[sum] {
            std::mem::swap(a, b);
        }
        assert!(matches!(
            check_program(&P::new(vec![n])).unwrap_err().innermost(),
            SemError::Malformed(_)
        ));
    }
}
