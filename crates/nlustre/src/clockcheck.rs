//! The well-clockedness judgment (§2.2).
//!
//! Clock checking guarantees that programs can execute synchronously,
//! without buffering: every equation is checked against its declared
//! clock, sampled expressions only combine streams on the right clocks,
//! and `merge` combines *complementary* streams.
//!
//! As with typing, we re-validate well-clockedness after each pass rather
//! than proving its preservation.

use velus_common::{Ident, IdentMap, NodeId};
use velus_ops::Ops;

use crate::ast::{CExpr, Equation, Expr, Node, Program};
use crate::clock::{Clock, Clocks};
use crate::SemError;

/// Declared variable → its clock, borrowed from the node.
type CkEnv<'n> = IdentMap<&'n Clock>;

fn clock_error<T>(msg: String) -> Result<T, SemError> {
    Err(SemError::ClockError(msg))
}

/// Checks that expression `e` is well clocked *at* clock `ck`.
///
/// Constants are clock-polymorphic; every variable must sit on exactly the
/// expected clock; `e when x` shifts the expectation to the parent clock.
///
/// # Errors
///
/// Returns [`SemError::ClockError`] on any mismatch.
pub fn check_expr_clock<O: Ops>(env: &CkEnv, e: &Expr<O>, ck: &Clock) -> Result<(), SemError> {
    match e {
        Expr::Const(_) => Ok(()),
        Expr::Var(x, _) => match env.get(x) {
            None => Err(SemError::UndefinedVariable(*x)),
            Some(&cx) if cx == ck => Ok(()),
            Some(cx) => clock_error(format!("variable {x} on clock {cx}, expected {ck}")),
        },
        Expr::Unop(_, e1, _) => check_expr_clock::<O>(env, e1, ck),
        Expr::Binop(_, e1, e2, _) => {
            check_expr_clock::<O>(env, e1, ck)?;
            check_expr_clock::<O>(env, e2, ck)
        }
        Expr::When(e1, x, k) => match ck {
            Clock::On(parent, y, k2) if y == x && k2 == k => {
                // The sampling variable must itself live on the parent clock.
                match env.get(x) {
                    None => Err(SemError::UndefinedVariable(*x)),
                    Some(&cx) if cx == parent.as_ref() => check_expr_clock::<O>(env, e1, parent),
                    Some(cx) => {
                        clock_error(format!("sampler {x} on clock {cx}, expected {parent}"))
                    }
                }
            }
            _ => clock_error(format!("sampled expression `… when {x}` at clock {ck}")),
        },
    }
}

/// Checks that control expression `ce` is well clocked at clock `ck`.
/// The branch clocks of a `merge` come from `clocks`, so each is built
/// once per node.
///
/// # Errors
///
/// Returns [`SemError::ClockError`] on any mismatch.
pub fn check_cexpr_clock<O: Ops>(
    env: &CkEnv,
    clocks: &mut Clocks,
    ce: &CExpr<O>,
    ck: &Clock,
) -> Result<(), SemError> {
    match ce {
        CExpr::Merge(x, t, f) => {
            match env.get(x) {
                None => return Err(SemError::UndefinedVariable(*x)),
                Some(&cx) if cx == ck => {}
                Some(cx) => {
                    return clock_error(format!("merge variable {x} on clock {cx}, expected {ck}"))
                }
            }
            let (on_t, on_f) = (clocks.on(ck, *x, true), clocks.on(ck, *x, false));
            check_cexpr_clock::<O>(env, clocks, t, &on_t)?;
            check_cexpr_clock::<O>(env, clocks, f, &on_f)
        }
        CExpr::If(c, t, f) => {
            check_expr_clock::<O>(env, c, ck)?;
            check_cexpr_clock::<O>(env, clocks, t, ck)?;
            check_cexpr_clock::<O>(env, clocks, f, ck)
        }
        CExpr::Expr(e) => check_expr_clock::<O>(env, e, ck),
    }
}

fn check_decl_clock(env: &CkEnv, x: Ident, ck: &Clock) -> Result<(), SemError> {
    if let Clock::On(parent, y, _) = ck {
        match env.get(y) {
            None => return Err(SemError::UndefinedVariable(*y)),
            Some(&cy) if cy == parent.as_ref() => {}
            Some(cy) => {
                return clock_error(format!(
                    "declaration of {x}: sampler {y} on clock {cy}, expected {parent}"
                ))
            }
        }
        check_decl_clock(env, x, parent)?;
    }
    Ok(())
}

/// Checks node `node`, with id `id`, whose calls may only name the nodes
/// before it, through an environment map and a clock table, both
/// cleared first, which a program check reuses across nodes.
fn check_node_clocks<'n, O: Ops>(
    node: &'n Node<O>,
    id: NodeId,
    env: &mut CkEnv<'n>,
    clocks: &mut Clocks,
) -> Result<(), SemError> {
    let vars = node.inputs.len() + node.outputs.len() + node.locals.len();
    env.clear();
    env.shrink_to(vars);
    env.reserve(vars);
    clocks.clear();
    for d in node.inputs.iter().chain(&node.outputs).chain(&node.locals) {
        env.insert(d.name, &d.ck);
        clocks.share(&d.ck);
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
    for d in node.locals.iter() {
        check_decl_clock(env, d.name, &d.ck)?;
    }

    for eq in &node.eqs {
        check_eq_clocks::<O>(env, clocks, id, eq)
            .map_err(|e| e.in_node_at(node.name, eq.defined().first().copied()))?;
    }
    Ok(())
}

/// Checks one equation against the node's clock environment.
fn check_eq_clocks<O: Ops>(
    env: &CkEnv,
    clocks: &mut Clocks,
    caller: NodeId,
    eq: &Equation<O>,
) -> Result<(), SemError> {
    let ck = eq.clock();
    // The defined variables must be declared on the equation's clock.
    for &x in eq.defined() {
        match env.get(&x) {
            None => return Err(SemError::UndefinedVariable(x)),
            Some(&cx) if cx == ck => {}
            Some(cx) => {
                return clock_error(format!("{x} declared on clock {cx} but defined on {ck}"))
            }
        }
    }
    check_decl_clock(env, eq.defined()[0], ck)?;
    match eq {
        Equation::Def { rhs, .. } => check_cexpr_clock::<O>(env, clocks, rhs, ck)?,
        Equation::Fby { rhs, .. } => check_expr_clock::<O>(env, rhs, ck)?,
        Equation::Call { node: f, args, .. } => {
            if !f.callable_from(caller) {
                return Err(SemError::UnknownNode(*f));
            }
            for a in args {
                check_expr_clock::<O>(env, a, ck)?;
            }
        }
    }
    Ok(())
}

/// Checks well-clockedness of a whole program.
///
/// # Errors
///
/// Returns the first violation found, in declaration order.
pub fn check_program_clocks<O: Ops>(prog: &Program<O>) -> Result<(), SemError> {
    let mut env = CkEnv::default();
    let mut clocks = Clocks::default();
    for (i, node) in prog.nodes.iter().enumerate() {
        check_node_clocks::<O>(node, NodeId::new(i), &mut env, &mut clocks)
            .map_err(|e| e.in_node(node.name))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::VarDecl;
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

    /// node sampler(x: bool; v: int) returns (o: int)
    ///   var s: int when x;
    /// let s = v when x; o = merge x s ((0 fby o) whenot x); ...
    fn sampler_node(good: bool) -> Node<ClightOps> {
        let on_x = Clock::Base.on(id("x"), true);
        let s_clock = if good { on_x.clone() } else { Clock::Base };
        Node {
            name: id("sampler"),
            inputs: vec![
                decl("x", CTy::Bool, Clock::Base),
                decl("v", CTy::I32, Clock::Base),
            ],
            outputs: vec![decl("o", CTy::I32, Clock::Base)],
            locals: vec![decl("s", CTy::I32, s_clock.clone())],
            eqs: vec![
                Equation::Def {
                    x: id("s"),
                    ck: s_clock,
                    rhs: CExpr::Expr(Expr::When(
                        Box::new(Expr::Var(id("v"), CTy::I32)),
                        id("x"),
                        true,
                    )),
                },
                Equation::Def {
                    x: id("o"),
                    ck: Clock::Base,
                    rhs: CExpr::Merge(
                        id("x"),
                        Box::new(CExpr::Expr(Expr::Var(id("s"), CTy::I32))),
                        Box::new(CExpr::Expr(Expr::When(
                            Box::new(Expr::Const(CConst::int(0))),
                            id("x"),
                            false,
                        ))),
                    ),
                },
            ],
        }
    }

    #[test]
    fn accepts_well_clocked_sampling() {
        let p = Program::new(vec![sampler_node(true)]);
        assert_eq!(check_program_clocks(&p), Ok(()));
    }

    #[test]
    fn rejects_misdeclared_sampled_variable() {
        let p = Program::new(vec![sampler_node(false)]);
        assert!(matches!(
            check_program_clocks(&p).unwrap_err().innermost(),
            SemError::ClockError(_)
        ));
    }

    #[test]
    fn rejects_binop_across_clocks() {
        // o = v + (v when x) is not synchronizable.
        let n = Node {
            name: id("bad"),
            inputs: vec![
                decl("x", CTy::Bool, Clock::Base),
                decl("v", CTy::I32, Clock::Base),
            ],
            outputs: vec![decl("o", CTy::I32, Clock::Base)],
            locals: vec![],
            eqs: vec![Equation::Def {
                x: id("o"),
                ck: Clock::Base,
                rhs: CExpr::Expr(Expr::Binop(
                    velus_ops::CBinOp::Add,
                    Box::new(Expr::Var(id("v"), CTy::I32)),
                    Box::new(Expr::When(
                        Box::new(Expr::Var(id("v"), CTy::I32)),
                        id("x"),
                        true,
                    )),
                    CTy::I32,
                )),
            }],
        };
        let p = Program::new(vec![n]);
        assert!(matches!(
            check_program_clocks(&p).unwrap_err().innermost(),
            SemError::ClockError(_)
        ));
    }

    #[test]
    fn rejects_sampled_interface() {
        let mut n = sampler_node(true);
        n.outputs[0].ck = Clock::Base.on(id("x"), true);
        let p = Program::new(vec![n]);
        assert!(matches!(
            check_program_clocks(&p).unwrap_err().innermost(),
            SemError::ClockError(_)
        ));
    }

    #[test]
    fn rejects_calls_to_later_or_missing_nodes() {
        let leaf = || sampler_node(true);
        let call = |k: usize| Node {
            locals: vec![],
            eqs: vec![Equation::Call {
                xs: vec![id("o")],
                ck: Clock::Base,
                node: NodeId::new(k),
                args: vec![],
            }],
            ..leaf()
        };
        // A later node, the caller itself, and a node past the end.
        for p in [[call(1), leaf()], [leaf(), call(1)], [leaf(), call(9)]] {
            assert!(matches!(
                check_program_clocks(&Program::new(p.into()))
                    .unwrap_err()
                    .innermost(),
                SemError::UnknownNode(_)
            ));
        }
        let p = Program::new(vec![leaf(), call(0)]);
        assert_eq!(check_program_clocks(&p), Ok(()));
    }
}
