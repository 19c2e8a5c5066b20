//! Translation from SN-Lustre to Obc (paper §3, Fig. 5).
//!
//! Each dataflow node becomes a class with a memory per `fby`-defined
//! variable, an instance per node call, and two methods:
//!
//! * `reset` initializes memories and instances;
//! * `step` computes one instant — one "column" of the semantic table —
//!   with each equation compiled to an assignment nested in the
//!   conditionals dictated by its clock (`ctrl`): "clocks in the source
//!   language are transformed into control structures in the target
//!   language".
//!
//! A node-call instance is identified by its left-most result variable,
//! which is unique within the node, exactly as in the paper.

use velus_common::{Ident, IdentMap, IdentSet};
use velus_nlustre::ast::{CExpr, Equation, Expr, Node, Program};
use velus_nlustre::clock::Clock;
use velus_ops::Ops;

use crate::ast::{reset_name, step_name, Block, Class, Method, ObcExpr, ObcProgram, Stmt};
use crate::ObcError;

/// Per-node translation context: which variables are memories, and the
/// type of every variable. [`translate_program`] refills one context
/// node after node.
struct Ctx<O: Ops> {
    mems: IdentSet,
    types: IdentMap<O::Ty>,
}

impl<O: Ops> Ctx<O> {
    fn new() -> Self {
        Ctx {
            mems: IdentSet::default(),
            types: IdentMap::default(),
        }
    }

    /// Empties the context and fills it for `node`.
    fn fill(&mut self, node: &Node<O>) {
        self.mems.clear();
        self.mems.extend(node.mems_iter());
        self.types.clear();
        for d in node.inputs.iter().chain(&node.outputs).chain(&node.locals) {
            self.types.insert(d.name, d.ty.clone());
        }
    }

    fn ty(&self, x: Ident) -> Result<O::Ty, ObcError> {
        self.types
            .get(&x)
            .cloned()
            .ok_or(ObcError::UnboundVariable(x))
    }

    /// The paper's `var` function: a dataflow variable becomes a state
    /// access if it is `fby`-defined, a local variable otherwise.
    fn var(&self, x: Ident) -> Result<ObcExpr<O>, ObcError> {
        let ty = self.ty(x)?;
        Ok(if self.mems.contains(&x) {
            ObcExpr::State(x, ty)
        } else {
            ObcExpr::Var(x, ty)
        })
    }
}

/// `trexp`: propagates constants and operators, removes `when`s.
fn trexp<O: Ops>(ctx: &Ctx<O>, e: &Expr<O>) -> Result<ObcExpr<O>, ObcError> {
    Ok(match e {
        Expr::Const(c) => ObcExpr::Const(c.clone()),
        Expr::Var(x, _) => ctx.var(*x)?,
        Expr::When(e1, _, _) => trexp(ctx, e1)?,
        Expr::Unop(op, e1, ty) => ObcExpr::Unop(*op, Box::new(trexp(ctx, e1)?), ty.clone()),
        Expr::Binop(op, e1, e2, ty) => ObcExpr::Binop(
            *op,
            Box::new(trexp(ctx, e1)?),
            Box::new(trexp(ctx, e2)?),
            ty.clone(),
        ),
    })
}

/// `trcexp`: maps a defined variable and a control expression to an update
/// statement; merges and muxes become conditionals.
fn trcexp<O: Ops>(ctx: &Ctx<O>, x: Ident, ce: &CExpr<O>) -> Result<Stmt<O>, ObcError> {
    Ok(match ce {
        CExpr::Merge(y, t, f) => Stmt::If(
            ctx.var(*y)?,
            trcexp(ctx, x, t)?.into(),
            trcexp(ctx, x, f)?.into(),
        ),
        CExpr::If(c, t, f) => Stmt::If(
            trexp(ctx, c)?,
            trcexp(ctx, x, t)?.into(),
            trcexp(ctx, x, f)?.into(),
        ),
        CExpr::Expr(e) => Stmt::Assign(x, trexp(ctx, e)?),
    })
}

/// `ctrl`: nests a statement in the conditionals of its clock.
fn ctrl<O: Ops>(ctx: &Ctx<O>, ck: &Clock, s: Stmt<O>) -> Result<Stmt<O>, ObcError> {
    match ck {
        Clock::Base => Ok(s),
        Clock::On(parent, x, true) => {
            let guarded = Stmt::If(ctx.var(*x)?, s.into(), Block::new());
            ctrl(ctx, parent, guarded)
        }
        Clock::On(parent, x, false) => {
            let guarded = Stmt::If(ctx.var(*x)?, Block::new(), s.into());
            ctrl(ctx, parent, guarded)
        }
    }
}

/// `treqs`: one equation of the `step` method.
fn treq<O: Ops>(ctx: &Ctx<O>, eq: &Equation<O>) -> Result<Stmt<O>, ObcError> {
    match eq {
        Equation::Def { x, ck, rhs } => ctrl(ctx, ck, trcexp(ctx, *x, rhs)?),
        Equation::Fby { x, ck, rhs, .. } => {
            let s = Stmt::AssignSt(*x, trexp(ctx, rhs)?);
            ctrl(ctx, ck, s)
        }
        Equation::Call { xs, ck, node, args } => {
            let args = args
                .iter()
                .map(|a| trexp(ctx, a))
                .collect::<Result<Vec<_>, _>>()?;
            let s = Stmt::Call {
                results: xs.clone(),
                class: *node,
                instance: xs[0],
                method: step_name(),
                args,
            };
            ctrl(ctx, ck, s)
        }
    }
}

/// `treqr`: one equation of the `reset` method (delays become constant
/// state updates, calls become `reset` invocations; definitions vanish).
fn treq_reset<O: Ops>(eq: &Equation<O>) -> Option<Stmt<O>> {
    match eq {
        Equation::Def { .. } => None,
        Equation::Fby { x, init, .. } => Some(Stmt::AssignSt(*x, ObcExpr::Const(init.clone()))),
        Equation::Call { xs, node, .. } => Some(Stmt::Call {
            results: vec![],
            class: *node,
            instance: xs[0],
            method: reset_name(),
            args: vec![],
        }),
    }
}

/// `trnode`: translates one node into a class.
///
/// # Errors
///
/// Rejects nodes where a `fby` defines an output directly (normalization
/// introduces a copy first) and propagates unbound-variable errors.
pub fn translate_node<O: Ops>(node: &Node<O>) -> Result<Class<O>, ObcError> {
    translate_node_in(&mut Ctx::new(), node)
}

/// [`translate_node`] through a reusable context.
fn translate_node_in<O: Ops>(ctx: &mut Ctx<O>, node: &Node<O>) -> Result<Class<O>, ObcError> {
    ctx.fill(node);
    let ctx = &*ctx;
    for d in &node.outputs {
        if ctx.mems.contains(&d.name) {
            return Err(ObcError::Malformed(format!(
                "node {}: output {} is fby-defined; normalization must introduce a copy",
                node.name, d.name
            )));
        }
    }

    let step_body = node
        .eqs
        .iter()
        .map(|eq| treq(ctx, eq))
        .collect::<Result<Block<O>, _>>()?;
    // Every delay and every call leaves a reset statement, and is a
    // memory or an instance: count them once to size those vectors.
    let fbys = ctx.mems.len();
    let calls = node
        .eqs
        .iter()
        .filter(|eq| matches!(eq, Equation::Call { .. }))
        .count();
    let mut reset_body = Block(Vec::with_capacity(fbys + calls));
    reset_body.extend(node.eqs.iter().filter_map(treq_reset));
    let mut memories = Vec::with_capacity(fbys);
    let mut instances = Vec::with_capacity(calls);
    for eq in &node.eqs {
        match eq {
            Equation::Fby { x, .. } => memories.push((*x, ctx.types[x].clone())),
            Equation::Call { xs, node: f, .. } => instances.push((xs[0], *f)),
            Equation::Def { .. } => {}
        }
    }

    let step = Method {
        name: step_name(),
        inputs: node.inputs.iter().map(|d| (d.name, d.ty.clone())).collect(),
        outputs: node
            .outputs
            .iter()
            .map(|d| (d.name, d.ty.clone()))
            .collect(),
        locals: {
            let mut locals = Vec::with_capacity(node.locals.len().saturating_sub(fbys));
            locals.extend(
                node.locals
                    .iter()
                    .filter(|d| !ctx.mems.contains(&d.name))
                    .map(|d| (d.name, d.ty.clone())),
            );
            locals
        },
        body: step_body,
    };
    let reset = Method {
        name: reset_name(),
        inputs: vec![],
        outputs: vec![],
        locals: vec![],
        body: reset_body,
    };

    Ok(Class {
        name: node.name,
        memories,
        instances,
        methods: vec![step, reset],
    })
}

/// `translate`: maps every node of an SN-Lustre program into an Obc class
/// (callees-first order is preserved).
///
/// The input program must be well scheduled; the validation harness
/// re-checks schedules before calling this.
///
/// # Errors
///
/// See [`translate_node`].
pub fn translate_program<O: Ops>(prog: &Program<O>) -> Result<ObcProgram<O>, ObcError> {
    let mut ctx = Ctx::new();
    let classes = prog
        .nodes
        .iter()
        .map(|node| translate_node_in(&mut ctx, node))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(ObcProgram { classes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sem::run_class;
    use velus_nlustre::ast::VarDecl;
    use velus_nlustre::dataflow;
    use velus_nlustre::streams::SVal;
    use velus_ops::{CBinOp, CConst, CTy, CVal, ClightOps};

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

    fn ivar(x: &str) -> Expr<ClightOps> {
        Expr::Var(id(x), CTy::I32)
    }

    /// The scheduled counter of Fig. 3.
    fn counter() -> Node<ClightOps> {
        Node {
            name: id("counter"),
            inputs: vec![
                decl("ini", CTy::I32),
                decl("inc", CTy::I32),
                decl("res", CTy::Bool),
            ],
            outputs: vec![decl("n", CTy::I32)],
            locals: vec![decl("c", CTy::I32), decl("f", CTy::Bool)],
            eqs: vec![
                Equation::Def {
                    x: id("n"),
                    ck: Clock::Base,
                    rhs: CExpr::If(
                        Expr::Binop(
                            CBinOp::Or,
                            Box::new(Expr::Var(id("f"), CTy::Bool)),
                            Box::new(Expr::Var(id("res"), CTy::Bool)),
                            CTy::Bool,
                        ),
                        Box::new(CExpr::Expr(ivar("ini"))),
                        Box::new(CExpr::Expr(Expr::Binop(
                            CBinOp::Add,
                            Box::new(ivar("c")),
                            Box::new(ivar("inc")),
                            CTy::I32,
                        ))),
                    ),
                },
                Equation::Fby {
                    x: id("f"),
                    ck: Clock::Base,
                    init: CConst::bool(true),
                    rhs: Expr::Const(CConst::bool(false)),
                },
                Equation::Fby {
                    x: id("c"),
                    ck: Clock::Base,
                    init: CConst::int(0),
                    rhs: ivar("n"),
                },
            ],
        }
    }

    #[test]
    fn fby_variables_become_state() {
        let class = translate_node(&counter()).unwrap();
        assert_eq!(class.memories.len(), 2);
        assert!(class.instances.is_empty());
        // Locals of the step method exclude the memories.
        let step = class.method(step_name()).unwrap();
        assert!(step.locals.is_empty());
        let text = class.methods[0].body.to_string();
        assert!(text.contains("state(c)"), "{text}");
        assert!(text.contains("state(f)"), "{text}");
    }

    #[test]
    fn translated_counter_matches_dataflow() {
        let prog = Program::new(vec![counter()]);
        let obc = translate_program(&prog).unwrap();
        let n = 6;
        let ini: Vec<SVal<ClightOps>> = (0..n).map(|_| SVal::Pres(CVal::int(7))).collect();
        let inc: Vec<SVal<ClightOps>> = (0..n).map(|i| SVal::Pres(CVal::int(i as i32))).collect();
        let res: Vec<SVal<ClightOps>> = (0..n).map(|i| SVal::Pres(CVal::bool(i == 3))).collect();
        let inputs = vec![ini, inc, res];
        let df = dataflow::run_node(&prog, velus_common::NodeId::new(0), &inputs, n).unwrap();

        let obc_inputs: Vec<Option<Vec<CVal>>> = (0..n)
            .map(|i| Some(inputs.iter().map(|s| *s[i].value().unwrap()).collect()))
            .collect();
        let outs = run_class(&obc, velus_common::NodeId::new(0), &obc_inputs).unwrap();
        for i in 0..n {
            assert_eq!(
                df[0][i].value().unwrap(),
                &outs[i].as_ref().unwrap()[0],
                "instant {i}"
            );
        }
    }

    #[test]
    fn reset_reinitializes() {
        let prog = Program::new(vec![counter()]);
        let obc = translate_program(&prog).unwrap();
        let class = &obc.classes[0];
        let reset = class.method(reset_name()).unwrap();
        let text = reset.body.to_string();
        assert!(text.contains("state(f) := true;"), "{text}");
        assert!(text.contains("state(c) := 0;"), "{text}");
    }

    #[test]
    fn fby_defined_output_is_rejected() {
        let node: Node<ClightOps> = Node {
            name: id("bad"),
            inputs: vec![decl("x", CTy::I32)],
            outputs: vec![decl("y", CTy::I32)],
            locals: vec![],
            eqs: vec![Equation::Fby {
                x: id("y"),
                ck: Clock::Base,
                init: CConst::int(0),
                rhs: ivar("x"),
            }],
        };
        assert!(matches!(translate_node(&node), Err(ObcError::Malformed(_))));
    }

    #[test]
    fn clocked_equations_are_guarded() {
        // s on clock (base on k) becomes if k { s }.
        let on_k = Clock::Base.on(id("k"), true);
        let node: Node<ClightOps> = Node {
            name: id("guarded"),
            inputs: vec![decl("k", CTy::Bool), decl("x", CTy::I32)],
            outputs: vec![decl("o", CTy::I32)],
            locals: vec![VarDecl {
                name: id("s"),
                ty: CTy::I32,
                ck: on_k.clone(),
            }],
            eqs: vec![
                Equation::Def {
                    x: id("s"),
                    ck: on_k,
                    rhs: CExpr::Expr(Expr::When(Box::new(ivar("x")), id("k"), true)),
                },
                Equation::Def {
                    x: id("o"),
                    ck: Clock::Base,
                    rhs: CExpr::Merge(
                        id("k"),
                        Box::new(CExpr::Expr(Expr::Var(id("s"), CTy::I32))),
                        Box::new(CExpr::Expr(Expr::When(
                            Box::new(Expr::Const(CConst::int(0))),
                            id("k"),
                            false,
                        ))),
                    ),
                },
            ],
        };
        let class = translate_node(&node).unwrap();
        let text = class.method(step_name()).unwrap().body.to_string();
        assert!(text.contains("if k {"), "{text}");
        // The merge also compiles to a conditional on k.
        assert!(text.matches("if k {").count() >= 2, "{text}");
    }
}
