//! The dataflow (stream) semantics of SN-Lustre — the reference model
//! (§3.1).
//!
//! The paper models streams as functions from naturals to a value domain
//! with explicit presence/absence, and defines the semantics relationally:
//! `G ⊢node f(xs, ys)` holds of input and output streams. This module
//! makes that model *executable* as a demand-driven, memoized interpreter:
//! asking for the value of a variable at instant `n` evaluates its
//! defining equation at `n`, recursively demanding other variables at `n`
//! (or, through `fby`, at earlier instants). Instantaneous dependency
//! cycles — programs with no semantics — are detected at run time and
//! reported as causality errors.
//!
//! The delay operator follows Fig. 6 literally:
//!
//! ```text
//! (c fby# xs)(n) = abs                    if xs(n) = abs
//! (c fby# xs)(n) = ⟨(c hold# xs)(n)⟩      if xs(n) = ⟨v⟩
//! (c hold# xs)(0)   = c
//! (c hold# xs)(n+1) = (c hold# xs)(n)     if xs(n) = abs
//! (c hold# xs)(n+1) = c'                  if xs(n) = ⟨c'⟩
//! ```
//!
//! Node instantiation derives the callee's base clock from the presence of
//! its inputs (`clock#`), so sampled instantiations run slower than their
//! context, as in the `tracker` example of §2.2.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};

use velus_common::{ident_map_with_capacity, BuildIdentHasher, Ident, IdentMap};
use velus_ops::Ops;

use crate::ast::{CExpr, Equation, Expr, Node, Program};
use crate::clock::Clock;
use crate::streams::{SVal, StreamSet};
use crate::SemError;

/// Where a variable of a node gets its values.
#[derive(Debug, Clone, Copy)]
enum Binding {
    /// The i-th input of the node.
    Input(usize),
    /// The k-th variable defined by the equation with the given index.
    Eq(usize, usize),
}

/// Per-node static information, computed once.
#[derive(Debug)]
struct NodeInfo {
    bindings: IdentMap<Binding>,
    /// For each call equation (by index), the program index of the
    /// callee; `None` for other equations and unknown callees.
    callees: Vec<Option<usize>>,
}

fn node_info<O: Ops>(node: &Node<O>, index: &IdentMap<usize>) -> Result<NodeInfo, SemError> {
    let mut bindings = ident_map_with_capacity(node.inputs.len() + node.eqs.len());
    for (i, d) in node.inputs.iter().enumerate() {
        bindings.insert(d.name, Binding::Input(i));
    }
    let mut callees = Vec::with_capacity(node.eqs.len());
    for (i, eq) in node.eqs.iter().enumerate() {
        for (k, &x) in eq.defined().iter().enumerate() {
            bindings.insert(x, Binding::Eq(i, k));
        }
        callees.push(match eq {
            Equation::Call { node: f, .. } => index.get(f).copied(),
            _ => None,
        });
    }
    for d in node.outputs.iter().chain(&node.locals) {
        if !bindings.contains_key(&d.name) {
            return Err(SemError::UndefinedVariable(d.name));
        }
    }
    Ok(NodeInfo { bindings, callees })
}

/// A node instance in the (dynamically unfolded) instance tree.
struct Inst<O: Ops> {
    /// Index of the node in the program.
    node: usize,
    /// Parent instance and the equation index of the instantiating call;
    /// `None` for the root.
    parent: Option<(usize, usize)>,
    /// Memoized variable values: `memo[x][n]`.
    memo: IdentMap<Vec<Option<SVal<O>>>>,
    /// Memoized `hold#` values per `fby` variable.
    holds: IdentMap<Vec<O::Val>>,
    /// Sub-instances, keyed by call-equation index.
    subs: HashMap<usize, usize, BuildIdentHasher>,
    /// Variables currently being evaluated (cycle detection).
    visiting: HashSet<(Ident, usize), BuildIdentHasher>,
}

impl<O: Ops> Inst<O> {
    /// A fresh instance of a node with `vars` variables.
    fn new(node: usize, parent: Option<(usize, usize)>, vars: usize) -> Inst<O> {
        Inst {
            node,
            parent,
            memo: ident_map_with_capacity(vars),
            holds: IdentMap::default(),
            subs: HashMap::default(),
            visiting: HashSet::default(),
        }
    }
}

/// The demand-driven dataflow evaluator for one root node.
///
/// The program is borrowed for the evaluator's lifetime `'p`, so
/// evaluation reads equations in place; callees are resolved to program
/// indices once, and the memo streams are sized to the demanded horizon.
///
/// # Examples
///
/// Evaluating a two-instant run of a counter is as simple as:
///
/// ```
/// # use velus_nlustre::{ast::*, clock::Clock, dataflow::Dataflow, streams::*};
/// # use velus_common::Ident;
/// # use velus_ops::{CConst, CTy, CBinOp, ClightOps};
/// # let n = Ident::new("n");
/// # let node = Node::<ClightOps> {
/// #     name: Ident::new("count"),
/// #     inputs: vec![],
/// #     outputs: vec![VarDecl { name: n, ty: CTy::I32, ck: Clock::Base }],
/// #     locals: vec![],
/// #     eqs: vec![Equation::Fby {
/// #         x: n,
/// #         ck: Clock::Base,
/// #         init: CConst::int(0),
/// #         rhs: Expr::Binop(
/// #             CBinOp::Add,
/// #             Box::new(Expr::Var(n, CTy::I32)),
/// #             Box::new(Expr::Const(CConst::int(1))),
/// #             CTy::I32,
/// #         ),
/// #     }],
/// # };
/// # let prog = Program::new(vec![node]);
/// let mut eval = Dataflow::new(&prog, Ident::new("count"), vec![])?;
/// let outs = eval.run(3)?;
/// // n = 0 fby (n + 1) counts 0, 1, 2, …
/// assert_eq!(outs[0].len(), 3);
/// # Ok::<(), velus_nlustre::SemError>(())
/// ```
pub struct Dataflow<'p, O: Ops> {
    prog: &'p Program<O>,
    infos: Vec<NodeInfo>,
    insts: Vec<Inst<O>>,
    inputs: Cow<'p, [Vec<SVal<O>>]>,
    root_node: usize,
    /// Instants the current [`Dataflow::run`] demands: the capacity of
    /// each new memo stream.
    span: usize,
}

impl<'p, O: Ops> Dataflow<'p, O> {
    /// Creates an evaluator for node `f` of `prog` with the given input
    /// streams (one per declared input), owned or borrowed.
    ///
    /// # Errors
    ///
    /// Fails if the node does not exist, the number of input streams does
    /// not match the node's arity, or a declared variable has no defining
    /// equation.
    pub fn new(
        prog: &'p Program<O>,
        f: Ident,
        inputs: impl Into<Cow<'p, [Vec<SVal<O>>]>>,
    ) -> Result<Self, SemError> {
        let inputs = inputs.into();
        // The first node of each name, as a by-name scan would find it.
        let mut index: IdentMap<usize> = IdentMap::default();
        for (i, n) in prog.nodes.iter().enumerate() {
            index.entry(n.name).or_insert(i);
        }
        let root_node = *index.get(&f).ok_or(SemError::UnknownNode(f))?;
        let infos = prog
            .nodes
            .iter()
            .map(|n| node_info(n, &index))
            .collect::<Result<Vec<_>, _>>()?;
        if inputs.len() != prog.nodes[root_node].inputs.len() {
            return Err(SemError::InputMismatch(format!(
                "{} input streams for {} declared inputs",
                inputs.len(),
                prog.nodes[root_node].inputs.len()
            )));
        }
        let root = Inst::new(root_node, None, infos[root_node].bindings.len());
        Ok(Dataflow {
            prog,
            infos,
            insts: vec![root],
            inputs,
            root_node,
            span: 0,
        })
    }

    /// The number of instants for which all root inputs are available.
    pub fn horizon(&self) -> usize {
        self.inputs.iter().map(Vec::len).min().unwrap_or(usize::MAX)
    }

    /// Evaluates all outputs for instants `0..n` and returns them as a
    /// stream set (one stream per declared output).
    ///
    /// # Errors
    ///
    /// Propagates causality loops, undefined operator applications, and
    /// clock or input inconsistencies.
    pub fn run(&mut self, n: usize) -> Result<StreamSet<O>, SemError> {
        let prog = self.prog;
        let outs = &prog.nodes[self.root_node].outputs;
        self.span = n;
        let mut result: StreamSet<O> = (0..outs.len()).map(|_| Vec::with_capacity(n)).collect();
        for i in 0..n {
            for (k, o) in outs.iter().enumerate() {
                let v = self.var_at(0, o.name, i)?;
                result[k].push(v);
            }
        }
        Ok(result)
    }

    /// The value of root variable `x` (input, output or local) at instant
    /// `n`. This exposes the *internal* streams of the semantic table of
    /// §2.2.
    ///
    /// # Errors
    ///
    /// See [`Dataflow::run`].
    pub fn var(&mut self, x: Ident, n: usize) -> Result<SVal<O>, SemError> {
        self.var_at(0, x, n)
    }

    /// The base clock of the root node at instant `n` (the paper's
    /// `clock#` of the inputs).
    fn root_base(&mut self, n: usize) -> Result<bool, SemError> {
        let mut first = None;
        let mut agree = true;
        for s in self.inputs.iter() {
            let p = s
                .get(n)
                .map(SVal::is_present)
                .ok_or_else(|| SemError::InputMismatch(format!("no input at instant {n}")))?;
            agree &= *first.get_or_insert(p) == p;
        }
        if agree {
            Ok(first.unwrap_or(true))
        } else {
            Err(SemError::ClockError(format!(
                "root inputs have mismatched presence at instant {n}"
            )))
        }
    }

    fn base_at(&mut self, inst: usize, n: usize) -> Result<bool, SemError> {
        match self.insts[inst].parent {
            None => self.root_base(n),
            Some((p, eq_idx)) => {
                let prog = self.prog;
                self.clock_at(p, prog.nodes[self.insts[p].node].eqs[eq_idx].clock(), n)
            }
        }
    }

    fn clock_at(&mut self, inst: usize, ck: &Clock, n: usize) -> Result<bool, SemError> {
        match ck {
            Clock::Base => self.base_at(inst, n),
            Clock::On(parent, x, k) => {
                if !self.clock_at(inst, parent, n)? {
                    return Ok(false);
                }
                match self.var_at(inst, *x, n)? {
                    SVal::Abs => Err(SemError::ClockError(format!(
                        "clock variable {x} absent while its clock is active"
                    ))),
                    SVal::Pres(v) => match O::as_bool(&v) {
                        Some(b) => Ok(b == *k),
                        None => Err(SemError::TypeError(format!(
                            "clock variable {x} carries non-boolean {v}"
                        ))),
                    },
                }
            }
        }
    }

    /// Evaluates a simple expression at instant `n`, under a context whose
    /// clock is known to be active: every variable must be present.
    fn eval_expr(&mut self, inst: usize, e: &Expr<O>, n: usize) -> Result<O::Val, SemError> {
        match e {
            Expr::Const(c) => Ok(O::sem_const(c)),
            Expr::Var(x, _) => match self.var_at(inst, *x, n)? {
                SVal::Pres(v) => Ok(v),
                SVal::Abs => Err(SemError::ClockError(format!(
                    "variable {x} absent at instant {n} under an active clock"
                ))),
            },
            Expr::Unop(op, e1, _) => {
                let v = self.eval_expr(inst, e1, n)?;
                let ty = e1.ty();
                O::sem_unop(*op, &v, &ty).ok_or_else(|| {
                    SemError::UndefinedOperation(format!("{op} {v} at type {ty} (instant {n})"))
                })
            }
            Expr::Binop(op, e1, e2, _) => {
                let v1 = self.eval_expr(inst, e1, n)?;
                let v2 = self.eval_expr(inst, e2, n)?;
                let (t1, t2) = (e1.ty(), e2.ty());
                O::sem_binop(*op, &v1, &t1, &v2, &t2).ok_or_else(|| {
                    SemError::UndefinedOperation(format!("{v1} {op} {v2} (instant {n})"))
                })
            }
            Expr::When(e1, x, k) => {
                // Context clock active implies x present with value k.
                match self.var_at(inst, *x, n)? {
                    SVal::Pres(v) if O::as_bool(&v) == Some(*k) => self.eval_expr(inst, e1, n),
                    other => Err(SemError::ClockError(format!(
                        "sampling variable {x} = {other:?} inconsistent with active clock"
                    ))),
                }
            }
        }
    }

    /// Evaluates a control expression under an active clock. Both branches
    /// of a mux are evaluated (the paper: "both branches are active"),
    /// only the selected branch of a merge is.
    fn eval_cexpr(&mut self, inst: usize, ce: &CExpr<O>, n: usize) -> Result<O::Val, SemError> {
        match ce {
            CExpr::Expr(e) => self.eval_expr(inst, e, n),
            CExpr::Merge(x, t, f) => match self.var_at(inst, *x, n)? {
                SVal::Pres(v) => match O::as_bool(&v) {
                    Some(true) => self.eval_cexpr(inst, t, n),
                    Some(false) => self.eval_cexpr(inst, f, n),
                    None => Err(SemError::TypeError(format!("merge on non-boolean {v}"))),
                },
                SVal::Abs => Err(SemError::ClockError(format!(
                    "merge variable {x} absent under an active clock"
                ))),
            },
            CExpr::If(c, t, f) => {
                let cv = self.eval_expr(inst, c, n)?;
                let tv = self.eval_cexpr(inst, t, n)?;
                let fv = self.eval_cexpr(inst, f, n)?;
                match O::as_bool(&cv) {
                    Some(true) => Ok(tv),
                    Some(false) => Ok(fv),
                    None => Err(SemError::TypeError(format!("mux guard non-boolean {cv}"))),
                }
            }
        }
    }

    /// The `hold#` stream of the `fby` equation defining `x` (Fig. 6).
    fn hold_at(&mut self, inst: usize, x: Ident, n: usize) -> Result<O::Val, SemError> {
        if let Some(hs) = self.insts[inst].holds.get(&x) {
            if let Some(v) = hs.get(n) {
                return Ok(v.clone());
            }
        }
        let prog = self.prog;
        let node_idx = self.insts[inst].node;
        let eq_idx = match self.infos[node_idx].bindings.get(&x) {
            Some(Binding::Eq(i, _)) => *i,
            _ => return Err(SemError::UndefinedVariable(x)),
        };
        let (ck, init, rhs) = match &prog.nodes[node_idx].eqs[eq_idx] {
            Equation::Fby { ck, init, rhs, .. } => (ck, init, rhs),
            _ => return Err(SemError::Malformed(format!("{x} is not a fby variable"))),
        };
        // Fill the memo from its current length up to n.
        let mut start = self.insts[inst].holds.get(&x).map_or(0, Vec::len);
        if start == 0 {
            let mut hs = Vec::with_capacity(self.span.max(n) + 1);
            hs.push(O::sem_const(init));
            self.insts[inst].holds.insert(x, hs);
            start = 1;
        }
        for m in start..=n {
            // hold(m) depends on the argument stream at instant m-1.
            let prev_active = self.clock_at(inst, ck, m - 1)?;
            let v = if prev_active {
                self.eval_expr(inst, rhs, m - 1)?
            } else {
                self.insts[inst].holds[&x][m - 1].clone()
            };
            self.insts[inst]
                .holds
                .get_mut(&x)
                .expect("initialized above")
                .push(v);
        }
        Ok(self.insts[inst].holds[&x][n].clone())
    }

    /// The value of variable `x` of instance `inst` at instant `n`.
    fn var_at(&mut self, inst: usize, x: Ident, n: usize) -> Result<SVal<O>, SemError> {
        if let Some(vs) = self.insts[inst].memo.get(&x) {
            if let Some(Some(v)) = vs.get(n) {
                return Ok(v.clone());
            }
        }
        if !self.insts[inst].visiting.insert((x, n)) {
            return Err(SemError::CausalityLoop(x));
        }
        let result = self.var_at_inner(inst, x, n);
        self.insts[inst].visiting.remove(&(x, n));
        let v = result?;
        let cap = self.span.max(n + 1);
        let memo = self.insts[inst]
            .memo
            .entry(x)
            .or_insert_with(|| Vec::with_capacity(cap));
        if memo.len() <= n {
            memo.resize(n + 1, None);
        }
        memo[n] = Some(v.clone());
        Ok(v)
    }

    fn var_at_inner(&mut self, inst: usize, x: Ident, n: usize) -> Result<SVal<O>, SemError> {
        let prog = self.prog;
        let node_idx = self.insts[inst].node;
        let binding = match self.infos[node_idx].bindings.get(&x) {
            Some(b) => *b,
            None => return Err(SemError::UndefinedVariable(x)),
        };
        match binding {
            Binding::Input(i) => match self.insts[inst].parent {
                None => self
                    .inputs
                    .get(i)
                    .and_then(|s| s.get(n))
                    .cloned()
                    .ok_or_else(|| {
                        SemError::InputMismatch(format!("input stream exhausted at instant {n}"))
                    }),
                Some((p, eq_idx)) => {
                    let (ck, arg) = match &prog.nodes[self.insts[p].node].eqs[eq_idx] {
                        Equation::Call { ck, args, .. } => (ck, &args[i]),
                        _ => unreachable!("parent link always points at a call equation"),
                    };
                    if self.clock_at(p, ck, n)? {
                        Ok(SVal::Pres(self.eval_expr(p, arg, n)?))
                    } else {
                        Ok(SVal::Abs)
                    }
                }
            },
            Binding::Eq(eq_idx, out_idx) => {
                let eq = &prog.nodes[node_idx].eqs[eq_idx];
                match eq {
                    Equation::Def { ck, rhs, .. } => {
                        if self.clock_at(inst, ck, n)? {
                            Ok(SVal::Pres(self.eval_cexpr(inst, rhs, n)?))
                        } else {
                            Ok(SVal::Abs)
                        }
                    }
                    Equation::Fby { ck, .. } => {
                        if self.clock_at(inst, ck, n)? {
                            Ok(SVal::Pres(self.hold_at(inst, x, n)?))
                        } else {
                            Ok(SVal::Abs)
                        }
                    }
                    Equation::Call { ck, node: f, .. } => {
                        if !self.clock_at(inst, ck, n)? {
                            return Ok(SVal::Abs);
                        }
                        let sub = self.sub_instance(inst, eq_idx, *f)?;
                        let callee = &prog.nodes[self.insts[sub].node];
                        let out_name = callee.outputs[out_idx].name;
                        let v = self.var_at(sub, out_name, n)?;
                        match v {
                            SVal::Pres(v) => Ok(SVal::Pres(v)),
                            SVal::Abs => Err(SemError::ClockError(format!(
                                "output {out_name} of {f} absent while the call clock is active"
                            ))),
                        }
                    }
                }
            }
        }
    }

    fn sub_instance(&mut self, inst: usize, eq_idx: usize, f: Ident) -> Result<usize, SemError> {
        if let Some(&s) = self.insts[inst].subs.get(&eq_idx) {
            return Ok(s);
        }
        let node =
            self.infos[self.insts[inst].node].callees[eq_idx].ok_or(SemError::UnknownNode(f))?;
        let id = self.insts.len();
        let vars = self.infos[node].bindings.len();
        self.insts.push(Inst::new(node, Some((inst, eq_idx)), vars));
        self.insts[inst].subs.insert(eq_idx, id);
        Ok(id)
    }
}

/// Runs node `f` of `prog` on the given inputs for `n` instants and
/// returns its output streams.
///
/// This is the executable form of the paper's `G ⊢node f(xs, ys)`
/// restricted to a finite prefix.
///
/// # Errors
///
/// See [`Dataflow::run`].
pub fn run_node<O: Ops>(
    prog: &Program<O>,
    f: Ident,
    inputs: &StreamSet<O>,
    n: usize,
) -> Result<StreamSet<O>, SemError> {
    Dataflow::new(prog, f, inputs.as_slice())?.run(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::VarDecl;
    use velus_ops::{CBinOp, CConst, CTy, CVal, ClightOps};

    fn id(s: &str) -> Ident {
        Ident::new(s)
    }

    fn ivar(x: &str) -> Expr<ClightOps> {
        Expr::Var(id(x), CTy::I32)
    }

    fn bvar(x: &str) -> Expr<ClightOps> {
        Expr::Var(id(x), CTy::Bool)
    }

    fn decl(name: &str, ty: CTy) -> VarDecl<ClightOps> {
        VarDecl {
            name: id(name),
            ty,
            ck: Clock::Base,
        }
    }

    /// The paper's counter node (§2, normalized form of Fig. 3):
    ///
    /// node counter(ini, inc: int; res: bool) returns (n: int)
    ///   var c: int; f: bool;
    /// let
    ///   n = if (f or res) then ini else c + inc;
    ///   f = true fby false;
    ///   c = 0 fby n;
    /// tel
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
                            Box::new(bvar("f")),
                            Box::new(bvar("res")),
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

    fn pres(vs: &[i32]) -> Vec<SVal<ClightOps>> {
        vs.iter().map(|&v| SVal::Pres(CVal::int(v))).collect()
    }

    fn presb(vs: &[bool]) -> Vec<SVal<ClightOps>> {
        vs.iter().map(|&v| SVal::Pres(CVal::bool(v))).collect()
    }

    #[test]
    fn counter_accumulates_and_resets() {
        let prog = Program::new(vec![counter()]);
        let inputs = vec![
            pres(&[10, 10, 10, 10, 10]),
            pres(&[1, 2, 3, 4, 5]),
            presb(&[false, false, false, true, false]),
        ];
        let outs = run_node(&prog, id("counter"), &inputs, 5).unwrap();
        // n(0) = ini = 10; then 12, 15; reset to 10; then 15.
        assert_eq!(outs[0], pres(&[10, 12, 15, 10, 15]));
    }

    #[test]
    fn horizon_is_the_shortest_input_prefix() {
        let prog = Program::new(vec![counter()]);
        let inputs = vec![
            pres(&[1, 2, 3]),
            pres(&[1, 2]),
            presb(&[false, false, false]),
        ];
        let eval = Dataflow::new(&prog, id("counter"), inputs).unwrap();
        assert_eq!(eval.horizon(), 2);
        // No inputs: unbounded horizon.
        let loopless = Node {
            name: id("free"),
            inputs: vec![],
            outputs: vec![decl("y", CTy::I32)],
            locals: vec![],
            eqs: vec![Equation::Def {
                x: id("y"),
                ck: Clock::Base,
                rhs: CExpr::Expr(Expr::Const(CConst::int(1))),
            }],
        };
        let prog = Program::new(vec![loopless]);
        let eval = Dataflow::new(&prog, id("free"), vec![]).unwrap();
        assert_eq!(eval.horizon(), usize::MAX);
    }

    #[test]
    fn causality_loop_is_detected() {
        // y = y + 1 has no semantics.
        let node = Node {
            name: id("loopy"),
            inputs: vec![],
            outputs: vec![decl("y", CTy::I32)],
            locals: vec![],
            eqs: vec![Equation::Def {
                x: id("y"),
                ck: Clock::Base,
                rhs: CExpr::Expr(Expr::Binop(
                    CBinOp::Add,
                    Box::new(ivar("y")),
                    Box::new(Expr::Const(CConst::int(1))),
                    CTy::I32,
                )),
            }],
        };
        let prog = Program::new(vec![node]);
        let err = run_node(&prog, id("loopy"), &vec![], 1).unwrap_err();
        assert_eq!(err, SemError::CausalityLoop(id("y")));
    }

    #[test]
    fn fby_breaks_causality() {
        // y = 0 fby (y + 1) is fine.
        let node = Node {
            name: id("count"),
            inputs: vec![],
            outputs: vec![decl("y", CTy::I32)],
            locals: vec![],
            eqs: vec![Equation::Fby {
                x: id("y"),
                ck: Clock::Base,
                init: CConst::int(0),
                rhs: Expr::Binop(
                    CBinOp::Add,
                    Box::new(ivar("y")),
                    Box::new(Expr::Const(CConst::int(1))),
                    CTy::I32,
                ),
            }],
        };
        let prog = Program::new(vec![node]);
        let outs = run_node(&prog, id("count"), &vec![], 4).unwrap();
        assert_eq!(outs[0], pres(&[0, 1, 2, 3]));
    }

    #[test]
    fn division_by_zero_is_an_undefined_operation() {
        let node = Node {
            name: id("divz"),
            inputs: vec![decl("x", CTy::I32)],
            outputs: vec![decl("y", CTy::I32)],
            locals: vec![],
            eqs: vec![Equation::Def {
                x: id("y"),
                ck: Clock::Base,
                rhs: CExpr::Expr(Expr::Binop(
                    CBinOp::Div,
                    Box::new(Expr::Const(CConst::int(1))),
                    Box::new(ivar("x")),
                    CTy::I32,
                )),
            }],
        };
        let prog = Program::new(vec![node]);
        let err = run_node(&prog, id("divz"), &vec![pres(&[0])], 1).unwrap_err();
        assert!(matches!(err, SemError::UndefinedOperation(_)));
    }

    #[test]
    fn node_instantiation_composes() {
        // double_counter calls counter twice, chained.
        let dc = Node {
            name: id("dc"),
            inputs: vec![decl("g", CTy::I32)],
            outputs: vec![decl("s", CTy::I32), decl("p", CTy::I32)],
            locals: vec![],
            eqs: vec![
                Equation::Call {
                    xs: vec![id("s")],
                    ck: Clock::Base,
                    node: id("counter"),
                    args: vec![
                        Expr::Const(CConst::int(0)),
                        ivar("g"),
                        Expr::Const(CConst::bool(false)),
                    ],
                },
                Equation::Call {
                    xs: vec![id("p")],
                    ck: Clock::Base,
                    node: id("counter"),
                    args: vec![
                        Expr::Const(CConst::int(0)),
                        ivar("s"),
                        Expr::Const(CConst::bool(false)),
                    ],
                },
            ],
        };
        let prog = Program::new(vec![counter(), dc]);
        // This is the d_integrator of Fig. 3; §2.2's table gives the values.
        let acc = pres(&[0, 2, 4, -2, 0, 3, -3, 2]);
        let outs = run_node(&prog, id("dc"), &vec![acc], 8).unwrap();
        assert_eq!(outs[0], pres(&[0, 2, 6, 4, 4, 7, 4, 6]));
        assert_eq!(outs[1], pres(&[0, 2, 8, 12, 16, 23, 27, 33]));
    }

    #[test]
    fn sampled_instantiation_runs_slower() {
        // o = counter(0 when x, 1 when x, false when x): counts activations
        // (starting at 0 on the first).
        let on_x = Clock::Base.on(id("x"), true);
        let n = Node {
            name: id("sampled"),
            inputs: vec![decl("x", CTy::Bool)],
            outputs: vec![decl("o", CTy::I32)],
            locals: vec![VarDecl {
                name: id("c"),
                ty: CTy::I32,
                ck: on_x.clone(),
            }],
            eqs: vec![
                Equation::Call {
                    xs: vec![id("c")],
                    ck: on_x.clone(),
                    node: id("counter"),
                    args: vec![
                        Expr::When(Box::new(Expr::Const(CConst::int(0))), id("x"), true),
                        Expr::When(Box::new(Expr::Const(CConst::int(1))), id("x"), true),
                        Expr::When(Box::new(Expr::Const(CConst::bool(false))), id("x"), true),
                    ],
                },
                Equation::Def {
                    x: id("o"),
                    ck: Clock::Base,
                    rhs: CExpr::Merge(
                        id("x"),
                        Box::new(CExpr::Expr(Expr::Var(id("c"), CTy::I32))),
                        Box::new(CExpr::Expr(Expr::When(
                            Box::new(Expr::Const(CConst::int(-1))),
                            id("x"),
                            false,
                        ))),
                    ),
                },
            ],
        };
        let prog = Program::new(vec![counter(), n]);
        let xs = presb(&[false, true, true, false, true]);
        let outs = run_node(&prog, id("sampled"), &vec![xs], 5).unwrap();
        assert_eq!(outs[0], pres(&[-1, 0, 1, -1, 2]));
    }
}
