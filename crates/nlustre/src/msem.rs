//! The intermediate semantic model with exposed memories (§3.2).
//!
//! The dataflow judgment `G ⊢node f(xs, ys)` hides internal streams, which
//! blocks the correctness invariant of the translation. The paper's key
//! device is a second judgment `G ⊢mnode f(xs, M, ys)` that exposes a
//! memory tree `M`, isomorphic to the instance tree, mapping each `fby`
//! variable to the stream of values its imperative `state(x)` cell should
//! take across iterations.
//!
//! The executable rendition here evaluates *instant by instant*, carrying
//! the current memory tree — "taking an instantaneous snapshot gives the
//! usual imperative one" (§7) — and optionally records the full stream
//! tree `M` for checking `MemCorres` against an Obc execution.
//!
//! Evaluation requires the node's equations to be well scheduled (as does
//! the translation): within one instant, variables are read after they
//! are written, except `fby` variables which are read before.

use velus_common::{Ident, IdentMap, NodeId};
use velus_ops::Ops;

use crate::ast::{CExpr, CExprId, Equation, Expr, ExprId, Exprs, Node, Program};
use crate::clock::Clock;
use crate::memory::Memory;
use crate::streams::{SVal, StreamSet};
use crate::SemError;

/// The exposed memory `M`: for every `fby` variable, the stream of values
/// taken by the corresponding state cell, with sub-trees for instances.
pub type MemTrace<O> = Memory<Vec<<O as Ops>::Val>>;

/// Builds the initial memory tree for `node`: each `fby` cell holds its
/// initial constant, each instance holds the callee's initial tree.
///
/// This mirrors what the generated `reset` method establishes.
pub fn initial_memory<O: Ops>(prog: &Program<O>, node: &Node<O>) -> Memory<O::Val> {
    let mut mem = Memory::new();
    for eq in &node.eqs {
        match eq {
            Equation::Fby { x, init, .. } => mem.set_value(*x, O::sem_const(init)),
            Equation::Call { xs, node: f, .. } => {
                let sub = initial_memory(prog, &prog.nodes[f.index()]);
                mem.instances.insert(xs[0], sub);
            }
            Equation::Def { .. } => {}
        }
    }
    mem
}

/// Instantaneous environment `R` for one node, one instant.
type Env<O> = IdentMap<SVal<O>>;

/// One node's evaluation context for one instant: the local environment
/// plus read access to the memory tree. A `fby` variable that has not yet
/// been assigned in `env` reads its *pre-instant* memory value — the
/// paper's rule `sx(n) = ⟨ms(n)⟩` — which is what lets correctly scheduled
/// readers run before the `fby` equation itself.
struct Ctx<'a, O: Ops> {
    env: &'a Env<O>,
    mem: &'a Memory<O::Val>,
    base: bool,
}

impl<O: Ops> Ctx<'_, O> {
    fn read(&self, x: Ident) -> Result<SVal<O>, SemError> {
        if let Some(v) = self.env.get(&x) {
            return Ok(v.clone());
        }
        if let Some(v) = self.mem.value(x) {
            return Ok(SVal::Pres(v.clone()));
        }
        Err(SemError::BadSchedule(format!(
            "variable {x} read before written"
        )))
    }
}

fn clock_true<O: Ops>(ctx: &Ctx<'_, O>, ck: &Clock) -> Result<bool, SemError> {
    match ck {
        Clock::Base => Ok(ctx.base),
        Clock::On(parent, x, k) => {
            if !clock_true::<O>(ctx, parent)? {
                return Ok(false);
            }
            match ctx.read(*x)? {
                SVal::Pres(v) => match O::as_bool(&v) {
                    Some(b) => Ok(b == *k),
                    None => Err(SemError::TypeError(format!(
                        "clock variable {x} non-boolean"
                    ))),
                },
                SVal::Abs => Err(SemError::ClockError(format!(
                    "clock variable {x} absent under active parent clock"
                ))),
            }
        }
    }
}

/// Evaluates `e` of `ex` in one loop over its post-order run, with
/// `vals` as the value stack.
fn eval_expr<O: Ops>(
    ctx: &Ctx<'_, O>,
    ex: &Exprs<O>,
    vals: &mut Vec<O::Val>,
    e: ExprId,
) -> Result<O::Val, SemError> {
    let read = |x: Ident| match ctx.read(x)? {
        SVal::Pres(v) => Ok(v),
        SVal::Abs => Err(SemError::ClockError(format!(
            "variable {x} absent under active clock"
        ))),
    };
    // A leaf needs no stack.
    match &ex[e] {
        Expr::Const(c) => return Ok(O::sem_const(c)),
        Expr::Var(x, _) => return read(*x),
        _ => vals.clear(),
    }
    for node in ex.tree(e) {
        let v = match node {
            Expr::Const(c) => O::sem_const(c),
            Expr::Var(x, _) => read(*x)?,
            Expr::Unop(op, e1, _) => {
                let v = vals.pop().expect("operand value");
                let ty = ex.ty(*e1);
                O::sem_unop(*op, &v, &ty)
                    .ok_or_else(|| SemError::UndefinedOperation(format!("{op} {v}")))?
            }
            Expr::Binop(op, e1, e2, _) => {
                let v2 = vals.pop().expect("operand value");
                let v1 = vals.pop().expect("operand value");
                O::sem_binop(*op, &v1, &ex.ty(*e1), &v2, &ex.ty(*e2))
                    .ok_or_else(|| SemError::UndefinedOperation(format!("{v1} {op} {v2}")))?
            }
            Expr::When(..) => continue,
        };
        vals.push(v);
    }
    Ok(vals.pop().expect("the expression's value"))
}

/// Evaluates control expression `ce`: a mux evaluates its guard and
/// both branches, in that order; a merge only the selected branch. The
/// recursion follows the `merge`/`if` nesting only, as the statements it
/// compiles to do; `vals` is the value stack of the simple expressions.
fn eval_cexpr<O: Ops>(
    ctx: &Ctx<'_, O>,
    ex: &Exprs<O>,
    vals: &mut Vec<O::Val>,
    ce: CExprId,
) -> Result<O::Val, SemError> {
    match ex[ce] {
        CExpr::Expr(e) => eval_expr::<O>(ctx, ex, vals, e),
        CExpr::Merge(x, t, f) => match ctx.read(x)? {
            SVal::Pres(v) => match O::as_bool(&v) {
                Some(true) => eval_cexpr::<O>(ctx, ex, vals, t),
                Some(false) => eval_cexpr::<O>(ctx, ex, vals, f),
                None => Err(SemError::TypeError("merge on non-boolean".to_owned())),
            },
            SVal::Abs => Err(SemError::ClockError(format!(
                "merge variable {x} unavailable"
            ))),
        },
        CExpr::If(c, t, f) => {
            let cv = eval_expr::<O>(ctx, ex, vals, c)?;
            let tv = eval_cexpr::<O>(ctx, ex, vals, t)?;
            let fv = eval_cexpr::<O>(ctx, ex, vals, f)?;
            match O::as_bool(&cv) {
                Some(true) => Ok(tv),
                Some(false) => Ok(fv),
                None => Err(SemError::TypeError("mux guard non-boolean".to_owned())),
            }
        }
    }
}

/// The instant-by-instant evaluator with explicit memory.
///
/// Callees are found by their id; the environments
/// of the root and of every call level are cleared and reused from one
/// instant to the next, so a step allocates only when a map first grows.
pub struct MSem<'p, O: Ops> {
    node: &'p Node<O>,
    mem: Memory<O::Val>,
    /// When true, [`MSem::trace`] accumulates the exposed memory streams.
    record: bool,
    trace: MemTrace<O>,
    steps: usize,
    /// Instants the current [`MSem::run`] records: the capacity of each
    /// new memory stream.
    span: usize,
    /// The root node's environment of the latest instant.
    env: Env<O>,
    frames: Frames<'p, O>,
}

/// The program's nodes and the reusable callee environments of [`MSem`].
struct Frames<'p, O: Ops> {
    /// The nodes, indexed by the calls' ids.
    nodes: &'p [Node<O>],
    /// Idle environments, taken by a call and given back on return.
    pool: Vec<Env<O>>,
    /// The value stack of the expression walks.
    vals: Vec<O::Val>,
}

impl<'p, O: Ops> MSem<'p, O> {
    /// Creates an evaluator for node `f`, with the memory in its initial
    /// (post-`reset`) state.
    ///
    /// # Errors
    ///
    /// Fails if the node does not exist.
    pub fn new(prog: &'p Program<O>, f: NodeId) -> Result<Self, SemError> {
        let node = prog.node(f).ok_or(SemError::UnknownNode(f))?;
        let mem = initial_memory(prog, node);
        Ok(MSem {
            node,
            mem,
            record: false,
            trace: Memory::new(),
            steps: 0,
            span: 0,
            env: IdentMap::default(),
            frames: Frames {
                nodes: &prog.nodes,
                pool: Vec::new(),
                vals: Vec::new(),
            },
        })
    }

    /// Enables recording of the exposed-memory streams `M`.
    pub fn recording(mut self) -> Self {
        self.record = true;
        self
    }

    /// The current memory tree (the instantaneous snapshot).
    pub fn memory(&self) -> &Memory<O::Val> {
        &self.mem
    }

    /// The recorded memory streams; `trace.values[x][n]` is the value of
    /// the paper's `M.values(x)(n)` — the state *before* instant `n`.
    pub fn trace(&self) -> &MemTrace<O> {
        &self.trace
    }

    /// Number of instants executed so far.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Executes one instant with the given input values (one per declared
    /// input; all present on an active base, or all absent) and returns
    /// the output values.
    ///
    /// # Errors
    ///
    /// Propagates scheduling violations, clocking inconsistencies and
    /// undefined operator applications.
    pub fn step(&mut self, inputs: &[SVal<O>]) -> Result<Vec<SVal<O>>, SemError> {
        self.instant(inputs)?;
        Ok(self.outputs().collect())
    }

    /// The root outputs of the latest instant.
    fn outputs(&self) -> impl Iterator<Item = SVal<O>> + '_ {
        self.node
            .outputs
            .iter()
            .map(|d| self.env.get(&d.name).cloned().unwrap_or(SVal::Abs))
    }

    /// Executes one instant (see [`MSem::step`]), leaving the root
    /// environment in `self.env`.
    fn instant(&mut self, inputs: &[SVal<O>]) -> Result<(), SemError> {
        if inputs.len() != self.node.inputs.len() {
            return Err(SemError::InputMismatch(format!(
                "{} inputs supplied, {} declared",
                inputs.len(),
                self.node.inputs.len()
            )));
        }
        let base = if inputs.is_empty() {
            true
        } else {
            let p = inputs[0].is_present();
            if inputs.iter().any(|v| v.is_present() != p) {
                return Err(SemError::ClockError(
                    "inputs have mismatched presence".to_owned(),
                ));
            }
            p
        };
        if self.record {
            record_snapshot::<O>(&self.mem, &mut self.trace, self.span);
        }
        let node = self.node;
        self.env.clear();
        for (d, v) in node.inputs.iter().zip(inputs) {
            self.env.insert(d.name, v.clone());
        }
        self.frames
            .step_equations(node, &mut self.mem, &mut self.env, base)?;
        self.steps += 1;
        Ok(())
    }

    /// Runs `n` instants from a stream set and collects the outputs.
    ///
    /// # Errors
    ///
    /// See [`MSem::step`].
    pub fn run(&mut self, inputs: &StreamSet<O>, n: usize) -> Result<StreamSet<O>, SemError> {
        let mut outs: StreamSet<O> = (0..self.node.outputs.len())
            .map(|_| Vec::with_capacity(n))
            .collect();
        let mut at: Vec<SVal<O>> = Vec::with_capacity(inputs.len());
        self.span = self.steps + n;
        for i in 0..n {
            at.clear();
            for s in inputs {
                at.push(s.get(i).cloned().ok_or_else(|| {
                    SemError::InputMismatch(format!("input stream exhausted at instant {i}"))
                })?);
            }
            self.instant(&at)?;
            for (out, v) in outs.iter_mut().zip(self.outputs()) {
                out.push(v);
            }
        }
        Ok(outs)
    }
}

/// Appends the current value of every cell (recursively) to the trace;
/// a new stream gets room for `span` values.
fn record_snapshot<O: Ops>(mem: &Memory<O::Val>, trace: &mut MemTrace<O>, span: usize) {
    for (x, v) in &mem.values {
        trace
            .values
            .entry(*x)
            .or_insert_with(|| Vec::with_capacity(span))
            .push(v.clone());
    }
    for (i, sub) in &mem.instances {
        record_snapshot::<O>(sub, trace.instance_mut(*i), span);
    }
}

impl<'p, O: Ops> Frames<'p, O> {
    /// Evaluates the equations of `node` (in their scheduled order) for
    /// one instant, updating `mem` and filling `env`.
    fn step_equations(
        &mut self,
        node: &'p Node<O>,
        mem: &mut Memory<O::Val>,
        env: &mut Env<O>,
        base: bool,
    ) -> Result<(), SemError> {
        let ex = &node.exprs;
        for eq in &node.eqs {
            let active = clock_true::<O>(&Ctx { env, mem, base }, eq.clock())?;
            match eq {
                Equation::Def { x, rhs, .. } => {
                    let v = if active {
                        SVal::Pres(eval_cexpr::<O>(
                            &Ctx { env, mem, base },
                            ex,
                            &mut self.vals,
                            *rhs,
                        )?)
                    } else {
                        SVal::Abs
                    };
                    env.insert(*x, v);
                }
                Equation::Fby { x, rhs, .. } => {
                    if active {
                        let cur = mem.value(*x).cloned().ok_or_else(|| {
                            SemError::Malformed(format!("missing memory cell {x}"))
                        })?;
                        env.insert(*x, SVal::Pres(cur));
                        let next =
                            eval_expr::<O>(&Ctx { env, mem, base }, ex, &mut self.vals, *rhs)?;
                        mem.set_value(*x, next);
                    } else {
                        env.insert(*x, SVal::Abs);
                    }
                }
                Equation::Call {
                    xs, node: f, args, ..
                } => {
                    let callee = &self.nodes[f.index()];
                    if active {
                        let mut sub_env = self.pool.pop().unwrap_or_default();
                        sub_env.clear();
                        for (k, &a) in args.iter().enumerate() {
                            let ctx = Ctx { env, mem, base };
                            let v = eval_expr::<O>(&ctx, ex, &mut self.vals, a)?;
                            if let Some(d) = callee.inputs.get(k) {
                                sub_env.insert(d.name, SVal::Pres(v));
                            }
                        }
                        let sub = mem.instance_mut(xs[0]);
                        self.step_equations(callee, sub, &mut sub_env, true)?;
                        for (x, d) in xs.iter().zip(&callee.outputs) {
                            let v = sub_env
                                .get(&d.name)
                                .cloned()
                                .ok_or(SemError::UndefinedVariable(d.name))?;
                            env.insert(*x, v);
                        }
                        self.pool.push(sub_env);
                    } else {
                        for x in xs {
                            env.insert(*x, SVal::Abs);
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// Runs node `f` for `n` instants, recording the exposed memory: the
/// executable `G ⊢mnode f(xs, M, ys)`.
///
/// Returns the outputs and the memory stream tree `M`.
///
/// # Errors
///
/// See [`MSem::step`].
pub fn run_node_with_memory<O: Ops>(
    prog: &Program<O>,
    f: NodeId,
    inputs: &StreamSet<O>,
    n: usize,
) -> Result<(StreamSet<O>, MemTrace<O>), SemError> {
    let mut m = MSem::new(prog, f)?.recording();
    let outs = m.run(inputs, n)?;
    Ok((outs, m.trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::VarDecl;
    use crate::dataflow;
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

    fn pres(vs: &[i32]) -> Vec<SVal<ClightOps>> {
        vs.iter().map(|&v| SVal::Pres(CVal::int(v))).collect()
    }

    /// cum = 0 fby (cum + x), scheduled form: y = cum + x; cum = 0 fby y.
    fn accumulator() -> Program<ClightOps> {
        let mut ex = Exprs::new();
        let (cum, x) = (ex.var(id("cum"), CTy::I32), ex.var(id("x"), CTy::I32));
        let sum = ex.binop(CBinOp::Add, cum, x, CTy::I32);
        let y_rhs = ex.simple(sum);
        let y = ex.var(id("y"), CTy::I32);
        let node = Node {
            name: id("acc"),
            inputs: vec![decl("x", CTy::I32)],
            outputs: vec![decl("y", CTy::I32)],
            locals: vec![decl("cum", CTy::I32)],
            eqs: vec![
                Equation::Def {
                    x: id("y"),
                    ck: Clock::Base,
                    rhs: y_rhs,
                },
                Equation::Fby {
                    x: id("cum"),
                    ck: Clock::Base,
                    init: CConst::int(0),
                    rhs: y,
                },
            ],
            exprs: ex,
        };
        Program::new(vec![node])
    }

    #[test]
    fn matches_dataflow_semantics() {
        let prog = accumulator();
        let inputs = vec![pres(&[1, 2, 3, 4])];
        let df = dataflow::run_node(&prog, NodeId::new(0), &inputs, 4).unwrap();
        let (ms, _) = run_node_with_memory(&prog, NodeId::new(0), &inputs, 4).unwrap();
        assert_eq!(df, ms);
        assert_eq!(ms[0], pres(&[1, 3, 6, 10]));
    }

    #[test]
    fn memory_trace_is_the_pre_instant_state() {
        let prog = accumulator();
        let inputs = vec![pres(&[1, 2, 3, 4])];
        let (_, m) = run_node_with_memory(&prog, NodeId::new(0), &inputs, 4).unwrap();
        // M.values(cum)(n) is the state before instant n: 0, 1, 3, 6.
        let cum: Vec<i32> = m.values[&id("cum")]
            .iter()
            .map(|v| match v {
                CVal::Int(i) => *i,
                _ => panic!(),
            })
            .collect();
        assert_eq!(cum, vec![0, 1, 3, 6]);
    }

    #[test]
    fn reading_before_writing_is_a_schedule_error() {
        // Unscheduled: y reads z before z's equation runs.
        let mut ex = Exprs::new();
        let z = ex.var(id("z"), CTy::I32);
        let z = ex.simple(z);
        let x = ex.var(id("x"), CTy::I32);
        let x = ex.simple(x);
        let node = Node {
            name: id("bad"),
            inputs: vec![decl("x", CTy::I32)],
            outputs: vec![decl("y", CTy::I32)],
            locals: vec![decl("z", CTy::I32)],
            eqs: vec![
                Equation::Def {
                    x: id("y"),
                    ck: Clock::Base,
                    rhs: z,
                },
                Equation::Def {
                    x: id("z"),
                    ck: Clock::Base,
                    rhs: x,
                },
            ],
            exprs: ex,
        };
        let prog = Program::new(vec![node]);
        let mut m = MSem::new(&prog, NodeId::new(0)).unwrap();
        let err = m.step(&pres(&[1])).unwrap_err();
        assert!(matches!(err, SemError::BadSchedule(_)));
    }
}
