//! Worst-case execution time estimation over generated Clight (§5).
//!
//! The paper estimates the WCET of generated `step` functions with the
//! OTAWA v5 framework ("trivial" script, default parameters) on
//! armv7-a/vfpv3-d16 binaries produced by CompCert 2.6 and GCC 4.8
//! (`-O1`, with and without inlining). None of those tools fit in a pure
//! Rust reproduction, so this crate substitutes a *static longest-path
//! cycle analysis* directly on the Clight AST:
//!
//! * `step` bodies are loop-free by construction, so the worst case is a
//!   max-over-branches / sum-over-sequences traversal;
//! * an ARM-flavoured cost table charges loads/stores, ALU and VFP
//!   operations, compare-and-branch penalties, call overheads and
//!   register-pressure spills;
//! * the three back-end models reproduce the *mechanisms* the paper uses
//!   to explain Fig. 12: [`CostModel::CompCert`] keeps every conditional
//!   as a branch and every call out of line; [`CostModel::Gcc`] adds
//!   if-conversion of small call-free branches to predicated instructions
//!   ("GCC applies 'if-conversions' to exploit predicated ARM
//!   instructions") and cheaper folded addressing; [`CostModel::GccInline`]
//!   additionally inlines calls transitively ("the estimated WCETs for
//!   the Lustre v6 generated code only become competitive when inlining
//!   is enabled").
//!
//! Absolute numbers are not comparable to the paper's (different
//! hardware model); the *relationships* between compilation schemes are.

use velus_clight::ast::{Expr, ExprId, Exprs, Function, Program, Stmt};
use velus_common::{Ident, NodeId};
use velus_ops::{CBinOp, CTy, CUnOp};

/// Which back end's code shape to model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CostModel {
    /// CompCert 2.6-like: straightforward instruction selection, no
    /// if-conversion, no inlining.
    CompCert,
    /// GCC 4.8 `-O1`-like: if-conversion of small branches, folded
    /// addressing, slightly cheaper calls.
    Gcc,
    /// GCC with inlining: every internal call inlined transitively.
    GccInline,
}

impl CostModel {
    /// All models, in the paper's column order.
    pub const ALL: [CostModel; 3] = [CostModel::CompCert, CostModel::Gcc, CostModel::GccInline];
}

/// Errors of the analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WcetError {
    /// A function index past the program's functions.
    UnknownFunction(usize),
    /// The program has no class with this id.
    UnknownRoot(NodeId),
    /// The function contains a loop (only the simulation `main` does).
    LoopInAnalyzedCode(Ident),
}

impl std::fmt::Display for WcetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WcetError::UnknownFunction(g) => write!(f, "unknown function #{g}"),
            WcetError::UnknownRoot(k) => write!(f, "unknown root class {k}"),
            WcetError::LoopInAnalyzedCode(g) => write!(f, "loop in analyzed function {g}"),
        }
    }
}

impl std::error::Error for WcetError {}

/// The cost table. All costs in cycles.
#[derive(Debug, Clone)]
struct Costs {
    /// Register-to-register move / immediate load.
    reg: u64,
    /// Address computation for a field access (folded to 0 by GCC).
    addr: u64,
    /// Memory load / store.
    mem: u64,
    /// Integer ALU op.
    alu: u64,
    /// Integer multiply.
    mul: u64,
    /// Integer divide (library call on armv7 without hardware divide).
    div: u64,
    /// VFP add/sub/mul.
    fop: u64,
    /// VFP divide.
    fdiv: u64,
    /// Int/float conversions.
    cvt: u64,
    /// Compare + conditional branch penalty (pessimistic, as with the
    /// "trivial" OTAWA script).
    branch: u64,
    /// Predicated-execution overhead per if-converted conditional.
    predicate: u64,
    /// Call overhead (save/restore, branch-and-link, prologue/epilogue).
    call: u64,
    /// Per-argument move at a call site.
    arg: u64,
    /// Function prologue/epilogue.
    frame: u64,
    /// Volatile access.
    vol: u64,
    /// Number of general-purpose registers before spilling starts.
    regs: usize,
    /// Cost per spilled temporary (store + reload, amortized).
    spill: u64,
    /// Whether small call-free conditionals are if-converted.
    if_conversion: bool,
    /// Whether internal calls are inlined.
    inline: bool,
}

fn costs(model: CostModel) -> Costs {
    match model {
        CostModel::CompCert => Costs {
            reg: 1,
            addr: 1,
            mem: 2,
            alu: 1,
            mul: 3,
            div: 24,
            fop: 4,
            fdiv: 28,
            cvt: 4,
            branch: 4,
            predicate: 1,
            call: 14,
            arg: 1,
            frame: 6,
            vol: 3,
            regs: 9,
            spill: 6,
            if_conversion: false,
            inline: false,
        },
        CostModel::Gcc | CostModel::GccInline => Costs {
            reg: 1,
            addr: 0,
            mem: 2,
            alu: 1,
            mul: 3,
            div: 24,
            fop: 4,
            fdiv: 28,
            cvt: 4,
            branch: 4,
            predicate: 1,
            call: 10,
            arg: 1,
            frame: 4,
            vol: 3,
            regs: 11,
            spill: 4,
            if_conversion: true,
            inline: model == CostModel::GccInline,
        },
    }
}

struct Analyzer<'p> {
    prog: &'p Program,
    c: Costs,
    /// The full cost of each function analyzed so far, by index.
    memo: Vec<Option<u64>>,
}

impl Analyzer<'_> {
    /// The cost of expression `e` of `ex`: the sum of its nodes' own
    /// costs, in one loop over its post-order run.
    fn expr(&self, ex: &Exprs, e: ExprId) -> u64 {
        ex.tree(e).iter().map(|n| self.node(ex, n)).sum()
    }

    /// The cost of one node, its operands aside.
    fn node(&self, ex: &Exprs, n: &Expr) -> u64 {
        match n {
            Expr::Const(..) => self.c.reg,
            Expr::Temp(..) => 0,
            Expr::Var(..) => self.c.addr + self.c.mem,
            // The base of a field access is an addressable variable
            // (no address arithmetic) or a pointer temporary (free).
            Expr::Field(..) | Expr::DerefField(..) => self.c.addr + self.c.mem,
            Expr::AddrOf(place) => self.addr(ex, &place.lvalue()) + self.c.reg,
            Expr::Unop(op, _, _) => match op {
                CUnOp::Not | CUnOp::Neg => self.c.alu,
                CUnOp::Cast(to) => {
                    if to.is_float() {
                        self.c.cvt
                    } else {
                        self.c.alu
                    }
                }
            },
            Expr::Binop(op, e1, _, ty) => {
                let is_float = matches!(ty, CTy::F32 | CTy::F64)
                    || matches!(ex[*e1].ty().as_scalar(), Some(t) if t.is_float());
                match op {
                    CBinOp::Mul if !is_float => self.c.mul,
                    CBinOp::Div | CBinOp::Mod if !is_float => self.c.div,
                    CBinOp::Mul | CBinOp::Div if is_float => self.c.fdiv.min(self.c.fop * 2),
                    _ if is_float => self.c.fop,
                    _ => self.c.alu,
                }
            }
        }
    }

    /// The cost of computing the address of lvalue `e` of `ex`.
    fn expr_addr(&self, ex: &Exprs, e: ExprId) -> u64 {
        match &ex[e] {
            Expr::Unop(..) | Expr::Binop(..) => self.expr(ex, e),
            leaf => self.addr(ex, leaf),
        }
    }

    /// The address cost of a leaf lvalue.
    fn addr(&self, ex: &Exprs, e: &Expr) -> u64 {
        match e {
            Expr::Var(..) => 0,
            Expr::Field(..) | Expr::DerefField(..) => self.c.addr,
            other => self.node(ex, other),
        }
    }

    /// Whether a branch is small and effect-free enough for predication.
    fn if_convertible(b: &[Stmt]) -> bool {
        fn atoms(b: &[Stmt]) -> Option<usize> {
            b.iter()
                .map(|s| match s {
                    Stmt::Assign(..) | Stmt::Set(..) => Some(1),
                    Stmt::If(_, t, f) => Some(1 + atoms(t)? + atoms(f)?),
                    Stmt::Call { .. }
                    | Stmt::VolLoad(..)
                    | Stmt::VolStore(..)
                    | Stmt::Loop(..)
                    | Stmt::Return(..) => None,
                })
                .sum()
        }
        matches!(atoms(b), Some(n) if n <= 4)
    }

    /// A block costs the sum of its statements.
    fn block(&mut self, fname: Ident, ex: &Exprs, b: &[Stmt]) -> Result<u64, WcetError> {
        b.iter().map(|s| self.stmt(fname, ex, s)).sum()
    }

    fn stmt(&mut self, fname: Ident, ex: &Exprs, s: &Stmt) -> Result<u64, WcetError> {
        Ok(match s {
            Stmt::Set(_, e) => self.expr(ex, *e) + self.c.reg,
            Stmt::Assign(lv, e) => {
                self.expr(ex, *e) + self.expr_addr(ex, *lv) + self.c.addr + self.c.mem
            }
            Stmt::If(cnd, t, f) => {
                let cond = self.expr(ex, *cnd) + self.c.alu;
                let tc = self.block(fname, ex, t)?;
                let fc = self.block(fname, ex, f)?;
                if self.c.if_conversion && Self::if_convertible(t) && Self::if_convertible(f) {
                    cond + tc + fc + self.c.predicate
                } else {
                    cond + self.c.branch + tc.max(fc)
                }
            }
            Stmt::Call(dest, g, args) => {
                let args_cost: u64 = args.iter().map(|&a| self.expr(ex, a) + self.c.arg).sum();
                let callee = if self.c.inline {
                    self.function_body_cost(*g)?
                } else {
                    self.c.call + self.function_cost(*g)?
                };
                args_cost + callee + if dest.is_some() { self.c.reg } else { 0 }
            }
            Stmt::VolLoad(..) => self.c.vol + self.c.reg,
            Stmt::VolStore(_, e) => self.expr(ex, *e) + self.c.vol,
            Stmt::Loop(_) => return Err(WcetError::LoopInAnalyzedCode(fname)),
            Stmt::Return(e) => e.map_or(0, |e| self.expr(ex, e)) + self.c.reg,
        })
    }

    /// Body cost without frame overhead (for inlining).
    fn function_body_cost(&mut self, f: usize) -> Result<u64, WcetError> {
        // Borrowed for the program's lifetime, not through `self`, so the
        // body is walked in place rather than cloned.
        let f: &Function = self
            .prog
            .functions
            .get(f)
            .ok_or(WcetError::UnknownFunction(f))?;
        self.block(f.name, &f.exprs, &f.body)
    }

    /// Full cost: frame + spills + body. Memoized.
    fn function_cost(&mut self, i: usize) -> Result<u64, WcetError> {
        if let Some(&Some(c)) = self.memo.get(i) {
            return Ok(c);
        }
        let body = self.function_body_cost(i)?;
        let f: &Function = &self.prog.functions[i];
        let live = f.temps.len() + f.params.len();
        let spills = live.saturating_sub(self.c.regs) as u64 * self.c.spill;
        let total = self.c.frame + spills + body;
        self.memo[i] = Some(total);
        Ok(total)
    }
}

/// Estimates the WCET in cycles of function `functions[f]` of `prog` under
/// the given cost model.
///
/// # Errors
///
/// An unknown function; loops in the analyzed code (only the generated
/// `main` contains one — analyze `step` functions).
pub fn wcet_function(prog: &Program, f: usize, model: CostModel) -> Result<u64, WcetError> {
    let mut a = Analyzer {
        prog,
        c: costs(model),
        memo: vec![None; prog.functions.len()],
    };
    a.function_cost(f)
}

/// Estimates the WCET of the `step` function of class `root` — the
/// quantity reported in Fig. 12.
///
/// # Errors
///
/// An unknown root class; see [`wcet_function`].
pub fn wcet_step(prog: &Program, root: NodeId, model: CostModel) -> Result<u64, WcetError> {
    let step = prog
        .method_fn(root, velus_obc::ast::STEP)
        .ok_or(WcetError::UnknownRoot(root))?;
    wcet_function(prog, step, model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use velus_clight::ast::{Expr, ExprId, Exprs, Function, Program, Stmt};
    use velus_clight::ctypes::CType;
    use velus_ops::CVal;

    fn id(s: &str) -> Ident {
        Ident::new(s)
    }

    fn iconst(ex: &mut Exprs, v: i32) -> ExprId {
        ex.push(Expr::Const(CVal::int(v), CTy::I32))
    }

    fn truth(ex: &mut Exprs) -> ExprId {
        ex.push(Expr::Const(CVal::bool(true), CTy::Bool))
    }

    /// `x = 1`.
    fn set(ex: &mut Exprs, x: &str) -> Stmt {
        Stmt::Set(id(x), iconst(ex, 1))
    }

    fn prog_with(body: Vec<Stmt>, ex: Exprs, temps: usize) -> Program {
        Program {
            composites: vec![],
            functions: vec![Function {
                name: id("f"),
                params: vec![],
                vars: vec![],
                temps: (0..temps)
                    .map(|i| (Ident::new(&format!("t{i}")), CType::Scalar(CTy::I32)))
                    .collect(),
                ret: CType::Void,
                body,
                exprs: ex,
            }],
            ..Program::default()
        }
    }

    #[test]
    fn branches_are_maxed_under_compcert() {
        // if c then {8 sets} else {1 set}: WCET takes the 8-set arm.
        let mut ex = Exprs::new();
        let heavy: Vec<Stmt> = (0..8).map(|_| set(&mut ex, "x")).collect();
        let light = vec![set(&mut ex, "x")];
        let s = Stmt::If(truth(&mut ex), heavy.clone(), light.clone());
        let p = prog_with(vec![s], ex.clone(), 1);
        let both = wcet_function(&p, 0, CostModel::CompCert).unwrap();
        let p_heavy = prog_with(heavy, ex.clone(), 1);
        let heavy_only = wcet_function(&p_heavy, 0, CostModel::CompCert).unwrap();
        assert!(both > heavy_only, "{both} vs {heavy_only}");
        // But not by the cost of the light branch too.
        let p_light = prog_with(light, ex, 1);
        let light_only = wcet_function(&p_light, 0, CostModel::CompCert).unwrap();
        assert!(both < heavy_only + light_only + 10);
    }

    #[test]
    fn gcc_if_converts_small_branches() {
        // A tiny conditional: gcc pays both arms but no branch penalty;
        // repeated many times the predicated form must be cheaper than
        // branch-penalty form when arms are single sets.
        let mut ex = Exprs::new();
        let tiny = Stmt::If(truth(&mut ex), vec![set(&mut ex, "x")], vec![]);
        let s = vec![tiny; 10];
        let p = prog_with(s, ex, 1);
        let cc = wcet_function(&p, 0, CostModel::CompCert).unwrap();
        let gcc = wcet_function(&p, 0, CostModel::Gcc).unwrap();
        assert!(gcc < cc, "gcc {gcc} vs cc {cc}");
    }

    #[test]
    fn inlining_removes_call_overhead() {
        // g() { set } ; f() { call g x 5 }
        let mut ex = Exprs::new();
        let body = vec![set(&mut ex, "t")];
        let g = Function {
            name: id("g"),
            params: vec![],
            vars: vec![],
            temps: vec![(id("t"), CType::Scalar(CTy::I32))],
            ret: CType::Void,
            body,
            exprs: ex,
        };
        let f = Function {
            name: id("f"),
            params: vec![],
            vars: vec![],
            temps: vec![],
            ret: CType::Void,
            body: vec![Stmt::Call(None, 0, vec![]); 5],
            exprs: Exprs::new(),
        };
        let p = Program {
            composites: vec![],
            functions: vec![g, f],
            ..Program::default()
        };
        let gcc = wcet_function(&p, 1, CostModel::Gcc).unwrap();
        let gcci = wcet_function(&p, 1, CostModel::GccInline).unwrap();
        assert!(gcci < gcc, "{gcci} vs {gcc}");
    }

    #[test]
    fn register_pressure_costs() {
        let mut ex = Exprs::new();
        let s = vec![set(&mut ex, "t0")];
        let few = prog_with(s.clone(), ex.clone(), 2);
        let many = prog_with(s, ex, 30);
        let a = wcet_function(&few, 0, CostModel::CompCert).unwrap();
        let b = wcet_function(&many, 0, CostModel::CompCert).unwrap();
        assert!(b > a);
    }

    #[test]
    fn loops_are_rejected() {
        let p = prog_with(vec![Stmt::Loop(vec![])], Exprs::new(), 0);
        assert!(matches!(
            wcet_function(&p, 0, CostModel::CompCert),
            Err(WcetError::LoopInAnalyzedCode(_))
        ));
    }

    #[test]
    fn integer_division_is_expensive() {
        let op = |op: CBinOp| {
            let mut ex = Exprs::new();
            let (a, b) = (iconst(&mut ex, 10), iconst(&mut ex, 3));
            let e = ex.push(Expr::Binop(op, a, b, CTy::I32));
            prog_with(vec![Stmt::Set(id("t0"), e)], ex, 1)
        };
        let (pd, pa) = (op(CBinOp::Div), op(CBinOp::Add));
        let d = wcet_function(&pd, 0, CostModel::CompCert).unwrap();
        let a = wcet_function(&pa, 0, CostModel::CompCert).unwrap();
        assert!(d > a + 15);
    }
}
