//! Random well-formed N-Lustre program generation.
//!
//! Programs are built so that validity holds *by construction*:
//!
//! * typing: every expression is generated at a target type;
//! * clocking: every expression is generated at a target clock, with
//!   `when` wrapping applied when descending from a sub-clock;
//! * causality: `Def`/`Call` equations only read inputs, variables
//!   defined by *earlier* equations, and `fby` variables (which are reads
//!   of the previous instant); `fby` right-hand sides may read anything.
//!   The generated equation order is therefore already a valid schedule,
//!   and the scheduler is exercised by shuffling before compilation.
//!
//! Division and modulo are generated only with non-zero constant
//! divisors other than -1 (`INT_MIN / -1` overflows and is undefined),
//! so generated programs always *have* a dataflow semantics (the
//! theorem being validated is not vacuous). Ordinary integer overflow
//! wraps identically at every level, so it is allowed.

use rand::prelude::*;

use velus_common::{Ident, NodeId};
use velus_nlustre::ast::{CExprId, Equation, ExprId, Exprs, Node, Program, VarDecl};
use velus_nlustre::clock::Clock;
use velus_nlustre::streams::{SVal, StreamSet};
use velus_ops::{CBinOp, CConst, CTy, CUnOp, CVal, ClightOps};

/// Tunables for program generation.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Number of nodes (later nodes may call earlier ones).
    pub nodes: usize,
    /// Equations per node (in addition to output definitions).
    pub eqs_per_node: usize,
    /// Maximum expression depth.
    pub expr_depth: usize,
    /// Probability (0–100) that an equation lives on a sub-clock.
    pub subclock_pct: u32,
    /// Whether to generate `real` (f64) arithmetic.
    pub floats: bool,
    /// Probability (0–100) of each lint-bait construct per node: an
    /// unused local, a constant condition, a dead sub-clock, and an
    /// interval-opaque (but provably safe) divisor. Every bait construct
    /// is *total* — flagged by the static analyses yet semantically
    /// harmless — so bait-heavy profiles remain usable by the
    /// differential campaign, whose oracles require the program to have
    /// a dataflow semantics.
    pub lint_bait_pct: u32,
    /// Whether divisors may be arbitrary expressions — including the
    /// constant zero and the `i32::MIN / -1` overflow pattern — instead
    /// of safe non-zero constants. Such programs may trap at runtime;
    /// only the campaign's `lint-traps` profile
    /// ([`crate::campaign::lint_traps_profile`]) enables this, so that
    /// its lint-soundness oracle sees guaranteed and possible traps. It
    /// also sets the campaign's trap policy: a trap is an expected
    /// outcome under it and a rig failure under every other profile.
    pub trap_divisors: bool,
}

impl Default for GenConfig {
    fn default() -> GenConfig {
        GenConfig {
            nodes: 3,
            eqs_per_node: 6,
            expr_depth: 3,
            subclock_pct: 40,
            floats: false,
            lint_bait_pct: 0,
            trap_divisors: false,
        }
    }
}

#[derive(Clone)]
struct VarInfo {
    name: Ident,
    ty: CTy,
    ck: Clock,
    /// Whether reads are unrestricted (inputs, already-defined, fby).
    readable: bool,
}

struct NodeGen<'r, R: Rng> {
    rng: &'r mut R,
    cfg: GenConfig,
    vars: Vec<VarInfo>,
    fresh: u32,
    /// The node's expressions, laid out in post-order as they are drawn.
    ex: Exprs<ClightOps>,
}

impl<R: Rng> NodeGen<'_, R> {
    fn fresh(&mut self, prefix: &str) -> Ident {
        self.fresh += 1;
        Ident::new(&format!("{prefix}{}", self.fresh))
    }

    fn pick_ty(&mut self) -> CTy {
        if self.cfg.floats && self.rng.gen_ratio(1, 4) {
            CTy::F64
        } else if self.rng.gen_ratio(1, 3) {
            CTy::Bool
        } else {
            CTy::I32
        }
    }

    fn const_of(&mut self, ty: CTy) -> CConst {
        match ty {
            CTy::Bool => CConst::bool(self.rng.gen()),
            CTy::F64 => CConst::float(f64::from(self.rng.gen_range(-8i32..8)) / 2.0),
            _ => CConst::int(self.rng.gen_range(-10..10)),
        }
    }

    fn readable_vars(&self, ty: CTy, ck: &Clock) -> Vec<VarInfo> {
        self.vars
            .iter()
            .filter(|v| v.readable && v.ty == ty && v.ck == *ck)
            .cloned()
            .collect()
    }

    /// Generates an expression of type `ty` at clock `ck`.
    fn expr(&mut self, ty: CTy, ck: &Clock, depth: usize) -> ExprId {
        // Leaves: variable on the right clock, a sampled parent-clock
        // expression, or a constant.
        if depth == 0 || self.rng.gen_ratio(1, 3) {
            let candidates = self.readable_vars(ty, ck);
            if let Clock::On(parent, x, k) = ck {
                if self.rng.gen_ratio(1, 2) {
                    let inner = self.expr(ty, parent, depth.saturating_sub(1));
                    return self.ex.when(inner, *x, *k);
                }
            }
            if !candidates.is_empty() && self.rng.gen_ratio(3, 4) {
                let v = candidates.choose(self.rng).expect("non-empty");
                return self.ex.var(v.name, v.ty);
            }
            let c = self.const_of(ty);
            return self.ex.constant(c);
        }
        match ty {
            CTy::Bool => match self.rng.gen_range(0..4) {
                0 => {
                    let a = self.expr(CTy::Bool, ck, depth - 1);
                    self.ex.unop(CUnOp::Not, a, CTy::Bool)
                }
                1 => {
                    let op = *[CBinOp::And, CBinOp::Or, CBinOp::Xor]
                        .choose(self.rng)
                        .expect("non-empty");
                    let l = self.expr(CTy::Bool, ck, depth - 1);
                    let r = self.expr(CTy::Bool, ck, depth - 1);
                    self.ex.binop(op, l, r, CTy::Bool)
                }
                _ => {
                    let operand_ty = if self.cfg.floats && self.rng.gen_ratio(1, 4) {
                        CTy::F64
                    } else {
                        CTy::I32
                    };
                    let op = *[
                        CBinOp::Eq,
                        CBinOp::Ne,
                        CBinOp::Lt,
                        CBinOp::Le,
                        CBinOp::Gt,
                        CBinOp::Ge,
                    ]
                    .choose(self.rng)
                    .expect("non-empty");
                    let l = self.expr(operand_ty, ck, depth - 1);
                    let r = self.expr(operand_ty, ck, depth - 1);
                    self.ex.binop(op, l, r, CTy::Bool)
                }
            },
            CTy::F64 => {
                let op = *[CBinOp::Add, CBinOp::Sub, CBinOp::Mul]
                    .choose(self.rng)
                    .expect("non-empty");
                let l = self.expr(CTy::F64, ck, depth - 1);
                let r = self.expr(CTy::F64, ck, depth - 1);
                self.ex.binop(op, l, r, CTy::F64)
            }
            _ => match self.rng.gen_range(0..5) {
                0 => {
                    let a = self.expr(CTy::I32, ck, depth - 1);
                    self.ex.unop(CUnOp::Neg, a, CTy::I32)
                }
                // Division by a non-zero constant only — and never by
                // -1, because the dividend can reach `i32::MIN` at
                // runtime and `INT_MIN / -1` (or `% -1`) overflows, an
                // undefined operation. Both exclusions keep the dataflow
                // semantics total. (The -1 case is not hypothetical: the
                // differential campaign found it at seed 306.)
                //
                // Under `trap_divisors` both exclusions are lifted: the
                // lint-soundness oracle *wants* programs whose divisions
                // can (or must) trap, so it can hold the range analysis's
                // verdicts against real executions.
                1 => {
                    let op = if self.rng.gen() {
                        CBinOp::Div
                    } else {
                        CBinOp::Mod
                    };
                    if self.cfg.trap_divisors && self.rng.gen_ratio(1, 12) {
                        // The overflow trap: `i32::MIN op -1`.
                        let min = self.ex.constant(CConst::int(i32::MIN));
                        let minus_one = self.ex.constant(CConst::int(-1));
                        return self.ex.binop(op, min, minus_one, CTy::I32);
                    }
                    // The divisor is drawn before the dividend but laid
                    // out after it, as post-order wants: a constant is
                    // pushed late, a drawn expression goes to a pool of
                    // its own and is copied over.
                    let divisor = if self.cfg.trap_divisors && self.rng.gen_ratio(1, 2) {
                        if self.rng.gen_ratio(1, 4) {
                            // A certain divide-by-zero wherever it runs.
                            Err(CConst::int(0))
                        } else {
                            // An arbitrary divisor whose runtime value
                            // may or may not hit 0 (or -1).
                            let outer = std::mem::take(&mut self.ex);
                            let d = self.expr(CTy::I32, ck, depth - 1);
                            Ok((std::mem::replace(&mut self.ex, outer), d))
                        }
                    } else {
                        let mut d = self.rng.gen_range(1..7);
                        if self.rng.gen() && d != 1 {
                            d = -d;
                        }
                        Err(CConst::int(d))
                    };
                    let dividend = self.expr(CTy::I32, ck, depth - 1);
                    let divisor = match divisor {
                        Ok((pool, d)) => self.ex.copy_expr(&pool, d),
                        Err(c) => self.ex.constant(c),
                    };
                    self.ex.binop(op, dividend, divisor, CTy::I32)
                }
                _ => {
                    let op = *[CBinOp::Add, CBinOp::Sub, CBinOp::Mul]
                        .choose(self.rng)
                        .expect("non-empty");
                    let l = self.expr(CTy::I32, ck, depth - 1);
                    let r = self.expr(CTy::I32, ck, depth - 1);
                    self.ex.binop(op, l, r, CTy::I32)
                }
            },
        }
    }

    /// A control expression: sometimes a mux or (on boolean clocks) a
    /// merge above a simple expression.
    fn cexpr(&mut self, ty: CTy, ck: &Clock, depth: usize) -> CExprId {
        if depth > 0 && self.rng.gen_ratio(1, 4) {
            let c = self.expr(CTy::Bool, ck, depth - 1);
            let t = self.cexpr(ty, ck, depth - 1);
            let f = self.cexpr(ty, ck, depth - 1);
            return self.ex.ite(c, t, f);
        }
        // A merge requires a boolean variable on this clock.
        if depth > 0 && self.rng.gen_ratio(1, 5) {
            let clock_vars = self.readable_vars(CTy::Bool, ck);
            if let Some(v) = clock_vars.choose(self.rng) {
                let x = v.name;
                let on_t = ck.clone().on(x, true);
                let on_f = ck.clone().on(x, false);
                let t = self.expr(ty, &on_t, depth - 1);
                let f = self.expr(ty, &on_f, depth - 1);
                let (t, f) = (self.ex.simple(t), self.ex.simple(f));
                return self.ex.merge(x, t, f);
            }
        }
        let e = self.expr(ty, ck, depth);
        self.ex.simple(e)
    }

    fn roll_bait(&mut self) -> bool {
        self.rng.gen_range(0..100) < self.cfg.lint_bait_pct
    }
}

/// Generates a random program. Node `k` may call nodes `0..k`; the last
/// node is the intended root.
pub fn gen_program<R: Rng>(rng: &mut R, cfg: &GenConfig) -> Program<ClightOps> {
    let mut nodes: Vec<Node<ClightOps>> = Vec::new();
    for k in 0..cfg.nodes.max(1) {
        let node = gen_node(rng, cfg, k, &nodes);
        nodes.push(node);
    }
    Program::new(nodes)
}

fn gen_node<R: Rng>(
    rng: &mut R,
    cfg: &GenConfig,
    index: usize,
    earlier: &[Node<ClightOps>],
) -> Node<ClightOps> {
    let name = Ident::new(&format!("n{index}"));
    let mut g = NodeGen {
        rng,
        cfg: cfg.clone(),
        vars: Vec::new(),
        fresh: 0,
        ex: Exprs::new(),
    };

    // Inputs: one guaranteed boolean (a clock candidate) plus 1–2 others.
    let mut inputs: Vec<VarDecl<ClightOps>> = Vec::new();
    let b_in = Ident::new(&format!("c{index}"));
    inputs.push(VarDecl {
        name: b_in,
        ty: CTy::Bool,
        ck: Clock::Base,
    });
    let extra = g.rng.gen_range(1..=2);
    for i in 0..extra {
        let ty = if g.cfg.floats && g.rng.gen_ratio(1, 5) {
            CTy::F64
        } else {
            CTy::I32
        };
        inputs.push(VarDecl {
            name: Ident::new(&format!("i{index}_{i}")),
            ty,
            ck: Clock::Base,
        });
    }
    for d in &inputs {
        g.vars.push(VarInfo {
            name: d.name,
            ty: d.ty,
            ck: d.ck.clone(),
            readable: true,
        });
    }

    let mut locals: Vec<VarDecl<ClightOps>> = Vec::new();
    let mut eqs: Vec<Equation<ClightOps>> = Vec::new();

    // Phase 1: declare some fby variables (readable from anywhere).
    let n_fby = g.rng.gen_range(1..=3.min(cfg.eqs_per_node));
    let mut fby_vars: Vec<(Ident, CTy, Clock)> = Vec::new();
    for _ in 0..n_fby {
        let ty = g.pick_ty();
        let x = g.fresh("m");
        let ck = Clock::Base;
        locals.push(VarDecl {
            name: x,
            ty,
            ck: ck.clone(),
        });
        g.vars.push(VarInfo {
            name: x,
            ty,
            ck: ck.clone(),
            readable: true,
        });
        fby_vars.push((x, ty, ck));
    }

    // Phase 2: ordinary equations, possibly on a sub-clock of a readable
    // boolean.
    for _ in 0..cfg.eqs_per_node {
        let use_subclock = g.rng.gen_range(0..100) < cfg.subclock_pct;
        let ck = if use_subclock {
            let clocks: Vec<VarInfo> = g.readable_vars(CTy::Bool, &Clock::Base);
            match clocks.choose(g.rng) {
                Some(v) => Clock::Base.on(v.name, g.rng.gen()),
                None => Clock::Base,
            }
        } else {
            Clock::Base
        };
        // A call to an earlier node?
        if !earlier.is_empty() && g.rng.gen_ratio(1, 4) {
            // The draw `choose` makes, keeping the callee's id.
            let k = g.rng.gen_range(0..earlier.len());
            let callee = &earlier[k];
            let args: Vec<ExprId> = callee.inputs.iter().map(|d| g.expr(d.ty, &ck, 1)).collect();
            let xs: Vec<Ident> = callee
                .outputs
                .iter()
                .map(|d| {
                    let x = g.fresh("r");
                    locals.push(VarDecl {
                        name: x,
                        ty: d.ty,
                        ck: ck.clone(),
                    });
                    g.vars.push(VarInfo {
                        name: x,
                        ty: d.ty,
                        ck: ck.clone(),
                        readable: true,
                    });
                    x
                })
                .collect();
            eqs.push(Equation::Call {
                xs,
                ck,
                node: NodeId::new(k),
                args,
            });
            continue;
        }
        let ty = g.pick_ty();
        let x = g.fresh("v");
        let rhs = g.cexpr(ty, &ck, cfg.expr_depth);
        locals.push(VarDecl {
            name: x,
            ty,
            ck: ck.clone(),
        });
        eqs.push(Equation::Def {
            x,
            ck: ck.clone(),
            rhs,
        });
        g.vars.push(VarInfo {
            name: x,
            ty,
            ck,
            readable: true,
        });
    }

    // Phase 2½: lint bait. Each construct below is flagged by one of the
    // static analyses but is *total* — it never traps and never disturbs
    // the streams the outputs read — so bait-enabled profiles stay valid
    // inputs for the differential campaign too.
    if g.cfg.lint_bait_pct > 0 {
        // (a) An unused local (W0104): defined, deliberately not
        // registered readable, so nothing downstream ever reads it.
        if g.roll_bait() {
            let ty = g.pick_ty();
            let x = g.fresh("u");
            let rhs = g.cexpr(ty, &Clock::Base, 1);
            locals.push(VarDecl {
                name: x,
                ty,
                ck: Clock::Base,
            });
            eqs.push(Equation::Def {
                x,
                ck: Clock::Base,
                rhs,
            });
        }
        // (b) A constant condition (W0103): both branches are generated
        // and total, only one is live.
        if g.roll_bait() {
            let ty = g.pick_ty();
            let x = g.fresh("v");
            let c = g.ex.constant(CConst::bool(g.rng.gen()));
            let t = g.expr(ty, &Clock::Base, 1);
            let f = g.expr(ty, &Clock::Base, 1);
            let (t, f) = (g.ex.simple(t), g.ex.simple(f));
            let rhs = g.ex.ite(c, t, f);
            locals.push(VarDecl {
                name: x,
                ty,
                ck: Clock::Base,
            });
            eqs.push(Equation::Def {
                x,
                ck: Clock::Base,
                rhs,
            });
            g.vars.push(VarInfo {
                name: x,
                ty,
                ck: Clock::Base,
                readable: true,
            });
        }
        // (c) A dead sub-clock (W0106): `z = false; w = e when z(true)`.
        // The equation for `w` is guarded by a clock that is never
        // active, so its body never runs (and may not even be scheduled
        // to read anything live).
        if g.roll_bait() {
            let z = g.fresh("z");
            locals.push(VarDecl {
                name: z,
                ty: CTy::Bool,
                ck: Clock::Base,
            });
            let f = g.ex.constant(CConst::bool(false));
            eqs.push(Equation::Def {
                x: z,
                ck: Clock::Base,
                rhs: g.ex.simple(f),
            });
            g.vars.push(VarInfo {
                name: z,
                ty: CTy::Bool,
                ck: Clock::Base,
                readable: true,
            });
            let dead_ck = Clock::Base.on(z, true);
            let w = g.fresh("w");
            let e = g.expr(CTy::I32, &dead_ck, 1);
            let rhs = g.ex.simple(e);
            locals.push(VarDecl {
                name: w,
                ty: CTy::I32,
                ck: dead_ck.clone(),
            });
            eqs.push(Equation::Def {
                x: w,
                ck: dead_ck,
                rhs,
            });
        }
        // (d) An interval-opaque but provably safe divisor (W0102):
        // `v*v + 1` is never 0 and never -1 in wrapping i32 arithmetic
        // (squares are 0, 1 or 4 mod 8, so v² ≡ -1 and v² ≡ -2 have no
        // solutions mod 2³²), yet the interval analysis sees a
        // full-range divisor and must warn. The program stays total.
        if g.roll_bait() {
            let candidates = g.readable_vars(CTy::I32, &Clock::Base);
            if let Some(v) = candidates.choose(g.rng) {
                let v = v.name;
                let x = g.fresh("q");
                let dividend = g.expr(CTy::I32, &Clock::Base, 1);
                let (v1, v2) = (g.ex.var(v, CTy::I32), g.ex.var(v, CTy::I32));
                let vv = g.ex.binop(CBinOp::Mul, v1, v2, CTy::I32);
                let one = g.ex.constant(CConst::int(1));
                let divisor = g.ex.binop(CBinOp::Add, vv, one, CTy::I32);
                let q = g.ex.binop(CBinOp::Div, dividend, divisor, CTy::I32);
                let rhs = g.ex.simple(q);
                locals.push(VarDecl {
                    name: x,
                    ty: CTy::I32,
                    ck: Clock::Base,
                });
                eqs.push(Equation::Def {
                    x,
                    ck: Clock::Base,
                    rhs,
                });
                g.vars.push(VarInfo {
                    name: x,
                    ty: CTy::I32,
                    ck: Clock::Base,
                    readable: true,
                });
            }
        }
    }

    // Phase 3: close the fby definitions. Their right-hand sides may read
    // ordinary variables freely, and fby variables only at an index >= k:
    // a `fby` equation reading another delayed variable must be scheduled
    // before that variable's write (the paper's read-before-write rule
    // for memories), so mutual references between delays — e.g.
    // `x = 0 fby y; y = 1 fby x` — admit no schedule and are rejected by
    // the compiler. Restricting reads to later delays keeps the
    // precedence edges acyclic by construction.
    for (k, (x, ty, ck)) in fby_vars.iter().enumerate() {
        if k > 0 {
            let prev = fby_vars[k - 1].0;
            if let Some(v) = g.vars.iter_mut().find(|v| v.name == prev) {
                v.readable = false;
            }
        }
        let init = g.const_of(*ty);
        let rhs = g.expr(*ty, ck, cfg.expr_depth.min(2));
        eqs.push(Equation::Fby {
            x: *x,
            ck: ck.clone(),
            init,
            rhs,
        });
    }
    // Restore readability for the output phase (outputs are Defs, which
    // always precede the fby writes in a valid schedule).
    for (x, _, _) in &fby_vars {
        if let Some(v) = g.vars.iter_mut().find(|v| v.name == *x) {
            v.readable = true;
        }
    }

    // Outputs: defined from whatever is readable on the base clock.
    let n_out = g.rng.gen_range(1..=2);
    let mut outputs = Vec::new();
    for o in 0..n_out {
        let ty = g.pick_ty();
        let y = Ident::new(&format!("o{index}_{o}"));
        let rhs = g.cexpr(ty, &Clock::Base, cfg.expr_depth);
        outputs.push(VarDecl {
            name: y,
            ty,
            ck: Clock::Base,
        });
        eqs.push(Equation::Def {
            x: y,
            ck: Clock::Base,
            rhs,
        });
    }

    Node {
        name,
        inputs,
        outputs,
        locals,
        eqs,
        exprs: g.ex,
    }
}

/// Generates `n` instants of all-present random inputs for `node`.
pub fn gen_inputs<R: Rng>(rng: &mut R, node: &Node<ClightOps>, n: usize) -> StreamSet<ClightOps> {
    node.inputs
        .iter()
        .map(|d| {
            (0..n)
                .map(|_| {
                    let v = match d.ty {
                        CTy::Bool => CVal::bool(rng.gen()),
                        CTy::F64 => CVal::float(f64::from(rng.gen_range(-16i32..16)) / 4.0),
                        _ => CVal::int(rng.gen_range(-50..50)),
                    };
                    SVal::Pres(v)
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use velus_nlustre::check;

    #[test]
    fn generated_programs_are_well_formed() {
        for seed in 0..30 {
            let mut rng = StdRng::seed_from_u64(seed);
            let prog = gen_program(&mut rng, &GenConfig::default());
            check::check_program(&prog).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{prog}"));
        }
    }

    #[test]
    fn generated_programs_are_schedulable_and_run() {
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(1000 + seed);
            let mut prog = gen_program(&mut rng, &GenConfig::default());
            velus_nlustre::schedule::schedule_program(&mut prog)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{prog}"));
            let root = NodeId::new(prog.nodes.len() - 1);
            let node = prog.node(root).unwrap().clone();
            let inputs = gen_inputs(&mut rng, &node, 10);
            velus_nlustre::dataflow::run_node(&prog, root, &inputs, 10)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{prog}"));
        }
    }

    #[test]
    fn lint_bait_programs_stay_total() {
        // Bait-heavy programs must still be well-formed, schedulable and
        // — crucially — *total*: the differential campaign rotates over
        // the lint-rich profile, and its oracles require a dataflow
        // semantics on every input prefix.
        let cfg = GenConfig {
            lint_bait_pct: 100,
            ..GenConfig::default()
        };
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(3000 + seed);
            let mut prog = gen_program(&mut rng, &cfg);
            check::check_program(&prog).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{prog}"));
            velus_nlustre::schedule::schedule_program(&mut prog)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{prog}"));
            let root = NodeId::new(prog.nodes.len() - 1);
            let node = prog.node(root).unwrap().clone();
            let inputs = gen_inputs(&mut rng, &node, 8);
            velus_nlustre::dataflow::run_node(&prog, root, &inputs, 8)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{prog}"));
        }
    }

    #[test]
    fn trap_divisor_programs_are_well_formed() {
        // Trap-allowing programs may have no dataflow semantics (that is
        // the point), but they must still type- and clock-check: the
        // lint-soundness oracle needs them to reach the code generator.
        let cfg = GenConfig {
            trap_divisors: true,
            lint_bait_pct: 40,
            ..GenConfig::default()
        };
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(4000 + seed);
            let mut prog = gen_program(&mut rng, &cfg);
            check::check_program(&prog).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{prog}"));
            velus_nlustre::schedule::schedule_program(&mut prog)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{prog}"));
        }
    }

    #[test]
    fn float_generation_is_well_formed_too() {
        let cfg = GenConfig {
            floats: true,
            ..GenConfig::default()
        };
        for seed in 0..10 {
            let mut rng = StdRng::seed_from_u64(2000 + seed);
            let prog = gen_program(&mut rng, &cfg);
            check::check_program(&prog).unwrap();
        }
    }
}
