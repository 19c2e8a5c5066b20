//! The synthetic industrial-scale application (§5).
//!
//! The paper's final experiment compiles a proprietary application of
//! ≈6000 nodes and ≈162000 equations (a ≈12 MB source file) in about
//! 1 min 40 s, demonstrating that the extracted compiler scales. The
//! application itself is unavailable, so this module generates a
//! structurally comparable program: a deterministic layered netlist of
//! nodes with configurable equation counts and call fan-in, already
//! normalized (as the paper's input was, having been produced by a
//! graphical front end).
//!
//! The generator is deterministic — benchmark runs are reproducible —
//! and emits either an N-Lustre AST directly or Lustre source text (to
//! include parsing and elaboration in the measurement, as the paper's
//! timing does).

use velus_common::{Ident, NodeId};
use velus_nlustre::ast::{Equation, ExprId, Exprs, Node, Program, VarDecl};
use velus_nlustre::clock::Clock;
use velus_ops::{CBinOp, CConst, CTy, ClightOps};

/// Shape parameters for the synthetic application.
#[derive(Debug, Clone, Copy)]
pub struct IndustrialConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Dataflow equations per node (excluding call equations).
    pub eqs_per_node: usize,
    /// Calls per node to earlier nodes (0 for the first layer).
    pub fan_in: usize,
    /// Clock nesting depth of the per-node sub-clocked cluster: 0 keeps
    /// every equation on the base clock (the original generator); `d ≥ 1`
    /// adds a `when`/`merge` cluster sampled `d` levels deep (several
    /// equations per sub-clock, so fusion has guards to merge — the
    /// fusion-heavy shape real clocked applications have).
    pub subclock_depth: usize,
}

impl IndustrialConfig {
    /// The full-size configuration of the paper's experiment:
    /// ≈6000 nodes, ≈162000 equations (base-clocked, as the paper's
    /// graphical-front-end input was).
    pub fn paper_scale() -> IndustrialConfig {
        IndustrialConfig {
            nodes: 6000,
            eqs_per_node: 24,
            fan_in: 2,
            subclock_depth: 0,
        }
    }

    /// A laptop-friendly scale for smoke tests.
    pub fn small() -> IndustrialConfig {
        IndustrialConfig {
            nodes: 60,
            eqs_per_node: 24,
            fan_in: 2,
            subclock_depth: 0,
        }
    }

    /// A fusion-heavy shape: sub-clocked clusters nested two levels deep
    /// (`when`/`merge` at depth ≥ 2), for service benchmarks that should
    /// stress the fusion optimization and its guards.
    pub fn fusion_heavy() -> IndustrialConfig {
        IndustrialConfig {
            nodes: 40,
            eqs_per_node: 16,
            fan_in: 2,
            subclock_depth: 2,
        }
    }

    /// Approximate number of equations the configuration yields.
    pub fn approx_equations(&self) -> usize {
        let subclock = if self.subclock_depth == 0 {
            0
        } else {
            // (depth−1) sampler definitions + 3 deep equations + one
            // merge per level.
            self.subclock_depth - 1 + 3 + self.subclock_depth
        };
        self.nodes * (self.eqs_per_node + 3 + self.fan_in + subclock)
    }
}

fn ivar(ex: &mut Exprs<ClightOps>, name: Ident) -> ExprId {
    ex.var(name, CTy::I32)
}

/// `l op r` over integers, of result type `ty`.
fn bin(ex: &mut Exprs<ClightOps>, op: CBinOp, l: ExprId, r: ExprId, ty: CTy) -> ExprId {
    ex.binop(op, l, r, ty)
}

/// The clock `Base on chain[0] on chain[1] … on chain[depth-1]` (all
/// positive polarities).
fn clock_at(chain: &[Ident], depth: usize) -> Clock {
    chain[..depth]
        .iter()
        .fold(Clock::Base, |ck, &x| ck.on(x, true))
}

/// Samples a base-clock expression down the whole chain:
/// `e when chain[0] when chain[1] …`.
fn sampled(ex: &mut Exprs<ClightOps>, e: ExprId, chain: &[Ident]) -> ExprId {
    chain.iter().fold(e, |e, &x| ex.when(e, x, true))
}

/// A deterministic pseudo-random sequence (xorshift) so the generated
/// program is stable across runs without pulling `rand` into benchmarks.
struct Det(u64);

impl Det {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One node of the netlist: integer inputs, a boolean mode, a mix of
/// arithmetic, conditionals, delays, and calls to earlier nodes.
fn make_node(index: usize, cfg: &IndustrialConfig, det: &mut Det) -> Node<ClightOps> {
    let name = Ident::new(&format!("blk{index}"));
    let x0 = Ident::new("x0");
    let x1 = Ident::new("x1");
    let mode = Ident::new("mode");
    let out = Ident::new("y");

    let inputs = vec![
        VarDecl {
            name: x0,
            ty: CTy::I32,
            ck: Clock::Base,
        },
        VarDecl {
            name: x1,
            ty: CTy::I32,
            ck: Clock::Base,
        },
        VarDecl {
            name: mode,
            ty: CTy::Bool,
            ck: Clock::Base,
        },
    ];
    let outputs = vec![VarDecl {
        name: out,
        ty: CTy::I32,
        ck: Clock::Base,
    }];

    let mut locals = Vec::new();
    let mut eqs = Vec::new();
    let mut ex = Exprs::new();
    let mut last = x0;

    // Two delays per node (state, as real applications have).
    let m0 = Ident::new("m0");
    let m1 = Ident::new("m1");
    for m in [m0, m1] {
        locals.push(VarDecl {
            name: m,
            ty: CTy::I32,
            ck: Clock::Base,
        });
    }

    // Calls to earlier nodes.
    for k in 0..cfg.fan_in.min(index) {
        let callee = NodeId::new(det.below(index));
        let r = Ident::new(&format!("r{k}"));
        locals.push(VarDecl {
            name: r,
            ty: CTy::I32,
            ck: Clock::Base,
        });
        eqs.push(Equation::Call {
            xs: vec![r],
            ck: Clock::Base,
            node: callee,
            args: vec![
                ivar(&mut ex, last),
                ivar(&mut ex, x1),
                ex.var(mode, CTy::Bool),
            ],
        });
        last = r;
    }

    // The sub-clocked cluster: a chain of boolean samplers nested
    // `subclock_depth` levels deep, a few equations on the deepest
    // clock (same clock → fusion merges their guards), and a `merge`
    // ladder back to the base clock. The merged result feeds the
    // arithmetic chain below, so the cluster is live code.
    if cfg.subclock_depth > 0 {
        let depth = cfg.subclock_depth;
        // chain[0] is the `mode` input; chain[k] (k ≥ 1) is a local
        // boolean sampler declared on the clock of the levels before it.
        let mut chain = vec![mode];
        for k in 2..=depth {
            let s = Ident::new(&format!("s{k}"));
            locals.push(VarDecl {
                name: s,
                ty: CTy::Bool,
                ck: clock_at(&chain, k - 1),
            });
            let (a, b) = (ivar(&mut ex, x0), ivar(&mut ex, x1));
            let lt = bin(&mut ex, CBinOp::Lt, a, b, CTy::Bool);
            let lt = sampled(&mut ex, lt, &chain[..k - 1]);
            eqs.push(Equation::Def {
                x: s,
                ck: clock_at(&chain, k - 1),
                rhs: ex.simple(lt),
            });
            chain.push(s);
        }
        // Deep equations, all on the deepest clock.
        let deep = clock_at(&chain, depth);
        let ws: Vec<Ident> = (0..3).map(|k| Ident::new(&format!("w{k}"))).collect();
        for &w in &ws {
            locals.push(VarDecl {
                name: w,
                ty: CTy::I32,
                ck: deep.clone(),
            });
        }
        let a = ivar(&mut ex, x1);
        let a = sampled(&mut ex, a, &chain);
        let b = ivar(&mut ex, m0);
        let b = sampled(&mut ex, b, &chain);
        let sum = bin(&mut ex, CBinOp::Add, a, b, CTy::I32);
        eqs.push(Equation::Def {
            x: ws[0],
            ck: deep.clone(),
            rhs: ex.simple(sum),
        });
        let w0 = ivar(&mut ex, ws[0]);
        let factor = ex.constant(CConst::int((det.below(5) + 2) as i32));
        let prod = bin(&mut ex, CBinOp::Mul, w0, factor, CTy::I32);
        eqs.push(Equation::Def {
            x: ws[1],
            ck: deep.clone(),
            rhs: ex.simple(prod),
        });
        let (w1, w0) = (ivar(&mut ex, ws[1]), ivar(&mut ex, ws[0]));
        let diff = bin(&mut ex, CBinOp::Sub, w1, w0, CTy::I32);
        eqs.push(Equation::Def {
            x: ws[2],
            ck: deep,
            rhs: ex.simple(diff),
        });
        // Merge ladder: one merge per level, back down to base.
        let mut prev = ws[2];
        for k in (1..=depth).rev() {
            let u = Ident::new(&format!("u{k}"));
            let ck = clock_at(&chain, k - 1);
            locals.push(VarDecl {
                name: u,
                ty: CTy::I32,
                ck: ck.clone(),
            });
            let sampler = chain[k - 1];
            // The absent branch re-samples a delayed base stream with
            // the opposite polarity.
            let here = ivar(&mut ex, prev);
            let here = ex.simple(here);
            let other = ivar(&mut ex, m1);
            let other = sampled(&mut ex, other, &chain[..k - 1]);
            let other = ex.when(other, sampler, false);
            let other = ex.simple(other);
            eqs.push(Equation::Def {
                x: u,
                ck,
                rhs: ex.merge(sampler, here, other),
            });
            prev = u;
        }
        last = prev;
    }

    // A chain of arithmetic/conditional equations.
    for k in 0..cfg.eqs_per_node {
        let v = Ident::new(&format!("v{k}"));
        locals.push(VarDecl {
            name: v,
            ty: CTy::I32,
            ck: Clock::Base,
        });
        let rhs = match det.below(4) {
            0 => {
                let (a, b) = (ivar(&mut ex, last), ivar(&mut ex, m0));
                let e = bin(&mut ex, CBinOp::Add, a, b, CTy::I32);
                ex.simple(e)
            }
            1 => {
                let a = ivar(&mut ex, last);
                let b = ex.constant(CConst::int((det.below(7) + 1) as i32));
                let e = bin(&mut ex, CBinOp::Mul, a, b, CTy::I32);
                ex.simple(e)
            }
            2 => {
                let c = ex.var(mode, CTy::Bool);
                let (a, b) = (ivar(&mut ex, last), ivar(&mut ex, x1));
                let t = bin(&mut ex, CBinOp::Sub, a, b, CTy::I32);
                let t = ex.simple(t);
                let f = ivar(&mut ex, m1);
                let f = ex.simple(f);
                ex.ite(c, t, f)
            }
            _ => {
                let a = ivar(&mut ex, last);
                let b = ex.constant(CConst::int(det.below(16) as i32));
                let e = bin(&mut ex, CBinOp::Sub, a, b, CTy::I32);
                ex.simple(e)
            }
        };
        eqs.push(Equation::Def {
            x: v,
            ck: Clock::Base,
            rhs,
        });
        last = v;
    }

    // Output and delays.
    let y = ivar(&mut ex, last);
    eqs.push(Equation::Def {
        x: out,
        ck: Clock::Base,
        rhs: ex.simple(y),
    });
    eqs.push(Equation::Fby {
        x: m0,
        ck: Clock::Base,
        init: CConst::int(0),
        rhs: ivar(&mut ex, last),
    });
    eqs.push(Equation::Fby {
        x: m1,
        ck: Clock::Base,
        init: CConst::int(1),
        rhs: ivar(&mut ex, m0),
    });

    Node {
        name,
        inputs,
        outputs,
        locals,
        eqs,
        exprs: ex,
    }
}

/// Generates the synthetic application as N-Lustre (already normalized,
/// like the paper's input). The last node (`blk{nodes-1}`) serves as the
/// root.
pub fn industrial_program(cfg: &IndustrialConfig) -> Program<ClightOps> {
    let mut det = Det(0x9e3779b97f4a7c15);
    let nodes = (0..cfg.nodes.max(1))
        .map(|i| make_node(i, cfg, &mut det))
        .collect();
    Program::new(nodes)
}

/// Emits the same application as Lustre source text, to measure parsing
/// and elaboration as well (rendered by the shared surface-syntax
/// renderer, [`crate::render`], which the campaign reproducers use too).
pub fn industrial_source(cfg: &IndustrialConfig) -> String {
    crate::render::lustre_source(&industrial_program(cfg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use velus_nlustre::check;

    #[test]
    fn small_scale_is_well_formed() {
        let cfg = IndustrialConfig::small();
        let prog = industrial_program(&cfg);
        assert_eq!(prog.nodes.len(), cfg.nodes);
        check::check_program(&prog).unwrap();
    }

    #[test]
    fn equation_estimate_is_close() {
        let cfg = IndustrialConfig::small();
        let prog = industrial_program(&cfg);
        let eqs = prog.equation_count();
        let approx = cfg.approx_equations();
        assert!(
            eqs.abs_diff(approx) < approx / 2,
            "counted {eqs}, approximated {approx}"
        );
    }

    #[test]
    fn source_text_round_trips_through_the_frontend() {
        let cfg = IndustrialConfig {
            nodes: 5,
            eqs_per_node: 6,
            fan_in: 2,
            subclock_depth: 0,
        };
        let src = industrial_source(&cfg);
        let (prog, _) = velus_lustre::compile_to_nlustre::<velus_ops::ClightOps>(&src)
            .unwrap_or_else(|e| panic!("{}", e.render(&src)));
        assert_eq!(prog.nodes.len(), 5);
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = IndustrialConfig::small();
        assert_eq!(industrial_program(&cfg), industrial_program(&cfg));
    }

    #[test]
    fn paper_scale_reaches_the_reported_size() {
        let cfg = IndustrialConfig::paper_scale();
        assert!(cfg.approx_equations() >= 160_000);
    }

    #[test]
    fn subclocked_programs_are_well_clocked_at_depth_two_and_three() {
        for depth in [1, 2, 3] {
            let cfg = IndustrialConfig {
                nodes: 8,
                eqs_per_node: 6,
                fan_in: 2,
                subclock_depth: depth,
            };
            let prog = industrial_program(&cfg);
            check::check_program(&prog).unwrap_or_else(|e| panic!("depth {depth}: {e}"));
            // The cluster really is sub-clocked: some declaration sits
            // at the requested nesting depth.
            let max_depth = prog
                .nodes
                .iter()
                .flat_map(|n| &n.locals)
                .map(|d| d.ck.depth())
                .max()
                .unwrap();
            assert_eq!(max_depth, depth);
        }
    }

    #[test]
    fn subclocked_source_round_trips_with_clock_annotations() {
        let cfg = IndustrialConfig {
            nodes: 6,
            eqs_per_node: 5,
            fan_in: 1,
            subclock_depth: 2,
        };
        let src = industrial_source(&cfg);
        assert!(src.contains("when mode when s2"), "{src}");
        assert!(src.contains("merge"), "{src}");
        let (prog, _) = velus_lustre::compile_to_nlustre::<velus_ops::ClightOps>(&src)
            .unwrap_or_else(|e| panic!("{}", e.render(&src)));
        assert_eq!(prog.nodes.len(), 6);
        check::check_program(&prog).unwrap();
    }
}
