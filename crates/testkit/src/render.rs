//! Rendering N-Lustre programs back to parseable Lustre source.
//!
//! The N-Lustre `Display` impls print the *internal* notation (clocks on
//! the equals sign, C-style operators); this module prints the *surface*
//! syntax the front end accepts, so generated and shrunk programs can be
//! written out as `.lus` reproducers and fed back through the whole
//! pipeline. Operators are mapped to their surface spellings (`and`,
//! `or`, `xor`, `=`, `<>`, `mod`), sampling prints as postfix
//! `when [not] x`, and declaration clocks print as `when [not] x`
//! annotation chains.
//!
//! The renderer is total on the fragment the generators and the shrinker
//! produce (everything expressible in surface Lustre). The only
//! constructs with no surface spelling are bitwise integer `and`/`or`/
//! `xor` — which the front end cannot produce, so they cannot occur in a
//! round-tripped program.

use std::fmt::Write as _;

use velus_common::Ident;
use velus_nlustre::ast::{CExpr, CExprId, Equation, Expr, ExprId, Exprs, Node, Program, VarDecl};
use velus_nlustre::clock::Clock;
use velus_ops::{CBinOp, CUnOp, ClightOps};

fn binop_surface(op: CBinOp) -> &'static str {
    match op {
        CBinOp::Add => "+",
        CBinOp::Sub => "-",
        CBinOp::Mul => "*",
        CBinOp::Div => "/",
        CBinOp::Mod => "mod",
        CBinOp::And => "and",
        CBinOp::Or => "or",
        CBinOp::Xor => "xor",
        CBinOp::Eq => "=",
        CBinOp::Ne => "<>",
        CBinOp::Lt => "<",
        CBinOp::Le => "<=",
        CBinOp::Gt => ">",
        CBinOp::Ge => ">=",
    }
}

/// Renders simple expression `e` of `ex`, fully parenthesized, in one
/// loop with an explicit stack of the pieces still to write.
fn expr_into(ex: &Exprs<ClightOps>, e: ExprId, out: &mut String) {
    enum Task {
        Expr(ExprId),
        Text(&'static str),
        Op(CBinOp),
        When(Ident, bool),
    }
    let mut tasks = vec![Task::Expr(e)];
    while let Some(task) = tasks.pop() {
        match task {
            Task::Expr(e) => match &ex[e] {
                Expr::Var(x, _) => {
                    let _ = write!(out, "{x}");
                }
                Expr::Const(c) => {
                    let _ = write!(out, "{c}");
                }
                Expr::Unop(CUnOp::Cast(ty), e, _) => {
                    let _ = write!(out, "{ty}(");
                    tasks.extend([Task::Text(")"), Task::Expr(*e)]);
                }
                Expr::Unop(op, e, _) => {
                    let _ = write!(out, "({op} ");
                    tasks.extend([Task::Text(")"), Task::Expr(*e)]);
                }
                Expr::Binop(op, a, b, _) => {
                    out.push('(');
                    tasks.extend([
                        Task::Text(")"),
                        Task::Expr(*b),
                        Task::Op(*op),
                        Task::Expr(*a),
                    ]);
                }
                Expr::When(e, x, polarity) => {
                    out.push('(');
                    tasks.extend([Task::When(*x, *polarity), Task::Expr(*e)]);
                }
            },
            Task::Text(t) => out.push_str(t),
            Task::Op(op) => {
                let _ = write!(out, " {} ", binop_surface(op));
            }
            Task::When(x, true) => {
                let _ = write!(out, " when {x})");
            }
            Task::When(x, false) => {
                let _ = write!(out, " when not {x})");
            }
        }
    }
}

/// Renders control expression `ce` (recursing on its `merge`/`if`
/// nesting).
fn cexpr_into(ex: &Exprs<ClightOps>, ce: CExprId, out: &mut String) {
    match ex[ce] {
        CExpr::Merge(x, t, e) => {
            let _ = write!(out, "merge {x} (");
            cexpr_into(ex, t, out);
            out.push_str(") (");
            cexpr_into(ex, e, out);
            out.push(')');
        }
        CExpr::If(c, t, e) => {
            out.push_str("if ");
            expr_into(ex, c, out);
            out.push_str(" then ");
            cexpr_into(ex, t, out);
            out.push_str(" else ");
            cexpr_into(ex, e, out);
        }
        CExpr::Expr(e) => expr_into(ex, e, out),
    }
}

/// The declaration-clock annotation chain: `" when x when not y"`.
fn clock_annotation(ck: &Clock, out: &mut String) {
    if let Clock::On(parent, x, polarity) = ck {
        clock_annotation(parent, out);
        let _ = write!(out, " when {}{x}", if *polarity { "" } else { "not " });
    }
}

fn decls_into(ds: &[VarDecl<ClightOps>], out: &mut String) {
    for (i, d) in ds.iter().enumerate() {
        if i > 0 {
            out.push_str("; ");
        }
        let _ = write!(out, "{}: {}", d.name, d.ty);
        clock_annotation(&d.ck, out);
    }
}

/// Renders one node in surface syntax, naming callees through `nodes`.
fn node_into(node: &Node<ClightOps>, nodes: &[Node<ClightOps>], out: &mut String) {
    let _ = write!(out, "node {}(", node.name);
    decls_into(&node.inputs, out);
    out.push_str(") returns (");
    decls_into(&node.outputs, out);
    out.push_str(")\n");
    if !node.locals.is_empty() {
        out.push_str("var ");
        decls_into(&node.locals, out);
        out.push_str(";\n");
    }
    out.push_str("let\n");
    for eq in &node.eqs {
        out.push_str("  ");
        match eq {
            Equation::Def { x, rhs, .. } => {
                let _ = write!(out, "{x} = ");
                cexpr_into(&node.exprs, *rhs, out);
            }
            Equation::Fby { x, init, rhs, .. } => {
                let _ = write!(out, "{x} = {init} fby ");
                expr_into(&node.exprs, *rhs, out);
            }
            Equation::Call {
                xs, node: f, args, ..
            } => {
                let f = nodes[f.index()].name;
                if xs.len() == 1 {
                    let _ = write!(out, "{} = {f}(", xs[0]);
                } else {
                    out.push('(');
                    for (i, x) in xs.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        let _ = write!(out, "{x}");
                    }
                    let _ = write!(out, ") = {f}(");
                }
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    expr_into(&node.exprs, *a, out);
                }
                out.push(')');
            }
        }
        out.push_str(";\n");
    }
    out.push_str("tel\n");
}

/// Renders a whole program as surface Lustre source, nodes in their
/// (dependency) order.
pub fn lustre_source(prog: &Program<ClightOps>) -> String {
    let mut out = String::new();
    for (i, node) in prog.nodes.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        node_into(node, &prog.nodes, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{gen_program, GenConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Every generated program — including clock-heavy and float ones —
    /// renders to source the front end accepts, and the elaborated
    /// result is well-formed again.
    #[test]
    fn generated_programs_round_trip_through_the_surface_syntax() {
        let configs = [
            GenConfig::default(),
            GenConfig {
                nodes: 4,
                eqs_per_node: 8,
                expr_depth: 4,
                subclock_pct: 70,
                ..GenConfig::default()
            },
            GenConfig {
                floats: true,
                ..GenConfig::default()
            },
        ];
        for (k, cfg) in configs.iter().enumerate() {
            for seed in 0..25u64 {
                let mut rng = StdRng::seed_from_u64(seed + 7000 * k as u64);
                let prog = gen_program(&mut rng, cfg);
                let root = velus_common::NodeId::new(prog.nodes.len() - 1);
                let src = lustre_source(&prog);
                let fe = velus_lustre::frontend::<velus_ops::ClightOps>(&src).unwrap_or_else(|e| {
                    panic!("cfg {k} seed {seed}: frontend rejected:\n{src}\n{e}")
                });
                assert_eq!(
                    fe.program.node(root).map(|n| n.name),
                    prog.node(root).map(|n| n.name),
                    "cfg {k} seed {seed}: root lost in round trip\n{src}"
                );
            }
        }
    }
}
