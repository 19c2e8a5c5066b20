//! Source shapes for scaling curves: one generator per axis along which
//! a pass could grow superlinearly.
//!
//! The fixed corpora contain only small nodes and few of them, so they
//! hide costs quadratic in the size of one node or in the node count.
//! Each generator here grows one dimension — equations, `if` nesting or
//! expression depth in one node, instance depth or instance fan-out
//! across nodes, or the number of lint findings — and keeps everything
//! else fixed, so that
//! doubling its argument should at most double every pass's time,
//! allocations and output (`velus-bench --bin pipeline --scale`).
//! [`NESTING_SHAPES`] collects the ways to nest one expression deeply.

use std::fmt::Write as _;

/// A node `chain(x: int) returns (y: int)` whose locals form one chain
/// `v1 = x + 1; v2 = v1 + 1; …` of `n` equations, every sixth of them a
/// `fby`. Scheduling moves each `fby` after the equation reading it,
/// which is the order that makes a schedule-order fixpoint re-run the
/// chain below every `fby`.
pub fn chain_source(n: usize) -> String {
    let mut src = String::from("node chain(x: int) returns (y: int)\nvar ");
    for i in 1..=n {
        let _ = write!(src, "{}v{i}", if i == 1 { "" } else { ", " });
    }
    src.push_str(": int;\nlet\n  v1 = x + 1;\n");
    for i in 2..=n {
        let _ = if i % 6 == 0 {
            writeln!(src, "  v{i} = 0 fby v{};", i - 1)
        } else {
            writeln!(src, "  v{i} = v{} + 1;", i - 1)
        };
    }
    let _ = writeln!(src, "  y = v{n};\ntel");
    src
}

/// A node `nest(x: int) returns (y: int)` whose output is a
/// right-nested `if` of `depth` levels over eight chained locals: the
/// shape whose C, indented one step per level, used to grow with the
/// square of its source.
pub fn nest_source(depth: usize) -> String {
    let mut src = String::from(
        "node nest(x: int) returns (y: int)\nvar v1, v2, v3, v4, v5, v6, v7, v8: int;\nlet\n  v1 = x + 1;\n",
    );
    for i in 2..=8 {
        let _ = writeln!(src, "  v{i} = v{} + {i};", i - 1);
    }
    src.push_str("  y = ");
    for k in 0..depth {
        let _ = write!(
            src,
            "if v{} > {} then v{} else ",
            k % 8 + 1,
            k % 100,
            (k + 3) % 8 + 1
        );
    }
    src.push_str("x;\ntel\n");
    src
}

/// An instance chain of `n` nodes (`n` ≥ 2): `n0` adds one to its input,
/// each later node instantiates the one before, and the last is the root
/// `top`, so the instance depth is the node count. The shape on which
/// a callee looked up by a scan over the nodes costs quadratic time.
pub fn instance_chain_source(n: usize) -> String {
    let mut src = String::from("node n0(x: int) returns (y: int)\nlet y = x + 1; tel\n");
    for k in 1..n {
        let name = if k + 1 == n {
            "top".to_owned()
        } else {
            format!("n{k}")
        };
        let _ = writeln!(
            src,
            "node {name}(x: int) returns (y: int)\nlet y = n{}(x) + 1; tel",
            k - 1
        );
    }
    src
}

/// A root `top` that instantiates `n` distinct leaf nodes, each once,
/// threading one value through them: `n + 1` nodes, instance depth one.
/// The shape on which a per-class or per-call scan over the instances
/// costs quadratic time.
pub fn wide_root_source(n: usize) -> String {
    let mut src = String::new();
    for k in 0..n {
        let _ = writeln!(
            src,
            "node leaf{k}(x: int) returns (y: int)\nlet y = x + 1; tel"
        );
    }
    src.push_str("node top(x: int) returns (y: int)\nvar ");
    for k in 0..n {
        let _ = write!(src, "{}r{k}", if k == 0 { "" } else { ", " });
    }
    src.push_str(": int;\nlet\n  r0 = leaf0(x);\n");
    for k in 1..n {
        let _ = writeln!(src, "  r{k} = leaf{k}(r{});", k - 1);
    }
    let _ = writeln!(src, "  y = r{};\ntel", n - 1);
    src
}

/// `n` leaf nodes that nothing instantiates, then the root `top`: every
/// leaf is an unreachable node (a `W0105` lint finding), so the number
/// of findings grows with `n` while every node stays small. The shape on
/// which resolving each finding's position by a rescan of the source
/// costs quadratic time.
pub fn uncalled_leaves_source(n: usize) -> String {
    let mut src = String::new();
    for k in 0..n {
        let _ = writeln!(
            src,
            "node leaf{k}(x: int) returns (y: int)\nlet y = x + 1; tel"
        );
    }
    src.push_str("node top(x: int) returns (y: int)\nlet y = x + 1; tel\n");
    src
}

/// A node `deep(x: int) returns (y: int)` whose one equation sums `n`
/// terms, `y = x + x + … + x`: an expression `n` operators deep, the
/// shape on which every pass that recursed per operator grew its stack
/// with the source.
pub fn deep_expr_source(n: usize) -> String {
    let mut src = String::from("node deep(x: int) returns (y: int)\nlet\n  y = x");
    for _ in 1..n {
        src.push_str(" + x");
    }
    src.push_str(";\ntel\n");
    src
}

/// A node `ifcond(c: bool) returns (y: bool)` whose output nests `depth`
/// `if`s in condition position, `(if (if … then c else false) then c
/// else false)`: every level opens two frames before its first operand.
pub fn if_cond_nest_source(depth: usize) -> String {
    let mut src = String::from("node ifcond(c: bool) returns (y: bool)\nlet\n  y = ");
    src.push_str(&"(if ".repeat(depth));
    src.push('c');
    src.push_str(&" then c else false)".repeat(depth));
    src.push_str(";\ntel\n");
    src
}

/// A node `fbynest(x: int) returns (y: int)` whose output nests `depth`
/// delays in their right operand, `0 fby (0 fby (… (0 fby x)))`.
pub fn fby_nest_source(depth: usize) -> String {
    let mut src = String::from("node fbynest(x: int) returns (y: int)\nlet\n  y = ");
    src.push_str(&"0 fby (".repeat(depth));
    src.push('x');
    src.push_str(&")".repeat(depth));
    src.push_str(";\ntel\n");
    src
}

/// A node `parens(x: int) returns (y: int)` whose output is `x` inside
/// `depth` nested parentheses.
pub fn paren_nest_source(depth: usize) -> String {
    let mut src = String::from("node parens(x: int) returns (y: int)\nlet\n  y = ");
    src.push_str(&"(".repeat(depth));
    src.push('x');
    src.push_str(&")".repeat(depth));
    src.push_str(";\ntel\n");
    src
}

/// A source generator, by the depth it nests its one expression to.
pub type Shape = fn(usize) -> String;

/// The five nesting shapes that once took a stack frame per level in
/// the front end, by name: an `if` nested in condition position, `fby`
/// nested in its right operand, nested parentheses, a right-nested
/// `if … else if …` chain ([`nest_source`], the shape of a generated
/// state machine) and a flat sum ([`deep_expr_source`]).
///
/// The third field is the old wall: the depth at which release `velus
/// check` aborted on the 8 MiB main thread while the parser was
/// recursive descent. The flat sum's wall was elaboration's; that parser
/// already read a sum in a loop. The parser now takes each shape at any
/// depth on a small thread stack; `tests/stack_safety.rs` and
/// `velus-bench --bin pipeline --smoke` pin that at ten times the wall.
pub const NESTING_SHAPES: [(&str, Shape, usize); 5] = [
    ("if_in_condition", if_cond_nest_source, 5_156),
    ("fby_right_operand", fby_nest_source, 9_015),
    ("parentheses", paren_nest_source, 10_156),
    ("else_if_chain", nest_source, 10_203),
    ("flat_sum", deep_expr_source, 56_000),
];
