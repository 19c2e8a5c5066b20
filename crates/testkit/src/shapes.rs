//! Single-node source shapes for scaling curves: one generator per axis
//! along which a pass could grow superlinearly.
//!
//! The fixed corpora contain only small nodes, so they hide costs
//! quadratic in the size of one node. Each generator here grows one
//! dimension of a single node and keeps everything else fixed, so that
//! doubling its argument should at most double every pass's time,
//! allocations and output (`velus-bench --bin pipeline --scale`).

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
