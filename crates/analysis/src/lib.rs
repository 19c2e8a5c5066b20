//! Static analyses over scheduled N-Lustre.
//!
//! This crate is the lint layer of the pipeline: a small
//! abstract-interpretation framework (a worklist fixpoint engine
//! parameterized by a [`Lattice`], see [`fixpoint`]) and the analyses
//! built on it:
//!
//! * **initialization** ([`init`]) — a definitely-initialized dataflow
//!   over `fby` chains that tracks where the default value a `pre`
//!   introduces can surface at an output ([`W0101`]); the semantic
//!   replacement for the old syntactic `W0001` check.
//! * **value ranges** ([`range`]) — interval / constant propagation
//!   reporting guaranteed division traps as errors ([`E0110`],
//!   [`E0111`]), possible traps ([`W0102`]), constant `if`/`merge`
//!   conditions with dead branches ([`W0103`]), and equations sampled
//!   on provably-never-active clocks ([`W0106`]).
//! * **liveness / reachability** ([`live`]) — variables no output
//!   transitively reads ([`W0104`]) and nodes never instantiated from
//!   the root ([`W0105`]).
//!
//! All diagnostics carry a registered `W01xx`/`E01xx` code, the
//! `analysis` stage tag and a source span, and surface through the
//! ordinary rendering pipeline (`velus lint`, `--emit lint`).
//! Lint *errors* (the `E011x` guaranteed traps) are claims about every
//! execution and are checked dynamically by the differential
//! campaign's `lint-soundness` oracle (`velus_testkit::campaign`).
//!
//! [`W0101`]: velus_common::codes::W0101
//! [`W0102`]: velus_common::codes::W0102
//! [`W0103`]: velus_common::codes::W0103
//! [`W0104`]: velus_common::codes::W0104
//! [`W0105`]: velus_common::codes::W0105
//! [`W0106`]: velus_common::codes::W0106
//! [`E0110`]: velus_common::codes::E0110
//! [`E0111`]: velus_common::codes::E0111

#![warn(missing_docs)]

pub mod fixpoint;
pub mod init;
pub mod live;
pub mod range;

pub use fixpoint::{solve, Env, Lattice, WIDEN_AFTER};
pub use init::{check_initialization, InitMask};
pub use live::{check_liveness, live_vars, reachable};
pub use range::{check_ranges, AbsVal};

use velus_common::{codes, Diagnostics, NodeId, SpanMap};
use velus_nlustre::ast::Program;
use velus_ops::ClightOps;

/// Runs every analysis of this crate over `prog` rooted at `root` and
/// returns the combined, sorted and deduplicated diagnostics.
///
/// The initialization analysis is not re-run here: the front end
/// already ran it (it alone knows which memories stand for a surface
/// `pre`), so its `W0101` findings are taken from `frontend_warnings`.
/// `spans` maps nodes and defined variables back to source positions.
pub fn lint_program(
    prog: &Program<ClightOps>,
    root: NodeId,
    frontend_warnings: &Diagnostics,
    spans: &SpanMap,
) -> Diagnostics {
    let mut diags = Diagnostics::new();
    diags.extend(
        frontend_warnings
            .iter()
            .filter(|d| d.code == codes::W0101)
            .cloned(),
    );
    range::check_ranges(prog, root, spans, &mut diags);
    live::check_liveness(prog, root, spans, &mut diags);
    diags.sort_dedup();
    diags
}
