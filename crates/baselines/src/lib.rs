//! Baseline code generators reproducing the compilation schemes the paper
//! compares against in Fig. 12 (§5).
//!
//! The paper explains the measured differences by two mechanisms, which
//! these baselines implement over the *same* N-Lustre front end and the
//! *same* Clight back end as the main pipeline:
//!
//! * **Heptagon 1.03** — "Both Heptagon and Lustre (automatically)
//!   re-normalize the code to have one operator per equation, which can
//!   be costly for nested conditional statements". [`heptagon_obc`] first
//!   applies [`renorm`]'s one-operator-per-equation pass (muxes become
//!   value selections whose branches are computed unconditionally), then
//!   runs the standard translation and fusion.
//! * **Lustre v6** — "Lustre v6 implements operators, like pre and −>,
//!   using separate functions". [`lustre_v6_obc`] compiles every delay to
//!   a pair of calls (`get`/`set`) on a per-type auxiliary class with its
//!   own state, after the same re-normalization, and applies no fusion.

pub mod lustre_v6;
pub mod renorm;

mod error;

pub use error::BaselineError;

use velus_common::NodeId;
use velus_nlustre::ast::Program;
use velus_nlustre::schedule::schedule_program;
use velus_obc::ast::ObcProgram;
use velus_obc::fusion::fuse_program;
use velus_obc::translate::translate_program;
use velus_ops::Ops;

/// The baseline compilation schemes, as first-class values — callers
/// (the Fig. 12 harness, the service's baseline-diff artifact) iterate
/// [`BaselineScheme::ALL`] instead of hard-coding the pair of functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BaselineScheme {
    /// Heptagon 1.03-style: re-normalize, translate, fuse.
    Heptagon,
    /// Lustre v6-style: re-normalize, delays as auxiliary-class calls,
    /// no fusion.
    LustreV6,
}

impl BaselineScheme {
    /// Both schemes, in the paper's column order.
    pub const ALL: [BaselineScheme; 2] = [BaselineScheme::Heptagon, BaselineScheme::LustreV6];

    /// A short stable name for tables.
    pub fn name(self) -> &'static str {
        match self {
            BaselineScheme::Heptagon => "heptagon",
            BaselineScheme::LustreV6 => "lustre-v6",
        }
    }

    /// Compiles `prog` to Obc under this scheme.
    ///
    /// # Errors
    ///
    /// Scheduling cycles or translation failures.
    pub fn compile<O: Ops>(self, prog: &Program<O>) -> Result<ObcProgram<O>, BaselineError> {
        match self {
            BaselineScheme::Heptagon => heptagon_obc(prog),
            BaselineScheme::LustreV6 => lustre_v6_obc(prog),
        }
    }
}

/// Compiles `prog` to Obc the way Heptagon would: re-normalized to one
/// operator per equation (muxes as value selections), then the standard
/// clock-directed translation with fusion.
///
/// # Errors
///
/// Scheduling cycles or translation failures.
pub fn heptagon_obc<O: Ops>(prog: &Program<O>) -> Result<ObcProgram<O>, BaselineError> {
    let mut renormed = renorm::renormalize(prog);
    schedule_program(&mut renormed)?;
    Ok(fuse_program(translate_program(&renormed)?))
}

/// Compiles `prog` to Obc the way Lustre v6 would: re-normalized, each
/// delay implemented by `get`/`set` calls on an auxiliary stateful class,
/// no fusion.
///
/// # Errors
///
/// Scheduling cycles or translation failures.
pub fn lustre_v6_obc<O: Ops>(prog: &Program<O>) -> Result<ObcProgram<O>, BaselineError> {
    let mut renormed = renorm::renormalize(prog);
    schedule_program(&mut renormed)?;
    lustre_v6::translate_v6(&renormed)
}

/// The class of node `root` of `prog` in `obc`, a baseline's compilation
/// of `prog`. Both schemes keep the node order; Lustre v6 puts its
/// auxiliary delay classes in front of the node classes.
pub fn root_class<O: Ops>(obc: &ObcProgram<O>, prog: &Program<O>, root: NodeId) -> NodeId {
    NodeId::new(obc.classes.len() - prog.nodes.len() + root.index())
}
