//! Vélus-rs: a Lustre-to-C compiler reproducing the pipeline of
//! *A Formally Verified Compiler for Lustre* (PLDI 2017), with executable
//! semantics at every level and translation validation in place of Coq
//! proofs.
//!
//! ```text
//! Lustre ─parse/elaborate─▶ N-Lustre ─schedule─▶ SN-Lustre
//!        ─translate─▶ Obc ─fuse─▶ Obc ─generate─▶ Clight ─print─▶ C
//! ```
//!
//! * [`compile`] runs the whole pipeline and returns every intermediate
//!   representation ([`Compiled`]).
//! * [`service`] serves batches of compilations in parallel from a
//!   content-addressed artifact cache (the `velus-server` substrate
//!   instantiated with this pipeline).
//! * [`validate()`] checks the paper's end-to-end correctness statement on
//!   a finite input prefix: the dataflow semantics, the exposed-memory
//!   semantics, the Obc big-step execution (fused and unfused, with
//!   `MemCorres` asserted at every instant), and the Clight execution
//!   (with `staterep` separation assertions checked at every step
//!   boundary and the volatile-event trace compared against
//!   `⟨VLoad(xs(n)) · VStore(ys(n))⟩`) must all agree.
//!
//! # Examples
//!
//! ```
//! let src = "
//!     node counter(ini, inc: int; res: bool) returns (n: int)
//!     let
//!       n = if (true fby false) or res then ini else (0 fby n) + inc;
//!     tel
//! ";
//! let compiled = velus::compile(src, None)?;
//! let c_code = velus::emit_c(&compiled, velus::IoMode::Volatile);
//! assert!(c_code.contains("counter__step"));
//! # Ok::<(), velus::VelusError>(())
//! ```

pub mod artifacts;
mod error;
pub mod passes;
pub mod pipeline;
pub mod service;
pub mod validate;

pub use artifacts::ServiceArtifact;
pub use error::VelusError;
pub use passes::{PassSink, StagedPipeline};
pub use pipeline::{compile, emit_c, Compiled};
pub use service::{PipelineCompiler, VelusService};
pub use validate::{run_oracles, validate, OracleDivergence, OracleId, OracleReport};
/// [`IoMode`] under its former name, kept for code that imports it.
pub use velus_common::IoMode as TestIo;
pub use velus_obs::{Recorder, RecorderConfig};
pub use velus_server::{
    ArtifactKind, CompileOptions, CompileRequest, IoMode, IrStageKind, ServiceConfig, Stage,
    WcetModelKind,
};
