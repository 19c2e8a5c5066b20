//! The N-Lustre / SN-Lustre intermediate representation and its semantic
//! models (PLDI'17 §2.2, §3.1, §3.2).
//!
//! This crate is the dataflow half of the Vélus reproduction:
//!
//! * [`ast`] — the abstract syntax of Fig. 2. The normal form is encoded
//!   in the types: expressions ([`ast::Expr`]), control expressions
//!   ([`ast::CExpr`]) and the three equation shapes ([`ast::Equation`]).
//! * [`clock`] — the hierarchical clocks `base`, `ck on x`, `ck onot x`.
//! * [`streams`] — stream values with explicit presence and absence.
//! * [`check`] — the well-typedness and well-clockedness judgments,
//!   checked together, in one walk per equation, on the elaborated
//!   program (scheduling only permutes equations, which the judgments
//!   do not depend on).
//! * [`dataflow`] — the reference *dataflow semantics*: a demand-driven,
//!   memoized interpreter of the judgment `G ⊢node f(xs, ys)`, with
//!   `fby#`/`hold#` exactly as in Fig. 6, and runtime causality detection.
//! * [`msem`] — the intermediate *semantics with exposed memories*
//!   `G ⊢mnode f(xs, M, ys)` (§3.2): an instant-by-instant evaluator that
//!   materializes the memory tree `M`, bridging dataflow and imperative
//!   models.
//! * [`deps`] / [`schedule`] — the dependency analysis and the scheduling
//!   pass (heuristic + independent validator, mirroring the paper's
//!   OCaml-scheduler-with-Coq-checker architecture).
//! * [`memory`] — the recursive memory tree `memory V` of §3.1, shared
//!   with the Obc crate.
//!
//! Everything is parametric in the operator interface
//! ([`velus_ops::Ops`]), as in the paper.

pub mod ast;
pub mod check;
pub mod clock;
pub mod dataflow;
pub mod deps;
pub mod memory;
pub mod msem;
pub mod schedule;
pub mod streams;

mod error;

pub use error::SemError;
