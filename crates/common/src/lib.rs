//! Shared compiler infrastructure for the Velus-rs workspace.
//!
//! This crate provides the small, dependency-free substrate that every
//! other crate in the reproduction builds on:
//!
//! * [`Ident`] — cheap, copyable, interned identifiers with a global
//!   interner (the usual compiler pattern; comparison and hashing are on a
//!   `u32` symbol, not on string contents),
//! * [`Span`] / [`Loc`] — byte-offset source spans and their resolution to
//!   line/column positions,
//! * [`Diagnostic`] / [`Diagnostics`] — structured compiler errors and
//!   warnings: stable codes ([`codes`]), originating stages
//!   ([`DiagStage`]), primary spans plus labeled notes, caret and JSON
//!   renderings; [`SpanMap`] threads source spans past elaboration so
//!   mid-end failures resolve to real equations, [`ToDiagnostics`]
//!   converts layer error types, and [`FailureReport`] is the flattened
//!   machine-readable form the serving layer ships,
//! * [`IdentMap`] / [`IdentSet`] / [`IdentScratch`] / [`DenseBitSet`] —
//!   the allocation-light identifier collections of the compile hot
//!   path (an Fx-style mixer over the already-interned `u32` keys and
//!   the reusable scratch-buffer pattern for `*_into` traversals),
//! * [`pretty`] — a minimal indentation-aware code writer used by the C
//!   pretty-printer and the IR dumpers,
//! * [`Pool`] — the flat post-order expression pool of every IR after
//!   the front end, with [`pool_id!`] for its `u32` id types,
//! * [`NodeId`] — a node's dense index, the one handle every IR uses to
//!   reach a callee,
//! * [`IoMode`] — how emitted C performs its I/O, shared by the C printer
//!   and the compile service's cache key.
//!
//! # Examples
//!
//! ```
//! use velus_common::Ident;
//!
//! let a = Ident::new("speed");
//! let b = Ident::new("speed");
//! assert_eq!(a, b);
//! assert_eq!(a.as_str(), "speed");
//! ```

#![warn(missing_docs)]

mod diag;
mod flags;
mod ident;
mod identmap;
mod pool;
pub mod pretty;
mod span;

pub use diag::{
    codes, json_escape, Code, DiagRecord, DiagStage, Diagnostic, Diagnostics, FailureReport, Note,
    RetryClass, Severity, ToDiagnostics,
};
pub use flags::parse_enum_flag;
pub use ident::{FreshGen, Ident};
pub use identmap::{
    ident_map_with_capacity, ident_set_with_capacity, BuildIdentHasher, DenseBitSet, IdentHasher,
    IdentMap, IdentScratch, IdentSet,
};
pub use pool::{Pool, PoolId, PoolNode, Step};
pub use span::{Loc, NodeSpans, PreMarks, Span, SpanMap, Spanned};

/// How emitted C performs its I/O. Part of the compile service's cache
/// key: the two modes emit different code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum IoMode {
    /// Volatile globals only (the form the correctness statement uses).
    #[default]
    Volatile,
    /// A `main` that `scanf`s inputs and `printf`s outputs (the unverified
    /// test entry point of §5).
    Stdio,
}

/// A node's position in its program, callees first. Obc classes and
/// Clight methods keep that order, so one id names a node, its class and
/// its functions, and every callee lookup after elaboration is an index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// The id of the node at position `i`.
    pub fn new(i: usize) -> NodeId {
        NodeId(u32::try_from(i).expect("fewer than 2^32 nodes"))
    }

    /// The node's position.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Whether node `caller` may call this one: the non-recursion
    /// invariant, callee before caller (hence also in range).
    pub fn callable_from(self, caller: NodeId) -> bool {
        self < caller
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}
