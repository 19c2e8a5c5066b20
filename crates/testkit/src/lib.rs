//! Test and benchmark workload generators for the Velus-rs workspace.
//!
//! * [`gen`] — random well-typed, well-clocked N-Lustre programs and
//!   matching input streams, constructed so that the equation order is
//!   already a valid schedule (causality by construction). These power
//!   the differential property tests: dataflow semantics ≡ memory
//!   semantics ≡ Obc ≡ Clight on arbitrary programs.
//! * [`industrial`] — the deterministic generator for the §5 industrial
//!   compile-time experiment: configurable node count, equations per
//!   node, and call fan-in, approximating a ≈6000-node / ≈162000-equation
//!   application.
//! * [`render`] — N-Lustre back to parseable surface Lustre (the
//!   reproducer format of the campaign runner).
//! * [`campaign`] — the differential-semantics campaign engine: per-seed
//!   generate → compile → run the full oracle set — the semantic chain
//!   plus the lint-soundness oracle, which holds the static analyses'
//!   trap claims (`E0110`/`E0111` guaranteed, `W0102` possible, none —
//!   clean) against the Clight execution — with automatic shrinking and
//!   `.lus` + JSON reproducer records on divergence. The proptest suite,
//!   `velus-bench --bin diff`, and CI all drive this one implementation.
//! * [`json`] — a minimal JSON reader: replays reproducer records and
//!   checks the well-formedness of every JSON document the workspace
//!   emits (`velus-bench --bin jsoncheck`).
//! * [`shapes`] — sources that grow along one axis (equations per node,
//!   `if` nesting, instance depth, instances per node, lint findings),
//!   for scaling curves and output bounds, and the five ways to nest one
//!   expression deeply, for the stack guards.
//! * [`chaos`] — deterministic fault injection for the compilation
//!   service: a [`chaos::ChaosCompiler`] wrapping any compiler with
//!   seeded panics, transient failures, and cancellable delays (the
//!   engine of `velus-bench --bin chaos`).

pub mod campaign;
pub mod chaos;
pub mod gen;
pub mod industrial;
pub mod json;
pub mod mutate;
pub mod render;
pub mod shapes;
