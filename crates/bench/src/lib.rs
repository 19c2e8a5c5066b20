//! The evaluation harness: regenerates the PLDI'17 experiments.
//!
//! * [`suite`] — the 14-program benchmark suite of Fig. 12 and the
//!   computation of all seven columns (Vélus, Heptagon ± GCC ± inlining,
//!   Lustre v6 ± GCC ± inlining).
//! * [`table`] — rendering in the paper's format (cycles with
//!   percentages relative to the first column).
//!
//! Binaries:
//!
//! * `figure12` — prints the reproduced Fig. 12;
//! * `industrial` — the §5 compile-time scaling experiment;
//! * `schedules` — the §5 schedule-quality observation;
//! * `service` — throughput scaling of the batch compilation service;
//! * `contention` — identifier-interner contention across threads;
//! * `pipeline` — per-stage time and allocation profile of the cold
//!   compile path (counting global allocator; see
//!   `BENCH_pipeline.json`).

pub mod suite;
pub mod table;

/// Reads the `usize` value following `name` in this process's argv, or
/// `default` when absent or unparseable. The shared flag convention of
/// every bench binary (`--programs 24`, `--workers 4`, …).
pub fn parse_flag(name: &str, default: usize) -> usize {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == name {
            if let Some(v) = args.next().and_then(|v| v.parse().ok()) {
                return v;
            }
        }
    }
    default
}

/// Whether the bare flag `name` appears in this process's argv
/// (`--smoke`, `--verbose`, …).
pub fn parse_bool_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// Reads the string value following `name` in this process's argv.
pub fn parse_string_flag(name: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == name {
            return args.next();
        }
    }
    None
}
