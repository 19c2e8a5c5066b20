//! The per-stage replay: a fixed sample of a workload's programs run
//! single-threaded through the `StagedPipeline` accessors, with the
//! counting allocator on.
//!
//! Each stage is charged the time and allocations from the end of the
//! previous stage to its own end, so work the accessors do between
//! passes (such as the program clone before scheduling) lands on the
//! stage that needs it, and the stage times of one compile add up to
//! the client-timed compile. The replay runs on a fresh thread, so the
//! compiler's per-thread scratch starts empty and allocation counts
//! depend only on the sample.

use std::time::Instant;

use velus::passes::StagedPipeline;
use velus::{Stage, TestIo};
use velus_ops::ClightOps;
use velus_wcet::{wcet_step, CostModel};

use crate::alloc::{counters, set_counting};

/// One program to replay, with the artifact kinds its request asks for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayItem {
    /// Lustre source text.
    pub source: String,
    /// The root node.
    pub root: String,
    /// Whether C is emitted (otherwise the replay stops at Clight).
    pub c: bool,
    /// Whether the lint pass runs.
    pub lint: bool,
}

/// How many times the sample is replayed.
pub const PASSES: u64 = 2;

/// Time and allocations charged to one stage.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StageTotals {
    /// Nanoseconds.
    pub ns: u64,
    /// Allocation calls.
    pub allocs: u64,
    /// Allocated bytes.
    pub bytes: u64,
}

/// Totals over a replay.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Replay {
    /// Per stage, indexed like [`Stage::ALL`].
    pub stages: [StageTotals; Stage::ALL.len()],
    /// Programs compiled (sample size × [`PASSES`]).
    pub compiles: u64,
    /// Client-timed compile time (first accessor call to last return).
    pub compile_ns: u64,
    /// Compiles that emitted C.
    pub c_programs: u64,
    /// Bytes of C they emitted.
    pub c_bytes: u64,
    /// Obc statements before fusion.
    pub stmts_before: u64,
    /// Obc statements after fusion.
    pub stmts_after: u64,
    /// `wcet_step` calls.
    pub wcet_calls: u64,
    /// Time spent in them.
    pub wcet_ns: u64,
}

impl Replay {
    /// Per-compile average of a total.
    pub fn per_compile(&self, total: u64) -> f64 {
        total as f64 / self.compiles.max(1) as f64
    }

    /// The summed stage times.
    pub fn stage_ns(&self) -> u64 {
        self.stages.iter().map(|s| s.ns).sum()
    }
}

fn obc_size(prog: &velus_obc::ast::ObcProgram<ClightOps>) -> u64 {
    prog.classes
        .iter()
        .flat_map(|c| &c.methods)
        .map(|m| m.body.size() as u64)
        .sum()
}

fn stage_index(stage: Stage) -> usize {
    Stage::ALL
        .iter()
        .position(|s| *s == stage)
        .expect("stage in Stage::ALL")
}

fn replay_one(item: &ReplayItem, out: &mut Replay) -> Result<(), String> {
    type Mark = (Stage, Instant, (u64, u64));
    let mut marks: Vec<Mark> = Vec::with_capacity(2 * Stage::ALL.len());
    let start = (Instant::now(), counters());
    {
        let mut sink = |stage: Stage, _: std::time::Duration| {
            marks.push((stage, Instant::now(), counters()));
        };
        let fail = |e: velus::VelusError| format!("{}: {e}", item.root);
        let mut staged =
            StagedPipeline::from_source(&item.source, Some(&item.root), &mut sink).map_err(fail)?;
        staged.clight().map_err(fail)?;
        if item.c {
            let c = staged.emit(TestIo::Volatile).map_err(fail)?;
            out.c_programs += 1;
            out.c_bytes += c.len() as u64;
        }
        if item.lint {
            staged.lint().map_err(fail)?;
        }
        out.compile_ns += start.0.elapsed().as_nanos() as u64;
        // Memoized from here on: no pass runs, nothing is charged.
        out.stmts_before += obc_size(staged.obc().map_err(fail)?);
        out.stmts_after += obc_size(staged.obc_fused().map_err(fail)?);
        let root = staged.root();
        let clight = staged.clight().map_err(fail)?;
        let t = Instant::now();
        let cycles = wcet_step(clight, root, CostModel::CompCert).map_err(|e| e.to_string())?;
        out.wcet_ns += t.elapsed().as_nanos() as u64;
        out.wcet_calls += 1;
        std::hint::black_box(cycles);
    }
    let mut prev = start;
    for (stage, at, count) in marks {
        let row = &mut out.stages[stage_index(stage)];
        row.ns += at.duration_since(prev.0).as_nanos() as u64;
        row.allocs += count.0 - prev.1 .0;
        row.bytes += count.1 - prev.1 .1;
        prev = (at, count);
    }
    out.compiles += 1;
    Ok(())
}

/// Replays `items` [`PASSES`] times on a fresh thread.
///
/// # Errors
///
/// The first program that fails to compile.
pub fn replay(items: &[ReplayItem]) -> Result<Replay, String> {
    std::thread::scope(|scope| {
        scope
            .spawn(|| {
                let mut out = Replay::default();
                set_counting(true);
                let result = (0..PASSES)
                    .try_for_each(|_| items.iter().try_for_each(|item| replay_one(item, &mut out)));
                set_counting(false);
                result.map(|()| out)
            })
            .join()
            .expect("replay thread panicked")
    })
}
