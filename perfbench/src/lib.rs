//! The repository benchmark: four seeded workloads against a 2-worker
//! compile service, end-to-end and per-layer metrics, and a correctness
//! gate. See `README.md` in this directory.

pub mod alloc;
pub mod calib;
pub mod gate;
pub mod gen;
pub mod load;
pub mod replay;
pub mod report;
pub mod run;
pub mod spans;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;
