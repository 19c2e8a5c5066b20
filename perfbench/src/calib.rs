//! Machine-speed calibration.
//!
//! On a shared virtual machine the same work runs tens of percent slower
//! for seconds to minutes at a time, with or without CPU steal, as other
//! tenants contend for the host's cores, caches and memory. A run cannot
//! avoid that, but it can measure it: between the segments of its timed
//! phase every client thread runs a fixed calibration burst, and the
//! compute part of each segment's times is converted into the time it
//! would have taken on a reference machine, in proportion to the
//! bursts' speed around the segment.
//!
//! A burst is two kernels that belong to the benchmark, not to the
//! compiler, so no change to the program moves them. One hashes keys
//! into a map of small vectors and sorts them, as compiler passes do; it
//! slows when the core is contended. The other makes random
//! read-modify-writes over a 1 MiB buffer, larger than a core's private
//! caches; it slows when the shared cache and memory are contended. A
//! burst's speed is the geometric mean of the two kernels' speeds.

use std::cell::RefCell;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Map insertions in one unit of the core kernel.
const INSERTS: usize = 1024;
/// Buffer updates in one unit of the memory kernel.
const UPDATES: usize = 4096;
/// Words of each thread's memory-kernel buffer (1 MiB).
const WORDS: u64 = 1 << 17;
/// Units per second of one thread of the core kernel on the reference
/// machine (a 2-vCPU Intel Xeon virtual machine).
pub const REFERENCE_CORE_RATE: f64 = 9_500.0;
/// Units per second of one thread of the memory kernel on the
/// reference machine.
pub const REFERENCE_MEMORY_RATE: f64 = 55_000.0;

thread_local! {
    /// The memory kernel's buffer, kept for the thread's lifetime so
    /// that bursts after the first touch no new pages.
    static BUFFER: RefCell<Vec<u64>> = RefCell::new((0..WORDS).collect());
}

/// Advances the xorshift `state` and returns it.
fn next(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// One unit of the core kernel.
fn core_unit(state: &mut u64) -> u32 {
    let mut map: HashMap<u32, Vec<u32>> = HashMap::with_capacity(64);
    for _ in 0..INSERTS {
        let x = next(state);
        map.entry((x % 509) as u32).or_default().push(x as u32);
    }
    let mut all: Vec<u32> = map.values().flatten().copied().collect();
    all.sort_unstable();
    all[all.len() / 2]
}

/// One unit of the memory kernel over `buf` (its length a power of 2).
fn memory_unit(buf: &mut [u64], state: &mut u64) -> u64 {
    let mask = buf.len() - 1;
    let mut acc = 0u64;
    for _ in 0..UPDATES {
        let i = next(state) as usize & mask;
        let v = buf[i].wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17) ^ acc;
        buf[i] = v;
        acc = acc.wrapping_add(if v & 1 == 0 {
            v >> 3
        } else {
            v.rotate_right(5)
        });
    }
    acc
}

/// Runs `unit` for `duration` and returns its rate in units per second.
fn rate<T>(duration: Duration, mut unit: impl FnMut() -> T) -> f64 {
    let mut units = 0u64;
    let start = Instant::now();
    while start.elapsed() < duration {
        std::hint::black_box(unit());
        units += 1;
    }
    units as f64 / start.elapsed().as_secs_f64()
}

/// Runs a burst of `duration` (half per kernel) on the calling thread
/// and returns its speed relative to the reference machine (below 1 =
/// slower); `thread` seeds the kernels.
pub fn burst(thread: usize, duration: Duration) -> f64 {
    let mut state = 0x2545_f491_4f6c_dd1d ^ thread as u64;
    let core = rate(duration / 2, || core_unit(&mut state));
    let memory = BUFFER.with(|buf| {
        let mut buf = buf.borrow_mut();
        rate(duration / 2, || memory_unit(&mut buf, &mut state))
    });
    (core / REFERENCE_CORE_RATE * memory / REFERENCE_MEMORY_RATE).sqrt()
}
