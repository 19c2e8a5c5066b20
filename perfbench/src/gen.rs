//! Seeded workload inputs.
//!
//! Everything a workload sends is a pure function of its seed: the same
//! seed gives byte-identical requests, another seed gives other
//! programs. Shapes are spread evenly over their ranges for every seed
//! (stratified draws, or a fixed grid where the generator randomizes
//! content itself), so that two seeds load the compiler equally and a
//! run-to-run difference is a change in the system, not in the draw.

use std::path::PathBuf;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng, SliceRandom};
use velus::{ArtifactKind, CompileOptions, CompileRequest, WcetModelKind};
use velus_testkit::campaign::CampaignConfig;
use velus_testkit::gen::gen_program;
use velus_testkit::industrial::{industrial_source, IndustrialConfig};
use velus_testkit::render::lustre_source;

/// The 14 paper benchmarks (`benchmarks/<name>.lus`, root node = name),
/// in the paper's Fig. 12 row order.
pub const PAPER: [&str; 14] = [
    "avgvelocity",
    "count",
    "tracker",
    "pip_ex",
    "mp_longitudinal",
    "cruise",
    "risingedgeretrigger",
    "chrono",
    "watchdog3",
    "functionalchain",
    "landing_gear",
    "minus",
    "prodcell",
    "ums_verif",
];

/// Distinct generated programs in the `cold-mixed` pool.
pub const COLD_POOL: usize = 384;
/// Distinct generated programs in the `big-nodes` pool.
pub const BIG_POOL: usize = 48;
/// Programs compiled into the cache before `warm-rebuild` is timed.
pub const WARM_POOL: usize = 256;
/// Length of the precomputed `warm-rebuild` request schedule (it
/// repeats; fresh edits stay distinct because their text carries the
/// request index).
const WARM_SCHEDULE: usize = 1 << 16;
/// Percentage of `warm-rebuild` requests that are fresh edits.
const WARM_EDIT_PCT: u32 = 4;
/// Cache entry cap for `warm-rebuild`: below the `2 × WARM_POOL`
/// entries the prefill stores, so LRU eviction runs.
pub const WARM_CACHE_ENTRIES: usize = 448;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold `--emit c` compiles of distinct multi-node programs.
    ColdMixed,
    /// `--emit c,lint` compiles of programs with very large nodes.
    BigNodes,
    /// CI-style rebuilds served mostly from a bounded cache.
    WarmRebuild,
    /// The differential campaign: generate, compile, run every oracle.
    OracleCampaign,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::ColdMixed,
        Workload::BigNodes,
        Workload::WarmRebuild,
        Workload::OracleCampaign,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdMixed => "cold-mixed",
            Workload::BigNodes => "big-nodes",
            Workload::WarmRebuild => "warm-rebuild",
            Workload::OracleCampaign => "oracle-campaign",
        }
    }

    /// The workload named `s`, if any.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// The repository root (the parent of this package's directory).
pub fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits one level under the repository root")
        .to_path_buf()
}

/// Reads `benchmarks/<name>.lus`.
///
/// # Errors
///
/// The file is missing or unreadable.
pub fn paper_source(name: &str) -> std::io::Result<String> {
    std::fs::read_to_string(repo_root().join("benchmarks").join(format!("{name}.lus")))
}

/// One generated program: source text and root node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Generated {
    /// Lustre source text.
    pub source: String,
    /// The root node.
    pub root: String,
}

fn rng_for(seed: u64, workload: Workload) -> StdRng {
    StdRng::seed_from_u64(seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(workload as u64 + 1)))
}

/// `n` draws from `lo..=hi`, one per equal-width stratum of the range,
/// in random order.
fn stratified(rng: &mut StdRng, n: usize, lo: usize, hi: usize) -> Vec<usize> {
    let width = (hi - lo + 1) as f64;
    let mut out: Vec<usize> = (0..n)
        .map(|k| {
            let u: f64 = rng.gen();
            (lo + ((k as f64 + u) * width / n as f64) as usize).min(hi)
        })
        .collect();
    out.shuffle(rng);
    out
}

/// `n` industrial-generator programs with the shape ranges of the
/// service benchmark: 8–26 nodes, 6–14 equations per node, fan-in 1–2,
/// a third of them sub-clocked one or two levels deep.
fn industrial_pool(rng: &mut StdRng, n: usize) -> Vec<Generated> {
    let nodes = stratified(rng, n, 8, 26);
    let eqs = stratified(rng, n, 6, 14);
    let fan_in = stratified(rng, n, 1, 2);
    let depth = stratified(rng, n, 1, 2);
    let mut clocked: Vec<bool> = (0..n).map(|k| k % 3 == 0).collect();
    clocked.shuffle(rng);
    (0..n)
        .map(|k| {
            let cfg = IndustrialConfig {
                nodes: nodes[k],
                eqs_per_node: eqs[k],
                fan_in: fan_in[k],
                subclock_depth: if clocked[k] { depth[k] } else { 0 },
            };
            Generated {
                source: industrial_source(&cfg),
                root: format!("blk{}", cfg.nodes - 1),
            }
        })
        .collect()
}

/// The source text of request `index`: the pool program under a header
/// comment naming the request, so every request's text (and cache key)
/// is distinct while the compiler's work is the pool program's.
fn distinct(tag: &str, index: usize, program: &Generated) -> String {
    let mut source = String::with_capacity(program.source.len() + 32);
    source.push_str("-- ");
    source.push_str(tag);
    source.push(' ');
    source.push_str(&index.to_string());
    source.push('\n');
    source.push_str(&program.source);
    source
}

fn request(name: String, source: String, root: &str, kinds: Vec<ArtifactKind>) -> CompileRequest {
    CompileRequest::new(name, source)
        .with_root(root)
        .with_options(CompileOptions::for_kinds(kinds))
}

/// The WCET kind every workload asks for (the paper's CompCert model).
const WCET: ArtifactKind = ArtifactKind::Wcet {
    model: WcetModelKind::CompCert,
};

/// `cold-mixed`: the 14 paper benchmarks, then a stream of distinct
/// industrial-shape programs, all requested as `--emit c`.
pub struct ColdMixed {
    /// `(name, source)` of the paper corpus.
    pub paper: Vec<(String, String)>,
    /// The generated programs the stream cycles through.
    pub pool: Vec<Generated>,
}

impl ColdMixed {
    /// Builds the inputs of `seed`.
    ///
    /// # Errors
    ///
    /// A paper benchmark cannot be read.
    pub fn new(seed: u64) -> std::io::Result<ColdMixed> {
        let paper = PAPER
            .iter()
            .map(|name| Ok(((*name).to_owned(), paper_source(name)?)))
            .collect::<std::io::Result<Vec<_>>>()?;
        let mut rng = rng_for(seed, Workload::ColdMixed);
        Ok(ColdMixed {
            paper,
            pool: industrial_pool(&mut rng, COLD_POOL),
        })
    }

    /// Request `i` of the stream.
    pub fn request(&self, i: usize) -> CompileRequest {
        let c = vec![ArtifactKind::CCode];
        match self.paper.get(i) {
            Some((name, source)) => request(name.clone(), source.clone(), name, c),
            None => {
                let program = &self.pool[(i - self.paper.len()) % self.pool.len()];
                request(
                    format!("cold{i}"),
                    distinct("cold-mixed request", i, program),
                    &program.root,
                    c,
                )
            }
        }
    }
}

/// The `if` nest of a `big-nodes` node reads chain variables from
/// `n / NEST_FLOOR_DIV` up.
const NEST_FLOOR_DIV: usize = 6;

/// Shape of one `big-nodes` program.
struct BigShape {
    /// Equations per node (one entry per node).
    eqs: Vec<usize>,
    /// Depth of each node's `if` nest.
    depth: usize,
}

/// Renders one `big-nodes` program: each node is a long dependency
/// chain (every equation reads its predecessor, some also one of the
/// three before it) plus one right-nested `if` of `shape.depth` levels;
/// node `k` calls node
/// `k - 1` once, and the last node is the root. Only `+`, `-`, `if`,
/// comparisons and `fby` appear, with small constants: the program can
/// neither divide nor overflow on small inputs, so it is trap-free by
/// construction.
fn big_program(rng: &mut StdRng, shape: &BigShape) -> Generated {
    use std::fmt::Write as _;
    let mut src = String::new();
    for (k, &n) in shape.eqs.iter().enumerate() {
        let _ = writeln!(src, "node big{k}(x: int; c: bool) returns (y: int)");
        src.push_str("var w: int;");
        for i in 1..=n {
            let _ = write!(src, "{}v{i}", if i == 1 { " " } else { ", " });
        }
        src.push_str(": int;\nlet\n  v1 = x + 1;\n");
        let call_at = if k > 0 { rng.gen_range(2..=n) } else { 0 };
        for i in 2..=n {
            let p = i - 1;
            let a = i - rng.gen_range(1..=3.min(i - 1));
            let _ = match (i == call_at, rng.gen_range(0..6u32)) {
                (true, _) => writeln!(src, "  v{i} = big{}(v{p}, c);", k - 1),
                (false, 0 | 1) => writeln!(src, "  v{i} = v{p} + {};", rng.gen_range(1..=9)),
                (false, 2) => writeln!(src, "  v{i} = v{p} - {};", rng.gen_range(1..=9)),
                (false, 3) => writeln!(src, "  v{i} = if c then v{p} else v{a} + 1;"),
                (false, 4) => writeln!(src, "  v{i} = 0 fby v{p};"),
                (false, _) => writeln!(
                    src,
                    "  v{i} = if v{a} > {} then v{p} else v{p} + 1;",
                    rng.gen_range(0..100)
                ),
            };
        }
        // The nest reads only the upper part of the chain, so the
        // chain below it is a long single-successor path: the shape that
        // makes a round-robin liveness sweep quadratic.
        let lo = (n / NEST_FLOOR_DIV).max(1);
        src.push_str("  w = ");
        for _ in 0..shape.depth {
            let a = rng.gen_range(lo..=n);
            let b = rng.gen_range(lo..=n);
            let _ = write!(src, "if v{a} > {} then v{b} else ", rng.gen_range(0..100));
        }
        let _ = writeln!(src, "v{};\n  y = v{n} + w;\ntel\n", rng.gen_range(lo..=n));
    }
    Generated {
        source: src,
        root: format!("big{}", shape.eqs.len() - 1),
    }
}

/// `big-nodes`: programs of 1–3 nodes, each node 500–1,500 equations
/// with one 100–200-level `if` nest, requested as `--emit c,lint`.
///
/// The ranges stay well inside a service worker's default 2 MiB stack:
/// a node needs about 0.9 KiB of worker stack per equation and 0.4 KiB
/// per nest level on top of about 0.3 MiB, so the largest node here
/// needs about 1.55 MiB, while 2,000 equations under a 200-level nest
/// already overflow the stack and abort the process.
pub struct BigNodes {
    /// The generated programs the stream cycles through.
    pub pool: Vec<Generated>,
}

impl BigNodes {
    /// Builds the inputs of `seed`. The multiset of shapes is the same
    /// for every seed — an even grid over the ranges, spread over the
    /// pool by fixed strides — and the seed picks the order and every
    /// program's content, so seeds differ in text but not in cost.
    pub fn new(seed: u64) -> BigNodes {
        let mut rng = rng_for(seed, Workload::BigNodes);
        let total: usize = (0..BIG_POOL).map(|k| 1 + k % 3).sum();
        let grid = |i: usize, n: usize, lo: usize, hi: usize| {
            lo + (((i as f64) + 0.5) * (hi - lo + 1) as f64 / n as f64) as usize
        };
        let mut node = 0;
        let mut shapes: Vec<BigShape> = (0..BIG_POOL)
            .map(|k| BigShape {
                eqs: (0..1 + k % 3)
                    .map(|_| {
                        node += 1;
                        grid(node * 37 % total, total, 500, 1500)
                    })
                    .collect(),
                depth: grid(k * 29 % BIG_POOL, BIG_POOL, 100, 200),
            })
            .collect();
        shapes.shuffle(&mut rng);
        let pool = shapes.iter().map(|s| big_program(&mut rng, s)).collect();
        BigNodes { pool }
    }

    /// Request `i` of the stream.
    pub fn request(&self, i: usize) -> CompileRequest {
        let program = &self.pool[i % self.pool.len()];
        request(
            format!("big{i}"),
            distinct("big-nodes request", i, program),
            &program.root,
            vec![ArtifactKind::CCode, ArtifactKind::Lint],
        )
    }
}

/// One scheduled `warm-rebuild` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarmStep {
    /// The pool program it rebuilds.
    pub program: usize,
    /// Which artifact set it asks for: 0 = `c`, 1 = `wcet`, 2 = `c,wcet`.
    pub kinds: u8,
    /// Whether it is a fresh edit (distinct text, so a cache miss).
    pub edit: bool,
}

impl WarmStep {
    /// The artifact kinds this step requests.
    pub fn kinds(self) -> Vec<ArtifactKind> {
        match self.kinds {
            0 => vec![ArtifactKind::CCode],
            1 => vec![WCET],
            _ => vec![ArtifactKind::CCode, WCET],
        }
    }
}

/// `warm-rebuild`: a pool compiled into the cache during set-up, then
/// rebuild requests with Zipf-skewed popularity, a mix of artifact sets,
/// and a minority of fresh edits.
pub struct WarmRebuild {
    /// The pool programs (their source texts are distinct).
    pub pool: Vec<Generated>,
    /// The request schedule (request `i` is `schedule[i % len]`).
    pub schedule: Vec<WarmStep>,
}

impl WarmRebuild {
    /// Builds the inputs of `seed`.
    pub fn new(seed: u64) -> WarmRebuild {
        let mut rng = rng_for(seed, Workload::WarmRebuild);
        let pool: Vec<Generated> = industrial_pool(&mut rng, WARM_POOL)
            .into_iter()
            .enumerate()
            .map(|(k, g)| Generated {
                source: distinct("warm-rebuild unit", k, &g),
                root: g.root,
            })
            .collect();
        // Zipf(1.1) popularity. Rank r goes to the program at position
        // 97·r mod WARM_POOL of the size order, so for every seed the
        // popular and the unpopular programs both span all sizes.
        let mut by_size: Vec<usize> = (0..WARM_POOL).collect();
        by_size.sort_by_key(|&k| (pool[k].source.len(), k));
        let rank: Vec<usize> = (0..WARM_POOL)
            .map(|r| by_size[r * 97 % WARM_POOL])
            .collect();
        let weights: Vec<f64> = (1..=WARM_POOL).map(|r| (r as f64).powf(-1.1)).collect();
        let total: f64 = weights.iter().sum();
        let mut cdf = Vec::with_capacity(WARM_POOL);
        let mut acc = 0.0;
        for w in &weights {
            acc += w / total;
            cdf.push(acc);
        }
        // Edits touch any program alike; rebuilds follow popularity.
        let schedule = (0..WARM_SCHEDULE)
            .map(|_| {
                let edit = rng.gen_range(0..100u32) < WARM_EDIT_PCT;
                let program = if edit {
                    rng.gen_range(0..WARM_POOL)
                } else {
                    let u: f64 = rng.gen();
                    rank[cdf.partition_point(|&c| c < u).min(WARM_POOL - 1)]
                };
                WarmStep {
                    program,
                    kinds: rng.gen_range(0..3u8),
                    edit,
                }
            })
            .collect();
        WarmRebuild { pool, schedule }
    }

    /// The step behind request `i`.
    pub fn step(&self, i: usize) -> WarmStep {
        self.schedule[i % self.schedule.len()]
    }

    /// The prefill request of pool program `k` (both kinds).
    pub fn prefill(&self, k: usize) -> CompileRequest {
        let p = &self.pool[k];
        request(
            format!("unit{k}"),
            p.source.clone(),
            &p.root,
            vec![ArtifactKind::CCode, WCET],
        )
    }

    /// Request `i` of the stream.
    pub fn request(&self, i: usize) -> CompileRequest {
        let step = self.step(i);
        let p = &self.pool[step.program];
        let source = if step.edit {
            let mut s = p.source.clone();
            s.push_str("-- edit ");
            s.push_str(&i.to_string());
            s.push('\n');
            s
        } else {
            p.source.clone()
        };
        request(format!("warm{i}"), source, &p.root, step.kinds())
    }
}

/// The first campaign seed of a run: runs with different benchmark
/// seeds check disjoint campaign seed blocks.
pub fn campaign_base(seed: u64) -> u64 {
    seed.wrapping_mul(1 << 32)
}

/// The program `campaign::run_seed` generates for an unmutated `seed`,
/// with the RNG positioned where `run_seed` draws the inputs next.
pub fn campaign_program(seed: u64, cfg: &CampaignConfig) -> (Generated, StdRng) {
    let profile = &cfg.profiles[(seed % cfg.profiles.len() as u64) as usize];
    let mut rng = StdRng::seed_from_u64(seed);
    let prog = gen_program(&mut rng, &profile.gen);
    let root = prog
        .nodes
        .last()
        .expect("generated programs have nodes")
        .name
        .to_string();
    let program = Generated {
        source: lustre_source(&prog),
        root,
    };
    (program, rng)
}
