//! A deterministic guard on the artifact cache's eviction policy: a
//! seeded stream shaped like perfbench's `warm-rebuild` workload drives
//! an `ArtifactCache<()>` directly (no compiles, a few milliseconds) and
//! the share of requests that would compile must stay near the share
//! measured when the S3-FIFO policy went in.
//!
//! The stream: 256 programs prefilled with both kinds (512 entries)
//! under a 448-entry cap, then requests with Zipf(1.1) popularity, `c`,
//! `wcet` or `c,wcet` uniformly, and 4% one-off edits of any program. A
//! request compiles when any of its kinds misses, and fills exactly the
//! kinds that missed, as the service does.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use velus_server::{
    ArtifactCache, ArtifactKind, CacheConfig, CompileOptions, CompileRequest, ContentDigest,
    RequestContent, WcetModelKind,
};

const POOL: usize = 256;
const CAP: usize = 448;
const EDIT_PCT: u32 = 4;
const REQUESTS: usize = 50_000;
const SEED: u64 = 29;

/// The compile rate this stream measured with S3-FIFO (a strict LRU
/// measured 0.1077 on the same stream, over the bound).
const MEASURED: f64 = 0.0757;

const WCET: ArtifactKind = ArtifactKind::Wcet {
    model: WcetModelKind::CompCert,
};

fn request(source: String, kinds: Vec<ArtifactKind>) -> CompileRequest {
    CompileRequest::new("p", source).with_options(CompileOptions::for_kinds(kinds))
}

/// Serves `req` as the service would: probe every kind, and on any miss
/// compile once and fill the missing kinds. Returns whether it compiled.
fn serve(cache: &ArtifactCache<()>, req: &CompileRequest) -> bool {
    let digest = ContentDigest::of(req);
    let missing: Vec<ArtifactKind> = req
        .options
        .kinds
        .iter()
        .filter(|kind| cache.get(&digest.key(kind), req, kind).is_none())
        .copied()
        .collect();
    if missing.is_empty() {
        return false;
    }
    let content = RequestContent::take(&mut req.clone());
    for kind in missing {
        cache.insert(digest.key(&kind), &content, kind, ());
    }
    true
}

/// The share of the stream's requests that compile.
fn compile_rate() -> f64 {
    let cache: ArtifactCache<()> = ArtifactCache::with_config(
        CacheConfig {
            max_entries: Some(CAP),
            ..CacheConfig::default()
        },
        Box::new(|_| 0),
    );
    let program = |k: usize| format!("program {k}\n");
    for k in 0..POOL {
        serve(
            &cache,
            &request(program(k), vec![ArtifactKind::CCode, WCET]),
        );
    }
    // Popularity rank r goes to program 97·r mod 256, so the popular
    // programs are spread over the prefill order, as in perfbench.
    let weights: Vec<f64> = (1..=POOL).map(|r| (r as f64).powf(-1.1)).collect();
    let total: f64 = weights.iter().sum();
    let cdf: Vec<f64> = weights
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w / total;
            Some(*acc)
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut compiles = 0usize;
    for i in 0..REQUESTS {
        let edit = rng.gen_range(0..100u32) < EDIT_PCT;
        let k = if edit {
            rng.gen_range(0..POOL)
        } else {
            let u: f64 = rng.gen();
            cdf.partition_point(|&c| c < u).min(POOL - 1) * 97 % POOL
        };
        let kinds = match rng.gen_range(0..3u8) {
            0 => vec![ArtifactKind::CCode],
            1 => vec![WCET],
            _ => vec![ArtifactKind::CCode, WCET],
        };
        let mut source = program(k);
        if edit {
            source.push_str(&format!("-- edit {i}\n"));
        }
        compiles += usize::from(serve(&cache, &request(source, kinds)));
    }
    compiles as f64 / REQUESTS as f64
}

#[test]
fn warm_rebuild_compile_rate_stays_near_its_measured_value() {
    let rate = compile_rate();
    eprintln!("warm-rebuild-shaped stream: compile rate {rate:.4}");
    assert!(
        rate <= MEASURED * 1.1,
        "compile rate {rate:.4} is more than 10% above the measured {MEASURED}"
    );
}
