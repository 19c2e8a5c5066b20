//! Property tests of the sharded, capacity-bounded artifact cache: the
//! configured caps are never exceeded, eviction counters are monotone,
//! and an evicted entry's next request recompiles and re-verifies
//! through the real pipeline.

use proptest::prelude::*;

use velus_server::{
    ArtifactCache, ArtifactKind, CacheConfig, CompileRequest, ContentDigest, RequestContent,
    WcetModelKind,
};

/// Replays a random operation sequence against a capped cache and
/// checks the capacity/monotonicity invariants after every step.
fn check_random_workload(ops: &[u8], max_entries: usize, max_bytes: usize, shards: usize) {
    let cache: ArtifactCache<String> = ArtifactCache::with_config(
        CacheConfig {
            shards,
            max_entries: Some(max_entries),
            max_bytes: Some(max_bytes),
        },
        Box::new(String::len),
    );
    let mut last_evictions = 0u64;
    for &op in ops {
        // Key space of 16 distinct contents x 2 artifact kinds; the
        // opcode bit selects get/insert. Same content under different
        // kinds must key (and verify) independently.
        let k = usize::from(op) % 32;
        let kind = if k % 2 == 0 {
            ArtifactKind::CCode
        } else {
            ArtifactKind::Wcet {
                model: WcetModelKind::CompCert,
            }
        };
        let req = CompileRequest::new(format!("r{k}"), format!("source-{:03}", k / 2));
        let key = ContentDigest::of(&req).key(&kind);
        if op >= 128 {
            if let Some(artifact) = cache.get(&key, &req, &kind) {
                assert_eq!(
                    *artifact,
                    format!("ART-{k:03}"),
                    "hit serves wrong artifact"
                );
            }
        } else {
            let content = RequestContent::take(&mut req.clone());
            cache.insert(key, &content, kind, format!("ART-{k:03}"));
        }
        let counters = cache.counters();
        assert!(
            counters.entries as usize <= max_entries,
            "entry cap exceeded: {} > {max_entries}",
            counters.entries
        );
        assert!(
            counters.bytes as usize <= max_bytes,
            "byte cap exceeded: {} > {max_bytes}",
            counters.bytes
        );
        assert_eq!(counters.entries as usize, cache.len());
        assert!(
            counters.evictions >= last_evictions,
            "eviction counter went backwards"
        );
        last_evictions = counters.evictions;
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn caps_hold_and_evictions_are_monotone(
        ops in prop::collection::vec(any::<u8>(), 1..200),
        cap in any::<u8>(),
        shard_pow in any::<u8>(),
    ) {
        let max_entries = usize::from(cap) % 8 + 1;
        // Each entry weighs 17 bytes (10 source + 7 artifact); a byte cap
        // that is not a multiple of the weight exercises partial fits.
        let max_bytes = (usize::from(cap) % 5 + 1) * 25;
        let shards = 1 << (usize::from(shard_pow) % 6); // 1..=32
        check_random_workload(&ops, max_entries, max_bytes, shards);
    }

    #[test]
    fn an_unbounded_cache_never_evicts(ops in prop::collection::vec(any::<u8>(), 1..100)) {
        let cache: ArtifactCache<String> = ArtifactCache::new();
        for &op in &ops {
            let k = usize::from(op) % 16;
            let mut req = CompileRequest::new(format!("r{k}"), format!("src-{k}"));
            let key = ContentDigest::of(&req).key(&ArtifactKind::CCode);
            let content = RequestContent::take(&mut req);
            cache.insert(key, &content, ArtifactKind::CCode, format!("A{k}"));
        }
        prop_assert_eq!(cache.counters().evictions, 0);
        prop_assert!(cache.len() <= 16);
    }
}

/// End-to-end through the real pipeline: with a 2-entry cap, a third
/// program evicts the oldest entry never hit; requesting the evictee
/// again is a miss that recompiles, and the fresh artifact matches an
/// independent cold compilation byte for byte (the verification path an
/// eviction must re-run).
#[test]
fn evicted_program_recompiles_and_reverifies() {
    use velus::service::{service, ServiceConfig};

    let svc = service(ServiceConfig {
        workers: 1,
        caching: true,
        cache: CacheConfig {
            max_entries: Some(2),
            ..Default::default()
        },
        ..Default::default()
    });
    let sources: Vec<(String, String)> = (0..3)
        .map(|k| {
            (
                format!("prog{k}"),
                format!("node prog{k}(x: int) returns (y: int) let y = x + ({k} fby y); tel"),
            )
        })
        .collect();
    let req = |k: usize| -> CompileRequest {
        CompileRequest::new(&sources[k].0, &sources[k].1).with_root(&sources[k].0)
    };

    let first = svc.compile_one(req(0));
    let first_c = first
        .primary()
        .expect("prog0 compiles")
        .c_code()
        .unwrap()
        .to_owned();
    svc.compile_one(req(1));
    svc.compile_one(req(2)); // cap 2: evicts prog0, the oldest entry never hit
    let stats = svc.stats();
    assert_eq!(stats.cache_entries, 2);
    assert_eq!(stats.cache_evictions, 1);

    let again = svc.compile_one(req(0));
    assert!(!again.cache_hit, "evicted entry must recompile");
    let again_c = again
        .primary()
        .expect("prog0 recompiles")
        .c_code()
        .unwrap()
        .to_owned();
    assert_eq!(again_c, first_c, "recompilation is deterministic");
    // The recompile re-verified through the full pipeline and matches a
    // fresh single-shot compilation.
    let fresh = velus::compile(&sources[0].1, Some("prog0")).unwrap();
    assert_eq!(velus::emit_c(&fresh, velus::IoMode::Volatile), first_c);
    // Recompiling refilled the cache, evicting the next entry never hit.
    let stats = svc.stats();
    assert_eq!(stats.cache_entries, 2);
    assert_eq!(stats.cache_evictions, 2);
}
