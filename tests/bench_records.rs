//! The checked-in benchmark records are well-formed JSON in which no
//! object repeats a key: a reader keeps one value per key, so a record
//! appended under a key already in use would hide the other one.

#[test]
fn benchmark_records_parse_without_repeated_keys() {
    for name in ["BENCH_pipeline.json", "BENCH_service.json"] {
        let path = velus_repro::repo_root().join(name);
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
        if let Err(e) = velus_testkit::json::parse(&text) {
            panic!("{name}: {e}");
        }
    }
}
