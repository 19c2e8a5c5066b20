//! Emitted C stays linear in the size of its source, however deep the
//! nesting.
//!
//! Each `if` level of a Lustre expression becomes one level of C
//! conditionals. Indenting every level one step further made the
//! leading whitespace of a line grow with its depth, so a nest of `d`
//! levels emitted O(d²) bytes: 16.1 MB for 2,000 levels and 64.2 MB for
//! 4,000. Indentation now stops at
//! [`velus_common::pretty::MAX_INDENT_LEVELS`], so doubling the nest at
//! most doubles the C, and the C stays within a small multiple of the
//! source.

use velus::IoMode;
use velus_testkit::shapes::nest_source;

/// Stack for compiling the deepest nest: the front end and the emitter
/// recurse once per `if` level, and an unoptimized test build needs
/// more per level than a release build. Stack use is not what this
/// test measures.
const NEST_STACK_BYTES: usize = 256 << 20;

/// (source bytes, C bytes) of the nest of `depth` levels.
fn sizes(depth: usize) -> (usize, usize) {
    let src = nest_source(depth);
    let compiled = velus::compile(&src, Some("nest")).expect("the nest compiles");
    (src.len(), velus::emit_c(&compiled, IoMode::Volatile).len())
}

#[test]
fn deep_if_nests_emit_c_linear_in_their_source() {
    let [(s2, c2), (s4, c4)] = std::thread::Builder::new()
        .stack_size(NEST_STACK_BYTES)
        .spawn(|| [sizes(2_000), sizes(4_000)])
        .expect("spawn")
        .join()
        .expect("compile");
    let ratio = c4 as f64 / c2 as f64;
    assert!(
        ratio <= 2.3,
        "doubling the nest multiplied the C by {ratio:.2} ({c2} -> {c4} bytes)"
    );
    for (s, c) in [(s2, c2), (s4, c4)] {
        assert!(c <= 16 * s, "{c} bytes of C from {s} bytes of source");
    }
}
