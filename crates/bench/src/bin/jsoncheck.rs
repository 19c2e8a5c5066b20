//! `jsoncheck` — reads stdin, asserts it is one well-formed JSON value.
//!
//! The CI pipes the CLI's `--error-format json` and `--emit report`
//! outputs through this (the workspace's one JSON reader,
//! `velus_testkit::json`, which the pipeline bench's `--smoke` gate
//! uses too), so a malformed diagnostics document fails the build even
//! though the producing `velus` invocation exits nonzero by design.

use std::io::Read;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut input = String::new();
    if let Err(e) = std::io::stdin().read_to_string(&mut input) {
        eprintln!("jsoncheck: cannot read stdin: {e}");
        return ExitCode::FAILURE;
    }
    if input.trim().is_empty() {
        eprintln!("jsoncheck: empty input (expected one JSON value)");
        return ExitCode::FAILURE;
    }
    match velus_testkit::json::parse(&input) {
        Ok(_) => {
            println!("json ok ({} bytes)", input.len());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("jsoncheck: malformed JSON: {e}");
            eprintln!("{input}");
            ExitCode::FAILURE
        }
    }
}
