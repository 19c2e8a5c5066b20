//! Closes the loop through a *real* C compiler: the emitted C (stdio
//! test mode, §5) is compiled with the system `cc`, executed on the
//! §2.2 inputs, and its printed outputs are compared with the reference
//! dataflow semantics.
//!
//! The paper's final guarantee covers CompCert-generated assembly; this
//! test is the closest executable analogue available in a Rust-only
//! environment. It is skipped silently when no C compiler is installed.

use std::io::Write;
use std::process::{Command, Stdio};

use velus_nlustre::streams::{SVal, StreamSet};
use velus_ops::{CVal, ClightOps};

fn have_cc() -> bool {
    Command::new("cc")
        .arg("--version")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map(|s| s.success())
        .unwrap_or(false)
}

/// Compiles benchmark `name` to C, builds it with `cc`, feeds `stdin`,
/// and returns the printed `out__x = v` values grouped per instant.
fn run_through_cc(name: &str, stdin_text: &str) -> Vec<Vec<i64>> {
    let source = std::fs::read_to_string(velus_repro::benchmark_path(name)).unwrap();
    let compiled = velus::compile(&source, Some(name)).unwrap();
    let c_code = velus::emit_c(&compiled, velus::IoMode::Stdio);

    let dir = std::env::temp_dir().join(format!("velus-cc-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let c_path = dir.join(format!("{name}.c"));
    let bin_path = dir.join(name);
    std::fs::write(&c_path, &c_code).unwrap();

    let status = Command::new("cc")
        .args(["-std=c99", "-O1", "-o"])
        .arg(&bin_path)
        .arg(&c_path)
        .status()
        .unwrap();
    assert!(status.success(), "cc rejected the generated C:\n{c_code}");

    let mut child = Command::new(&bin_path)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(stdin_text.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());

    let n_outputs = compiled.snlustre.node(compiled.root).unwrap().outputs.len();
    let values: Vec<i64> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|l| l.split('=').nth(1))
        .map(|v| v.trim().parse::<i64>().expect("integer output"))
        .collect();
    values.chunks(n_outputs).map(|c| c.to_vec()).collect()
}

fn dataflow_outputs(name: &str, inputs: &StreamSet<ClightOps>, n: usize) -> Vec<Vec<i64>> {
    let source = std::fs::read_to_string(velus_repro::benchmark_path(name)).unwrap();
    let compiled = velus::compile(&source, Some(name)).unwrap();
    let outs =
        velus_nlustre::dataflow::run_node(&compiled.snlustre, compiled.root, inputs, n).unwrap();
    (0..n)
        .map(|i| {
            outs.iter()
                .map(|s| match &s[i] {
                    SVal::Pres(CVal::Int(v)) => i64::from(*v),
                    other => panic!("non-integer output {other:?}"),
                })
                .collect()
        })
        .collect()
}

#[test]
fn tracker_binary_matches_the_dataflow_semantics() {
    if !have_cc() {
        eprintln!("skipping: no C compiler");
        return;
    }
    let acc = [0, 2, 4, -2, 0, 3, -3, 2];
    let stdin_text: String = acc.iter().map(|a| format!("{a} 5\n")).collect();
    let from_cc = run_through_cc("tracker", &stdin_text);

    let inputs: StreamSet<ClightOps> = vec![
        acc.iter().map(|&v| SVal::Pres(CVal::int(v))).collect(),
        (0..acc.len()).map(|_| SVal::Pres(CVal::int(5))).collect(),
    ];
    let reference = dataflow_outputs("tracker", &inputs, acc.len());
    assert_eq!(from_cc, reference);
    // And the known last row of the §2.2 table.
    assert_eq!(from_cc[7], vec![33, 3]);
}

#[test]
fn count_binary_matches_the_dataflow_semantics() {
    if !have_cc() {
        eprintln!("skipping: no C compiler");
        return;
    }
    let ticks = [1, 1, 0, 1, 0, 0, 1, 1];
    let stdin_text: String = ticks.iter().map(|t| format!("{t}\n")).collect();
    let from_cc = run_through_cc("count", &stdin_text);
    let inputs: StreamSet<ClightOps> = vec![ticks
        .iter()
        .map(|&t| SVal::Pres(CVal::bool(t == 1)))
        .collect()];
    let reference = dataflow_outputs("count", &inputs, ticks.len());
    assert_eq!(from_cc, reference);
}

#[test]
fn all_integer_benchmarks_compile_under_cc() {
    if !have_cc() {
        eprintln!("skipping: no C compiler");
        return;
    }
    // Every benchmark's generated C must at least be accepted by a real
    // compiler with warnings-as-errors for declarations.
    for name in [
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
    ] {
        let source = std::fs::read_to_string(velus_repro::benchmark_path(name)).unwrap();
        let compiled = velus::compile(&source, Some(name)).unwrap();
        let c_code = velus::emit_c(&compiled, velus::IoMode::Volatile);
        let dir = std::env::temp_dir().join(format!("velus-ccall-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let c_path = dir.join(format!("{name}.c"));
        let o_path = dir.join(format!("{name}.o"));
        std::fs::write(&c_path, &c_code).unwrap();
        let out = Command::new("cc")
            .args(["-std=c99", "-Wall", "-Werror", "-c", "-o"])
            .arg(&o_path)
            .arg(&c_path)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{name}: cc failed:\n{}\n--- code ---\n{c_code}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
