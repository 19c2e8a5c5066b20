//! Black-box tests of the `velus` command-line interface.

use std::io::Write;
use std::process::{Command, Stdio};

fn velus_bin() -> &'static str {
    env!("CARGO_BIN_EXE_velus")
}

fn repo_file(rel: &str) -> String {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .expect("workspace root")
        .join(rel)
        .display()
        .to_string()
}

fn tracker_path() -> String {
    repo_file("benchmarks/tracker.lus")
}

#[test]
fn check_reports_program_statistics() {
    let out = Command::new(velus_bin())
        .args(["check", &tracker_path()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("root tracker"), "{stdout}");
}

#[test]
fn compile_emits_c_to_stdout() {
    let out = Command::new(velus_bin())
        .args(["compile", &tracker_path(), "--node", "tracker"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("struct tracker {"), "{stdout}");
    assert!(stdout.contains("int main(void)"), "{stdout}");
}

#[test]
fn run_interprets_stdin_instants() {
    let mut child = Command::new(velus_bin())
        .args(["run", &tracker_path(), "--node", "tracker"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    // The §2.2 inputs: acc and limit.
    let input = "0 5\n2 5\n4 5\n-2 5\n0 5\n3 5\n-3 5\n2 5\n";
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(input.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 8);
    // p and t at the last instant: 33 and 3.
    assert_eq!(lines[7], "33 3");
}

#[test]
fn validate_reports_checks() {
    let out = Command::new(velus_bin())
        .args(["validate", &tracker_path(), "--steps", "12"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("validated 12 instants"), "{stdout}");
}

#[test]
fn wcet_prints_cycles_for_all_models() {
    for model in ["cc", "gcc", "gcci"] {
        let out = Command::new(velus_bin())
            .args(["wcet", &tracker_path(), "--model", model])
            .output()
            .unwrap();
        assert!(out.status.success());
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("cycles"), "{stdout}");
    }
}

#[test]
fn dump_prints_intermediate_representations() {
    for (ir, marker) in [
        ("nlustre", "node tracker"),
        ("snlustre", "node tracker"),
        ("obc", "class tracker"),
        ("obc-fused", "class tracker"),
    ] {
        let out = Command::new(velus_bin())
            .args(["dump", &tracker_path(), "--ir", ir])
            .output()
            .unwrap();
        assert!(out.status.success());
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains(marker), "--ir {ir}: {stdout}");
    }
}

#[test]
fn syntax_errors_exit_nonzero_with_position() {
    let dir = std::env::temp_dir().join("velus-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.lus");
    std::fs::write(&bad, "node f() returns (y: int) let y = ; tel").unwrap();
    let out = Command::new(velus_bin())
        .args(["check", bad.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error"), "{stderr}");
    assert!(stderr.contains("1:"), "position missing: {stderr}");
}

#[test]
fn batch_compiles_a_directory_with_full_warm_hits() {
    let benchmarks = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .expect("workspace root")
        .join("benchmarks");
    let out = Command::new(velus_bin())
        .args([
            "batch",
            benchmarks.to_str().unwrap(),
            "--workers",
            "4",
            "--passes",
            "2",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The suite has 14 programs; the cold pass compiles them all...
    assert!(
        stdout.contains("pass 1: 14 ok, 0 failed, 0 cache hits"),
        "{stdout}"
    );
    // ...and the warm pass is answered from the cache, byte-identically.
    assert!(
        stdout.contains("pass 2: 14 ok, 0 failed, 14 cache hits"),
        "{stdout}"
    );
    assert!(
        stdout.contains("warm pass: every artifact served from cache, byte-identical output"),
        "{stdout}"
    );
    // The statistics table reports every pipeline stage.
    for stage in [
        "frontend",
        "schedule",
        "translate",
        "fuse",
        "generate",
        "emit",
    ] {
        assert!(stdout.contains(stage), "missing stage {stage}: {stdout}");
    }
}

#[test]
fn batch_with_cache_cap_evicts_and_still_verifies_warm_passes() {
    let benchmarks = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .expect("workspace root")
        .join("benchmarks");
    let out = Command::new(velus_bin())
        .args([
            "batch",
            benchmarks.to_str().unwrap(),
            "--workers",
            "2",
            "--passes",
            "2",
            "--cache-cap",
            "4",
        ])
        .output()
        .unwrap();
    // Evicted programs recompile on pass 2; the recompiled C must still
    // match pass 1 byte for byte, so the run succeeds as a whole.
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("cache cap 4"), "{stdout}");
    // 14 programs through a 4-entry cache: evictions are certain and
    // surface in the statistics table.
    let evictions: u64 = stdout
        .lines()
        .find_map(|l| l.strip_prefix("cache: "))
        .and_then(|l| l.split(", ").nth(2))
        .and_then(|f| f.strip_suffix(" evictions"))
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no eviction counter in stats: {stdout}"));
    assert!(evictions > 0, "{stdout}");
    assert!(
        stdout.contains("4 entries"),
        "cache must sit at its cap: {stdout}"
    );
}

#[test]
fn batch_rejects_the_sched_flag() {
    // Batches submit in request order; there is no schedule to pick.
    let (ok, _, stderr) = velus(&["batch", &repo_file("benchmarks"), "--sched", "cost"]);
    assert!(!ok);
    assert!(stderr.contains("unknown argument `--sched`"), "{stderr}");
}

#[test]
fn compile_emit_selects_artifacts_and_skips_c() {
    // A multi-kind emit prints headed sections.
    let out = Command::new(velus_bin())
        .args([
            "compile",
            &tracker_path(),
            "--node",
            "tracker",
            "--emit",
            "wcet,obc-fused",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("== wcet:cc =="), "{stdout}");
    assert!(stdout.contains("tracker step:"), "{stdout}");
    assert!(stdout.contains("== obc-fused =="), "{stdout}");
    assert!(stdout.contains("class tracker"), "{stdout}");
    // No C was printed: the emission stage never ran.
    assert!(!stdout.contains("int main(void)"), "{stdout}");

    // An unknown kind is a usage error.
    let bad = Command::new(velus_bin())
        .args(["compile", &tracker_path(), "--emit", "c,bogus"])
        .output()
        .unwrap();
    assert!(!bad.status.success());
    assert!(String::from_utf8_lossy(&bad.stderr).contains("unknown artifact kind"));
}

#[test]
fn batch_emit_wcet_serves_reports_through_the_cache() {
    let benchmarks = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .expect("workspace root")
        .join("benchmarks");
    let out = Command::new(velus_bin())
        .args([
            "batch",
            benchmarks.to_str().unwrap(),
            "--workers",
            "2",
            "--passes",
            "2",
            "--emit",
            "c,wcet",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The warm pass serves every request — both kinds — from the cache.
    assert!(
        stdout.contains("pass 2: 14 ok, 0 failed, 14 cache hits"),
        "{stdout}"
    );
    // Per-kind statistics rows: 14 programs x 2 passes per kind.
    let kind_row = |name: &str| {
        stdout
            .lines()
            .find(|l| l.starts_with(name) && l.split_whitespace().count() == 4)
            .unwrap_or_else(|| panic!("no `{name}` kind row in:\n{stdout}"))
            .to_owned()
    };
    for name in ["c", "wcet"] {
        let row = kind_row(name);
        let fields: Vec<&str> = row.split_whitespace().collect();
        assert_eq!(fields[1..], ["28", "14", "14"], "{row}");
    }
    // The mixed batch compiled each source's front half exactly once:
    // the frontend stage ran 14 times for 28 kind-requests.
    let frontend = stdout
        .lines()
        .find(|l| l.starts_with("frontend"))
        .expect("frontend stage row");
    assert_eq!(frontend.split_whitespace().nth(1), Some("14"), "{frontend}");
}

#[test]
fn batch_reports_failures_without_aborting_the_sweep() {
    let dir = std::env::temp_dir().join(format!("velus-batch-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("good.lus"),
        "node good(x: int) returns (y: int) let y = x + (0 fby y); tel",
    )
    .unwrap();
    std::fs::write(dir.join("bad.lus"), "node bad( returns").unwrap();
    let out = Command::new(velus_bin())
        .args(["batch", dir.to_str().unwrap(), "--passes", "1"])
        .output()
        .unwrap();
    // The sweep fails overall (nonzero exit) but still reports both rows.
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("pass 1: 1 ok, 1 failed"), "{stdout}");
    assert!(stdout.contains("good"), "{stdout}");
    assert!(stdout.contains("bad"), "{stdout}");
}

/// Writes `source` to a temp `.lus` file and returns its path.
fn temp_lus(name: &str, source: &str) -> String {
    let path = std::env::temp_dir().join(format!("velus-cli-{name}.lus"));
    std::fs::write(&path, source).unwrap();
    path.display().to_string()
}

#[test]
fn error_format_json_emits_machine_readable_diagnostics() {
    let file = temp_lus(
        "unknown-var",
        "node f(x: int) returns (y: int)\nlet y = z + 1; tel\n",
    );
    let out = Command::new(velus_bin())
        .args(["compile", &file, "--error-format", "json"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    // One JSON object on stdout; nothing duplicated on stderr.
    assert!(stdout.trim_end().starts_with('{'), "{stdout}");
    assert!(stdout.contains("\"code\":\"E0201\""), "{stdout}");
    assert!(stdout.contains("\"stage\":\"elaborate\""), "{stdout}");
    assert!(stdout.contains("\"line\":2"), "{stdout}");
    assert!(
        out.stderr.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn scheduling_cycles_point_at_the_offending_equation() {
    let file = temp_lus(
        "cycle",
        "node f(x: int) returns (y: int)\nvar a, b: int;\nlet\n  a = b + x;\n  b = a;\n  y = a;\ntel\n",
    );
    let out = Command::new(velus_bin())
        .args(["compile", &file])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    // The mid-end failure carries its code, stage, and a *source* span:
    // the caret points at the first equation on the cycle.
    assert!(stderr.contains("error[E0408]"), "{stderr}");
    assert!(stderr.contains("(schedule)"), "{stderr}");
    assert!(stderr.contains(" --> 4:3"), "{stderr}");
    assert!(stderr.contains("a = b + x;"), "{stderr}");
}

#[test]
fn emit_report_serves_the_validation_report_as_json() {
    let out = Command::new(velus_bin())
        .args([
            "compile",
            &tracker_path(),
            "--node",
            "tracker",
            "--emit",
            "report",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"root\":\"tracker\""), "{stdout}");
    assert!(
        stdout.contains("\"validated_stages\":[\"elaborate\""),
        "{stdout}"
    );
}

#[test]
fn misspelled_flag_tokens_get_a_did_you_mean() {
    let out = Command::new(velus_bin())
        .args(["compile", &tracker_path(), "--emit", "reprot"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("[E0901]"), "{stderr}");
    assert!(stderr.contains("did you mean `report`"), "{stderr}");
}

/// Runs `velus` and returns (success, stdout, stderr).
fn velus(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(velus_bin()).args(args).output().unwrap();
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn dump_wcet_and_lint_print_what_the_matching_emit_kind_prints() {
    let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(repo_file("benchmarks"))
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "lus"))
        .collect();
    files.sort();
    assert!(files.len() >= 14, "{files:?}");
    for file in &files {
        let file = file.to_str().unwrap();
        let mut pairs: Vec<(Vec<&str>, String)> = Vec::new();
        for ir in ["nlustre", "snlustre", "obc", "obc-fused"] {
            pairs.push((vec!["dump", file, "--ir", ir], ir.to_owned()));
        }
        for model in ["cc", "gcc", "gcci"] {
            pairs.push((
                vec!["wcet", file, "--model", model],
                format!("wcet:{model}"),
            ));
        }
        pairs.push((
            vec!["lint", file, "--error-format", "json"],
            "lint".to_owned(),
        ));
        for (command, kind) in pairs {
            let (ok, named, stderr) = velus(&command);
            assert!(ok, "{command:?}: {stderr}");
            let (ok, emitted, stderr) = velus(&["compile", file, "--emit", &kind]);
            assert!(ok, "--emit {kind} {file}: {stderr}");
            assert_eq!(named, emitted, "{command:?} vs --emit {kind}");
            assert!(
                named.ends_with('\n') && !named.ends_with("\n\n"),
                "{command:?}: not one final newline: {named:?}"
            );
        }
    }
}

#[test]
fn dump_stops_at_the_requested_stage() {
    // The cycle is a scheduling error: the unscheduled program still
    // dumps, the scheduled one fails with the cycle's code.
    let file = repo_file("tests/errors/causality.lus");
    let (ok, stdout, stderr) = velus(&["dump", &file, "--ir", "nlustre"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("node loopy"), "{stdout}");
    let (ok, stdout, stderr) = velus(&["dump", &file, "--ir", "snlustre"]);
    assert!(!ok, "{stdout}");
    assert!(stderr.contains("error[E0408]"), "{stderr}");
}

#[test]
fn instantaneous_self_dependencies_are_rejected_everywhere() {
    let dir = std::env::temp_dir().join(format!("velus-self-loop-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("def.lus"),
        "node def(x: int) returns (y: int) let y = y + x; tel\n",
    )
    .unwrap();
    std::fs::write(
        dir.join("call.lus"),
        "node g(i: int) returns (o: int) let o = i + 1; tel\n\
         node call(x: int) returns (y: int) let y = g(y); tel\n",
    )
    .unwrap();
    for name in ["def.lus", "call.lus"] {
        let file = dir.join(name).display().to_string();
        for command in ["check", "compile"] {
            let (ok, _, stderr) = velus(&[command, &file]);
            assert!(!ok, "{command} {name} must fail");
            assert!(
                stderr.contains("error[E0408]") && stderr.contains("through y"),
                "{command} {name}: {stderr}"
            );
        }
    }
    let (ok, stdout, stderr) = velus(&["batch", dir.to_str().unwrap(), "--passes", "1"]);
    assert!(!ok, "{stdout}");
    assert!(stdout.contains("pass 1: 0 ok, 2 failed"), "{stdout}");
    assert_eq!(stderr.matches("E0408").count(), 2, "{stderr}");
    // A delay reading its own previous value stays legal.
    let fby = temp_lus(
        "fby-self",
        "node f(x: int) returns (a: int) let a = 0 fby a + x; tel\n",
    );
    let (ok, _, stderr) = velus(&["check", &fby]);
    assert!(ok, "{stderr}");
}

#[test]
fn a_300_deep_instance_chain_compiles_and_validates() {
    // n0 adds one; each nk instantiates n(k-1). The reference
    // interpreters nest as deep as the chain, which is no deeper than
    // the program has functions.
    let mut src = String::from("node n0(x: int) returns (y: int) let y = x + 1; tel\n");
    for k in 1..300 {
        src.push_str(&format!(
            "node n{k}(x: int) returns (y: int) let y = n{}(x); tel\n",
            k - 1
        ));
    }
    let path = temp_lus("deep-chain", &src);
    let (ok, _, stderr) = velus(&["compile", &path, "--node", "n299"]);
    assert!(ok, "{stderr}");
    let (ok, stdout, stderr) = velus(&["validate", &path, "--node", "n299", "--steps", "3"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("validated 3 instants"), "{stdout}");
}

#[test]
fn a_reader_that_stops_early_ends_the_output_quietly() {
    // 1,000 nodes nothing instantiates: one lint finding each, far more
    // JSON than the reader takes before closing the pipe.
    let mut src = String::new();
    for k in 0..1_000 {
        src.push_str(&format!(
            "node leaf{k}(x: int) returns (y: int)\nlet y = x + 1; tel\n"
        ));
    }
    src.push_str("node many(x: int) returns (y: int)\nlet y = x + 1; tel\n");
    let path = temp_lus(&format!("many-{}", std::process::id()), &src);
    let mut child = Command::new(velus_bin())
        .args(["lint", &path, "--error-format", "json"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut head = [0u8; 300];
    std::io::Read::read_exact(child.stdout.as_mut().unwrap(), &mut head).unwrap();
    drop(child.stdout.take());
    let out = child.wait_with_output().unwrap();
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!stderr.contains("Broken pipe"), "{stderr}");
    assert_ne!(out.status.code(), Some(101), "{stderr}");
}
