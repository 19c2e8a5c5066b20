//! Emits the C code the paper shows in Fig. 9: the `tracker$step`
//! function with its `self`/`out` pointer threading, out-structs for
//! multiple return values, and the test-mode `main`.
//!
//! ```text
//! cargo run --example emit_c [benchmark-name]
//! ```

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "tracker".to_owned());
    let path = velus_repro::benchmark_path(&name);
    let source = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let compiled = velus::compile(&source, Some(&name))?;

    println!("/* ===== volatile-I/O form (the correctness statement's view) ===== */");
    println!("{}", velus::emit_c(&compiled, velus::IoMode::Volatile));
    println!("/* ===== stdio test mode (the paper's scanf/printf entry point) ===== */");
    let stdio = velus::emit_c(&compiled, velus::IoMode::Stdio);
    // Print only the main of the second form to avoid repeating the body.
    let mut in_main = false;
    for line in stdio.lines() {
        if line.starts_with("int main") {
            in_main = true;
        }
        if in_main {
            println!("{line}");
        }
    }
    Ok(())
}
