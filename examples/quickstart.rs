//! Quickstart: compile a Lustre node to C and run its dataflow semantics.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use velus_nlustre::streams::{present_streams, StreamSet};
use velus_ops::{CVal, ClightOps};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's introductory counter (§2).
    let source = "
        node counter(ini, inc: int; res: bool) returns (n: int)
        let
          n = if (true fby false) or res then ini else (0 fby n) + inc;
        tel
    ";

    // 1. Compile the whole chain: Lustre -> N-Lustre -> SN-Lustre -> Obc
    //    -> fused Obc -> Clight.
    let compiled = velus::compile(source, None)?;
    println!("== scheduled SN-Lustre ==\n{}\n", compiled.snlustre);
    println!("== fused Obc ==\n{}\n", compiled.obc_fused);

    // 2. Emit compilable C.
    let c_code = velus::emit_c(&compiled, velus::IoMode::Stdio);
    println!("== generated C ({} bytes) ==", c_code.len());
    for line in c_code.lines().take(24) {
        println!("{line}");
    }
    println!("...\n");

    // 3. Run the reference dataflow semantics on some inputs.
    let n = 8;
    let inputs: StreamSet<ClightOps> = present_streams::<ClightOps>(vec![
        (0..n).map(|_| CVal::int(100)).collect(),     // ini
        (0..n).map(CVal::int).collect(),              // inc
        (0..n).map(|i| CVal::bool(i == 5)).collect(), // res
    ]);
    let outputs =
        velus_nlustre::dataflow::run_node(&compiled.snlustre, compiled.root, &inputs, n as usize)?;
    print!("counter outputs:");
    for v in &outputs[0] {
        print!(" {v}");
    }
    println!();

    // 4. Validate the paper's correctness statement on this prefix: all
    //    semantic levels and the volatile trace agree.
    let report = velus::validate(&compiled, &inputs, n as usize)?;
    println!(
        "validated {} instants ({} MemCorres, {} staterep, {} trace events)",
        report.instants, report.memcorres_checks, report.staterep_checks, report.trace_events
    );
    Ok(())
}
