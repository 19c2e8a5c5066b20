//! Reproduces the semantic table of §2.2 for the `tracker` node of
//! Fig. 3, including the *internal* streams (s, x, c, t, pt) that the
//! paper prints.
//!
//! ```text
//! cargo run --example tracker
//! ```

use velus_common::Ident;
use velus_nlustre::dataflow::Dataflow;
use velus_nlustre::streams::{SVal, StreamSet};
use velus_ops::{CVal, ClightOps};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let source = std::fs::read_to_string(velus_repro::benchmark_path("tracker"))?;
    let compiled = velus::compile(&source, Some("tracker"))?;

    // The paper's inputs: acc as below, limit constantly 5.
    let acc = [0, 2, 4, -2, 0, 3, -3, 2];
    let n = acc.len();
    let inputs: StreamSet<ClightOps> = vec![
        acc.iter().map(|&v| SVal::Pres(CVal::int(v))).collect(),
        (0..n).map(|_| SVal::Pres(CVal::int(5))).collect(),
    ];

    let mut eval = Dataflow::new(&compiled.snlustre, compiled.root, inputs.clone())?;
    let mut table: Vec<(String, Vec<String>)> = Vec::new();
    for var in ["acc", "limit", "s", "p", "x", "c", "t", "pt"] {
        let mut row = Vec::new();
        for i in 0..n {
            row.push(eval.var(Ident::new(var), i)?.to_string());
        }
        table.push((var.to_owned(), row));
    }

    println!("The semantic table of §2.2 (absent values print as '.'):\n");
    for (name, row) in &table {
        print!("{name:>6}");
        for v in row {
            print!(" {v:>4}");
        }
        println!();
    }

    // And the correctness statement holds on this prefix.
    velus::validate(&compiled, &inputs, n)?;
    println!("\nvalidated: dataflow ≡ memory semantics ≡ Obc ≡ Clight trace");
    Ok(())
}
