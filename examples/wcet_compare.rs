//! Compares step-function WCET estimates across compilation schemes for
//! one benchmark — a single row of the reproduced Fig. 12, with the
//! intermediate programs' sizes to show *why* the numbers differ.
//!
//! ```text
//! cargo run --example wcet_compare [benchmark-name]
//! ```

use velus_baselines::{heptagon_obc, lustre_v6_obc, root_class};
use velus_obc::ast::ObcProgram;
use velus_ops::ClightOps;
use velus_wcet::{wcet_step, CostModel};

fn obc_size(p: &ObcProgram<ClightOps>) -> usize {
    p.classes
        .iter()
        .flat_map(|c| &c.methods)
        .map(|m| m.body.size())
        .sum()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "tracker".to_owned());
    let source = std::fs::read_to_string(velus_repro::benchmark_path(&name))?;
    let compiled = velus::compile(&source, Some(&name))?;
    let root = compiled.root;

    let hept = heptagon_obc::<ClightOps>(&compiled.nlustre)?;
    let lus6 = lustre_v6_obc::<ClightOps>(&compiled.nlustre)?;
    let hept_root = root_class(&hept, &compiled.nlustre, root);
    let lus6_root = root_class(&lus6, &compiled.nlustre, root);
    let hept_cl = velus_clight::generate::generate(&hept, hept_root)?;
    let lus6_cl = velus_clight::generate::generate(&lus6, lus6_root)?;

    println!("benchmark {name}: Obc statement counts");
    println!("  velus (fused):   {}", obc_size(&compiled.obc_fused));
    println!("  heptagon-style:  {}", obc_size(&hept));
    println!("  lustre-v6-style: {}", obc_size(&lus6));
    println!();
    println!("WCET of {name}$step (cycles):");
    println!(
        "  velus + CompCert-model:     {}",
        wcet_step(&compiled.clight, root, CostModel::CompCert)?
    );
    for (label, prog, root) in [
        ("heptagon", &hept_cl, hept_root),
        ("lustre-v6", &lus6_cl, lus6_root),
    ] {
        for model in [CostModel::CompCert, CostModel::Gcc, CostModel::GccInline] {
            println!(
                "  {label:<10} + {model:?}: {}",
                wcet_step(prog, root, model)?
            );
        }
    }
    Ok(())
}
