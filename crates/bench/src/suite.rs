//! The Fig. 12 benchmark suite and column computation.

use std::path::PathBuf;

use velus::VelusError;
use velus_baselines::{heptagon_obc, lustre_v6_obc, root_class};
use velus_clight::generate::generate;
use velus_common::NodeId;
use velus_ops::ClightOps;
use velus_wcet::{wcet_step, CostModel};

/// The benchmark programs, in the paper's row order. Each name matches
/// `benchmarks/<name>.lus` and the root node inside it.
pub const BENCHMARKS: &[&str] = &[
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
];

/// The paper's reported cycle counts (Fig. 12, column "Vélus"), used by
/// EXPERIMENTS.md to compare shapes.
pub const PAPER_VELUS_CYCLES: &[(&str, u64)] = &[
    ("avgvelocity", 315),
    ("count", 55),
    ("tracker", 680),
    ("pip_ex", 4415),
    ("mp_longitudinal", 5525),
    ("cruise", 1760),
    ("risingedgeretrigger", 285),
    ("chrono", 410),
    ("watchdog3", 610),
    ("functionalchain", 11550),
    ("landing_gear", 9660),
    ("minus", 890),
    ("prodcell", 1020),
    ("ums_verif", 2590),
];

/// Locates the repository's `benchmarks/` directory from the crate
/// manifest (works from any working directory inside the workspace).
pub fn benchmarks_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .expect("crate lives two levels under the workspace root")
        .join("benchmarks")
}

/// Reads the source of a named benchmark.
///
/// # Panics
///
/// Panics if the benchmark file is missing (the suite ships with the
/// repository).
pub fn load(name: &str) -> String {
    let path = benchmarks_dir().join(format!("{name}.lus"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// One row of the reproduced Fig. 12 (step-function WCET in cycles).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    /// Benchmark name.
    pub name: String,
    /// Vélus + CompCert-model.
    pub velus: u64,
    /// Heptagon-style with \[CompCert, GCC, GCC+inline\] models.
    pub hept: [u64; 3],
    /// Lustre v6-style with \[CompCert, GCC, GCC+inline\] models.
    pub lus6: [u64; 3],
}

const MODELS: [CostModel; 3] = [CostModel::CompCert, CostModel::Gcc, CostModel::GccInline];

/// Computes one Fig. 12 row from benchmark source text.
///
/// # Errors
///
/// Compilation failures in any of the three schemes.
pub fn figure12_row(name: &str, source: &str) -> Result<Row, VelusError> {
    let compiled = velus::compile(source, Some(name))?;
    let root = compiled.root;
    let velus_cycles = wcet_step(&compiled.clight, root, CostModel::CompCert)
        .map_err(|e| VelusError::Validation(e.to_string()))?;

    let hept = heptagon_obc::<ClightOps>(&compiled.nlustre)
        .map_err(|e| VelusError::Validation(e.to_string()))?;
    let hept_root = root_class(&hept, &compiled.nlustre, root);
    let hept_clight = generate(&hept, hept_root)?;
    let lus6 = lustre_v6_obc::<ClightOps>(&compiled.nlustre)
        .map_err(|e| VelusError::Validation(e.to_string()))?;
    let lus6_root = root_class(&lus6, &compiled.nlustre, root);
    let lus6_clight = generate(&lus6, lus6_root)?;

    let measure =
        |prog: &velus_clight::ast::Program, root: NodeId| -> Result<[u64; 3], VelusError> {
            let mut out = [0u64; 3];
            for (k, m) in MODELS.iter().enumerate() {
                out[k] =
                    wcet_step(prog, root, *m).map_err(|e| VelusError::Validation(e.to_string()))?;
            }
            Ok(out)
        };

    Ok(Row {
        name: name.to_owned(),
        velus: velus_cycles,
        hept: measure(&hept_clight, hept_root)?,
        lus6: measure(&lus6_clight, lus6_root)?,
    })
}

/// Computes the whole table.
///
/// # Errors
///
/// The first failing benchmark.
pub fn figure12() -> Result<Vec<Row>, VelusError> {
    BENCHMARKS
        .iter()
        .map(|name| figure12_row(name, &load(name)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_files_exist() {
        for name in BENCHMARKS {
            assert!(
                benchmarks_dir().join(format!("{name}.lus")).exists(),
                "missing benchmark {name}"
            );
        }
    }

    #[test]
    fn tracker_row_has_the_papers_shape() {
        let row = figure12_row("tracker", &load("tracker")).unwrap();
        // Lustre v6 under the CompCert model is much slower than Vélus…
        assert!(
            row.lus6[0] > row.velus * 2,
            "lus6+cc {} vs velus {}",
            row.lus6[0],
            row.velus
        );
        // …and only becomes competitive with inlining.
        assert!(row.lus6[2] < row.lus6[0]);
        // GCC's if-conversion beats the CompCert model on Heptagon code.
        assert!(row.hept[1] < row.hept[0]);
        // Inlining helps further or at least does not hurt.
        assert!(row.hept[2] <= row.hept[1]);
    }

    #[test]
    fn paper_reference_covers_every_benchmark() {
        for name in BENCHMARKS {
            assert!(
                PAPER_VELUS_CYCLES.iter().any(|(n, _)| n == name),
                "no paper reference for {name}"
            );
        }
    }
}
