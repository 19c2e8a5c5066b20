//! Separation assertions over the block memory (§4.2, Fig. 11).
//!
//! The paper expresses the invariant relating Obc's tree-shaped memory to
//! the generated nested C records with a small library of separation
//! assertions built inside CompCert: an assertion has a *footprint* (a
//! predicate over block/offset pairs) and a predicate over memories, and
//! the separating conjunction requires disjoint footprints.
//!
//! Here assertions are finite syntax checked against a concrete
//! [`Mem`]: `contains ty (b, ofs) v?` asserts a readable, aligned,
//! in-bounds range (holding value `v` when specified), `Star` asserts
//! its conjuncts on *pairwise disjoint* footprints. [`staterep`] is the
//! executable Fig. 11: it maps an Obc class and semantic memory to the
//! assertion describing the corresponding struct in Clight memory. The
//! validation harness checks it at every step boundary, which is how this
//! reproduction "proves" memory safety of generated code — by exhaustive
//! checking along executions instead of by induction.

use velus_common::NodeId;
use velus_nlustre::memory::Memory;
use velus_ops::{CTy, CVal, ClightOps};

use crate::ctypes::LayoutEnv;
use crate::memory::{BlockId, Mem};
use crate::ClightError;

/// A separation assertion.
#[derive(Debug, Clone, PartialEq)]
pub enum Assertion {
    /// `contains ty (b, ofs) v?` — the range `[ofs, ofs + sizeof ty)` of
    /// block `b` is valid and aligned for `ty`; when `value` is given,
    /// loading yields exactly that value (the paper's `⌈mem.values x⌉`
    /// is `None` when the cell is not yet defined: the range must merely
    /// exist).
    Contains {
        /// The scalar type of the cell.
        ty: CTy,
        /// The block.
        block: BlockId,
        /// The offset within the block.
        ofs: u32,
        /// The expected value, if constrained.
        value: Option<CVal>,
    },
    /// Separating conjunction of the conjuncts: each must hold, and their
    /// footprints must be pairwise disjoint.
    Star(Vec<Assertion>),
    /// The always-false assertion (`sepfalse`, for empty programs).
    False,
    /// The empty assertion (`emp`).
    Emp,
}

/// A footprint range `(block, start, end)`, tagged with the index of the
/// `Star` conjunct it belongs to.
type Range = (BlockId, u32, u32, usize);

impl Assertion {
    /// Appends the footprint — the `(block, start, end)` byte ranges —
    /// to `out`, each range tagged with `part`.
    fn footprint_into(&self, part: usize, out: &mut Vec<Range>) {
        match self {
            Assertion::Contains { ty, block, ofs, .. } => {
                out.push((*block, *ofs, *ofs + ty.size(), part));
            }
            Assertion::Star(parts) => {
                for p in parts {
                    p.footprint_into(part, out);
                }
            }
            Assertion::False | Assertion::Emp => {}
        }
    }

    /// Checks the assertion against a memory: all `contains` hold and all
    /// footprints within every `Star` are pairwise disjoint.
    ///
    /// # Errors
    ///
    /// [`ClightError::Separation`] describing the first violation.
    pub fn check(&self, mem: &Mem) -> Result<(), ClightError> {
        self.check_in(mem, &mut Vec::new())
    }

    /// [`Assertion::check`], with every `Star` collecting its conjuncts'
    /// footprints at the end of `ranges` (and truncating them again).
    fn check_in(&self, mem: &Mem, ranges: &mut Vec<Range>) -> Result<(), ClightError> {
        match self {
            Assertion::Emp => Ok(()),
            Assertion::False => Err(ClightError::Separation("sepfalse".to_owned())),
            Assertion::Contains {
                ty,
                block,
                ofs,
                value,
            } => {
                if !mem.range_valid(*block, *ofs, ty.size()) {
                    return Err(ClightError::Separation(format!(
                        "contains {ty} at ({block}, {ofs}): range invalid"
                    )));
                }
                if ofs % ty.align() != 0 {
                    return Err(ClightError::Separation(format!(
                        "contains {ty} at ({block}, {ofs}): misaligned"
                    )));
                }
                if let Some(expected) = value {
                    let actual = mem.load(*ty, *block, *ofs).map_err(|e| {
                        ClightError::Separation(format!("contains {ty} at ({block}, {ofs}): {e}"))
                    })?;
                    if actual != *expected {
                        return Err(ClightError::Separation(format!(
                            "contains {ty} at ({block}, {ofs}): holds {actual}, expected {expected}"
                        )));
                    }
                }
                Ok(())
            }
            Assertion::Star(parts) => {
                for p in parts {
                    p.check_in(mem, ranges)?;
                }
                // Pairwise disjointness of the sub-footprints.
                let start = ranges.len();
                for (i, p) in parts.iter().enumerate() {
                    p.footprint_into(i, ranges);
                }
                let mine = &mut ranges[start..];
                mine.sort_unstable();
                let overlap = mine.windows(2).find_map(|w| {
                    let (b1, s1, e1, i1) = w[0];
                    let (b2, s2, _e2, i2) = w[1];
                    (b1 == b2 && s2 < e1 && i1 != i2).then_some((b1, s1, e1, s2))
                });
                ranges.truncate(start);
                match overlap {
                    Some((b1, s1, e1, s2)) => Err(ClightError::Separation(format!(
                        "overlapping footprints in block {b1}: [{s1}, {e1}) and [{s2}, …)"
                    ))),
                    None => Ok(()),
                }
            }
        }
    }
}

/// Builds the `staterep` assertion of Fig. 11: the struct for class
/// `class` of `prog`, laid out at `(block, ofs)` in Clight memory, holds
/// exactly the Obc semantic memory `mem`.
///
/// Memory cells not present in `mem` (before `reset` defines them) yield
/// unconstrained `contains` assertions, matching the paper's
/// `⌈mem.values x⌉` notation.
///
/// # Errors
///
/// Layout errors (unknown struct or field) if `prog` and the generated
/// composites disagree.
pub fn staterep(
    layouts: &LayoutEnv,
    prog: &velus_obc::ast::ObcProgram<ClightOps>,
    class: NodeId,
    mem: &Memory<CVal>,
    block: BlockId,
    ofs: u32,
) -> Result<Assertion, ClightError> {
    let cls = &prog.classes[class.index()];
    let class = cls.name;
    let mut parts = Vec::new();
    for (x, ty) in &cls.memories {
        let off = layouts.field_offset(class, *x)?;
        parts.push(Assertion::Contains {
            ty: *ty,
            block,
            ofs: ofs + off,
            value: mem.value(*x).copied(),
        });
    }
    static EMPTY: std::sync::OnceLock<Memory<CVal>> = std::sync::OnceLock::new();
    for (inst, sub_class) in &cls.instances {
        let off = layouts.field_offset(class, *inst)?;
        let sub_mem = mem
            .instance(*inst)
            .unwrap_or_else(|| EMPTY.get_or_init(Memory::new));
        parts.push(staterep(
            layouts,
            prog,
            *sub_class,
            sub_mem,
            block,
            ofs + off,
        )?);
    }
    Ok(Assertion::Star(parts))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contains_checks_value() {
        let mut mem = Mem::new();
        let b = mem.alloc(8);
        mem.store(CTy::I32, b, 0, &CVal::int(5)).unwrap();
        let a = Assertion::Contains {
            ty: CTy::I32,
            block: b,
            ofs: 0,
            value: Some(CVal::int(5)),
        };
        a.check(&mem).unwrap();
        let bad = Assertion::Contains {
            ty: CTy::I32,
            block: b,
            ofs: 0,
            value: Some(CVal::int(6)),
        };
        assert!(bad.check(&mem).is_err());
    }

    #[test]
    fn unconstrained_contains_allows_uninitialized() {
        let mut mem = Mem::new();
        let b = mem.alloc(4);
        let a = Assertion::Contains {
            ty: CTy::I32,
            block: b,
            ofs: 0,
            value: None,
        };
        a.check(&mem).unwrap();
    }

    #[test]
    fn star_requires_disjointness() {
        let mut mem = Mem::new();
        let b = mem.alloc(8);
        mem.store(CTy::I32, b, 0, &CVal::int(1)).unwrap();
        mem.store(CTy::I32, b, 4, &CVal::int(2)).unwrap();
        let ok = Assertion::Star(vec![
            Assertion::Contains {
                ty: CTy::I32,
                block: b,
                ofs: 0,
                value: None,
            },
            Assertion::Contains {
                ty: CTy::I32,
                block: b,
                ofs: 4,
                value: None,
            },
        ]);
        ok.check(&mem).unwrap();
        let overlap = Assertion::Star(vec![
            Assertion::Contains {
                ty: CTy::I64,
                block: b,
                ofs: 0,
                value: None,
            },
            Assertion::Contains {
                ty: CTy::I32,
                block: b,
                ofs: 4,
                value: None,
            },
        ]);
        assert!(matches!(
            overlap.check(&mem),
            Err(ClightError::Separation(_))
        ));
    }

    #[test]
    fn nested_stars_merge_footprints() {
        let mut mem = Mem::new();
        let b = mem.alloc(8);
        // Same-conjunct overlap inside one Contains list is allowed only
        // across *different* conjuncts of a star; identical ranges in one
        // conjunct (e.g. duplicated assertion) must still be caught when
        // they come from different star children.
        let overlap = Assertion::Star(vec![
            Assertion::Star(vec![Assertion::Contains {
                ty: CTy::I32,
                block: b,
                ofs: 0,
                value: None,
            }]),
            Assertion::Contains {
                ty: CTy::I32,
                block: b,
                ofs: 2,
                value: None,
            },
        ]);
        // Offset 2 is misaligned for I32 anyway; use I16 to isolate the
        // disjointness failure.
        let overlap2 = Assertion::Star(vec![
            Assertion::Star(vec![Assertion::Contains {
                ty: CTy::I32,
                block: b,
                ofs: 0,
                value: None,
            }]),
            Assertion::Contains {
                ty: CTy::I16,
                block: b,
                ofs: 2,
                value: None,
            },
        ]);
        assert!(overlap.check(&mem).is_err());
        assert!(matches!(
            overlap2.check(&mem),
            Err(ClightError::Separation(_))
        ));
    }

    #[test]
    fn sepfalse_fails_and_emp_holds() {
        let mem = Mem::new();
        assert!(Assertion::False.check(&mem).is_err());
        Assertion::Emp.check(&mem).unwrap();
    }
}
