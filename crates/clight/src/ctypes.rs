//! Clight types and C ABI layout (armv7: 32-bit pointers, natural scalar
//! alignment).
//!
//! The generation pass "changes the representation of program memories
//! \[to\] nested records in the target Clight program, and the concomitant
//! details of alignment, padding, and aliasing must be confronted" (§2.3).
//! This module owns those details: struct layouts with per-field offsets,
//! sizes and alignments computed once and cached in a [`LayoutEnv`].

use velus_common::{Ident, IdentMap};
use velus_ops::CTy;

use crate::ClightError;

/// Pointer size/alignment on the modeled target (armv7).
pub const PTR_SIZE: u32 = 4;

/// A Clight type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CType {
    /// A scalar (integer, boolean or float) type.
    Scalar(CTy),
    /// A pointer to the named struct: the only pointers generated code
    /// has are `self`, `out` and the addresses of instance and output
    /// records, so the pointee is a name rather than a boxed type.
    Pointer(Ident),
    /// A named struct.
    Struct(Ident),
    /// The void type (function returns only).
    Void,
}

impl CType {
    /// A pointer to a named struct.
    pub fn ptr_to_struct(name: Ident) -> CType {
        CType::Pointer(name)
    }

    /// The scalar type, if this is a scalar.
    pub fn as_scalar(&self) -> Option<CTy> {
        match self {
            CType::Scalar(t) => Some(*t),
            _ => None,
        }
    }
}

impl std::fmt::Display for CType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CType::Scalar(t) => write!(f, "{}", t.c_name()),
            CType::Pointer(s) => write!(f, "struct {s}*"),
            CType::Struct(s) => write!(f, "struct {s}"),
            CType::Void => f.write_str("void"),
        }
    }
}

/// A struct definition: named, ordered fields.
#[derive(Debug, Clone, PartialEq)]
pub struct Composite {
    /// Struct name.
    pub name: Ident,
    /// Fields in declaration order.
    pub fields: Vec<(Ident, CType)>,
}

/// The computed layout of one struct.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    /// Total size in bytes (padded to the alignment).
    pub size: u32,
    /// Alignment in bytes.
    pub align: u32,
    /// Field name → offset in bytes.
    pub offsets: IdentMap<u32>,
}

/// Rounds `off` up to a multiple of `align`.
pub fn align_up(off: u32, align: u32) -> u32 {
    debug_assert!(align.is_power_of_two());
    (off + align - 1) & !(align - 1)
}

/// A set of struct definitions with cached layouts.
#[derive(Debug, Clone, Default)]
pub struct LayoutEnv {
    composites: IdentMap<Composite>,
    layouts: IdentMap<Layout>,
    /// Declaration order, dependencies first (as supplied).
    pub order: Vec<Ident>,
}

impl LayoutEnv {
    /// Builds layouts for `composites`, which must be topologically
    /// ordered (a struct's field structs declared before it).
    ///
    /// # Errors
    ///
    /// [`ClightError::UnknownStruct`] if a field references an undeclared
    /// struct.
    pub fn new(composites: Vec<Composite>) -> Result<LayoutEnv, ClightError> {
        let mut env = LayoutEnv::default();
        for c in composites {
            let layout = env.compute_layout(&c)?;
            env.order.push(c.name);
            env.layouts.insert(c.name, layout);
            env.composites.insert(c.name, c);
        }
        Ok(env)
    }

    fn compute_layout(&self, c: &Composite) -> Result<Layout, ClightError> {
        let mut off = 0u32;
        let mut align = 1u32;
        let mut offsets = IdentMap::default();
        for (f, ty) in &c.fields {
            let (fsize, falign) = self.size_align(ty)?;
            off = align_up(off, falign);
            offsets.insert(*f, off);
            off += fsize;
            align = align.max(falign);
        }
        Ok(Layout {
            size: align_up(off, align),
            align,
            offsets,
        })
    }

    /// The size and alignment of a type.
    ///
    /// # Errors
    ///
    /// [`ClightError::UnknownStruct`] for undeclared structs;
    /// [`ClightError::Malformed`] for `void`.
    pub fn size_align(&self, ty: &CType) -> Result<(u32, u32), ClightError> {
        match ty {
            CType::Scalar(t) => Ok((t.size(), t.align())),
            CType::Pointer(_) => Ok((PTR_SIZE, PTR_SIZE)),
            CType::Struct(s) => {
                let l = self.layouts.get(s).ok_or(ClightError::UnknownStruct(*s))?;
                Ok((l.size, l.align))
            }
            CType::Void => Err(ClightError::Malformed("sizeof(void)".to_owned())),
        }
    }

    /// The byte size of a type.
    ///
    /// # Errors
    ///
    /// See [`LayoutEnv::size_align`].
    pub fn sizeof(&self, ty: &CType) -> Result<u32, ClightError> {
        Ok(self.size_align(ty)?.0)
    }

    /// The offset of field `f` in struct `s` (CompCert's `field_offset`).
    ///
    /// # Errors
    ///
    /// Unknown struct or field.
    pub fn field_offset(&self, s: Ident, f: Ident) -> Result<u32, ClightError> {
        let l = self.layouts.get(&s).ok_or(ClightError::UnknownStruct(s))?;
        l.offsets
            .get(&f)
            .copied()
            .ok_or(ClightError::UnknownField(s, f))
    }

    /// The definition of struct `s`.
    ///
    /// # Errors
    ///
    /// Unknown struct.
    pub fn composite(&self, s: Ident) -> Result<&Composite, ClightError> {
        self.composites.get(&s).ok_or(ClightError::UnknownStruct(s))
    }

    /// The cached layout of struct `s`.
    ///
    /// # Errors
    ///
    /// Unknown struct.
    pub fn layout(&self, s: Ident) -> Result<&Layout, ClightError> {
        self.layouts.get(&s).ok_or(ClightError::UnknownStruct(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(s: &str) -> Ident {
        Ident::new(s)
    }

    #[test]
    fn padding_and_alignment() {
        // struct s { int8_t a; double b; int32_t c; }
        // a at 0, b at 8 (padding 7), c at 16, size 24, align 8.
        let env = LayoutEnv::new(vec![Composite {
            name: id("s"),
            fields: vec![
                (id("a"), CType::Scalar(CTy::I8)),
                (id("b"), CType::Scalar(CTy::F64)),
                (id("c"), CType::Scalar(CTy::I32)),
            ],
        }])
        .unwrap();
        assert_eq!(env.field_offset(id("s"), id("a")).unwrap(), 0);
        assert_eq!(env.field_offset(id("s"), id("b")).unwrap(), 8);
        assert_eq!(env.field_offset(id("s"), id("c")).unwrap(), 16);
        let l = env.layout(id("s")).unwrap();
        assert_eq!((l.size, l.align), (24, 8));
    }

    #[test]
    fn nested_structs() {
        // struct inner { int32_t x; };
        // struct outer { int8_t t; struct inner i; };
        let env = LayoutEnv::new(vec![
            Composite {
                name: id("inner"),
                fields: vec![(id("x"), CType::Scalar(CTy::I32))],
            },
            Composite {
                name: id("outer"),
                fields: vec![
                    (id("t"), CType::Scalar(CTy::I8)),
                    (id("i"), CType::Struct(id("inner"))),
                ],
            },
        ])
        .unwrap();
        assert_eq!(env.field_offset(id("outer"), id("i")).unwrap(), 4);
        assert_eq!(env.layout(id("outer")).unwrap().size, 8);
    }

    #[test]
    fn pointers_are_word_sized() {
        let env = LayoutEnv::new(vec![]).unwrap();
        let p = CType::ptr_to_struct(id("s"));
        assert_eq!(env.size_align(&p).unwrap(), (4, 4));
        assert_eq!(p.to_string(), "struct s*");
    }

    #[test]
    fn forward_references_are_rejected() {
        let r = LayoutEnv::new(vec![Composite {
            name: id("a"),
            fields: vec![(id("f"), CType::Struct(id("b")))],
        }]);
        assert!(matches!(r, Err(ClightError::UnknownStruct(_))));
    }

    #[test]
    fn empty_struct_has_zero_size() {
        let env = LayoutEnv::new(vec![Composite {
            name: id("e"),
            fields: vec![],
        }])
        .unwrap();
        assert_eq!(env.layout(id("e")).unwrap().size, 0);
    }

    #[test]
    fn align_up_works() {
        assert_eq!(align_up(0, 8), 0);
        assert_eq!(align_up(1, 8), 8);
        assert_eq!(align_up(8, 8), 8);
        assert_eq!(align_up(9, 4), 12);
    }
}
