//! A CompCert-style block memory model.
//!
//! Memory is a collection of *blocks*, each a bounded array of bytes.
//! Addresses pair a block identifier with an integer offset — there is no
//! pointer arithmetic across blocks, which is what makes separation
//! reasoning tractable (§4.2). Scalar values are encoded little-endian;
//! every byte tracks an *initialized* bit, so reads of uninitialized
//! memory are errors rather than garbage (CompCert's `Vundef`), and loads
//! and stores check bounds, alignment, and block liveness.
//!
//! The blocks' bytes live back to back in one arena. Freeing the block
//! at the end of the arena gives its bytes back, so the stack discipline
//! of function locals (allocated on entry, freed on return) reuses the
//! same bytes call after call; a freed block's identifier is never
//! reused, so accesses through it still fail.

use velus_ops::CTy;
use velus_ops::CVal;

use crate::ClightError;

/// A block identifier.
pub type BlockId = usize;

#[derive(Debug, Clone)]
struct Block {
    /// Position of the block's first byte in the arena.
    start: usize,
    size: u32,
    alive: bool,
}

/// The memory state: a growing collection of blocks.
#[derive(Debug, Clone, Default)]
pub struct Mem {
    blocks: Vec<Block>,
    /// The bytes of the blocks, back to back.
    bytes: Vec<u8>,
    /// Whether each byte of `bytes` has been written.
    init: Vec<bool>,
}

impl Mem {
    /// An empty memory.
    pub fn new() -> Mem {
        Mem::default()
    }

    /// Allocates a fresh zero-length-capable block of `size` bytes,
    /// uninitialized.
    pub fn alloc(&mut self, size: u32) -> BlockId {
        let id = self.blocks.len();
        let start = self.bytes.len();
        self.bytes.resize(start + size as usize, 0);
        self.init.resize(start + size as usize, false);
        self.blocks.push(Block {
            start,
            size,
            alive: true,
        });
        id
    }

    /// Frees a block: subsequent accesses fail. Models CompCert's
    /// requirement that ownership of locals be surrendered on return.
    ///
    /// # Errors
    ///
    /// Freeing an unknown or already dead block.
    pub fn free(&mut self, b: BlockId) -> Result<(), ClightError> {
        let blk = self
            .blocks
            .get_mut(b)
            .ok_or_else(|| ClightError::MemoryError(format!("free of unknown block {b}")))?;
        if !blk.alive {
            return Err(ClightError::MemoryError(format!(
                "double free of block {b}"
            )));
        }
        blk.alive = false;
        if blk.start + blk.size as usize == self.bytes.len() {
            self.bytes.truncate(blk.start);
            self.init.truncate(blk.start);
        }
        Ok(())
    }

    /// The size of a block.
    ///
    /// # Errors
    ///
    /// Unknown block.
    pub fn block_size(&self, b: BlockId) -> Result<u32, ClightError> {
        Ok(self
            .blocks
            .get(b)
            .ok_or_else(|| ClightError::MemoryError(format!("unknown block {b}")))?
            .size)
    }

    /// Checks an access and returns the arena position of `(b, ofs)`.
    fn check_access(
        &self,
        b: BlockId,
        ofs: u32,
        size: u32,
        align: u32,
    ) -> Result<usize, ClightError> {
        let blk = self
            .blocks
            .get(b)
            .ok_or_else(|| ClightError::MemoryError(format!("unknown block {b}")))?;
        if !blk.alive {
            return Err(ClightError::MemoryError(format!(
                "access to freed block {b}"
            )));
        }
        if u64::from(ofs) + u64::from(size) > u64::from(blk.size) {
            return Err(ClightError::MemoryError(format!(
                "out-of-bounds access at block {b}, offset {ofs}, size {size} (block size {})",
                blk.size
            )));
        }
        if !ofs.is_multiple_of(align) {
            return Err(ClightError::MemoryError(format!(
                "misaligned access at block {b}, offset {ofs}, alignment {align}"
            )));
        }
        Ok(blk.start + ofs as usize)
    }

    /// Stores a scalar of type `ty` at `(b, ofs)`.
    ///
    /// # Errors
    ///
    /// Bounds/alignment/liveness violations, or a value not of type `ty`.
    pub fn store(&mut self, ty: CTy, b: BlockId, ofs: u32, v: &CVal) -> Result<(), ClightError> {
        let start = self.check_access(b, ofs, ty.size(), ty.align())?;
        let (buf, len) = encode(ty, v)?;
        self.bytes[start..start + len].copy_from_slice(&buf[..len]);
        self.init[start..start + len].fill(true);
        Ok(())
    }

    /// Loads a scalar of type `ty` from `(b, ofs)`.
    ///
    /// # Errors
    ///
    /// Bounds/alignment/liveness violations or uninitialized bytes.
    pub fn load(&self, ty: CTy, b: BlockId, ofs: u32) -> Result<CVal, ClightError> {
        let start = self.check_access(b, ofs, ty.size(), ty.align())?;
        let end = start + ty.size() as usize;
        if !self.init[start..end].iter().all(|&i| i) {
            return Err(ClightError::Uninitialized(format!(
                "load of type {ty} at block {b}, offset {ofs}"
            )));
        }
        decode(ty, &self.bytes[start..end])
    }

    /// Whether every byte in `[ofs, ofs + size)` of block `b` is within
    /// bounds of a live block.
    pub fn range_valid(&self, b: BlockId, ofs: u32, size: u32) -> bool {
        self.check_access(b, ofs, size, 1).is_ok()
    }
}

/// Encodes a well-typed scalar little-endian into the first `len`
/// bytes of the returned buffer.
fn encode(ty: CTy, v: &CVal) -> Result<([u8; 8], usize), ClightError> {
    fn le<const N: usize>(bytes: [u8; N]) -> ([u8; 8], usize) {
        let mut buf = [0u8; 8];
        buf[..N].copy_from_slice(&bytes);
        (buf, N)
    }
    Ok(match (ty, v) {
        (CTy::Bool | CTy::I8 | CTy::U8, CVal::Int(n)) => le([*n as u8]),
        (CTy::I16 | CTy::U16, CVal::Int(n)) => le((*n as u16).to_le_bytes()),
        (CTy::I32 | CTy::U32, CVal::Int(n)) => le((*n as u32).to_le_bytes()),
        (CTy::I64 | CTy::U64, CVal::Long(n)) => le((*n as u64).to_le_bytes()),
        (CTy::F32, CVal::Single(x)) => le(x.to_bits().to_le_bytes()),
        (CTy::F64, CVal::Float(x)) => le(x.to_bits().to_le_bytes()),
        _ => {
            return Err(ClightError::ValueError(format!(
                "cannot store {v} at type {ty}"
            )))
        }
    })
}

/// Decodes a scalar stored little-endian, normalizing to the
/// representation invariants of [`CVal`] (sign/zero extension).
fn decode(ty: CTy, bytes: &[u8]) -> Result<CVal, ClightError> {
    Ok(match ty {
        CTy::Bool => {
            let b = bytes[0];
            if b > 1 {
                return Err(ClightError::ValueError(format!(
                    "byte {b} decoded at type bool"
                )));
            }
            CVal::Int(b as i32)
        }
        CTy::I8 => CVal::Int(bytes[0] as i8 as i32),
        CTy::U8 => CVal::Int(bytes[0] as i32),
        CTy::I16 => CVal::Int(i16::from_le_bytes([bytes[0], bytes[1]]) as i32),
        CTy::U16 => CVal::Int(u16::from_le_bytes([bytes[0], bytes[1]]) as i32),
        CTy::I32 | CTy::U32 => {
            CVal::Int(i32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]))
        }
        CTy::I64 | CTy::U64 => {
            let mut a = [0u8; 8];
            a.copy_from_slice(bytes);
            CVal::Long(i64::from_le_bytes(a))
        }
        CTy::F32 => {
            let mut a = [0u8; 4];
            a.copy_from_slice(bytes);
            CVal::Single(f32::from_bits(u32::from_le_bytes(a)))
        }
        CTy::F64 => {
            let mut a = [0u8; 8];
            a.copy_from_slice(bytes);
            CVal::Float(f64::from_bits(u64::from_le_bytes(a)))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_load_round_trip() {
        let mut m = Mem::new();
        let b = m.alloc(16);
        for (ty, v) in [
            (CTy::I32, CVal::int(-7)),
            (CTy::Bool, CVal::bool(true)),
            (CTy::F64, CVal::float(3.25)),
            (CTy::I64, CVal::long(1 << 40)),
            (CTy::I8, CVal::Int(-5)),
            (CTy::U16, CVal::Int(40000)),
        ] {
            m.store(ty, b, 0, &v).unwrap();
            assert_eq!(m.load(ty, b, 0).unwrap(), v, "{ty}");
        }
    }

    #[test]
    fn uninitialized_reads_fail() {
        let mut m = Mem::new();
        let b = m.alloc(8);
        assert!(matches!(
            m.load(CTy::I32, b, 0),
            Err(ClightError::Uninitialized(_))
        ));
        m.store(CTy::I32, b, 0, &CVal::int(1)).unwrap();
        assert!(m.load(CTy::I32, b, 0).is_ok());
        // Bytes 4..8 still uninitialized.
        assert!(matches!(
            m.load(CTy::I32, b, 4),
            Err(ClightError::Uninitialized(_))
        ));
    }

    #[test]
    fn bounds_and_alignment_are_checked() {
        let mut m = Mem::new();
        let b = m.alloc(8);
        assert!(matches!(
            m.store(CTy::I32, b, 6, &CVal::int(0)),
            Err(ClightError::MemoryError(_))
        ));
        assert!(matches!(
            m.store(CTy::I32, b, 2, &CVal::int(0)),
            Err(ClightError::MemoryError(_))
        ));
    }

    #[test]
    fn freed_blocks_reject_access() {
        let mut m = Mem::new();
        let b = m.alloc(4);
        m.store(CTy::I32, b, 0, &CVal::int(1)).unwrap();
        m.free(b).unwrap();
        assert!(m.load(CTy::I32, b, 0).is_err());
        assert!(m.free(b).is_err());
    }

    #[test]
    fn type_mismatched_stores_fail() {
        let mut m = Mem::new();
        let b = m.alloc(8);
        assert!(matches!(
            m.store(CTy::I32, b, 0, &CVal::float(1.0)),
            Err(ClightError::ValueError(_))
        ));
    }

    #[test]
    fn freeing_the_last_block_reuses_its_bytes() {
        let mut m = Mem::new();
        let a = m.alloc(4);
        let b = m.alloc(8);
        m.store(CTy::I64, b, 0, &CVal::long(-1)).unwrap();
        m.free(b).unwrap();
        // A fresh block over the same bytes starts uninitialized, and the
        // freed identifier stays dead.
        let c = m.alloc(8);
        assert_ne!(b, c);
        assert!(matches!(
            m.load(CTy::I64, c, 0),
            Err(ClightError::Uninitialized(_))
        ));
        assert!(m.load(CTy::I64, b, 0).is_err());
        assert_eq!(m.block_size(b).unwrap(), 8);
        // Freeing a block below the top keeps the others intact.
        m.store(CTy::I32, a, 0, &CVal::int(3)).unwrap();
        m.store(CTy::I64, c, 0, &CVal::long(7)).unwrap();
        m.free(a).unwrap();
        assert_eq!(m.load(CTy::I64, c, 0).unwrap(), CVal::long(7));
    }

    #[test]
    fn nan_round_trips_bitwise() {
        let mut m = Mem::new();
        let b = m.alloc(8);
        let nan = CVal::float(f64::from_bits(0x7ff8_dead_beef_0001));
        m.store(CTy::F64, b, 0, &nan).unwrap();
        assert_eq!(m.load(CTy::F64, b, 0).unwrap(), nan);
    }
}
