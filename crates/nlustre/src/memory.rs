//! The recursive memory tree `memory V` of §3.1.
//!
//! > `memory V ≜ { values : ident ⇀ V; instances : ident ⇀ memory V }`
//!
//! The memory of a program compiled from SN-Lustre reflects the tree of
//! nodes in the source: an entry in `values` for each `fby`, an entry in
//! `instances` for each node call. The same structure is used
//!
//! * with `V = O::Val` as the run-time state of the Obc interpreter, and
//! * with `V = Vec<O::Val>` (streams) as the exposed memory `M` of the
//!   intermediate semantic model (§3.2).
//!
//! Both levels are hash maps keyed by the interned identifier, so a cell
//! or instance lookup — on every Obc state access, every `MemCorres` and
//! `staterep` check — hashes a `u32` instead of comparing names as
//! strings. Nothing depends on their iteration order except `Display`,
//! which sorts by name.

use std::fmt;

use velus_common::{Ident, IdentMap};

/// A tree-shaped memory, parameterized by the domain of stored values.
#[derive(Debug, Clone, PartialEq)]
pub struct Memory<V> {
    /// Named scalar cells (one per `fby` in the corresponding node).
    pub values: IdentMap<V>,
    /// Named sub-memories (one per node instantiation).
    pub instances: IdentMap<Memory<V>>,
}

impl<V> Default for Memory<V> {
    fn default() -> Memory<V> {
        Memory::new()
    }
}

impl<V> Memory<V> {
    /// An empty memory.
    pub fn new() -> Memory<V> {
        Memory {
            values: IdentMap::default(),
            instances: IdentMap::default(),
        }
    }

    /// Reads a scalar cell.
    pub fn value(&self, x: Ident) -> Option<&V> {
        self.values.get(&x)
    }

    /// Writes a scalar cell.
    pub fn set_value(&mut self, x: Ident, v: V) {
        self.values.insert(x, v);
    }

    /// Accesses a sub-memory.
    pub fn instance(&self, i: Ident) -> Option<&Memory<V>> {
        self.instances.get(&i)
    }

    /// Mutable access to a sub-memory, creating it if absent.
    pub fn instance_mut(&mut self, i: Ident) -> &mut Memory<V> {
        self.instances.entry(i).or_default()
    }

    /// Total number of scalar cells in the whole tree.
    pub fn total_cells(&self) -> usize {
        self.values.len()
            + self
                .instances
                .values()
                .map(Memory::total_cells)
                .sum::<usize>()
    }

    /// Maps every value in the tree, preserving the structure.
    pub fn map<W>(&self, f: &mut impl FnMut(&V) -> W) -> Memory<W> {
        Memory {
            values: self.values.iter().map(|(k, v)| (*k, f(v))).collect(),
            instances: self.instances.iter().map(|(k, m)| (*k, m.map(f))).collect(),
        }
    }
}

/// Prints the cells, then the instances, each in name order.
impl<V: fmt::Display> fmt::Display for Memory<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut values: Vec<_> = self.values.iter().collect();
        values.sort_unstable_by_key(|(k, _)| k.as_str());
        let mut instances: Vec<_> = self.instances.iter().collect();
        instances.sort_unstable_by_key(|(k, _)| k.as_str());
        write!(f, "{{")?;
        let mut first = true;
        for (k, v) in values {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{k} = {v}")?;
        }
        for (k, m) in instances {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{k}: {m}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_structure() {
        let mut m: Memory<i32> = Memory::new();
        m.set_value(Ident::new("pt"), 7);
        m.instance_mut(Ident::new("s"))
            .set_value(Ident::new("c"), 1);
        assert_eq!(m.value(Ident::new("pt")), Some(&7));
        assert_eq!(
            m.instance(Ident::new("s")).unwrap().value(Ident::new("c")),
            Some(&1)
        );
        assert_eq!(m.total_cells(), 2);
    }

    #[test]
    fn map_preserves_shape() {
        let mut m: Memory<i32> = Memory::new();
        m.set_value(Ident::new("a"), 2);
        m.instance_mut(Ident::new("i"))
            .set_value(Ident::new("b"), 3);
        let doubled = m.map(&mut |v| v * 2);
        assert_eq!(doubled.value(Ident::new("a")), Some(&4));
        assert_eq!(
            doubled
                .instance(Ident::new("i"))
                .unwrap()
                .value(Ident::new("b")),
            Some(&6)
        );
    }

    #[test]
    fn display_is_nonempty() {
        let m: Memory<i32> = Memory::new();
        assert_eq!(m.to_string(), "{}");
    }

    #[test]
    fn display_lists_cells_then_instances_in_name_order() {
        let mut m: Memory<i32> = Memory::new();
        // Inserted out of order, under names whose interning order
        // differs from their string order.
        for (x, v) in [("zeta", 3), ("alpha", 1), ("mid", 2)] {
            m.set_value(Ident::new(x), v);
        }
        m.instance_mut(Ident::new("sub_z"))
            .set_value(Ident::new("y"), 5);
        let a = m.instance_mut(Ident::new("sub_a"));
        a.set_value(Ident::new("q"), 7);
        a.set_value(Ident::new("b"), 6);
        assert_eq!(
            m.to_string(),
            "{alpha = 1, mid = 2, zeta = 3, sub_a: {b = 6, q = 7}, sub_z: {y = 5}}"
        );
    }
}
