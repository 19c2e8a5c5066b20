//! Hierarchical clocks (paper Fig. 2).
//!
//! A clock describes when a stream carries a value: on the `base` clock of
//! the enclosing node, or on a sub-clock obtained by sampling another
//! (boolean) stream: `ck on x` holds when `ck` holds and `x` is true,
//! `ck onot x` when `ck` holds and `x` is false.

use std::fmt;
use std::sync::Arc;

use velus_common::Ident;

/// A clock expression.
///
/// The parent of a sub-clock is shared, not owned: cloning a clock is a
/// reference-count increment, and two clocks cloned from one compare
/// equal without walking their chains (`Arc`'s equality checks the
/// pointer first). [`Clocks`] builds each distinct clock of a node once,
/// so the equations and declarations of the node share them.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum Clock {
    /// The base clock of the enclosing node.
    #[default]
    Base,
    /// A sub-clock: `on(ck, x, true)` is `ck on x`, `on(ck, x, false)` is
    /// `ck onot x`.
    On(Arc<Clock>, Ident, bool),
}

impl Clock {
    /// Builds `self on x` (positive polarity) or `self onot x`.
    pub fn on(self, x: Ident, polarity: bool) -> Clock {
        Clock::On(Arc::new(self), x, polarity)
    }

    /// Nesting depth: `base` is 0, each `on` adds one.
    pub fn depth(&self) -> usize {
        match self {
            Clock::Base => 0,
            Clock::On(ck, _, _) => 1 + ck.depth(),
        }
    }

    /// The sampling variables appearing in the clock, outermost last.
    pub fn vars(&self) -> Vec<Ident> {
        let mut out = Vec::new();
        self.vars_into(&mut out);
        out
    }

    /// Appends the sampling variables (outermost last) to `out` — the
    /// scratch-buffer form of [`Clock::vars`] used on the compile hot
    /// path.
    pub fn vars_into(&self, out: &mut Vec<Ident>) {
        if let Clock::On(parent, x, _) = self {
            parent.vars_into(out);
            out.push(*x);
        }
    }

    /// The immediate parent clock (`None` for `base`).
    pub fn parent(&self) -> Option<&Clock> {
        match self {
            Clock::Base => None,
            Clock::On(ck, _, _) => Some(ck),
        }
    }

    /// Whether `self` is `other` or a (transitive) sub-clock of it.
    pub fn is_suffix_of(&self, other: &Clock) -> bool {
        let mut ck = other;
        loop {
            if ck == self {
                return true;
            }
            match ck.parent() {
                Some(p) => ck = p,
                None => return false,
            }
        }
    }
}

/// The distinct clocks built so far, each built once: a per-node table
/// that hands out shared copies instead of building a sub-clock again.
/// A node has a handful of distinct clocks, so lookup is a scan.
#[derive(Debug, Default)]
pub struct Clocks {
    built: Vec<Clock>,
}

impl Clocks {
    /// Forgets the clocks built so far (keeping the table's capacity),
    /// e.g. between nodes.
    pub fn clear(&mut self) {
        self.built.clear();
    }

    /// Records an already-built clock (a declared variable's, say), so
    /// that [`Clocks::on`] hands out copies of it instead of building it
    /// again.
    pub fn share(&mut self, ck: &Clock) {
        if matches!(ck, Clock::On(..)) && !self.built.contains(ck) {
            self.built.push(ck.clone());
        }
    }

    /// `parent on x` (or `parent onot x`): the clock built earlier when
    /// there is one, otherwise a new one that later calls share.
    pub fn on(&mut self, parent: &Clock, x: Ident, polarity: bool) -> Clock {
        let found = self.built.iter().find(|ck| match ck {
            Clock::On(p, y, k) => *y == x && *k == polarity && **p == *parent,
            Clock::Base => false,
        });
        if let Some(ck) = found {
            return ck.clone();
        }
        let ck = parent.clone().on(x, polarity);
        self.built.push(ck.clone());
        ck
    }
}

impl fmt::Display for Clock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Clock::Base => f.write_str("."),
            Clock::On(ck, x, true) => write!(f, "{ck} on {x}"),
            Clock::On(ck, x, false) => write!(f, "{ck} onot {x}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x() -> Ident {
        Ident::new("x")
    }

    fn y() -> Ident {
        Ident::new("y")
    }

    #[test]
    fn display() {
        let ck = Clock::Base.on(x(), true).on(y(), false);
        assert_eq!(ck.to_string(), ". on x onot y");
    }

    #[test]
    fn depth_and_vars() {
        let ck = Clock::Base.on(x(), true).on(y(), false);
        assert_eq!(ck.depth(), 2);
        assert_eq!(ck.vars(), vec![x(), y()]);
        assert_eq!(Clock::Base.depth(), 0);
        assert!(Clock::Base.vars().is_empty());
    }

    #[test]
    fn suffix_relation() {
        let base = Clock::Base;
        let on_x = base.clone().on(x(), true);
        let on_xy = on_x.clone().on(y(), false);
        assert!(base.is_suffix_of(&on_xy));
        assert!(on_x.is_suffix_of(&on_xy));
        assert!(on_xy.is_suffix_of(&on_xy));
        assert!(!on_xy.is_suffix_of(&on_x));
        // Polarity matters.
        let on_x_neg = Clock::Base.on(x(), false);
        assert!(!on_x_neg.is_suffix_of(&on_xy));
    }

    #[test]
    fn the_table_builds_each_clock_once() {
        let mut clocks = Clocks::default();
        let on_x = clocks.on(&Clock::Base, x(), true);
        let on_xy = clocks.on(&on_x, y(), false);
        let (Clock::On(a, ..), Clock::On(b, ..)) = (&on_xy, &clocks.on(&on_x, y(), false)) else {
            panic!("sub-clocks");
        };
        assert!(Arc::ptr_eq(a, b), "the same parent, shared");
        assert_eq!(on_xy, Clock::Base.on(x(), true).on(y(), false));
        assert_ne!(clocks.on(&Clock::Base, x(), false), on_x);
        // A clock built elsewhere is handed out once shared.
        let declared = Clock::Base.on(y(), true);
        let mut clocks = Clocks::default();
        clocks.share(&declared);
        let (Clock::On(a, ..), Clock::On(b, ..)) = (&declared, &clocks.on(&Clock::Base, y(), true))
        else {
            panic!("sub-clocks");
        };
        assert!(Arc::ptr_eq(a, b));
    }
}
