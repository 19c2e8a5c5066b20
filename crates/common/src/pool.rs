//! Flat expression pools: the storage every IR after the front end uses
//! for its expressions.
//!
//! An expression is a run of nodes in one [`Pool`], addressed by a
//! `u32` id type declared with [`pool_id!`]. Operators name their
//! children by id, and a pool holds each expression in *post-order*:
//! every child comes before its parent, the left subtree before the
//! right one, and the nodes of one expression are contiguous, ending at
//! its root. A walk over an expression is therefore a loop over the
//! slice [`Pool::tree`] returns (with an explicit value stack where a
//! parent consumes its children's results), never a recursion, and
//! dropping a pool frees one `Vec` however deep its expressions are.

use std::fmt;
use std::marker::PhantomData;
use std::ops::{Index, IndexMut};

/// A typed index into a [`Pool`].
pub trait PoolId: Copy + Eq + Ord + fmt::Debug {
    /// The id of the node at position `i`.
    fn new(i: usize) -> Self;
    /// The node's position.
    fn index(self) -> usize;
}

/// Declares a `u32` newtype usable as a [`Pool`] id.
#[macro_export]
macro_rules! pool_id {
    ($(#[$meta:meta])* $vis:vis struct $name:ident;) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        $vis struct $name(u32);

        impl $crate::PoolId for $name {
            #[inline]
            fn new(i: usize) -> $name {
                $name(u32::try_from(i).expect("fewer than 2^32 pool nodes"))
            }

            #[inline]
            fn index(self) -> usize {
                self.0 as usize
            }
        }
    };
}

/// A node whose children are ids into the same pool.
pub trait PoolNode {
    /// The id type of the pool the node lives in.
    type Id: PoolId;

    /// The node's operands in the pool, left to right: none, the first
    /// only, or both.
    fn operands(&self) -> (Option<Self::Id>, Option<Self::Id>);
}

/// A step of an iterative depth-first walk over a pool: visit a node,
/// or finish it once its operands are done. Walks that must meet the
/// nodes in the order a recursive walk would — a pre-order check, a
/// lazy operator, the first of several errors — keep these on an
/// explicit stack instead of looping over [`Pool::tree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step<I> {
    /// Visit the node.
    Enter(I),
    /// Finish the node: its operands are done.
    Exit(I),
}

impl<I> Step<I> {
    /// The node the step is about.
    pub fn id(self) -> I {
        match self {
            Step::Enter(id) | Step::Exit(id) => id,
        }
    }
}

/// A post-order pool of expression nodes (see the module docs).
pub struct Pool<I, T> {
    nodes: Vec<T>,
    id: PhantomData<fn(I) -> I>,
}

impl<I: PoolId, T> Pool<I, T> {
    /// An empty pool.
    pub fn new() -> Pool<I, T> {
        Pool {
            nodes: Vec::new(),
            id: PhantomData,
        }
    }

    /// An empty pool with room for `n` nodes.
    pub fn with_capacity(n: usize) -> Pool<I, T> {
        Pool {
            nodes: Vec::with_capacity(n),
            id: PhantomData,
        }
    }

    /// Appends a node whose children are already in the pool and
    /// returns its id.
    pub fn push(&mut self, node: T) -> I {
        let id = I::new(self.nodes.len());
        self.nodes.push(node);
        id
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the pool has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Reserves room for `n` more nodes.
    pub fn reserve(&mut self, n: usize) {
        self.nodes.reserve(n);
    }

    /// Every node with its id, in id order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = (I, &T)> + '_ {
        self.nodes.iter().enumerate().map(|(i, n)| (I::new(i), n))
    }
}

impl<I: PoolId, T: PoolNode<Id = I>> Pool<I, T> {
    /// The first node of the post-order run that ends at `root`: its
    /// leftmost leaf.
    pub fn first(&self, root: I) -> I {
        let mut id = root;
        while let (Some(c), _) = self[id].operands() {
            id = c;
        }
        id
    }

    /// [`Pool::first`] for a pool not known to be well formed: `None`
    /// when `root` is out of range or an operand on the way down does not
    /// come before its parent. A checker starts its walk here, so it can
    /// verify the rest of the layout as it goes.
    pub fn first_checked(&self, root: I) -> Option<I> {
        let mut id = root;
        while let (Some(c), _) = self.nodes.get(id.index())?.operands() {
            if c >= id {
                return None;
            }
            id = c;
        }
        Some(id)
    }

    /// The post-order run of `root`, from [`Pool::first`] to `root`.
    pub fn tree(&self, root: I) -> &[T] {
        &self.nodes[self.first(root).index()..=root.index()]
    }
}

impl<I: PoolId, T> Default for Pool<I, T> {
    fn default() -> Pool<I, T> {
        Pool::new()
    }
}

impl<I: PoolId, T: Clone> Clone for Pool<I, T> {
    fn clone(&self) -> Pool<I, T> {
        Pool {
            nodes: self.nodes.clone(),
            id: PhantomData,
        }
    }
}

impl<I: PoolId, T: PartialEq> PartialEq for Pool<I, T> {
    fn eq(&self, other: &Pool<I, T>) -> bool {
        self.nodes == other.nodes
    }
}

impl<I: PoolId, T: fmt::Debug> fmt::Debug for Pool<I, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(&self.nodes).finish()
    }
}

impl<I: PoolId, T> Index<I> for Pool<I, T> {
    type Output = T;

    fn index(&self, id: I) -> &T {
        &self.nodes[id.index()]
    }
}

impl<I: PoolId, T> IndexMut<I> for Pool<I, T> {
    fn index_mut(&mut self, id: I) -> &mut T {
        &mut self.nodes[id.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    crate::pool_id! {
        struct Id;
    }

    enum Node {
        Leaf(i32),
        Add(Id, Id),
    }

    impl PoolNode for Node {
        type Id = Id;

        fn operands(&self) -> (Option<Id>, Option<Id>) {
            match self {
                Node::Leaf(_) => (None, None),
                Node::Add(l, r) => (Some(*l), Some(*r)),
            }
        }
    }

    #[test]
    fn a_tree_is_the_post_order_run_ending_at_its_root() {
        let mut pool = Pool::<Id, Node>::new();
        let other = pool.push(Node::Leaf(9));
        let a = pool.push(Node::Leaf(1));
        let b = pool.push(Node::Leaf(2));
        let ab = pool.push(Node::Add(a, b));
        let c = pool.push(Node::Leaf(3));
        let root = pool.push(Node::Add(ab, c));
        assert_eq!(pool.first(root), a);
        assert_eq!(pool.first(other), other);
        assert_eq!(pool.first_checked(root), Some(a));
        // Out of range, or an operand that is not before its parent.
        let looped = pool.push(Node::Add(Id::new(6), c));
        assert_eq!(pool.first_checked(Id::new(99)), None);
        assert_eq!(pool.first_checked(looped), None);
        let run = pool.tree(root);
        assert_eq!(run.len(), 5);
        // A value stack evaluates the run left to right.
        let mut stack = Vec::new();
        for n in run {
            match n {
                Node::Leaf(v) => stack.push(*v),
                Node::Add(..) => {
                    let r = stack.pop().unwrap();
                    let l = stack.pop().unwrap();
                    stack.push(l + r);
                }
            }
        }
        assert_eq!(stack, vec![6]);
    }
}
