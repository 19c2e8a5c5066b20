//! Interned identifiers.
//!
//! Identifiers occur everywhere in the compiler — in every AST, in every
//! environment, as keys of every map. Interning makes them `Copy`,
//! comparable and hashable in O(1), which keeps the IRs compact and the
//! interpreters fast. Interned strings are leaked; a compiler's identifier
//! population is bounded by its input, so this is the standard trade-off.
//!
//! # Concurrency
//!
//! The interner is shared by every thread of the batch compilation
//! service, so its locking is on the hot path of parallel compilation.
//! Two mechanisms keep it off the profile:
//!
//! * **Sharding.** The intern table is striped into [`NUM_SHARDS`]
//!   independent shards selected by a hash of the name; two workers
//!   interning different names almost never contend on the same lock.
//!   An [`Ident`] remains a `u32`: the shard number lives in the high
//!   [`SHARD_BITS`] bits and the within-shard index in the low bits.
//! * **Lock-free reads.** [`Ident::as_str`] never takes a lock. Each
//!   shard resolves indices through an append-only symbol table built
//!   from [`OnceLock`] cells (a fixed spine of geometrically growing
//!   buckets), so a read is a handful of atomic loads — it cannot block
//!   behind a writer, and it cannot deadlock against a thread that is
//!   interning.
//! * **A per-thread cache of known names.** Most interning re-interns a
//!   name the thread has seen before (every occurrence of a variable in
//!   a source). Each thread remembers the identifiers it obtained in a
//!   direct-mapped table. A name of up to 15 bytes is its own key (its
//!   bytes and length in a `u128`), so a repeat costs one probe and
//!   reads neither the shard nor the interned string; a longer name is
//!   keyed by its FNV hash and confirmed by comparing the names. Either
//!   way a hit takes no lock.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, OnceLock};

/// Number of bits of an [`Ident`] that encode the shard.
const SHARD_BITS: u32 = 4;
/// Number of intern shards (16): enough to make same-shard collisions
/// between a handful of worker threads rare, small enough that the
/// static footprint stays trivial.
const NUM_SHARDS: usize = 1 << SHARD_BITS;
/// Bits left for the within-shard index.
const INDEX_BITS: u32 = 32 - SHARD_BITS;
/// Largest within-shard index (≈268M identifiers per shard).
const MAX_INDEX: u32 = (1 << INDEX_BITS) - 1;

/// Entries in the first symbol-table bucket; bucket `b` holds
/// `FIRST_BUCKET << b` entries, so the spine below covers the full
/// index space with [`NUM_BUCKETS`] buckets.
const FIRST_BUCKET: usize = 1 << 10;
const NUM_BUCKETS: usize = (INDEX_BITS - 10 + 1) as usize;

/// An interned identifier.
///
/// Two `Ident`s are equal iff they were created from equal strings.
/// `Ord` follows the underlying string order so that sorted dumps are
/// deterministic and human-readable.
///
/// # Examples
///
/// ```
/// use velus_common::Ident;
///
/// let x = Ident::new("x");
/// assert_eq!(x.to_string(), "x");
/// assert!(Ident::new("a") < Ident::new("b"));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ident(u32);

/// The append-only symbol table of one shard: a fixed spine of lazily
/// allocated buckets whose sizes double, each slot written exactly once.
///
/// `OnceLock` gives the required publication for free: `set` is a
/// release store, `get` an acquire load, so a reader that obtained an
/// index (by any means — the index only exists because some `intern`
/// call returned it) observes the fully written string. Reads are
/// lock-free: two `OnceLock::get`s and a slice index.
struct SymbolTable {
    buckets: [OnceLock<Box<[OnceLock<&'static str>]>>; NUM_BUCKETS],
}

/// Splits a flat index into its (bucket, offset) coordinates. Bucket
/// `b` covers indices `[FIRST_BUCKET·(2^b − 1), FIRST_BUCKET·(2^{b+1} − 1))`.
fn locate(index: usize) -> (usize, usize) {
    let n = index / FIRST_BUCKET + 1;
    let bucket = (usize::BITS - 1 - n.leading_zeros()) as usize;
    let start = FIRST_BUCKET * ((1 << bucket) - 1);
    (bucket, index - start)
}

impl SymbolTable {
    fn new() -> SymbolTable {
        SymbolTable {
            buckets: std::array::from_fn(|_| OnceLock::new()),
        }
    }

    /// Reads slot `index`. Lock-free; panics if the slot was never
    /// published (impossible for an index taken from a real `Ident`).
    fn get(&self, index: usize) -> &'static str {
        let (bucket, offset) = locate(index);
        let slots = self.buckets[bucket].get().expect("symbol bucket exists");
        slots[offset].get().expect("symbol slot published")
    }

    /// Publishes `name` at slot `index`. Called with the shard's intern
    /// lock held, so slots are filled in order and exactly once.
    fn publish(&self, index: usize, name: &'static str) {
        let (bucket, offset) = locate(index);
        let slots = self.buckets[bucket].get_or_init(|| {
            (0..FIRST_BUCKET << bucket)
                .map(|_| OnceLock::new())
                .collect()
        });
        slots[offset]
            .set(name)
            .expect("symbol slot written exactly once");
    }
}

/// One intern shard: the name→index map behind a mutex (writers only)
/// and the index→name table readable without any lock.
struct Shard {
    intern: Mutex<HashMap<&'static str, u32>>,
    symbols: SymbolTable,
}

fn shards() -> &'static [Shard; NUM_SHARDS] {
    static SHARDS: OnceLock<[Shard; NUM_SHARDS]> = OnceLock::new();
    SHARDS.get_or_init(|| {
        std::array::from_fn(|_| Shard {
            intern: Mutex::new(HashMap::new()),
            symbols: SymbolTable::new(),
        })
    })
}

/// FNV-1a over the name; deterministic, so equal names always land in
/// the same shard and interning stays idempotent.
fn name_hash(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in name.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The shard of a name, from its [`name_hash`].
fn shard_of(hash: u64) -> usize {
    // The multiply mixes poorly into the low bits; take high ones.
    (hash >> (64 - SHARD_BITS)) as usize
}

/// Slots of a thread's cache of known names (a power of two; 128 KiB).
/// The table is direct-mapped: a name evicts the one in its slot.
const RECENT_SLOTS: usize = 1 << 12;

/// Names of at most this many bytes are their own cache key.
const INLINE_NAME_BYTES: usize = 15;

/// The key of an empty cache slot, which no name has: a long name's key
/// leaves bits 64..120 clear, a short one's top byte is its length.
const EMPTY_KEY: u128 = u128::MAX;

/// The cache key of `name`: a short name's bytes with its length in the
/// top byte, which identifies the name, or else its [`name_hash`] under
/// the top byte `0xFF`, which a hit confirms by comparing the names.
fn recent_key(name: &str) -> u128 {
    let bytes = name.as_bytes();
    if bytes.len() <= INLINE_NAME_BYTES {
        let mut key = [0u8; 16];
        key[..bytes.len()].copy_from_slice(bytes);
        key[15] = bytes.len() as u8;
        u128::from_le_bytes(key)
    } else {
        (0xFF << 120) | u128::from(name_hash(name))
    }
}

/// The cache slot of a key.
fn recent_slot(key: u128) -> usize {
    let mixed = (key as u64 ^ (key >> 64) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (mixed >> (64 - RECENT_SLOTS.trailing_zeros())) as usize
}

thread_local! {
    /// The scratch text of [`Ident::from_fmt`].
    static NAME_BUF: RefCell<String> = const { RefCell::new(String::new()) };
}

thread_local! {
    /// The identifiers this thread interned, by [`recent_key`] in slot
    /// [`recent_slot`].
    static RECENT: RefCell<Box<[(u128, Ident)]>> =
        RefCell::new(vec![(EMPTY_KEY, Ident(0)); RECENT_SLOTS].into_boxed_slice());
}

impl Ident {
    /// Interns `name` and returns its identifier.
    pub fn new(name: &str) -> Ident {
        let key = recent_key(name);
        let slot = recent_slot(key);
        let cached = RECENT
            .try_with(|r| {
                let (k, id) = r.borrow()[slot];
                (k == key && (name.len() <= INLINE_NAME_BYTES || id.as_str() == name)).then_some(id)
            })
            .ok()
            .flatten();
        if let Some(id) = cached {
            return id;
        }
        let id = Ident::intern(name, name_hash(name));
        // Unavailable only while the thread is being torn down.
        let _ = RECENT.try_with(|r| r.borrow_mut()[slot] = (key, id));
        id
    }

    /// Interns `name`, whose [`name_hash`] is `hash`, through its shard.
    fn intern(name: &str, hash: u64) -> Ident {
        let shard_index = shard_of(hash);
        let shard = &shards()[shard_index];
        let mut intern = shard.intern.lock().expect("identifier interner poisoned");
        if let Some(&index) = intern.get(name) {
            return Ident::encode(shard_index, index);
        }
        let index = u32::try_from(intern.len()).expect("interner overflow");
        assert!(index <= MAX_INDEX, "interner shard overflow");
        let stored: &'static str = Box::leak(name.to_owned().into_boxed_str());
        shard.symbols.publish(index as usize, stored);
        intern.insert(stored, index);
        Ident::encode(shard_index, index)
    }

    fn encode(shard: usize, index: u32) -> Ident {
        Ident(((shard as u32) << INDEX_BITS) | index)
    }

    /// Returns the identifier's string contents.
    ///
    /// Lock-free: resolves through the shard's append-only symbol table
    /// with atomic loads only, so it never blocks behind (or deadlocks
    /// against) a thread that is interning.
    pub fn as_str(self) -> &'static str {
        let shard = &shards()[(self.0 >> INDEX_BITS) as usize];
        shard.symbols.get((self.0 & MAX_INDEX) as usize)
    }

    /// Builds the derived identifier `self` + `suffix`.
    ///
    /// Used by compilation passes that manufacture names from source names,
    /// e.g. `tracker` ↦ `tracker$step`.
    pub fn suffixed(self, suffix: &str) -> Ident {
        Ident::from_fmt(format_args!("{self}{suffix}"))
    }

    /// Interns formatted text, e.g.
    /// `Ident::from_fmt(format_args!("{class}${method}"))`. The text is
    /// built in a per-thread buffer, so a name that is already interned
    /// costs no allocation (unlike `Ident::new(&format!(..))`).
    pub fn from_fmt(args: fmt::Arguments<'_>) -> Ident {
        use fmt::Write as _;
        NAME_BUF
            .try_with(|buf| {
                // Busy only if formatting an argument interned a name.
                let mut buf = buf.try_borrow_mut().ok()?;
                buf.clear();
                buf.write_fmt(args).expect("formatting into a String");
                Some(Ident::new(&buf))
            })
            .ok()
            .flatten()
            .unwrap_or_else(|| Ident::new(&args.to_string()))
    }
}

impl fmt::Display for Ident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Ident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Ident({})", self.as_str())
    }
}

impl PartialOrd for Ident {
    fn partial_cmp(&self, other: &Ident) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ident {
    fn cmp(&self, other: &Ident) -> std::cmp::Ordering {
        if self.0 == other.0 {
            std::cmp::Ordering::Equal
        } else {
            self.as_str().cmp(other.as_str())
        }
    }
}

impl From<&str> for Ident {
    fn from(s: &str) -> Ident {
        Ident::new(s)
    }
}

/// A generator of fresh identifiers that cannot collide with source names.
///
/// Freshness is obtained by embedding a `$` (which the Lustre lexer rejects
/// in source identifiers) and a monotone counter.
///
/// # Examples
///
/// ```
/// use velus_common::FreshGen;
///
/// let mut gen = FreshGen::new("norm");
/// let a = gen.fresh("v");
/// let b = gen.fresh("v");
/// assert_ne!(a, b);
/// assert!(a.as_str().starts_with("v$norm"));
/// ```
#[derive(Debug, Clone)]
pub struct FreshGen {
    tag: &'static str,
    next: u32,
}

impl FreshGen {
    /// Creates a generator whose names embed the pass tag `tag`.
    pub fn new(tag: &'static str) -> FreshGen {
        FreshGen { tag, next: 0 }
    }

    /// Returns a fresh identifier with the given human-readable `prefix`.
    pub fn fresh(&mut self, prefix: &str) -> Ident {
        let n = self.next;
        self.next += 1;
        Ident::from_fmt(format_args!("{prefix}${}{n}", self.tag))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatted_names_intern_like_their_text() {
        let (class, method) = (Ident::new("tracker"), Ident::new("step"));
        let name = Ident::from_fmt(format_args!("{class}${method}"));
        assert_eq!(name, Ident::new("tracker$step"));
        // An argument that formats through `from_fmt` itself still works.
        struct Nested;
        impl fmt::Display for Nested {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}", Ident::from_fmt(format_args!("in{}", 1)))
            }
        }
        assert_eq!(
            Ident::from_fmt(format_args!("{Nested}$x")).as_str(),
            "in1$x"
        );
    }

    #[test]
    fn interning_is_idempotent() {
        assert_eq!(Ident::new("foo"), Ident::new("foo"));
        assert_ne!(Ident::new("foo"), Ident::new("bar"));
    }

    #[test]
    fn as_str_round_trips() {
        for name in ["a", "tracker", "state$0", "日本語"] {
            assert_eq!(Ident::new(name).as_str(), name);
        }
    }

    #[test]
    fn display_and_debug_are_nonempty() {
        let i = Ident::new("n");
        assert_eq!(format!("{i}"), "n");
        assert_eq!(format!("{i:?}"), "Ident(n)");
    }

    #[test]
    fn order_follows_strings() {
        let mut v = vec![Ident::new("z"), Ident::new("a"), Ident::new("m")];
        v.sort();
        let names: Vec<_> = v.into_iter().map(|i| i.as_str()).collect();
        assert_eq!(names, ["a", "m", "z"]);
    }

    #[test]
    fn fresh_names_are_distinct_and_tagged() {
        let mut g = FreshGen::new("t");
        let names: Vec<_> = (0..100).map(|_| g.fresh("x")).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        assert!(names.iter().all(|n| n.as_str().contains('$')));
    }

    #[test]
    fn suffixed_builds_derived_names() {
        assert_eq!(Ident::new("f").suffixed("$step").as_str(), "f$step");
    }

    #[test]
    fn repeat_interning_agrees_across_threads_and_cache_resets() {
        let names: Vec<String> = (0..2 * RECENT_SLOTS)
            .map(|k| format!("recent_probe_{k}"))
            .collect();
        // More names than cache slots evict one another; every name still
        // interns to the same identifier, here and on a fresh thread.
        let here: Vec<Ident> = names.iter().map(|n| Ident::new(n)).collect();
        for (n, id) in names.iter().zip(&here) {
            assert_eq!(Ident::new(n), *id);
            assert_eq!(id.as_str(), n.as_str());
        }
        let there = std::thread::spawn({
            let names = names.clone();
            move || names.iter().map(|n| Ident::new(n)).collect::<Vec<_>>()
        })
        .join()
        .unwrap();
        assert_eq!(here, there);
    }

    #[test]
    fn cache_keys_tell_apart_names_that_pad_alike() {
        // Short keys are zero-padded bytes plus the length; long ones are
        // hashes. Names that agree on the padded bytes, and names on both
        // sides of the inline cutoff, must still intern apart.
        let long = "p".repeat(INLINE_NAME_BYTES + 1);
        let names = ["", "a", "a\0", "\0", &long[1..], &long, "\u{ff}"];
        for _ in 0..2 {
            for (i, a) in names.iter().enumerate() {
                assert_eq!(Ident::new(a).as_str(), *a);
                for b in &names[i + 1..] {
                    assert_ne!(Ident::new(a), Ident::new(b), "{a:?} vs {b:?}");
                }
            }
        }
        assert_ne!(recent_key(""), EMPTY_KEY);
        assert_ne!(recent_key(&long), EMPTY_KEY);
    }

    #[test]
    fn locate_covers_the_index_space_contiguously() {
        let mut expected_start = 0usize;
        for bucket in 0..NUM_BUCKETS {
            let size = FIRST_BUCKET << bucket;
            assert_eq!(locate(expected_start), (bucket, 0));
            assert_eq!(locate(expected_start + size - 1), (bucket, size - 1));
            expected_start += size;
        }
        // The spine reaches past the densest shard the encoding allows.
        assert!(expected_start > MAX_INDEX as usize);
    }

    #[test]
    fn idents_from_distinct_shards_stay_distinct() {
        // Enough names that several shards are certainly populated; every
        // round-trip must still be exact and idempotent.
        let names: Vec<String> = (0..512).map(|k| format!("shard_probe_{k}")).collect();
        let idents: Vec<Ident> = names.iter().map(|n| Ident::new(n)).collect();
        for (name, id) in names.iter().zip(&idents) {
            assert_eq!(id.as_str(), name.as_str());
            assert_eq!(Ident::new(name), *id);
        }
        let mut dedup = idents.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), idents.len());
    }
}
