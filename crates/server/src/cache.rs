//! The content-addressed artifact cache.
//!
//! Every request is digested **once**: [`ContentDigest::of`] reads the
//! request's *content* — source text, root selection and I/O mode — in
//! one word-at-a-time pass and yields 128 bits. Each artifact kind's
//! [`CacheKey`] is then derived from that digest in O(1)
//! ([`ContentDigest::key`]), so a multi-kind request reads its source
//! once, not once per kind. Equal content maps to the same artifact
//! regardless of the request's label, and a warm hit returns the
//! identical `Arc`, so emitted code is bit-for-bit the artifact produced
//! by the cold compilation. Each kind of a multi-kind request is a
//! separate entry: a WCET request neither recomputes nor re-caches the C
//! artifact, and each entry is weighed by its own kind's resident size.
//!
//! The digest is a locator, not a proof of identity: it is fast, not
//! collision-resistant. Every entry keeps the content it was stored
//! under and a lookup **verifies the content on hit**, byte for byte, so
//! a digest collision degrades to a miss (and a recompile), never to
//! serving another program's artifact.
//!
//! # Sharding and eviction
//!
//! The table is striped into [`CacheConfig::shards`] lock-striped shards
//! selected by the high bits of the key (the digest's finalizer and the
//! kind derivation both mix every input bit into them, so stripes fill
//! evenly), so concurrent workers only contend when they touch the same
//! stripe. Capacity is bounded: each entry is weighed (stored source
//! bytes plus an artifact weigher supplied by the service) and the cache
//! enforces optional total entry/byte caps with **S3-FIFO eviction**
//! (Yang et al., *FIFO queues are all you need for cache eviction*,
//! SOSP 2023). A new entry is admitted to a small probation FIFO; one
//! hit there promotes it to the main FIFO when it reaches the front,
//! while a one-off is dropped after that single pass and remembered in a
//! keys-only ghost FIFO. One-off edits thus pass through probation
//! without pushing the programs that get rebuilt out of the main FIFO,
//! and a ghosted key that comes back goes straight to the main FIFO. The main FIFO gives each entry at its front one more pass per
//! hit it took (a 2-bit count, as in CLOCK).
//!
//! A hit only bumps its entry's count under the entry's stripe lock. The
//! queues sit behind one lock that only insert, eviction and `clear`
//! take (once per compiled artifact, never on a hit), always before any
//! stripe lock, and an insert makes room *before* it admits, so the caps
//! hold at every instant. Evictions are counted and surfaced through
//! [`CacheCounters`]/`ServiceStats`. The verification-on-hit invariant
//! is per entry and unaffected by sharding or eviction: an evicted entry
//! simply recompiles (and re-verifies) on its next request.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::{ArtifactKind, CompileRequest, IoMode};

/// Odd 64-bit constants with well-spread bits (wyhash's secrets): each
/// lane and each finalizer step folds against a different one.
const K: [u64; 4] = [
    0xa076_1d64_78bd_642f,
    0xe703_7ed1_a0b4_28db,
    0x8ebc_6af0_9c88_c6e3,
    0x5899_65cc_7537_4cc3,
];

/// The first block of every digest, so these digests never coincide
/// with another use of the same hash.
const DOMAIN: &[u8; 16] = b"velus-content-v1";

/// Folded multiply: the 128-bit product's halves XORed together. Every
/// input bit reaches the middle bits of the result, which is what makes
/// one multiply per lane and block enough.
fn fold(a: u64, b: u64) -> u64 {
    let product = u128::from(a) * u128::from(b);
    (product as u64) ^ ((product >> 64) as u64)
}

fn word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("an 8-byte word"))
}

/// Two independent folded-multiply lanes over 16-byte blocks. Both lanes
/// read the whole block with their words in opposite roles, so the two
/// halves of the digest do not depend on the input in the same way.
struct Lanes {
    a: u64,
    b: u64,
}

impl Lanes {
    fn new() -> Lanes {
        let mut lanes = Lanes { a: K[0], b: K[1] };
        lanes.bytes(DOMAIN);
        lanes
    }

    fn block(&mut self, w0: u64, w1: u64) {
        self.a = fold(w0 ^ K[2], w1 ^ self.a);
        self.b = fold(w1 ^ K[3], w0 ^ self.b);
    }

    /// Absorbs `bytes` as little-endian words, so the value is the same
    /// on every platform; a partial last block is zero-padded (the
    /// lengths, absorbed first, tell padding from data).
    fn bytes(&mut self, bytes: &[u8]) {
        let mut blocks = bytes.chunks_exact(16);
        for block in &mut blocks {
            let (w0, w1) = block.split_at(8);
            self.block(word(w0), word(w1));
        }
        let tail = blocks.remainder();
        if !tail.is_empty() {
            let mut padded = [0u8; 16];
            padded[..tail.len()].copy_from_slice(tail);
            let (w0, w1) = padded.split_at(8);
            self.block(word(w0), word(w1));
        }
    }
}

/// A 128-bit digest of a request's content: source text, root selection
/// and I/O mode. The `name` label is deliberately excluded (two files
/// with equal content share their cache entries), and so is the kind
/// *set*: each kind keys its own entry through [`ContentDigest::key`],
/// so a later request that shares only some kinds still hits those.
///
/// The digest is computed once per request. The service derives every
/// per-kind cache key, the retry-jitter seed and the panic-quarantine
/// entry from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ContentDigest {
    hi: u64,
    lo: u64,
}

impl ContentDigest {
    /// Digests a request in one pass. Every length and flag is absorbed
    /// before any text (source length, root length, root presence, I/O
    /// mode), so no two field splits of the same bytes collide: `("ab",
    /// root "c")` differs from `("a", root "bc")`, and no root differs
    /// from an empty one.
    pub fn of(req: &CompileRequest) -> ContentDigest {
        let root = req.root.as_deref().unwrap_or("");
        let mut lanes = Lanes::new();
        lanes.block(req.source.len() as u64, root.len() as u64);
        lanes.block(u64::from(req.root.is_some()), req.options.io as u64);
        lanes.bytes(req.source.as_bytes());
        lanes.bytes(root.as_bytes());
        // Finalize: both output halves depend on both lanes, so the high
        // bits that select a shard are as uniform as the low ones.
        let hi = fold(lanes.a ^ K[0], lanes.b ^ K[1]);
        let lo = fold(lanes.b ^ K[2], lanes.a ^ hi);
        ContentDigest { hi, lo }
    }

    /// The cache key of one artifact `kind` of this content, in O(1).
    /// Distinct kinds of the same content always get distinct keys: the
    /// low half is the digest's XOR a bijection of the kind tag.
    pub fn key(&self, kind: &ArtifactKind) -> CacheKey {
        let [major, minor] = kind.key_tag();
        let tag = (u64::from(major) << 8 | u64::from(minor)).wrapping_add(1);
        let lo = self.lo ^ tag.wrapping_mul(K[1]);
        CacheKey {
            hi: fold(self.hi ^ tag.wrapping_mul(K[0]), lo ^ K[3]),
            lo,
        }
    }

    /// The digest folded to 64 bits: a per-input seed for deterministic
    /// randomness (the service's retry jitter, the chaos layer's fault
    /// rolls) that is fixed per content yet decorrelated across inputs.
    pub fn seed(&self) -> u64 {
        self.hi ^ self.lo
    }
}

/// The cache key of one artifact kind of one request's content; see
/// [`ContentDigest::key`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    hi: u64,
    lo: u64,
}

/// Shape and capacity of an [`ArtifactCache`].
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Number of lock stripes (rounded up to a power of two, at least 1).
    pub shards: usize,
    /// Cap on the number of cached artifacts, across all shards.
    /// `None` means unbounded.
    pub max_entries: Option<usize>,
    /// Cap on the total cached bytes (stored source plus the weigher's
    /// estimate of the artifact), across all shards. `None` is unbounded.
    pub max_bytes: Option<usize>,
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig {
            shards: 16,
            max_entries: None,
            max_bytes: None,
        }
    }
}

/// Point-in-time occupancy and eviction counters of a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheCounters {
    /// Artifacts currently held.
    pub entries: u64,
    /// Weighed bytes currently held.
    pub bytes: u64,
    /// Entries evicted to honor a capacity cap since construction
    /// (monotone; `clear` does not count).
    pub evictions: u64,
}

/// The request content cache entries are stored under, kept for hit
/// verification: the key-relevant request fields (source, root, I/O
/// mode). The entries one request fills — one per artifact kind — share
/// one copy, moved out of the finished request ([`RequestContent::take`]),
/// so filling the cache copies no source text.
#[derive(Debug, PartialEq, Eq)]
pub struct RequestContent {
    source: String,
    root: Option<String>,
    io: IoMode,
}

impl RequestContent {
    /// Moves the content out of a request that is done compiling,
    /// leaving its source and root empty. The cache may hold the text for
    /// long, so any spare capacity the request's buffers were built with
    /// is given back (shrinking in place, not copying).
    pub fn take(req: &mut CompileRequest) -> Arc<RequestContent> {
        let mut source = std::mem::take(&mut req.source);
        source.shrink_to_fit();
        let mut root = req.root.take();
        if let Some(root) = &mut root {
            root.shrink_to_fit();
        }
        Arc::new(RequestContent {
            source,
            root,
            io: req.options.io,
        })
    }

    /// Whether `req` has exactly this content, byte for byte.
    fn matches(&self, req: &CompileRequest) -> bool {
        self.source == req.source && self.root == req.root && self.io == req.options.io
    }

    /// The bytes an entry is charged for its content.
    fn bytes(&self) -> usize {
        self.source.len() + self.root.as_deref().map_or(0, str::len)
    }
}

/// The content and artifact kind an entry was stored under (the
/// request's full kind set is *not* part of a per-kind entry's
/// identity).
struct StoredContent {
    content: Arc<RequestContent>,
    kind: ArtifactKind,
}

impl StoredContent {
    fn matches(&self, req: &CompileRequest, kind: &ArtifactKind) -> bool {
        self.kind == *kind && self.content.matches(req)
    }

    /// Whether this is the same content, stored under the same kind.
    fn is(&self, content: &Arc<RequestContent>, kind: &ArtifactKind) -> bool {
        self.kind == *kind && (Arc::ptr_eq(&self.content, content) || self.content == *content)
    }
}

struct Entry<A> {
    stored: StoredContent,
    artifact: Arc<A>,
    weight: usize,
    /// Hits, saturating at [`MAX_FREQ`]: reset when the entry moves on
    /// from probation, one less each time the main FIFO requeues it.
    freq: u8,
}

/// The most hits an entry's count holds (2 bits): a main-FIFO entry is
/// requeued at most this many times before it can be evicted.
const MAX_FREQ: u8 = 3;

/// The probation FIFO's share of the cap that binds (the entry cap, or
/// the byte cap when only that one is exceeded): eviction takes from
/// probation while it holds at least 1/`SMALL_SHARE` of that cap, and
/// from the main FIFO otherwise. One tenth is the S3-FIFO paper's choice.
const SMALL_SHARE: usize = 10;

/// The S3-FIFO queues. Every resident key is in exactly one of `small`
/// and `main`; `ghost` holds keys (not entries) recently dropped from
/// `small`, at most as many as are resident. A ghost slot carries the
/// sequence number it was ghosted under, so the slot a readmitted key
/// left behind does not forget a later ghosting of the same key.
#[derive(Default)]
struct Queues {
    small: VecDeque<CacheKey>,
    /// The weight of the entries in `small`.
    small_bytes: usize,
    main: VecDeque<CacheKey>,
    ghost: VecDeque<(CacheKey, u64)>,
    ghosted: HashMap<CacheKey, u64>,
    ghost_seq: u64,
}

impl Queues {
    fn resident(&self) -> usize {
        self.small.len() + self.main.len()
    }

    /// Remembers a key dropped from probation, forgetting the oldest
    /// ghosts beyond the resident count.
    fn ghost(&mut self, key: CacheKey) {
        self.ghost_seq += 1;
        self.ghost.push_back((key, self.ghost_seq));
        self.ghosted.insert(key, self.ghost_seq);
        while self.ghost.len() > self.resident() {
            let Some((old, seq)) = self.ghost.pop_front() else {
                break;
            };
            if self.ghosted.get(&old) == Some(&seq) {
                self.ghosted.remove(&old);
            }
        }
    }
}

/// How an artifact's resident size is estimated for the byte cap.
type Weigher<A> = Box<dyn Fn(&A) -> usize + Send + Sync>;

/// A thread-safe, lock-striped, capacity-bounded memo table from request
/// content to shared artifacts. (Hit/miss accounting lives in the
/// service's `StatsCollector`, not here — one set of counters, one
/// source of truth; the cache only counts what it alone can observe:
/// occupancy and evictions.)
pub struct ArtifactCache<A> {
    shards: Vec<Mutex<HashMap<CacheKey, Entry<A>>>>,
    shard_bits: u32,
    /// The eviction order; locked before any stripe, never by `get`.
    queues: Mutex<Queues>,
    max_entries: Option<usize>,
    max_bytes: Option<usize>,
    weigher: Weigher<A>,
    entries: AtomicUsize,
    bytes: AtomicUsize,
    evictions: AtomicU64,
}

impl<A> Default for ArtifactCache<A> {
    fn default() -> ArtifactCache<A> {
        ArtifactCache::new()
    }
}

impl<A> ArtifactCache<A> {
    /// An empty, unbounded cache with the default shard count and a
    /// zero-weight artifact weigher.
    pub fn new() -> ArtifactCache<A> {
        ArtifactCache::with_config(CacheConfig::default(), Box::new(|_| 0))
    }

    /// An empty cache with the given shape, caps, and artifact weigher.
    pub fn with_config(config: CacheConfig, weigher: Weigher<A>) -> ArtifactCache<A> {
        let shard_count = config.shards.max(1).next_power_of_two();
        let shard_bits = shard_count.trailing_zeros();
        ArtifactCache {
            shards: (0..shard_count)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            shard_bits,
            queues: Mutex::new(Queues::default()),
            max_entries: config.max_entries,
            max_bytes: config.max_bytes,
            weigher,
            entries: AtomicUsize::new(0),
            bytes: AtomicUsize::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The stripe a key lives in: the digest's high bits (the digest is
    /// uniform, so stripes fill evenly).
    fn shard(&self, key: &CacheKey) -> &Mutex<HashMap<CacheKey, Entry<A>>> {
        let index = if self.shard_bits == 0 {
            0
        } else {
            (key.hi >> (64 - self.shard_bits)) as usize
        };
        &self.shards[index]
    }

    fn lock_queues(&self) -> std::sync::MutexGuard<'_, Queues> {
        self.queues.lock().expect("cache queue lock")
    }

    /// Looks up the artifact of one `kind` for a request's content and
    /// counts the hit toward the entry's stay. The stored content is
    /// compared on digest match, so a hash collision is a miss, never a
    /// wrong artifact.
    pub fn get(&self, key: &CacheKey, req: &CompileRequest, kind: &ArtifactKind) -> Option<Arc<A>> {
        let mut shard = self.shard(key).lock().expect("cache shard lock");
        let entry = shard
            .get_mut(key)
            .filter(|entry| entry.stored.matches(req, kind))?;
        entry.freq = (entry.freq + 1).min(MAX_FREQ);
        Some(Arc::clone(&entry.artifact))
    }

    /// Inserts an artifact stored under `content` (shared with the other
    /// kinds of the same request) and returns the shared handle, first
    /// evicting until the new entry fits the configured caps. If another
    /// worker raced the same content, the *first* insertion wins and is
    /// returned — artifacts are deterministic functions of the content,
    /// so either copy is equivalent; keeping the first maximizes sharing.
    ///
    /// Every entry is charged its content's full bytes, shared or not, so
    /// the byte cap accounts as if each entry held its own copy.
    pub fn insert(
        &self,
        key: CacheKey,
        content: &Arc<RequestContent>,
        kind: ArtifactKind,
        artifact: A,
    ) -> Arc<A> {
        let mut queues = self.lock_queues();
        let weight = {
            let shard = self.shard(&key).lock().expect("cache shard lock");
            match shard.get(&key) {
                Some(entry) if entry.stored.is(content, &kind) => {
                    return Arc::clone(&entry.artifact)
                }
                // Digest collision with different content: keep the incumbent
                // (its requests still verify) and serve this artifact uncached.
                Some(_) => return Arc::new(artifact),
                None => content.bytes() + (self.weigher)(&artifact),
            }
        };
        // An entry that alone exceeds the byte cap can never be retained;
        // admitting it would purge every other (useful) entry on the way
        // to evicting it. Serve it uncached instead and leave the cache
        // untouched.
        if self.max_bytes.is_some_and(|cap| weight > cap) {
            return Arc::new(artifact);
        }
        // Inserts hold the queue lock, so the key is still absent here.
        let returning = queues.ghosted.remove(&key).is_some();
        if !self.make_room(&mut queues, weight) {
            // Only an entry cap of zero admits nothing.
            return Arc::new(artifact);
        }
        let shared = Arc::new(artifact);
        self.shard(&key).lock().expect("cache shard lock").insert(
            key,
            Entry {
                stored: StoredContent {
                    content: Arc::clone(content),
                    kind,
                },
                artifact: Arc::clone(&shared),
                weight,
                freq: 0,
            },
        );
        self.entries.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(weight, Ordering::Relaxed);
        if returning {
            queues.main.push_back(key);
        } else {
            queues.small.push_back(key);
            queues.small_bytes += weight;
        }
        shared
    }

    /// Evicts until one more entry of `weight` bytes fits both caps;
    /// `false` if the cache emptied before it did. From probation while
    /// it holds its share of the binding cap (or the main FIFO is empty):
    /// a front entry hit since admission moves to the main FIFO, any
    /// other is dropped and ghosted. Otherwise from the main FIFO: a
    /// front entry with hits left is requeued with one less, any other
    /// is dropped.
    fn make_room(&self, queues: &mut Queues, weight: usize) -> bool {
        loop {
            let entries = self.entries.load(Ordering::Relaxed);
            let bytes = self.bytes.load(Ordering::Relaxed);
            let small_share = if let Some(cap) = self.max_entries.filter(|&cap| entries >= cap) {
                queues.small.len() * SMALL_SHARE >= cap
            } else if let Some(cap) = self.max_bytes.filter(|&cap| bytes + weight > cap) {
                queues.small_bytes * SMALL_SHARE >= cap
            } else {
                return true;
            };
            let from_small = !queues.small.is_empty() && (small_share || queues.main.is_empty());
            let popped = if from_small {
                queues.small.pop_front()
            } else {
                queues.main.pop_front()
            };
            let Some(key) = popped else {
                return false;
            };
            let mut shard = self.shard(&key).lock().expect("cache shard lock");
            let entry = shard.get_mut(&key).expect("queued keys are resident");
            if from_small {
                queues.small_bytes -= entry.weight;
            }
            if entry.freq > 0 {
                entry.freq = if from_small { 0 } else { entry.freq - 1 };
                queues.main.push_back(key);
                continue;
            }
            let weight = shard.remove(&key).expect("queued keys are resident").weight;
            drop(shard);
            self.entries.fetch_sub(1, Ordering::Relaxed);
            self.bytes.fetch_sub(weight, Ordering::Relaxed);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            if from_small {
                queues.ghost(key);
            }
        }
    }

    /// The content the entry under `key` was stored with (test aid for
    /// the sharing of one request's content across its kinds).
    #[cfg(test)]
    pub(crate) fn stored_content(&self, key: &CacheKey) -> Option<Arc<RequestContent>> {
        let shard = self.shard(key).lock().expect("cache shard lock");
        shard.get(key).map(|e| Arc::clone(&e.stored.content))
    }

    /// Checks, with every lock held, that the counters equal the sums
    /// over the stripes, that the queues hold each resident key exactly
    /// once (and nothing else), and that no ghost is resident.
    #[cfg(test)]
    pub(crate) fn check_invariants(&self) {
        let queues = self.lock_queues();
        let shards: Vec<_> = self
            .shards
            .iter()
            .map(|shard| shard.lock().expect("cache shard lock"))
            .collect();
        let resident: HashMap<CacheKey, usize> = shards
            .iter()
            .flat_map(|shard| shard.iter().map(|(key, entry)| (*key, entry.weight)))
            .collect();
        assert_eq!(self.entries.load(Ordering::Relaxed), resident.len());
        assert_eq!(
            self.bytes.load(Ordering::Relaxed),
            resident.values().sum::<usize>()
        );
        let queued: std::collections::HashSet<CacheKey> =
            queues.small.iter().chain(&queues.main).copied().collect();
        assert_eq!(queued.len(), queues.resident(), "a key queued twice");
        assert!(queued.iter().all(|key| resident.contains_key(key)));
        assert_eq!(queued.len(), resident.len(), "a resident key not queued");
        let small_bytes: usize = queues.small.iter().map(|key| resident[key]).sum();
        assert_eq!(queues.small_bytes, small_bytes);
        assert!(queues.ghost.len() <= resident.len());
        assert!(queues.ghosted.keys().all(|key| !resident.contains_key(key)));
    }

    /// Number of distinct artifacts held.
    pub fn len(&self) -> usize {
        self.entries.load(Ordering::Relaxed)
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Occupancy and eviction counters.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            entries: self.entries.load(Ordering::Relaxed) as u64,
            bytes: self.bytes.load(Ordering::Relaxed) as u64,
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Drops every entry and forgets every ghost (not counted as
    /// evictions).
    pub fn clear(&self) {
        let mut queues = self.lock_queues();
        for shard in &self.shards {
            let mut shard = shard.lock().expect("cache shard lock");
            let removed_bytes: usize = shard.values().map(|e| e.weight).sum();
            let removed = shard.len();
            shard.clear();
            self.entries.fetch_sub(removed, Ordering::Relaxed);
            self.bytes.fetch_sub(removed_bytes, Ordering::Relaxed);
        }
        *queues = Queues::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CompileOptions, IoMode, IrStageKind, WcetModelKind};

    const C: ArtifactKind = ArtifactKind::CCode;

    fn req(source: &str) -> CompileRequest {
        CompileRequest::new("r", source)
    }

    fn key(r: &CompileRequest) -> CacheKey {
        ContentDigest::of(r).key(&C)
    }

    /// The content of `r`, moved out of a copy (`r` keeps its own).
    fn content(r: &CompileRequest) -> Arc<RequestContent> {
        RequestContent::take(&mut r.clone())
    }

    /// The content the entry under `key` holds.
    fn stored(cache: &ArtifactCache<String>, key: &CacheKey) -> Arc<RequestContent> {
        cache.stored_content(key).expect("an entry")
    }

    #[test]
    fn the_kinds_of_one_request_share_one_moved_content() {
        let cache: ArtifactCache<String> = ArtifactCache::new();
        let mut r = req("node f(x: int) returns (y: int) let y = x; tel").with_root("f");
        let probe = r.clone();
        let digest = ContentDigest::of(&r);
        let lint = ArtifactKind::Lint;
        let shared = RequestContent::take(&mut r);
        assert!(r.source.is_empty() && r.root.is_none(), "moved, not copied");
        cache.insert(digest.key(&C), &shared, C, "c".into());
        cache.insert(digest.key(&lint), &shared, lint, "lint".into());
        let (c_content, lint_content) = (
            stored(&cache, &digest.key(&C)),
            stored(&cache, &digest.key(&lint)),
        );
        assert!(
            Arc::ptr_eq(&c_content, &lint_content),
            "one source allocation"
        );
        assert!(Arc::ptr_eq(&c_content, &shared));
        // Each entry is still charged the whole content.
        let each = probe.source.len() + "f".len();
        assert_eq!(cache.counters().bytes as usize, 2 * each);
        // A hit still verifies the content byte for byte.
        assert_eq!(
            cache.get(&digest.key(&lint), &probe, &lint).as_deref(),
            Some(&"lint".to_owned())
        );
        let mut edited = probe.clone();
        edited.source.push(' ');
        assert!(cache.get(&digest.key(&lint), &edited, &lint).is_none());
        let mut rerooted = probe.clone();
        rerooted.root = None;
        assert!(cache.get(&digest.key(&C), &rerooted, &C).is_none());
    }

    fn bounded(max_entries: usize) -> ArtifactCache<String> {
        ArtifactCache::with_config(
            CacheConfig {
                max_entries: Some(max_entries),
                ..CacheConfig::default()
            },
            Box::new(String::len),
        )
    }

    #[test]
    fn key_depends_on_content_not_name() {
        let a = CompileRequest::new("a", "node f() ...");
        let b = CompileRequest::new("b", "node f() ...");
        assert_eq!(ContentDigest::of(&a), ContentDigest::of(&b));
        assert_eq!(key(&a), key(&b));
    }

    #[test]
    fn key_distinguishes_source_root_options_and_kind() {
        let base = req("src");
        let k = key(&base);
        assert_ne!(k, key(&req("src2")));
        assert_ne!(k, key(&base.clone().with_root("main")));
        assert_ne!(
            k,
            key(&base
                .clone()
                .with_options(CompileOptions::default().with_io(IoMode::Stdio)))
        );
        // Explicit empty root differs from no root (length prefixing).
        assert_ne!(k, key(&base.clone().with_root("")));
        // Moving bytes across the source/root boundary changes the key.
        assert_ne!(
            key(&req("ab").with_root("c")),
            key(&req("a").with_root("bc"))
        );
        // Every kind — each WCET model and IR stage included — keys a
        // distinct entry for the same content.
        let digest = ContentDigest::of(&base);
        let mut kinds = vec![
            ArtifactKind::CCode,
            ArtifactKind::BaselineDiff,
            ArtifactKind::Report,
            ArtifactKind::Lint,
        ];
        kinds.extend(
            [
                WcetModelKind::CompCert,
                WcetModelKind::Gcc,
                WcetModelKind::GccInline,
            ]
            .map(|model| ArtifactKind::Wcet { model }),
        );
        kinds.extend(
            [
                IrStageKind::NLustre,
                IrStageKind::SnLustre,
                IrStageKind::Obc,
                IrStageKind::ObcFused,
            ]
            .map(|stage| ArtifactKind::IrDump { stage }),
        );
        let keys: std::collections::HashSet<CacheKey> =
            kinds.iter().map(|kind| digest.key(kind)).collect();
        assert_eq!(keys.len(), kinds.len(), "one distinct key per kind");
    }

    #[test]
    fn digest_is_pinned_across_platforms() {
        // Words are read little-endian, so this value is the same on
        // every target. The cache lives in memory, so a change here
        // breaks no stored state, but it must be deliberate.
        let digest = ContentDigest::of(
            &CompileRequest::new("n", "node f(x: int) returns (y: int) let y = x; tel")
                .with_root("f"),
        );
        assert_eq!(
            digest,
            ContentDigest {
                hi: 0xd6a9_6d93_7f99_ba1d,
                lo: 0xe360_9250_302e_59c6,
            }
        );
    }

    #[test]
    fn every_block_tail_length_changes_the_digest() {
        // Sources of length 0..=41 cover empty input, a partial block of
        // every size, exact blocks and block-plus-tail.
        let text = "node f(x: int) returns (y: int) let y = x; tel";
        let digests: Vec<ContentDigest> = (0..=41)
            .map(|n| ContentDigest::of(&req(&text[..n])))
            .collect();
        for (n, pair) in digests.windows(2).enumerate() {
            assert_ne!(pair[0], pair[1], "length {n} vs {}", n + 1);
        }
        // Trailing zero bytes are data, not padding.
        for n in 0..=40 {
            let short = "\0".repeat(n);
            let long = "\0".repeat(n + 1);
            assert_ne!(
                ContentDigest::of(&req(&short)),
                ContentDigest::of(&req(&long))
            );
        }
    }

    #[test]
    fn keys_spread_evenly_over_shards() {
        // Shards are picked by the key's top bits; 4,096 similar sources
        // must not pile into a few of 16 stripes.
        let mut counts = [0usize; 16];
        for i in 0..4096 {
            let k = key(&req(&format!("node n{i}(x: int) returns (y: int)")));
            counts[(k.hi >> 60) as usize] += 1;
        }
        let mean = 4096 / 16;
        assert!(
            counts.iter().all(|&c| c <= 2 * mean),
            "uneven shards: {counts:?}"
        );
    }

    #[test]
    fn kind_set_of_the_request_does_not_change_the_key() {
        // Two requests for the same content with different kind *sets*
        // share the per-kind entries of the kinds they have in common.
        let one = req("src");
        let many = req("src").with_options(CompileOptions::for_kinds(vec![
            ArtifactKind::CCode,
            ArtifactKind::BaselineDiff,
        ]));
        assert_eq!(key(&one), key(&many));
        let cache: ArtifactCache<String> = ArtifactCache::new();
        cache.insert(key(&one), &content(&one), C, "shared".to_owned());
        assert_eq!(
            cache.get(&key(&many), &many, &C).as_deref(),
            Some(&"shared".to_owned())
        );
    }

    #[test]
    fn get_round_trips_and_verifies_content() {
        let cache: ArtifactCache<String> = ArtifactCache::new();
        let r = req("x");
        let k = key(&r);
        assert!(cache.get(&k, &r, &C).is_none());
        cache.insert(k, &content(&r), C, "artifact".to_owned());
        assert_eq!(
            cache.get(&k, &r, &C).as_deref(),
            Some(&"artifact".to_owned())
        );
        assert_eq!(cache.len(), 1);
        // A *forged* lookup with the right digest but different content
        // is a miss, not a wrong artifact.
        let other = req("y");
        assert!(cache.get(&k, &other, &C).is_none());
        // So is a forged lookup for a different kind.
        assert!(cache.get(&k, &r, &ArtifactKind::BaselineDiff).is_none());
    }

    #[test]
    fn racing_insert_keeps_the_first_artifact() {
        let cache: ArtifactCache<String> = ArtifactCache::new();
        let r = req("x");
        let k = key(&r);
        let first = cache.insert(k, &content(&r), C, "one".to_owned());
        let second = cache.insert(k, &content(&r), C, "two".to_owned());
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(*second, "one");
    }

    #[test]
    fn an_entry_hit_since_admission_outlives_one_that_was_not() {
        let cache = bounded(2);
        let (ra, rb, rc) = (req("aa"), req("bb"), req("cc"));
        let (ka, kb, kc) = (key(&ra), key(&rb), key(&rc));
        cache.insert(ka, &content(&ra), C, "A".into());
        cache.insert(kb, &content(&rb), C, "B".into());
        // Hit A (B never is), then overflow with C: A moves on to the
        // main FIFO and B, never hit, is dropped from probation.
        assert!(cache.get(&ka, &ra, &C).is_some());
        cache.insert(kc, &content(&rc), C, "C".into());
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.counters().evictions, 1);
        assert!(
            cache.get(&kb, &rb, &C).is_none(),
            "the entry never hit was evicted"
        );
        assert!(cache.get(&ka, &ra, &C).is_some());
        assert!(cache.get(&kc, &rc, &C).is_some());
    }

    /// Inserts `n` distinct one-off entries tagged `tag`.
    fn burst(cache: &ArtifactCache<String>, tag: &str, n: usize) {
        for k in 0..n {
            let r = req(&format!("{tag}{k}"));
            cache.insert(key(&r), &content(&r), C, format!("{tag}{k}"));
        }
    }

    #[test]
    fn a_hit_entry_survives_a_burst_of_one_off_inserts() {
        // Under LRU a burst of `cap` one-offs flushes everything; here the
        // one-offs only cycle through probation.
        let cap = 10;
        let cache = bounded(cap);
        let hot = req("hot");
        cache.insert(key(&hot), &content(&hot), C, "H".into());
        assert!(cache.get(&key(&hot), &hot, &C).is_some());
        burst(&cache, "once", cap);
        assert!(cache.get(&key(&hot), &hot, &C).is_some());
        burst(&cache, "again", 3 * cap);
        assert!(cache.get(&key(&hot), &hot, &C).is_some());
        assert_eq!(cache.len(), cap);
        cache.check_invariants();
    }

    #[test]
    fn a_key_dropped_from_probation_returns_to_the_main_fifo() {
        let cap = 10;
        let cache = bounded(cap);
        let r = req("back");
        cache.insert(key(&r), &content(&r), C, "B".into());
        // Never hit: the burst drops it from probation into the ghost.
        burst(&cache, "first", cap);
        assert!(cache.get(&key(&r), &r, &C).is_none());
        // Inserted again, it joins the main FIFO and, still never hit,
        // outlasts a burst that only cycles probation.
        cache.insert(key(&r), &content(&r), C, "B".into());
        burst(&cache, "second", cap);
        assert!(cache.get(&key(&r), &r, &C).is_some());
        cache.check_invariants();
    }

    #[test]
    fn under_a_byte_cap_the_probation_share_is_counted_in_bytes() {
        let cache: ArtifactCache<String> = ArtifactCache::with_config(
            CacheConfig {
                max_bytes: Some(100),
                ..CacheConfig::default()
            },
            Box::new(String::len),
        );
        let fill = |r: &CompileRequest, weight: usize| {
            let artifact = "x".repeat(weight - r.source.len());
            cache.insert(key(r), &content(r), C, artifact);
        };
        let (m, f, t, g) = (req("m"), req("f"), req("t"), req("g"));
        fill(&m, 40);
        fill(&f, 40);
        fill(&t, 4);
        assert!(cache.get(&key(&m), &m, &C).is_some());
        assert!(cache.get(&key(&f), &f, &C).is_some());
        // 84 + 40 > 100: M and F move on to the main FIFO, which leaves
        // probation one entry but 4 bytes, under a tenth of the cap, so
        // the main FIFO's front (M, not hit since) goes instead of T.
        fill(&g, 40);
        assert_eq!(cache.counters().bytes, 84);
        assert_eq!(cache.counters().evictions, 1);
        assert!(cache.get(&key(&m), &m, &C).is_none());
        for r in [&f, &t, &g] {
            assert!(cache.get(&key(r), r, &C).is_some(), "{}", r.source);
        }
        cache.check_invariants();
    }

    #[test]
    fn an_entry_cap_of_zero_caches_nothing() {
        let cache = bounded(0);
        let r = req("x");
        assert_eq!(*cache.insert(key(&r), &content(&r), C, "X".into()), "X");
        assert_eq!(cache.counters(), CacheCounters::default());
        cache.check_invariants();
    }

    #[test]
    fn concurrent_get_insert_and_clear_keep_the_caps_and_the_queues() {
        for shards in [1, 16] {
            for cap in 1..=8 {
                let cache: ArtifactCache<String> = ArtifactCache::with_config(
                    CacheConfig {
                        shards,
                        max_entries: Some(cap),
                        max_bytes: Some(cap * 8),
                    },
                    Box::new(String::len),
                );
                std::thread::scope(|scope| {
                    for thread in 0..4u64 {
                        let cache = &cache;
                        scope.spawn(move || {
                            let mut state = thread + 1;
                            for _ in 0..2_000 {
                                // A 64-bit LCG: a fixed, per-thread stream.
                                state = state
                                    .wrapping_mul(6_364_136_223_846_793_005)
                                    .wrapping_add(1_442_695_040_888_963_407);
                                let roll = state >> 33;
                                let k = roll % 24;
                                let r = req(&format!("s{k:02}"));
                                let artifact = "a".repeat(k as usize % 9);
                                match roll / 24 % 20 {
                                    0 => cache.clear(),
                                    1..=9 => {
                                        if let Some(hit) = cache.get(&key(&r), &r, &C) {
                                            assert_eq!(*hit, artifact);
                                        }
                                    }
                                    _ => {
                                        cache.insert(key(&r), &content(&r), C, artifact);
                                        let counters = cache.counters();
                                        assert!(counters.entries as usize <= cap);
                                        assert!(counters.bytes as usize <= cap * 8);
                                    }
                                }
                            }
                        });
                    }
                });
                cache.check_invariants();
            }
        }
    }

    #[test]
    fn byte_cap_counts_source_and_artifact_weight() {
        let cache: ArtifactCache<String> = ArtifactCache::with_config(
            CacheConfig {
                max_bytes: Some(16),
                ..CacheConfig::default()
            },
            Box::new(String::len),
        );
        let ra = req("aaaa"); // 4 source bytes + 4 artifact bytes
        cache.insert(key(&ra), &content(&ra), C, "AAAA".into());
        assert_eq!(cache.counters().bytes, 8);
        let rb = req("bbbb");
        cache.insert(key(&rb), &content(&rb), C, "BBBB".into());
        assert_eq!((cache.len(), cache.counters().bytes), (2, 16));
        // A third entry pushes past 16 weighed bytes: the oldest goes.
        let rc = req("cccc");
        cache.insert(key(&rc), &content(&rc), C, "CCCC".into());
        assert!(cache.counters().bytes <= 16);
        assert_eq!(cache.counters().evictions, 1);
        assert!(cache.get(&key(&ra), &ra, &C).is_none());
    }

    #[test]
    fn an_oversized_entry_is_served_uncached_without_purging_others() {
        let cache: ArtifactCache<String> = ArtifactCache::with_config(
            CacheConfig {
                max_bytes: Some(10),
                ..CacheConfig::default()
            },
            Box::new(String::len),
        );
        // A resident entry that fits (2 source + 1 artifact = 3 bytes).
        let small = req("ok");
        cache.insert(key(&small), &content(&small), C, "K".into());
        assert_eq!(cache.len(), 1);
        // An entry that could never fit is served but not admitted — and
        // the resident entry survives (no purge on the way to nothing).
        let r = req("way too large to ever fit");
        let shared = cache.insert(key(&r), &content(&r), C, "artifact".into());
        assert_eq!(*shared, "artifact");
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.counters().evictions, 0);
        assert!(cache.get(&key(&small), &small, &C).is_some());
    }

    #[test]
    fn clear_resets_occupancy_but_not_eviction_counters() {
        let cache = bounded(1);
        for s in ["p", "q", "r"] {
            let r = req(s);
            cache.insert(key(&r), &content(&r), C, s.to_uppercase());
        }
        let evicted = cache.counters().evictions;
        assert_eq!(evicted, 2);
        cache.clear();
        let counters = cache.counters();
        assert_eq!((counters.entries, counters.bytes), (0, 0));
        assert_eq!(counters.evictions, evicted);
    }

    #[test]
    fn single_shard_configuration_still_works() {
        let cache: ArtifactCache<String> = ArtifactCache::with_config(
            CacheConfig {
                shards: 1,
                max_entries: Some(8),
                max_bytes: None,
            },
            Box::new(|_| 0),
        );
        for k in 0..32 {
            let r = req(&format!("src{k}"));
            cache.insert(key(&r), &content(&r), C, format!("A{k}"));
        }
        assert_eq!(cache.len(), 8);
        assert_eq!(cache.counters().evictions, 24);
        // The 8 most recent survive.
        for k in 24..32 {
            let r = req(&format!("src{k}"));
            assert!(cache.get(&key(&r), &r, &C).is_some(), "{k}");
        }
    }
}
