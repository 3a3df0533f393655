//! Content-addressed memoization for exact curve computations.
//!
//! The curve algebra is **pure and exact**: every operation is a
//! deterministic function of its operand curves and rational parameters,
//! and [`Curve`]'s canonical form makes structural equality coincide with
//! functional equality. That combination is what makes memoization sound
//! here — a cache hit returns a value that is bit-identical to what the
//! recomputation would produce, so cached and uncached runs of an
//! analysis cannot differ (DESIGN.md §13, §18).
//!
//! Keys are **full structural keys** ([`CacheKey`]), never bare hashes:
//! a 64-bit fingerprint collision would silently return a wrong bound,
//! which this workspace never accepts in exchange for speed. Curve
//! operands are recorded as hash-consed [`CurveId`]s from
//! [`crate::intern`] — id equality is curve equality (the interner is
//! injective on canonical structure), so the key stays a real structural
//! key while comparing and hashing in O(1) per operand instead of
//! re-walking every segment.
//!
//! [`CurveCache`] is a thread-safe memo table with telemetry `cache.hit`
//! / `cache.miss` counters (surfaced by `dnc profile`) and **true LRU
//! eviction**: an intrusive doubly-linked recency list threaded through
//! the slot slab, evicting exactly one least-recently-used entry per
//! overflowing insert (counted under `cache.evictions`). The previous
//! whole-table drop made every record in `BENCH_throughput.json`
//! report `cache.hit_rate = 0` under churny workloads — one cold key
//! past capacity threw away every warm entry. The linked-list
//! bookkeeping is two index writes per touch, far cheaper than one
//! wholesale re-warm.
//!
//! Every memoized computation has exactly one table: a process-global
//! `CurveCache` declared beside the function it memoizes, consulted by
//! every call path (DESIGN.md §13.1). No cache is passed around.

use crate::intern::{self, CurveId};
use crate::Curve;
use dnc_num::Rat;
use std::collections::HashMap;
use std::sync::Mutex;

/// A structural cache key: an operation tag plus every input the
/// computation reads. Build one with the fluent helpers, listing inputs
/// in a fixed order per tag:
///
/// ```
/// use dnc_curves::cache::CacheKey;
/// use dnc_curves::Curve;
/// use dnc_num::{int, rat};
///
/// let g = Curve::token_bucket(int(2), rat(1, 4));
/// let key = CacheKey::new("local_delay").curve(&g).rat(int(1));
/// assert_eq!(key, CacheKey::new("local_delay").curve(&g).rat(int(1)));
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    tag: &'static str,
    curves: Vec<CurveId>,
    rats: Vec<Rat>,
}

impl CacheKey {
    /// Start a key for the operation named `tag`.
    pub fn new(tag: &'static str) -> CacheKey {
        CacheKey {
            tag,
            curves: Vec::new(),
            rats: Vec::new(),
        }
    }

    /// Append one operand curve (interned: the key records its
    /// [`CurveId`], whose equality is structural curve equality). Any
    /// shape is accepted — no concave, convex, or monotone precondition.
    pub fn curve(mut self, c: &Curve) -> CacheKey {
        self.curves.push(intern::intern(c));
        self
    }

    /// Append an already-interned operand curve.
    pub fn curve_id(mut self, id: CurveId) -> CacheKey {
        self.curves.push(id);
        self
    }

    /// Append one rational parameter.
    pub fn rat(mut self, r: Rat) -> CacheKey {
        self.rats.push(r);
        self
    }

    /// Append a sequence of rational parameters (order-sensitive).
    pub fn rat_seq<I: IntoIterator<Item = Rat>>(mut self, rs: I) -> CacheKey {
        self.rats.extend(rs);
        self
    }
}

/// Slot-index sentinel for "no neighbour" in the recency list.
const NIL: usize = usize::MAX;

struct Slot<V> {
    key: CacheKey,
    value: V,
    /// Towards more recently used (NIL at the head).
    prev: usize,
    /// Towards less recently used (NIL at the tail).
    next: usize,
}

struct Lru<V> {
    map: HashMap<CacheKey, usize>,
    slots: Vec<Option<Slot<V>>>,
    free: Vec<usize>,
    /// Most recently used slot, NIL when empty.
    head: usize,
    /// Least recently used slot, NIL when empty.
    tail: usize,
}

impl<V> Lru<V> {
    fn new() -> Lru<V> {
        Lru {
            map: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    fn slot(&mut self, idx: usize) -> &mut Slot<V> {
        match self.slots.get_mut(idx) {
            Some(Some(s)) => s,
            _ => unreachable!("lru: dangling slot index"), // audit: allow(panic, map and recency list only reference occupied slots)
        }
    }

    /// Unlink `idx` from the recency list.
    fn detach(&mut self, idx: usize) {
        let (prev, next) = {
            let s = self.slot(idx);
            (s.prev, s.next)
        };
        if prev == NIL {
            self.head = next;
        } else {
            self.slot(prev).next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slot(next).prev = prev;
        }
    }

    /// Link `idx` as the most-recently-used entry.
    fn push_front(&mut self, idx: usize) {
        let old_head = self.head;
        {
            let s = self.slot(idx);
            s.prev = NIL;
            s.next = old_head;
        }
        if old_head != NIL {
            self.slot(old_head).prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Remove the least-recently-used entry. Returns `false` when empty.
    fn evict_tail(&mut self) -> bool {
        let idx = self.tail;
        if idx == NIL {
            return false;
        }
        self.detach(idx);
        if let Some(slot) = self.slots.get_mut(idx).and_then(Option::take) {
            self.map.remove(&slot.key);
        }
        self.free.push(idx);
        true
    }

    fn insert_front(&mut self, key: CacheKey, value: V) {
        let slot = Some(Slot {
            key: key.clone(),
            value,
            prev: NIL,
            next: NIL,
        });
        let idx = match self
            .free
            .pop()
            .and_then(|i| self.slots.get_mut(i).map(|s| (i, s)))
        {
            Some((i, reuse)) => {
                *reuse = slot;
                i
            }
            None => {
                self.slots.push(slot);
                self.slots.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.push_front(idx);
    }
}

/// A thread-safe memo table from [`CacheKey`] to a cloneable value.
///
/// Lookups record `cache.hit` / `cache.miss` telemetry counters and
/// refresh the entry's recency. When an insert would push the table past
/// its capacity, the **least recently used** entry — and only it — is
/// evicted first (one `cache.evictions` count per evicted entry).
#[derive(Debug)]
pub struct CurveCache<V> {
    inner: Mutex<LruBox<V>>,
    capacity: usize,
}

/// Newtype so the `Mutex` debug output stays readable.
struct LruBox<V>(Lru<V>);

impl<V> std::fmt::Debug for LruBox<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Lru(len={})", self.0.map.len())
    }
}

/// Default capacity: plenty for every topology in the test suite and the
/// benchmark harness while bounding memory on adversarial inputs.
pub const DEFAULT_CAPACITY: usize = 8192;

impl<V> Default for CurveCache<V> {
    fn default() -> Self {
        CurveCache::new(DEFAULT_CAPACITY)
    }
}

impl<V> CurveCache<V> {
    /// An empty cache with per-entry LRU eviction at `capacity` entries.
    pub fn new(capacity: usize) -> CurveCache<V> {
        CurveCache {
            inner: Mutex::new(LruBox(Lru::new())),
            capacity: capacity.max(1),
        }
    }

    fn locked(&self) -> std::sync::MutexGuard<'_, LruBox<V>> {
        // A poisoned table only means another thread panicked mid-insert
        // of an unrelated entry; every stored value is still a completed,
        // exact result.
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Number of memoized entries.
    pub fn len(&self) -> usize {
        self.locked().0.map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.locked().0.map.is_empty()
    }
}

impl<V: Clone> CurveCache<V> {
    /// Look `key` up, recording a hit or miss counter and refreshing the
    /// entry's recency on a hit.
    pub fn lookup(&self, key: &CacheKey) -> Option<V> {
        let mut g = self.locked();
        let lru = &mut g.0;
        match lru.map.get(key).copied() {
            Some(idx) => {
                lru.detach(idx);
                lru.push_front(idx);
                let v = lru.slot(idx).value.clone();
                drop(g);
                dnc_telemetry::counter("cache.hit", 1);
                Some(v)
            }
            None => {
                drop(g);
                dnc_telemetry::counter("cache.miss", 1);
                None
            }
        }
    }

    /// Non-mutating probe: the value for `key` without touching recency
    /// or the hit/miss counters (diagnostics and the LRU model tests).
    pub fn peek(&self, key: &CacheKey) -> Option<V> {
        let mut g = self.locked();
        let lru = &mut g.0;
        lru.map
            .get(key)
            .copied()
            .map(|idx| lru.slot(idx).value.clone())
    }

    /// Insert a computed value as the most-recent entry, evicting the
    /// single least-recently-used entry if the table is full.
    pub fn insert(&self, key: CacheKey, value: V) {
        let mut g = self.locked();
        let lru = &mut g.0;
        if let Some(idx) = lru.map.get(&key).copied() {
            // Same key recomputed (two threads racing the same miss):
            // refresh value and recency; both values are bit-identical
            // by purity, so either is correct.
            lru.detach(idx);
            lru.slot(idx).value = value;
            lru.push_front(idx);
            return;
        }
        let mut evicted = 0u64;
        while lru.map.len() >= self.capacity {
            if !lru.evict_tail() {
                break;
            }
            evicted += 1;
        }
        lru.insert_front(key, value);
        drop(g);
        if evicted > 0 {
            dnc_telemetry::counter("cache.evictions", evicted);
        }
    }

    /// Memoize an infallible computation.
    pub fn get_or_insert_with(&self, key: CacheKey, compute: impl FnOnce() -> V) -> V {
        if let Some(v) = self.lookup(&key) {
            return v;
        }
        let v = compute();
        self.insert(key, v.clone());
        v
    }

    /// Memoize a fallible computation: return the cached value for `key`
    /// or run `compute`, caching only the `Ok` result (errors are
    /// recomputed — they are rare and carry context that should stay
    /// fresh).
    pub fn get_or_try_insert_with<E>(
        &self,
        key: CacheKey,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<V, E> {
        if let Some(v) = self.lookup(&key) {
            return Ok(v);
        }
        let v = compute()?;
        self.insert(key, v.clone());
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnc_num::{int, rat};

    #[test]
    fn keys_are_structural_not_hashed() {
        let a = CacheKey::new("op")
            .curve(&Curve::token_bucket(int(2), rat(1, 4)))
            .rat(int(1));
        let b = CacheKey::new("op")
            .curve(&Curve::token_bucket(int(2), rat(1, 4)))
            .rat(int(1));
        let c = CacheKey::new("op")
            .curve(&Curve::token_bucket(int(3), rat(1, 4)))
            .rat(int(1));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, b.clone().rat(int(0)), "extra input distinguishes keys");
    }

    #[test]
    fn interned_key_equals_curve_key() {
        let g = Curve::token_bucket(int(2), rat(1, 4));
        let id = crate::intern::intern(&g);
        assert_eq!(
            CacheKey::new("op").curve(&g),
            CacheKey::new("op").curve_id(id)
        );
    }

    #[test]
    fn memoizes_and_returns_identical_values() {
        let cache: CurveCache<Rat> = CurveCache::default();
        let key = || CacheKey::new("sum").rat(int(2)).rat(int(3));
        let mut calls = 0;
        let v1: Result<Rat, ()> = cache.get_or_try_insert_with(key(), || {
            calls += 1;
            Ok(int(5))
        });
        let v2: Result<Rat, ()> = cache.get_or_try_insert_with(key(), || {
            calls += 1;
            Ok(int(99))
        });
        assert_eq!(v1, Ok(int(5)));
        assert_eq!(v2, Ok(int(5)), "hit must return the first computation");
        assert_eq!(calls, 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn errors_are_not_cached() {
        let cache: CurveCache<Rat> = CurveCache::default();
        let key = || CacheKey::new("fail");
        let r: Result<Rat, &str> = cache.get_or_try_insert_with(key(), || Err("boom"));
        assert!(r.is_err());
        assert!(cache.is_empty());
        let r: Result<Rat, &str> = cache.get_or_try_insert_with(key(), || Ok(int(1)));
        assert_eq!(r, Ok(int(1)));
    }

    #[test]
    fn capacity_evicts_least_recently_used_only() {
        let cache: CurveCache<u64> = CurveCache::new(2);
        cache.insert(CacheKey::new("a"), 1);
        cache.insert(CacheKey::new("b"), 2);
        // Touch "a" so "b" becomes the LRU entry.
        assert_eq!(cache.lookup(&CacheKey::new("a")), Some(1));
        cache.insert(CacheKey::new("c"), 3);
        assert_eq!(cache.len(), 2, "exactly one entry evicted");
        assert_eq!(cache.peek(&CacheKey::new("b")), None, "LRU entry gone");
        assert_eq!(cache.peek(&CacheKey::new("a")), Some(1), "warm entry kept");
        assert_eq!(cache.peek(&CacheKey::new("c")), Some(3));
    }

    #[test]
    fn eviction_follows_recency_chain() {
        let cache: CurveCache<u64> = CurveCache::new(3);
        for (k, v) in [("a", 1), ("b", 2), ("c", 3)] {
            cache.insert(CacheKey::new(k).rat(int(0)), v);
        }
        // Recency now c > b > a; touch a and b, then overflow twice.
        cache.lookup(&CacheKey::new("a").rat(int(0)));
        cache.lookup(&CacheKey::new("b").rat(int(0)));
        cache.insert(CacheKey::new("d").rat(int(0)), 4); // evicts c
        cache.insert(CacheKey::new("e").rat(int(0)), 5); // evicts a
        assert_eq!(cache.peek(&CacheKey::new("c").rat(int(0))), None);
        assert_eq!(cache.peek(&CacheKey::new("a").rat(int(0))), None);
        assert_eq!(cache.peek(&CacheKey::new("b").rat(int(0))), Some(2));
        assert_eq!(cache.peek(&CacheKey::new("d").rat(int(0))), Some(4));
        assert_eq!(cache.peek(&CacheKey::new("e").rat(int(0))), Some(5));
    }

    #[test]
    fn reinsert_refreshes_instead_of_duplicating() {
        let cache: CurveCache<u64> = CurveCache::new(2);
        cache.insert(CacheKey::new("a"), 1);
        cache.insert(CacheKey::new("b"), 2);
        cache.insert(CacheKey::new("a"), 1); // refresh, not duplicate
        cache.insert(CacheKey::new("c"), 3); // evicts b (a was refreshed)
        assert_eq!(cache.peek(&CacheKey::new("a")), Some(1));
        assert_eq!(cache.peek(&CacheKey::new("b")), None);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn shared_across_threads() {
        let cache: CurveCache<Rat> = CurveCache::default();
        std::thread::scope(|s| {
            for i in 0..4i64 {
                let cache = &cache;
                s.spawn(move || {
                    let key = CacheKey::new("t").rat(int(i % 2));
                    let _: Result<Rat, ()> = cache.get_or_try_insert_with(key, || Ok(int(i)));
                });
            }
        });
        assert_eq!(cache.len(), 2);
    }
}
