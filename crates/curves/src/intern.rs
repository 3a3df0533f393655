//! Hash-consing interner: canonical curves → copyable [`CurveId`]s.
//!
//! The analysis layers pass the *same* handful of curves through
//! `conv`/`deconv`/`hdev` thousands of times (fixed-point passes,
//! coordinate descent, repeated admission ops). Structural cache keys
//! made that memoizable but not cheap: every key cloned every segment
//! of every operand, and every key comparison re-walked them. The
//! interner removes both costs: [`intern`] canonicalizes a [`Curve`]
//! into a global append-only arena and returns a 4-byte [`CurveId`],
//! with the guarantee
//!
//! > `intern(a) == intern(b)` ⇔ `a == b` (structural) ⇔ `a == b`
//! > (as functions, because canonical representations are unique).
//!
//! So id equality *is* curve equality, [`crate::cache::CacheKey`]
//! collapses to a few id words, and the shape classification of
//! [`crate::shape`] is computed once per distinct curve ([`shape`])
//! instead of once per operation.
//!
//! **Id stability and store lifetime.** The arena is append-only and
//! process-global: a [`CurveId`] stays valid (and keeps resolving to
//! the same curve) for the lifetime of the process. Unlike
//! [`crate::cache::CurveCache`], the store never evicts — its size is
//! bounded by the number of *distinct* curves the process ever
//! constructs, which the workloads here keep small (caches churn
//! through keys; the store only grows on genuinely new curves). The
//! trade-off is deliberate: eviction would invalidate outstanding ids
//! or force generation counters onto the hot path (DESIGN §18).
//!
//! Feature compatibility: the store is plain `RwLock` + `HashMap` state
//! with no thread-locals, so threads running independent analyses share it;
//! `telemetry` counters (`intern.hit` / `intern.miss`) are no-ops when
//! the feature is off, and `debug-invariants` sees every stored curve
//! because only canonical [`Curve`] values (already checked by their
//! constructors) are interned.

use crate::shape::{self, ShapeInfo};
use crate::Curve;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock, RwLock};

/// A copyable handle to one interned curve. Equality, hashing, and
/// ordering are O(1) on the id word and agree with structural curve
/// equality (ids are only minted by [`intern`], one per distinct
/// canonical curve).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CurveId(u32);

impl CurveId {
    /// The raw arena index (for cache-key words and diagnostics).
    #[inline]
    pub fn index(self) -> u32 {
        self.0
    }
}

struct Entry {
    curve: Arc<Curve>,
    shape: OnceLock<ShapeInfo>,
}

struct Inner {
    /// Structural curve → arena index. Keys are the same `Arc`s the
    /// arena holds, so each distinct curve is stored once.
    ids: HashMap<Arc<Curve>, u32>,
    arena: Vec<Entry>,
}

static STORE: OnceLock<RwLock<Inner>> = OnceLock::new();

fn store() -> &'static RwLock<Inner> {
    STORE.get_or_init(|| {
        RwLock::new(Inner {
            ids: HashMap::new(),
            arena: Vec::new(),
        })
    })
}

/// Intern a curve: return the id of the arena entry structurally equal
/// to `c`, creating one on first sight. No shape precondition —
/// concave, convex, or neither, any canonical-form curve interns.
/// Thread-safe; the common case is one read-locked hash lookup.
pub fn intern(c: &Curve) -> CurveId {
    let lock = store();
    {
        // A poisoned lock only means another thread panicked while
        // appending an unrelated entry; the map/arena are still
        // consistent (insertions happen map-last, see below).
        let inner = lock.read().unwrap_or_else(|p| p.into_inner());
        if let Some(&id) = inner.ids.get(c) {
            dnc_telemetry::counter("intern.hit", 1);
            return CurveId(id);
        }
    }
    let mut inner = lock.write().unwrap_or_else(|p| p.into_inner());
    if let Some(&id) = inner.ids.get(c) {
        dnc_telemetry::counter("intern.hit", 1);
        return CurveId(id);
    }
    assert!(
        inner.arena.len() < u32::MAX as usize,
        "curve interner: arena exhausted"
    );
    let id = inner.arena.len() as u32;
    let arc = Arc::new(c.clone());
    inner.arena.push(Entry {
        curve: Arc::clone(&arc),
        shape: OnceLock::new(),
    });
    inner.ids.insert(arc, id);
    dnc_telemetry::counter("intern.miss", 1);
    CurveId(id)
}

/// Resolve an id back to its curve (a shared handle — cloning the
/// `Arc` is two atomic ops, not a segment copy). The curve comes back
/// exactly as interned: canonical form and shape (concave/convex
/// classification) are preserved bit-for-bit.
pub fn resolve(id: CurveId) -> Arc<Curve> {
    let inner = store().read().unwrap_or_else(|p| p.into_inner());
    Arc::clone(&inner.arena[id.0 as usize].curve) // audit: allow(index, ids are only minted by intern and the arena is append-only)
}

/// The memoized [`shape::classify`] of an interned curve: computed on
/// first request, a `Copy` read afterwards.
pub fn shape_of(id: CurveId) -> ShapeInfo {
    let inner = store().read().unwrap_or_else(|p| p.into_inner());
    let entry = &inner.arena[id.0 as usize]; // audit: allow(index, ids are only minted by intern and the arena is append-only)
    *entry.shape.get_or_init(|| shape::classify(&entry.curve))
}

/// Number of distinct curves interned so far (diagnostics/tests).
pub fn store_len() -> usize {
    store()
        .read()
        .unwrap_or_else(|p| p.into_inner())
        .arena
        .len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnc_num::{int, rat};

    #[test]
    fn interning_is_injective_on_structure() {
        let a = Curve::token_bucket(int(2), rat(1, 4));
        let b = Curve::token_bucket(int(2), rat(1, 4));
        let c = Curve::token_bucket(int(3), rat(1, 4));
        assert_eq!(intern(&a), intern(&b));
        assert_ne!(intern(&a), intern(&c));
        assert_eq!(*resolve(intern(&a)), a);
        assert_eq!(*resolve(intern(&c)), c);
    }

    #[test]
    fn equal_functions_get_equal_ids() {
        // Same function, different construction routes: canonical form
        // makes them structurally equal, so the ids coincide.
        let direct = Curve::rate(int(2));
        let collinear = Curve::from_points(vec![(int(0), int(0)), (int(1), int(2))], int(2));
        assert_eq!(direct, collinear);
        assert_eq!(intern(&direct), intern(&collinear));
    }

    #[test]
    fn shape_is_memoized_per_id() {
        let c = Curve::token_bucket(int(5), int(1));
        let id = intern(&c);
        let s1 = shape_of(id);
        let s2 = shape_of(id);
        assert_eq!(s1, s2);
        assert!(s1.is_concave() && s1.is_convex() && s1.is_nondecreasing());
    }

    #[test]
    fn concurrent_interning_agrees() {
        let curves: Vec<Curve> = (0..8)
            .map(|i| Curve::token_bucket(int(100 + i), int(1)))
            .collect();
        let ids: Vec<Vec<CurveId>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| curves.iter().map(intern).collect::<Vec<_>>()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for other in &ids[1..] {
            assert_eq!(&ids[0], other);
        }
    }
}
