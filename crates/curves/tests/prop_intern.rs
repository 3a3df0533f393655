//! Property tests for the curve kernel: the hash-consing interner, the
//! shape-specialized closed forms, and the LRU memo table.
//!
//! Three claims, each load-bearing for the kernel's soundness story
//! (DESIGN.md §18):
//!
//! 1. **Interning is semantics-preserving**: `intern` is injective on
//!    canonical structure, so id equality *is* curve equality and
//!    `resolve` round-trips bit-identically.
//! 2. **Closed forms are Rat-exact**: every shape-specialized fast path
//!    agrees exactly — not approximately — with the always-general
//!    `*_envelope` computation, on random shaped operands. Together
//!    with memoization purity this is what makes the kernel's answers
//!    bit-identical to the general path's (which `debug-invariants`
//!    also asserts on every call).
//! 3. **The LRU cache matches a reference model**: contents and
//!    eviction order track an executable brute-force LRU under random
//!    op sequences.

use dnc_curves::cache::{CacheKey, CurveCache};
use dnc_curves::{bounds, intern, minplus, shape, Curve};
use dnc_num::{rat, Rat};
use proptest::prelude::*;

/// Small positive rational with denominator up to 8.
fn arb_pos() -> impl Strategy<Value = Rat> {
    (1i128..40, 1i128..8).prop_map(|(n, d)| rat(n, d))
}

/// Non-negative rational.
fn arb_nonneg() -> impl Strategy<Value = Rat> {
    (0i128..40, 1i128..8).prop_map(|(n, d)| rat(n, d))
}

/// Random concave nondecreasing arrival-like curve.
fn arb_concave() -> impl Strategy<Value = Curve> {
    proptest::collection::vec((arb_nonneg(), arb_nonneg()), 1..4)
        .prop_map(|buckets| Curve::multi_token_bucket(&buckets))
}

/// Random convex nondecreasing service-like curve.
fn arb_convex() -> impl Strategy<Value = Curve> {
    proptest::collection::vec((arb_pos(), arb_nonneg()), 1..4).prop_map(|rls| {
        let curves: Vec<Curve> = rls
            .into_iter()
            .map(|(r, t)| Curve::rate_latency(r, t))
            .collect();
        minplus::conv_all(curves.iter())
    })
}

/// Exactly the shapes the closed forms specialize on.
fn arb_token_bucket() -> impl Strategy<Value = Curve> {
    (arb_nonneg(), arb_nonneg()).prop_map(|(sigma, rho)| Curve::token_bucket(sigma, rho))
}

fn arb_rate_latency() -> impl Strategy<Value = Curve> {
    (arb_pos(), arb_nonneg()).prop_map(|(r, t)| Curve::rate_latency(r, t))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---- 1. interning is semantics-preserving ------------------------

    #[test]
    fn intern_round_trips_and_is_injective(f in arb_concave(), g in arb_convex()) {
        let fid = intern::intern(&f);
        let gid = intern::intern(&g);
        prop_assert_eq!(&*intern::resolve(fid), &f, "resolve must round-trip");
        prop_assert_eq!(&*intern::resolve(gid), &g, "resolve must round-trip");
        prop_assert_eq!(intern::intern(&f.clone()), fid, "re-interning is stable");
        prop_assert_eq!(fid == gid, f == g, "id equality iff curve equality");
    }

    #[test]
    fn interned_shape_matches_direct_classification(f in arb_token_bucket(), g in arb_rate_latency()) {
        for c in [&f, &g] {
            let direct = shape::classify(c);
            let memoized = intern::shape_of(intern::intern(c));
            prop_assert_eq!(direct.as_token_bucket(), memoized.as_token_bucket());
            prop_assert_eq!(direct.as_rate_latency(), memoized.as_rate_latency());
            prop_assert_eq!(direct.is_concave(), memoized.is_concave());
            prop_assert_eq!(direct.is_convex(), memoized.is_convex());
            prop_assert_eq!(direct.is_nondecreasing(), memoized.is_nondecreasing());
            prop_assert_eq!(direct.is_zero(), memoized.is_zero());
        }
    }

    // ---- 2. kernel paths are Rat-exact vs the general envelopes ------

    #[test]
    fn conv_kernel_is_exact_on_shaped_pairs(f in arb_token_bucket(), g in arb_token_bucket()) {
        prop_assert_eq!(minplus::conv(&f, &g), minplus::conv_envelope(&f, &g));
    }

    #[test]
    fn conv_kernel_is_exact_on_general_pairs(f in arb_concave(), g in arb_convex()) {
        prop_assert_eq!(minplus::conv(&f, &g), minplus::conv_envelope(&f, &g));
        prop_assert_eq!(minplus::conv(&g, &f), minplus::conv_envelope(&g, &f));
    }

    #[test]
    fn rl_conv_closed_form_is_exact(f in arb_rate_latency(), g in arb_rate_latency()) {
        prop_assert_eq!(minplus::conv(&f, &g), minplus::conv_envelope(&f, &g));
    }

    #[test]
    fn hdev_kernel_is_exact(a in arb_token_bucket(), b in arb_rate_latency()) {
        let kernel = bounds::hdev(&a, &b);
        let general = bounds::hdev_envelope(&a, &b);
        match (kernel, general) {
            (Ok(k), Ok(g)) => prop_assert_eq!(k, g),
            (Err(k), Err(g)) => prop_assert_eq!(k.to_string(), g.to_string()),
            (k, g) => prop_assert!(false, "kernel {k:?} vs envelope {g:?}"),
        }
    }

    #[test]
    fn hdev_general_kernel_is_exact(a in arb_concave(), b in arb_convex()) {
        let kernel = bounds::hdev_general(&a, &b);
        let general = bounds::hdev_general_envelope(&a, &b);
        match (kernel, general) {
            (Ok(k), Ok(g)) => prop_assert_eq!(k, g),
            (Err(k), Err(g)) => prop_assert_eq!(k.to_string(), g.to_string()),
            (k, g) => prop_assert!(false, "kernel {k:?} vs envelope {g:?}"),
        }
    }

    // ---- 3. the LRU cache matches a reference model ------------------

    #[test]
    fn lru_matches_reference_model(
        capacity in 1usize..6,
        ops in proptest::collection::vec((0u64..12, proptest::bool::ANY), 1..80),
    ) {
        let cache: CurveCache<u64> = CurveCache::new(capacity);
        // Reference: most-recent first, at most `capacity` pairs.
        let mut model: Vec<(u64, u64)> = Vec::new();
        for (k, is_insert) in ops {
            let key = CacheKey::new("prop.lru").word(k);
            if is_insert {
                cache.insert(key, k * 100);
                if let Some(pos) = model.iter().position(|&(mk, _)| mk == k) {
                    model.remove(pos);
                }
                model.insert(0, (k, k * 100));
                while model.len() > capacity {
                    model.pop();
                }
            } else {
                let got = cache.lookup(&key);
                let want = model.iter().position(|&(mk, _)| mk == k);
                match (got, want) {
                    (Some(v), Some(pos)) => {
                        prop_assert_eq!(v, model[pos].1);
                        let entry = model.remove(pos);
                        model.insert(0, entry);
                    }
                    (None, None) => {}
                    (got, want) => prop_assert!(
                        false,
                        "lookup({k}) = {got:?} but model says {want:?}"
                    ),
                }
            }
        }
        prop_assert_eq!(cache.len(), model.len());
        for (k, v) in model {
            let key = CacheKey::new("prop.lru").word(k);
            prop_assert_eq!(cache.peek(&key), Some(v), "model entry {k} missing");
        }
    }
}
