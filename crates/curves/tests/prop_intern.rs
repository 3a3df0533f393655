//! Property tests for the curve kernel: the hash-consing interner, the
//! convolution and deviation fast paths, and the LRU memo table.
//!
//! Three claims, each load-bearing for the kernel's soundness story
//! (DESIGN.md §18):
//!
//! 1. **Interning is semantics-preserving**: `intern` is injective on
//!    canonical structure, so id equality *is* curve equality and
//!    `resolve` round-trips bit-identically.
//! 2. **Fast paths are Rat-exact**: every kernel path (the
//!    rate-latency convolutions, the convex-run decomposition, the
//!    one-pass horizontal deviation) agrees exactly — not approximately —
//!    with the always-general `*_envelope` computation, on random
//!    operands of every shape (convex, concave, neither, `f(0) > 0`, FIFO
//!    family members), errors included. Together with memoization purity
//!    this is what makes the kernel's answers bit-identical to the
//!    general path's (which `debug-invariants` also asserts on every
//!    call).
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

/// Random nondecreasing curve: `f(0)` zero or positive, then one to five
/// bounded pieces and a tail of free non-negative slopes, so convex,
/// concave and mixed shapes all occur.
fn arb_nondecreasing() -> impl Strategy<Value = Curve> {
    (
        proptest::bool::ANY,
        arb_pos(),
        proptest::collection::vec((arb_pos(), arb_nonneg()), 1..6),
        arb_nonneg(),
    )
        .prop_map(|(lifted, at_zero, pieces, tail)| {
            let mut pts = vec![(Rat::ZERO, if lifted { at_zero } else { Rat::ZERO })];
            let (mut x, mut y) = pts[0];
            for (len, slope) in pieces {
                x += len;
                y += slope * len;
                pts.push((x, y));
            }
            Curve::from_points(pts, tail)
        })
}

/// A nondecreasing curve that is neither convex nor concave.
fn arb_mixed() -> impl Strategy<Value = Curve> {
    arb_nondecreasing().prop_filter("neither convex nor concave", |c| {
        !c.is_convex() && !c.is_concave()
    })
}

/// The member `[C·t − α(t − θ)]⁺` of the FIFO service-curve family, built
/// as `dnc_core::fifo_family::family_curve` builds it: the indicator
/// `1_{t > θ}` capped by a steep ramp, monotonized by `future_min`.
fn family_member(rate: Rat, cross: &Curve, theta: Rat) -> Curve {
    let base = Curve::rate(rate).sub(&cross.shift_right_hold(theta));
    let k = (rate + cross.final_slope() + Rat::ONE) * Rat::from(1i64 << 20);
    base.min(&Curve::rate_latency(k, theta)).pos().future_min()
}

/// A family member for a random cross aggregate, a link rate above the
/// aggregate's, and θ = 0 or θ > 0.
fn arb_family_member() -> impl Strategy<Value = Curve> {
    (
        arb_one_pass_alpha(),
        arb_pos(),
        proptest::bool::ANY,
        arb_pos(),
    )
        .prop_map(|(cross, excess, at_zero, theta)| {
            let theta = if at_zero { Rat::ZERO } else { theta };
            family_member(cross.final_slope() + excess, &cross, theta)
        })
}

/// A nondecreasing `f` against `β_{R,T}` with T = 0 or T > 0 and R = 0
/// (the zero curve), below every slope of `f`, above every slope of `f`,
/// or free.
fn arb_rate_latency_pair() -> impl Strategy<Value = (Curve, Curve)> {
    (
        arb_nondecreasing(),
        arb_pos(),
        arb_nonneg(),
        proptest::bool::ANY,
        0u8..4,
    )
        .prop_map(|(f, r, t, no_latency, rate_kind)| {
            let slopes = f.slopes();
            let r = match rate_kind {
                0 => Rat::ZERO,
                1 => slopes.iter().copied().min().unwrap_or(r) / Rat::TWO,
                2 => slopes.iter().copied().max().unwrap_or(r) + r,
                _ => r,
            };
            let t = if no_latency { Rat::ZERO } else { t };
            (f, Curve::rate_latency(r, t))
        })
}

/// The two named shapes: token buckets and rate-latency curves.
fn arb_token_bucket() -> impl Strategy<Value = Curve> {
    (arb_nonneg(), arb_nonneg()).prop_map(|(sigma, rho)| Curve::token_bucket(sigma, rho))
}

fn arb_rate_latency() -> impl Strategy<Value = Curve> {
    (arb_pos(), arb_nonneg()).prop_map(|(r, t)| Curve::rate_latency(r, t))
}

/// The arrival curves of the one-pass class: sums of 1–6 peak-capped
/// token buckets (α(0) = 0), `multi_token_bucket` hulls (α(0) > 0) and
/// α ≡ 0.
fn arb_one_pass_alpha() -> impl Strategy<Value = Curve> {
    let capped_sum = proptest::collection::vec((arb_nonneg(), arb_nonneg(), arb_pos()), 1..7)
        .prop_map(|buckets| {
            let capped: Vec<Curve> = buckets
                .into_iter()
                .map(|(sigma, rho, excess)| Curve::token_bucket_peak(sigma, rho, rho + excess))
                .collect();
            Curve::sum(capped.iter())
        });
    (0u8..3, capped_sum, arb_concave()).prop_map(|(kind, capped_sum, hull)| match kind {
        0 => capped_sum,
        1 => hull,
        _ => Curve::zero(),
    })
}

/// Operand pairs for the one-pass: α from [`arb_one_pass_alpha`] against
/// a rate-latency β with T = 0 or T > 0 and a rate R drawn freely (so
/// ρ > R, the unstable case, occurs), set to α's tail rate, or set above
/// α's initial slope (so the supremum is the limit t → 0⁺, which is T
/// when α(0) = 0).
fn arb_one_pass_pair() -> impl Strategy<Value = (Curve, Curve)> {
    (
        arb_one_pass_alpha(),
        arb_rate_latency(),
        proptest::bool::ANY,
        0u8..3,
    )
        .prop_map(|(alpha, beta, no_latency, rate_kind)| {
            let (points, r) = (beta.points(), beta.final_slope());
            let t = if no_latency {
                Rat::ZERO
            } else {
                points.last().map_or(Rat::ZERO, |p| p.0)
            };
            let rho = alpha.final_slope();
            let r = match rate_kind {
                1 if rho.is_positive() => rho,
                2 => alpha.slopes().first().copied().unwrap_or(rho) + r,
                _ => r,
            };
            (alpha, Curve::rate_latency(r, t))
        })
}

/// Kernel and envelope give the same bound or the same error text.
fn same_answer(
    kernel: Result<Rat, dnc_curves::CurveError>,
    general: Result<Rat, dnc_curves::CurveError>,
) -> Result<(), TestCaseError> {
    match (kernel, general) {
        (Ok(k), Ok(g)) => prop_assert_eq!(k, g),
        (Err(k), Err(g)) => prop_assert_eq!(k.to_string(), g.to_string()),
        (k, g) => prop_assert!(false, "kernel {k:?} vs envelope {g:?}"),
    }
    Ok(())
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
            prop_assert_eq!(direct.is_concave(), memoized.is_concave());
            prop_assert_eq!(direct.is_convex(), memoized.is_convex());
            prop_assert_eq!(direct.is_nondecreasing(), memoized.is_nondecreasing());
        }
    }

    // ---- 2. kernel paths are Rat-exact vs the general envelopes ------

    #[test]
    fn conv_kernel_is_exact_on_shaped_pairs(f in arb_token_bucket(), g in arb_token_bucket()) {
        prop_assert_eq!(minplus::conv(&f, &g), minplus::conv_envelope(&f, &g));
    }

    #[test]
    fn conv_kernel_is_exact_on_general_pairs(
        f in arb_concave(),
        g in arb_convex(),
        m in arb_mixed(),
        n in arb_nondecreasing(),
    ) {
        for (a, b) in [(&f, &g), (&f, &f), (&g, &g), (&m, &n), (&m, &f), (&m, &g), (&n, &n)] {
            prop_assert_eq!(minplus::conv(a, b), minplus::conv_envelope(a, b), "{} ⊗ {}", a, b);
            prop_assert_eq!(minplus::conv(b, a), minplus::conv_envelope(b, a), "{} ⊗ {}", b, a);
        }
    }

    #[test]
    fn conv_kernel_is_exact_on_family_members(
        a in arb_family_member(),
        b in arb_family_member(),
        c in arb_family_member(),
    ) {
        let ab = minplus::conv(&a, &b);
        prop_assert_eq!(&ab, &minplus::conv_envelope(&a, &b), "{} ⊗ {}", a, b);
        prop_assert_eq!(minplus::conv(&ab, &c), minplus::conv_envelope(&ab, &c), "{} ⊗ {}", ab, c);
        prop_assert_eq!(minplus::conv(&c, &ab), minplus::conv(&ab, &c));
    }

    #[test]
    fn rl_conv_closed_form_is_exact(
        f in arb_rate_latency(),
        g in arb_rate_latency(),
        (h, beta) in arb_rate_latency_pair(),
    ) {
        prop_assert_eq!(minplus::conv(&f, &g), minplus::conv_envelope(&f, &g));
        prop_assert_eq!(minplus::conv(&h, &beta), minplus::conv_envelope(&h, &beta), "{} ⊗ {}", h, beta);
        prop_assert_eq!(minplus::conv(&beta, &h), minplus::conv_envelope(&beta, &h), "{} ⊗ {}", beta, h);
    }

    #[test]
    fn hdev_kernel_is_exact((a, b) in arb_one_pass_pair()) {
        same_answer(bounds::hdev(&a, &b), bounds::hdev_envelope(&a, &b))?;
    }

    #[test]
    fn hdev_general_kernel_is_exact(
        (a, b) in arb_one_pass_pair(),
        c in arb_concave(),
        d in arb_convex(),
    ) {
        same_answer(bounds::hdev_general(&a, &b), bounds::hdev_general_envelope(&a, &b))?;
        same_answer(bounds::hdev_general(&c, &d), bounds::hdev_general_envelope(&c, &d))?;
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
            let key = CacheKey::new("prop.lru").rat(rat(k as i128, 1));
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
            let key = CacheKey::new("prop.lru").rat(rat(k as i128, 1));
            prop_assert_eq!(cache.peek(&key), Some(v), "model entry {k} missing");
        }
    }
}
