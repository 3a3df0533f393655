//! Property tests for the PWL curve algebra: pointwise ops agree with
//! sampling, min-plus ops agree with their defining inf/sup formulas, and
//! bound extraction is sound.

use dnc_curves::{bounds, minplus, Curve};
use dnc_num::{int, rat, Rat};
use proptest::prelude::*;

/// Small positive rational with denominator up to 8.
fn arb_pos() -> impl Strategy<Value = Rat> {
    (1i128..40, 1i128..8).prop_map(|(n, d)| rat(n, d))
}

/// Non-negative rational.
fn arb_nonneg() -> impl Strategy<Value = Rat> {
    (0i128..40, 1i128..8).prop_map(|(n, d)| rat(n, d))
}

/// Random concave nondecreasing arrival-like curve: a concave hull of 1–3
/// token buckets, optionally peak-capped.
fn arb_concave() -> impl Strategy<Value = Curve> {
    (
        proptest::collection::vec((arb_nonneg(), arb_nonneg()), 1..4),
        proptest::option::of(arb_pos()),
    )
        .prop_map(|(buckets, peak)| {
            let mut c = Curve::multi_token_bucket(&buckets);
            if let Some(p) = peak {
                c = c.min(&Curve::rate(p + c.final_slope()));
            }
            c
        })
}

/// Random convex nondecreasing service-like curve: convolution of 1–3
/// rate-latency curves.
fn arb_convex() -> impl Strategy<Value = Curve> {
    proptest::collection::vec((arb_pos(), arb_nonneg()), 1..4).prop_map(|rls| {
        let curves: Vec<Curve> = rls
            .into_iter()
            .map(|(r, t)| Curve::rate_latency(r, t))
            .collect();
        minplus::conv_all(curves.iter())
    })
}

/// Any curve: 1–5 breakpoints on a half-unit grid (so operands share
/// abscissae), values of either sign, pieces rising or falling, and any
/// final slope — negative, decreasing and non-convex shapes included.
fn arb_any() -> impl Strategy<Value = Curve> {
    (
        proptest::collection::vec((1i128..5, -12i128..12), 0..5),
        -12i128..12,
        -6i128..6,
        1i128..4,
    )
        .prop_map(|(steps, y0, slope, den)| {
            let mut pts = vec![(Rat::ZERO, rat(y0, 2))];
            let mut x = Rat::ZERO;
            for (dx, y) in steps {
                x += rat(dx, 2);
                pts.push((x, rat(y, 2)));
            }
            Curve::from_points(pts, rat(slope, den))
        })
}

/// Where two PWL results must agree for them to be the same function:
/// every breakpoint of `curves`, the midpoint of each gap between them (a
/// missing kink inside a gap shows there), and one unit past the last.
fn exact_xs(curves: &[&Curve]) -> Vec<Rat> {
    let mut xs: Vec<Rat> = curves.iter().flat_map(|c| c.breakpoint_xs()).collect();
    xs.sort();
    xs.dedup();
    let mids: Vec<Rat> = xs.windows(2).map(|w| (w[0] + w[1]) / int(2)).collect();
    let last = *xs.last().unwrap();
    xs.extend(mids);
    xs.push(last + Rat::ONE);
    xs
}

/// `out` is `op` applied pointwise to `f` and `g`, with final slope
/// `slope`, and canonical.
fn check_pointwise(
    f: &Curve,
    g: &Curve,
    out: &Curve,
    op: impl Fn(Rat, Rat) -> Rat,
    slope: Rat,
) -> Result<(), TestCaseError> {
    for t in exact_xs(&[f, g, out]) {
        prop_assert_eq!(
            out.eval(t),
            op(f.eval(t), g.eval(t)),
            "at t={} in {}",
            t,
            out
        );
    }
    prop_assert_eq!(out.final_slope(), slope);
    let canonical = Curve::from_points(out.points().to_vec(), out.final_slope());
    prop_assert_eq!(&canonical, out);
    Ok(())
}

/// Sample points for spot checks.
fn grid(limit: i128) -> Vec<Rat> {
    (0..=limit * 4).map(|n| rat(n, 4)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn add_pointwise(f in arb_concave(), g in arb_convex()) {
        let s = f.add(&g);
        for t in grid(12) {
            prop_assert_eq!(s.eval(t), f.eval(t) + g.eval(t));
        }
    }

    #[test]
    fn min_max_pointwise(f in arb_concave(), g in arb_concave()) {
        let mi = f.min(&g);
        let ma = f.max(&g);
        for t in grid(12) {
            prop_assert_eq!(mi.eval(t), f.eval(t).min(g.eval(t)));
            prop_assert_eq!(ma.eval(t), f.eval(t).max(g.eval(t)));
        }
    }

    #[test]
    fn min_of_concave_is_concave(f in arb_concave(), g in arb_concave()) {
        prop_assert!(f.min(&g).is_concave());
    }

    #[test]
    fn max_of_convex_is_convex(f in arb_convex(), g in arb_convex()) {
        prop_assert!(f.max(&g).is_convex());
    }

    #[test]
    fn sum_of_concave_is_concave(f in arb_concave(), g in arb_concave()) {
        let s = f.add(&g);
        prop_assert!(s.is_concave());
        prop_assert!(s.is_nondecreasing());
    }

    #[test]
    fn shift_left_pointwise(f in arb_concave(), d in arb_nonneg()) {
        let s = f.shift_left(d);
        for t in grid(10) {
            prop_assert_eq!(s.eval(t), f.eval(t + d));
        }
    }

    #[test]
    fn shift_right_hold_pointwise(f in arb_convex(), d in arb_pos()) {
        let s = f.shift_right_hold(d);
        for t in grid(10) {
            let expect = if t <= d { f.eval(int(0)) } else { f.eval(t - d) };
            prop_assert_eq!(s.eval(t), expect);
        }
    }

    #[test]
    fn pseudo_inverse_is_infimum(f in arb_concave(), y in arb_nonneg()) {
        if let Some(t) = f.pseudo_inverse(y) {
            prop_assert!(f.eval(t) >= y);
            // No earlier point reaches y (check a few strictly smaller t).
            let probes = [t * rat(1,2), t * rat(3,4), t * rat(7,8)];
            for p in probes {
                if p < t {
                    prop_assert!(f.eval(p) < y, "f({p}) >= {y} but inverse said {t}");
                }
            }
        }
    }

    #[test]
    fn conv_commutative(f in arb_convex(), g in arb_convex()) {
        prop_assert_eq!(minplus::conv(&f, &g), minplus::conv(&g, &f));
    }

    #[test]
    fn conv_associative(f in arb_convex(), g in arb_convex(), h in arb_convex()) {
        let left = minplus::conv(&minplus::conv(&f, &g), &h);
        let right = minplus::conv(&f, &minplus::conv(&g, &h));
        prop_assert_eq!(left, right);
    }

    #[test]
    fn conv_matches_definition(f in arb_concave(), g in arb_convex()) {
        let c = minplus::conv(&f, &g);
        // The convolution must (a) lower-bound every candidate split and
        // (b) equal the min over the candidate split set at each grid t.
        for t in grid(8) {
            let mut best: Option<Rat> = None;
            // Candidate splits: breakpoints of f, t - breakpoints of g, plus a grid.
            let mut splits: Vec<Rat> = f.breakpoint_xs();
            for u in g.breakpoint_xs() {
                if u <= t {
                    splits.push(t - u);
                }
            }
            for n in 0..=8 {
                splits.push(t * rat(n, 8));
            }
            for s in splits {
                if s.is_negative() || s > t { continue; }
                let v = f.eval(s) + g.eval(t - s);
                best = Some(match best { Some(b) => b.min(v), None => v });
            }
            prop_assert_eq!(c.eval(t), best.unwrap(), "conv mismatch at t={}", t);
        }
    }

    #[test]
    fn deconv_matches_definition(f in arb_concave(), g in arb_convex()) {
        prop_assume!(f.final_slope() <= g.final_slope());
        let d = minplus::deconv(&f, &g).unwrap();
        let horizon = f.tail_start().max(g.tail_start()) + int(2);
        for t in grid(6) {
            let mut best: Option<Rat> = None;
            let mut ss: Vec<Rat> = g.breakpoint_xs();
            for x in f.breakpoint_xs() {
                if x >= t { ss.push(x - t); }
            }
            let steps = 8i128;
            for n in 0..=steps {
                ss.push(horizon * rat(n, steps));
            }
            for s in ss {
                if s.is_negative() { continue; }
                let v = f.eval(t + s) - g.eval(s);
                best = Some(match best { Some(b) => b.max(v), None => v });
            }
            prop_assert_eq!(d.eval(t), best.unwrap(), "deconv mismatch at t={}", t);
        }
    }

    #[test]
    fn deconv_dominates_input(f in arb_concave(), g in arb_convex()) {
        // α ⊘ β ≥ α − β(0) ≥ ... in particular ≥ α shifted by latency.
        prop_assume!(f.final_slope() <= g.final_slope());
        let d = minplus::deconv(&f, &g).unwrap();
        for t in grid(8) {
            prop_assert!(d.eval(t) >= f.eval(t) - g.eval(int(0)));
        }
    }

    #[test]
    fn hdev_sound_and_tight(alpha in arb_concave(), beta in arb_convex()) {
        prop_assume!(beta.final_slope() >= alpha.final_slope());
        prop_assume!(beta.final_slope().is_positive());
        match bounds::hdev(&alpha, &beta) {
            Ok(d) => {
                prop_assert!(!d.is_negative());
                // Soundness: α(t) ≤ β(t + d) everywhere (sampled).
                for t in grid(10) {
                    prop_assert!(
                        alpha.eval(t) <= beta.eval(t + d),
                        "hdev unsound at t={}: α={} > β={}",
                        t, alpha.eval(t), beta.eval(t + d)
                    );
                }
                // Tightness: brute-force sup over grid cannot exceed d.
                for t in grid(10) {
                    let needed = beta.pseudo_inverse(alpha.eval(t)).unwrap() - t;
                    prop_assert!(needed <= d);
                }
            }
            Err(e) => prop_assert!(false, "unexpected hdev error: {e}"),
        }
    }

    #[test]
    fn vdev_sound(alpha in arb_concave(), beta in arb_convex()) {
        prop_assume!(beta.final_slope() > alpha.final_slope());
        let v = bounds::vdev(&alpha, &beta).unwrap();
        for t in grid(10) {
            prop_assert!(alpha.eval(t) - beta.eval(t) <= v);
        }
    }

    #[test]
    fn busy_period_sound(f in arb_concave(), c in arb_pos()) {
        prop_assume!(f.final_slope() < c);
        let b = bounds::busy_period(&f, c).unwrap();
        // After the busy period the arrivals stay strictly below the
        // service line (sampled).
        for k in 1..=8i128 {
            let t = b + rat(k, 2);
            prop_assert!(f.eval(t) < c * t, "arrivals above service after busy period");
        }
        // At b itself (or 0) arrivals meet/exceed the line.
        prop_assert!(f.eval(b) >= c * b);
    }

    #[test]
    fn hdev_general_matches_hdev_on_standard_shapes(
        alpha in arb_concave(), beta in arb_convex()
    ) {
        prop_assume!(beta.final_slope() >= alpha.final_slope());
        prop_assume!(beta.final_slope().is_positive());
        let a = bounds::hdev(&alpha, &beta).unwrap();
        let b = bounds::hdev_general(&alpha, &beta).unwrap();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn future_min_is_greatest_monotone_lower_bound(
        f in arb_concave(), g in arb_convex(), k in 1i128..5
    ) {
        // Build a possibly-dipping curve: concave minus a scaled convex,
        // plus a growing tail.
        let dip = f.sub(&g.scale_y(rat(1, k))).add(&Curve::rate(g.final_slope()));
        prop_assume!(!dip.final_slope().is_negative());
        let m = dip.future_min();
        prop_assert!(m.is_nondecreasing());
        for t in grid(12) {
            prop_assert!(m.eval(t) <= dip.eval(t), "above the original at {}", t);
        }
        // Greatest: at every breakpoint of m, the value equals the true
        // future infimum (sampled forward).
        for &(x, y) in m.points() {
            let mut inf = dip.eval(x);
            for j in 0..40 {
                inf = inf.min(dip.eval(x + rat(j, 2)));
            }
            prop_assert!(y >= inf - rat(1, 1000), "not tight at {}", x);
            prop_assert!(y <= inf, "above future inf at {}", x);
        }
    }

    #[test]
    fn conv_rate_latency_closed_form(
        r1 in arb_pos(), t1 in arb_nonneg(), r2 in arb_pos(), t2 in arb_nonneg()
    ) {
        let c = minplus::conv(&Curve::rate_latency(r1, t1), &Curve::rate_latency(r2, t2));
        prop_assert_eq!(c, Curve::rate_latency(r1.min(r2), t1 + t2));
    }

    #[test]
    fn deconv_token_bucket_closed_form(
        s in arb_nonneg(), rho in arb_nonneg(), r in arb_pos(), t in arb_nonneg()
    ) {
        prop_assume!(rho <= r);
        let a = Curve::token_bucket(s, rho);
        let b = Curve::rate_latency(r, t);
        let d = minplus::deconv(&a, &b).unwrap();
        prop_assert_eq!(d, Curve::token_bucket(s + rho * t, rho));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn pointwise_ops_are_exact_on_any_curves(f in arb_any(), g in arb_any()) {
        let (fs, gs) = (f.final_slope(), g.final_slope());
        check_pointwise(&f, &g, &f.min(&g), Rat::min, fs.min(gs))?;
        check_pointwise(&f, &g, &f.max(&g), Rat::max, fs.max(gs))?;
        check_pointwise(&f, &g, &f.add(&g), |a, b| a + b, fs + gs)?;
        check_pointwise(&f, &g, &f.sub(&g), |a, b| a - b, fs - gs)?;
    }
}

#[test]
fn min_max_cross_inside_a_piece_and_in_the_tail() {
    // f = 2t up to (2, 4), then slope 1/2; g = 1 + t. They cross inside
    // f's first piece at (1, 2) and again in the joint tail at (4, 5).
    let f = Curve::from_points(vec![(int(0), int(0)), (int(2), int(4))], rat(1, 2));
    let g = Curve::affine(int(1), int(1));
    assert_eq!(
        f.min(&g),
        Curve::from_points(
            vec![(int(0), int(0)), (int(1), int(2)), (int(4), int(5))],
            rat(1, 2)
        )
    );
    assert_eq!(
        f.max(&g),
        Curve::from_points(
            vec![
                (int(0), int(1)),
                (int(1), int(2)),
                (int(2), int(4)),
                (int(4), int(5))
            ],
            int(1)
        )
    );
}

#[test]
fn min_max_at_a_tangency_do_not_cross() {
    // f = |t − 2| touches g = 0 at t = 2 without crossing it: no point is
    // inserted, and each side keeps one curve.
    let f = Curve::from_points(vec![(int(0), int(2)), (int(2), int(0))], int(1));
    let g = Curve::zero();
    assert_eq!(f.min(&g), g);
    assert_eq!(f.max(&g), f);
    assert_eq!(g.min(&f), g);
    assert_eq!(g.max(&f), f);
}
