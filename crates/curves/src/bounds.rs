//! Bound extraction: horizontal deviation (delay), vertical deviation
//! (backlog), and busy-period length.
//!
//! [`hdev`] and [`hdev_general`] first try `one_pass`: a concave
//! nondecreasing `α` against a rate-latency `β_{R,T}` is answered in one
//! walk over `α`'s breakpoints, before anything is interned or
//! classified (DESIGN §18.2). Everything else (static-priority residual
//! curves, FIFO-family members, unstable operands) is memoized in one
//! global cache per operation, keyed by interned
//! [`crate::intern::CurveId`]s; shape preconditions are checked against
//! the memoized [`crate::shape::ShapeInfo`] flags so the error behavior
//! matches the candidate scans. Under `debug-invariants` every one-pass
//! or memoized answer is recomputed by the scan and asserted equal
//! ([`crate::invariant::same_as_general`]). [`hdev_envelope`] /
//! [`hdev_general_envelope`] expose the always-general candidate scans
//! for differential testing.

use crate::cache::{CacheKey, CurveCache};
use crate::intern;
use crate::shape::{self, ShapeInfo};
use crate::{Curve, CurveError};
use dnc_num::Rat;
use std::sync::LazyLock;

static HDEV_MEMO: LazyLock<CurveCache<Rat>> = LazyLock::new(CurveCache::default);
static HDEV_GENERAL_MEMO: LazyLock<CurveCache<Rat>> = LazyLock::new(CurveCache::default);

/// Stability precondition (`rate(α) ≤ rate(β)`) shared by every
/// deviation and deconvolution path, worded identically.
pub(crate) fn stable(alpha: &Curve, beta: &Curve) -> Result<(), CurveError> {
    if alpha.final_slope() > beta.final_slope() {
        return Err(CurveError::Unstable {
            arrival_rate: alpha.final_slope().to_string(),
            service_rate: beta.final_slope().to_string(),
        });
    }
    Ok(())
}

/// [`hdev`]'s preconditions on classified operands.
fn hdev_pre(alpha: &Curve, beta: &Curve, a: &ShapeInfo, b: &ShapeInfo) -> Result<(), CurveError> {
    if !a.is_nondecreasing() || !a.is_concave() {
        return Err(CurveError::BadShape(
            "hdev: α must be concave nondecreasing",
        ));
    }
    if !b.is_nondecreasing() || !b.is_convex() {
        return Err(CurveError::BadShape("hdev: β must be convex nondecreasing"));
    }
    stable(alpha, beta)
}

/// [`hdev_general`]'s preconditions on classified operands.
fn hdev_general_pre(
    alpha: &Curve,
    beta: &Curve,
    a: &ShapeInfo,
    b: &ShapeInfo,
) -> Result<(), CurveError> {
    if !a.is_nondecreasing() {
        return Err(CurveError::BadShape(
            "hdev_general: α must be nondecreasing",
        ));
    }
    if !b.is_nondecreasing() {
        return Err(CurveError::BadShape(
            "hdev_general: β must be nondecreasing",
        ));
    }
    stable(alpha, beta)
}

type Pre = fn(&Curve, &Curve, &ShapeInfo, &ShapeInfo) -> Result<(), CurveError>;
type Scan = fn(&Curve, &Curve) -> Result<Rat, CurveError>;

/// `h(α, β_{R,T})` in one walk over `α`'s breakpoints, for a concave
/// nondecreasing `α` with `α(0) ≥ 0` and final slope `ρ ≤ R`, and a
/// rate-latency `β` with `R > 0`:
///
/// `max(0, T if α(0) = 0 and α ≢ 0, max over breakpoints x with α(x) > 0 of T + α(x)/R − x)`.
///
/// On `{α > 0}` the delay `β⁻¹(α(t)) − t = T + α(t)/R − t` is concave
/// with kinks only at `α`'s breakpoints and tail slope `ρ/R − 1 ≤ 0`, so
/// its supremum sits at a breakpoint, or at the limit `T` as `t → 0⁺`
/// when `α` leaves zero there (DESIGN §18.2). `None` for any other
/// operands, which then take the classified path and its errors. Both
/// scans agree with this value on the class, so it serves [`hdev`] and
/// [`hdev_general`] alike.
fn one_pass(alpha: &Curve, beta: &Curve) -> Option<Rat> {
    let (r, t) = shape::rate_latency(beta)?;
    let rho = alpha.final_slope();
    if !r.is_positive() || rho > r || alpha.at_zero().is_negative() {
        return None;
    }
    let pts = alpha.points();
    let mut best = if alpha.at_zero().is_zero() && !alpha.is_zero() {
        t
    } else {
        Rat::ZERO
    };
    let mut prev_slope: Option<Rat> = None;
    for (i, &(x, y)) in pts.iter().enumerate() {
        let slope = match pts.get(i + 1) {
            Some(&(x1, y1)) => (y1 - y) / (x1 - x),
            None => rho,
        };
        if slope.is_negative() || prev_slope.is_some_and(|p| slope > p) {
            return None;
        }
        prev_slope = Some(slope);
        if y.is_positive() {
            best = best.max(t + y / r - x);
        }
    }
    Some(best)
}

/// The kernel path of [`hdev`] and [`hdev_general`]: [`one_pass`] when
/// it applies, else preconditions on the memoized shapes and the
/// candidate scan memoized under `(tag, α id, β id)` (hdev is not
/// symmetric).
fn deviation(
    alpha: &Curve,
    beta: &Curve,
    tag: &'static str,
    memo: &CurveCache<Rat>,
    pre: Pre,
    scan: Scan,
) -> Result<Rat, CurveError> {
    let best = match one_pass(alpha, beta) {
        Some(d) => {
            dnc_telemetry::counter("curve.hdev.fast_path", 1);
            d
        }
        None => {
            let aid = intern::intern(alpha);
            let bid = intern::intern(beta);
            pre(alpha, beta, &intern::shape_of(aid), &intern::shape_of(bid))?;
            memo.get_or_try_insert_with(CacheKey::new(tag).curve_id(aid).curve_id(bid), || {
                scan(alpha, beta)
            })?
        }
    };
    crate::invariant::same_as_general(tag, &Ok(best), || scan(alpha, beta));
    crate::invariant::hdev_post(alpha, beta, best);
    Ok(best)
}

/// The always-general path: preconditions on freshly classified
/// operands, then the unmemoized scan.
fn envelope(alpha: &Curve, beta: &Curve, pre: Pre, scan: Scan) -> Result<Rat, CurveError> {
    pre(alpha, beta, &shape::classify(alpha), &shape::classify(beta))?;
    let best = scan(alpha, beta)?;
    crate::invariant::hdev_post(alpha, beta, best);
    Ok(best)
}

/// Horizontal deviation `h(α, β) = sup_{t≥0} inf { d ≥ 0 : α(t) ≤ β(t+d) }`
/// — the worst-case *delay* of a flow with arrival curve `α` through a
/// server with service curve `β`.
///
/// Requires a concave nondecreasing `α` and a convex nondecreasing `β`
/// (always the case in this workspace: arrivals are concave hulls of token
/// buckets, services are rate-latency/residual curves). Under these shapes
/// `t ↦ β⁻¹(α(t)) − t` is concave, so the supremum is attained at a
/// breakpoint of `α` or at a preimage under `α` of a breakpoint value of
/// `β`; we enumerate exactly those candidates.
///
/// Errors with [`CurveError::Unstable`] when `rate(α) > rate(β)` and with
/// [`CurveError::NeverServed`] when `α` outgrows a bounded `β`.
pub fn hdev(alpha: &Curve, beta: &Curve) -> Result<Rat, CurveError> {
    crate::limits::checkpoint(alpha.points().len() + beta.points().len());
    let _span = dnc_telemetry::span("curve.hdev");
    deviation(alpha, beta, "curve.hdev", &HDEV_MEMO, hdev_pre, hdev_core)
}

/// The always-general horizontal deviation, bypassing the shape fast
/// path and the operation memo. Same precondition as [`hdev`]:
/// nondecreasing α and β. Bit-identical to [`hdev`] — the property the
/// differential tests assert by calling both.
pub fn hdev_envelope(alpha: &Curve, beta: &Curve) -> Result<Rat, CurveError> {
    crate::limits::checkpoint(alpha.points().len() + beta.points().len());
    let _span = dnc_telemetry::span("curve.hdev");
    envelope(alpha, beta, hdev_pre, hdev_core)
}

/// The candidate scan of [`hdev`] (preconditions checked by callers;
/// charges no budget, opens no span).
fn hdev_core(alpha: &Curve, beta: &Curve) -> Result<Rat, CurveError> {
    // Candidate abscissae: breakpoints of α and α-preimages of β's
    // breakpoint values.
    let mut cands: Vec<Rat> = alpha.breakpoint_xs();
    for &(_, v) in beta.points() {
        if let Some(t) = alpha.pseudo_inverse(v) {
            cands.push(t);
        }
    }
    cands.push(Rat::ZERO);
    cands.sort();
    cands.dedup();

    let mut best = Rat::ZERO;

    // β's pseudo-inverse jumps at y = 0 when β has a latency (an initial
    // zero-valued flat): β⁻¹(0) = 0 but β⁻¹(0⁺) = T. If α leaves zero at
    // some t₀ (α(t₀)=0, α > 0 after), the deviation supremum is approached
    // as t → t₀⁺ with limit T − t₀, which no breakpoint candidate sees.
    let latency = beta
        .points()
        .iter()
        .rev()
        .find(|&&(_, y)| y.is_zero())
        .map(|&(x, _)| x);
    if let Some(t_lat) = latency {
        // t₀ = sup { t : α(t) = 0 } (α concave nondecreasing: zero set is
        // an initial interval).
        let t0 = alpha
            .points()
            .iter()
            .rev()
            .find(|&&(_, y)| y.is_zero())
            .map(|&(x, _)| x);
        if let Some(t0) = t0 {
            // Only relevant if α actually becomes positive after t₀.
            let becomes_positive = alpha.final_slope().is_positive()
                || alpha.points().iter().any(|&(_, y)| y.is_positive());
            if becomes_positive && t_lat > t0 {
                best = best.max(t_lat - t0);
            }
        }
    }

    for t in cands {
        let need = alpha.eval(t);
        match beta.pseudo_inverse(need) {
            Some(tau) => {
                let d = tau - t;
                if d > best {
                    best = d;
                }
            }
            None => return Err(CurveError::NeverServed),
        }
    }
    // Equal ultimate rates: the deviation is constant on the far tail; the
    // last candidate already covers it (φ is concave). If β is bounded
    // (rate 0) and α keeps growing, pseudo_inverse above already errored.
    if alpha.final_slope() == beta.final_slope() && alpha.final_slope().is_positive() {
        // Evaluate one point deep in the joint tail for safety.
        let t = alpha.tail_start().max(beta.tail_start()) + Rat::ONE;
        if let Some(tau) = beta.pseudo_inverse(alpha.eval(t)) {
            let d = tau - t;
            if d > best {
                best = d;
            }
        } else {
            return Err(CurveError::NeverServed);
        }
    }
    Ok(best)
}

/// Horizontal deviation for **arbitrary nondecreasing** PWL curves —
/// used when the service curve is not convex (e.g. monotonized
/// FIFO-family curves, convolutions of ramps).
///
/// For fixed `t` the needed delay is `β⁻¹(α(t)) − t` (lower
/// pseudo-inverse). Between consecutive candidate abscissae — breakpoints
/// of `α` and α-preimages (lower *and* upper) of β's breakpoint values —
/// the deviation is linear in `t`, so its supremum is attained at a
/// candidate; β's flat segments additionally contribute limit values
/// `β⁻¹₊(v) − α⁻¹₊(v)` approached as `α(t) → v⁺`.
pub fn hdev_general(alpha: &Curve, beta: &Curve) -> Result<Rat, CurveError> {
    crate::limits::checkpoint(alpha.points().len() + beta.points().len());
    let _span = dnc_telemetry::span("curve.hdev_general");
    deviation(
        alpha,
        beta,
        "curve.hdev_general",
        &HDEV_GENERAL_MEMO,
        hdev_general_pre,
        hdev_general_core,
    )
}

/// The always-general [`hdev_general`] candidate scan, bypassing the
/// fast path and the memo. Same precondition as [`hdev_general`]:
/// nondecreasing α and β. Bit-identical to [`hdev_general`].
pub fn hdev_general_envelope(alpha: &Curve, beta: &Curve) -> Result<Rat, CurveError> {
    crate::limits::checkpoint(alpha.points().len() + beta.points().len());
    let _span = dnc_telemetry::span("curve.hdev_general");
    envelope(alpha, beta, hdev_general_pre, hdev_general_core)
}

/// The candidate scan of [`hdev_general`] (preconditions checked by
/// callers; charges no budget, opens no span).
fn hdev_general_core(alpha: &Curve, beta: &Curve) -> Result<Rat, CurveError> {
    let mut cands: Vec<Rat> = alpha.breakpoint_xs();
    cands.push(Rat::ZERO);
    for &(_, v) in beta.points() {
        if let Some(t) = alpha.pseudo_inverse(v) {
            cands.push(t);
        }
        if let Some(t) = alpha.pseudo_inverse_upper(v) {
            cands.push(t);
        }
    }
    // Deep-tail candidate for the equal-ultimate-rate case.
    let tail = alpha.tail_start().max(beta.tail_start()) + Rat::ONE;
    cands.push(tail);
    cands.sort();
    cands.dedup();

    let mut best = Rat::ZERO;
    for t in cands {
        match beta.pseudo_inverse(alpha.eval(t)) {
            Some(tau) => best = best.max(tau - t),
            None => return Err(CurveError::NeverServed),
        }
    }
    // Jump (flat-segment) limit contributions: as α(t) → v⁺ just past
    // t_v = sup{t : α(t) ≤ v}, the needed delay approaches β⁻¹₊(v) − t_v.
    for &(_, v) in beta.points() {
        let (Some(t_v), Some(tau)) = (alpha.pseudo_inverse_upper(v), beta.pseudo_inverse_upper(v))
        else {
            continue;
        };
        // Only relevant if α actually exceeds v after t_v.
        best = best.max(tau - t_v);
    }
    Ok(best.max(Rat::ZERO))
}

/// Vertical deviation `v(α, β) = sup_{t≥0} [α(t) − β(t)]` — the worst-case
/// *backlog* for a nondecreasing arrival curve `α` and service curve `β`.
/// Errors when the difference grows without bound.
pub fn vdev(alpha: &Curve, beta: &Curve) -> Result<Rat, CurveError> {
    let _span = dnc_telemetry::span("curve.vdev");
    let diff = alpha.sub(beta);
    if diff.final_slope().is_positive() {
        return Err(CurveError::Unstable {
            arrival_rate: alpha.final_slope().to_string(),
            service_rate: beta.final_slope().to_string(),
        });
    }
    let v = diff
        .points()
        .iter()
        .map(|&(_, y)| y)
        .max()
        // audit: allow(expect, Curve representation guarantees at least one breakpoint)
        .expect("non-empty curve");
    crate::invariant::vdev_post(alpha, beta, v);
    Ok(v)
}

/// Longest busy period of a constant-rate-`c` work-conserving server fed
/// by arrivals constrained by a nondecreasing `f`:
/// `sup { t ≥ 0 : f(t) ≥ c·t }`.
///
/// Errors with [`CurveError::Unstable`] when the arrivals never fall below
/// the service line (`rate(f) > c`, or `rate(f) = c` with positive excess).
pub fn busy_period(f: &Curve, c: Rat) -> Result<Rat, CurveError> {
    assert!(c.is_positive(), "busy_period: rate must be positive");
    let diff = f.sub(&Curve::rate(c));
    let unstable = || CurveError::Unstable {
        arrival_rate: f.final_slope().to_string(),
        service_rate: c.to_string(),
    };
    if diff.final_slope().is_positive() {
        return Err(unstable());
    }
    let pts = diff.points();
    let last = *pts.last().unwrap(); // audit: allow(unwrap, Curve representation guarantees at least one breakpoint)
    if diff.final_slope().is_zero() {
        return if last.1.is_positive() {
            Err(unstable())
        } else if last.1.is_zero() {
            Ok(last.0)
        } else {
            // Tail strictly below: last crossing is interior (found below).
            interior_last_root(&diff).ok_or_else(unstable)
        };
    }
    // Negative tail slope.
    if !last.1.is_negative() {
        // Root on the tail segment: y + slope·Δ = 0.
        return Ok(last.0 + last.1 / (-diff.final_slope()));
    }
    interior_last_root(&diff).ok_or_else(unstable)
}

/// The largest interior `t` with `diff(t) = 0` given `diff` ends negative;
/// `None` if `diff` never reaches `≥ 0` (cannot happen for `diff(0) ≥ 0`).
fn interior_last_root(diff: &Curve) -> Option<Rat> {
    let pts = diff.points();
    // Find the last breakpoint with value >= 0; the crossing lies in the
    // segment that follows (whose right endpoint is negative).
    for i in (0..pts.len()).rev() {
        let (x0, y0) = pts[i]; // audit: allow(index, loop index from a range over pts, with i + 1 guarded)
        if !y0.is_negative() {
            if y0.is_zero() {
                return Some(x0);
            }
            // Segment from (x0, y0 > 0) down to a negative value.
            let slope = if i + 1 < pts.len() {
                let (x1, y1) = pts[i + 1]; // audit: allow(index, loop index from a range over pts, with i + 1 guarded)
                (y1 - y0) / (x1 - x0)
            } else {
                diff.final_slope()
            };
            debug_assert!(slope.is_negative());
            return Some(x0 + y0 / (-slope));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnc_num::{int, rat};

    #[test]
    fn hdev_token_bucket_rate_latency() {
        // Classic: h(γ_{σ,ρ}, β_{R,T}) = σ/R + T for ρ ≤ R.
        let a = Curve::token_bucket(int(4), int(1));
        let b = Curve::rate_latency(int(2), int(3));
        assert_eq!(hdev(&a, &b).unwrap(), int(5));
    }

    #[test]
    fn one_pass_matches_pinned_examples() {
        // Token bucket through rate-latency: σ/R + T.
        let a = Curve::token_bucket(int(4), int(1));
        let b = Curve::rate_latency(int(2), int(3));
        assert_eq!(one_pass(&a, &b), Some(int(5)));
        // Three capped buckets min{t, 1 + t/8} on a unit link: the
        // breakpoint (8/7, 24/7) gives 24/7 − 8/7 = 16/7.
        let one = Curve::token_bucket_peak(int(1), rat(1, 8), int(1));
        let g = Curve::sum([&one, &one, &one]);
        assert_eq!(one_pass(&g, &Curve::rate(int(1))), Some(rat(16, 7)));
        // Behind a latency the breakpoint term gains T ...
        let b = Curve::rate_latency(int(1), int(1));
        assert_eq!(one_pass(&g, &b), Some(rat(23, 7)));
        // ... unless it falls below T itself, the limit t → 0⁺ of an α
        // that leaves zero at 0 (3 + 6/7 − 8/7 < 3 here).
        let b = Curve::rate_latency(int(4), int(3));
        assert_eq!(one_pass(&g, &b), Some(int(3)));
        assert_eq!(one_pass(&Curve::rate(int(1)), &b), Some(int(3)));
        for b in [
            Curve::rate_latency(int(1), int(1)),
            Curve::rate_latency(int(4), int(3)),
        ] {
            assert_eq!(hdev(&g, &b), hdev_envelope(&g, &b));
        }
    }

    #[test]
    fn one_pass_zero_alpha_unstable_and_zero_rate() {
        let b = Curve::rate_latency(int(2), int(3));
        assert_eq!(
            one_pass(&Curve::zero(), &b),
            Some(int(0)),
            "α ≡ 0 has deviation 0, not T"
        );
        assert_eq!(hdev(&Curve::zero(), &b).unwrap(), int(0));
        let fast = Curve::token_bucket(int(1), int(5));
        assert_eq!(one_pass(&fast, &b), None, "ρ > R is unstable");
        assert!(matches!(hdev(&fast, &b), Err(CurveError::Unstable { .. })));
        let flat = Curve::token_bucket(int(1), int(0));
        assert_eq!(one_pass(&flat, &Curve::zero()), None, "R = 0");
        let convex = Curve::rate_latency(int(1), int(1));
        assert_eq!(one_pass(&convex, &b), None, "α must be concave");
    }

    #[test]
    fn hdev_aggregate_through_rate() {
        // FIFO local delay: h(G, λ_C) with G = 3 + t/2, C = 1 -> delay 3.
        let g = Curve::token_bucket(int(3), rat(1, 2));
        assert_eq!(hdev(&g, &Curve::rate(int(1))).unwrap(), int(3));
    }

    #[test]
    fn hdev_peak_capped_is_smaller() {
        // Peak cap flattens the early burst: delay shrinks.
        let capped = Curve::token_bucket_peak(int(3), rat(1, 2), int(1));
        let d = hdev(&capped, &Curve::rate(int(1))).unwrap();
        assert_eq!(d, int(0)); // never exceeds the unit service line
        let d2 = hdev(&capped, &Curve::rate(rat(3, 4))).unwrap();
        assert!(d2.is_positive());
    }

    #[test]
    fn hdev_unstable() {
        let a = Curve::token_bucket(int(1), int(2));
        let b = Curve::rate(int(1));
        assert!(matches!(hdev(&a, &b), Err(CurveError::Unstable { .. })));
    }

    #[test]
    fn hdev_never_served() {
        // A truncated (concave) service curve violates hdev's convexity
        // precondition.
        let a = Curve::token_bucket(int(10), rat(1, 2));
        let trunc = Curve::from_points(vec![(int(0), int(0)), (int(4), int(4))], int(0));
        assert!(matches!(hdev(&a, &trunc), Err(CurveError::BadShape(_))));
        // Bounded arrival exceeding a constant (convex) service: never served.
        let a2 = Curve::constant(int(10));
        let b = Curve::constant(int(4));
        assert!(matches!(hdev(&a2, &b), Err(CurveError::NeverServed)));
    }

    #[test]
    fn hdev_equal_rates() {
        // α = 2 + t, β = (t − 3)⁺ ... equal unit rates: deviation settles
        // at 5 (burst 2 / rate 1 + latency 3).
        let a = Curve::token_bucket(int(2), int(1));
        let b = Curve::rate_latency(int(1), int(3));
        assert_eq!(hdev(&a, &b).unwrap(), int(5));
    }

    #[test]
    fn hdev_general_agrees_with_hdev_on_convex() {
        let a = Curve::token_bucket(int(4), int(1));
        let b = Curve::rate_latency(int(2), int(3));
        assert_eq!(hdev_general(&a, &b).unwrap(), hdev(&a, &b).unwrap());
        let a2 = Curve::token_bucket_peak(int(3), rat(1, 2), int(1));
        let b2 = Curve::rate(rat(3, 4));
        assert_eq!(hdev_general(&a2, &b2).unwrap(), hdev(&a2, &b2).unwrap());
    }

    #[test]
    fn hdev_general_nonconvex_service() {
        // β: fast ramp to 2 by t=1, flat to t=3, then slope 1 — not
        // convex. α = 1 + t/2.
        let beta = Curve::from_points(
            vec![(int(0), int(0)), (int(1), int(2)), (int(3), int(2))],
            int(1),
        );
        let alpha = Curve::token_bucket(int(1), rat(1, 2));
        let d = hdev_general(&alpha, &beta).unwrap();
        // Brute-force the deviation on a fine grid (lower bound on sup).
        let mut brute = Rat::ZERO;
        for k in 0..200 {
            let t = rat(k, 8);
            let need = beta.pseudo_inverse(alpha.eval(t)).unwrap() - t;
            brute = brute.max(need);
        }
        assert!(d >= brute, "missed the brute-force sup");
        // Soundness: α(t) ≤ β(t + d) sampled.
        for k in 0..200 {
            let t = rat(k, 8);
            assert!(alpha.eval(t) <= beta.eval(t + d));
        }
        // The flat segment of β forces a deviation past the naive one:
        // as α(t) → 2⁺ (t → 2⁺), β⁻¹ jumps from 1 to 3.
        assert!(d >= int(1));
    }

    #[test]
    fn hdev_general_rejects_unstable() {
        let a = Curve::token_bucket(int(1), int(2));
        let b = Curve::rate(int(1));
        assert!(matches!(
            hdev_general(&a, &b),
            Err(CurveError::Unstable { .. })
        ));
    }

    #[test]
    fn vdev_basics() {
        // Backlog of γ_{4,1} over β_{2,3}: peak at t = 3: 4+3 − 0 = 7.
        let a = Curve::token_bucket(int(4), int(1));
        let b = Curve::rate_latency(int(2), int(3));
        assert_eq!(vdev(&a, &b).unwrap(), int(7));
        assert!(matches!(
            vdev(&Curve::rate(int(2)), &Curve::rate(int(1))),
            Err(CurveError::Unstable { .. })
        ));
    }

    #[test]
    fn busy_period_token_bucket() {
        // f = 3 + t/2 vs rate 1: crossing at t = 6.
        let f = Curve::token_bucket(int(3), rat(1, 2));
        assert_eq!(busy_period(&f, int(1)).unwrap(), int(6));
    }

    #[test]
    fn busy_period_unstable_cases() {
        assert!(busy_period(&Curve::token_bucket(int(1), int(2)), int(1)).is_err());
        // Equal-rate with positive burst: never drains.
        assert!(busy_period(&Curve::token_bucket(int(1), int(1)), int(1)).is_err());
        // Equal-rate with zero burst: busy period 0.
        assert_eq!(busy_period(&Curve::rate(int(1)), int(1)).unwrap(), int(0));
    }

    #[test]
    fn busy_period_peak_capped() {
        // min{t, 2 + t/2} vs rate 3/4: f(t) = t up to t=4 beats 3t/4; after
        // t=4: 2 + t/2 vs 3t/4 -> crossing at t=8.
        let f = Curve::token_bucket_peak(int(2), rat(1, 2), int(1));
        assert_eq!(busy_period(&f, rat(3, 4)).unwrap(), int(8));
    }
}
