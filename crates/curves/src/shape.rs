//! Shape classification and closed-form fast paths for the two curve
//! families that dominate real topologies.
//!
//! Almost every curve an analysis touches is a **token bucket**
//! `γ_{σ,ρ}(t) = σ + ρt` or a **rate-latency** curve
//! `β_{R,T}(t) = R·(t − T)⁺`. For those shapes the min-plus operators
//! have one-line closed forms (the same ones hand-derived in
//! `crates/core/src/closed_form.rs` and pinned by the property tests in
//! `crates/curves/tests/prop_curves.rs`), so the candidate-envelope
//! machinery in [`crate::minplus`] is pure overhead. This module:
//!
//! * classifies a canonical [`Curve`] into a [`ShapeInfo`] — the
//!   token-bucket / rate-latency parameters when they exist, plus the
//!   concave/convex/nondecreasing flags every analysis precondition
//!   checks ([`classify`] is O(points) and the result is memoized per
//!   interned curve by [`crate::intern::shape`]);
//! * provides the closed-form convolution [`closed_conv`], returning
//!   `None` unless the preconditions under which it is *provably
//!   bit-identical* to the general path hold. (The horizontal deviation's
//!   fast path, `bounds::one_pass`, reads the curves directly and needs
//!   no classification.)
//!
//! The shape lattice is intentionally not a partition: the rate curve
//! `λ_r` is simultaneously `γ_{0,r}` and `β_{r,0}`, and the zero curve
//! is `γ_{0,0}` = `β_{0,0}`. [`ShapeInfo`] therefore exposes the two
//! views independently instead of forcing a single tag.
//!
//! Soundness of "closed form == general path" rests on canonical
//! representations being **unique**: two curves equal as functions are
//! structurally equal ([`Curve`] docs), so producing the mathematically
//! equal result in canonical form *is* producing the bit-identical
//! result. The differential proptests in `tests/prop_intern.rs`
//! re-check every closed form against the envelope construction.

use crate::Curve;
use dnc_num::Rat;

/// Memoizable shape summary of one canonical curve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShapeInfo {
    /// `Some((σ, ρ))` iff the curve is `γ_{σ,ρ}` with `σ, ρ ≥ 0`.
    token_bucket: Option<(Rat, Rat)>,
    /// `Some((R, T))` iff the curve is `β_{R,T}` with `R, T ≥ 0`.
    rate_latency: Option<(Rat, Rat)>,
    /// Piece slopes are non-increasing.
    concave: bool,
    /// Piece slopes are non-decreasing.
    convex: bool,
    /// Every piece slope is ≥ 0.
    nondecreasing: bool,
}

impl ShapeInfo {
    /// The token-bucket view: `Some((σ, ρ))` when the curve equals
    /// `γ_{σ,ρ}(t) = σ + ρt` with non-negative burst and rate.
    #[inline]
    pub fn as_token_bucket(&self) -> Option<(Rat, Rat)> {
        self.token_bucket
    }

    /// The rate-latency view: `Some((R, T))` when the curve equals
    /// `β_{R,T}(t) = R·(t − T)⁺` with non-negative rate and latency.
    /// The zero curve reports `(0, 0)`; a pure rate curve reports
    /// latency `0`.
    #[inline]
    pub fn as_rate_latency(&self) -> Option<(Rat, Rat)> {
        self.rate_latency
    }

    /// Whether the curve is concave (memoized [`Curve::is_concave`]).
    #[inline]
    pub fn is_concave(&self) -> bool {
        self.concave
    }

    /// Whether the curve is convex (memoized [`Curve::is_convex`]).
    #[inline]
    pub fn is_convex(&self) -> bool {
        self.convex
    }

    /// Whether the curve is nondecreasing (memoized
    /// [`Curve::is_nondecreasing`]).
    #[inline]
    pub fn is_nondecreasing(&self) -> bool {
        self.nondecreasing
    }
}

/// Classify one canonical curve into the shape lattice: token bucket
/// (concave two-piece), rate latency (convex two-piece), or general.
/// No precondition beyond canonical form — the classifier itself
/// decides concavity/convexity. O(points); called once per interned
/// curve by [`crate::intern::shape`], which memoizes the result.
pub fn classify(c: &Curve) -> ShapeInfo {
    let pts = c.points();
    let fs = c.final_slope();

    // γ_{σ,ρ}: a single breakpoint (0, σ) with tail slope ρ, both ≥ 0.
    let token_bucket = match pts {
        [(x0, y0)] if x0.is_zero() && !y0.is_negative() && !fs.is_negative() => Some((*y0, fs)),
        _ => None,
    };

    // β_{R,T}: either the affine-through-origin form (T = 0, any rate
    // r ≥ 0 — includes the zero curve) or the canonical two-point form
    // (0,0)—(T,0) with tail slope R. Canonicalization guarantees the
    // two-point form only survives with R ≠ 0 (a zero tail slope would
    // have collapsed the latency breakpoint), so R > 0 there.
    let rate_latency = match pts {
        [(x0, y0)] if x0.is_zero() && y0.is_zero() && !fs.is_negative() => Some((fs, Rat::ZERO)),
        [(x0, y0), (x1, y1)]
            if x0.is_zero() && y0.is_zero() && y1.is_zero() && fs.is_positive() =>
        {
            Some((fs, *x1))
        }
        _ => None,
    };

    ShapeInfo {
        token_bucket,
        rate_latency,
        concave: c.is_concave(),
        convex: c.is_convex(),
        nondecreasing: c.is_nondecreasing(),
    }
}

/// Build `γ_{σ,ρ}` directly in canonical form (no assertions beyond the
/// [`Curve::from_points`] invariants — callers pass σ, ρ ≥ 0).
fn gamma(sigma: Rat, rho: Rat) -> Curve {
    Curve::from_points(vec![(Rat::ZERO, sigma)], rho)
}

/// Build `β_{R,T}` directly in canonical form. `R = 0` or `T = 0`
/// collapse to the rate/zero curve exactly as canonicalization would.
fn beta(r: Rat, t: Rat) -> Curve {
    if r.is_zero() || t.is_zero() {
        return Curve::from_points(vec![(Rat::ZERO, Rat::ZERO)], r);
    }
    Curve::from_points(vec![(Rat::ZERO, Rat::ZERO), (t, Rat::ZERO)], r)
}

/// Closed-form min-plus convolution, when a proven form applies:
///
/// * `γ_{σ1,ρ1} ⊗ γ_{σ2,ρ2} = γ_{σ1+σ2, min(ρ1,ρ2)}` — for affine
///   operands the infimum of `s ↦ f(s) + g(t−s)` is attained at an
///   endpoint, giving `σ1 + σ2 + min(ρ1,ρ2)·t`.
/// * `β_{R1,T1} ⊗ β_{R2,T2} = β_{min(R1,R2), T1+T2}` — latencies add,
///   the slower rate wins (`prop_curves.rs` pins both).
///
/// Shape preconditions are carried by the [`ShapeInfo`] arguments: the
/// forms apply only to the concave token-bucket and convex
/// rate-latency classes; anything else returns `None`.
pub fn closed_conv(fs: &ShapeInfo, gs: &ShapeInfo) -> Option<Curve> {
    if let (Some((s1, r1)), Some((s2, r2))) = (fs.as_token_bucket(), gs.as_token_bucket()) {
        return Some(gamma(s1 + s2, r1.min(r2)));
    }
    if let (Some((r1, t1)), Some((r2, t2))) = (fs.as_rate_latency(), gs.as_rate_latency()) {
        return Some(beta(r1.min(r2), t1 + t2));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnc_num::{int, rat};

    #[test]
    fn classify_token_bucket_and_rate_latency() {
        let tb = classify(&Curve::token_bucket(int(4), rat(1, 2)));
        assert_eq!(tb.as_token_bucket(), Some((int(4), rat(1, 2))));
        assert_eq!(tb.as_rate_latency(), None);
        assert!(tb.is_concave() && tb.is_nondecreasing());

        let rl = classify(&Curve::rate_latency(int(2), int(3)));
        assert_eq!(rl.as_rate_latency(), Some((int(2), int(3))));
        assert_eq!(rl.as_token_bucket(), None);
        assert!(rl.is_convex() && rl.is_nondecreasing());
    }

    #[test]
    fn classify_lattice_overlaps() {
        // λ_r is both γ_{0,r} and β_{r,0}.
        let r = classify(&Curve::rate(int(3)));
        assert_eq!(r.as_token_bucket(), Some((int(0), int(3))));
        assert_eq!(r.as_rate_latency(), Some((int(3), int(0))));
        // The zero curve is γ_{0,0} = β_{0,0}.
        let z = classify(&Curve::zero());
        assert_eq!(z.as_token_bucket(), Some((int(0), int(0))));
        assert_eq!(z.as_rate_latency(), Some((int(0), int(0))));
    }

    #[test]
    fn classify_rejects_negative_params_and_general_shapes() {
        // Negative burst: affine but not a token bucket.
        let neg = Curve::from_points(vec![(int(0), int(-1))], int(1));
        let s = classify(&neg);
        assert_eq!(s.as_token_bucket(), None);
        assert_eq!(s.as_rate_latency(), None);
        // Two-segment concave peak: neither family.
        let peak = Curve::token_bucket_peak(int(2), rat(1, 2), int(1));
        let s = classify(&peak);
        assert_eq!(s.as_token_bucket(), None);
        assert_eq!(s.as_rate_latency(), None);
        assert!(s.is_concave());
    }

    #[test]
    fn closed_forms_match_pinned_examples() {
        let g1 = Curve::token_bucket(int(2), int(3));
        let g2 = Curve::token_bucket(int(5), int(1));
        let got = closed_conv(&classify(&g1), &classify(&g2)).unwrap();
        assert_eq!(got, Curve::token_bucket(int(7), int(1)));

        let b1 = Curve::rate_latency(int(3), int(2));
        let b2 = Curve::rate_latency(int(1), int(5));
        let got = closed_conv(&classify(&b1), &classify(&b2)).unwrap();
        assert_eq!(got, Curve::rate_latency(int(1), int(7)));
    }
}
