//! Shape classification: the flags every analysis precondition checks,
//! and the rate-latency reading the kernel's fast paths dispatch on.
//!
//! * [`classify`] summarizes a canonical [`Curve`] into a [`ShapeInfo`]:
//!   the concave / convex / nondecreasing flags. It is O(points), and
//!   [`crate::intern::shape_of`] memoizes it per interned curve, so the
//!   memoized deviation paths check their preconditions with a `Copy`
//!   read.
//! * [`rate_latency`] reads `β_{R,T}` off the raw breakpoints, before
//!   anything is interned. [`crate::minplus::conv`] dispatches on it (the
//!   closed form for two rate-latency operands, the running-minimum walk
//!   for one) and so does the one-pass horizontal deviation of
//!   [`crate::bounds`].
//!
//! Soundness of "fast path == general path" rests on canonical
//! representations being **unique**: two curves equal as functions are
//! structurally equal ([`Curve`] docs), so producing the mathematically
//! equal result in canonical form *is* producing the bit-identical
//! result. The differential proptests in `tests/prop_intern.rs`
//! re-check every fast path against the envelope constructions.

use crate::Curve;
use dnc_num::Rat;

/// Memoizable shape summary of one canonical curve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShapeInfo {
    /// Piece slopes are non-increasing.
    concave: bool,
    /// Piece slopes are non-decreasing.
    convex: bool,
    /// Every piece slope is ≥ 0.
    nondecreasing: bool,
}

impl ShapeInfo {
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

/// Classify one canonical curve. No precondition beyond canonical form —
/// the classifier itself decides concavity/convexity. O(points); called
/// once per interned curve by [`crate::intern::shape_of`], which
/// memoizes the result.
pub fn classify(c: &Curve) -> ShapeInfo {
    ShapeInfo {
        concave: c.is_concave(),
        convex: c.is_convex(),
        nondecreasing: c.is_nondecreasing(),
    }
}

/// `Some((R, T))` when `c` is the rate-latency curve
/// `β_{R,T}(t) = R·(t − T)⁺` with `R, T ≥ 0`: either the
/// affine-through-origin form (`T = 0`, any rate `R ≥ 0`, so `λ_R` and
/// the zero curve) or the canonical two-point form `(0,0)—(T,0)` with
/// tail slope `R`. Canonicalization keeps the two-point form only with
/// `R ≠ 0` (a zero tail slope would have collapsed the latency
/// breakpoint), so `R > 0` there. Any canonical curve may be passed; every
/// curve recognized is convex and nondecreasing.
#[inline]
pub fn rate_latency(c: &Curve) -> Option<(Rat, Rat)> {
    let r = c.final_slope();
    match *c.points() {
        [(_, y0)] if y0.is_zero() && !r.is_negative() => Some((r, Rat::ZERO)),
        [(_, y0), (t, y1)] if y0.is_zero() && y1.is_zero() && r.is_positive() => Some((r, t)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnc_num::{int, rat};

    #[test]
    fn classify_token_bucket_and_rate_latency() {
        let tb = Curve::token_bucket(int(4), rat(1, 2));
        assert_eq!(rate_latency(&tb), None);
        let s = classify(&tb);
        assert!(s.is_concave() && s.is_nondecreasing());

        let rl = Curve::rate_latency(int(2), int(3));
        assert_eq!(rate_latency(&rl), Some((int(2), int(3))));
        let s = classify(&rl);
        assert!(s.is_convex() && s.is_nondecreasing());
        assert!(!s.is_concave());
    }

    #[test]
    fn classify_lattice_overlaps() {
        // λ_r is β_{r,0}, and both concave and convex.
        let r = Curve::rate(int(3));
        assert_eq!(rate_latency(&r), Some((int(3), int(0))));
        let s = classify(&r);
        assert!(s.is_concave() && s.is_convex());
        // The zero curve is β_{0,0}.
        assert_eq!(rate_latency(&Curve::zero()), Some((int(0), int(0))));
    }

    #[test]
    fn classify_rejects_negative_params_and_general_shapes() {
        // Negative rate through the origin: affine but not β_{R,T}.
        let neg = Curve::from_points(vec![(int(0), int(0))], int(-1));
        assert_eq!(rate_latency(&neg), None);
        assert!(!classify(&neg).is_nondecreasing());
        // Two-segment concave peak: not rate-latency.
        let peak = Curve::token_bucket_peak(int(2), rat(1, 2), int(1));
        assert_eq!(rate_latency(&peak), None);
        assert!(classify(&peak).is_concave());
    }
}
