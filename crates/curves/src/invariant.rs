//! Runtime invariant checks behind the `debug-invariants` cargo feature.
//!
//! Every function here is a no-op unless the crate is built with
//! `--features debug-invariants`, in which case the min-plus operations and
//! curve constructors assert their postconditions on every call:
//!
//! * representation well-formedness (breakpoints start at `x = 0`, strictly
//!   increasing, canonical form),
//! * shape preservation (convolution of nondecreasing curves is
//!   nondecreasing, deconvolution stays nondecreasing, ...),
//! * bound soundness (`hdev ≥ 0` and `α(t) ≤ β(t + d)` at the candidate
//!   abscissae, `vdev` dominates the pointwise excess),
//! * envelope inequalities (`(f ⊗ g)(t) ≤ f(t) + g(0)` and symmetrically —
//!   the `s = t` / `s = 0` candidates of the infimum),
//! * kernel agreement (every fast-path or memoized answer of
//!   `conv`/`hdev`/`hdev_general` equals the general construction, see
//!   [`same_as_general`]).
//!
//! All checks run in exact `Rat` arithmetic, whose operators are
//! overflow-checked (they panic with a diagnostic rather than wrapping), so
//! a passing check is a proof for the sampled points, not an approximation.
//!
//! The whole test suite runs under this feature in CI; the checks are
//! deliberately `assert!`-based (not `debug_assert!`) so they also fire in
//! `--release` CI runs when the feature is on.

use crate::Curve;
use dnc_num::Rat;

/// `true` when the crate was built with `--features debug-invariants`.
pub const ENABLED: bool = cfg!(feature = "debug-invariants");

/// Sampling abscissae for pointwise checks: both curves' breakpoints plus
/// one point past the joint affine tail (enough to decide PWL inequalities
/// everywhere when combined with the tail-rate comparison done separately).
#[cfg(feature = "debug-invariants")]
fn sample_xs(curves: &[&Curve]) -> Vec<Rat> {
    let mut xs: Vec<Rat> = Vec::new();
    let mut tail = Rat::ZERO;
    for c in curves {
        xs.extend(c.breakpoint_xs());
        tail = tail.max(c.tail_start());
    }
    xs.push(tail + Rat::ONE);
    xs.sort();
    xs.dedup();
    xs
}

/// Representation well-formedness: non-empty, first breakpoint at `x = 0`,
/// strictly increasing x coordinates. (Canonicality — no collinear interior
/// breakpoints — is maintained by `canonicalize` and re-checked by the
/// constructor itself; this check guards the parts that later arithmetic
/// relies on for correctness.)
#[cfg(feature = "debug-invariants")]
pub(crate) fn well_formed(c: &Curve, ctx: &str) {
    let pts = c.points();
    assert!(
        !pts.is_empty(),
        "invariant[{ctx}]: curve has no breakpoints"
    );
    let first_x = pts.iter().map(|&(x, _)| x).next();
    assert!(
        first_x == Some(Rat::ZERO),
        "invariant[{ctx}]: first breakpoint not at x=0 in {c}"
    );
    for (a, b) in pts.iter().zip(pts.iter().skip(1)) {
        assert!(
            a.0 < b.0,
            "invariant[{ctx}]: breakpoints not strictly increasing ({} then {}) in {c}",
            a.0,
            b.0
        );
    }
}

#[cfg(not(feature = "debug-invariants"))]
#[inline(always)]
pub(crate) fn well_formed(_c: &Curve, _ctx: &str) {}

/// Canonical form: re-canonicalizing the breakpoints changes nothing (no
/// collinear interior point, no last point on the final line).
#[cfg(feature = "debug-invariants")]
pub(crate) fn canonical(c: &Curve, ctx: &str) {
    let again = Curve::from_points(c.points().to_vec(), c.final_slope());
    assert!(
        *c == again,
        "invariant[{ctx}]: {c} is not canonical ({again})"
    );
}

#[cfg(not(feature = "debug-invariants"))]
#[inline(always)]
pub(crate) fn canonical(_c: &Curve, _ctx: &str) {}

/// Wide-sense-increasing check.
#[cfg(feature = "debug-invariants")]
pub(crate) fn nondecreasing(c: &Curve, ctx: &str) {
    assert!(
        c.is_nondecreasing(),
        "invariant[{ctx}]: curve not wide-sense increasing: {c}"
    );
}

#[cfg(not(feature = "debug-invariants"))]
#[inline(always)]
pub(crate) fn nondecreasing(_c: &Curve, _ctx: &str) {}

/// Concavity check (arrival-curve shape).
#[cfg(feature = "debug-invariants")]
pub(crate) fn concave(c: &Curve, ctx: &str) {
    assert!(c.is_concave(), "invariant[{ctx}]: curve not concave: {c}");
}

#[cfg(not(feature = "debug-invariants"))]
#[inline(always)]
pub(crate) fn concave(_c: &Curve, _ctx: &str) {}

/// Convexity check (service-curve shape).
#[cfg(feature = "debug-invariants")]
pub(crate) fn convex(c: &Curve, ctx: &str) {
    assert!(c.is_convex(), "invariant[{ctx}]: curve not convex: {c}");
}

#[cfg(not(feature = "debug-invariants"))]
#[inline(always)]
pub(crate) fn convex(_c: &Curve, _ctx: &str) {}

/// Postconditions of `conv(f, g)` for nondecreasing operands: the result is
/// well-formed, nondecreasing, starts at `f(0) + g(0)`, and lies below both
/// single-candidate envelopes `f(t) + g(0)` and `g(t) + f(0)`.
#[cfg(feature = "debug-invariants")]
pub(crate) fn conv_post(f: &Curve, g: &Curve, out: &Curve) {
    well_formed(out, "conv");
    // The pointwise postconditions below assume the operands respect
    // `conv`'s wide-sense-increasing precondition; don't pile a misleading
    // secondary failure on top of a precondition violation.
    if f.is_nondecreasing() && g.is_nondecreasing() {
        nondecreasing(out, "conv");
        assert!(
            out.at_zero() == f.at_zero() + g.at_zero(),
            "invariant[conv]: (f⊗g)(0) = {} differs from f(0)+g(0) = {}",
            out.at_zero(),
            f.at_zero() + g.at_zero()
        );
        for t in sample_xs(&[f, g, out]) {
            let v = out.eval(t);
            assert!(
                v <= f.eval(t) + g.at_zero(),
                "invariant[conv]: result above f(t)+g(0) at t={t}"
            );
            assert!(
                v <= g.eval(t) + f.at_zero(),
                "invariant[conv]: result above g(t)+f(0) at t={t}"
            );
        }
    }
    assert!(
        out.final_slope() == f.final_slope().min(g.final_slope()),
        "invariant[conv]: ultimate rate {} is not min({}, {})",
        out.final_slope(),
        f.final_slope(),
        g.final_slope()
    );
}

#[cfg(not(feature = "debug-invariants"))]
#[inline(always)]
pub(crate) fn conv_post(_f: &Curve, _g: &Curve, _out: &Curve) {}

/// Postconditions of `deconv(f, g)`: well-formed, nondecreasing (for
/// nondecreasing operands), and dominating the `s = 0` candidate
/// `f(t) − g(0)` pointwise.
#[cfg(feature = "debug-invariants")]
pub(crate) fn deconv_post(f: &Curve, g: &Curve, out: &Curve) {
    well_formed(out, "deconv");
    if f.is_nondecreasing() && g.is_nondecreasing() {
        nondecreasing(out, "deconv");
        for t in sample_xs(&[f, g, out]) {
            assert!(
                out.eval(t) >= f.eval(t) - g.at_zero(),
                "invariant[deconv]: result below f(t) − g(0) at t={t}"
            );
        }
    }
}

#[cfg(not(feature = "debug-invariants"))]
#[inline(always)]
pub(crate) fn deconv_post(_f: &Curve, _g: &Curve, _out: &Curve) {}

/// Postconditions of a horizontal-deviation computation: `d ≥ 0` and the
/// defining soundness property `α(t) ≤ β(t + d)` at the sampled abscissae.
#[cfg(feature = "debug-invariants")]
pub(crate) fn hdev_post(alpha: &Curve, beta: &Curve, d: Rat) {
    assert!(
        !d.is_negative(),
        "invariant[hdev]: negative delay bound {d}"
    );
    // `t ↦ α(t) − β(t + d)` is PWL with kinks at α's breakpoints and at
    // β's breakpoints pulled back by d; checking all kinks plus a tail
    // point decides the inequality everywhere except the far tail, which
    // the callers' rate precondition covers.
    let mut xs = sample_xs(&[alpha, beta]);
    xs.extend(
        beta.breakpoint_xs()
            .into_iter()
            .filter(|&x| x >= d)
            .map(|x| x - d),
    );
    xs.sort();
    xs.dedup();
    for t in xs {
        assert!(
            alpha.eval(t) <= beta.eval(t + d),
            "invariant[hdev]: α({t}) = {} > β({t}+{d}) = {} — bound unsound",
            alpha.eval(t),
            beta.eval(t + d)
        );
    }
}

#[cfg(not(feature = "debug-invariants"))]
#[inline(always)]
pub(crate) fn hdev_post(_alpha: &Curve, _beta: &Curve, _d: Rat) {}

/// Postconditions of a vertical-deviation computation: `v` dominates the
/// pointwise excess `α(t) − β(t)` at the sampled abscissae.
#[cfg(feature = "debug-invariants")]
pub(crate) fn vdev_post(alpha: &Curve, beta: &Curve, v: Rat) {
    for t in sample_xs(&[alpha, beta]) {
        assert!(
            alpha.eval(t) - beta.eval(t) <= v,
            "invariant[vdev]: excess at t={t} exceeds the bound {v}"
        );
    }
}

#[cfg(not(feature = "debug-invariants"))]
#[inline(always)]
pub(crate) fn vdev_post(_alpha: &Curve, _beta: &Curve, _v: Rat) {}

/// Postcondition of the curve kernel: an answer from a shape fast path
/// or a memo equals the general construction `general()`, which must
/// charge no [`crate::limits`] budget and open no span (so budgets
/// behave the same with the feature on). Used by `conv`, `hdev`,
/// `hdev_general` and `dnc-core`'s `family_curve`.
#[cfg(feature = "debug-invariants")]
pub fn same_as_general<T: PartialEq + std::fmt::Debug>(
    op: &str,
    answer: &T,
    general: impl FnOnce() -> T,
) {
    let expected = general();
    assert!(
        *answer == expected,
        "invariant[{op}]: fast path or memo answer {answer:?} differs from the general construction {expected:?}"
    );
}

/// Kernel-agreement postcondition (a no-op without `debug-invariants`).
#[cfg(not(feature = "debug-invariants"))]
#[inline(always)]
pub fn same_as_general<T>(_op: &str, _answer: &T, _general: impl FnOnce() -> T) {}

#[cfg(all(test, feature = "debug-invariants"))]
mod tests {
    use super::*;
    use dnc_num::int;

    #[test]
    fn enabled_reflects_feature() {
        assert!(ENABLED);
    }

    #[test]
    fn well_formed_accepts_constructors() {
        well_formed(&Curve::token_bucket(int(3), int(1)), "test");
        well_formed(&Curve::rate_latency(int(2), int(5)), "test");
        nondecreasing(&Curve::zero(), "test");
    }

    #[test]
    #[should_panic(expected = "bound unsound")]
    fn hdev_post_rejects_undersized_delay() {
        let a = Curve::token_bucket(int(4), int(1));
        let b = Curve::rate_latency(int(2), int(3));
        // True delay is 5; claim 1 and the check must fire.
        hdev_post(&a, &b, int(1));
    }

    #[test]
    #[should_panic(expected = "differs from the general construction")]
    fn same_as_general_rejects_a_wrong_fast_answer() {
        same_as_general("test", &int(1), || int(2));
    }

    #[test]
    #[should_panic(expected = "exceeds the bound")]
    fn vdev_post_rejects_undersized_backlog() {
        let a = Curve::token_bucket(int(4), int(1));
        let b = Curve::rate_latency(int(2), int(3));
        // True backlog is 7; claim 2.
        vdev_post(&a, &b, int(2));
    }
}
