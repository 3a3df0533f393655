//! Min-plus convolution (⊗) and deconvolution (⊘) of piecewise-linear
//! curves.
//!
//! **Convolution.** [`conv`] computes
//! `(f ⊗ g)(t) = inf_{0≤s≤t} f(s) + g(t−s)` exactly for nondecreasing,
//! ultimately affine PWL operands. It dispatches on the raw breakpoints
//! (proofs in DESIGN §18.2):
//!
//! * `β_{R1,T1} ⊗ β_{R2,T2} = β_{min(R1,R2), T1+T2}` in O(1);
//! * any nondecreasing `f` against a rate-latency `β_{R,T}` (`λ_R` and
//!   the zero curve included) takes one walk over `f`:
//!   `h(t) = R·t + min_{s≤t}(f(s) − R·s)` as a running minimum, shifted
//!   right by `T` holding `f(0)`;
//! * every other pair is memoized in one global [`CurveCache`], keyed by
//!   interned [`CurveId`]s and order-normalized because ⊗ is
//!   commutative. A miss takes the convex-run decomposition (Bouillard &
//!   Thierry, DEDS 2008): each operand is the pointwise minimum of
//!   convex curves `Cᵢ ≥ f`, one per maximal convex run, ⊗ distributes
//!   over min, and two convex curves convolve by the slope-sorted merge
//!   of their pieces.
//!
//! The first two forms intern nothing and count under
//! `curve.conv.fast_path`. [`crate::limits::checkpoint`] runs first in
//! every call, before any memo probe, so budgets behave the same on
//! every path.
//!
//! **The oracle.** [`conv_envelope`] is the candidate-envelope
//! construction: for each fixed `t` the infimum of the piecewise-linear
//! function `s ↦ f(s) + g(t−s)` over a closed interval is attained at
//! one of its vertices, i.e. at a breakpoint of `f` (`s = x_i`) or a
//! breakpoint of `g` (`t − s = u_j`). Each vertex family, viewed as a
//! function of `t`, is a shifted copy of the other curve; extending it
//! leftwards by a constant never goes below an already-present candidate
//! (monotonicity), so the pointwise minimum of the extended candidates
//! equals the convolution everywhere. It is quadratic in the breakpoint
//! count, so no analysis calls it. Canonical representations are unique,
//! so every [`conv`] path is bit-identical to it: `tests/prop_intern.rs`
//! proptests that, and under `debug-invariants`
//! [`crate::invariant::same_as_general`] asserts it on every call.
//!
//! **Deconvolution.** `(f ⊘ g)(t) = sup_{s≥0} f(t+s) − g(s)` takes the
//! symmetric envelope with maxima; it requires `rate(f) ≤ rate(g)`
//! (otherwise the supremum is `+∞` and [`CurveError::Unstable`] is
//! returned). [`deconv`] has no fast path and no memo: no analysis calls
//! it.

use crate::cache::{CacheKey, CurveCache};
use crate::curve::CanonicalBuilder;
use crate::intern::{self, CurveId};
use crate::{shape, Curve, CurveError, Segment};
use dnc_num::Rat;
use std::sync::LazyLock;

static CONV_MEMO: LazyLock<CurveCache<CurveId>> = LazyLock::new(CurveCache::default);

/// Min-plus convolution `f ⊗ g`.
///
/// # Panics
/// Panics (debug) if either curve is not nondecreasing. Panics with a
/// [`crate::limits::BudgetBreach`] payload when thread-local
/// [`crate::limits`] are installed and breached.
pub fn conv(f: &Curve, g: &Curve) -> Curve {
    crate::limits::checkpoint(f.points().len() + g.points().len());
    let _span = dnc_telemetry::span("curve.conv");
    dnc_telemetry::gauge_u64("curve.conv.segments_in", || {
        (f.points().len() + g.points().len()) as u64
    });
    debug_assert!(f.is_nondecreasing(), "conv: f must be nondecreasing");
    debug_assert!(g.is_nondecreasing(), "conv: g must be nondecreasing");

    let out = match rate_latency_conv(f, g) {
        Some(out) => {
            dnc_telemetry::counter("curve.conv.fast_path", 1);
            out
        }
        None => {
            let (fid, gid) = (intern::intern(f), intern::intern(g));
            // ⊗ is commutative and canonical forms are unique, so (f, g)
            // and (g, f) share one memo entry.
            let (lo, hi) = if fid <= gid { (fid, gid) } else { (gid, fid) };
            let key = CacheKey::new("curve.conv").curve_id(lo).curve_id(hi);
            let id = CONV_MEMO.get_or_insert_with(key, || intern::intern(&conv_runs(f, g)));
            (*intern::resolve(id)).clone()
        }
    };
    dnc_telemetry::gauge_u64("curve.conv.segments_out", || out.points().len() as u64);
    crate::invariant::same_as_general("conv", &out, || conv_core(f, g));
    crate::invariant::conv_post(f, g, &out);
    out
}

/// The answers [`conv`] gives before interning: the closed form when
/// both operands are rate-latency curves, [`running_min`] when one is,
/// `None` otherwise.
fn rate_latency_conv(f: &Curve, g: &Curve) -> Option<Curve> {
    match (shape::rate_latency(f), shape::rate_latency(g)) {
        (Some((r1, t1)), Some((r2, t2))) => Some(Curve::rate_latency(r1.min(r2), t1 + t2)),
        (_, Some((r, t))) => Some(running_min(f, r, t)),
        (Some((r, t)), None) => Some(running_min(g, r, t)),
        (None, None) => None,
    }
}

/// `f ⊗ β_{R,T}` for a nondecreasing `f`, in one walk over its pieces.
/// `f ⊗ λ_R` is `h(t) = R·t + m(t)` with the running minimum
/// `m(t) = min_{s≤t} (f(s) − R·s)`, and `⊗ δ_T` shifts the nondecreasing
/// `h` right by `T`, holding `h(0) = f(0)`. On a piece of slope `σ`,
/// `f − R·s` has slope `σ − R`: where it sits at its running minimum and
/// falls, `h` follows `f`; elsewhere `m` is flat and `h` rises at `R`,
/// until a falling `f − R·s` meets the minimum again.
fn running_min(f: &Curve, r: Rat, t: Rat) -> Curve {
    let mut out = CanonicalBuilder::new();
    if t.is_positive() {
        out.push(Rat::ZERO, || f.at_zero(), Rat::ZERO);
    }
    let mut m = f.at_zero();
    for Segment {
        start: x,
        value: y,
        slope: s,
        end,
    } in f.segments()
    {
        let g = y - r * x;
        if s < r && g <= m {
            m = g;
            out.push(x + t, || y, s);
            continue;
        }
        m = m.min(g);
        out.push(x + t, || r * x + m, r);
        if s < r {
            let meet = x + (g - m) / (r - s);
            if end.is_none_or(|e| meet < e) {
                out.push(meet + t, || y + s * (meet - x), s);
            }
        }
    }
    out.finish()
}

/// One convex curve `Cᵢ` of the cover `f = minᵢ Cᵢ`: `f(a)` held on
/// `[0, a]`, `f` on the run's pieces from `a` on, then the steepest slope
/// of `f` from the run's last piece on. So `Cᵢ` is convex, `Cᵢ ≥ f`
/// (`f` is nondecreasing, and no later piece of `f` is steeper than the
/// tail), and `Cᵢ = f` on the run.
struct Run<'a> {
    /// `a`, where the run starts.
    start: Rat,
    /// `f(a) = Cᵢ(0)`.
    at_zero: Rat,
    /// The run's pieces of `f`, slopes nondecreasing.
    pieces: &'a [Segment],
    /// Slope of `Cᵢ` after the run's last bounded piece.
    tail: Rat,
}

impl Run<'_> {
    /// The bounded pieces of `Cᵢ` as `(length, slope)`, slopes
    /// nondecreasing: the held `[0, a]`, then the run's bounded pieces.
    fn pieces(&self) -> impl Iterator<Item = (Rat, Rat)> + '_ {
        let held = self.start.is_positive().then_some((self.start, Rat::ZERO));
        held.into_iter().chain(
            self.pieces
                .iter()
                .filter_map(|s| s.end.map(|e| (e - s.start, s.slope))),
        )
    }
}

/// Split `f`'s pieces at its concave kinks (where the slope drops) into
/// maximal convex runs.
fn cover(segs: &[Segment], final_slope: Rat) -> Vec<Run<'_>> {
    let mut runs = Vec::new();
    let mut steepest = final_slope;
    for pieces in segs.chunk_by(|a, b| a.slope <= b.slope).rev() {
        steepest = pieces.iter().fold(steepest, |m, s| m.max(s.slope));
        if let Some(first) = pieces.first() {
            runs.push(Run {
                start: first.start,
                at_zero: first.value,
                pieces,
                tail: steepest,
            });
        }
    }
    runs
}

/// `C ⊗ D` for two convex runs: from `C(0) + D(0)`, the bounded pieces
/// of both in nondecreasing slope order, cut where the slope reaches the
/// smaller tail, which continues forever.
fn merge(c: &Run, d: &Run) -> Curve {
    let tail = c.tail.min(d.tail);
    let (mut a, mut b) = (c.pieces().peekable(), d.pieces().peekable());
    let mut out = CanonicalBuilder::new();
    let (mut x, mut y) = (Rat::ZERO, c.at_zero + d.at_zero);
    loop {
        let from_c = match (a.peek(), b.peek()) {
            (Some(p), Some(q)) => p.1 <= q.1,
            (p, _) => p.is_some(),
        };
        let next = if from_c { a.next() } else { b.next() };
        match next {
            Some((len, slope)) if slope < tail => {
                out.push(x, || y, slope);
                x += len;
                y += slope * len;
            }
            _ => break,
        }
    }
    out.push(x, || y, tail);
    out.finish()
}

/// The general path of [`conv`]: `f ⊗ g = min_{i,j} Cᵢ ⊗ Dⱼ` over the
/// convex-run covers of both operands, each pair by [`merge`].
fn conv_runs(f: &Curve, g: &Curve) -> Curve {
    let (fs, gs): (Vec<Segment>, Vec<Segment>) = (f.segments().collect(), g.segments().collect());
    let (fc, gc) = (cover(&fs, f.final_slope()), cover(&gs, g.final_slope()));
    let pairs: Vec<Curve> = fc
        .iter()
        .flat_map(|c| gc.iter().map(move |d| merge(c, d)))
        .collect();
    Curve::min_all(pairs.iter())
}

/// The always-general candidate-envelope convolution, bypassing the
/// dispatch and the operation memo. Same precondition as [`conv`]: both
/// operands nondecreasing (debug-asserted). Bit-identical to [`conv`] —
/// that is the property the differential tests assert by calling both.
pub fn conv_envelope(f: &Curve, g: &Curve) -> Curve {
    crate::limits::checkpoint(f.points().len() + g.points().len());
    let _span = dnc_telemetry::span("curve.conv");
    debug_assert!(f.is_nondecreasing(), "conv: f must be nondecreasing");
    debug_assert!(g.is_nondecreasing(), "conv: g must be nondecreasing");
    let out = conv_core(f, g);
    crate::invariant::conv_post(f, g, &out);
    out
}

/// The candidate-envelope construction itself (charges no budget, opens
/// no span).
fn conv_core(f: &Curve, g: &Curve) -> Curve {
    let mut candidates: Vec<Curve> = Vec::new();
    for &(x, y) in f.points() {
        // f(x) + g(t − x), held constant at f(x) + g(0) before t = x.
        candidates.push(g.shift_right_hold(x).shift_up(y));
    }
    for &(u, v) in g.points() {
        candidates.push(f.shift_right_hold(u).shift_up(v));
    }
    Curve::min_all(candidates.iter())
}

/// Min-plus convolution of many curves (left fold). As with [`conv`], the
/// operands should be nondecreasing; the fold then stays nondecreasing.
///
/// # Panics
/// Panics on an empty iterator.
pub fn conv_all<'a, I: IntoIterator<Item = &'a Curve>>(curves: I) -> Curve {
    let mut it = curves.into_iter();
    let first = it.next().expect("conv_all of empty iterator").clone(); // audit: allow(expect, documented panic: empty iterator)
    it.fold(first, |acc, c| conv(&acc, c))
}

/// Min-plus deconvolution `f ⊘ g`.
///
/// Returns [`CurveError::Unstable`] when `rate(f) > rate(g)` (the result
/// would be `+∞` everywhere).
///
/// # Panics
/// Panics (debug) if either curve is not nondecreasing. Panics with a
/// [`crate::limits::BudgetBreach`] payload when thread-local
/// [`crate::limits`] are installed and breached.
pub fn deconv(f: &Curve, g: &Curve) -> Result<Curve, CurveError> {
    crate::limits::checkpoint(f.points().len() + g.points().len());
    let _span = dnc_telemetry::span("curve.deconv");
    dnc_telemetry::gauge_u64("curve.deconv.segments_in", || {
        (f.points().len() + g.points().len()) as u64
    });
    debug_assert!(f.is_nondecreasing(), "deconv: f must be nondecreasing");
    debug_assert!(g.is_nondecreasing(), "deconv: g must be nondecreasing");
    crate::bounds::stable(f, g)?;
    let out = deconv_core(f, g);
    dnc_telemetry::gauge_u64("curve.deconv.segments_out", || out.points().len() as u64);
    crate::invariant::deconv_post(f, g, &out);
    Ok(out)
}

/// The candidate-envelope construction itself (requires
/// `rate(f) ≤ rate(g)`, checked by the callers; charges no budget, opens
/// no span).
fn deconv_core(f: &Curve, g: &Curve) -> Curve {
    let mut candidates: Vec<Curve> = Vec::new();
    // Family A: s pinned to a breakpoint u_j of g: f(t + u_j) − g(u_j).
    for &(u, v) in g.points() {
        candidates.push(f.shift_left(u).shift_up(-v));
    }
    // Family B: t + s pinned to a breakpoint x_i of f:
    // b_i(t) = f(x_i) − g(x_i − t) on [0, x_i], constant f(x_i) − g(0) after.
    for &(x, y) in f.points() {
        candidates.push(reverse_about(g, x).scale_y(-Rat::ONE).shift_up(y));
    }
    Curve::max_all(candidates.iter())
}

/// The curve `t ↦ g(x − t)` on `[0, x]`, extended by the constant `g(0)`
/// for `t ≥ x` (used by deconvolution's family-B candidates).
fn reverse_about(g: &Curve, x: Rat) -> Curve {
    if x.is_zero() {
        return Curve::constant(g.at_zero());
    }
    let mut pts: Vec<(Rat, Rat)> = Vec::new();
    // t = 0 corresponds to g(x).
    pts.push((Rat::ZERO, g.eval(x)));
    // Breakpoints u of g with 0 < u < x map to t = x − u (descending u =>
    // ascending t).
    let mut inner: Vec<Rat> = g
        .breakpoint_xs()
        .into_iter()
        .filter(|&u| u.is_positive() && u < x)
        .collect();
    inner.sort_by(|a, b| b.cmp(a));
    for u in inner {
        pts.push((x - u, g.eval(u)));
    }
    // t = x corresponds to g(0); constant afterwards.
    pts.push((x, g.at_zero()));
    Curve::from_points(pts, Rat::ZERO)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnc_num::{int, rat};

    #[test]
    fn conv_rate_latency_adds_latency_min_rate() {
        let b1 = Curve::rate_latency(int(3), int(2));
        let b2 = Curve::rate_latency(int(1), int(5));
        assert_eq!(conv(&b1, &b2), Curve::rate_latency(int(1), int(7)));
        assert_eq!(conv(&b2, &b1), Curve::rate_latency(int(1), int(7)));
    }

    #[test]
    fn conv_token_buckets() {
        // γ_{σ1,ρ1} ⊗ γ_{σ2,ρ2} = σ1+σ2 + min(ρ1,ρ2)·t.
        let g1 = Curve::token_bucket(int(2), int(3));
        let g2 = Curve::token_bucket(int(5), int(1));
        assert_eq!(conv(&g1, &g2), Curve::token_bucket(int(7), int(1)));
    }

    #[test]
    fn conv_concave_zero_at_zero_is_min() {
        // Both concave with f(0)=g(0)=0: f ⊗ g = min(f, g).
        let f = Curve::token_bucket_peak(int(1), rat(1, 4), int(1));
        let g = Curve::token_bucket_peak(int(3), rat(1, 2), int(2));
        assert_eq!(conv(&f, &g), f.min(&g));
    }

    #[test]
    fn conv_with_zero_collapses() {
        // f ⊗ 0 = f(0) held constant... actually inf_s f(s) + 0 = f(0).
        let f = Curve::token_bucket(int(2), int(1));
        assert_eq!(conv(&f, &Curve::zero()), Curve::constant(int(2)));
    }

    #[test]
    fn conv_matches_definition_pointwise() {
        let f = Curve::rate_latency(int(2), int(1));
        let g = Curve::token_bucket_peak(int(2), rat(1, 2), int(3));
        let c = conv(&f, &g);
        // Dense check of inf over s grid (s on 1/8 grid up to t).
        for tn in 0..48 {
            let t = rat(tn, 8);
            let mut best = f.eval(Rat::ZERO) + g.eval(t);
            let mut sn = 0;
            while rat(sn, 8) <= t {
                let s = rat(sn, 8);
                let v = f.eval(s) + g.eval(t - s);
                if v < best {
                    best = v;
                }
                sn += 1;
            }
            assert!(c.eval(t) <= best, "conv above definition at t={t}");
        }
    }

    #[test]
    fn kernel_agrees_with_envelope() {
        // Mixed shapes exercise fast path, memo, and envelope on the
        // same operands; every pairing must agree bit-for-bit.
        let curves = [
            Curve::token_bucket(int(2), int(3)),
            Curve::token_bucket(int(0), int(1)),
            Curve::rate_latency(int(3), int(2)),
            Curve::rate(int(2)),
            Curve::zero(),
            Curve::token_bucket_peak(int(2), rat(1, 2), int(3)),
        ];
        for f in &curves {
            for g in &curves {
                assert_eq!(conv(f, g), conv_envelope(f, g), "conv {f} ⊗ {g}");
            }
        }
    }

    #[test]
    fn deconv_token_bucket_by_rate_latency() {
        // γ_{σ,ρ} ⊘ β_{R,T} = γ_{σ+ρT, ρ} when ρ ≤ R.
        let a = Curve::token_bucket(int(2), int(1));
        let b = Curve::rate_latency(int(3), int(4));
        assert_eq!(deconv(&a, &b).unwrap(), Curve::token_bucket(int(6), int(1)));
    }

    #[test]
    fn deconv_unstable() {
        let a = Curve::token_bucket(int(1), int(2));
        let b = Curve::rate_latency(int(1), int(0));
        assert!(matches!(deconv(&a, &b), Err(CurveError::Unstable { .. })));
    }

    #[test]
    fn deconv_peak_capped_by_slower_rate_latency() {
        // α = min{t, 1 + t/4}, β = β_{1/2, 2}. Output burst grows: the sup
        // walks past the latency and the fast initial slope.
        let a = Curve::token_bucket_peak(int(1), rat(1, 4), int(1));
        let b = Curve::rate_latency(rat(1, 2), int(2));
        let d = deconv(&a, &b).unwrap();
        // Definition cross-check on a grid.
        for tn in 0..32 {
            let t = rat(tn, 4);
            let mut best = a.eval(t) - b.eval(Rat::ZERO);
            for sn in 0..64 {
                let s = rat(sn, 4);
                let v = a.eval(t + s) - b.eval(s);
                if v > best {
                    best = v;
                }
            }
            assert!(d.eval(t) >= best, "deconv below definition at t={t}");
        }
        assert!(d.is_nondecreasing());
        assert!(d.is_concave());
    }

    #[test]
    fn conv_all_associativity_example() {
        let a = Curve::rate_latency(int(5), int(1));
        let b = Curve::rate_latency(int(3), int(2));
        let c = Curve::rate_latency(int(4), int(3));
        let left = conv(&conv(&a, &b), &c);
        let right = conv(&a, &conv(&b, &c));
        assert_eq!(left, right);
        assert_eq!(left, Curve::rate_latency(int(3), int(6)));
        assert_eq!(conv_all([&a, &b, &c]), left);
    }
}
