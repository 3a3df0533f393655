//! The [`Curve`] type: a continuous piecewise-linear function on `[0, ∞)`.

use dnc_num::Rat;
use std::fmt;
use std::ops::Deref;

/// Breakpoint lists this long or shorter are stored inline in the
/// [`Curve`] value itself — no heap allocation. Real topologies are
/// dominated by token buckets (1 point), rate-latency curves (≤ 2) and
/// their small combinations, so 4 covers the overwhelming majority of
/// curves an analysis touches.
const INLINE_POINTS: usize = 4;

/// Small-vec breakpoint storage: inline array for ≤ [`INLINE_POINTS`]
/// breakpoints, spilling to a `Vec` beyond that. `Deref`s to the point
/// slice, so readers are untouched; equality/hash are slice-based and
/// therefore representation-independent (an inline curve and a spilled
/// curve with equal points compare equal, though canonical lengths make
/// that pairing unreachable in practice).
// The size asymmetry is the design: the inline array exists precisely
// so small curves pay no allocation, and boxing it (clippy's
// suggestion) would reintroduce one on every construction.
#[allow(clippy::large_enum_variant)]
enum PointBuf {
    Inline {
        len: u8,
        buf: [(Rat, Rat); INLINE_POINTS],
    },
    Heap(Vec<(Rat, Rat)>),
}

impl PointBuf {
    fn from_vec(v: Vec<(Rat, Rat)>) -> PointBuf {
        if v.len() <= INLINE_POINTS {
            let mut buf = [(Rat::ZERO, Rat::ZERO); INLINE_POINTS];
            for (slot, p) in buf.iter_mut().zip(v.iter()) {
                *slot = *p;
            }
            PointBuf::Inline {
                len: v.len() as u8,
                buf,
            }
        } else {
            PointBuf::Heap(v)
        }
    }

    fn as_slice(&self) -> &[(Rat, Rat)] {
        match self {
            PointBuf::Inline { len, buf } => buf.get(..*len as usize).unwrap_or(buf),
            PointBuf::Heap(v) => v,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [(Rat, Rat)] {
        match self {
            PointBuf::Inline { len, buf } => {
                let n = (*len as usize).min(INLINE_POINTS);
                &mut buf[..n] // audit: allow(index, n is clamped to the buffer length)
            }
            PointBuf::Heap(v) => v,
        }
    }

    /// Shorten to `n` points (no-op when already shorter). A heap
    /// buffer stays heap even when it shrinks under the inline bound:
    /// canonicalization is the only shrinker and converts via
    /// [`PointBuf::from_vec`] on construction paths where it matters.
    fn truncate(&mut self, n: usize) {
        match self {
            PointBuf::Inline { len, .. } => *len = (*len).min(n as u8),
            PointBuf::Heap(v) => v.truncate(n),
        }
    }

    /// Append a point, spilling to the heap past [`INLINE_POINTS`].
    fn push(&mut self, p: (Rat, Rat)) {
        match self {
            PointBuf::Inline { len, buf } => match buf.get_mut(*len as usize) {
                Some(slot) => {
                    *slot = p;
                    *len += 1;
                }
                None => {
                    let mut v = Vec::with_capacity(2 * INLINE_POINTS);
                    v.extend_from_slice(buf);
                    v.push(p);
                    *self = PointBuf::Heap(v);
                }
            },
            PointBuf::Heap(v) => v.push(p),
        }
    }

    /// Apply `f` to every point, preserving the storage variant (no
    /// allocation for inline curves).
    fn map(&self, f: impl Fn(Rat, Rat) -> (Rat, Rat)) -> PointBuf {
        match self {
            PointBuf::Inline { len, buf } => {
                let mut out = *buf;
                for p in out.iter_mut().take(*len as usize) {
                    *p = f(p.0, p.1);
                }
                PointBuf::Inline {
                    len: *len,
                    buf: out,
                }
            }
            PointBuf::Heap(v) => PointBuf::Heap(v.iter().map(|&(x, y)| f(x, y)).collect()),
        }
    }
}

impl Deref for PointBuf {
    type Target = [(Rat, Rat)];
    #[inline]
    fn deref(&self) -> &[(Rat, Rat)] {
        self.as_slice()
    }
}

impl Clone for PointBuf {
    fn clone(&self) -> PointBuf {
        match self {
            PointBuf::Inline { len, buf } => PointBuf::Inline {
                len: *len,
                buf: *buf,
            },
            PointBuf::Heap(v) => {
                // The telemetry trail for the interning work: every
                // count here is a real allocation+copy of a segment
                // list. `dnc profile` surfaces it as `curve.clone.heap`
                // so cache/interning changes can prove copies dropped.
                dnc_telemetry::counter("curve.clone.heap", 1);
                PointBuf::Heap(v.clone())
            }
        }
    }
}

impl PartialEq for PointBuf {
    fn eq(&self, other: &PointBuf) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for PointBuf {}

impl std::hash::Hash for PointBuf {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

/// A continuous piecewise-linear function `f : [0, ∞) → ℚ`.
///
/// Representation: a non-empty list of breakpoints `(x_i, y_i)` with
/// `x_0 = 0` and strictly increasing `x_i`, plus a `final_slope`. Between
/// consecutive breakpoints the function interpolates linearly; after the
/// last breakpoint it continues affinely with `final_slope`. The
/// representation is kept *canonical* (no collinear interior breakpoints),
/// so derived structural equality coincides with functional equality.
///
/// Values may be negative (intermediate service-curve computations produce
/// dips below zero before the `[·]⁺` clamp); most analysis entry points
/// check shape predicates before trusting a curve.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Curve {
    /// Breakpoints; invariant: non-empty, `points[0].0 == 0`, strictly
    /// increasing x, no collinear interior points. Stored inline for
    /// the ≤ 4-breakpoint curves that dominate real topologies.
    points: PointBuf,
    /// Slope after the last breakpoint.
    final_slope: Rat,
}

/// Builds a canonical [`Curve`] left to right from points given with the
/// slope of the piece that starts at each. A point is kept only where that
/// slope changes, which is exactly the canonical form, so the result needs
/// no [`Curve::canonicalize`] pass. Up to [`INLINE_POINTS`] points stay
/// inline; a spilled list is trimmed to its length.
pub(crate) struct CanonicalBuilder {
    points: PointBuf,
    /// Slope of the last kept piece; `None` before the first point.
    slope: Option<Rat>,
}

impl CanonicalBuilder {
    pub(crate) fn new() -> CanonicalBuilder {
        CanonicalBuilder {
            points: PointBuf::Inline {
                len: 0,
                buf: [(Rat::ZERO, Rat::ZERO); INLINE_POINTS],
            },
            slope: None,
        }
    }

    /// Continue with the piece that starts at `x` (beyond every earlier
    /// point), has value `y()` there and slope `slope` to its right.
    /// The value is only computed when the point is kept.
    #[inline]
    pub(crate) fn push(&mut self, x: Rat, y: impl FnOnce() -> Rat, slope: Rat) {
        if self.slope != Some(slope) {
            self.points.push((x, y()));
            self.slope = Some(slope);
        }
    }

    /// The curve, whose final slope is that of the last piece pushed.
    pub(crate) fn finish(mut self) -> Curve {
        if let PointBuf::Heap(v) = &mut self.points {
            v.shrink_to_fit();
        }
        let c = Curve {
            points: self.points,
            final_slope: self.slope.unwrap_or(Rat::ZERO),
        };
        crate::invariant::well_formed(&c, "CanonicalBuilder");
        crate::invariant::canonical(&c, "CanonicalBuilder");
        c
    }
}

/// One maximal linear piece of a [`Curve`], as reported by
/// [`Curve::segments`]. `end == None` marks the unbounded final piece.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Segment {
    /// Left endpoint of the piece.
    pub start: Rat,
    /// Value at `start`.
    pub value: Rat,
    /// Slope on the piece.
    pub slope: Rat,
    /// Right endpoint, `None` for the final unbounded piece.
    pub end: Option<Rat>,
}

impl Curve {
    /// Build a curve from breakpoints and a final slope, canonicalizing the
    /// representation. No shape is assumed or enforced: the result need not
    /// be concave, convex, or nondecreasing — analysis entry points check
    /// the predicates they rely on.
    ///
    /// # Panics
    /// Panics if `points` is empty, does not start at `x = 0`, or has
    /// non-increasing x coordinates.
    pub fn from_points(points: Vec<(Rat, Rat)>, final_slope: Rat) -> Curve {
        assert!(!points.is_empty(), "Curve::from_points: empty");
        assert!(
            points[0].0.is_zero(), // audit: allow(index, representation invariant: points is non-empty)
            "Curve::from_points: first breakpoint must be at x=0, got {}",
            points[0].0 // audit: allow(index, representation invariant: points is non-empty)
        );
        for (a, b) in points.iter().zip(points.iter().skip(1)) {
            assert!(
                a.0 < b.0,
                "Curve::from_points: x not strictly increasing ({} then {})",
                a.0,
                b.0
            );
        }
        let mut c = Curve {
            points: PointBuf::from_vec(points),
            final_slope,
        };
        c.canonicalize();
        crate::invariant::well_formed(&c, "from_points");
        c
    }

    /// Remove interior breakpoints that lie on the line through their
    /// neighbours, and a final breakpoint whose incoming slope equals
    /// `final_slope`. In place, allocation-free.
    fn canonicalize(&mut self) {
        loop {
            let pts = self.points.as_slice();
            let n = pts.len();
            if n == 1 {
                return;
            }
            // Drop the last breakpoint if the segment into it has the same
            // slope as the final slope.
            let (x_prev, y_prev) = pts[n - 2]; // audit: allow(index, n >= 2 on this branch)
            let (x_last, y_last) = pts[n - 1]; // audit: allow(index, n >= 2 on this branch)
            let incoming = (y_last - y_prev) / (x_last - x_prev);
            if incoming == self.final_slope {
                self.points.truncate(n - 1);
                continue;
            }
            break;
        }
        // Drop collinear interior points in one compaction pass: `w` is
        // the write cursor, `s[w - 1]` the last kept point.
        let n = self.points.len();
        if n > 2 {
            let s = self.points.as_mut_slice();
            let mut w = 1usize;
            for i in 1..n - 1 {
                let (x0, y0) = s[w - 1]; // audit: allow(index, w >= 1 and w <= i throughout the compaction)
                let (x1, y1) = s[i]; // audit: allow(index, loop index i < n - 1)
                let (x2, y2) = s[i + 1]; // audit: allow(index, loop index i < n - 1)
                let s01 = (y1 - y0) / (x1 - x0);
                let s12 = (y2 - y1) / (x2 - x1);
                if s01 != s12 {
                    s[w] = (x1, y1); // audit: allow(index, w <= i < n - 1)
                    w += 1;
                }
            }
            s[w] = s[n - 1]; // audit: allow(index, w <= n - 1 after dropping interior points)
            self.points.truncate(w + 1);
        }
    }

    /// The breakpoints (canonical form).
    #[inline]
    pub fn points(&self) -> &[(Rat, Rat)] {
        self.points.as_slice()
    }

    /// Slope of the unbounded final piece (the *ultimate rate*).
    #[inline]
    pub fn final_slope(&self) -> Rat {
        self.final_slope
    }

    /// x coordinate of the last breakpoint (start of the affine tail).
    #[inline]
    pub fn tail_start(&self) -> Rat {
        self.points.last().unwrap().0 // audit: allow(unwrap, representation invariant: points is non-empty)
    }

    /// Value at `t >= 0`.
    ///
    /// # Panics
    /// Panics if `t < 0`.
    pub fn eval(&self, t: Rat) -> Rat {
        assert!(!t.is_negative(), "Curve::eval at negative t = {t}");
        // Find the piece containing t: last breakpoint with x <= t.
        let idx = match self.points.binary_search_by(|p| p.0.cmp(&t)) {
            Ok(i) => i,
            Err(0) => unreachable!("x0 == 0 <= t"), // audit: allow(panic, first breakpoint is at x = 0 <= t, so the search cannot land before index 0)
            Err(i) => i - 1,
        };
        let (x0, y0) = self.points[idx]; // audit: allow(index, binary search returns a position within points)
        let slope = if idx + 1 < self.points.len() {
            let (x1, y1) = self.points[idx + 1]; // audit: allow(index, binary search returns a position within points)
            (y1 - y0) / (x1 - x0)
        } else {
            self.final_slope
        };
        y0 + slope * (t - x0)
    }

    /// Iterate over the maximal linear pieces.
    pub fn segments(&self) -> impl Iterator<Item = Segment> + '_ {
        let n = self.points.len();
        (0..n).map(move |i| {
            let (x0, y0) = self.points[i]; // audit: allow(index, i ranges over 0..n, and i + 1 is guarded)
            if i + 1 < n {
                let (x1, y1) = self.points[i + 1]; // audit: allow(index, guarded by i + 1 < n)
                Segment {
                    start: x0,
                    value: y0,
                    slope: (y1 - y0) / (x1 - x0),
                    end: Some(x1),
                }
            } else {
                Segment {
                    start: x0,
                    value: y0,
                    slope: self.final_slope,
                    end: None,
                }
            }
        })
    }

    /// The slopes of successive pieces (length = number of breakpoints).
    pub fn slopes(&self) -> Vec<Rat> {
        self.segments().map(|s| s.slope).collect()
    }

    /// `f(0)`.
    #[inline]
    pub fn at_zero(&self) -> Rat {
        self.points[0].1 // audit: allow(index, representation invariant: points is non-empty)
    }

    /// `true` iff every piece has non-negative slope.
    pub fn is_nondecreasing(&self) -> bool {
        self.segments().all(|s| !s.slope.is_negative())
    }

    /// `true` iff piece slopes are non-increasing (concave function).
    pub fn is_concave(&self) -> bool {
        let s = self.slopes();
        s.iter().zip(s.iter().skip(1)).all(|(a, b)| a >= b)
    }

    /// `true` iff piece slopes are non-decreasing (convex function).
    pub fn is_convex(&self) -> bool {
        let s = self.slopes();
        s.iter().zip(s.iter().skip(1)).all(|(a, b)| a <= b)
    }

    /// `true` iff the curve is identically zero.
    pub fn is_zero(&self) -> bool {
        // audit: allow(index, representation invariant: points is non-empty)
        self.points.len() == 1 && self.points[0].1.is_zero() && self.final_slope.is_zero()
    }

    /// `f(t + d)` as a curve in `t` (left shift / "output bound" shift).
    /// Preserves concavity, convexity, and the nondecreasing property.
    ///
    /// # Panics
    /// Panics if `d < 0`.
    pub fn shift_left(&self, d: Rat) -> Curve {
        assert!(!d.is_negative(), "shift_left by negative {d}");
        if d.is_zero() {
            return self.clone();
        }
        let y0 = self.eval(d);
        let mut pts = vec![(Rat::ZERO, y0)];
        for &(x, y) in self.points.iter() {
            if x > d {
                pts.push((x - d, y));
            }
        }
        Curve::from_points(pts, self.final_slope)
    }

    /// Right shift that *holds* the initial value: the result equals
    /// `f(0)` on `[0, d]` and `f(t − d)` afterwards. This is the building
    /// block of min-plus convolution (a candidate `f(x_i) + g(t − x_i)`
    /// extended leftwards by a constant). Preserves the nondecreasing
    /// property; concavity is generally lost (a flat piece is prepended).
    ///
    /// # Panics
    /// Panics if `d < 0`.
    pub fn shift_right_hold(&self, d: Rat) -> Curve {
        assert!(!d.is_negative(), "shift_right_hold by negative {d}");
        if d.is_zero() {
            return self.clone();
        }
        let mut pts = vec![(Rat::ZERO, self.at_zero())];
        for &(x, y) in self.points.iter() {
            pts.push((x + d, y));
        }
        Curve::from_points(pts, self.final_slope)
    }

    /// Pure right shift for *service* curves: the result is `0` on `[0, d]`
    /// and `f(t − d)` afterwards (equivalent to `f ⊗ δ_d`). Meaningful for
    /// curves with `f(0) = 0`; preserves the nondecreasing property, and
    /// convexity for convex nondecreasing service curves.
    ///
    /// # Panics
    /// Panics if `d < 0` or `f(0) != 0`.
    pub fn delay_by(&self, d: Rat) -> Curve {
        assert!(!d.is_negative(), "delay_by negative {d}");
        assert!(
            self.at_zero().is_zero(),
            "delay_by requires f(0)=0, got {}",
            self.at_zero()
        );
        self.shift_right_hold(d)
    }

    /// Add a constant to the curve. Shape-neutral: concavity, convexity,
    /// and the nondecreasing property are unchanged.
    pub fn shift_up(&self, c: Rat) -> Curve {
        Curve {
            points: self.points.map(|x, y| (x, y + c)),
            final_slope: self.final_slope,
        }
    }

    /// Multiply values by a constant `k`. For `k ≥ 0` this preserves
    /// concavity, convexity, and the nondecreasing property; `k < 0` swaps
    /// concave/convex and reverses monotonicity.
    pub fn scale_y(&self, k: Rat) -> Curve {
        let mut c = Curve {
            points: self.points.map(|x, y| (x, y * k)),
            final_slope: self.final_slope * k,
        };
        c.canonicalize();
        c
    }

    /// Stretch time by `k > 0`: result `g(t) = f(t / k)`. Preserves
    /// concavity, convexity, and the nondecreasing property.
    ///
    /// # Panics
    /// Panics unless `k > 0`.
    pub fn scale_x(&self, k: Rat) -> Curve {
        assert!(k.is_positive(), "scale_x requires k > 0, got {k}");
        let mut c = Curve {
            points: self.points.map(|x, y| (x * k, y)),
            final_slope: self.final_slope / k,
        };
        c.canonicalize();
        c
    }

    /// The positive part `max(f, 0)` — preserves convexity and the
    /// nondecreasing property (concavity is generally lost at the clamp).
    ///
    /// One walk over the curve's own pieces: a piece starting at `(x, y)`
    /// with slope `s` is kept where it is ≥ 0 (`y > 0`, or `y = 0` and
    /// `s > 0`) and replaced by zero elsewhere. Its sign changes inside it
    /// only where `y` and `s` have opposite signs, at `x − y/s`, when that
    /// lies before the piece's end (always, on the tail).
    pub fn pos(&self) -> Curve {
        let mut out = CanonicalBuilder::new();
        for Segment {
            start: x,
            value: y,
            slope: s,
            end,
        } in self.segments()
        {
            let kept = y.is_positive() || (y.is_zero() && s.is_positive());
            if kept {
                out.push(x, || y, s);
            } else {
                out.push(x, || Rat::ZERO, Rat::ZERO);
            }
            if y.signum() * s.signum() < 0 {
                let cross = x - y / s;
                if end.is_none_or(|e| cross < e) {
                    out.push(cross, || Rat::ZERO, if kept { Rat::ZERO } else { s });
                }
            }
        }
        let out = out.finish();
        crate::invariant::same_as_general("pos", &out, || self.max(&Curve::zero()));
        out
    }

    /// The largest value the curve ever attains, or `None` if unbounded
    /// (positive final slope).
    pub fn sup_value(&self) -> Option<Rat> {
        if self.final_slope.is_positive() {
            return None;
        }
        self.points.iter().map(|&(_, y)| y).max()
    }

    /// Pointwise pseudo-inverse `f⁻¹(y) = inf { t ≥ 0 : f(t) ≥ y }` for
    /// nondecreasing curves. Returns `None` when `y` is never reached.
    ///
    /// # Panics
    /// Panics (debug) if the curve is not nondecreasing.
    pub fn pseudo_inverse(&self, y: Rat) -> Option<Rat> {
        debug_assert!(self.is_nondecreasing(), "pseudo_inverse of non-monotone");
        if y <= self.at_zero() {
            return Some(Rat::ZERO);
        }
        for seg in self.segments() {
            let seg_end_val = match seg.end {
                Some(e) => seg.value + seg.slope * (e - seg.start),
                None => {
                    // Final piece.
                    if seg.slope.is_positive() {
                        return Some(seg.start + (y - seg.value) / seg.slope);
                    } else {
                        return if seg.value >= y {
                            Some(seg.start)
                        } else {
                            None
                        };
                    }
                }
            };
            if seg_end_val >= y {
                if seg.slope.is_positive() {
                    let t = seg.start + (y - seg.value) / seg.slope;
                    return Some(t.max(seg.start));
                }
                // Flat segment already at level >= y: y <= value here.
                if seg.value >= y {
                    return Some(seg.start);
                }
                // slope zero but end value >= y > value: impossible.
                unreachable!("flat segment cannot increase"); // audit: allow(panic, zero-slope piece cannot climb from value < y to end value >= y)
            }
        }
        unreachable!("final segment handles the tail") // audit: allow(panic, the unbounded final piece returns unconditionally)
    }

    /// Collect the x coordinates of all breakpoints.
    pub fn breakpoint_xs(&self) -> Vec<Rat> {
        self.points.iter().map(|&(x, _)| x).collect()
    }

    /// Upper pseudo-inverse `f⁻¹₊(y) = sup { t ≥ 0 : f(t) ≤ y }` for
    /// nondecreasing curves. Returns `None` when the set is unbounded
    /// (the curve never exceeds `y`) and `Some(0)`-or-later otherwise;
    /// when `f(0) > y` the supremum of the empty set is taken as `0`.
    pub fn pseudo_inverse_upper(&self, y: Rat) -> Option<Rat> {
        debug_assert!(
            self.is_nondecreasing(),
            "pseudo_inverse_upper of non-monotone"
        );
        if self.at_zero() > y {
            return Some(Rat::ZERO);
        }
        // Walk pieces from the right: the answer is in the last piece
        // whose start value is <= y.
        let segs: Vec<Segment> = self.segments().collect();
        for seg in segs.iter().rev() {
            if seg.value <= y {
                return if seg.slope.is_positive() {
                    let t = seg.start + (y - seg.value) / seg.slope;
                    Some(match seg.end {
                        Some(e) => t.min(e),
                        None => t,
                    })
                } else {
                    // Flat at a level <= y: extends to the piece end, or
                    // forever on the final piece.
                    seg.end
                };
            }
        }
        Some(Rat::ZERO)
    }

    /// The *future minimum* `f̃(t) = inf_{s ≥ t} f(s)` — the largest
    /// nondecreasing function below `f`. Used to monotonize service
    /// curves that dip (e.g. FIFO-family curves whose cross traffic
    /// outruns the link rate for a while): any lower bound of a service
    /// curve is itself a valid service curve.
    pub fn future_min(&self) -> Curve {
        if self.is_nondecreasing() {
            return self.clone();
        }
        // The final piece must be nondecreasing for the infimum to exist.
        assert!(
            !self.final_slope().is_negative(),
            "future_min: curve decreases forever"
        );
        let segs: Vec<Segment> = self.segments().collect();
        // Build right-to-left. On the final piece (slope >= 0) f̃ = f; on
        // every earlier piece f̃(t) = min(inf_{[t, end]} f, m) with m the
        // infimum of f on [end, ∞).
        let last = *segs.last().unwrap(); // audit: allow(unwrap, segments yields one piece per breakpoint; points is non-empty)
        let mut rev: Vec<(Rat, Rat)> = vec![(last.start, last.value)];
        let mut m = last.value;
        for seg in segs.iter().rev().skip(1) {
            let end = seg.end.expect("only the last piece is unbounded"); // audit: allow(expect, rev().skip(1) visits only bounded pieces)
            let end_val = seg.value + seg.slope * (end - seg.start);
            m = m.min(end_val);
            if seg.slope.is_negative() {
                // f decreasing: inf over [t, end] is f(end) >= m? No:
                // m already includes f(end), so f̃ is the constant m.
                rev.push((seg.start, m));
            } else if seg.value >= m {
                // Increasing but everything at or above m: clamped flat.
                rev.push((seg.start, m));
            } else if end_val <= m {
                // Increasing and entirely below m: f̃ = f.
                rev.push((seg.start, seg.value));
            } else {
                // Crosses the level m at t*: f below, then flat at m.
                let t_star = seg.start + (m - seg.value) / seg.slope;
                rev.push((t_star, m));
                rev.push((seg.start, seg.value));
            }
            m = m.min(seg.value);
        }
        rev.reverse();
        rev.dedup_by(|b, a| a.0 == b.0);
        let out = Curve::from_points(rev, self.final_slope());
        debug_assert!(out.is_nondecreasing());
        out
    }
}

impl fmt::Debug for Curve {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Curve[")?;
        for (i, (x, y)) in self.points.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "({x},{y})")?;
        }
        write!(f, "; slope {}]", self.final_slope)
    }
}

impl fmt::Display for Curve {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnc_num::{int, rat};

    #[test]
    fn canonicalization_removes_collinear() {
        let c = Curve::from_points(
            vec![(int(0), int(0)), (int(1), int(1)), (int(2), int(2))],
            int(1),
        );
        assert_eq!(c.points().len(), 1);
        assert_eq!(c, Curve::from_points(vec![(int(0), int(0))], int(1)));
    }

    #[test]
    fn eval_pieces() {
        // f(t) = 2 + t on [0,2], then slope 3.
        let c = Curve::from_points(vec![(int(0), int(2)), (int(2), int(4))], int(3));
        assert_eq!(c.eval(int(0)), int(2));
        assert_eq!(c.eval(int(1)), int(3));
        assert_eq!(c.eval(int(2)), int(4));
        assert_eq!(c.eval(int(4)), int(10));
        assert_eq!(c.eval(rat(1, 2)), rat(5, 2));
    }

    #[test]
    fn shape_predicates() {
        let concave = Curve::from_points(vec![(int(0), int(0)), (int(1), int(2))], int(1));
        assert!(concave.is_concave());
        assert!(!concave.is_convex());
        assert!(concave.is_nondecreasing());

        let convex = Curve::from_points(vec![(int(0), int(0)), (int(1), int(0))], int(2));
        assert!(convex.is_convex());
        assert!(!convex.is_concave());

        let line = Curve::from_points(vec![(int(0), int(0))], int(1));
        assert!(line.is_concave() && line.is_convex());
    }

    #[test]
    fn shifts() {
        let c = Curve::from_points(vec![(int(0), int(1)), (int(2), int(5))], int(1));
        let l = c.shift_left(int(1));
        assert_eq!(l.eval(int(0)), int(3));
        assert_eq!(l.eval(int(1)), int(5));
        assert_eq!(l.eval(int(2)), int(6));

        let r = c.shift_right_hold(int(3));
        assert_eq!(r.eval(int(0)), int(1));
        assert_eq!(r.eval(int(3)), int(1));
        assert_eq!(r.eval(int(5)), int(5));
    }

    #[test]
    fn delay_by_requires_zero_start() {
        let beta = Curve::from_points(vec![(int(0), int(0))], int(2));
        let d = beta.delay_by(int(3));
        assert_eq!(d.eval(int(3)), int(0));
        assert_eq!(d.eval(int(5)), int(4));
    }

    #[test]
    #[should_panic(expected = "f(0)=0")]
    fn delay_by_rejects_nonzero_start() {
        let c = Curve::from_points(vec![(int(0), int(1))], int(2));
        let _ = c.delay_by(int(1));
    }

    #[test]
    fn scale_ops() {
        let c = Curve::from_points(vec![(int(0), int(0)), (int(2), int(2))], int(2));
        let sy = c.scale_y(int(3));
        assert_eq!(sy.eval(int(2)), int(6));
        assert_eq!(sy.final_slope(), int(6));
        let sx = c.scale_x(int(2));
        assert_eq!(sx.eval(int(4)), int(2));
        assert_eq!(sx.final_slope(), int(1));
    }

    #[test]
    fn pseudo_inverse_basics() {
        // Token-bucket-like: 2 + t/2.
        let c = Curve::from_points(vec![(int(0), int(2))], rat(1, 2));
        assert_eq!(c.pseudo_inverse(int(0)), Some(int(0)));
        assert_eq!(c.pseudo_inverse(int(2)), Some(int(0)));
        assert_eq!(c.pseudo_inverse(int(3)), Some(int(2)));
        // Bounded curve: saturates at 4.
        let b = Curve::from_points(vec![(int(0), int(0)), (int(4), int(4))], int(0));
        assert_eq!(b.pseudo_inverse(int(4)), Some(int(4)));
        assert_eq!(b.pseudo_inverse(int(5)), None);
    }

    #[test]
    fn pseudo_inverse_flat_segment() {
        // 0 -> 2 on [0,1], flat on [1,3], then slope 1.
        let c = Curve::from_points(
            vec![(int(0), int(0)), (int(1), int(2)), (int(3), int(2))],
            int(1),
        );
        assert_eq!(c.pseudo_inverse(int(2)), Some(int(1)));
        assert_eq!(c.pseudo_inverse(rat(5, 2)), Some(rat(7, 2)));
    }

    #[test]
    fn sup_value() {
        let b = Curve::from_points(vec![(int(0), int(0)), (int(4), int(4))], int(0));
        assert_eq!(b.sup_value(), Some(int(4)));
        let u = Curve::from_points(vec![(int(0), int(0))], int(1));
        assert_eq!(u.sup_value(), None);
    }

    #[test]
    fn pseudo_inverse_upper_basics() {
        // Rises to 4 by t=4, flat on [4,8], then rises again.
        let c = Curve::from_points(
            vec![(int(0), int(0)), (int(4), int(4)), (int(8), int(4))],
            int(1),
        );
        assert_eq!(c.pseudo_inverse_upper(int(2)), Some(int(2)));
        assert_eq!(c.pseudo_inverse_upper(int(4)), Some(int(8)));
        assert_eq!(c.pseudo_inverse_upper(int(5)), Some(int(9)));
        // Value below f(0): empty set -> 0 by convention.
        let d = Curve::constant(int(3));
        assert_eq!(d.pseudo_inverse_upper(int(1)), Some(int(0)));
        // Never exceeded: unbounded.
        assert_eq!(d.pseudo_inverse_upper(int(3)), None);
        assert_eq!(d.pseudo_inverse_upper(int(7)), None);
    }

    #[test]
    fn future_min_monotonizes_dip() {
        // Rises to 3 at t=1, dips to 1 at t=3, rises with slope 2.
        let c = Curve::from_points(
            vec![(int(0), int(0)), (int(1), int(3)), (int(3), int(1))],
            int(2),
        );
        let m = c.future_min();
        assert!(m.is_nondecreasing());
        // Flat at 1 from where the rise first hits 1 (t=1/3) to t=3.
        assert_eq!(m.eval(rat(1, 3)), int(1));
        assert_eq!(m.eval(int(1)), int(1));
        assert_eq!(m.eval(int(2)), int(1));
        assert_eq!(m.eval(int(3)), int(1));
        assert_eq!(m.eval(int(4)), int(3));
        // Below the original everywhere (sampled).
        for k in 0..20 {
            let t = rat(k, 2);
            assert!(m.eval(t) <= c.eval(t));
        }
    }

    #[test]
    fn future_min_identity_for_monotone() {
        let c = Curve::rate_latency(int(2), int(1));
        assert_eq!(c.future_min(), c);
    }

    #[test]
    fn future_min_double_dip() {
        // Two dips: 0→4 (t=1), →2 (t=2), →5 (t=3), →3 (t=4), slope 1.
        let c = Curve::from_points(
            vec![
                (int(0), int(0)),
                (int(1), int(4)),
                (int(2), int(2)),
                (int(3), int(5)),
                (int(4), int(3)),
            ],
            int(1),
        );
        let m = c.future_min();
        assert!(m.is_nondecreasing());
        for k in 0..24 {
            let t = rat(k, 2);
            assert!(m.eval(t) <= c.eval(t), "above original at {t}");
        }
        // Tight where it matters: equals the running future minimum.
        assert_eq!(m.eval(int(1)), int(2)); // future min after t=1 is 2
        assert_eq!(m.eval(int(3)), int(3)); // future min after t=3 is 3
        assert_eq!(m.eval(int(5)), int(4));
    }

    #[test]
    fn pos_walk_cases() {
        let c = |pts: &[(i128, i128)], slope: Rat| {
            Curve::from_points(pts.iter().map(|&(x, y)| (int(x), int(y))).collect(), slope)
        };
        let cases = [
            // |t − 2| touches zero at t = 2 without crossing: kept whole.
            (c(&[(0, 2), (2, 0)], int(1)), c(&[(0, 2), (2, 0)], int(1))),
            // A rise to zero, a zero-valued flat piece, a dip below and a
            // rise through zero: one zero stretch up to the crossing.
            (
                c(&[(0, -2), (2, 0), (4, 0), (5, -1)], int(1)),
                Curve::rate_latency(int(1), int(6)),
            ),
            // Crossings inside pieces, upwards then downwards.
            (
                c(&[(0, -2), (4, 2), (8, -2)], int(0)),
                c(&[(0, 0), (2, 0), (4, 2), (6, 0)], int(0)),
            ),
            // Tail crossings, upwards and downwards.
            (
                Curve::affine(int(-4), int(1)),
                Curve::rate_latency(int(1), int(4)),
            ),
            (
                c(&[(0, 1), (2, 3)], int(-1)),
                c(&[(0, 1), (2, 3), (5, 0)], int(0)),
            ),
            // f(0) = 0 with a falling first piece.
            (
                c(&[(0, 0), (2, -2)], int(1)),
                Curve::rate_latency(int(1), int(4)),
            ),
            // All negative: the zero curve.
            (c(&[(0, -1), (2, -3)], int(-1)), Curve::zero()),
            (c(&[(0, 0)], int(-1)), Curve::zero()),
        ];
        for (f, want) in cases {
            assert_eq!(f.pos(), want, "pos of {f}");
            assert_eq!(f.pos(), f.max(&Curve::zero()), "pos of {f} against max");
        }
    }

    #[test]
    fn segments_iteration() {
        let c = Curve::from_points(vec![(int(0), int(0)), (int(2), int(4))], int(1));
        let segs: Vec<Segment> = c.segments().collect();
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].slope, int(2));
        assert_eq!(segs[0].end, Some(int(2)));
        assert_eq!(segs[1].slope, int(1));
        assert_eq!(segs[1].end, None);
    }
}
