//! Pointwise combinations of curves: sum, difference, minimum, maximum.
//!
//! Each one is a single merge walk over both operands' breakpoints, in
//! order: every piece's slope is computed once, on entering the piece, and
//! `f − g` once per abscissa. The result is emitted already canonical
//! through [`CanonicalBuilder`], so nothing is sorted, deduplicated or
//! re-canonicalized.

use crate::curve::{CanonicalBuilder, Curve};
use dnc_num::Rat;

/// A cursor on one curve's current piece: it starts at `(x0, y0)`, has
/// slope `slope`, and ends where `rest` begins (it is the unbounded tail
/// when `rest` is empty).
struct Piece<'a> {
    x0: Rat,
    y0: Rat,
    slope: Rat,
    rest: &'a [(Rat, Rat)],
    final_slope: Rat,
}

impl<'a> Piece<'a> {
    fn first(c: &'a Curve) -> Piece<'a> {
        let rest = c.points().get(1..).unwrap_or_default();
        Piece::starting(Rat::ZERO, c.at_zero(), rest, c.final_slope())
    }

    /// The piece from `(x0, y0)` to the first point of `rest`; its slope
    /// is computed here, once.
    fn starting(x0: Rat, y0: Rat, rest: &'a [(Rat, Rat)], final_slope: Rat) -> Piece<'a> {
        let slope = match rest.first() {
            Some(&(x1, y1)) => (y1 - y0) / (x1 - x0),
            None => final_slope,
        };
        Piece {
            x0,
            y0,
            slope,
            rest,
            final_slope,
        }
    }

    /// Where the next piece starts; `None` on the tail.
    fn end(&self) -> Option<Rat> {
        self.rest.first().map(|&(x, _)| x)
    }

    /// The value at `x`, which lies on this piece.
    fn at(&self, x: Rat) -> Rat {
        if x == self.x0 {
            self.y0
        } else {
            self.y0 + self.slope * (x - self.x0)
        }
    }

    /// Step onto the next piece if it starts at `x`.
    fn advance_to(&mut self, x: Rat) {
        if let Some((&(x1, y1), rest)) = self.rest.split_first() {
            if x1 == x {
                *self = Piece::starting(x1, y1, rest, self.final_slope);
            }
        }
    }
}

/// Both curves at one abscissa of the merged breakpoint list: their values
/// there and their slopes up to the next abscissa (`next`, `None` on the
/// joint tail).
#[derive(Clone, Copy)]
struct Knot {
    x: Rat,
    f: Rat,
    g: Rat,
    sf: Rat,
    sg: Rat,
    next: Option<Rat>,
}

/// Visit every abscissa that is a breakpoint of `f` or of `g` once, in
/// increasing order.
fn walk(f: &Curve, g: &Curve, mut visit: impl FnMut(&Knot)) {
    let (mut pf, mut pg) = (Piece::first(f), Piece::first(g));
    let mut x = Rat::ZERO;
    loop {
        let next = match (pf.end(), pg.end()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        visit(&Knot {
            x,
            f: pf.at(x),
            g: pg.at(x),
            sf: pf.slope,
            sg: pg.slope,
            next,
        });
        let Some(nx) = next else { return };
        pf.advance_to(nx);
        pg.advance_to(nx);
        x = nx;
    }
}

impl Curve {
    /// Pointwise sum `f + g` — preserves concavity, convexity, and the
    /// nondecreasing property when both operands have them.
    pub fn add(&self, g: &Curve) -> Curve {
        let mut out = CanonicalBuilder::new();
        walk(self, g, |k| out.push(k.x, || k.f + k.g, k.sf + k.sg));
        out.finish()
    }

    /// Pointwise difference `f − g`. The result is generally *not*
    /// nondecreasing even for nondecreasing operands; callers re-check
    /// shape predicates where they matter.
    pub fn sub(&self, g: &Curve) -> Curve {
        let mut out = CanonicalBuilder::new();
        walk(self, g, |k| out.push(k.x, || k.f - k.g, k.sf - k.sg));
        out.finish()
    }

    /// Sum of many curves — concave (resp. nondecreasing) when every
    /// summand is.
    ///
    /// # Panics
    /// Panics on an empty iterator.
    pub fn sum<'a, I: IntoIterator<Item = &'a Curve>>(curves: I) -> Curve {
        let mut it = curves.into_iter();
        let first = it.next().expect("Curve::sum of empty iterator").clone(); // audit: allow(expect, documented panic: empty iterator)
        it.fold(first, |acc, c| acc.add(c))
    }

    /// Pointwise minimum `min(f, g)` (exact: inserts crossing points).
    /// Preserves concavity and the nondecreasing property.
    pub fn min(&self, g: &Curve) -> Curve {
        self.extremum(g, true)
    }

    /// Pointwise maximum `max(f, g)` (exact: inserts crossing points).
    /// Preserves convexity and the nondecreasing property.
    pub fn max(&self, g: &Curve) -> Curve {
        self.extremum(g, false)
    }

    /// One walk for `min` and `max`. Between consecutive abscissae both
    /// curves are affine, so `d = f − g` is too: it crosses zero at most
    /// once, where `d` changes strict sign between the ends, or once in the
    /// tail, where `d` and the slope difference have opposite signs.
    fn extremum(&self, g: &Curve, take_min: bool) -> Curve {
        // Whether f is taken where `f − g` has sign `s` (f on ties).
        let takes_f = |s: i128| s == 0 || (s < 0) == take_min;
        // The crossing on knot `k`'s pieces, where f − g is `d` at `k.x`.
        let cross = |out: &mut CanonicalBuilder, k: &Knot, d: Rat| {
            let ds = k.sf - k.sg;
            let t = k.x - d / ds;
            let slope = if takes_f(ds.signum()) { k.sf } else { k.sg };
            out.push(t, || k.f + k.sf * (t - k.x), slope);
        };
        let mut out = CanonicalBuilder::new();
        let mut prev: Option<(Knot, Rat)> = None;
        walk(self, g, |k| {
            let d = k.f - k.g;
            if let Some((p, pd)) = &prev {
                if pd.signum() * d.signum() < 0 {
                    cross(&mut out, p, *pd);
                }
            }
            // The side right of `x` follows the sign of `d`, or where the
            // curves meet, that of the slope difference.
            let s = if d.is_zero() {
                (k.sf - k.sg).signum()
            } else {
                d.signum()
            };
            let (y, slope) = if takes_f(s) { (k.f, k.sf) } else { (k.g, k.sg) };
            out.push(k.x, || y, slope);
            if k.next.is_none() && d.signum() * (k.sf - k.sg).signum() < 0 {
                cross(&mut out, k, d);
            }
            prev = Some((*k, d));
        });
        out.finish()
    }

    /// Minimum of many curves — concave (resp. nondecreasing) when every
    /// operand is; this is how multi-leaky-bucket envelopes stay concave.
    ///
    /// # Panics
    /// Panics on an empty iterator.
    pub fn min_all<'a, I: IntoIterator<Item = &'a Curve>>(curves: I) -> Curve {
        let mut it = curves.into_iter();
        let first = it.next().expect("Curve::min_all of empty iterator").clone(); // audit: allow(expect, documented panic: empty iterator)
        it.fold(first, |acc, c| acc.min(c))
    }

    /// Maximum of many curves — convex (resp. nondecreasing) when every
    /// operand is.
    ///
    /// # Panics
    /// Panics on an empty iterator.
    pub fn max_all<'a, I: IntoIterator<Item = &'a Curve>>(curves: I) -> Curve {
        let mut it = curves.into_iter();
        let first = it.next().expect("Curve::max_all of empty iterator").clone(); // audit: allow(expect, documented panic: empty iterator)
        it.fold(first, |acc, c| acc.max(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnc_num::{int, rat};

    #[test]
    fn add_merges_breakpoints() {
        let f = Curve::rate_latency(int(2), int(1));
        let g = Curve::token_bucket(int(3), int(1));
        let s = f.add(&g);
        assert_eq!(s.eval(int(0)), int(3));
        assert_eq!(s.eval(int(1)), int(4));
        assert_eq!(s.eval(int(2)), int(7));
        assert_eq!(s.final_slope(), int(3));
    }

    #[test]
    fn sub_inverse_of_add() {
        let f = Curve::token_bucket(int(5), rat(1, 3));
        let g = Curve::rate_latency(int(1), int(2));
        assert_eq!(f.add(&g).sub(&g), f);
    }

    #[test]
    fn min_inserts_crossing() {
        // f = 1 + t/4, g = t: cross at t = 4/3.
        let f = Curve::token_bucket(int(1), rat(1, 4));
        let g = Curve::rate(int(1));
        let m = g.min(&f);
        assert_eq!(m, Curve::token_bucket_peak(int(1), rat(1, 4), int(1)));
    }

    #[test]
    fn max_tail_crossing() {
        // f = 10 (constant), g = t: cross in the tail at t = 10.
        let f = Curve::constant(int(10));
        let g = Curve::rate(int(1));
        let m = f.max(&g);
        assert_eq!(m.eval(int(5)), int(10));
        assert_eq!(m.eval(int(10)), int(10));
        assert_eq!(m.eval(int(12)), int(12));
        assert_eq!(m.final_slope(), int(1));
        let mi = f.min(&g);
        assert_eq!(mi.eval(int(5)), int(5));
        assert_eq!(mi.eval(int(12)), int(10));
        assert_eq!(mi.final_slope(), int(0));
    }

    #[test]
    fn min_of_identical() {
        let f = Curve::token_bucket(int(2), int(1));
        assert_eq!(f.min(&f), f);
        assert_eq!(f.max(&f), f);
    }

    #[test]
    fn pos_clamps_negative_dip() {
        // t - 4: negative before t=4.
        let f = Curve::affine(int(-4), int(1));
        let p = f.pos();
        assert_eq!(p.eval(int(0)), int(0));
        assert_eq!(p.eval(int(4)), int(0));
        assert_eq!(p.eval(int(6)), int(2));
        assert_eq!(p, Curve::rate_latency(int(1), int(4)));
    }

    #[test]
    fn sum_and_min_all() {
        let curves = [
            Curve::token_bucket(int(1), int(1)),
            Curve::token_bucket(int(2), rat(1, 2)),
            Curve::token_bucket(int(4), rat(1, 4)),
        ];
        let s = Curve::sum(curves.iter());
        assert_eq!(s.eval(int(0)), int(7));
        assert_eq!(s.final_slope(), rat(7, 4));
        let m = Curve::min_all(curves.iter());
        assert!(m.is_concave());
        assert_eq!(m.eval(int(0)), int(1));
    }
}
