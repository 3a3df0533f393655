//! The [`Rat`] type: a reduced `i128` fraction with total order and exact
//! field arithmetic.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::iter::{Product, Sum};
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use std::str::FromStr;

/// Arithmetic errors surfaced by the fallible [`Rat`] operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NumError {
    /// An intermediate or final value left the `i128`-reduced-fraction range.
    Overflow,
    /// Division by zero (or `recip` of zero).
    DivisionByZero,
}

impl fmt::Display for NumError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NumError::Overflow => write!(f, "rational overflow (value outside i128 range)"),
            NumError::DivisionByZero => write!(f, "rational division by zero"),
        }
    }
}

impl std::error::Error for NumError {}

/// Greatest common divisor of the magnitudes of two `i128`s (`gcd(0, 0) =
/// 0`). Unsigned, so it is never negative: `gcd(0, i128::MIN)` is `2¹²⁷`.
pub fn gcd_i128(a: i128, b: i128) -> u128 {
    gcd_u128(a.unsigned_abs(), b.unsigned_abs())
}

/// Binary (Stein) gcd on one machine word: shifts and subtractions only.
fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    if a == 0 || b == 0 {
        return a | b;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

/// Binary gcd on `u128`, handing over to [`gcd_u64`] once both operands
/// fit in a word. A word-sized operand against a wide one takes a single
/// Euclid step first, so a small divisor never walks the wide value bit
/// by bit.
fn gcd_u128(a: u128, b: u128) -> u128 {
    let (small, big) = if a <= b { (a, b) } else { (b, a) };
    if big >> 64 == 0 {
        return u128::from(gcd_u64(small as u64, big as u64));
    }
    if small == 0 {
        return big;
    }
    if small >> 64 == 0 {
        return u128::from(gcd_u64(small as u64, (big % small) as u64));
    }
    let shift = (small | big).trailing_zeros();
    let (mut a, mut b) = (small >> small.trailing_zeros(), big);
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        if b >> 64 == 0 {
            return u128::from(gcd_u64(a as u64, b as u64)) << shift;
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

/// `x / g` for `1 ≤ g ≤ i64::MAX` (every caller's `g` divides a word-sized
/// denominator): no division at all for `g = 1`, a 64-bit one when `x`
/// fits in a word too.
#[inline]
fn div_by(x: i128, g: u64) -> i128 {
    if g == 1 {
        x
    } else if let Ok(w) = i64::try_from(x) {
        i128::from(w / g as i64)
    } else {
        x / i128::from(g)
    }
}

/// An exact rational number.
///
/// Invariants: `den > 0`, `gcd(num, den) == 1` (with `0` stored as `0/1`),
/// and `num != i128::MIN`: the range is symmetric, so negation, `abs` and
/// `recip` never wrap. A result whose reduced numerator or denominator
/// would be `±2¹²⁷` counts as overflow.
/// Because of the invariants, derived structural equality would be correct,
/// but `Eq`/`Ord`/`Hash` are implemented explicitly to make the contract
/// obvious and independent of field order.
#[derive(Clone, Copy, Debug)]
pub struct Rat {
    num: i128,
    den: i128,
}

impl Rat {
    /// Zero.
    pub const ZERO: Rat = Rat { num: 0, den: 1 };
    /// One.
    pub const ONE: Rat = Rat { num: 1, den: 1 };
    /// Two.
    pub const TWO: Rat = Rat { num: 2, den: 1 };

    /// Construct `num/den`, reducing to lowest terms.
    ///
    /// # Panics
    /// Panics if `den == 0`, and with `Rat overflow` when the reduced
    /// numerator or denominator is `±2¹²⁷`.
    #[inline]
    pub fn new(num: i128, den: i128) -> Rat {
        assert!(den != 0, "Rat::new: zero denominator (num={num})");
        Rat::reduce(num, den)
            // audit: allow(panic, documented panic: the reduced fraction is outside the symmetric range)
            .unwrap_or_else(|| panic!("Rat overflow in Rat::new({num}, {den})"))
    }

    /// `num/den` (`den != 0`) in lowest terms, or `None` when it is out of
    /// range. Integers return at once; word-sized parts reduce in 64 bits.
    fn reduce(num: i128, den: i128) -> Option<Rat> {
        if den == 1 {
            return Rat::checked_from_int(num);
        }
        let negative = (num < 0) != (den < 0);
        let (n, d) = (num.unsigned_abs(), den.unsigned_abs());
        let (n, d) = match (u64::try_from(n), u64::try_from(d)) {
            (Ok(n), Ok(d)) => {
                let g = gcd_u64(n, d);
                (u128::from(n / g), u128::from(d / g))
            }
            _ => {
                let g = gcd_u128(n, d);
                (n / g, d / g)
            }
        };
        Rat::from_parts(negative, n, d)
    }

    /// `±n/d` from parts already in lowest terms, or `None` when either
    /// magnitude is outside the symmetric range `|·| ≤ i128::MAX`.
    #[inline]
    fn from_parts(negative: bool, n: u128, d: u128) -> Option<Rat> {
        let (n, den) = (i128::try_from(n).ok()?, i128::try_from(d).ok()?);
        Some(Rat {
            num: if negative { -n } else { n },
            den,
        })
    }

    /// `n/1`, or `None` for `i128::MIN`.
    #[inline]
    fn checked_from_int(n: i128) -> Option<Rat> {
        (n != i128::MIN).then_some(Rat { num: n, den: 1 })
    }

    /// The numerator and denominator as machine words when both fit
    /// (`den ≤ i64::MAX`): a product of two such parts fits in `i128`.
    #[inline]
    fn words(self) -> Option<(i64, u64)> {
        let num = i64::try_from(self.num).ok()?;
        let den = i64::try_from(self.den).ok()?;
        Some((num, den as u64))
    }

    /// Construct an integer-valued rational.
    ///
    /// # Panics
    /// Panics with `Rat overflow` for `i128::MIN`, the one `i128` outside
    /// the symmetric range.
    #[inline]
    pub const fn from_int(n: i128) -> Rat {
        assert!(n != i128::MIN, "Rat overflow in Rat::from_int(i128::MIN)");
        Rat { num: n, den: 1 }
    }

    /// Numerator (sign-carrying, reduced).
    #[inline]
    pub const fn numer(self) -> i128 {
        self.num
    }

    /// Denominator (strictly positive, reduced).
    #[inline]
    pub const fn denom(self) -> i128 {
        self.den
    }

    /// `true` iff the value is an integer.
    #[inline]
    pub const fn is_integer(self) -> bool {
        self.den == 1
    }

    /// `true` iff the value is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.num == 0
    }

    /// `true` iff the value is strictly positive.
    #[inline]
    pub const fn is_positive(self) -> bool {
        self.num > 0
    }

    /// `true` iff the value is strictly negative.
    #[inline]
    pub const fn is_negative(self) -> bool {
        self.num < 0
    }

    /// Sign of the value as `-1`, `0`, or `1`.
    #[inline]
    pub const fn signum(self) -> i128 {
        self.num.signum()
    }

    /// Absolute value.
    #[inline]
    pub fn abs(self) -> Rat {
        if self.num < 0 {
            -self
        } else {
            self
        }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    /// Panics on zero.
    #[inline]
    pub fn recip(self) -> Rat {
        assert!(self.num != 0, "Rat::recip of zero");
        // Swapping a reduced fraction keeps it reduced; only the sign
        // moves to the new numerator. `|num| ≤ i128::MAX` by the invariant.
        Rat {
            num: self.den * self.num.signum(),
            den: self.num.abs(),
        }
    }

    /// Largest integer `<= self`.
    pub fn floor(self) -> i128 {
        self.num.div_euclid(self.den)
    }

    /// Smallest integer `>= self`.
    pub fn ceil(self) -> i128 {
        -((-self).floor())
    }

    /// Approximate as `f64` (for plotting / CSV output only — never used in
    /// bound computations).
    #[inline]
    pub fn to_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// The smaller of `self` and `other`.
    #[inline]
    pub fn min(self, other: Rat) -> Rat {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The larger of `self` and `other`.
    #[inline]
    pub fn max(self, other: Rat) -> Rat {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Clamp into `[lo, hi]`.
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    pub fn clamp(self, lo: Rat, hi: Rat) -> Rat {
        assert!(lo <= hi, "Rat::clamp: lo > hi");
        self.max(lo).min(hi)
    }

    /// Checked addition; `None` on overflow.
    ///
    /// Knuth, TAOCP §4.5.1: with `d1 = gcd(b, d)`, the numerator
    /// `t = a·(d/d1) + c·(b/d1)` of `a/b + c/d` shares at most `gcd(t, d1)`
    /// with the denominator, so one more gcd reduces the sum. Equal
    /// denominators skip the first gcd, and coprime ones the second.
    pub fn checked_add(self, rhs: Rat) -> Option<Rat> {
        if let (Some((a, b)), Some((c, d))) = (self.words(), rhs.words()) {
            return Some(add_words(a, b, c, d));
        }
        let (a, b, c, d) = (self.num, self.den, rhs.num, rhs.den);
        let (d1, bq, dq) = if b == d {
            (b, 1, 1)
        } else {
            let g = gcd_u128(b as u128, d as u128) as i128;
            (g, b / g, d / g)
        };
        let t = a.checked_mul(dq)?.checked_add(c.checked_mul(bq)?)?;
        let d2 = gcd_u128(t.unsigned_abs(), d1 as u128);
        let den = bq.checked_mul(d / d2 as i128)?;
        Rat::from_parts(t < 0, t.unsigned_abs() / d2, den as u128)
    }

    /// Checked multiplication; `None` on overflow.
    ///
    /// Cross-reduces `a/d` and `c/b` before multiplying; since `a/b` and
    /// `c/d` are already reduced, the product of the reduced parts is in
    /// lowest terms, so it needs no third gcd.
    pub fn checked_mul(self, rhs: Rat) -> Option<Rat> {
        if let (Some((a, b)), Some((c, d))) = (self.words(), rhs.words()) {
            return Some(mul_words(a, b, c, d));
        }
        let (a, b, c, d) = (self.num, self.den, rhs.num, rhs.den);
        if b == 1 && d == 1 {
            return Rat::checked_from_int(a.checked_mul(c)?);
        }
        let g1 = gcd_u128(a.unsigned_abs(), d as u128) as i128;
        let g2 = gcd_u128(c.unsigned_abs(), b as u128) as i128;
        let num = (a / g1).checked_mul(c / g2)?;
        let den = (b / g2).checked_mul(d / g1)?;
        Rat::from_parts(num < 0, num.unsigned_abs(), den as u128)
    }

    /// Fallible addition: [`NumError::Overflow`] instead of panicking.
    #[inline]
    pub fn try_add(self, rhs: Rat) -> Result<Rat, NumError> {
        self.checked_add(rhs).ok_or(NumError::Overflow)
    }

    /// Fallible subtraction: [`NumError::Overflow`] instead of panicking.
    #[inline]
    pub fn try_sub(self, rhs: Rat) -> Result<Rat, NumError> {
        self.checked_add(-rhs).ok_or(NumError::Overflow)
    }

    /// Fallible multiplication: [`NumError::Overflow`] instead of panicking.
    #[inline]
    pub fn try_mul(self, rhs: Rat) -> Result<Rat, NumError> {
        self.checked_mul(rhs).ok_or(NumError::Overflow)
    }

    /// Fallible division: [`NumError::DivisionByZero`] on a zero divisor,
    /// [`NumError::Overflow`] when the quotient leaves the `i128` range.
    #[inline]
    pub fn try_div(self, rhs: Rat) -> Result<Rat, NumError> {
        if rhs.is_zero() {
            return Err(NumError::DivisionByZero);
        }
        self.checked_mul(rhs.recip()).ok_or(NumError::Overflow)
    }

    /// Saturating addition: clamps to the representable extremes on
    /// overflow instead of panicking, with a debug assertion so tests
    /// still notice. Only appropriate where the caller tolerates a
    /// conservative bound (e.g. "infinite" burst placeholders).
    pub fn saturating_add(self, rhs: Rat) -> Rat {
        self.checked_add(rhs).unwrap_or_else(|| {
            debug_assert!(false, "Rat::saturating_add overflow: {self} + {rhs}");
            // Additive overflow requires both operands on the same side of
            // zero, so the sign of `self` picks the saturation end.
            // `MIN + 1` keeps the result negatable.
            if self.num < 0 {
                Rat::from_int(i128::MIN + 1)
            } else {
                Rat::from_int(i128::MAX)
            }
        })
    }

    /// Integer power (negative exponents allowed for nonzero values).
    pub fn powi(self, mut exp: i32) -> Rat {
        let mut base = if exp < 0 {
            exp = -exp;
            self.recip()
        } else {
            self
        };
        let mut acc = Rat::ONE;
        while exp > 0 {
            if exp & 1 == 1 {
                acc *= base;
            }
            exp >>= 1;
            if exp > 0 {
                base = base * base;
            }
        }
        acc
    }

    /// Linear interpolation `self + t * (other - self)`.
    pub fn lerp(self, other: Rat, t: Rat) -> Rat {
        self + t * (other - self)
    }

    /// The smallest multiple of `1/den` at or above `self` — used to keep
    /// denominators bounded in iterative computations where rounding *up*
    /// preserves soundness (e.g. fixed-point delay iterations).
    ///
    /// # Panics
    /// Panics unless `den > 0`.
    pub fn ceil_to_denom(self, den: i128) -> Rat {
        assert!(den > 0, "ceil_to_denom: den must be positive");
        let scaled = self * Rat::from_int(den);
        Rat::new(scaled.ceil(), den)
    }
}

impl Default for Rat {
    fn default() -> Self {
        Rat::ZERO
    }
}

impl PartialEq for Rat {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        // Reduced with positive denominator => structural equality is exact.
        self.num == other.num && self.den == other.den
    }
}

impl Eq for Rat {}

impl Hash for Rat {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.num.hash(state);
        self.den.hash(state);
    }
}

impl PartialOrd for Rat {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Full 256-bit magnitude of `|a| * |b|` as `(high, low)` `u128` halves.
fn wide_mul_abs(a: i128, b: i128) -> (u128, u128) {
    let (a, b) = (a.unsigned_abs(), b.unsigned_abs());
    let (ah, al) = (a >> 64, a & u64::MAX as u128);
    let (bh, bl) = (b >> 64, b & u64::MAX as u128);
    // Schoolbook on 64-bit halves; each partial product fits in u128.
    let ll = al * bl;
    let lh = al * bh;
    let hl = ah * bl;
    let hh = ah * bh;
    let (mid, mid_carry) = lh.overflowing_add(hl);
    let (low, low_carry) = ll.overflowing_add(mid << 64);
    let high = hh + (mid >> 64) + ((mid_carry as u128) << 64) + low_carry as u128;
    (high, low)
}

/// Compare the exact signed products `a1*b1` and `a2*b2` without overflow,
/// widening to 256 bits.
fn cmp_products(a1: i128, b1: i128, a2: i128, b2: i128) -> Ordering {
    let s1 = a1.signum() * b1.signum();
    let s2 = a2.signum() * b2.signum();
    if s1 != s2 {
        return s1.cmp(&s2);
    }
    let m1 = wide_mul_abs(a1, b1);
    let m2 = wide_mul_abs(a2, b2);
    if s1 >= 0 {
        m1.cmp(&m2)
    } else {
        m2.cmp(&m1)
    }
}

/// `a/b + c/d` for word-sized parts (`b, d > 0`): every intermediate of
/// Knuth's form fits in `i128` and so does the result, so nothing is
/// checked.
fn add_words(a: i64, b: u64, c: i64, d: u64) -> Rat {
    let (d1, bq, dq) = if b == d {
        (b, 1, 1)
    } else {
        match gcd_u64(b, d) {
            1 => (1, b, d),
            g => (g, b / g, d / g),
        }
    };
    let t = i128::from(a) * i128::from(dq) + i128::from(c) * i128::from(bq);
    let d2 = if d1 == 1 {
        1
    } else {
        gcd_u128(t.unsigned_abs(), u128::from(d1)) as u64
    };
    Rat {
        num: div_by(t, d2),
        den: i128::from(bq) * div_by(i128::from(d), d2),
    }
}

/// `a/b · c/d` for word-sized parts (`b, d > 0`): the cross-reduced
/// product of two words fits in `i128`, so nothing is checked. Two
/// integers cost one multiply.
fn mul_words(a: i64, b: u64, c: i64, d: u64) -> Rat {
    let g1 = if d == 1 {
        1
    } else {
        gcd_u64(a.unsigned_abs(), d)
    };
    let g2 = if b == 1 {
        1
    } else {
        gcd_u64(c.unsigned_abs(), b)
    };
    Rat {
        num: div_by(i128::from(a), g1) * div_by(i128::from(c), g2),
        den: div_by(i128::from(b), g2) * div_by(i128::from(d), g1),
    }
}

impl Ord for Rat {
    fn cmp(&self, other: &Self) -> Ordering {
        // a/b <=> c/d  (b, d > 0)  <=>  a*d <=> c*b.
        if self.den == other.den {
            return self.num.cmp(&other.num);
        }
        if let (Some((a, b)), Some((c, d))) = (self.words(), other.words()) {
            // Word-sized parts: both cross products fit in `i128`.
            let ad = i128::from(a) * i128::from(d);
            return ad.cmp(&(i128::from(c) * i128::from(b)));
        }
        // Otherwise cross-reduce, then compare the exact 256-bit cross
        // products — `cmp` is total for every pair of representable
        // rationals, never panicking even where `checked_mul` would
        // report overflow.
        let g = gcd_u128(self.den as u128, other.den as u128) as i128;
        cmp_products(self.num, other.den / g, other.num, self.den / g)
    }
}

impl Add for Rat {
    type Output = Rat;
    #[inline]
    fn add(self, rhs: Rat) -> Rat {
        self.checked_add(rhs)
            // audit: allow(panic, operator impls cannot return Result; fallible callers use try_add)
            .unwrap_or_else(|| panic!("Rat overflow in {self} + {rhs}"))
    }
}

impl Sub for Rat {
    type Output = Rat;
    #[inline]
    fn sub(self, rhs: Rat) -> Rat {
        self + (-rhs)
    }
}

impl Mul for Rat {
    type Output = Rat;
    #[inline]
    fn mul(self, rhs: Rat) -> Rat {
        self.checked_mul(rhs)
            // audit: allow(panic, operator impls cannot return Result; fallible callers use try_mul)
            .unwrap_or_else(|| panic!("Rat overflow in {self} * {rhs}"))
    }
}

impl Div for Rat {
    type Output = Rat;
    #[inline]
    fn div(self, rhs: Rat) -> Rat {
        assert!(!rhs.is_zero(), "Rat division by zero: {self} / 0");
        self * rhs.recip()
    }
}

impl Neg for Rat {
    type Output = Rat;
    #[inline]
    fn neg(self) -> Rat {
        Rat {
            num: -self.num,
            den: self.den,
        }
    }
}

impl AddAssign for Rat {
    fn add_assign(&mut self, rhs: Rat) {
        *self = *self + rhs;
    }
}

impl SubAssign for Rat {
    fn sub_assign(&mut self, rhs: Rat) {
        *self = *self - rhs;
    }
}

impl MulAssign for Rat {
    fn mul_assign(&mut self, rhs: Rat) {
        *self = *self * rhs;
    }
}

impl DivAssign for Rat {
    fn div_assign(&mut self, rhs: Rat) {
        *self = *self / rhs;
    }
}

impl Sum for Rat {
    fn sum<I: Iterator<Item = Rat>>(iter: I) -> Rat {
        iter.fold(Rat::ZERO, |a, b| a + b)
    }
}

impl<'a> Sum<&'a Rat> for Rat {
    fn sum<I: Iterator<Item = &'a Rat>>(iter: I) -> Rat {
        iter.fold(Rat::ZERO, |a, b| a + *b)
    }
}

impl Product for Rat {
    fn product<I: Iterator<Item = Rat>>(iter: I) -> Rat {
        iter.fold(Rat::ONE, |a, b| a * b)
    }
}

macro_rules! impl_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Rat {
            #[inline]
            fn from(v: $t) -> Rat { Rat::from_int(v as i128) }
        }
    )*};
}
impl_from_int!(i8, i16, i32, i64, i128, u8, u16, u32, u64);

impl From<(i128, i128)> for Rat {
    #[inline]
    fn from((n, d): (i128, i128)) -> Rat {
        Rat::new(n, d)
    }
}

impl fmt::Display for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

/// Error returned by [`Rat::from_str`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RatParseError(pub String);

impl fmt::Display for RatParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid rational literal: {}", self.0)
    }
}

impl std::error::Error for RatParseError {}

impl FromStr for Rat {
    type Err = RatParseError;

    /// Parses `"3"`, `"-3/4"`, or decimal literals like `"0.25"`. A
    /// literal whose value is out of range (such as `-2¹²⁷`) is an error.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bad = || RatParseError(s.to_string());
        let s = s.trim();
        if let Some((n, d)) = s.split_once('/') {
            let n: i128 = n.trim().parse().map_err(|_| bad())?;
            let d: i128 = d.trim().parse().map_err(|_| bad())?;
            if d == 0 {
                return Err(bad());
            }
            Rat::reduce(n, d).ok_or_else(bad)
        } else if let Some((int_part, frac_part)) = s.split_once('.') {
            let neg = int_part.trim_start().starts_with('-');
            let i: i128 = if int_part.is_empty() || int_part == "-" {
                0
            } else {
                int_part.parse().map_err(|_| bad())?
            };
            if frac_part.is_empty() || !frac_part.bytes().all(|b| b.is_ascii_digit()) {
                return Err(bad());
            }
            if frac_part.len() > 30 {
                return Err(bad());
            }
            let f: i128 = frac_part.parse().map_err(|_| bad())?;
            let scale = 10i128.checked_pow(frac_part.len() as u32).ok_or_else(bad)?;
            let frac = Rat::new(f, scale);
            let int = Rat::checked_from_int(i).ok_or_else(bad)?;
            int.checked_add(if neg { -frac } else { frac })
                .ok_or_else(bad)
        } else {
            let n: i128 = s.parse().map_err(|_| bad())?;
            Rat::checked_from_int(n).ok_or_else(bad)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_reduces() {
        assert_eq!(Rat::new(2, 4), Rat::new(1, 2));
        assert_eq!(Rat::new(-2, 4), Rat::new(1, -2));
        assert_eq!(Rat::new(0, 7), Rat::ZERO);
        assert_eq!(Rat::new(6, -4).numer(), -3);
        assert_eq!(Rat::new(6, -4).denom(), 2);
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = Rat::new(1, 0);
    }

    #[test]
    fn arithmetic_basics() {
        let a = Rat::new(1, 2);
        let b = Rat::new(1, 3);
        assert_eq!(a + b, Rat::new(5, 6));
        assert_eq!(a - b, Rat::new(1, 6));
        assert_eq!(a * b, Rat::new(1, 6));
        assert_eq!(a / b, Rat::new(3, 2));
        assert_eq!(-a, Rat::new(-1, 2));
    }

    #[test]
    fn ordering() {
        assert!(Rat::new(1, 3) < Rat::new(1, 2));
        assert!(Rat::new(-1, 2) < Rat::new(-1, 3));
        assert!(Rat::new(7, 7) == Rat::ONE);
        let mut v = vec![Rat::new(3, 4), Rat::ZERO, Rat::new(-5, 2), Rat::ONE];
        v.sort();
        assert_eq!(
            v,
            vec![Rat::new(-5, 2), Rat::ZERO, Rat::new(3, 4), Rat::ONE]
        );
    }

    #[test]
    fn floor_ceil() {
        assert_eq!(Rat::new(7, 2).floor(), 3);
        assert_eq!(Rat::new(7, 2).ceil(), 4);
        assert_eq!(Rat::new(-7, 2).floor(), -4);
        assert_eq!(Rat::new(-7, 2).ceil(), -3);
        assert_eq!(Rat::from_int(5).floor(), 5);
        assert_eq!(Rat::from_int(5).ceil(), 5);
        assert_eq!(Rat::ZERO.floor(), 0);
    }

    #[test]
    fn recip_and_powi() {
        assert_eq!(Rat::new(3, 4).recip(), Rat::new(4, 3));
        assert_eq!(Rat::new(2, 3).powi(3), Rat::new(8, 27));
        assert_eq!(Rat::new(2, 3).powi(-2), Rat::new(9, 4));
        assert_eq!(Rat::new(5, 7).powi(0), Rat::ONE);
    }

    #[test]
    fn parse() {
        assert_eq!("3".parse::<Rat>().unwrap(), Rat::from_int(3));
        assert_eq!("-3/4".parse::<Rat>().unwrap(), Rat::new(-3, 4));
        assert_eq!("0.25".parse::<Rat>().unwrap(), Rat::new(1, 4));
        assert_eq!("-0.5".parse::<Rat>().unwrap(), Rat::new(-1, 2));
        assert_eq!("1.125".parse::<Rat>().unwrap(), Rat::new(9, 8));
        assert!("1/0".parse::<Rat>().is_err());
        assert!("abc".parse::<Rat>().is_err());
        assert!("1.2.3".parse::<Rat>().is_err());
    }

    #[test]
    fn display_round_trips() {
        for r in [
            Rat::new(-7, 3),
            Rat::ZERO,
            Rat::from_int(42),
            Rat::new(1, 9),
        ] {
            let s = r.to_string();
            assert_eq!(s.parse::<Rat>().unwrap(), r);
        }
    }

    #[test]
    fn sums_and_products() {
        let v = [Rat::new(1, 2), Rat::new(1, 3), Rat::new(1, 6)];
        assert_eq!(v.iter().sum::<Rat>(), Rat::ONE);
        assert_eq!(v.iter().copied().product::<Rat>(), Rat::new(1, 36));
    }

    #[test]
    fn min_max_clamp_lerp() {
        let a = Rat::new(1, 2);
        let b = Rat::new(2, 3);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        assert_eq!(Rat::from_int(9).clamp(Rat::ZERO, Rat::ONE), Rat::ONE);
        assert_eq!(a.lerp(b, Rat::ZERO), a);
        assert_eq!(a.lerp(b, Rat::ONE), b);
        assert_eq!(Rat::ZERO.lerp(Rat::from_int(4), Rat::new(1, 4)), Rat::ONE);
    }

    #[test]
    fn gcd_edge_cases() {
        assert_eq!(gcd_i128(0, 0), 0);
        assert_eq!(gcd_i128(0, 5), 5);
        assert_eq!(gcd_i128(-4, 6), 2);
        assert_eq!(gcd_i128(12, -18), 6);
    }

    #[test]
    fn to_f64_approx() {
        assert!((Rat::new(1, 3).to_f64() - 0.333333).abs() < 1e-5);
    }

    // A pair of rationals whose cross products overflow i128. The
    // numerators are coprime to both denominators (2^126 + 1 ≡ 2 mod 3,
    // 2^126 - 1 ≡ 3 mod 5), so neither fraction reduces and a*d, c*b
    // are ~2^126 * small — past i128::MAX.
    fn huge_pair() -> (Rat, Rat) {
        let big = 1i128 << 126;
        (Rat::new(big + 1, 3), Rat::new(big - 1, 5))
    }

    #[test]
    fn checked_ops_report_overflow_cleanly() {
        let (a, b) = huge_pair();
        assert_eq!(a.checked_mul(b), None);
        assert_eq!(a.try_mul(b), Err(NumError::Overflow));
        let big = Rat::from_int(i128::MAX / 2 + 1);
        assert_eq!(big.checked_add(big), None);
        assert_eq!(big.try_add(big), Err(NumError::Overflow));
        assert_eq!(big.try_sub(-big), Err(NumError::Overflow));
        // Division overflowing via the reciprocal product.
        assert_eq!(a.try_div(b.recip()), Err(NumError::Overflow));
        assert_eq!(Rat::ONE.try_div(Rat::ZERO), Err(NumError::DivisionByZero));
        // Non-overflowing cases still succeed.
        assert_eq!(Rat::new(1, 2).try_add(Rat::new(1, 3)), Ok(Rat::new(5, 6)));
        assert_eq!(Rat::new(1, 2).try_mul(Rat::new(2, 3)), Ok(Rat::new(1, 3)));
    }

    #[test]
    fn cmp_is_total_under_overflow() {
        // These comparisons overflow i128 cross-multiplication; the widening
        // path must still order them correctly (and must not panic).
        let (a, b) = huge_pair();
        assert!(a > b); // big/3 > (big-1)/7
        assert!(-a < -b);
        assert!(-a < b);
        assert_eq!(a.cmp(&a), Ordering::Equal);
        // Values differing only in the 256-bit low half.
        let x = Rat::new((1i128 << 126) + 1, (1i128 << 125) - 1);
        let y = Rat::new((1i128 << 126) - 1, (1i128 << 125) + 3);
        assert!(x > y);
        assert!(x.min(y) == y && x.max(y) == x);
    }

    #[test]
    fn wide_mul_abs_matches_checked_mul_when_in_range() {
        for (a, b) in [
            (0i128, 5i128),
            (7, -9),
            (i128::MAX, 1),
            (i128::MAX, -1),
            ((1 << 64) + 17, (1 << 63) - 3),
            (-(1 << 90), 1 << 30),
        ] {
            if let Some(p) = a.checked_mul(b) {
                assert_eq!(wide_mul_abs(a, b), (0, p.unsigned_abs()), "{a} * {b}");
            }
        }
        // And one genuinely 256-bit case: (2^127 - 1)^2.
        let (hi, lo) = wide_mul_abs(i128::MAX, i128::MAX);
        // (2^127 - 1)^2 = 2^254 - 2^128 + 1.
        assert_eq!(hi, (1u128 << 126) - 1);
        assert_eq!(lo, 1);
    }

    #[test]
    fn saturating_add_clamps_in_release() {
        // debug_assert fires under `cargo test`, so only probe the clamp in
        // release-style builds.
        if cfg!(debug_assertions) {
            let v = Rat::new(1, 4).saturating_add(Rat::new(1, 4));
            assert_eq!(v, Rat::new(1, 2));
        } else {
            let big = Rat::from_int(i128::MAX / 2 + 1);
            assert_eq!(big.saturating_add(big), Rat::from_int(i128::MAX));
            // The negative end saturates at -i128::MAX: the range is
            // symmetric, so i128::MIN itself is already out of range.
            let neg = Rat::from_int(i128::MIN + 1);
            assert_eq!(neg.saturating_add(neg), Rat::from_int(i128::MIN + 1));
        }
    }
}
