//! Property tests: `Rat` behaves like the field of rationals with a total
//! order compatible with arithmetic.

use dnc_num::Rat;
use proptest::prelude::*;
use std::cmp::Ordering;

fn arb_rat() -> impl Strategy<Value = Rat> {
    (-10_000i128..10_000, 1i128..10_000).prop_map(|(n, d)| Rat::new(n, d))
}

/// The plain algorithms the word-sized fast paths replaced, kept as the
/// oracle: Euclid's gcd over `i128`, the general `checked_add` and
/// `checked_mul` (reduce by `Rat::new` at the end), and the 256-bit
/// cross-product `cmp`. Fractions are `(num, den)` pairs.
mod reference {
    use std::cmp::Ordering;

    pub fn gcd(a: i128, b: i128) -> i128 {
        let (mut a, mut b) = (a.unsigned_abs() as i128, b.unsigned_abs() as i128);
        while b != 0 {
            let t = a % b;
            a = b;
            b = t;
        }
        a
    }

    pub fn new(num: i128, den: i128) -> (i128, i128) {
        let sign = if den < 0 { -1 } else { 1 };
        let g = gcd(num, den);
        if g == 0 {
            return (0, 1);
        }
        (sign * (num / g), sign * (den / g))
    }

    pub fn add((a, b): (i128, i128), (c, d): (i128, i128)) -> Option<(i128, i128)> {
        let g = gcd(b, d);
        let (db, dd) = (b / g, d / g);
        let num = a.checked_mul(dd)?.checked_add(c.checked_mul(db)?)?;
        let den = b.checked_mul(dd)?;
        Some(new(num, den))
    }

    pub fn mul((a, b): (i128, i128), (c, d): (i128, i128)) -> Option<(i128, i128)> {
        let g1 = gcd(a, d);
        let g2 = gcd(c, b);
        let num = (a / g1).checked_mul(c / g2)?;
        let den = (b / g2).checked_mul(d / g1)?;
        Some(new(num, den))
    }

    fn wide_mul_abs(a: i128, b: i128) -> (u128, u128) {
        let (a, b) = (a.unsigned_abs(), b.unsigned_abs());
        let (ah, al) = (a >> 64, a & u64::MAX as u128);
        let (bh, bl) = (b >> 64, b & u64::MAX as u128);
        let (ll, lh, hl, hh) = (al * bl, al * bh, ah * bl, ah * bh);
        let (mid, mid_carry) = lh.overflowing_add(hl);
        let (low, low_carry) = ll.overflowing_add(mid << 64);
        let high = hh + (mid >> 64) + ((mid_carry as u128) << 64) + low_carry as u128;
        (high, low)
    }

    pub fn cmp((a, b): (i128, i128), (c, d): (i128, i128)) -> Ordering {
        let g = gcd(b, d);
        let (a1, b1, a2, b2) = (a, d / g, c, b / g);
        let s1 = a1.signum() * b1.signum();
        let s2 = a2.signum() * b2.signum();
        if s1 != s2 {
            return s1.cmp(&s2);
        }
        let (m1, m2) = (wide_mul_abs(a1, b1), wide_mul_abs(a2, b2));
        if s1 >= 0 {
            m1.cmp(&m2)
        } else {
            m2.cmp(&m1)
        }
    }
}

/// One numerator or denominator: small, at ±2⁶³ or 2⁶⁴, a power-of-two
/// multiple (shared factors for the gcds to find), or anything up to 2¹²⁶.
fn arb_part() -> impl Strategy<Value = i128> {
    (
        0u8..8,
        -40i128..40,
        0u32..100,
        -(1i128 << 126)..(1i128 << 126),
    )
        .prop_map(|(kind, small, shift, wide)| match kind {
            0..=2 => small,
            3 => (1i128 << 63) + small,
            4 => small - (1i128 << 63),
            5 => (1i128 << 64) + small,
            6 => small << shift,
            _ => wide,
        })
}

/// A denominator-safe `(num, den)` pair of raw parts.
fn arb_parts() -> impl Strategy<Value = (i128, i128)> {
    (arb_part(), arb_part()).prop_map(|(n, d)| (n, if d == 0 { 1 } else { d }))
}

/// A fraction drawn from [`arb_parts`], reduced by the reference.
fn arb_wide_rat() -> impl Strategy<Value = Rat> {
    arb_parts().prop_map(|(n, d)| {
        let (n, d) = reference::new(n, d);
        Rat::new(n, d)
    })
}

fn parts(r: Rat) -> (i128, i128) {
    (r.numer(), r.denom())
}

/// A reference result the symmetric range can hold (no `i128::MIN` part).
fn in_range(r: Option<(i128, i128)>) -> Option<(i128, i128)> {
    r.filter(|&(n, d)| n != i128::MIN && d != i128::MIN)
}

proptest! {
    #[test]
    fn add_commutative(a in arb_rat(), b in arb_rat()) {
        prop_assert_eq!(a + b, b + a);
    }

    #[test]
    fn add_associative(a in arb_rat(), b in arb_rat(), c in arb_rat()) {
        prop_assert_eq!((a + b) + c, a + (b + c));
    }

    #[test]
    fn mul_commutative(a in arb_rat(), b in arb_rat()) {
        prop_assert_eq!(a * b, b * a);
    }

    #[test]
    fn mul_associative(a in arb_rat(), b in arb_rat(), c in arb_rat()) {
        prop_assert_eq!((a * b) * c, a * (b * c));
    }

    #[test]
    fn distributive(a in arb_rat(), b in arb_rat(), c in arb_rat()) {
        prop_assert_eq!(a * (b + c), a * b + a * c);
    }

    #[test]
    fn additive_inverse(a in arb_rat()) {
        prop_assert_eq!(a + (-a), Rat::ZERO);
        prop_assert_eq!(a - a, Rat::ZERO);
    }

    #[test]
    fn multiplicative_inverse(a in arb_rat()) {
        prop_assume!(!a.is_zero());
        prop_assert_eq!(a * a.recip(), Rat::ONE);
        prop_assert_eq!(a / a, Rat::ONE);
    }

    #[test]
    fn order_translation_invariant(a in arb_rat(), b in arb_rat(), c in arb_rat()) {
        prop_assert_eq!(a < b, a + c < b + c);
    }

    #[test]
    fn order_scaling(a in arb_rat(), b in arb_rat(), c in arb_rat()) {
        prop_assume!(c.is_positive());
        prop_assert_eq!(a < b, a * c < b * c);
    }

    #[test]
    fn floor_ceil_bracket(a in arb_rat()) {
        let f = Rat::from_int(a.floor());
        let c = Rat::from_int(a.ceil());
        prop_assert!(f <= a && a <= c);
        prop_assert!(a - f < Rat::ONE);
        prop_assert!(c - a < Rat::ONE);
        if a.is_integer() {
            prop_assert_eq!(f, a);
            prop_assert_eq!(c, a);
        } else {
            prop_assert_eq!(c - f, Rat::ONE);
        }
    }

    #[test]
    fn display_parse_round_trip(a in arb_rat()) {
        let s = a.to_string();
        prop_assert_eq!(s.parse::<Rat>().unwrap(), a);
    }

    #[test]
    fn to_f64_consistent_with_order(a in arb_rat(), b in arb_rat()) {
        // f64 is a (lossy) order homomorphism for these small values.
        if a < b {
            prop_assert!(a.to_f64() <= b.to_f64());
        }
    }

    #[test]
    fn abs_signum(a in arb_rat()) {
        prop_assert_eq!(a.abs(), if a.is_negative() { -a } else { a });
        prop_assert_eq!(Rat::from_int(a.signum()) * a.abs(), a);
    }

    #[test]
    fn min_max_consistent(a in arb_rat(), b in arb_rat()) {
        prop_assert_eq!(a.min(b) + a.max(b), a + b);
        prop_assert!(a.min(b) <= a.max(b));
    }
}

proptest! {
    // The fast paths against the reference, over operands from small
    // words to 2¹²⁶.
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn new_matches_reference((n, d) in arb_parts()) {
        prop_assert_eq!(parts(Rat::new(n, d)), reference::new(n, d));
    }

    #[test]
    fn add_sub_match_reference(a in arb_wide_rat(), b in arb_wide_rat()) {
        if let Some(sum) = in_range(reference::add(parts(a), parts(b))) {
            prop_assert_eq!(parts(a + b), sum);
        }
        if let Some(diff) = in_range(reference::add(parts(a), parts(-b))) {
            prop_assert_eq!(parts(a - b), diff);
        }
        if let Some(back) = a.checked_add(b).and_then(|sum| sum.checked_add(-b)) {
            // Where the reference overflows, a success is still exact.
            prop_assert_eq!(back, a);
        }
    }

    #[test]
    fn mul_div_match_reference(a in arb_wide_rat(), b in arb_wide_rat()) {
        if let Some(prod) = in_range(reference::mul(parts(a), parts(b))) {
            prop_assert_eq!(parts(a * b), prod);
        }
        if !b.is_zero() {
            let recip = reference::new(b.denom(), b.numer());
            if let Some(quot) = in_range(reference::mul(parts(a), recip)) {
                prop_assert_eq!(parts(a / b), quot);
            }
        }
    }

    #[test]
    fn cmp_matches_reference(a in arb_wide_rat(), b in arb_wide_rat()) {
        prop_assert_eq!(a.cmp(&b), reference::cmp(parts(a), parts(b)));
        prop_assert_eq!(a.cmp(&a), Ordering::Equal);
    }
}
