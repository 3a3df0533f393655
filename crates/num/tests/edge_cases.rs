//! Edge-case tests for `Rat`: overflow paths, rounding helpers, and
//! boundary values the property tests' small generators never reach.

use dnc_num::{gcd_i128, int, rat, NumError, Rat};

#[test]
fn checked_ops_detect_overflow() {
    let huge = Rat::new(i128::MAX - 1, 1);
    assert!(huge.checked_add(huge).is_none());
    assert!(huge.checked_mul(huge).is_none());
    assert!(huge.checked_add(Rat::ONE).is_some());
    // Cross-reduction saves structurally-reducible products.
    let a = Rat::new(i128::MAX / 3, 5);
    let b = Rat::new(5, i128::MAX / 3);
    assert_eq!(a.checked_mul(b), Some(Rat::ONE));
}

#[test]
fn large_value_ordering() {
    let a = Rat::new(i128::MAX / 2, 3);
    let b = Rat::new(i128::MAX / 2 - 1, 3);
    assert!(b < a);
    assert!(a == a);
}

#[test]
fn ceil_to_denom_grid() {
    assert_eq!(rat(5, 3).ceil_to_denom(4), rat(7, 4));
    assert_eq!(rat(7, 4).ceil_to_denom(4), rat(7, 4), "grid points fixed");
    assert_eq!(Rat::ZERO.ceil_to_denom(1000), Rat::ZERO);
    assert_eq!(rat(-5, 3).ceil_to_denom(4), rat(-6, 4).ceil_to_denom(4));
    assert_eq!(rat(-5, 3).ceil_to_denom(4), rat(-3, 2));
    // Coarser grid rounds up further.
    assert_eq!(rat(5, 3).ceil_to_denom(1), int(2));
}

#[test]
fn ceil_to_denom_never_decreases() {
    for n in -50i128..50 {
        for d in 1i128..8 {
            let x = Rat::new(n, d);
            for g in [1i128, 2, 3, 16, 4096] {
                let r = x.ceil_to_denom(g);
                assert!(r >= x, "{x} rounded down to {r}");
                assert!(r - x < Rat::new(1, g), "{x} over-rounded to {r}");
            }
        }
    }
}

#[test]
fn powi_extremes() {
    assert_eq!(Rat::TWO.powi(20), int(1 << 20));
    assert_eq!(Rat::TWO.powi(-20), Rat::new(1, 1 << 20));
    assert_eq!(Rat::ONE.powi(1_000), Rat::ONE);
    assert_eq!(int(-1).powi(3), int(-1));
    assert_eq!(int(-1).powi(4), int(1));
}

#[test]
fn signum_and_zero_edge() {
    assert_eq!(Rat::ZERO.signum(), 0);
    assert_eq!(rat(-1, 7).signum(), -1);
    assert!(!Rat::ZERO.is_positive() && !Rat::ZERO.is_negative());
    assert_eq!(-Rat::ZERO, Rat::ZERO);
}

#[test]
fn parse_whitespace_and_signs() {
    assert_eq!("  3/4 ".parse::<Rat>().unwrap(), rat(3, 4));
    assert_eq!("-0".parse::<Rat>().unwrap(), Rat::ZERO);
    assert_eq!("3/-4".parse::<Rat>().unwrap(), rat(-3, 4));
    assert!("".parse::<Rat>().is_err());
    assert!("1/".parse::<Rat>().is_err());
    assert!("/2".parse::<Rat>().is_err());
    assert!(".".parse::<Rat>().is_err());
}

#[test]
fn parse_decimal_edge() {
    assert_eq!("0.0".parse::<Rat>().unwrap(), Rat::ZERO);
    assert_eq!("10.50".parse::<Rat>().unwrap(), rat(21, 2));
    assert_eq!("-.5".parse::<Rat>().unwrap(), rat(-1, 2));
    // Over-long fractional parts are rejected rather than silently lossy.
    assert!("0.1234567890123456789012345678901".parse::<Rat>().is_err());
}

#[test]
fn hash_consistency() {
    use std::collections::HashSet;
    let mut set = HashSet::new();
    set.insert(rat(2, 4));
    assert!(set.contains(&rat(1, 2)), "reduced forms hash equal");
    set.insert(rat(1, 3));
    set.insert(rat(2, 6));
    assert_eq!(set.len(), 2);
}

#[test]
fn sum_of_empty_iterator() {
    let v: Vec<Rat> = vec![];
    assert_eq!(v.iter().sum::<Rat>(), Rat::ZERO);
    assert_eq!(v.into_iter().product::<Rat>(), Rat::ONE);
}

#[test]
fn assign_ops() {
    let mut x = rat(1, 2);
    x += rat(1, 3);
    assert_eq!(x, rat(5, 6));
    x -= rat(1, 6);
    assert_eq!(x, rat(2, 3));
    x *= int(3);
    assert_eq!(x, int(2));
    x /= int(4);
    assert_eq!(x, rat(1, 2));
}

#[test]
#[should_panic(expected = "division by zero")]
fn div_by_zero_panics() {
    let _ = Rat::ONE / Rat::ZERO;
}

#[test]
#[should_panic(expected = "recip of zero")]
fn recip_zero_panics() {
    let _ = Rat::ZERO.recip();
}

#[test]
#[should_panic(expected = "lo > hi")]
fn clamp_bad_range_panics() {
    let _ = Rat::ONE.clamp(int(2), int(1));
}

// The range is symmetric: a reduced numerator or denominator of ±2¹²⁷
// is overflow, so no sign flip can wrap at `i128::MIN`.

const MIN_LITERAL: &str = "-170141183460469231731687303715884105728";

#[test]
#[should_panic(expected = "Rat overflow")]
fn from_int_min_is_overflow() {
    // Its negation and `abs` would wrap back to `i128::MIN`.
    let _ = Rat::from_int(i128::MIN);
}

#[test]
fn negation_and_abs_at_the_range_ends() {
    let lo = Rat::from_int(-i128::MAX);
    assert_eq!(-lo, Rat::from_int(i128::MAX));
    assert_eq!(lo.abs(), Rat::from_int(i128::MAX));
}

#[test]
fn floor_ceil_at_the_range_ends() {
    let x = Rat::new(-i128::MAX, 2);
    assert_eq!(x.floor(), -(1 << 126));
    assert_eq!(x.ceil(), 1 - (1 << 126));
    assert_eq!((-x).floor(), (1 << 126) - 1);
    assert_eq!((-x).ceil(), 1 << 126);
}

#[test]
#[should_panic(expected = "Rat overflow")]
fn new_with_min_denominator_is_overflow() {
    // 3/-2¹²⁷ reduces to -3/2¹²⁷, whose denominator is out of range.
    let _ = Rat::new(3, i128::MIN);
}

#[test]
fn new_reduces_min_parts() {
    assert_eq!(Rat::new(0, i128::MIN), Rat::ZERO);
    assert_eq!(Rat::new(i128::MIN, i128::MIN), Rat::ONE);
    assert_eq!(Rat::new(i128::MIN, 2), Rat::from_int(-(1 << 126)));
    assert_eq!(Rat::new(i128::MIN, -4), Rat::from_int(1 << 125));
}

#[test]
fn gcd_is_never_negative() {
    assert_eq!(gcd_i128(0, i128::MIN), 1u128 << 127);
    assert_eq!(gcd_i128(i128::MIN, i128::MIN), 1u128 << 127);
    assert_eq!(gcd_i128(i128::MIN, 6), 2);
    assert_eq!(gcd_i128(-(1 << 100), 1 << 64), 1u128 << 64);
}

#[test]
fn recip_keeps_the_denominator_positive() {
    let r = Rat::new(-1, i128::MAX);
    assert_eq!(r.recip(), Rat::from_int(-i128::MAX));
    assert_eq!(r.recip().denom(), 1);
    let s = Rat::new(-7, 3);
    assert_eq!(s.recip(), Rat::new(-3, 7));
    assert!(s.recip().denom() > 0);
}

#[test]
fn from_str_rejects_out_of_range_literals() {
    assert!(MIN_LITERAL.parse::<Rat>().is_err());
    assert!(format!("1/{}", &MIN_LITERAL).parse::<Rat>().is_err());
    assert!(format!("{MIN_LITERAL}.5").parse::<Rat>().is_err());
    // Values that reduce back into range still parse.
    assert_eq!(
        format!("{MIN_LITERAL}/2").parse::<Rat>().unwrap(),
        Rat::from_int(-(1 << 126))
    );
    assert_eq!(
        format!("{MIN_LITERAL}/{MIN_LITERAL}")
            .parse::<Rat>()
            .unwrap(),
        Rat::ONE
    );
}

#[test]
fn results_at_min_are_overflow() {
    let lo = Rat::from_int(-i128::MAX);
    assert_eq!(lo.checked_add(-Rat::ONE), None);
    assert_eq!(lo.try_sub(Rat::ONE), Err(NumError::Overflow));
    let half = Rat::from_int(-(1 << 126));
    assert_eq!(half.checked_mul(Rat::TWO), None);
    assert_eq!(half.try_div(Rat::new(1, 2)), Err(NumError::Overflow));
    // One step inside the range still succeeds.
    assert_eq!(lo.checked_add(Rat::ONE), Some(Rat::from_int(1 - i128::MAX)));
}

#[test]
#[should_panic(expected = "Rat overflow")]
fn operator_reaching_min_panics() {
    let _ = Rat::from_int(-i128::MAX) - Rat::ONE;
}

#[test]
fn representation_is_two_i128_words() {
    assert_eq!(std::mem::size_of::<Rat>(), 32);
}
