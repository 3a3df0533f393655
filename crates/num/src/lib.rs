#![warn(missing_docs)]

//! # dnc-num — exact rational arithmetic for deterministic network calculus
//!
//! Every quantity in a deterministic network-calculus computation (bucket
//! sizes, token rates, link rates, delay bounds, curve breakpoints) is the
//! result of finitely many field operations on the input parameters. Doing
//! those operations in floating point makes bound comparisons (`Integrated ≤
//! Decomposed`, `bound ≥ simulated delay`) fuzzy; doing them over exact
//! rationals makes them decidable, which the test-suite of the workspace
//! leans on heavily.
//!
//! [`Rat`] is a reduced fraction over `i128` with denominators kept strictly
//! positive, in the symmetric range `|num|, den ≤ i128::MAX`. Reduced
//! fractions are unique, so equality and hashing are structural, and how a
//! result was reduced never shows in its value.
//!
//! Arithmetic reduces as it goes, and takes a word-sized path whenever both
//! operands' parts fit in `i64` (nearly every operand an analysis sees):
//!
//! * gcds are binary (shift-and-subtract) on `u64`, and on `u128` only for
//!   wide operands;
//! * `a/b + c/d` follows Knuth (TAOCP §4.5.1): one gcd `g` of the
//!   denominators, then a reduction by `gcd(t, g)` of the new numerator
//!   `t`. Equal denominators skip the first gcd, coprime ones the second,
//!   and two integers need none;
//! * `a/b · c/d` cross-reduces `a/d` and `c/b`; the product is then already
//!   in lowest terms. Two integers take one multiply;
//! * `recip` swaps numerator and denominator without a gcd, so division
//!   costs what multiplication does;
//! * comparison compares numerators over equal denominators, and the exact
//!   `i128` cross products of word-sized parts; otherwise it widens the
//!   cross products to 256 bits, so it is total and panic-free for *every*
//!   pair of representable rationals.
//!
//! Overflow only occurs for genuinely astronomical values; when it does, the
//! operators panic with a `Rat overflow` diagnostic rather than silently
//! wrapping, and the fallible `try_add`/`try_sub`/`try_mul`/`try_div`
//! variants return [`NumError::Overflow`] for callers that want to degrade
//! gracefully. A numerator of `i128::MIN` counts as overflow, so negation,
//! `abs` and `recip` never wrap.
//!
//! ```
//! use dnc_num::Rat;
//! let third = Rat::new(1, 3);
//! assert_eq!(third + third + third, Rat::ONE);
//! assert_eq!(Rat::new(2, 4), Rat::new(1, 2));
//! assert!(Rat::new(-1, 2) < Rat::ZERO);
//! ```

mod rat;

pub use rat::{gcd_i128, NumError, Rat, RatParseError};

/// Convenience constructor: `rat(n, d)` is `Rat::new(n, d)`.
#[inline]
pub fn rat<N: Into<i128>, D: Into<i128>>(num: N, den: D) -> Rat {
    Rat::new(num.into(), den.into())
}

/// Convenience constructor for integral rationals.
#[inline]
pub fn int<N: Into<i128>>(num: N) -> Rat {
    Rat::from_int(num.into())
}
