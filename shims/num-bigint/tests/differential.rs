//! Differential tests: shim `BigUint` arithmetic against u128-scale
//! references and known-answer vectors, plus bit-identity of the
//! Montgomery kernels with a square-and-multiply reference over random
//! odd moduli.
//!
//! These run as an integration test so they follow the active cargo
//! profile — the underflow-panic cases below regress the release-mode
//! bug where `sub_mag` only `debug_assert!`ed that no borrow remained.

use num_bigint::BigUint;
use num_integer::Integer;
use num_traits::{One, ToPrimitive, Zero};
use proptest::prelude::*;

/// Builds a `BigUint` from little-endian limbs through public API only.
fn from_le_limbs(limbs: &[u64]) -> BigUint {
    let mut acc = BigUint::zero();
    for &l in limbs.iter().rev() {
        acc = (acc << 64usize) + BigUint::from(l);
    }
    acc
}

fn to_u128(x: &BigUint) -> u128 {
    let bytes = x.to_bytes_be();
    assert!(bytes.len() <= 16, "value exceeds u128");
    let mut buf = [0u8; 16];
    buf[16 - bytes.len()..].copy_from_slice(&bytes);
    u128::from_be_bytes(buf)
}

/// Reference `base^exp mod m` by square-and-multiply over the public
/// `*` and `%` alone.
fn ladder(base: &BigUint, exp: &BigUint, m: &BigUint) -> BigUint {
    let (mut acc, mut square) = (BigUint::one() % m, base % m);
    for i in 0..exp.bits() {
        if exp.bit(i) {
            acc = &acc * &square % m;
        }
        square = &square * &square % m;
    }
    acc
}

/// Reference gcd: Euclid with one division a step, the kernel the
/// binary gcd replaced.
fn euclid(a: &BigUint, b: &BigUint) -> BigUint {
    let (mut a, mut b) = (a.clone(), b.clone());
    while !b.is_zero() {
        let r = a.div_rem(&b).1;
        a = b;
        b = r;
    }
    a
}

/// Reference `base^exp mod m` over u128 intermediates (`m` fits u64).
fn ref_modpow(base: u64, exp: u64, m: u64) -> u64 {
    assert!(m > 1);
    let m = m as u128;
    let mut acc = 1u128;
    let mut b = base as u128 % m;
    let mut e = exp;
    while e > 0 {
        if e & 1 == 1 {
            acc = acc * b % m;
        }
        b = b * b % m;
        e >>= 1;
    }
    acc as u64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn add_sub_mul_match_u128_reference(a: u64, b: u64, c: u64, d: u64) {
        // Halve the operands so the sum still fits a u128.
        let x = ((a as u128) << 64 | b as u128) >> 1;
        let y = ((c as u128) << 64 | d as u128) >> 1;
        prop_assert_eq!(to_u128(&(BigUint::from(x) + BigUint::from(y))), x + y);
        let (hi, lo) = (x.max(y), x.min(y));
        prop_assert_eq!(to_u128(&(BigUint::from(hi) - BigUint::from(lo))), hi - lo);
        // 64×64 products fit u128 exactly.
        prop_assert_eq!(to_u128(&(BigUint::from(a) * BigUint::from(c))), a as u128 * c as u128);
    }

    #[test]
    fn div_rem_matches_u128_reference(a: u64, b: u64, c: u64, d: u64) {
        let x = (a as u128) << 64 | b as u128;
        let y = (c as u128) << 64 | d as u128;
        prop_assume!(y != 0);
        let (q, r) = BigUint::from(x).div_rem(&BigUint::from(y));
        prop_assert_eq!(to_u128(&q), x / y);
        prop_assert_eq!(to_u128(&r), x % y);
    }

    #[test]
    fn div_rem_reconstructs_exactly(
        q in prop::collection::vec(any::<u64>(), 1..5),
        v in prop::collection::vec(any::<u64>(), 2..5),
        r_seed: u64,
    ) {
        // Known-answer by construction: u = q·v + r with r < v recovers
        // (q, r) exactly. Saturated limbs in q push qhat estimates to the
        // boundary where the Knuth-D correction and add-back fire.
        let v = from_le_limbs(&v) + 2u8;
        let q = from_le_limbs(&q);
        let r = BigUint::from(r_seed) % &v;
        let u = &q * &v + &r;
        let (q2, r2) = u.div_rem(&v);
        prop_assert_eq!(q2, q);
        prop_assert_eq!(r2, r);
    }

    #[test]
    fn modpow_matches_u128_reference(base: u64, exp: u64, m: u64) {
        // Both parities of m, so this crosses the Montgomery/ladder
        // dispatch boundary in `BigUint::modpow`.
        prop_assume!(m > 1);
        let got = BigUint::from(base).modpow(&BigUint::from(exp), &BigUint::from(m));
        prop_assert_eq!(got.to_u64().unwrap(), ref_modpow(base, exp, m));
    }

    #[test]
    fn montgomery_bit_identical_to_the_ladder_on_odd_moduli(
        m in prop::collection::vec(any::<u64>(), 1..6),
        b in prop::collection::vec(any::<u64>(), 1..7),
        e in prop::collection::vec(any::<u64>(), 1..3),
    ) {
        let mut m = from_le_limbs(&m);
        m.set_bit(0, true); // force odd
        prop_assume!(!m.is_one());
        let b = from_le_limbs(&b);
        let e = from_le_limbs(&e);
        prop_assert_eq!(b.modpow(&e, &m), ladder(&b, &e, &m), "m={:?}", m);
    }

    #[test]
    fn even_modulus_falls_back_and_stays_correct(
        m in prop::collection::vec(any::<u64>(), 1..4),
        b in prop::collection::vec(any::<u64>(), 1..5),
        e_small in 0u64..512,
    ) {
        let mut m = from_le_limbs(&m);
        m.set_bit(0, false); // force even
        prop_assume!(!m.is_zero());
        let b = from_le_limbs(&b);
        // Naive reference ladder built from mul + rem only.
        let mut expect = BigUint::one() % &m;
        for _ in 0..e_small {
            expect = &expect * &b % &m;
        }
        prop_assert_eq!(b.modpow(&BigUint::from(e_small), &m), expect);
    }

    #[test]
    fn fixed_base_table_bit_identical_to_the_ladder(
        m in prop::collection::vec(any::<u64>(), 2..5),
        b in prop::collection::vec(any::<u64>(), 1..6),
        e in prop::collection::vec(any::<u64>(), 1..4),
    ) {
        let mut m = from_le_limbs(&m);
        m.set_bit(0, true); // force odd
        prop_assume!(!m.is_one());
        let (b, e) = (from_le_limbs(&b), from_le_limbs(&e));
        let ctx = num_bigint::MontgomeryCtx::new(&m).expect("odd modulus");
        // Capacity sized to the exponent, so the table path (not the
        // fallback ladder) is what gets exercised.
        let table = ctx.fixed_base(&b, 64 * 4);
        prop_assert_eq!(table.pow(&e), ladder(&b, &e, &m), "m={:?}", m);
    }

    #[test]
    fn binary_gcd_matches_euclid(
        a in prop::collection::vec(any::<u64>(), 0..18),
        b in prop::collection::vec(any::<u64>(), 0..18),
        common in prop::collection::vec(any::<u64>(), 0..3),
        twos in 0usize..130,
        equal: bool,
    ) {
        // Sparse low limbs (zeros, even values) and a shared factor with
        // a shared power of two; sometimes one operand twice.
        let shared = (from_le_limbs(&common) + 1u8) << twos;
        let a = from_le_limbs(&a) * &shared;
        let b = if equal { a.clone() } else { from_le_limbs(&b) * &shared };
        let g = a.gcd(&b);
        prop_assert_eq!(&g, &euclid(&a, &b));
        prop_assert_eq!(&g, &b.gcd(&a));
        prop_assert_eq!(a.gcd(&BigUint::zero()), a.clone());
        prop_assert_eq!(BigUint::zero().gcd(&b), b);
    }

    #[test]
    fn checked_sub_agrees_with_ordering(
        a in prop::collection::vec(any::<u64>(), 1..4),
        b in prop::collection::vec(any::<u64>(), 1..4),
    ) {
        let (a, b) = (from_le_limbs(&a), from_le_limbs(&b));
        match a.checked_sub(&b) {
            Some(d) => {
                prop_assert!(a >= b);
                prop_assert_eq!(d + &b, a);
            }
            None => prop_assert!(a < b),
        }
    }
}

/// Known-answer vectors for the Knuth-D add-back branch: the family
/// `(B^(2k) − 1) / (B^k + 1)` with `B = 2⁶⁴` forces the trial quotient
/// one too high at every step.
#[test]
fn knuth_add_back_family() {
    for k in 1usize..4 {
        let u = (BigUint::one() << (128 * k)) - 1u8;
        let v = (BigUint::one() << (64 * k)) + 1u8;
        let (q, r) = u.div_rem(&v);
        assert_eq!(&q * &v + &r, u, "k={k}");
        assert!(r < v, "k={k}");
    }
    // Hacker's Delight-style vector: divisor top limb exactly 2⁶³.
    let v = from_le_limbs(&[1, 1 << 63]);
    let u = from_le_limbs(&[u64::MAX, u64::MAX - 1, 1 << 63]);
    let (q, r) = u.div_rem(&v);
    assert_eq!(&q * &v + &r, u);
    assert!(r < v);
}

/// Release-profile regression: before this PR the borrow check in
/// `sub_mag` was a `debug_assert!`, so `cargo test --release` would see a
/// silently wrapped magnitude here instead of a panic.
#[test]
#[should_panic(expected = "BigUint subtraction overflow")]
fn sub_underflow_panics_in_every_profile() {
    let small = BigUint::from(41u8);
    let big = (BigUint::one() << 128usize) + 1u8;
    let _ = small - big;
}

#[test]
fn checked_sub_underflow_is_none_not_garbage() {
    let small = BigUint::from(41u8);
    let big = (BigUint::one() << 128usize) + 1u8;
    assert_eq!(small.checked_sub(&big), None);
    assert_eq!(big.checked_sub(&small), Some(big.clone() - BigUint::from(41u8)));
    // Equal operands subtract to zero, not None.
    assert_eq!(big.checked_sub(&big), Some(BigUint::zero()));
}
