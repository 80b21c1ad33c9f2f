//! Property-based tests for the homomorphic substrate.
//!
//! A single 512-bit keypair is shared across cases (keygen dominates cost);
//! the properties quantify over plaintexts, scalars, slot values and
//! arbitrary residues.

use std::sync::OnceLock;

use gridmine_paillier::{slots, CounterMsg, HomCipher, Keypair, MockCipher, PaillierCtx, TagKey};
use num_bigint::BigUint;
use proptest::prelude::*;

fn keys() -> &'static Keypair {
    static KEYS: OnceLock<Keypair> = OnceLock::new();
    KEYS.get_or_init(|| Keypair::generate_with_seed(512, 0x5EED))
}

fn handles() -> (PaillierCtx, PaillierCtx) {
    (keys().encryptor(), keys().decryptor())
}

// Bounded so products and sums in the properties stay inside i64.
const M: i64 = 1 << 30;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn encryption_roundtrip(m in -M..M) {
        let (e, d) = handles();
        prop_assert_eq!(d.decrypt_i64(&e.encrypt_i64(m)), m);
    }

    #[test]
    fn homomorphic_addition(a in -M..M, b in -M..M) {
        let (e, d) = handles();
        let got = d.decrypt_i64(&e.add(&e.encrypt_i64(a), &e.encrypt_i64(b)));
        prop_assert_eq!(got, a + b);
    }

    #[test]
    fn homomorphic_subtraction(a in -M..M, b in -M..M) {
        let (e, d) = handles();
        let got = d.decrypt_i64(&e.sub(&e.encrypt_i64(a), &e.encrypt_i64(b)));
        prop_assert_eq!(got, a - b);
    }

    #[test]
    fn homomorphic_scalar(a in -M..M, k in -1024i64..1024) {
        let (e, d) = handles();
        let got = d.decrypt_i64(&e.scalar(k, &e.encrypt_i64(a)));
        prop_assert_eq!(got, a * k);
    }

    #[test]
    fn rerandomize_fixes_plaintext(m in -M..M) {
        let (e, d) = handles();
        let c = e.encrypt_i64(m);
        let r = e.rerandomize(&c);
        prop_assert_ne!(&c, &r);
        prop_assert_eq!(d.decrypt_i64(&r), m);
    }

    #[test]
    fn addition_is_commutative_in_plaintext(a in -M..M, b in -M..M, c in -M..M) {
        let (e, d) = handles();
        let (ca, cb, cc) = (e.encrypt_i64(a), e.encrypt_i64(b), e.encrypt_i64(c));
        let left = e.add(&e.add(&ca, &cb), &cc);
        let right = e.add(&ca, &e.add(&cb, &cc));
        prop_assert_eq!(d.decrypt_i64(&left), d.decrypt_i64(&right));
    }

    #[test]
    fn mock_and_paillier_agree(a in -M..M, b in -M..M, k in -100i64..100) {
        let (e, d) = handles();
        let mock = MockCipher::new(3);
        let p = d.decrypt_i64(&e.scalar(k, &e.add(&e.encrypt_i64(a), &e.encrypt_i64(b))));
        let m = mock.decrypt_i64(&mock.scalar(k, &mock.add(&mock.encrypt_i64(a), &mock.encrypt_i64(b))));
        prop_assert_eq!(p, m);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever a broker hands the controller decrypts to some residue
    /// below `n`: each reads, at any width, as a tuple or as an error.
    #[test]
    fn any_residue_unpacks_without_a_panic(
        bytes in prop::collection::vec(any::<u8>(), 0..=64),
        width in 1usize..=12,
    ) {
        let pk = keys().public_key();
        let m = BigUint::from_bytes_be(&bytes) % pk.modulus();
        let mut out = Vec::new();
        match slots::unpack(pk, &m, width, &mut out) {
            Ok(()) => prop_assert_eq!(out.len(), width),
            Err(_) => prop_assert!(out.is_empty()),
        }
    }

    /// What unpacks is a tuple of digits, and it re-packs to the residue it
    /// was read from: the read loses nothing and invents nothing.
    #[test]
    fn what_unpacks_repacks_to_itself(
        bytes in prop::collection::vec(any::<u8>(), 0..=64),
        digits in prop::collection::vec(-(1i64 << 44)..1 << 44, 1..=11),
        raw in any::<bool>(),
    ) {
        let pk = keys().public_key();
        // Half the cases a residue off the wire, half a packed tuple (which
        // a random residue almost never is at width 11).
        let (m, width) = match raw {
            true => (BigUint::from_bytes_be(&bytes) % pk.modulus(), 1 + bytes.len() % 11),
            false => (slots::pack(pk, &digits), digits.len()),
        };
        let mut out = Vec::new();
        if slots::unpack(pk, &m, width, &mut out).is_ok() {
            prop_assert!(out.iter().all(|&d| slots::is_digit(d)));
            prop_assert_eq!(slots::pack(pk, &out), m);
        } else {
            prop_assert!(raw, "a packed tuple of digits always unpacks");
        }
        if !raw {
            prop_assert_eq!(out, digits);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn counter_msg_linear_combination(
        xs in prop::collection::vec(-1_000i64..1_000, 3),
        ys in prop::collection::vec(-1_000i64..1_000, 3),
        k in -50i64..50,
    ) {
        let (e, d) = handles();
        let key = TagKey::derive(3, 99);
        // All three fields signed: the linear algebra takes any sign.
        let a = CounterMsg::seal(&e, &key, &xs);
        let b = CounterMsg::seal(&e, &key, &ys);
        let combo = a.scalar(&e, k).add(&e, &b);
        let opened = combo.open(&d, &key, 3).unwrap();
        for i in 0..3 {
            prop_assert_eq!(opened[i], xs[i] * k + ys[i]);
        }
    }

    #[test]
    fn tampered_counter_never_verifies(
        xs in prop::collection::vec(-1_000i64..1_000, 3),
        delta in 1i64..1_000,
        idx in 0usize..3,
    ) {
        // Adding an unauthenticated increment to one field must break the tag.
        let (e, d) = handles();
        let key = TagKey::derive(3, 99);
        let a = CounterMsg::seal(&e, &key, &xs);
        let mut bump = vec![0i64; 3];
        bump[idx] = delta;
        let mut cts = Vec::new();
        e.encrypt_slots(&bump, &[0, 0], &mut cts);
        let mut tampered = a.clone();
        tampered.fields[0] = e.add(&tampered.fields[0], &cts[0]);
        prop_assert!(tampered.open(&d, &key, 3).is_err());
    }

    #[test]
    fn tampered_side_band_slot_never_verifies(
        side in prop::collection::vec(any::<u32>(), 7),
        delta in 1u32..1_000,
        idx in 0usize..7,
    ) {
        // The same attack on a side-band value, behind two signed ones.
        let (e, d) = handles();
        let key = TagKey::derive(9, 99);
        let values: Vec<i64> = [-4, 4].into_iter().chain(side.iter().map(|&v| i64::from(v))).collect();
        let a = CounterMsg::seal(&e, &key, &values);
        prop_assert_eq!(a.fields.len(), 1);
        let mut bump = vec![0i64; 9];
        bump[2 + idx] = i64::from(delta);
        let mut cts = Vec::new();
        e.encrypt_slots(&bump, &[0, 0], &mut cts);
        let mut tampered = a.clone();
        tampered.fields[0] = e.add(&tampered.fields[0], &cts[0]);
        prop_assert!(tampered.open(&d, &key, 2).is_err());
        prop_assert!(a.open(&d, &key, 2).is_ok());
    }
}
