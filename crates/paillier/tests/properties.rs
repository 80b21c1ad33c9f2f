//! Property-based tests for the homomorphic substrate.
//!
//! A single 512-bit keypair is shared across cases (keygen dominates cost);
//! the properties quantify over plaintexts, scalars and slot values.

use std::sync::OnceLock;

use gridmine_paillier::slots::{Slot, SlotLayout};
use gridmine_paillier::{CounterMsg, HomCipher, Keypair, MockCipher, PaillierCtx, TagKey};
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

    #[test]
    fn slot_pack_unpack_roundtrip(
        a in 0u64..(1 << 40),
        b in 0u64..(1 << 32),
        c in 0u64..(1 << 32),
    ) {
        let layout = SlotLayout::new(vec![
            Slot::counter(48, 40),
            Slot::modular(40, 32),
            Slot::counter(40, 32),
        ]);
        let packed = layout.pack(&[a, b, c]).unwrap();
        prop_assert_eq!(layout.unpack(&packed).unwrap().values, vec![a, b, c]);
    }

    #[test]
    fn slot_addition_is_slotwise(
        a in 0u64..(1 << 30), b in 0u64..(1 << 30),
        x in 0u64..(1 << 30), y in 0u64..(1 << 30),
    ) {
        let layout = SlotLayout::new(vec![Slot::counter(40, 31), Slot::counter(40, 31)]);
        let sum = layout.pack(&[a, x]).unwrap() + layout.pack(&[b, y]).unwrap();
        prop_assert_eq!(layout.unpack(&sum).unwrap().values, vec![a + b, x + y]);
    }

    #[test]
    fn modular_slot_wraps_exactly(a: u32, b: u32) {
        let layout = SlotLayout::new(vec![Slot::modular(40, 32)]);
        let sum = layout.pack(&[a as u64]).unwrap() + layout.pack(&[b as u64]).unwrap();
        prop_assert_eq!(layout.unpack(&sum).unwrap().values[0], a.wrapping_add(b) as u64);
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
        let a = CounterMsg::seal(&e, &key, &xs, &[]);
        let b = CounterMsg::seal(&e, &key, &ys, &[]);
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
        let a = CounterMsg::seal(&e, &key, &xs, &[]);
        let mut tampered = a.clone();
        tampered.fields[idx] = e.add(&tampered.fields[idx], &e.encrypt_i64(delta));
        prop_assert!(tampered.open(&d, &key, 3).is_err());
    }

    #[test]
    fn tampered_side_band_slot_never_verifies(
        side in prop::collection::vec(any::<u32>(), 7),
        delta in 1u32..1_000,
        idx in 0usize..7,
    ) {
        // The same attack through the packing: a well-formed tuple that
        // is zero but for one slot, added onto the side-band ciphertext.
        let (e, d) = handles();
        let key = TagKey::derive(9, 99);
        let a = CounterMsg::seal(&e, &key, &[-4, 4], &side);
        prop_assert_eq!(a.fields.len(), 3);
        let mut bump = vec![0u32; 7];
        bump[idx] = delta;
        let mut cts = Vec::new();
        e.encrypt_slots(&bump, &mut cts);
        let mut tampered = a.clone();
        tampered.fields[2] = e.add(&tampered.fields[2], &cts[0]);
        prop_assert!(tampered.open(&d, &key, 2).is_err());
        prop_assert!(a.open(&d, &key, 2).is_ok());
    }
}
