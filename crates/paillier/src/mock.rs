//! A plaintext stand-in cipher for paper-scale simulation.
//!
//! The HPDC'04 evaluation simulates 2,000+ resources; executing real
//! Paillier modular exponentiations for every protocol message at that
//! scale measures modexp throughput, not the algorithm (the paper reports
//! *steps*, not wall-clock, for the same reason). [`MockCipher`] implements
//! [`HomCipher`] over `i64` with a nonce that mimics probabilistic
//! encryption, so the identical generic protocol code runs at simulation
//! scale. Integration tests assert that Paillier and Mock runs produce
//! byte-identical protocol decisions.
//!
//! Its algebra is a group like Paillier's multiplication mod `n²`: `A+`,
//! `A−` and scalar multiplication act on the value and on the nonce as
//! wrapping addition, subtraction and multiplication, on the value as on
//! integers mod 2⁶⁴ as Paillier's act on plaintexts mod `n`. So a value a
//! peer picked wraps instead of panicking its receiver, and an identity
//! the algebra makes hold between Paillier ciphertexts — an aggregate
//! that moved by one term, `full′ ⊕ old = full ⊕ new` — holds between the
//! mock's too.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::HomCipher;

/// Mock ciphertext: the plaintext plus a nonce that changes on every
/// encryption/rerandomization so equality behaves like a probabilistic
/// cipher's.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MockCt {
    value: i64,
    nonce: u64,
}

impl MockCt {
    /// The carried plaintext (test-only peeking; protocol code never calls
    /// this).
    pub fn peek(&self) -> i64 {
        self.value
    }
}

/// The mock cipher context. Cloning shares the nonce counter, mirroring how
/// Paillier handles share an RNG.
#[derive(Clone, Debug)]
pub struct MockCipher {
    nonce: Arc<AtomicU64>,
    decrypting: bool,
}

impl MockCipher {
    /// Full-capability handle (controller role).
    pub fn new(seed: u64) -> Self {
        MockCipher { nonce: Arc::new(AtomicU64::new(seed)), decrypting: true }
    }

    /// A handle that refuses to decrypt, for role-fidelity tests of broker
    /// code paths.
    pub fn broker_view(&self) -> Self {
        MockCipher { nonce: Arc::clone(&self.nonce), decrypting: false }
    }

    fn fresh_nonce(&self) -> u64 {
        // Weyl sequence: cheap, never repeats within a simulation.
        self.nonce.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed)
    }
}

impl HomCipher for MockCipher {
    type Ct = MockCt;

    #[inline]
    fn encrypt_i64(&self, m: i64) -> MockCt {
        MockCt { value: m, nonce: self.fresh_nonce() }
    }

    #[inline]
    fn decrypt_i64(&self, c: &MockCt) -> i64 {
        assert!(
            self.decrypting,
            "this handle has no decryption capability (broker/accountant side)"
        );
        c.value
    }

    #[inline]
    fn add(&self, a: &MockCt, b: &MockCt) -> MockCt {
        MockCt { value: a.value.wrapping_add(b.value), nonce: a.nonce.wrapping_add(b.nonce) }
    }

    #[inline]
    fn sub(&self, a: &MockCt, b: &MockCt) -> MockCt {
        MockCt { value: a.value.wrapping_sub(b.value), nonce: a.nonce.wrapping_sub(b.nonce) }
    }

    #[inline]
    fn scalar(&self, m: i64, c: &MockCt) -> MockCt {
        MockCt { value: c.value.wrapping_mul(m), nonce: c.nonce.wrapping_mul(m as u64) }
    }

    #[inline]
    fn rerandomize(&self, c: &MockCt) -> MockCt {
        MockCt { value: c.value, nonce: self.fresh_nonce() }
    }

    fn can_decrypt(&self) -> bool {
        self.decrypting
    }

    fn ct_bytes(_c: &MockCt) -> usize {
        // What a real 1024-bit Paillier ciphertext would occupy on the
        // wire (n² = 2048 bits). The mock carries one value per
        // ciphertext, so a simulation's byte totals model the per-field
        // format: `6 + d` ciphertexts for a counter of degree `d`, its
        // `5 + d` values and the tag as one wide value. A 1024-bit
        // deployment packs the values and the tag's two digits 22 to a
        // ciphertext — one ciphertext a counter at any degree up to 15 —
        // so its bandwidth is the simulated figure times `1 / (6 + d)`.
        256
    }

    fn ct_encode(c: &MockCt) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        out.extend_from_slice(&c.value.to_le_bytes());
        out.extend_from_slice(&c.nonce.to_le_bytes());
        out
    }

    fn ct_decode(bytes: &[u8]) -> Option<MockCt> {
        let value: [u8; 8] = bytes.get(..8)?.try_into().ok()?;
        let nonce: [u8; 8] = bytes.get(8..16)?.try_into().ok()?;
        if bytes.len() != 16 {
            return None;
        }
        Some(MockCt { value: i64::from_le_bytes(value), nonce: u64::from_le_bytes(nonce) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algebra_matches_integers() {
        let c = MockCipher::new(1);
        let a = c.encrypt_i64(10);
        let b = c.encrypt_i64(-4);
        assert_eq!(c.decrypt_i64(&c.add(&a, &b)), 6);
        assert_eq!(c.decrypt_i64(&c.sub(&a, &b)), 14);
        assert_eq!(c.decrypt_i64(&c.scalar(-2, &a)), -20);
    }

    #[test]
    fn the_algebra_is_a_group_on_the_nonce_too() {
        let c = MockCipher::new(5);
        let [a, b, x, y] = [3, -4, 10, 7].map(|m| c.encrypt_i64(m));
        // Sums commute and associate, and a difference undoes a sum.
        assert_eq!(c.add(&a, &b), c.add(&b, &a));
        assert_eq!(c.add(&c.add(&a, &b), &x), c.add(&a, &c.add(&b, &x)));
        assert_eq!(c.sub(&c.add(&a, &b), &b), a);
        assert_eq!(c.scalar(3, &a), c.add(&a, &c.add(&a, &a)));
        // An aggregate whose one term is replaced moves by the difference.
        let old = c.add(&c.add(&a, &x), &b);
        let new = c.add(&c.add(&a, &y), &b);
        assert_eq!(c.add(&new, &x), c.add(&old, &y));
        assert_ne!(c.add(&new, &x), c.add(&old, &x));
    }

    #[test]
    fn encryption_looks_probabilistic() {
        let c = MockCipher::new(1);
        assert_ne!(c.encrypt_i64(5), c.encrypt_i64(5));
        let x = c.encrypt_i64(5);
        let y = c.rerandomize(&x);
        assert_ne!(x, y);
        assert_eq!(c.decrypt_i64(&y), 5);
    }

    #[test]
    #[should_panic(expected = "no decryption capability")]
    fn broker_view_cannot_decrypt() {
        let c = MockCipher::new(1);
        let ct = c.encrypt_i64(3);
        let _ = c.broker_view().decrypt_i64(&ct);
    }

    #[test]
    fn ct_bytes_round_trip() {
        let c = MockCipher::new(7);
        let ct = c.encrypt_i64(-42);
        let bytes = MockCipher::ct_encode(&ct);
        assert_eq!(bytes.len(), 16);
        assert_eq!(MockCipher::ct_decode(&bytes), Some(ct));
        assert_eq!(MockCipher::ct_decode(&bytes[..15]), None, "truncated");
        let mut long = bytes.clone();
        long.push(0);
        assert_eq!(MockCipher::ct_decode(&long), None, "trailing garbage");
    }

    #[test]
    fn overflow_wraps() {
        let c = MockCipher::new(1);
        let big = c.encrypt_i64(i64::MAX);
        let one = c.encrypt_i64(1);
        assert_eq!(c.decrypt_i64(&c.add(&big, &one)), i64::MIN);
        assert_eq!(c.decrypt_i64(&c.sub(&c.add(&big, &one), &one)), i64::MAX, "a group still");
        assert_eq!(c.decrypt_i64(&c.sub(&c.encrypt_i64(i64::MIN), &one)), i64::MAX);
        assert_eq!(c.decrypt_i64(&c.scalar(2, &big)), -2);
    }
}
