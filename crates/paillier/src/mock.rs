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

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::HomCipher;

/// Mock ciphertext: the plaintext plus a nonce that changes on every
/// encryption/rerandomization so equality behaves like a probabilistic
/// cipher's.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
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

    fn encrypt_i64(&self, m: i64) -> MockCt {
        MockCt { value: m, nonce: self.fresh_nonce() }
    }

    fn decrypt_i64(&self, c: &MockCt) -> i64 {
        assert!(
            self.decrypting,
            "this handle has no decryption capability (broker/accountant side)"
        );
        c.value
    }

    fn add(&self, a: &MockCt, b: &MockCt) -> MockCt {
        MockCt {
            value: a.value.checked_add(b.value).expect("mock counter overflow"),
            nonce: a.nonce.wrapping_mul(31).wrapping_add(b.nonce),
        }
    }

    fn sub(&self, a: &MockCt, b: &MockCt) -> MockCt {
        MockCt {
            value: a.value.checked_sub(b.value).expect("mock counter overflow"),
            nonce: a.nonce.wrapping_mul(37).wrapping_add(!b.nonce),
        }
    }

    fn scalar(&self, m: i64, c: &MockCt) -> MockCt {
        MockCt {
            value: c.value.checked_mul(m).expect("mock counter overflow"),
            nonce: c.nonce.wrapping_mul(41).wrapping_add(m as u64),
        }
    }

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
        // format: `6 + d` ciphertexts for a counter of degree `d`, tag
        // included. A 1024-bit deployment packs the `3 + d` side-band
        // values 23 to a ciphertext — four ciphertexts a counter at any
        // degree up to 20 — so its bandwidth is the simulated figure
        // times `4 / (6 + d)`.
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
    #[should_panic(expected = "overflow")]
    fn overflow_is_loud() {
        let c = MockCipher::new(1);
        let big = c.encrypt_i64(i64::MAX);
        let one = c.encrypt_i64(1);
        let _ = c.add(&big, &one);
    }
}
