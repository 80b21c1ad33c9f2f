//! Paillier key material and key generation.
//!
//! The paper's deployment model (§5) splits capabilities three ways:
//! accountants hold the *encryption* side, controllers hold the
//! *decryption* side, and brokers hold nothing — they only ever apply the
//! key-free `A+`/`A−`/rerandomize algebra. [`Keypair::encryptor`],
//! [`Keypair::decryptor`] and [`Keypair::broker_handle`] mint exactly those
//! three capability handles.

use num_bigint::BigUint;
use num_integer::Integer;
use num_traits::One;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

use crate::cipher::PaillierCtx;
use crate::primes::gen_prime_pair;

/// Paillier public key: the modulus `n` plus precomputed `n²`.
///
/// With the standard `g = n + 1` choice, encryption of `m` with randomness
/// `r` is `(1 + m·n) · rⁿ mod n²`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PublicKey {
    pub(crate) n: BigUint,
    pub(crate) n2: BigUint,
    /// `n / 2`, the threshold used to map residues back to signed integers.
    pub(crate) half_n: BigUint,
}

impl PublicKey {
    /// Modulus bit length.
    pub fn bits(&self) -> u64 {
        self.n.bits()
    }

    /// The plaintext modulus `n`.
    pub fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// The ciphertext modulus `n²`.
    pub fn modulus_sq(&self) -> &BigUint {
        &self.n2
    }
}

/// Paillier private key: Carmichael `λ = lcm(p−1, q−1)` and the
/// precomputed `μ = λ⁻¹ mod n` for the `g = n + 1` decryption shortcut,
/// plus the CRT residues that quarter the decryption cost.
///
/// Deliberately not `Debug`: a formatted λ/μ (or the CRT residues, which
/// contain `p` and `q` outright) in a log line or panic message is a full
/// key disclosure.
#[derive(Clone)]
pub struct PrivateKey {
    pub(crate) lambda: BigUint,
    pub(crate) mu: BigUint,
    pub(crate) crt: CrtParams,
}

/// Precomputed values for CRT decryption: work mod `p²` and `q²`
/// separately (each exponentiation is ~8× cheaper than mod `n²`), then
/// recombine — the standard deployment optimization from the Paillier
/// paper's §7. Not `Debug`: it stores the prime factors themselves.
#[derive(Clone)]
pub(crate) struct CrtParams {
    pub(crate) p: BigUint,
    pub(crate) q: BigUint,
    pub(crate) p2: BigUint,
    pub(crate) q2: BigUint,
    /// `p − 1`: the decryption exponent mod `p²`, and the order bound
    /// the key holder's noise exponents reduce by.
    pub(crate) p_minus_1: BigUint,
    /// `q − 1`, likewise mod `q²`.
    pub(crate) q_minus_1: BigUint,
    /// `L_p(g^{p−1} mod p²)⁻¹ mod p`.
    pub(crate) hp: BigUint,
    /// `L_q(g^{q−1} mod q²)⁻¹ mod q`.
    pub(crate) hq: BigUint,
    /// `p⁻¹ mod q` for the recombination.
    pub(crate) p_inv_q: BigUint,
    /// `(p²)⁻¹ mod q²`, recombining a noise factor from its halves.
    pub(crate) p2_inv_q2: BigUint,
}

/// A freshly generated Paillier keypair. Not `Debug` — it carries the
/// private key.
#[derive(Clone)]
pub struct Keypair {
    pub(crate) pk: PublicKey,
    pub(crate) sk: PrivateKey,
    seed: u64,
}

/// Modular inverse via extended Euclid. Returns `None` when not invertible.
pub(crate) fn mod_inverse(a: &BigUint, m: &BigUint) -> Option<BigUint> {
    use num_bigint::BigInt;
    let a = BigInt::from(a.clone());
    let m_int = BigInt::from(m.clone());
    let ext = a.extended_gcd(&m_int);
    if !ext.gcd.is_one() {
        return None;
    }
    let mut x = ext.x % &m_int;
    if x < BigInt::from(0) {
        x += &m_int;
    }
    x.to_biguint()
}

impl Keypair {
    /// Generates a keypair with modulus of `n_bits` bits, deterministically
    /// from `seed` (useful for reproducible tests and simulations).
    ///
    /// # Panics
    /// Panics if `n_bits < 64` (each prime must be ≥ 32 bits for the signed
    /// i64 embedding used by the counters to be unambiguous).
    #[expect(clippy::expect_used, reason = "distinct odd primes make every inverse here exist")]
    pub fn generate_with_seed(n_bits: u64, seed: u64) -> Self {
        assert!(n_bits >= 64, "modulus must be at least 64 bits");
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let (p, q) = gen_prime_pair(n_bits / 2, &mut rng);
        let n = &p * &q;
        let n2 = &n * &n;
        let lambda = (&p - 1u32).lcm(&(&q - 1u32));
        // With g = n + 1: L(g^λ mod n²) = λ mod n, so μ = λ⁻¹ mod n.
        let mu = mod_inverse(&(&lambda % &n), &n)
            .expect("λ is invertible mod n by construction (gcd(n, φ) = 1)");
        let half_n = &n >> 1;

        // CRT precomputation: g = n + 1, so g^{p−1} mod p² = 1 + (p−1)·n
        // mod p², and L_p of it is ((p−1)·n mod p²)/p reduced mod p.
        let crt = {
            let p2 = &p * &p;
            let q2 = &q * &q;
            let (p_minus_1, q_minus_1) = (&p - 1u32, &q - 1u32);
            let g_p = (BigUint::from(1u8) + &n % &p2 * &p_minus_1) % &p2;
            let g_q = (BigUint::from(1u8) + &n % &q2 * &q_minus_1) % &q2;
            let l_gp = ((&g_p - 1u32) / &p) % &p;
            let l_gq = ((&g_q - 1u32) / &q) % &q;
            let inverse = |a: &BigUint, m: &BigUint| {
                mod_inverse(a, m)
                    .expect("distinct odd primes with gcd(n, φ) = 1 make it invertible")
            };
            let (hp, hq, p_inv_q) =
                (inverse(&l_gp, &p), inverse(&l_gq, &q), inverse(&(&p % &q), &q));
            // (p²)⁻¹ mod q², lifted from p⁻¹ mod q by one Newton step
            // instead of a second extended Euclid: x = (p⁻¹)² inverts p²
            // mod q, and x·(2 − p²·x) inverts it mod q².
            let x = &p_inv_q * &p_inv_q % &q;
            let p2_inv_q2 = &x * (BigUint::from(2u8) + &q2 - &p2 % &q2 * &x % &q2) % &q2;
            CrtParams {
                p: p.clone(),
                q: q.clone(),
                p2,
                q2,
                p_minus_1,
                q_minus_1,
                hp,
                hq,
                p_inv_q,
                p2_inv_q2,
            }
        };

        Keypair { pk: PublicKey { n, n2, half_n }, sk: PrivateKey { lambda, mu, crt }, seed }
    }

    /// Generates a keypair from OS entropy.
    #[expect(
        clippy::disallowed_methods,
        reason = "the one deliberate OS-entropy entry point; deterministic drivers use \
                  generate_with_seed and never call this"
    )]
    pub fn generate(n_bits: u64) -> Self {
        Self::generate_with_seed(n_bits, rand::random())
    }

    /// Public key (shared with everyone; knowing it does not let a broker
    /// forge *authenticated* counters — see [`crate::oblivious`]).
    pub fn public_key(&self) -> &PublicKey {
        &self.pk
    }

    /// Accountant-side handle: can encrypt and run the public algebra, but
    /// not decrypt.
    pub fn encryptor(&self) -> PaillierCtx {
        PaillierCtx::new(self.pk.clone(), None, self.seed.wrapping_add(1))
    }

    /// Controller-side handle: full capability including decryption.
    pub fn decryptor(&self) -> PaillierCtx {
        PaillierCtx::new(self.pk.clone(), Some(self.sk.clone()), self.seed.wrapping_add(2))
    }

    /// Broker-side handle: the key-free algebra only (`A+`, `A−`, scalar,
    /// rerandomize). Encryption technically works (Paillier is public-key)
    /// but anything a broker encrypts itself fails the authentication-tag
    /// check, which is what actually stops forgery (§5.2).
    pub fn broker_handle(&self) -> PaillierCtx {
        PaillierCtx::new(self.pk.clone(), None, self.seed.wrapping_add(3))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keygen_is_deterministic_per_seed() {
        let a = Keypair::generate_with_seed(256, 7);
        let b = Keypair::generate_with_seed(256, 7);
        assert_eq!(a.pk, b.pk);
        let c = Keypair::generate_with_seed(256, 8);
        assert_ne!(a.pk, c.pk);
    }

    #[test]
    fn modulus_has_requested_bits() {
        let kp = Keypair::generate_with_seed(256, 1);
        // p and q have exactly 128 bits each, so n has 255 or 256 bits.
        assert!(kp.pk.bits() >= 255);
        assert_eq!(kp.pk.modulus_sq(), &(kp.pk.modulus() * kp.pk.modulus()));
    }

    #[test]
    fn crt_constants_invert_what_they_name() {
        for bits in [64, 256, 512] {
            let crt = Keypair::generate_with_seed(bits, 3).sk.crt;
            assert!((&crt.p * &crt.p_inv_q % &crt.q).is_one());
            assert!((&crt.p2 * &crt.p2_inv_q2 % &crt.q2).is_one(), "{bits} bits");
            assert_eq!(&crt.p_minus_1 + 1u32, crt.p);
            assert_eq!(&crt.q_minus_1 + 1u32, crt.q);
        }
    }

    #[test]
    fn mod_inverse_agrees_with_definition() {
        let m = BigUint::from(101u32); // prime
        for a in 1u32..101 {
            let a = BigUint::from(a);
            let inv = mod_inverse(&a, &m).expect("prime modulus");
            assert!((a * inv % &m).is_one());
        }
    }

    #[test]
    fn mod_inverse_rejects_non_coprime() {
        assert!(mod_inverse(&BigUint::from(6u32), &BigUint::from(9u32)).is_none());
    }

    #[test]
    #[should_panic(expected = "at least 64 bits")]
    fn tiny_modulus_refused() {
        let _ = Keypair::generate_with_seed(32, 0);
    }
}
