//! Grid-wide key material and role handles.
//!
//! One Paillier keypair serves the whole grid: the public (encryption) side
//! is held by every accountant, the private (decryption) side by every
//! controller, and brokers get neither (§5: "the candidates are counted …
//! by the accountant, which then encrypts the count … using an encryption
//! key known only to accountants … Only controllers can decrypt").
//!
//! The authentication-tag keys (see [`gridmine_paillier::oblivious`]) are
//! derived per message arity from a grid-wide master seed shared by
//! accountants and controllers.

use gridmine_obs::SharedRecorder;
use gridmine_paillier::{HomCipher, Keypair, MockCipher, PaillierCtx, TagKey};

/// Derives per-arity tag keys from a master seed. All accountants and
/// controllers of one grid share the same keyring.
///
/// Deliberately not `Debug`: the master seed reconstructs every tag key,
/// so it must never leak through log or panic formatting.
#[derive(Clone)]
pub struct TagKeyring {
    master: u64,
}

impl TagKeyring {
    /// Builds a keyring from the master seed.
    pub fn new(master: u64) -> Self {
        TagKeyring { master }
    }

    /// The tag key for messages with `arity` fields. Deterministic: equal
    /// seeds and arities yield equal keys at every resource.
    pub fn key(&self, arity: usize) -> TagKey {
        TagKey::derive(arity, self.master.wrapping_add(arity as u64))
    }
}

/// The grid's full key material plus role-handle factories for one cipher.
#[derive(Clone)]
pub struct GridKeys<C> {
    /// Accountant-side cipher handle (encrypt + algebra).
    pub enc: C,
    /// Controller-side cipher handle (everything).
    pub dec: C,
    /// Broker-side cipher handle (algebra only).
    pub pub_ops: C,
    /// Shared tag keyring.
    pub tags: TagKeyring,
}

impl<C: HomCipher> GridKeys<C> {
    /// Attach an observability recorder to every role handle, so ciphers
    /// that time key operations ([`PaillierCtx`]) report them. A no-op
    /// for ciphers that ignore recorders ([`MockCipher`]).
    pub fn with_recorder(self, rec: &SharedRecorder) -> Self {
        GridKeys {
            enc: self.enc.with_recorder(rec.clone()),
            dec: self.dec.with_recorder(rec.clone()),
            pub_ops: self.pub_ops.with_recorder(rec.clone()),
            tags: self.tags,
        }
    }
}

impl GridKeys<PaillierCtx> {
    /// Real-crypto key material: generates a Paillier keypair of
    /// `n_bits` bits from `seed`.
    pub fn paillier(n_bits: u64, seed: u64) -> Self {
        let kp = Keypair::generate_with_seed(n_bits, seed);
        GridKeys {
            enc: kp.encryptor(),
            dec: kp.decryptor(),
            pub_ops: kp.broker_handle(),
            tags: TagKeyring::new(seed ^ 0x7AB5),
        }
    }
}

impl GridKeys<MockCipher> {
    /// Plaintext mock key material for simulation scale.
    pub fn mock(seed: u64) -> Self {
        let full = MockCipher::new(seed);
        GridKeys {
            enc: full.clone(),
            pub_ops: full.broker_view(),
            dec: full,
            tags: TagKeyring::new(seed ^ 0x7AB5),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridmine_paillier::HomCipher;

    #[test]
    fn tag_keyring_is_deterministic_and_arity_scoped() {
        let a = TagKeyring::new(5);
        let b = TagKeyring::new(5);
        // `assert!` rather than `assert_eq!`: TagKey has no Debug on purpose.
        assert!(a.key(4) == b.key(4));
        assert!(a.key(4) != a.key(5));
    }

    #[test]
    fn paillier_roles_have_expected_capabilities() {
        let keys = GridKeys::paillier(256, 11);
        assert!(!keys.enc.can_decrypt());
        assert!(keys.dec.can_decrypt());
        assert!(!keys.pub_ops.can_decrypt());
        // End-to-end: accountant encrypts, broker adds, controller decrypts.
        let a = keys.enc.encrypt_i64(4);
        let b = keys.enc.encrypt_i64(6);
        let sum = keys.pub_ops.add(&a, &b);
        assert_eq!(keys.dec.decrypt_i64(&sum), 10);
    }

    #[test]
    fn a_seed_makes_the_same_512_bit_modulus() {
        // Key generation runs gcds (the prime-pair screen, λ's lcm): a
        // new gcd kernel must not move the key a seed makes, nor λ.
        let keys = GridKeys::paillier(512, 0x5EED);
        let n = concat!(
            "53331053293688872303669567344855617768368228256302698048645399760009493530527",
            "63207481821794685041150355169365597087248519950465207240148901319852635431981",
        );
        assert_eq!(keys.enc.public_key().modulus().to_string(), n);
        let c = keys.enc.encrypt_i64(-12_345);
        assert_eq!(keys.dec.decrypt_residue(&c), keys.dec.decrypt_residue_slow(&c));
        assert_eq!(keys.dec.decrypt_i64(&c), -12_345);
    }

    #[test]
    fn mock_roles_mirror_paillier_roles() {
        let keys = GridKeys::mock(3);
        assert!(!keys.pub_ops.can_decrypt());
        assert!(keys.dec.can_decrypt());
    }
}
