//! Homomorphic cryptography substrate for gridmine.
//!
//! This crate implements everything Section 4.2 of the paper ("Oblivious
//! Counters") requires:
//!
//! * [`primes`] — Miller–Rabin probabilistic primality testing and random
//!   prime generation, the only number-theoretic machinery Paillier needs.
//! * [`keys`] / [`cipher`] — the Paillier probabilistic additively
//!   homomorphic public-key cryptosystem: encryption, decryption,
//!   ciphertext addition/subtraction (`A+` / `A−`), scalar multiplication
//!   and rerandomization.
//! * [`slots`] — the paper's vectorization extension: packing a tuple of
//!   signed integers into a single plaintext as balanced base-2⁴⁵ digits,
//!   so that homomorphic addition, subtraction and scalar multiplication
//!   act slot-wise (`§4.2`, the `x₁N₁ + x₂N₂ + …` encoding with negative
//!   shifting). [`HomCipher::encrypt_slots`] / [`HomCipher::decrypt_wave`]
//!   are `E` and `D` extended over such a tuple.
//! * [`oblivious`] — authenticated oblivious counters: the whole tuple of
//!   a message — signed vote counters, resource count, accounting `share`
//!   and timestamp vector — packed into as few ciphertexts as the cipher's
//!   plaintext carries (one at 512 bits for a counter of degree ≤ 6), and
//!   bound by a homomorphic authentication tag so a broker that knows
//!   neither key can still add and rerandomize them but can neither read
//!   nor forge them (`§5.2`).
//! * [`mock`] — a structurally identical plaintext cipher used for
//!   large-scale simulation, behind the same [`HomCipher`] trait.
//!
//! # Quick example
//!
//! ```
//! use gridmine_paillier::{Keypair, HomCipher};
//! let kp = Keypair::generate_with_seed(512, 42);
//! let (pk, sk) = (kp.encryptor(), kp.decryptor());
//! let a = pk.encrypt_i64(20);
//! let b = pk.encrypt_i64(-8);
//! let sum = pk.add(&a, &b);
//! assert_eq!(sk.decrypt_i64(&sum), 12);
//! ```

// Protocol crate: the paper's adversary model makes every panic a
// denial-of-service lever, so `.unwrap()` outside tests is part of the
// lint wall (the gridlint panic-freedom rule covers the hot modules;
// this covers the rest of the crate).
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod cipher;
pub mod keys;
pub mod mock;
pub mod oblivious;
pub mod primes;
pub mod slots;

pub use cipher::{Ciphertext, PaillierCtx};
pub use keys::{Keypair, PrivateKey, PublicKey};
pub use mock::{MockCipher, MockCt};
pub use oblivious::{CounterMsg, ObliviousError, TagKey};
pub use slots::SlotError;

/// A ciphertext-space operation failed because an input was malformed.
///
/// Under the paper's malicious-participant model these are *protocol*
/// events, not programming errors: a hostile peer can mail bytes that
/// decode to a perfectly representable ciphertext value which is
/// nevertheless outside the honest ciphertext space (e.g. a multiple of
/// `n`, which is not a unit mod `n²` and therefore has no `A−` inverse).
/// Callers account these as malicious behaviour instead of aborting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CipherError {
    /// The ciphertext is not a unit mod `n²` (`gcd(c, n) ≠ 1`), so it has
    /// no modular inverse. Honest encryptions are always units.
    NotAUnit,
}

impl std::fmt::Display for CipherError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CipherError::NotAUnit => write!(f, "ciphertext is not a unit mod n²"),
        }
    }
}

impl std::error::Error for CipherError {}

/// The additively homomorphic probabilistic cipher abstraction.
///
/// All protocol code in `gridmine-core` is generic over this trait, so the
/// same broker/accountant/controller implementation runs over real Paillier
/// ([`PaillierCtx`] handles) and over the plaintext [`MockCipher`] used for
/// paper-scale simulation. The trait surface maps one-to-one onto the
/// primitives of §4.2: `E`, `D`, `A+`, `A−`, iterated `A+` (scalar
/// multiplication) and rerandomization — and the section's closing
/// extension of `E` and `D` "to work over a tuple of integers while
/// keeping the homomorphic property for each single element":
/// [`HomCipher::slots_per_ct`] is the tuple width `p` a plaintext of this
/// cipher carries, [`HomCipher::encrypt_slots`] and
/// [`HomCipher::decrypt_wave`] are `E` and `D` over it. The defaults are
/// the width-1 instance (one ciphertext per value, each value a digit of
/// [`slots`]), which is all a cipher whose plaintext is a machine integer
/// can offer; [`PaillierCtx`] packs as many digits as its modulus holds.
/// Callers never choose a format: it is a function of the cipher's
/// capacity alone.
///
/// Role separation (who may call what) is enforced by the concrete handle
/// types, not by the trait: a broker is handed a context without the
/// decryption key, so `decrypt_i64` on it panics — the same way a real
/// deployment simply would not ship the key.
pub trait HomCipher: Clone + Send + Sync {
    /// Ciphertext type.
    type Ct: Clone + PartialEq + std::fmt::Debug + Send + Sync;

    /// Encrypt a signed integer (`E`). Probabilistic: two encryptions of the
    /// same plaintext compare unequal with overwhelming probability.
    fn encrypt_i64(&self, m: i64) -> Self::Ct;

    /// Decrypt to a signed integer (`D`). Panics if this handle lacks the
    /// decryption key.
    fn decrypt_i64(&self, c: &Self::Ct) -> i64;

    /// How many values one ciphertext carries (the tuple width of §4.2's
    /// vectorised `E`), at least one. Key-free: brokers need it to know
    /// how many ciphertexts a well-formed counter has.
    fn slots_per_ct(&self) -> usize {
        1
    }

    /// `E` over a tuple: appends to `out` the encryption of `values` in
    /// `⌈len / slots_per_ct⌉` ciphertexts, filled greedily in order, on
    /// which `A+`, `A−`, scalar multiplication and rerandomization act
    /// slot-wise. Each value fits a digit ([`slots::is_digit`]); a
    /// combination of such tuples reads back exactly while every slot
    /// still does.
    fn encrypt_slots(&self, values: &[i64], out: &mut Vec<Self::Ct>) {
        out.extend(values.iter().map(|&v| self.encrypt_i64(v)));
    }

    /// `D` over a wave: `cts` is a run of tuples of `arity` values, each
    /// as [`HomCipher::encrypt_slots`] seals one ([`slots::widths`] says
    /// how many values each ciphertext holds). The values come back flat,
    /// in order. A plaintext that holds no tuple of its width — whatever
    /// a hostile broker aggregated — contributes zeros and is listed, by
    /// its index in `cts` and in order, with its [`SlotError`]; nothing
    /// panics. Implementations with expensive per-call machinery override
    /// it to amortize — see [`PaillierCtx`], which runs the wave in one
    /// pass over its cached CRT contexts and fans the elements across the
    /// worker pool.
    fn decrypt_wave(&self, cts: &[&Self::Ct], arity: usize) -> (Vec<i64>, Vec<(usize, SlotError)>) {
        let mut values = Vec::with_capacity(cts.len());
        let mut refused = Vec::new();
        let widths = slots::widths(self.slots_per_ct(), arity).cycle();
        for (i, (c, width)) in cts.iter().zip(widths).enumerate() {
            match self.decrypt_i64(c) {
                m if width == 1 && slots::is_digit(m) => values.push(m),
                _ => {
                    refused.push((i, SlotError::OutOfLayout));
                    values.extend(std::iter::repeat_n(0, width));
                }
            }
        }
        (values, refused)
    }

    /// Batched tag-relation check: `true` iff `D(tags[i]) == expected[i]`
    /// for every `i` (and the lengths match). The default decrypts each
    /// tag; [`PaillierCtx`] replaces the `k` decryptions by one
    /// random-linear-combination multi-exponentiation plus a single
    /// decryption, trading a `< 2⁻³²` false-accept probability for the
    /// speedup — callers that need per-message blame re-verify
    /// individually on failure.
    fn verify_tags_batch(&self, tags: &[&Self::Ct], expected: &[i64]) -> bool {
        tags.len() == expected.len()
            && tags.iter().zip(expected).all(|(t, &e)| self.decrypt_i64(t) == e)
    }

    /// Homomorphic addition (`A+`): `D(add(E(x), E(y))) == x + y`.
    fn add(&self, a: &Self::Ct, b: &Self::Ct) -> Self::Ct;

    /// Homomorphic subtraction (`A−`): `D(sub(E(x), E(y))) == x - y`.
    /// No protocol path subtracts; it is what a hostile broker can do
    /// key-free, and the suites use it for that.
    ///
    /// Panics when `b` is malformed (not invertible): the door screen
    /// ([`HomCipher::all_wellformed`]) keeps such values out of every
    /// honest party's algebra.
    fn sub(&self, a: &Self::Ct, b: &Self::Ct) -> Self::Ct;

    /// Iterated `A+`: `D(scalar(m, E(x))) == m * x`, with `m` possibly
    /// negative. Like [`HomCipher::sub`], a hostile broker's tool; panics
    /// on a malformed `c` with a negative `m`.
    fn scalar(&self, m: i64, c: &Self::Ct) -> Self::Ct;

    /// Cheap key-free well-formedness screen for wire-received
    /// ciphertexts: `true` iff every ciphertext-space operation (add, sub,
    /// scalar, rerandomize, decrypt) is defined on `c`. Needs no key
    /// material, so brokers and resources can reject malformed counters at
    /// the door and blame the sender.
    fn is_wellformed(&self, c: &Self::Ct) -> bool {
        let _ = c;
        true
    }

    /// Batched well-formedness screen: `true` iff every ciphertext passes
    /// [`HomCipher::is_wellformed`]. Key-free, like the per-ciphertext
    /// form. [`PaillierCtx`] folds the whole batch into a single gcd
    /// (`gcd(∏ cᵢ mod n, n) = 1 ⇔ ∀i gcd(cᵢ mod n, n) = 1`), so a
    /// broker screens an incoming counter at one gcd instead of
    /// arity + 1 of them.
    fn all_wellformed(&self, cts: &[&Self::Ct]) -> bool {
        cts.iter().all(|c| self.is_wellformed(c))
    }

    /// Rerandomize: a different ciphertext of the same plaintext, unlinkable
    /// to the input without the key.
    fn rerandomize(&self, c: &Self::Ct) -> Self::Ct;

    /// Whether this handle can decrypt (controller-side handles only).
    fn can_decrypt(&self) -> bool;

    /// Attach an observability recorder to this handle: implementations
    /// that time their key operations (see [`PaillierCtx`]) emit
    /// `Event::KeyOp` through it. The default is a no-op so plaintext
    /// ciphers ([`MockCipher`]) pay nothing.
    fn with_recorder(self, rec: gridmine_obs::SharedRecorder) -> Self {
        let _ = rec;
        self
    }

    /// Serialized size of a ciphertext in bytes (the simulator's
    /// bandwidth model).
    fn ct_bytes(c: &Self::Ct) -> usize;

    /// Portable ciphertext bytes for wire codecs. Key-free and total:
    /// any handle (including broker-side ones) can serialize what it
    /// already holds.
    fn ct_encode(c: &Self::Ct) -> Vec<u8>;

    /// Inverse of [`HomCipher::ct_encode`]; `None` on structurally
    /// malformed bytes. This is a *structural* check only — semantic
    /// well-formedness of a wire-received ciphertext still goes through
    /// [`HomCipher::is_wellformed`] before it touches counter algebra.
    fn ct_decode(bytes: &[u8]) -> Option<Self::Ct>;
}
