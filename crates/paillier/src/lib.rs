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
//!   and timestamp vector — and the homomorphic authentication tag that
//!   binds it, packed into as few ciphertexts as the cipher's plaintext
//!   carries (one at 512 bits for a counter of degree ≤ 4), so a broker
//!   that knows neither key can still add them but can neither read nor
//!   forge them (`§5.2`).
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

// No unwrap or expect, so a poisoned lock cannot cascade;
// replay-deterministic and crash-safe (DESIGN.md § Static analysis).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod cipher;
pub mod inline;
pub mod keys;
pub mod mock;
pub mod oblivious;
pub mod primes;
pub mod slots;

pub use cipher::{Ciphertext, PaillierCtx};
pub use inline::InlineVec;
pub use keys::{Keypair, PrivateKey, PublicKey};
pub use mock::{MockCipher, MockCt};
pub use oblivious::{CounterMsg, Fields, ObliviousError, TagKey, WaveBuffers};
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
/// the width-1 instance (one ciphertext per value), which is all a cipher
/// whose plaintext is a machine integer can offer; [`PaillierCtx`] packs
/// as many digits of [`slots`] as its modulus holds.
/// Callers never choose a format: it is a function of the cipher's
/// capacity alone.
///
/// Role separation (who may call what) is enforced by the concrete handle
/// types, not by the trait: a broker is handed a context without the
/// decryption key, so `decrypt_i64` on it panics — the same way a real
/// deployment simply would not ship the key.
pub trait HomCipher: Clone + Send + Sync {
    /// Ciphertext type. Its default is an empty value that owns no heap
    /// memory: what fills a counter's unused inline slots.
    type Ct: Clone + Default + PartialEq + std::fmt::Debug + Send + Sync;

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

    /// `E` over a tuple: appends to `out` the encryption of `values`
    /// followed by `tag` in the ciphertexts [`slots::widths`] lays them
    /// out in, on which `A+`, `A−`, scalar multiplication and
    /// rerandomization act slot-wise. Each value fits a digit
    /// ([`slots::is_digit`]), and so does each value of `tag` unless a
    /// ciphertext carries one value; a combination of such tuples reads
    /// back exactly while every slot still does.
    fn encrypt_slots(&self, values: &[i64], tag: &[i64], out: &mut impl Extend<Self::Ct>) {
        out.extend(values.iter().chain(tag).map(|&v| self.encrypt_i64(v)));
    }

    /// `D` over a wave: `cts` is a run of tuples of `len` values, each as
    /// [`HomCipher::encrypt_slots`] seals one. The values come back flat,
    /// in order, in `plains`, which is overwritten: the caller keeps the
    /// buffer from wave to wave. A plaintext that holds no tuple of its
    /// width — whatever a hostile broker aggregated — contributes zeros
    /// and is listed in `refused`, overwritten too, by its index in `cts`
    /// and in order, with its [`SlotError`]; nothing panics. A ciphertext
    /// outside the group the algebra acts on (under [`PaillierCtx`], a
    /// non-unit of `Z_{n²}`) holds no plaintext at all and is listed the
    /// same way: whatever opens is a group element.
    /// The default is the width-1 instance: every ciphertext is one
    /// value, read whole, and whether it is a digit is the tuple's
    /// business. [`PaillierCtx`], which packs, overrides it, and runs the
    /// wave in one pass over its cached CRT contexts fanned across the
    /// worker pool.
    fn decrypt_wave<'a>(
        &self,
        cts: impl Iterator<Item = &'a Self::Ct>,
        len: usize,
        plains: &mut Vec<i64>,
        refused: &mut Vec<(usize, SlotError)>,
    ) where
        Self::Ct: 'a,
    {
        let _ = len;
        plains.clear();
        refused.clear();
        plains.extend(cts.map(|c| self.decrypt_i64(c)));
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
    /// scalar, rerandomize, decrypt) is defined on each of `cts`. Needs
    /// no key material, so brokers and resources can reject malformed
    /// counters at the door and blame the sender. The default holds every
    /// value well-formed, as a cipher whose algebra is total does;
    /// [`PaillierCtx`] screens for reduced units of `Z_{n²}*` and folds the
    /// whole batch into a single gcd (`gcd(∏ cᵢ mod n, n) = 1 ⇔
    /// ∀i gcd(cᵢ mod n, n) = 1`), so a broker screens an incoming counter
    /// at one gcd instead of one per ciphertext.
    fn all_wellformed(&self, cts: &[&Self::Ct]) -> bool {
        let _ = cts;
        true
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
    /// [`HomCipher::all_wellformed`] before it touches counter algebra.
    fn ct_decode(bytes: &[u8]) -> Option<Self::Ct>;
}
