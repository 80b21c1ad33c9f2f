//! Authenticated oblivious counters — the message unit of §5.2.
//!
//! A [`CounterMsg`] is the encrypted tuple
//! `⟨counter, share, T_⊥, T_v₁, …, T_v_d⟩_enc` from Algorithm 2, bound
//! together by a **homomorphic authentication tag** sealed beside it.
//!
//! # Format
//!
//! §4.2 makes the oblivious counter *one* plaintext, "encoding
//! (x₁,…,x_p) as x₁N₁ + x₂N₂ + … + x_p before encryption", so that a
//! message costs one encryption and one decryption. We seal the whole
//! tuple that way, its tag included: [`HomCipher::encrypt_slots`] packs
//! the values and then the tag, as balanced digits (see [`crate::slots`]),
//! into as few ciphertexts as the cipher's plaintext carries
//! ([`HomCipher::slots_per_ct`], greedy spill that never parts the tag's
//! two digits). At 512 bits that is one ciphertext for up to 9 values; under
//! [`crate::MockCipher`], whose plaintext is an `i64`, it is one per value
//! and one for the tag — the same code, the capacity-1 instance, in which
//! the tag is one wide value. `A+`, `A−`, scalar multiplication,
//! rerandomization and the well-formedness screen act per ciphertext and
//! never need to know what a ciphertext holds.
//!
//! Balanced digits carry a sign, so a tuple's leading *signed* values —
//! the vote counters, which Algorithm 1's padding sequence seals as
//! `s − 1` and negating transactions shrink — take either. Everything
//! after them is the *side-band* (resource count, share, timestamp
//! vector), which an honest aggregate only ever grows: a negative
//! side-band value is what a borrow out of `A−` or a negative scalar
//! leaves, and opening refuses it as [`ObliviousError::SideBand`], as it
//! does a plaintext that holds no tuple of its width.
//!
//! The tag is `Σ sᵢ·mᵢ` over the values, computed exactly in `i128` and
//! sealed as two adjacent digits, since a coefficient times a value is
//! wider than one. The pair shares a ciphertext, so the carry an honest
//! aggregate's low tag digit makes lands in the high one, and the pair
//! reads back as the exact sum of the tags. Opening checks
//! `D(tag) = Σ sᵢ·D(mᵢ)` as an equality of integers on the plaintext it
//! decrypts anyway. Sums are never reduced: not inside their digits (shares
//! included — the controller reduces them into their field after the
//! check, as it always did), and not modulo a prime, under which a value
//! moved by a multiple of it would pass. A side-band that does not open
//! convicts the broker exactly like a tag mismatch.
//!
//! # Why a tag instead of literal "encrypt-then-sign"
//!
//! The paper constructs its cryptosystem so that `A+` needs no key yet
//! brokers cannot forge ciphertexts, by composing "any two homomorphic
//! cryptosystems: messages are first encrypted using the first … then their
//! encryption is signed using the second" (§4.2, footnote 1). Signing a
//! ciphertext with a second *homomorphic* system while keeping the
//! signature meaningful under addition is exactly a linearly homomorphic
//! authenticator, which is what we implement: accountants share a secret
//! coefficient vector `s₁…s_p` and seal a tuple `(m₁…m_p)` together with
//! `Σ sᵢ·mᵢ`. Component-wise `A+`/`A−`/scalar on two tagged tuples
//! preserves the relation; a broker that assembles any tuple the
//! accountants did not implicitly authorize (arbitrary values, fields mixed
//! across messages) breaks it except with probability `≈ 1/|coeff space|`.
//! Controllers — who hold the decryption key anyway — check the relation
//! before answering any SFE (Algorithm 3's `D(share) ≠ 1` test generalized
//! to the whole tuple).
//!
//! This preserves precisely the property the protocol needs from the
//! footnote construction: *brokers can aggregate and rerandomize but cannot
//! mint or splice*.

// No unchecked index on hostile input (DESIGN.md § Static analysis).
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;

use crate::inline::InlineVec;
use crate::slots::{self, SlotError};
use crate::HomCipher;

/// The ciphertexts of one counter: inline up to 8 — a Paillier counter of
/// any degree up to 15 at 512 bits, a mock one of degree 2 — and on the
/// heap past them. The bound keeps a counter small enough that moving it
/// costs less than allocating it would.
pub type Fields<T> = InlineVec<T, 8>;

/// Errors surfaced by opening a counter — each maps to a
/// malicious-behaviour verdict in Algorithm 3.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObliviousError {
    /// The tag relation `D(tag) = Σ sᵢ·D(fieldᵢ)` failed: the tuple was
    /// forged or spliced.
    TagMismatch,
    /// The ciphertext count differs from what the tag key's arity takes
    /// under this cipher's capacity.
    ArityMismatch { expected: usize, got: usize },
    /// A ciphertext holds no tuple of its width, a value is no digit, or
    /// a side-band value is negative.
    SideBand(SlotError),
}

impl std::fmt::Display for ObliviousError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ObliviousError::TagMismatch => {
                write!(f, "authentication tag mismatch (forged or spliced counter)")
            }
            ObliviousError::ArityMismatch { expected, got } => {
                write!(f, "ciphertext count mismatch: expected {expected}, got {got}")
            }
            ObliviousError::SideBand(e) => write!(f, "side-band does not unpack: {e}"),
        }
    }
}

impl std::error::Error for ObliviousError {}

/// The accountants' shared tagging secret: one coefficient per tuple field.
///
/// Coefficients are drawn from `[2^10, 2^20)`, so that the tag of a tuple
/// of digits short of 2²⁴ values fits the two digits it is sealed in,
/// while forging a tuple still requires guessing ≥ 20 unknown bits per
/// altered field — ample for a protocol whose other defence is detection,
/// not secrecy.
///
/// Not `Debug`: formatted coefficients are the forging key. Compare keys
/// with `==` instead.
#[derive(Clone, PartialEq, Eq)]
pub struct TagKey {
    coeffs: Vec<i64>,
}

impl TagKey {
    /// Derives a tag key for `arity` fields from a seed (all accountants
    /// and controllers of a grid share the same key, like the encryption
    /// and decryption keys themselves).
    pub fn derive(arity: usize, seed: u64) -> Self {
        assert!(arity >= 1, "tag key needs at least one field");
        let mut rng = ChaCha12Rng::seed_from_u64(seed ^ 0x7A67_4B45u64);
        let coeffs = (0..arity).map(|_| rng.gen_range(1i64 << 10..1i64 << 20)).collect();
        TagKey { coeffs }
    }

    /// Number of (logical) fields this key covers.
    pub fn arity(&self) -> usize {
        self.coeffs.len()
    }

    /// The tag of a tuple: `Σ sᵢ·mᵢ` over however many fields both sides
    /// share (honest callers pass exactly `arity()` fields; arity
    /// enforcement is the caller's door check), exact — no tuple of
    /// `i64`s a process can hold takes it past `i128`.
    fn tag(&self, fields: &[i64]) -> i128 {
        self.coeffs.iter().zip(fields).map(|(&s, &m)| i128::from(s) * i128::from(m)).sum()
    }
}

/// An authenticated encrypted tuple: the wire format of every
/// Secure-Scalable-Majority message field group.
#[derive(Debug)]
pub struct CounterMsg<C: HomCipher> {
    /// Ciphertexts of the tuple, its values packed in protocol order and
    /// its tag after them (see the module docs), held in place.
    pub fields: Fields<C::Ct>,
}

/// The plaintext buffers of [`CounterMsg::open_wave`], kept by whoever
/// opens wave after wave so that a wave allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct WaveBuffers {
    plains: Vec<i64>,
    refused: Vec<(usize, SlotError)>,
}

impl<C: HomCipher> PartialEq for CounterMsg<C> {
    fn eq(&self, other: &Self) -> bool {
        self.fields == other.fields
    }
}

impl<C: HomCipher> Clone for CounterMsg<C> {
    fn clone(&self) -> Self {
        CounterMsg { fields: self.fields.clone() }
    }

    /// Into the buffer `self` has, so a slot that is overwritten message
    /// after message keeps it.
    fn clone_from(&mut self, source: &Self) {
        self.fields.clone_from(&source.fields);
    }
}

impl<C: HomCipher> CounterMsg<C> {
    /// Accountant-side construction: `values` packed, their tag after
    /// them. Each value fits a digit ([`crate::slots::is_digit`]) and the
    /// tag its slot ([`CounterMsg::tag_fits`]); a negative side-band value
    /// or a tag too wide seals, and then does not open.
    pub fn seal(cipher: &C, key: &TagKey, values: &[i64]) -> Self {
        assert_eq!(values.len(), key.arity(), "field count must match tag key arity");
        let cap = cipher.slots_per_ct();
        let (tag, _) = slots::tag_values(cap, key.tag(values));
        let tag = tag.get(..slots::tag_len(cap)).unwrap_or_default();
        let mut fields = Fields::new();
        cipher.encrypt_slots(values, tag, &mut fields);
        CounterMsg { fields }
    }

    /// Whether the tag of `values` fits its slot under `cipher`, so that
    /// [`CounterMsg::seal`] makes a tuple that opens. Two digits hold the
    /// tag of any tuple of digits short of 2²⁴ values; at capacity one,
    /// the tag's one wide value holds an `i64`.
    pub fn tag_fits(cipher: &C, key: &TagKey, values: &[i64]) -> bool {
        slots::tag_values(cipher.slots_per_ct(), key.tag(values)).1
    }

    /// Ciphertexts a sealed tuple of `arity` values, its tag included, has
    /// under `cipher`. Key-free: the broker's door screen compares
    /// against it.
    pub fn ct_count(cipher: &C, arity: usize) -> usize {
        let cap = cipher.slots_per_ct();
        (arity + slots::tag_len(cap)).div_ceil(cap)
    }

    /// Key-free ciphertext-wise addition (the broker's aggregation step).
    pub fn add(&self, cipher: &C, other: &Self) -> Self {
        assert_eq!(self.fields.len(), other.fields.len(), "cannot add tuples of different shape");
        let fields = self.fields.iter().zip(&other.fields).map(|(a, b)| cipher.add(a, b)).collect();
        CounterMsg { fields }
    }

    /// [`CounterMsg::add`] into `self`: an aggregate over many tuples is
    /// one buffer, not one per term.
    pub fn add_assign(&mut self, cipher: &C, other: &Self) {
        assert_eq!(self.fields.len(), other.fields.len(), "cannot add tuples of different shape");
        for (a, b) in self.fields.iter_mut().zip(&other.fields) {
            *a = cipher.add(a, b);
        }
    }

    /// Key-free ciphertext-wise subtraction. A difference with a negative
    /// side-band value no longer opens.
    pub fn sub(&self, cipher: &C, other: &Self) -> Self {
        assert_eq!(
            self.fields.len(),
            other.fields.len(),
            "cannot subtract tuples of different shape"
        );
        let fields = self.fields.iter().zip(&other.fields).map(|(a, b)| cipher.sub(a, b)).collect();
        CounterMsg { fields }
    }

    /// Key-free scalar multiplication (iterated `A+`); like
    /// [`CounterMsg::sub`], only a non-negative side-band opens.
    pub fn scalar(&self, cipher: &C, m: i64) -> Self {
        CounterMsg { fields: self.fields.iter().map(|c| cipher.scalar(m, c)).collect() }
    }

    /// Key-free rerandomization of every component — what `Update(v)` in
    /// Algorithm 1 applies before sending, so receivers cannot tell whether
    /// an aggregate changed.
    pub fn rerandomize(&self, cipher: &C) -> Self {
        CounterMsg { fields: self.fields.iter().map(|c| cipher.rerandomize(c)).collect() }
    }

    /// A sealed all-zero tuple (additive identity with a *valid* tag).
    pub fn zeros(cipher: &C, key: &TagKey) -> Self {
        Self::seal(cipher, key, &vec![0; key.arity()])
    }

    /// Controller-side: verify the tag and decrypt all fields of a
    /// message whose first `signed` values may be negative.
    ///
    /// Returns the logical plaintext tuple or the malicious-behaviour
    /// error the controller must broadcast (Algorithm 3).
    pub fn open(
        &self,
        cipher: &C,
        key: &TagKey,
        signed: usize,
    ) -> Result<Vec<i64>, ObliviousError> {
        let mut opened = Err(ObliviousError::TagMismatch);
        let mut buffers = WaveBuffers::default();
        Self::open_wave(cipher, key, signed, std::iter::once(self), &mut buffers, |_, fields| {
            opened = fields.map(<[i64]>::to_vec);
        });
        opened
    }

    /// [`CounterMsg::open_wave`] with every tuple copied out. Results
    /// align with `msgs`.
    pub fn open_many(
        cipher: &C,
        key: &TagKey,
        signed: usize,
        msgs: &[&Self],
    ) -> Vec<Result<Vec<i64>, ObliviousError>> {
        let mut opened = Vec::with_capacity(msgs.len());
        let mut buffers = WaveBuffers::default();
        Self::open_wave(cipher, key, signed, msgs.iter().copied(), &mut buffers, |_, fields| {
            opened.push(fields.map(<[i64]>::to_vec));
        });
        opened
    }

    /// Controller-side batch opening: decrypt a whole wave of tuples
    /// sealed under one key, the first `signed` values of each free to be
    /// negative, in a single pass.
    ///
    /// All ciphertexts of all conforming tuples decrypt through one
    /// [`HomCipher::decrypt_wave`] call, and each tuple's tag is checked
    /// against its values right there, in the plaintext that call
    /// returns, so blame lands on exactly the forged ones. `sink` is
    /// handed each message's index in `msgs` and its logical tuple — a
    /// view into the wave's one plaintext buffer, one of the `buffers` the
    /// caller keeps, for it to read where it wants it — or why it did not
    /// open; once per message, in order.
    pub fn open_wave<'a>(
        cipher: &C,
        key: &TagKey,
        signed: usize,
        msgs: impl Iterator<Item = &'a Self> + Clone,
        buffers: &mut WaveBuffers,
        mut sink: impl FnMut(usize, Result<&[i64], ObliviousError>),
    ) where
        C: 'a,
    {
        let len = key.arity() + slots::tag_len(cipher.slots_per_ct());
        let cts_each = Self::ct_count(cipher, key.arity());
        // Shape screen: hostile tuples drop out before the batch.
        let shaped = msgs.clone().filter(|m| m.fields.len() == cts_each);
        let WaveBuffers { plains, refused } = buffers;
        cipher.decrypt_wave(shaped.flat_map(|m| m.fields.iter()), len, plains, refused);
        let cts_of = msgs.map(|m| m.fields.len());
        for (i, tuple) in unpacked(cts_of, cts_each, len, plains, refused).enumerate() {
            sink(i, tuple.and_then(|tuple| authentic(key, signed, tuple)));
        }
    }
}

/// What each message of a wave — `cts_of` its ciphertext count —
/// unpacked to: `plains` holds one tuple of `len` values, and `refused`
/// indexes one run of `cts_each` ciphertexts, per shaped message, in
/// order.
fn unpacked<'w>(
    cts_of: impl Iterator<Item = usize> + 'w,
    cts_each: usize,
    len: usize,
    plains: &'w [i64],
    refused: &'w [(usize, SlotError)],
) -> impl Iterator<Item = Result<&'w [i64], ObliviousError>> + 'w {
    let mut tuples = plains.chunks(len);
    let mut refused = refused.iter().peekable();
    let mut cts_seen = 0;
    cts_of.map(move |got| {
        if got != cts_each {
            return Err(ObliviousError::ArityMismatch { expected: cts_each, got });
        }
        cts_seen += cts_each;
        let tuple = tuples.next().unwrap_or_default();
        let mut why = None;
        while let Some(&(_, e)) = refused.next_if(|&&(at, _)| at < cts_seen) {
            why.get_or_insert(e);
        }
        why.map_or(Ok(tuple), |e| Err(ObliviousError::SideBand(e)))
    })
}

/// The values of an unpacked `tuple` — the tag split off its end — once
/// each is a digit, none past the first `signed` is negative, and the tag
/// is theirs.
fn authentic<'t>(
    key: &TagKey,
    signed: usize,
    tuple: &'t [i64],
) -> Result<&'t [i64], ObliviousError> {
    let (values, tag) = tuple
        .split_at_checked(key.arity())
        .ok_or(ObliviousError::ArityMismatch { expected: key.arity(), got: tuple.len() })?;
    if !values.iter().all(|&v| slots::is_digit(v)) {
        return Err(ObliviousError::SideBand(SlotError::OutOfLayout));
    }
    if let Some(slot) = values.iter().skip(signed).position(|&v| v < 0) {
        return Err(ObliviousError::SideBand(SlotError::Negative { slot: signed + slot }));
    }
    match key.tag(values) == slots::tag_of(tag) {
        true => Ok(values),
        false => Err(ObliviousError::TagMismatch),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Keypair, MockCipher, PaillierCtx};

    /// 320-bit keys carry seven digits, so the 2 + 2 values of these
    /// tuples and their tag's two digits are one ciphertext.
    fn setup() -> (PaillierCtx, PaillierCtx, TagKey) {
        let kp = Keypair::generate_with_seed(320, 0xBEEF);
        (kp.encryptor(), kp.decryptor(), TagKey::derive(4, 7))
    }

    /// `digits` in one ciphertext, whatever tuple they make.
    fn packed(e: &PaillierCtx, digits: &[i64]) -> crate::Ciphertext {
        e.encrypt_residue(&slots::pack(e.public_key(), digits))
    }

    /// The digits of an honest one-ciphertext tuple of four values, its
    /// tag's two included: what a broker would need to forge one.
    fn digits(d: &PaillierCtx, msg: &CounterMsg<PaillierCtx>) -> Vec<i64> {
        let mut out = Vec::new();
        slots::unpack(d.public_key(), &d.decrypt_residue(&msg.fields[0]), 6, &mut out).unwrap();
        out
    }

    #[test]
    fn seal_open_roundtrip() {
        let (e, d, key) = setup();
        let msg = CounterMsg::seal(&e, &key, &[5, -1, 100, 0]);
        assert_eq!(msg.fields.len(), 1);
        assert_eq!(msg.open(&d, &key, 2).unwrap(), vec![5, -1, 100, 0]);
    }

    #[test]
    fn addition_preserves_tag() {
        let (e, d, key) = setup();
        let a = CounterMsg::seal(&e, &key, &[5, 1, 3, 0]);
        let b = CounterMsg::seal(&e, &key, &[2, 0, 1, 9]);
        let sum = a.add(&e, &b);
        assert_eq!(sum.open(&d, &key, 2).unwrap(), vec![7, 1, 4, 9]);
    }

    #[test]
    fn subtraction_and_scalar_preserve_tag() {
        let (e, d, key) = setup();
        let a = CounterMsg::seal(&e, &key, &[10, 2, 4, 4]);
        let b = CounterMsg::seal(&e, &key, &[3, 1, 1, 1]);
        assert_eq!(a.sub(&e, &b).open(&d, &key, 2).unwrap(), vec![7, 1, 3, 3]);
        assert_eq!(a.scalar(&e, 3).open(&d, &key, 2).unwrap(), vec![30, 6, 12, 12]);
        // The signed values take any sign; a side-band value driven below
        // zero reads back exactly, and is refused.
        assert_eq!(
            b.sub(&e, &a).open(&d, &key, 2),
            Err(ObliviousError::SideBand(SlotError::Negative { slot: 2 }))
        );
        let heads = CounterMsg::seal(&e, &key, &[10, 2, 0, 0]);
        assert_eq!(heads.scalar(&e, -1).open(&d, &key, 2).unwrap(), vec![-10, -2, 0, 0]);
    }

    #[test]
    fn rerandomization_is_transparent_but_unlinkable() {
        let (e, d, key) = setup();
        let a = CounterMsg::seal(&e, &key, &[5, 1, 3, 0]);
        let r = a.rerandomize(&e);
        assert_ne!(a, r);
        assert_eq!(r.open(&d, &key, 2).unwrap(), vec![5, 1, 3, 0]);
    }

    #[test]
    fn forged_tuple_detected() {
        let (e, d, key) = setup();
        // A broker without the tag key encrypts values itself (Paillier is
        // public-key, so it *can* encrypt) — but cannot produce the tag.
        let forged = CounterMsg { fields: vec![packed(&e, &[999, 1, 0, 0, 12345, 0])].into() };
        assert_eq!(forged.open(&d, &key, 2), Err(ObliviousError::TagMismatch));
    }

    #[test]
    fn forged_side_band_detected() {
        let (e, d, key) = setup();
        let honest = CounterMsg::seal(&e, &key, &[5, 8, 7, 2]);
        // Re-packed with one value altered, under the honest tag digits.
        let mut altered = digits(&d, &honest);
        altered[3] += 1;
        let mut forged = honest.clone();
        forged.fields[0] = packed(&e, &altered);
        assert_eq!(forged.open(&d, &key, 2), Err(ObliviousError::TagMismatch));
        // A plaintext that is no tuple of four values and a tag at all.
        altered.push(1);
        forged.fields[0] = packed(&e, &altered);
        assert_eq!(forged.open(&d, &key, 2), Err(ObliviousError::SideBand(SlotError::OutOfLayout)));
    }

    #[test]
    fn the_tag_check_is_exact_not_modular() {
        let (e, d, key) = setup();
        let honest = CounterMsg::seal(&e, &key, &[5, 8, 7, 2]);
        // The tag moved by multiples of 2⁶⁴, and by 2⁴⁵ − 55, the largest
        // prime below 2⁴⁵: a check reduced modulo either would pass these,
        // but the integers differ.
        for (digit, delta) in [(5, 1i64 << 19), (5, -(3 << 19)), (4, (1 << 45) - 55)] {
            let mut moved = digits(&d, &honest);
            moved[digit] += delta;
            let forged = CounterMsg { fields: vec![packed(&e, &moved)].into() };
            assert_eq!(forged.open(&d, &key, 2), Err(ObliviousError::TagMismatch), "{delta}");
        }
    }

    #[test]
    fn spliced_fields_detected() {
        let (e, d, _) = setup();
        // Seven values and the tag: two ciphertexts at seven digits each,
        // the second holding the tag alone.
        let key = TagKey::derive(7, 7);
        let a = CounterMsg::seal(&e, &key, &[5, 1, 3, 0, 1, 2, 3]);
        let b = CounterMsg::seal(&e, &key, &[9, 1, 7, 2, 4, 5, 6]);
        assert_eq!(a.fields.len(), 2);
        // a's values under b's tag.
        let spliced = CounterMsg { fields: vec![a.fields[0].clone(), b.fields[1].clone()].into() };
        assert_eq!(spliced.open(&d, &key, 2), Err(ObliviousError::TagMismatch));
    }

    #[test]
    fn arity_mismatch_detected() {
        let (e, d, key) = setup();
        let a = CounterMsg::seal(&e, &key, &[5, 1, 3, 0]);
        let mut long = a.clone();
        long.fields.push(e.encrypt_i64(0));
        assert_eq!(
            long.open(&d, &key, 2),
            Err(ObliviousError::ArityMismatch { expected: 1, got: 2 })
        );
        let short = CounterMsg::<PaillierCtx> { fields: Fields::new() };
        assert_eq!(
            short.open(&d, &key, 2),
            Err(ObliviousError::ArityMismatch { expected: 1, got: 0 })
        );
    }

    #[test]
    fn works_identically_over_mock_cipher() {
        let mock = MockCipher::new(11);
        let key = TagKey::derive(3, 5);
        let a = CounterMsg::seal(&mock, &key, &[4, 1, 2]);
        let b = CounterMsg::seal(&mock, &key, &[6, 0, 3]);
        // Capacity one: a ciphertext per value, and one for the tag.
        assert_eq!(a.fields.len(), 4);
        assert_eq!(a.add(&mock, &b).open(&mock, &key, 2).unwrap(), vec![10, 1, 5]);
        let mut forged = a.clone();
        forged.fields[3] = mock.encrypt_i64(0);
        assert_eq!(forged.open(&mock, &key, 2), Err(ObliviousError::TagMismatch));
        // The side-band holds no negative value under the mock either, and
        // a value past a digit is no tuple.
        assert_eq!(
            a.sub(&mock, &b).open(&mock, &key, 2),
            Err(ObliviousError::SideBand(SlotError::Negative { slot: 2 }))
        );
        let mut wide = a.clone();
        wide.fields[2] = mock.encrypt_i64(1 << 44);
        assert_eq!(
            wide.open(&mock, &key, 2),
            Err(ObliviousError::SideBand(SlotError::OutOfLayout))
        );
    }

    #[test]
    fn a_key_that_carries_one_digit_seals_the_tag_as_one_wide_value() {
        let kp = Keypair::generate_with_seed(64, 5);
        let (e, d) = (kp.encryptor(), kp.decryptor());
        let key = TagKey::derive(4, 7);
        let msg = CounterMsg::seal(&e, &key, &[5, -1, 100, 0]);
        assert_eq!(msg.fields.len(), 5);
        assert_eq!(msg.open(&d, &key, 2).unwrap(), vec![5, -1, 100, 0]);
        let mut forged = msg.clone();
        forged.fields[4] = e.add(&forged.fields[4], &e.encrypt_i64(1));
        assert_eq!(forged.open(&d, &key, 2), Err(ObliviousError::TagMismatch));
    }

    #[test]
    fn a_tag_too_wide_for_its_slot_is_flagged_and_does_not_open() {
        let (e, d, _) = setup();
        let mock = MockCipher::new(3);
        // 1 024 values of 2⁴⁴ − 1 under coefficients of at least 2¹⁰: a
        // tag past 2⁶³, which two digits hold and one `i64` does not.
        let key = TagKey::derive(1024, 1);
        let values = vec![(1i64 << 44) - 1; 1024];
        assert!(CounterMsg::tag_fits(&e, &key, &values));
        assert!(!CounterMsg::tag_fits(&mock, &key, &values));
        assert_eq!(CounterMsg::seal(&e, &key, &values).open(&d, &key, 0).unwrap(), values);
        let wrapped = CounterMsg::seal(&mock, &key, &values);
        assert_eq!(wrapped.open(&mock, &key, 0), Err(ObliviousError::TagMismatch));
    }

    #[test]
    fn tuples_spill_by_capacity_and_digits_absorb_additions() {
        let (e, d, _) = setup();
        // 2 signed + 7 side-band values and the tag at seven digits a
        // ciphertext.
        let key = TagKey::derive(9, 3);
        assert_eq!(CounterMsg::ct_count(&e, 9), 2);
        let max = i64::from(u32::MAX);
        let one = CounterMsg::seal(&e, &key, &[-3, 40, max, 1, 2, 3, 4, 5, max]);
        assert_eq!(one.fields.len(), 2);
        let mut acc = one.clone();
        for _ in 1..64 {
            acc = acc.add(&e, &one);
        }
        assert_eq!(
            acc.rerandomize(&e).open(&d, &key, 2).unwrap(),
            vec![-192, 2560, 64 * max, 64, 128, 192, 256, 320, 64 * max]
        );
    }

    #[test]
    fn open_many_opens_an_honest_wave_in_one_pass() {
        let (e, d, key) = setup();
        let a = CounterMsg::seal(&e, &key, &[5, 1, 3, 0]);
        let b = CounterMsg::seal(&e, &key, &[2, 0, 1, 9]);
        let c = a.add(&e, &b);
        let opened = CounterMsg::open_many(&d, &key, 2, &[&a, &b, &c]);
        assert_eq!(opened, vec![Ok(vec![5, 1, 3, 0]), Ok(vec![2, 0, 1, 9]), Ok(vec![7, 1, 4, 9])]);
    }

    #[test]
    fn open_many_blames_exactly_the_forged_tuple() {
        let (e, d, key) = setup();
        let good = CounterMsg::seal(&e, &key, &[5, 1, 3, 0]);
        let mut tag_off = digits(&d, &good);
        tag_off[4] += 1;
        let forged = CounterMsg { fields: vec![packed(&e, &tag_off)].into() };
        let short = CounterMsg { fields: Fields::new() };
        let wide = CounterMsg { fields: vec![packed(&e, &[1, 3, 0, 0, 1, 2, 3])].into() };
        let negative = good.sub(&e, &good.scalar(&e, 2));
        let opened =
            CounterMsg::open_many(&d, &key, 2, &[&good, &forged, &short, &wide, &negative]);
        assert_eq!(opened.len(), 5);
        assert_eq!(opened[0], Ok(vec![5, 1, 3, 0]), "honest tuple survives the bad company");
        assert_eq!(opened[1], Err(ObliviousError::TagMismatch));
        assert_eq!(opened[2], Err(ObliviousError::ArityMismatch { expected: 1, got: 0 }));
        assert_eq!(opened[3], Err(ObliviousError::SideBand(SlotError::OutOfLayout)));
        assert_eq!(opened[4], Err(ObliviousError::SideBand(SlotError::Negative { slot: 2 })));
        assert_eq!(CounterMsg::open_many(&d, &key, 2, &[]), vec![]);
    }

    #[test]
    fn open_many_works_over_mock_cipher() {
        let mock = MockCipher::new(11);
        let key = TagKey::derive(3, 5);
        let a = CounterMsg::seal(&mock, &key, &[4, 1, 2]);
        let mut forged = a.clone();
        forged.fields[3] = mock.encrypt_i64(0);
        let opened = CounterMsg::open_many(&mock, &key, 2, &[&a, &forged]);
        assert_eq!(opened, vec![Ok(vec![4, 1, 2]), Err(ObliviousError::TagMismatch)]);
    }

    #[test]
    fn zeros_is_additive_identity() {
        let (e, d, key) = setup();
        let z = CounterMsg::zeros(&e, &key);
        let a = CounterMsg::seal(&e, &key, &[5, 1, 3, 0]);
        assert_eq!(a.add(&e, &z).open(&d, &key, 2).unwrap(), vec![5, 1, 3, 0]);
    }
}
