//! Authenticated oblivious counters — the message unit of §5.2.
//!
//! A [`CounterMsg`] is the encrypted tuple
//! `⟨counter, share, T_⊥, T_v₁, …, T_v_d⟩_enc` from Algorithm 2, bound
//! together by a **homomorphic authentication tag**.
//!
//! # Format
//!
//! §4.2 makes the oblivious counter *one* plaintext, "encoding
//! (x₁,…,x_p) as x₁N₁ + x₂N₂ + … + x_p before encryption", so that a
//! message costs one encryption and one decryption. That encoding has no
//! room for a sign — a negative element borrows from its neighbour — and
//! the vote counters are signed (Algorithm 1's padding sequence seals
//! `s − 1`, negating transactions shrink both, and the broker's blinded
//! `Δ` scalar-multiplies and subtracts them). So a message's leading
//! *signed* fields travel as one ciphertext each, and everything after
//! them — the non-negative side-band: resource count, share, timestamp
//! vector — is sealed through [`HomCipher::encrypt_slots`] into as few
//! ciphertexts as the cipher's plaintext carries
//! ([`HomCipher::slots_per_ct`], greedy spill). At 512 bits that is one
//! ciphertext for up to 11 side-band values; under [`crate::MockCipher`],
//! whose plaintext is an `i64`, it is one per value — the same code, the
//! capacity-1 instance. `A+`, rerandomization and the well-formedness
//! screen act per ciphertext and never need to know which kind they hold.
//!
//! The tag is computed over the *logical* fields, so the relation
//! `D(tag) = Σ sᵢ·mᵢ` is checked after unpacking and stays an exact
//! equality: side-band sums are never reduced inside their slots (shares
//! included — the controller reduces them into their field after the
//! check, as it always did). A side-band plaintext that does not unpack
//! is reported as [`ObliviousError::SideBand`] and convicts the broker
//! exactly like a tag mismatch.
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
//! coefficient vector `s₁…s_p` and tag a tuple `(m₁…m_p)` with
//! `E(Σ sᵢ·mᵢ)`. Component-wise `A+`/`A−`/scalar on two tagged tuples
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

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};

use crate::slots::SlotError;
use crate::{HomCipher, Shape};

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
    /// A side-band ciphertext does not hold a tuple of slot values.
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
/// Coefficients are drawn from `[2^10, 2^20)` so that `Σ sᵢ·mᵢ` stays well
/// inside `i64` even when a field holds an aggregated 34-bit share sum,
/// while forging a tuple still requires guessing ≥ 20 unknown bits per
/// altered field — ample for a protocol whose other defence is detection,
/// not secrecy.
///
/// Not `Debug`: formatted coefficients are the forging key. Compare keys
/// with `==` instead.
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
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

    /// Plaintext tag of a tuple: `Σ sᵢ·mᵢ` over however many fields both
    /// sides share (honest callers pass exactly `arity()` fields; arity
    /// enforcement is the caller's door check). Wrapping, so that the
    /// 44-bit slot values a hostile broker can aggregate compare unequal
    /// instead of overflowing.
    pub fn tag_plain(&self, fields: &[i64]) -> i64 {
        debug_assert_eq!(fields.len(), self.coeffs.len());
        self.tag_of(fields.iter().copied())
    }

    fn tag_of(&self, fields: impl Iterator<Item = i64>) -> i64 {
        self.coeffs.iter().zip(fields).fold(0i64, |t, (c, m)| t.wrapping_add(c.wrapping_mul(m)))
    }
}

/// The shapes of the ciphertexts of a message with `signed` leading
/// signed fields and `side` side-band values, `cap` slots to a ciphertext.
fn shapes(signed: usize, side: usize, cap: usize) -> impl Iterator<Item = Shape> {
    let packed = (0..side).step_by(cap).map(move |at| Shape::Slots(cap.min(side - at)));
    std::iter::repeat_n(Shape::Signed, signed).chain(packed)
}

/// An authenticated encrypted tuple: the wire format of every
/// Secure-Scalable-Majority message field group.
#[derive(Debug, Serialize, Deserialize)]
#[serde(bound(serialize = "C::Ct: Serialize", deserialize = "C::Ct: Deserialize<'de>"))]
pub struct CounterMsg<C: HomCipher> {
    /// Ciphertexts of the tuple: the signed fields in protocol order,
    /// then the packed side-band (see the module docs).
    pub fields: Vec<C::Ct>,
    /// Homomorphic authentication tag: encryption of `Σ sᵢ·mᵢ` over the
    /// logical fields.
    pub tag: C::Ct,
}

impl<C: HomCipher> PartialEq for CounterMsg<C> {
    fn eq(&self, other: &Self) -> bool {
        self.fields == other.fields && self.tag == other.tag
    }
}

impl<C: HomCipher> Clone for CounterMsg<C> {
    fn clone(&self) -> Self {
        CounterMsg { fields: self.fields.clone(), tag: self.tag.clone() }
    }

    /// Field-wise, so a slot that is overwritten message after message
    /// keeps its buffer.
    fn clone_from(&mut self, source: &Self) {
        self.fields.clone_from(&source.fields);
        self.tag.clone_from(&source.tag);
    }
}

impl<C: HomCipher> CounterMsg<C> {
    /// Accountant-side construction: one ciphertext per `signed` field,
    /// the `side` band packed, and the tag over all of them in that
    /// order. Total: a `u32` fits its slot by type.
    pub fn seal(cipher: &C, key: &TagKey, signed: &[i64], side: &[u32]) -> Self {
        assert_eq!(signed.len() + side.len(), key.arity(), "field count must match tag key arity");
        let mut fields: Vec<C::Ct> =
            Vec::with_capacity(Self::ct_count(cipher, signed.len(), side.len()));
        fields.extend(signed.iter().map(|&m| cipher.encrypt_i64(m)));
        cipher.encrypt_slots(side, &mut fields);
        let logical = signed.iter().copied().chain(side.iter().map(|&v| i64::from(v)));
        CounterMsg { fields, tag: cipher.encrypt_i64(key.tag_of(logical)) }
    }

    /// Ciphertexts (the tag aside) a message of `signed` signed fields
    /// and `side` side-band values has under `cipher`. Key-free: the
    /// broker's door screen compares against it.
    pub fn ct_count(cipher: &C, signed: usize, side: usize) -> usize {
        signed + side.div_ceil(cipher.slots_per_ct())
    }

    /// Key-free ciphertext-wise addition (the broker's aggregation step).
    pub fn add(&self, cipher: &C, other: &Self) -> Self {
        assert_eq!(self.fields.len(), other.fields.len(), "cannot add tuples of different shape");
        let fields = self.fields.iter().zip(&other.fields).map(|(a, b)| cipher.add(a, b)).collect();
        CounterMsg { fields, tag: cipher.add(&self.tag, &other.tag) }
    }

    /// [`CounterMsg::add`] into `self`: an aggregate over many tuples is
    /// one buffer, not one per term.
    pub fn add_assign(&mut self, cipher: &C, other: &Self) {
        assert_eq!(self.fields.len(), other.fields.len(), "cannot add tuples of different shape");
        for (a, b) in self.fields.iter_mut().zip(&other.fields) {
            *a = cipher.add(a, b);
        }
        self.tag = cipher.add(&self.tag, &other.tag);
    }

    /// Key-free ciphertext-wise subtraction. The side-band is unsigned:
    /// a difference with a negative slot no longer opens.
    pub fn sub(&self, cipher: &C, other: &Self) -> Self {
        assert_eq!(
            self.fields.len(),
            other.fields.len(),
            "cannot subtract tuples of different shape"
        );
        let fields = self.fields.iter().zip(&other.fields).map(|(a, b)| cipher.sub(a, b)).collect();
        CounterMsg { fields, tag: cipher.sub(&self.tag, &other.tag) }
    }

    /// Key-free scalar multiplication (iterated `A+`); like
    /// [`CounterMsg::sub`], only a non-negative side-band opens.
    pub fn scalar(&self, cipher: &C, m: i64) -> Self {
        let fields = self.fields.iter().map(|c| cipher.scalar(m, c)).collect();
        CounterMsg { fields, tag: cipher.scalar(m, &self.tag) }
    }

    /// Key-free rerandomization of every component — what `Update(v)` in
    /// Algorithm 1 applies before sending, so receivers cannot tell whether
    /// an aggregate changed.
    pub fn rerandomize(&self, cipher: &C) -> Self {
        let fields = self.fields.iter().map(|c| cipher.rerandomize(c)).collect();
        CounterMsg { fields, tag: cipher.rerandomize(&self.tag) }
    }

    /// A sealed all-zero tuple (additive identity with a *valid* tag).
    pub fn zeros(cipher: &C, key: &TagKey, signed: usize) -> Self {
        Self::seal(cipher, key, &vec![0; signed], &vec![0; key.arity().saturating_sub(signed)])
    }

    /// Controller-side: verify the tag and decrypt all fields of a
    /// message sealed with `signed` leading signed fields.
    ///
    /// Returns the logical plaintext tuple or the malicious-behaviour
    /// error the controller must broadcast (Algorithm 3).
    pub fn open(
        &self,
        cipher: &C,
        key: &TagKey,
        signed: usize,
    ) -> Result<Vec<i64>, ObliviousError> {
        let pattern = Self::pattern(cipher, signed, key.arity());
        let mut opened = Err(ObliviousError::TagMismatch);
        Self::open_wave(cipher, key, &pattern, std::iter::once(self), |_, fields| {
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
        let pattern = Self::pattern(cipher, signed, key.arity());
        let mut opened = Vec::with_capacity(msgs.len());
        Self::open_wave(cipher, key, &pattern, msgs.iter().copied(), |_, fields| {
            opened.push(fields.map(<[i64]>::to_vec));
        });
        opened
    }

    /// What each ciphertext of a message of `arity` logical fields, the
    /// first `signed` of them signed, holds under `cipher`: the pattern
    /// [`CounterMsg::open_wave`] reads a wave by. It follows from the
    /// cipher's capacity and the arity alone, so whoever opens wave after
    /// wave of one shape works it out once.
    pub fn pattern(cipher: &C, signed: usize, arity: usize) -> Vec<Shape> {
        shapes(signed, arity.saturating_sub(signed), cipher.slots_per_ct()).collect()
    }

    /// Controller-side batch opening: decrypt a whole wave of tuples
    /// sealed under one key, of one [`CounterMsg::pattern`], in a single
    /// pass.
    ///
    /// All ciphertexts of all conforming tuples decrypt through one
    /// [`HomCipher::decrypt_wave`] call and all tags verify through one
    /// [`HomCipher::verify_tags_batch`] check; only when that combined
    /// check fails does each tuple re-verify alone, so blame lands on
    /// exactly the forged ones. `sink` is handed each message's index in
    /// `msgs` and its logical tuple — a view into the wave's one
    /// plaintext buffer, for the caller to read where it wants it — or
    /// why it did not open; once per message, in order.
    pub fn open_wave<'a>(
        cipher: &C,
        key: &TagKey,
        pattern: &[Shape],
        msgs: impl Iterator<Item = &'a Self> + Clone,
        mut sink: impl FnMut(usize, Result<&[i64], ObliviousError>),
    ) where
        C: 'a,
    {
        let arity = key.arity();
        // Shape screen: hostile tuples drop out before the batch.
        let shaped = msgs.clone().filter(|m| m.fields.len() == pattern.len());
        let wave = shaped.clone().count();
        let mut cts: Vec<&C::Ct> = Vec::with_capacity(wave * pattern.len());
        cts.extend(shaped.flat_map(|m| m.fields.iter()));
        let (plains, refused) = cipher.decrypt_wave(&cts, pattern);
        let unpacked = || {
            let cts_of = msgs.clone().map(|m| m.fields.len());
            unpacked(cts_of, pattern.len(), arity, &plains, &refused)
        };
        // Tags of the tuples that unpacked, against what their fields say.
        let mut tags: Vec<&C::Ct> = Vec::with_capacity(wave);
        let mut expected: Vec<i64> = Vec::with_capacity(wave);
        for (m, fields) in msgs.clone().zip(unpacked()) {
            if let Ok(fields) = fields {
                tags.push(&m.tag);
                expected.push(key.tag_plain(fields));
            }
        }
        let all_verify = cipher.verify_tags_batch(&tags, &expected);
        for (i, (m, fields)) in msgs.clone().zip(unpacked()).enumerate() {
            let verifies = |fields: &[i64]| {
                all_verify || cipher.verify_tags_batch(&[&m.tag], &[key.tag_plain(fields)])
            };
            let fields = match fields {
                Ok(fields) if !verifies(fields) => Err(ObliviousError::TagMismatch),
                unpacked => unpacked,
            };
            sink(i, fields);
        }
    }
}

/// What each message of a wave — `cts_of` its ciphertext count —
/// unpacked to, before its tag is looked at: `plains` holds one tuple of
/// `arity` values, and `refused` indexes one run of `cts_each`
/// ciphertexts, per shaped message, in order.
fn unpacked<'w>(
    cts_of: impl Iterator<Item = usize> + 'w,
    cts_each: usize,
    arity: usize,
    plains: &'w [i64],
    refused: &'w [(usize, SlotError)],
) -> impl Iterator<Item = Result<&'w [i64], ObliviousError>> + 'w {
    let mut tuples = plains.chunks(arity);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Keypair, MockCipher, PaillierCtx};

    /// 256-bit keys carry five slots, so the two side-band values of
    /// these 2 + 2 tuples share one ciphertext: three plus the tag.
    fn setup() -> (PaillierCtx, PaillierCtx, TagKey) {
        let kp = Keypair::generate_with_seed(256, 0xBEEF);
        (kp.encryptor(), kp.decryptor(), TagKey::derive(4, 7))
    }

    fn side(e: &PaillierCtx, values: &[u32]) -> crate::Ciphertext {
        let mut out = Vec::new();
        e.encrypt_slots(values, &mut out);
        out.pop().unwrap()
    }

    #[test]
    fn seal_open_roundtrip() {
        let (e, d, key) = setup();
        let msg = CounterMsg::seal(&e, &key, &[5, -1], &[100, 0]);
        assert_eq!(msg.fields.len(), 3);
        assert_eq!(msg.open(&d, &key, 2).unwrap(), vec![5, -1, 100, 0]);
    }

    #[test]
    fn addition_preserves_tag() {
        let (e, d, key) = setup();
        let a = CounterMsg::seal(&e, &key, &[5, 1], &[3, 0]);
        let b = CounterMsg::seal(&e, &key, &[2, 0], &[1, 9]);
        let sum = a.add(&e, &b);
        assert_eq!(sum.open(&d, &key, 2).unwrap(), vec![7, 1, 4, 9]);
    }

    #[test]
    fn subtraction_and_scalar_preserve_tag() {
        let (e, d, key) = setup();
        let a = CounterMsg::seal(&e, &key, &[10, 2], &[4, 4]);
        let b = CounterMsg::seal(&e, &key, &[3, 1], &[1, 1]);
        assert_eq!(a.sub(&e, &b).open(&d, &key, 2).unwrap(), vec![7, 1, 3, 3]);
        assert_eq!(a.scalar(&e, 3).open(&d, &key, 2).unwrap(), vec![30, 6, 12, 12]);
        // The signed fields take any sign; a side-band slot driven below
        // zero borrows from its neighbour and no longer opens.
        assert_eq!(
            b.sub(&e, &a).open(&d, &key, 2),
            Err(ObliviousError::SideBand(SlotError::OutOfLayout))
        );
        let heads = CounterMsg::seal(&e, &key, &[10, 2], &[0, 0]);
        assert_eq!(heads.scalar(&e, -1).open(&d, &key, 2).unwrap(), vec![-10, -2, 0, 0]);
    }

    #[test]
    fn rerandomization_is_transparent_but_unlinkable() {
        let (e, d, key) = setup();
        let a = CounterMsg::seal(&e, &key, &[5, 1], &[3, 0]);
        let r = a.rerandomize(&e);
        assert_ne!(a, r);
        assert_eq!(r.open(&d, &key, 2).unwrap(), vec![5, 1, 3, 0]);
    }

    #[test]
    fn forged_tuple_detected() {
        let (e, d, key) = setup();
        // A broker without the tag key encrypts values itself (Paillier is
        // public-key, so it *can* encrypt) — but cannot produce the tag.
        let forged = CounterMsg {
            fields: vec![e.encrypt_i64(999), e.encrypt_i64(1), side(&e, &[0, 0])],
            tag: e.encrypt_i64(12345),
        };
        assert_eq!(forged.open(&d, &key, 2), Err(ObliviousError::TagMismatch));
    }

    #[test]
    fn forged_side_band_detected() {
        let (e, d, key) = setup();
        let honest = CounterMsg::seal(&e, &key, &[5, 8], &[7, 2]);
        // Re-packed with one slot altered, under the honest tag.
        let mut forged = honest.clone();
        forged.fields[2] = side(&e, &[7, 3]);
        assert_eq!(forged.open(&d, &key, 2), Err(ObliviousError::TagMismatch));
        // A plaintext that is no tuple of two slots at all.
        forged.fields[2] = side(&e, &[1, 7, 2]);
        assert_eq!(forged.open(&d, &key, 2), Err(ObliviousError::SideBand(SlotError::OutOfLayout)));
    }

    #[test]
    fn spliced_fields_detected() {
        let (e, d, key) = setup();
        let a = CounterMsg::seal(&e, &key, &[5, 1], &[3, 0]);
        let b = CounterMsg::seal(&e, &key, &[9, 1], &[7, 2]);
        // Mix a's counter with b's remaining fields and b's tag.
        let spliced = CounterMsg {
            fields: vec![a.fields[0].clone(), b.fields[1].clone(), b.fields[2].clone()],
            tag: b.tag.clone(),
        };
        assert_eq!(spliced.open(&d, &key, 2), Err(ObliviousError::TagMismatch));
    }

    #[test]
    fn arity_mismatch_detected() {
        let (e, d, key) = setup();
        let a = CounterMsg::seal(&e, &key, &[5, 1], &[3, 0]);
        let truncated = CounterMsg { fields: a.fields[..2].to_vec(), tag: a.tag.clone() };
        assert_eq!(
            truncated.open(&d, &key, 2),
            Err(ObliviousError::ArityMismatch { expected: 3, got: 2 })
        );
    }

    #[test]
    fn works_identically_over_mock_cipher() {
        let mock = MockCipher::new(11);
        let key = TagKey::derive(3, 5);
        let a = CounterMsg::seal(&mock, &key, &[4, 1], &[2]);
        let b = CounterMsg::seal(&mock, &key, &[6, 0], &[3]);
        // Capacity one: a ciphertext per value, as it always was.
        assert_eq!(a.fields.len(), 3);
        assert_eq!(a.add(&mock, &b).open(&mock, &key, 2).unwrap(), vec![10, 1, 5]);
        let forged = CounterMsg { fields: a.fields.clone(), tag: mock.encrypt_i64(0) };
        assert_eq!(forged.open(&mock, &key, 2), Err(ObliviousError::TagMismatch));
        // The side-band is unsigned under the mock too.
        assert_eq!(
            a.sub(&mock, &b).open(&mock, &key, 2),
            Err(ObliviousError::SideBand(SlotError::OutOfLayout))
        );
    }

    #[test]
    fn side_band_spills_by_capacity_and_guard_bits_absorb_additions() {
        let (e, d, _) = setup();
        // 2 signed + 7 side-band values at five slots a ciphertext.
        let key = TagKey::derive(9, 3);
        assert_eq!(CounterMsg::ct_count(&e, 2, 7), 4);
        let one = CounterMsg::seal(&e, &key, &[-3, 40], &[u32::MAX, 1, 2, 3, 4, 5, u32::MAX]);
        assert_eq!(one.fields.len(), 4);
        let mut acc = one.clone();
        for _ in 1..64 {
            acc = acc.add(&e, &one);
        }
        let top = 64 * i64::from(u32::MAX);
        assert_eq!(
            acc.rerandomize(&e).open(&d, &key, 2).unwrap(),
            vec![-192, 2560, top, 64, 128, 192, 256, 320, top]
        );
    }

    #[test]
    fn open_many_opens_an_honest_wave_in_one_pass() {
        let (e, d, key) = setup();
        let a = CounterMsg::seal(&e, &key, &[5, 1], &[3, 0]);
        let b = CounterMsg::seal(&e, &key, &[2, 0], &[1, 9]);
        let c = a.add(&e, &b);
        let opened = CounterMsg::open_many(&d, &key, 2, &[&a, &b, &c]);
        assert_eq!(opened, vec![Ok(vec![5, 1, 3, 0]), Ok(vec![2, 0, 1, 9]), Ok(vec![7, 1, 4, 9])]);
    }

    #[test]
    fn open_many_blames_exactly_the_forged_tuple() {
        let (e, d, key) = setup();
        let good = CounterMsg::seal(&e, &key, &[5, 1], &[3, 0]);
        let forged = CounterMsg { fields: good.fields.clone(), tag: e.encrypt_i64(4242) };
        let short = CounterMsg { fields: good.fields[..2].to_vec(), tag: good.tag.clone() };
        let mut wide = good.clone();
        wide.fields[2] = side(&e, &[1, 3, 0]);
        let opened = CounterMsg::open_many(&d, &key, 2, &[&good, &forged, &short, &wide]);
        assert_eq!(opened.len(), 4);
        assert_eq!(opened[0], Ok(vec![5, 1, 3, 0]), "honest tuple survives the bad company");
        assert_eq!(opened[1], Err(ObliviousError::TagMismatch));
        assert_eq!(opened[2], Err(ObliviousError::ArityMismatch { expected: 3, got: 2 }));
        assert_eq!(opened[3], Err(ObliviousError::SideBand(SlotError::OutOfLayout)));
        assert_eq!(CounterMsg::open_many(&d, &key, 2, &[]), vec![]);
    }

    #[test]
    fn open_many_works_over_mock_cipher() {
        let mock = MockCipher::new(11);
        let key = TagKey::derive(3, 5);
        let a = CounterMsg::seal(&mock, &key, &[4, 1], &[2]);
        let forged = CounterMsg { fields: a.fields.clone(), tag: mock.encrypt_i64(0) };
        let opened = CounterMsg::open_many(&mock, &key, 2, &[&a, &forged]);
        assert_eq!(opened, vec![Ok(vec![4, 1, 2]), Err(ObliviousError::TagMismatch)]);
    }

    #[test]
    fn zeros_is_additive_identity() {
        let (e, d, key) = setup();
        let z = CounterMsg::zeros(&e, &key, 2);
        let a = CounterMsg::seal(&e, &key, &[5, 1], &[3, 0]);
        assert_eq!(a.add(&e, &z).open(&d, &key, 2).unwrap(), vec![5, 1, 3, 0]);
    }
}
