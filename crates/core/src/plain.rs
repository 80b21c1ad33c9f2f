//! Controller-side plaintext views: the **only** module of the wire
//! layer allowed to name decryption.
//!
//! The wire format itself ([`crate::counter`]) is handled by brokers,
//! which hold no key — so that module carries the sealing and the
//! key-free algebra, while everything that turns a sealed counter back
//! into numbers lives here, behind the controller's SFE gate (§4.3: "only
//! controllers can decrypt"): the signed `sum`/`count` decrypt as
//! integers and the packed side-band unpacks into `num`, `share` and the
//! timestamps inside [`gridmine_paillier::CounterMsg::open_wave`], the
//! tag is checked over the unpacked values, and only then is the share
//! reduced into its field. `gridlint`'s privacy-taint rule enforces the
//! split: `PlainCounter`, `open` and the `decrypt_*` family are banned
//! identifiers in every key-blind module.

use gridmine_paillier::{CounterMsg, HomCipher, ObliviousError, Shape, TagKey};

use crate::counter::{SecureCounter, F_NUM, F_TS};
use crate::shares::share_reduce;

/// Decrypted view of a counter (controller side only).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PlainCounter {
    /// Aggregated `sum` votes.
    pub sum: i64,
    /// Aggregated transaction count.
    pub count: i64,
    /// Aggregated resource count.
    pub num: i64,
    /// Share field, reduced into the share field modulus.
    pub share: i64,
    /// Timestamp vector `(T_⊥, T_v₁ …)`.
    pub ts: Vec<i64>,
}

impl PlainCounter {
    /// Reads an opened field vector into `self`, keeping the timestamp
    /// buffer it has: the fixed head, then the tail, without indexing
    /// (`CounterMsg::open_wave` guarantees `fields.len() == key.arity()
    /// ≥ F_TS + 1`, but the split stays total anyway).
    pub fn read(&mut self, fields: &[i64]) -> Result<(), ObliviousError> {
        let mut it = fields.iter().copied();
        let (Some(sum), Some(count), Some(num), Some(share)) =
            (it.next(), it.next(), it.next(), it.next())
        else {
            return Err(ObliviousError::ArityMismatch { expected: F_TS + 1, got: fields.len() });
        };
        (self.sum, self.count, self.num, self.share) = (sum, count, num, share_reduce(share));
        self.ts.clear();
        self.ts.extend(it);
        Ok(())
    }

    /// A fresh view of an opened field vector.
    pub fn of(fields: &[i64]) -> Result<Self, ObliviousError> {
        let mut plain = PlainCounter::default();
        plain.read(fields).map(|()| plain)
    }
}

/// What opening the counters of one layout takes, derived once per layout
/// epoch by the controller that opens them: the tag key of the layout's
/// arity and the shape of each ciphertext under the controller's cipher.
#[derive(Clone)]
pub struct OpenKey {
    key: TagKey,
    pattern: Vec<Shape>,
}

impl OpenKey {
    /// What counters sealed under `key` open with at a holder of `cipher`.
    pub fn new<C: HomCipher>(cipher: &C, key: TagKey) -> Self {
        OpenKey { pattern: CounterMsg::pattern(cipher, F_NUM, key.arity()), key }
    }
}

impl<C: HomCipher> SecureCounter<C> {
    /// Controller-side: verify the tag and decrypt.
    pub fn open(&self, cipher: &C, key: &TagKey) -> Result<PlainCounter, ObliviousError> {
        Self::open_many(cipher, key, &[self]).pop().unwrap_or(Err(ObliviousError::TagMismatch))
    }

    /// Batch form of [`SecureCounter::open`]; results align with
    /// `counters`.
    pub fn open_many(
        cipher: &C,
        key: &TagKey,
        counters: &[&Self],
    ) -> Vec<Result<PlainCounter, ObliviousError>> {
        let key = OpenKey::new(cipher, key.clone());
        let mut opened = Vec::with_capacity(counters.len());
        Self::open_wave(cipher, &key, counters.iter().copied(), |_, fields| {
            opened.push(fields.and_then(PlainCounter::of));
        });
        opened
    }

    /// Opens a wave of counters sealed under one key: every ciphertext of
    /// every counter decrypts in one pass over the cipher's cached
    /// contexts and all tags verify through one combined check (see
    /// [`CounterMsg::open_wave`]). `sink` gets each counter's index and
    /// its opened fields — for [`PlainCounter::read`] to put where the
    /// caller keeps them — or why it did not open.
    pub fn open_wave<'a>(
        cipher: &C,
        key: &OpenKey,
        counters: impl Iterator<Item = &'a Self> + Clone,
        sink: impl FnMut(usize, Result<&[i64], ObliviousError>),
    ) where
        C: 'a,
    {
        CounterMsg::open_wave(cipher, &key.key, &key.pattern, counters.map(|c| &c.msg), sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_rejects_short_vectors_and_reuses_the_timestamp_buffer() {
        assert!(PlainCounter::of(&[1, 2, 3]).is_err());
        let mut p = PlainCounter::of(&[1, 2, 3, 4]).unwrap();
        assert_eq!((p.sum, p.count, p.num, p.share), (1, 2, 3, 4));
        assert!(p.ts.is_empty());
        p.read(&[1, 2, 3, 4, 5, 6]).unwrap();
        assert_eq!(p.ts, vec![5, 6]);
        p.read(&[9, 8, 7, 6, 5]).unwrap();
        assert_eq!((p.sum, p.ts.as_slice()), (9, &[5][..]));
    }
}
