//! Controller-side plaintext views: the **only** module of the wire
//! layer allowed to name decryption.
//!
//! The wire format itself ([`crate::counter`]) is handled by brokers,
//! which hold no key — so that module carries the sealing and the
//! key-free algebra, while everything that turns a sealed counter back
//! into numbers lives here, behind the controller's SFE gate (§4.3: "only
//! controllers can decrypt"): the packed tuple unpacks into `sum`,
//! `count`, `num`, `share` and the timestamps inside
//! [`gridmine_paillier::CounterMsg::open_wave`], which refuses a negative
//! side-band value and checks the tag over the unpacked values, and only
//! then is the share reduced into its field — by the audit that reads it,
//! or by [`SecureCounter::open`]. `gridlint`'s privacy-taint rule enforces the
//! split: `PlainCounter`, `open` and the `decrypt_*` family are banned
//! identifiers in every key-blind module.

// No panic and no unchecked index on hostile input (DESIGN.md § Static analysis).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::unimplemented, clippy::disallowed_macros))]
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use gridmine_paillier::{CounterMsg, HomCipher, ObliviousError, TagKey, WaveBuffers};

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
    /// Share field: as the tuple sums it where the controller reads a
    /// counter in place ([`PlainCounter::read`]), reduced into the share
    /// field modulus where a counter is opened alone
    /// ([`PlainCounter::of`], [`SecureCounter::open`]).
    pub share: i64,
    /// Timestamp vector `(T_⊥, T_v₁ …)`.
    pub ts: Vec<i64>,
}

impl PlainCounter {
    /// Reads an opened field vector into `self` as it is, the share
    /// unreduced, keeping the timestamp buffer it has: the fixed head,
    /// then the tail, without indexing (`CounterMsg::open_wave`
    /// guarantees `fields.len() == key.arity() ≥ F_TS + 1`, but the split
    /// stays total anyway).
    pub fn read(&mut self, fields: &[i64]) -> Result<(), ObliviousError> {
        let mut it = fields.iter().copied();
        let (Some(sum), Some(count), Some(num), Some(share)) =
            (it.next(), it.next(), it.next(), it.next())
        else {
            return Err(ObliviousError::ArityMismatch { expected: F_TS + 1, got: fields.len() });
        };
        (self.sum, self.count, self.num, self.share) = (sum, count, num, share);
        self.ts.clear();
        self.ts.extend(it);
        Ok(())
    }

    /// A fresh view of an opened field vector, its share reduced.
    pub fn of(fields: &[i64]) -> Result<Self, ObliviousError> {
        let mut plain = PlainCounter::default();
        plain.read(fields)?;
        plain.share = share_reduce(plain.share);
        Ok(plain)
    }

    /// `self − other`, field by field in field order, into `out`.
    pub(crate) fn minus_into(&self, other: &PlainCounter, out: &mut Vec<i64>) {
        out.clear();
        out.extend_from_slice(&[
            self.sum - other.sum,
            self.count - other.count,
            self.num - other.num,
            self.share - other.share,
        ]);
        out.extend(self.ts.iter().zip(&other.ts).map(|(a, b)| a - b));
    }

    /// Adds `self` onto the field vector `out`, field by field.
    pub(crate) fn add_onto(&self, out: &mut [i64]) {
        let Some((head, ts)) = out.split_at_mut_checked(F_TS) else { return };
        for (o, v) in head.iter_mut().zip([self.sum, self.count, self.num, self.share]) {
            *o += v;
        }
        for (o, v) in ts.iter_mut().zip(&self.ts) {
            *o += v;
        }
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
        let mut opened = Vec::with_capacity(counters.len());
        let mut plains = WaveBuffers::default();
        Self::open_wave(cipher, key, counters.iter().copied(), &mut plains, |_, fields| {
            opened.push(fields.and_then(PlainCounter::of));
        });
        opened
    }

    /// Opens a wave of counters sealed under one key: every ciphertext of
    /// every counter decrypts in one pass over the cipher's cached
    /// contexts, and each tag is checked in the plaintext that pass
    /// returns (see [`CounterMsg::open_wave`]), into `plains`, buffers
    /// the caller keeps. `sink` gets each counter's index and its opened
    /// fields — for [`PlainCounter::read`] to put where the caller keeps
    /// them — or why it did not open.
    pub fn open_wave<'a>(
        cipher: &C,
        key: &TagKey,
        counters: impl Iterator<Item = &'a Self> + Clone,
        plains: &mut WaveBuffers,
        sink: impl FnMut(usize, Result<&[i64], ObliviousError>),
    ) where
        C: 'a,
    {
        CounterMsg::open_wave(cipher, key, F_NUM, counters.map(|c| &c.msg), plains, sink);
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

    #[test]
    fn an_in_place_read_keeps_the_share_as_summed_and_reads_back_whole() {
        let wide = [5, -6, 7, 3 * crate::shares::SHARE_MODULUS + 1, 0, 9];
        let mut p = PlainCounter::default();
        p.read(&wide).unwrap();
        assert_eq!(PlainCounter::of(&wide).unwrap().share, 1);
        // What the field vectors combine to, as the controller derives.
        let other = PlainCounter::of(&[1, 1, 1, 1, 0, 4]).unwrap();
        let mut out = Vec::new();
        p.minus_into(&other, &mut out);
        assert_eq!(out, [4, -7, 6, wide[3] - 1, 0, 5]);
        other.add_onto(&mut out);
        assert_eq!(out, wide);
    }
}
