//! Controller-side plaintext views: the **only** module of the wire
//! layer allowed to name decryption.
//!
//! The wire format itself ([`crate::counter`]) is handled by brokers,
//! which hold no key — so that module carries the sealing and the
//! key-free algebra, while everything that turns a sealed counter back
//! into numbers lives here, behind the controller's SFE gate (§4.3: "only
//! controllers can decrypt"): the signed `sum`/`count` decrypt as
//! integers and the packed side-band unpacks into `num`, `share` and the
//! timestamps inside [`gridmine_paillier::CounterMsg::open_many`], the
//! tag is checked over the unpacked values, and only then is the share
//! reduced into its field. `gridlint`'s privacy-taint rule enforces the
//! split: `PlainCounter`, `open` and the `decrypt_*` family are banned
//! identifiers in every key-blind module.

use gridmine_paillier::{CounterMsg, HomCipher, ObliviousError, TagKey};

use crate::counter::{SecureCounter, F_NUM, F_TS};
use crate::shares::share_reduce;

/// Decrypted view of a counter (controller side only).
#[derive(Clone, Debug, PartialEq, Eq)]
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

/// Splits an opened field vector into the fixed head and the timestamp
/// tail without indexing (`CounterMsg::open` guarantees
/// `fields.len() == key.arity() ≥ F_TS + 1`, but the split stays total
/// anyway).
fn split_fields(fields: &[i64]) -> Result<(i64, i64, i64, i64, Vec<i64>), ObliviousError> {
    let mut it = fields.iter().copied();
    match (it.next(), it.next(), it.next(), it.next()) {
        (Some(sum), Some(count), Some(num), Some(share)) => {
            Ok((sum, count, num, share, it.collect()))
        }
        _ => Err(ObliviousError::ArityMismatch { expected: F_TS + 1, got: fields.len() }),
    }
}

impl<C: HomCipher> SecureCounter<C> {
    /// Controller-side: verify the tag and decrypt.
    pub fn open(&self, cipher: &C, key: &TagKey) -> Result<PlainCounter, ObliviousError> {
        let fields = self.msg.open(cipher, key, F_NUM)?;
        let (sum, count, num, share, ts) = split_fields(&fields)?;
        Ok(PlainCounter { sum, count, num, share: share_reduce(share), ts })
    }

    /// Batch form of [`SecureCounter::open`]: every ciphertext of every
    /// counter decrypts in one wave over the cipher's cached contexts and
    /// all tags verify through one combined check (see
    /// [`CounterMsg::open_many`]). Results align with `counters`.
    pub fn open_many(
        cipher: &C,
        key: &TagKey,
        counters: &[&Self],
    ) -> Vec<Result<PlainCounter, ObliviousError>> {
        let msgs: Vec<&CounterMsg<C>> = counters.iter().map(|c| &c.msg).collect();
        CounterMsg::open_many(cipher, key, F_NUM, &msgs)
            .into_iter()
            .map(|r| {
                let (sum, count, num, share, ts) = split_fields(&r?)?;
                Ok(PlainCounter { sum, count, num, share: share_reduce(share), ts })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_rejects_short_vectors() {
        assert!(split_fields(&[1, 2, 3]).is_err());
        let (sum, count, num, share, ts) = split_fields(&[1, 2, 3, 4]).unwrap();
        assert_eq!((sum, count, num, share), (1, 2, 3, 4));
        assert!(ts.is_empty());
        let (.., ts) = split_fields(&[1, 2, 3, 4, 5, 6]).unwrap();
        assert_eq!(ts, vec![5, 6]);
    }
}
