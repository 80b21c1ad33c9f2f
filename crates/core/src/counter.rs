//! The protocol's authenticated encrypted message unit.
//!
//! A [`SecureCounter`] is the tuple of Algorithm 2,
//! `⟨counter, share, T_⊥, T_v₁, …, T_v_d⟩_enc`, except that the three
//! logical counters a broker handles together — `sum`, `count` and the
//! resource counter `num` of §5.1 — share one sealed tuple instead of
//! traveling as three separately sealed ones. The information flow is
//! identical (they are aggregated in lock-step everywhere in Algorithm 1);
//! fusing them cuts the crypto cost by 3× and lets a single authentication
//! tag bind the whole message, which is strictly stronger against
//! splicing.
//!
//! Logical field order: `[sum, count, num, share, T_⊥, T_v₁ … T_v_d]`,
//! where the timestamp slots follow the *receiving* resource's neighbor
//! ordering — "u assigns, in preprocessing, an entry in this vector to
//! each neighbor" (§5.2).
//!
//! On the wire that is §4.2's vectorised counter as far as the cipher can
//! carry it: `sum` and `count` are signed (the padding sequence seals
//! `s − 1`, negating transactions shrink both, the blinded `Δ` is computed
//! on them) and stay one ciphertext each; everything from [`F_NUM`] on is
//! the non-negative *side-band*, packed by
//! [`gridmine_paillier::oblivious`] into `⌈(3 + d) / slots_per_ct⌉`
//! ciphertexts. At 512 bits a counter of any degree up to 8 is four
//! ciphertexts (`sum`, `count`, side-band, tag); under the mock cipher it
//! is `6 + d`, one per value. Which one is a property of the cipher
//! handle, never a choice made here.
//!
//! Side-band values are sealed as `u32`: the accountant's own (`num`,
//! share, clock) are typed so where they enter, and what a controller
//! read out of an aggregate is refused by [`SecureCounter::seal_outgoing`]
//! if it does not fit.

use std::sync::Arc;

use gridmine_paillier::{CounterMsg, HomCipher, TagKey};

/// Field indices within the logical tuple.
pub const F_SUM: usize = 0;
/// Index of the transaction-count field.
pub const F_COUNT: usize = 1;
/// Index of the resource-count (`num`) field — the first of the packed
/// side-band; the fields before it are the signed ones.
pub const F_NUM: usize = 2;
/// Index of the accounting share field.
pub const F_SHARE: usize = 3;
/// Index of the first timestamp slot (`T_⊥`).
pub const F_TS: usize = 4;

/// The slot map of one resource's counters: who owns it and which neighbor
/// occupies which timestamp slot. Every counter carries the one it was
/// sealed under, so the neighbor list is shared: a clone is a reference
/// count, and two handles on one list compare equal at a glance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterLayout {
    /// The resource this layout belongs to (whose aggregates use it).
    pub owner: usize,
    /// Neighbor ids in slot order (slot `F_TS + 1 + i` belongs to
    /// `neighbors[i]`; slot `F_TS` is `⊥`, the own accountant). Whatever
    /// a resource keeps per neighbor, it keeps in this order.
    pub neighbors: Arc<[usize]>,
}

/// [`CounterLayout`] as it serializes.
#[derive(serde::Serialize, serde::Deserialize)]
struct LayoutRepr {
    owner: usize,
    neighbors: Vec<usize>,
}

impl serde::Serialize for CounterLayout {
    fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        LayoutRepr { owner: self.owner, neighbors: self.neighbors.to_vec() }.serialize(s)
    }
}

impl<'de> serde::Deserialize<'de> for CounterLayout {
    fn deserialize<D: serde::Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let repr = LayoutRepr::deserialize(d)?;
        Ok(CounterLayout::new(repr.owner, repr.neighbors))
    }
}

impl CounterLayout {
    /// Builds a layout; neighbor order is normalized (sorted) so that all
    /// three entities of a resource agree on slots without coordination.
    pub fn new(owner: usize, mut neighbors: Vec<usize>) -> Self {
        neighbors.sort_unstable();
        neighbors.dedup();
        CounterLayout { owner, neighbors: neighbors.into() }
    }

    /// Total field count of a sealed tuple under this layout.
    pub fn arity(&self) -> usize {
        F_TS + 1 + self.neighbors.len()
    }

    /// Where neighbor `v` sits in slot order, or `None` when `v` is not a
    /// neighbor of the owner.
    pub fn slot_of(&self, v: usize) -> Option<usize> {
        self.neighbors.iter().position(|&n| n == v)
    }

    /// The timestamp slot of neighbor `v`, or `None` when `v` is not a
    /// neighbor of the owner.
    pub fn ts_slot(&self, v: usize) -> Option<usize> {
        self.slot_of(v).map(|pos| F_TS + 1 + pos)
    }

    /// Carries per-neighbor state over a membership change: `held`, in
    /// this layout's slot order, becomes what it holds for each neighbor
    /// that stays, in `next`'s; a new neighbor starts from the default.
    pub fn reslot<T: Default>(&self, next: &CounterLayout, mut held: Vec<T>) -> Vec<T> {
        let kept = |&v: &usize| self.slot_of(v).and_then(|at| held.get_mut(at)).map(std::mem::take);
        next.neighbors.iter().map(kept).map(Option::unwrap_or_default).collect()
    }
}

/// Runs `f` on a buffer of `len` copies of `fill`: on the stack up to 16
/// of them — the ciphertexts of a mock counter of degree 10, the
/// side-band values of one of degree 13 — so that sealing a counter
/// allocates its ciphertexts, screening one allocates nothing, and only a
/// wider layout pays for a vector.
pub(crate) fn with_buffer<T: Copy, R>(len: usize, fill: T, f: impl FnOnce(&mut [T]) -> R) -> R {
    let mut inline = [fill; 16];
    match inline.get_mut(..len) {
        Some(buffer) => f(buffer),
        None => f(&mut vec![fill; len]),
    }
}

/// A sealed counter tuple plus the layout it was sealed under.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
#[serde(bound(
    serialize = "C::Ct: serde::Serialize",
    deserialize = "C::Ct: serde::Deserialize<'de>"
))]
pub struct SecureCounter<C: HomCipher> {
    /// The authenticated encrypted tuple.
    pub msg: CounterMsg<C>,
    /// Slot map (public routing metadata, not secret).
    pub layout: CounterLayout,
}

impl<C: HomCipher> PartialEq for SecureCounter<C> {
    fn eq(&self, other: &Self) -> bool {
        self.layout == other.layout && self.msg == other.msg
    }
}

impl<C: HomCipher> Clone for SecureCounter<C> {
    fn clone(&self) -> Self {
        SecureCounter { msg: self.msg.clone(), layout: self.layout.clone() }
    }

    /// Into the buffers `self` already has (see [`CounterMsg`]'s).
    fn clone_from(&mut self, source: &Self) {
        self.msg.clone_from(&source.msg);
        self.layout.clone_from(&source.layout);
    }
}

impl<C: HomCipher> SecureCounter<C> {
    /// Accountant-side sealing of a local counter: own share, own logical
    /// time at `T_⊥`, zeros in every neighbor slot.
    #[allow(clippy::too_many_arguments)]
    pub fn seal_local(
        cipher: &C,
        key: &TagKey,
        layout: &CounterLayout,
        sum: i64,
        count: i64,
        num: u32,
        own_share: u32,
        ts: u32,
    ) -> Self {
        let msg = with_buffer(layout.arity() - F_NUM, 0u32, |side| {
            for (slot, v) in side.iter_mut().zip([num, own_share, ts]) {
                *slot = v;
            }
            CounterMsg::seal(cipher, key, &[sum, count], side)
        });
        SecureCounter { msg, layout: layout.clone() }
    }

    /// Controller-side sealing of an *outgoing* message from `sender` to the
    /// layout's owner: the aggregate values, the receiver-assigned share,
    /// and the sender's logical time in its designated slot. `None` when
    /// `sender` has no slot in `receiver_layout` (a wiring error the
    /// caller surfaces however fits its trust level), or when `num`, the
    /// share or the time — read out of an aggregate other parties fed —
    /// is not the `u32` a side-band slot seals.
    #[allow(clippy::too_many_arguments)]
    pub fn seal_outgoing(
        cipher: &C,
        key: &TagKey,
        receiver_layout: &CounterLayout,
        sender: usize,
        sum: i64,
        count: i64,
        num: i64,
        receiver_share_for_sender: i64,
        sender_time: i64,
    ) -> Option<Self> {
        let slot = receiver_layout.ts_slot(sender)?;
        let placed = [(F_NUM, num), (F_SHARE, receiver_share_for_sender), (slot, sender_time)];
        let msg = with_buffer(receiver_layout.arity() - F_NUM, 0u32, |side| {
            for (at, v) in placed {
                *side.get_mut(at - F_NUM)? = u32::try_from(v).ok()?;
            }
            Some(CounterMsg::seal(cipher, key, &[sum, count], side))
        })?;
        Some(SecureCounter { msg, layout: receiver_layout.clone() })
    }

    /// An all-zero counter with a valid tag (additive identity).
    pub fn zeros(cipher: &C, key: &TagKey, layout: &CounterLayout) -> Self {
        SecureCounter { msg: CounterMsg::zeros(cipher, key, F_NUM), layout: layout.clone() }
    }

    /// How many field ciphertexts (the tag aside) a counter under `layout`
    /// has with this cipher — what the broker's door screen holds a wire
    /// counter to.
    pub fn field_cts(cipher: &C, layout: &CounterLayout) -> usize {
        CounterMsg::<C>::ct_count(cipher, F_NUM, layout.arity() - F_NUM)
    }

    /// Key-free aggregation (the broker's only write operation).
    ///
    /// # Panics
    /// Panics if the layouts differ — counters of different resources can
    /// never be meaningfully summed.
    pub fn add(&self, cipher: &C, other: &Self) -> Self {
        assert_eq!(self.layout, other.layout, "cannot add counters of different layouts");
        SecureCounter { msg: self.msg.add(cipher, &other.msg), layout: self.layout.clone() }
    }

    /// [`SecureCounter::add`] into `self` — how a broker sums a rule's
    /// counters into one buffer.
    ///
    /// # Panics
    /// As [`SecureCounter::add`].
    pub fn add_assign(&mut self, cipher: &C, other: &Self) {
        assert_eq!(self.layout, other.layout, "cannot add counters of different layouts");
        self.msg.add_assign(cipher, &other.msg);
    }

    /// Key-free rerandomization: other ciphertexts that open to the same
    /// counter. No protocol path needs it — nothing a broker aggregates
    /// leaves its resource, the controller seals every outgoing message
    /// fresh — but it is what tells a counter's bytes from its content,
    /// and the suites use it for that.
    pub fn rerandomize(&self, cipher: &C) -> Self {
        SecureCounter { msg: self.msg.rerandomize(cipher), layout: self.layout.clone() }
    }

    /// Serialized size on the wire: every field ciphertext plus the tag
    /// (layout metadata is a handful of small integers, ignored).
    pub fn wire_bytes(&self) -> usize {
        self.msg.fields.iter().map(|c| C::ct_bytes(c)).sum::<usize>() + C::ct_bytes(&self.msg.tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keyring::GridKeys;
    use gridmine_paillier::MockCipher;

    fn setup() -> (GridKeys<MockCipher>, CounterLayout) {
        (GridKeys::mock(1), CounterLayout::new(0, vec![2, 1]))
    }

    #[test]
    fn layout_normalizes_neighbors() {
        let l = CounterLayout::new(0, vec![3, 1, 2, 1]);
        assert_eq!(*l.neighbors, [1, 2, 3]);
        assert_eq!(l.arity(), F_TS + 4);
        assert_eq!(l.ts_slot(1), Some(F_TS + 1));
        assert_eq!(l.ts_slot(3), Some(F_TS + 3));
    }

    #[test]
    fn foreign_ts_slot_is_none() {
        assert_eq!(CounterLayout::new(0, vec![1]).ts_slot(9), None);
        assert!(SecureCounter::seal_outgoing(
            &GridKeys::mock(1).enc,
            &GridKeys::mock(1).tags.key(6),
            &CounterLayout::new(0, vec![1]),
            9,
            0,
            0,
            0,
            0,
            0
        )
        .is_none());
    }

    #[test]
    fn seal_local_roundtrip() {
        let (keys, layout) = setup();
        let key = keys.tags.key(layout.arity());
        let c = SecureCounter::seal_local(&keys.enc, &key, &layout, 7, 10, 1, 42, 3);
        let p = c.open(&keys.dec, &key).unwrap();
        assert_eq!((p.sum, p.count, p.num, p.share), (7, 10, 1, 42));
        assert_eq!(p.ts, vec![3, 0, 0]);
    }

    #[test]
    fn aggregation_sums_fields_slotwise() {
        let (keys, layout) = setup();
        let key = keys.tags.key(layout.arity());
        let local = SecureCounter::seal_local(&keys.enc, &key, &layout, 5, 8, 1, 100, 2);
        let from_1 =
            SecureCounter::seal_outgoing(&keys.enc, &key, &layout, 1, 3, 4, 2, 200, 9).unwrap();
        let agg = local.add(&keys.pub_ops, &from_1);
        let p = agg.open(&keys.dec, &key).unwrap();
        assert_eq!((p.sum, p.count, p.num, p.share), (8, 12, 3, 300));
        assert_eq!(p.ts, vec![2, 9, 0]);
    }

    #[test]
    fn rerandomize_preserves_opening() {
        let (keys, layout) = setup();
        let key = keys.tags.key(layout.arity());
        let c = SecureCounter::seal_local(&keys.enc, &key, &layout, 1, 2, 3, 4, 5);
        let r = c.rerandomize(&keys.pub_ops);
        assert_ne!(c, r);
        assert_eq!(c.open(&keys.dec, &key).unwrap(), r.open(&keys.dec, &key).unwrap());
    }

    #[test]
    #[should_panic(expected = "different layouts")]
    fn cross_layout_addition_panics() {
        let keys = GridKeys::mock(1);
        let l0 = CounterLayout::new(0, vec![1]);
        let l1 = CounterLayout::new(1, vec![0]);
        let k0 = keys.tags.key(l0.arity());
        let a = SecureCounter::zeros(&keys.enc, &k0, &l0);
        let b = SecureCounter::zeros(&keys.enc, &k0, &l1);
        let _ = a.add(&keys.pub_ops, &b);
    }

    #[test]
    fn one_format_chosen_by_the_ciphers_capacity() {
        // 512 bits carry 11 side-band slots: `sum`, `count`, one packed
        // ciphertext and the tag for every degree up to 8 (3 + d ≤ 11),
        // one more beyond. The mock carries one value per ciphertext.
        let keys = GridKeys::paillier(512, 0xFACE);
        let mock = GridKeys::mock(1);
        for degree in 0..=12usize {
            let layout = CounterLayout::new(0, (1..=degree).collect());
            let key = keys.tags.key(layout.arity());
            let c = SecureCounter::seal_local(&keys.enc, &key, &layout, -1, 8, 1, 7, 2);
            let want = if degree <= 8 { 3 } else { 4 };
            assert_eq!(c.msg.fields.len(), want, "degree {degree}");
            assert_eq!(SecureCounter::field_cts(&keys.pub_ops, &layout), want);
            // n² is 1024 bits: a ciphertext is at most 128 bytes.
            assert!(c.wire_bytes() <= (want + 1) * 128, "degree {degree}: {}", c.wire_bytes());
            let p = c.open(&keys.dec, &key).unwrap();
            assert_eq!((p.sum, p.count, p.num, p.share, p.ts[0]), (-1, 8, 1, 7, 2));
            assert_eq!(p.ts.len(), 1 + degree);

            let m = SecureCounter::seal_local(&mock.enc, &key, &layout, -1, 8, 1, 7, 2);
            assert_eq!(m.msg.fields.len(), layout.arity());
            assert_eq!(SecureCounter::field_cts(&mock.pub_ops, &layout), layout.arity());
        }
    }

    #[test]
    fn values_that_fit_no_slot_are_refused_at_the_seal() {
        let (keys, layout) = setup();
        let key = keys.tags.key(layout.arity());
        let seal = |num, share, ts| {
            SecureCounter::seal_outgoing(&keys.enc, &key, &layout, 1, -5, 5, num, share, ts)
        };
        assert!(seal(i64::from(u32::MAX), 0, i64::from(u32::MAX)).is_some());
        assert!(seal(1 << 32, 0, 0).is_none(), "num wider than a slot value");
        assert!(seal(0, -1, 0).is_none(), "negative share");
        assert!(seal(0, 0, 1 << 40).is_none(), "exhausted clock");
    }

    #[test]
    fn works_over_paillier_too() {
        let keys = GridKeys::paillier(256, 3);
        let layout = CounterLayout::new(7, vec![3]);
        let key = keys.tags.key(layout.arity());
        let local = SecureCounter::seal_local(&keys.enc, &key, &layout, 11, 20, 1, 5, 1);
        let inc =
            SecureCounter::seal_outgoing(&keys.enc, &key, &layout, 3, 9, 10, 4, 6, 2).unwrap();
        let agg = local.add(&keys.pub_ops, &inc).rerandomize(&keys.pub_ops);
        let p = agg.open(&keys.dec, &key).unwrap();
        assert_eq!((p.sum, p.count, p.num, p.share), (20, 30, 5, 11));
        assert_eq!(p.ts, vec![1, 2]);
    }
}
