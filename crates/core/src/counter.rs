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
//! On the wire that is §4.2's vectorised counter: the whole tuple and its
//! authentication tag are packed by [`gridmine_paillier::oblivious`] as
//! signed digits into `⌈(7 + d) / slots_per_ct⌉` ciphertexts. `sum` and
//! `count` take either sign (the padding sequence seals `s − 1`, negating
//! transactions shrink both); everything from [`F_NUM`] on is the
//! *side-band*, which opens only non-negative. At 512 bits a counter of
//! any degree up to 4 is one ciphertext, up to 15 two; under the mock
//! cipher it is `6 + d`, one per value and one for the tag. Which one is
//! a property of the cipher handle, never a choice made here.
//!
//! Values are sealed as digits: side-band values as `u32`, `sum` and
//! `count` within `±2⁴⁴`. The accountant's own are typed or bounded so
//! where they enter (its counts by its database), and what a controller
//! read out of an aggregate is refused by [`SecureCounter::seal_outgoing`]
//! if it does not fit, or if its tag does not.

// No panic and no unchecked index on hostile input (DESIGN.md § Static analysis).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::unimplemented, clippy::disallowed_macros))]
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use std::sync::Arc;

use gridmine_paillier::{slots, CounterMsg, HomCipher, InlineVec, TagKey};

/// Field indices within the logical tuple.
pub const F_SUM: usize = 0;
/// Index of the transaction-count field.
pub const F_COUNT: usize = 1;
/// Index of the resource-count (`num`) field — the first of the
/// side-band; the fields before it are the signed ones.
pub const F_NUM: usize = 2;
/// Index of the accounting share field.
pub const F_SHARE: usize = 3;
/// Index of the first timestamp slot (`T_⊥`).
pub const F_TS: usize = 4;

/// The slot map of one resource's counters: who owns it and which neighbor
/// occupies which timestamp slot. The resource and its three roles share
/// one neighbor list, so a clone is a reference count; a counter carries
/// a copy instead ([`LayoutStamp`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterLayout {
    /// The resource this layout belongs to (whose aggregates use it).
    pub owner: usize,
    /// Neighbor ids in slot order (slot `F_TS + 1 + i` belongs to
    /// `neighbors[i]`; slot `F_TS` is `⊥`, the own accountant). Whatever
    /// a resource keeps per neighbor, it keeps in this order.
    pub neighbors: Arc<[usize]>,
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

/// The layout a counter was sealed under, as plain values: the owner and
/// its neighbors in slot order, as the wire's 32-bit ids, in place up to
/// 10 neighbors. It is what a door screen holds a counter to — the
/// receiver's own layout, or its arity — and what the codec writes beside
/// the ciphertexts. Copying it shares nothing, so a counter in flight
/// holds no handle of its sender's or its receiver's.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LayoutStamp {
    /// The resource whose aggregates the counter is summed into.
    pub owner: u32,
    /// Its neighbors, in slot order.
    pub neighbors: InlineVec<u32, 10>,
}

impl LayoutStamp {
    /// Total field count of a tuple sealed under this layout.
    pub fn arity(&self) -> usize {
        F_TS + 1 + self.neighbors.len()
    }
}

/// A resource id as the wire carries it; an id past 32 bits, which no
/// grid has, saturates, and then stamps a layout it does not match.
fn wire_id(v: usize) -> u32 {
    u32::try_from(v).unwrap_or(u32::MAX)
}

impl From<&CounterLayout> for LayoutStamp {
    fn from(layout: &CounterLayout) -> Self {
        let neighbors = layout.neighbors.iter().map(|&v| wire_id(v)).collect();
        LayoutStamp { owner: wire_id(layout.owner), neighbors }
    }
}

/// Whether a counter was sealed under exactly this layout.
impl PartialEq<CounterLayout> for LayoutStamp {
    fn eq(&self, layout: &CounterLayout) -> bool {
        let same = |w: u32, v: usize| usize::try_from(w) == Ok(v);
        same(self.owner, layout.owner)
            && self.neighbors.len() == layout.neighbors.len()
            && self.neighbors.iter().zip(layout.neighbors.iter()).all(|(&w, &v)| same(w, v))
    }
}

/// Runs `f` on a buffer of `len` copies of `fill`: on the stack up to 16
/// of them — the ciphertexts or the values of a counter of degree 10, the
/// edges of a send wave — so that sealing or screening a counter, or
/// asking about its edges, allocates nothing, and only a wider layout
/// pays for a vector.
pub(crate) fn with_buffer<T: Copy, R>(len: usize, fill: T, f: impl FnOnce(&mut [T]) -> R) -> R {
    let mut inline = [fill; 16];
    match inline.get_mut(..len) {
        Some(buffer) => f(buffer),
        None => f(&mut vec![fill; len]),
    }
}

/// A sealed counter tuple plus the layout it was sealed under: plain
/// data, its ciphertexts and layout held in place (see
/// [`gridmine_paillier::Fields`], [`LayoutStamp`]), so that moving one
/// between threads copies bytes and dropping one frees nothing.
#[derive(Debug)]
pub struct SecureCounter<C: HomCipher> {
    /// The authenticated encrypted tuple.
    pub msg: CounterMsg<C>,
    /// Slot map (public routing metadata, not secret).
    pub layout: LayoutStamp,
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
    /// time at `T_⊥`, zeros in every neighbor slot. `sum` and `count` are
    /// the accountant's own, bounded by its database, far inside a digit.
    #[allow(clippy::too_many_arguments, reason = "one argument per sealed field")]
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
        let head = [sum, count].into_iter().chain([num, own_share, ts].map(i64::from));
        let msg = with_buffer(layout.arity(), 0i64, |values| {
            for (slot, v) in values.iter_mut().zip(head) {
                *slot = v;
            }
            CounterMsg::seal(cipher, key, values)
        });
        SecureCounter { msg, layout: layout.into() }
    }

    /// Controller-side sealing of an *outgoing* message from `sender` to the
    /// layout's owner: the aggregate values, the receiver-assigned share,
    /// and the sender's logical time in its designated slot. `None` when
    /// `sender` has no slot in `receiver_layout` (a wiring error the
    /// caller surfaces however fits its trust level), or when a value read
    /// out of an aggregate other parties fed does not fit its slot: `sum`
    /// or `count` no digit, `num`, the share or the time no `u32` — or the
    /// tag of them all none ([`CounterMsg::tag_fits`]).
    #[allow(clippy::too_many_arguments, reason = "one argument per sealed field")]
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
        if !slots::is_digit(sum) || !slots::is_digit(count) {
            return None;
        }
        let placed = [(F_NUM, num), (F_SHARE, receiver_share_for_sender), (slot, sender_time)];
        let msg = with_buffer(receiver_layout.arity(), 0i64, |values| {
            for (field, v) in values.iter_mut().zip([sum, count]) {
                *field = v;
            }
            for (at, v) in placed {
                *values.get_mut(at)? = i64::from(u32::try_from(v).ok()?);
            }
            CounterMsg::tag_fits(cipher, key, values).then(|| CounterMsg::seal(cipher, key, values))
        })?;
        Some(SecureCounter { msg, layout: receiver_layout.into() })
    }

    /// An all-zero counter with a valid tag (additive identity).
    pub fn zeros(cipher: &C, key: &TagKey, layout: &CounterLayout) -> Self {
        SecureCounter { msg: CounterMsg::zeros(cipher, key), layout: layout.into() }
    }

    /// How many ciphertexts, its tag's included, a counter under `layout`
    /// has with this cipher — what the broker's door screen holds a wire
    /// counter to.
    pub fn field_cts(cipher: &C, layout: &CounterLayout) -> usize {
        CounterMsg::<C>::ct_count(cipher, layout.arity())
    }

    /// Key-free aggregation into `self` — the broker's only write
    /// operation, by which it sums a rule's counters into one buffer.
    /// `false`, and `self` untouched, when the two were sealed under
    /// different layouts or hold different numbers of ciphertexts:
    /// counters of different resources can never be meaningfully summed.
    #[must_use]
    pub fn add_assign(&mut self, cipher: &C, other: &Self) -> bool {
        let fits = self.layout == other.layout && self.msg.fields.len() == other.msg.fields.len();
        if fits {
            self.msg.add_assign(cipher, &other.msg);
        }
        fits
    }

    /// Key-free rerandomization: other ciphertexts that open to the same
    /// counter. No protocol path needs it — nothing a broker aggregates
    /// leaves its resource, the controller seals every outgoing message
    /// fresh — but it is what tells a counter's bytes from its content,
    /// and the suites use it for that.
    pub fn rerandomize(&self, cipher: &C) -> Self {
        SecureCounter { msg: self.msg.rerandomize(cipher), layout: self.layout.clone() }
    }

    /// Serialized size on the wire: every ciphertext, its tag's included
    /// (layout metadata is a handful of small integers, ignored).
    pub fn wire_bytes(&self) -> usize {
        self.msg.fields.iter().map(|c| C::ct_bytes(c)).sum()
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

    /// `a + b`, as a broker sums them.
    fn add<C: HomCipher>(
        cipher: &C,
        a: &SecureCounter<C>,
        b: &SecureCounter<C>,
    ) -> SecureCounter<C> {
        let mut sum = a.clone();
        assert!(sum.add_assign(cipher, b), "counters of one layout");
        sum
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
        let agg = add(&keys.pub_ops, &local, &from_1);
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
    fn cross_layout_addition_is_refused_and_changes_nothing() {
        let keys = GridKeys::mock(1);
        let l0 = CounterLayout::new(0, vec![1]);
        let l1 = CounterLayout::new(1, vec![0]);
        let k0 = keys.tags.key(l0.arity());
        let a = SecureCounter::zeros(&keys.enc, &k0, &l0);
        let b = SecureCounter::zeros(&keys.enc, &k0, &l1);
        let mut sum = a.clone();
        assert!(!sum.add_assign(&keys.pub_ops, &b));
        assert_eq!(sum, a);
        // One layout, a ciphertext short: no sum either.
        let mut short = a.clone();
        short.msg.fields = a.msg.fields.iter().skip(1).cloned().collect();
        assert!(!sum.add_assign(&keys.pub_ops, &short));
        assert_eq!(sum, a);
    }

    #[test]
    fn a_stamp_is_its_layout_in_place() {
        let layout = CounterLayout::new(3, (0..20).filter(|&v| v != 3).collect());
        let stamp = LayoutStamp::from(&layout);
        assert!(stamp == layout && stamp.arity() == layout.arity());
        assert!(stamp.neighbors.spilled(), "past 10 neighbors");
        let small = CounterLayout::new(3, vec![1, 2]);
        let [of_small, of_other, of_far] =
            [&small, &CounterLayout::new(4, vec![1, 2]), &CounterLayout::new(1 << 40, vec![1])]
                .map(LayoutStamp::from);
        assert!(!of_small.neighbors.spilled());
        assert!(of_small != layout);
        assert!(of_other != small, "another owner");
        assert!(of_far != CounterLayout::new(1 << 40, vec![1]), "an id no wire carries");
    }

    #[test]
    fn one_format_chosen_by_the_ciphers_capacity() {
        // 512 bits carry 11 digits: the values and the tag's two digits
        // are one ciphertext for every degree up to 4 (5 + d + 2 ≤ 11),
        // two up to 15. The mock carries one value per ciphertext, and
        // the tag in one more.
        let keys = GridKeys::paillier(512, 0xFACE);
        let mock = GridKeys::mock(1);
        for degree in 0..=12usize {
            let layout = CounterLayout::new(0, (1..=degree).collect());
            let key = keys.tags.key(layout.arity());
            let c = SecureCounter::seal_local(&keys.enc, &key, &layout, -1, 8, 1, 7, 2);
            let want = if degree <= 4 { 1 } else { 2 };
            assert_eq!(c.msg.fields.len(), want, "degree {degree}");
            assert_eq!(SecureCounter::field_cts(&keys.pub_ops, &layout), want);
            // n² is 1024 bits: a ciphertext is at most 128 bytes.
            assert!(c.wire_bytes() <= want * 128, "degree {degree}: {}", c.wire_bytes());
            let p = c.open(&keys.dec, &key).unwrap();
            assert_eq!((p.sum, p.count, p.num, p.share, p.ts[0]), (-1, 8, 1, 7, 2));
            assert_eq!(p.ts.len(), 1 + degree);

            let m = SecureCounter::seal_local(&mock.enc, &key, &layout, -1, 8, 1, 7, 2);
            assert_eq!(m.msg.fields.len(), layout.arity() + 1);
            assert_eq!(SecureCounter::field_cts(&mock.pub_ops, &layout), layout.arity() + 1);
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
        let votes = |sum, count| {
            SecureCounter::seal_outgoing(&keys.enc, &key, &layout, 1, sum, count, 0, 0, 0)
        };
        assert!(votes(-(1 << 44), (1 << 44) - 1).is_some());
        assert!(votes(1 << 44, 0).is_none(), "sum past a digit");
        assert!(votes(0, -(1 << 44) - 1).is_none(), "count past a digit");
        // Digits whose tag is past an `i64`, the one wide value the mock
        // seals a tag in; two digits of a Paillier plaintext hold it.
        let top = (1 << 44) - 1;
        assert!(votes(top, top).is_none(), "a tag that fits no slot");
        let paillier = GridKeys::paillier(128, 5);
        let sealed =
            SecureCounter::seal_outgoing(&paillier.enc, &key, &layout, 1, top, top, 0, 0, 0)
                .expect("two digits hold the tag");
        let p = sealed.open(&paillier.dec, &key).unwrap();
        assert_eq!((p.sum, p.count), (top, top));
    }

    #[test]
    fn works_over_paillier_too() {
        let keys = GridKeys::paillier(256, 3);
        let layout = CounterLayout::new(7, vec![3]);
        let key = keys.tags.key(layout.arity());
        let local = SecureCounter::seal_local(&keys.enc, &key, &layout, 11, 20, 1, 5, 1);
        let inc =
            SecureCounter::seal_outgoing(&keys.enc, &key, &layout, 3, 9, 10, 4, 6, 2).unwrap();
        let agg = add(&keys.pub_ops, &local, &inc).rerandomize(&keys.pub_ops);
        let p = agg.open(&keys.dec, &key).unwrap();
        assert_eq!((p.sum, p.count, p.num, p.share), (20, 30, 5, 11));
        assert_eq!(p.ts, vec![1, 2]);
    }
}
