//! Items and itemsets.
//!
//! An [`ItemSet`] is an immutable, sorted, duplicate-free set of items,
//! held in place up to seven items and as one heap slice past them. A
//! set that fits is plain data: the miners clone itemsets constantly when
//! they serve as hash keys, and a candidate rule travels between
//! resources in every counter message, so a clone is a copy of 32 bytes
//! — no allocation, and no reference count that threads contend on.

use std::fmt;
use std::hash::{Hash, Hasher};

use serde::{Deserialize, Serialize};

impl Serialize for ItemSet {
    fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        let ids: Vec<u32> = self.items().iter().map(|i| i.0).collect();
        ids.serialize(s)
    }
}

impl<'de> Deserialize<'de> for ItemSet {
    fn deserialize<D: serde::Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let ids = Vec::<u32>::deserialize(d)?;
        Ok(ItemSet::from_items(ids.into_iter().map(Item)))
    }
}

/// An item identifier from the domain `I = {i₁ … i_m}`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Item(pub u32);

impl fmt::Display for Item {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

impl From<u32> for Item {
    fn from(v: u32) -> Self {
        Item(v)
    }
}

/// Items an [`ItemSet`] holds in place.
const INLINE: usize = 7;

/// An immutable sorted set of items.
#[derive(Clone)]
pub struct ItemSet(Repr);

/// A set of at most [`INLINE`] items is always `Inline`, its unused
/// slots `Item(0)`; equality and hashing read the items alone anyway.
#[derive(Clone)]
enum Repr {
    Inline { len: u8, items: [Item; INLINE] },
    Heap(Box<[Item]>),
}

impl ItemSet {
    /// The empty itemset (the left-hand side of frequency rules `∅ ⇒ X`).
    pub fn empty() -> Self {
        ItemSet(Repr::Inline { len: 0, items: [Item(0); INLINE] })
    }

    /// The set of `items`, which ascend strictly.
    fn from_sorted(items: impl IntoIterator<Item = Item>) -> Self {
        let mut inline = [Item(0); INLINE];
        let mut items = items.into_iter();
        let mut len = 0;
        for item in items.by_ref() {
            match inline.get_mut(len) {
                Some(slot) => {
                    *slot = item;
                    len += 1;
                }
                None => {
                    let mut heap = inline.to_vec();
                    heap.push(item);
                    heap.extend(items);
                    return ItemSet(Repr::Heap(heap.into_boxed_slice()));
                }
            }
        }
        ItemSet(Repr::Inline { len: len as u8, items: inline })
    }

    /// Builds an itemset from arbitrary items; sorts and deduplicates.
    pub fn from_items<I: IntoIterator<Item = Item>>(items: I) -> Self {
        let mut v: Vec<Item> = items.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        Self::from_sorted(v)
    }

    /// Builds from raw `u32` ids (test convenience).
    pub fn of(ids: &[u32]) -> Self {
        Self::from_items(ids.iter().map(|&i| Item(i)))
    }

    /// A singleton `{i}`.
    pub fn singleton(i: Item) -> Self {
        Self::from_sorted([i])
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items().len()
    }

    /// True for the empty itemset.
    pub fn is_empty(&self) -> bool {
        self.items().is_empty()
    }

    /// Sorted view of the items.
    pub fn items(&self) -> &[Item] {
        match &self.0 {
            Repr::Inline { len, items } => items.get(..usize::from(*len)).unwrap_or_default(),
            Repr::Heap(items) => items,
        }
    }

    /// Membership test (binary search).
    pub fn contains(&self, item: Item) -> bool {
        self.items().binary_search(&item).is_ok()
    }

    /// Subset test via a linear merge walk — `O(|self| + |other|)`.
    pub fn is_subset_of(&self, other: &ItemSet) -> bool {
        subset_of_sorted(self.items(), other.items())
    }

    /// Subset test against any sorted slice (e.g. a transaction's items).
    pub fn is_subset_of_sorted(&self, sorted: &[Item]) -> bool {
        subset_of_sorted(self.items(), sorted)
    }

    /// Set union.
    pub fn union(&self, other: &ItemSet) -> ItemSet {
        let (mut a, mut b) = (self.items().iter().peekable(), other.items().iter().peekable());
        Self::from_sorted(std::iter::from_fn(|| {
            let next = match (a.peek(), b.peek()) {
                (Some(&&x), Some(&&y)) => x.min(y),
                (Some(&&x), None) => x,
                (None, Some(&&y)) => y,
                (None, None) => return None,
            };
            a.next_if_eq(&&next);
            b.next_if_eq(&&next);
            Some(next)
        }))
    }

    /// Set difference `self \ other`.
    pub fn difference(&self, other: &ItemSet) -> ItemSet {
        Self::from_sorted(self.items().iter().copied().filter(|&i| !other.contains(i)))
    }

    /// `self` with one item removed.
    pub fn without(&self, item: Item) -> ItemSet {
        Self::from_sorted(self.items().iter().copied().filter(|&i| i != item))
    }

    /// `self ∪ {item}`.
    pub fn with(&self, item: Item) -> ItemSet {
        if self.contains(item) {
            return self.clone();
        }
        let (below, above) = self.items().split_at(self.items().partition_point(|&i| i < item));
        Self::from_sorted(below.iter().copied().chain([item]).chain(above.iter().copied()))
    }

    /// True if the two sets share no items.
    pub fn is_disjoint(&self, other: &ItemSet) -> bool {
        let (mut a, mut b) = (self.items().iter(), other.items().iter());
        let (mut x, mut y) = (a.next(), b.next());
        while let (Some(i), Some(j)) = (x, y) {
            use std::cmp::Ordering::*;
            match i.cmp(j) {
                Less => x = a.next(),
                Greater => y = b.next(),
                Equal => return false,
            }
        }
        true
    }

    /// All subsets of size `len - 1` (Apriori prune support).
    pub fn shrink_by_one(&self) -> impl Iterator<Item = ItemSet> + '_ {
        self.items().iter().map(move |&i| self.without(i))
    }
}

/// Merge-walk subset test over sorted slices.
pub(crate) fn subset_of_sorted(needle: &[Item], hay: &[Item]) -> bool {
    if needle.len() > hay.len() {
        return false;
    }
    let mut h = 0usize;
    'outer: for &n in needle {
        while h < hay.len() {
            use std::cmp::Ordering::*;
            match hay[h].cmp(&n) {
                Less => h += 1,
                Equal => {
                    h += 1;
                    continue 'outer;
                }
                Greater => return false,
            }
        }
        return false;
    }
    true
}

impl PartialEq for ItemSet {
    fn eq(&self, other: &Self) -> bool {
        self.items() == other.items()
    }
}

impl Eq for ItemSet {}

/// Hashes the items as a slice, as a set backed by one always did.
impl Hash for ItemSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.items().hash(state);
    }
}

fn fmt_itemset(set: &ItemSet, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if set.is_empty() {
        return write!(f, "∅");
    }
    write!(f, "{{")?;
    for (k, i) in set.items().iter().enumerate() {
        if k > 0 {
            write!(f, ",")?;
        }
        write!(f, "{}", i.0)?;
    }
    write!(f, "}}")
}

impl fmt::Debug for ItemSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_itemset(self, f)
    }
}

impl fmt::Display for ItemSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_itemset(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_sorts_and_dedups() {
        let s = ItemSet::of(&[3, 1, 2, 3, 1]);
        assert_eq!(s.items(), &[Item(1), Item(2), Item(3)]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn subset_and_disjoint() {
        let a = ItemSet::of(&[1, 3]);
        let b = ItemSet::of(&[1, 2, 3, 4]);
        let c = ItemSet::of(&[5, 6]);
        assert!(a.is_subset_of(&b));
        assert!(!b.is_subset_of(&a));
        assert!(ItemSet::empty().is_subset_of(&a));
        assert!(a.is_disjoint(&c));
        assert!(!a.is_disjoint(&b));
        assert!(a.is_disjoint(&ItemSet::empty()));
    }

    #[test]
    fn union_difference_with_without() {
        let a = ItemSet::of(&[1, 3]);
        let b = ItemSet::of(&[2, 3]);
        assert_eq!(a.union(&b), ItemSet::of(&[1, 2, 3]));
        assert_eq!(a.difference(&b), ItemSet::of(&[1]));
        assert_eq!(a.with(Item(2)), ItemSet::of(&[1, 2, 3]));
        assert_eq!(a.with(Item(1)), a);
        assert_eq!(a.without(Item(3)), ItemSet::of(&[1]));
    }

    #[test]
    fn shrink_by_one_yields_all_maximal_proper_subsets() {
        let s = ItemSet::of(&[1, 2, 3]);
        let subs: Vec<ItemSet> = s.shrink_by_one().collect();
        assert_eq!(subs.len(), 3);
        assert!(subs.contains(&ItemSet::of(&[2, 3])));
        assert!(subs.contains(&ItemSet::of(&[1, 3])));
        assert!(subs.contains(&ItemSet::of(&[1, 2])));
    }

    #[test]
    fn small_sets_are_plain_values_and_large_ones_one_slice() {
        let seven = ItemSet::of(&[7, 6, 5, 4, 3, 2, 1]);
        assert!(matches!(seven.0, Repr::Inline { len: 7, .. }));
        let eight = seven.with(Item(0));
        assert!(matches!(eight.0, Repr::Heap(_)));
        assert_eq!(eight.items().first(), Some(&Item(0)));
        // Back under the bound, a set is inline again, and compares and
        // hashes as its items do, however it was built.
        let back = eight.without(Item(0));
        assert!(matches!(back.0, Repr::Inline { .. }));
        assert_eq!(back, seven);
        let hash = |s: &ItemSet| {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            s.hash(&mut h);
            h.finish()
        };
        let slice = |items: &[Item]| {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            items.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&back), hash(&seven));
        assert_eq!(hash(&eight), slice(eight.items()));
        assert_eq!(size_of::<ItemSet>(), 32);
        assert_eq!(
            ItemSet::of(&[1, 4, 9, 12]).union(&ItemSet::of(&[2, 4, 10, 11, 13])),
            ItemSet::of(&[1, 2, 4, 9, 10, 11, 12, 13])
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(ItemSet::empty().to_string(), "∅");
        assert_eq!(ItemSet::of(&[2, 1]).to_string(), "{1,2}");
    }
}
