//! A vector that holds up to `N` values in place and spills to the heap
//! only past them.
//!
//! A counter in flight is a handful of ciphertexts; kept in a `Vec`, each
//! one sent is a heap buffer that its receiver — often another thread —
//! frees. [`InlineVec`] keeps them inside the value that carries them, so
//! a counter that fits is plain data: moving it copies bytes, dropping it
//! frees nothing. A wider one pays for one vector, as before.
//!
//! Unused inline slots hold `T::default()`, which for a ciphertext is
//! an empty value that owns no heap memory.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// Up to `N` values inline, any number on the heap.
pub struct InlineVec<T, const N: usize>(Repr<T, N>);

enum Repr<T, const N: usize> {
    /// The first `len` slots of `slots` are the values, the rest
    /// defaults. A `u32`, so that the length and the variant's tag share
    /// one word.
    Inline { len: u32, slots: [T; N] },
    /// More than `N` values, or a vector handed over whole.
    Heap(Vec<T>),
}

use Repr::{Heap, Inline};

impl<T: Default, const N: usize> InlineVec<T, N> {
    /// An empty vector, all of it inline.
    pub fn new() -> Self {
        InlineVec(Inline { len: 0, slots: std::array::from_fn(|_| T::default()) })
    }

    /// Whether the values live on the heap.
    pub fn spilled(&self) -> bool {
        matches!(self.0, Heap(_))
    }

    /// Appends `value`, moving everything to the heap if the inline slots
    /// are full.
    pub fn push(&mut self, value: T) {
        match &mut self.0 {
            Inline { len, slots } => match slots.get_mut(*len as usize) {
                Some(slot) => {
                    *slot = value;
                    *len += 1;
                }
                None => {
                    let mut spilled = Vec::with_capacity(2 * N + 1);
                    spilled.extend(slots.iter_mut().map(std::mem::take));
                    spilled.push(value);
                    self.0 = Heap(spilled);
                }
            },
            Heap(values) => values.push(value),
        }
    }

    /// Removes the last value and returns it.
    pub fn pop(&mut self) -> Option<T> {
        match &mut self.0 {
            Inline { len, slots } => {
                let last = slots.get_mut(len.checked_sub(1)? as usize).map(std::mem::take)?;
                *len -= 1;
                Some(last)
            }
            Heap(values) => values.pop(),
        }
    }

    /// Drops every value, keeping the storage it has.
    pub fn clear(&mut self) {
        match &mut self.0 {
            Inline { len, slots } => {
                slots.iter_mut().take(*len as usize).for_each(|slot| *slot = T::default());
                *len = 0;
            }
            Heap(values) => values.clear(),
        }
    }
}

impl<T: Clone + Default, const N: usize> Clone for InlineVec<T, N> {
    fn clone(&self) -> Self {
        InlineVec(match &self.0 {
            Inline { len, slots } => Inline { len: *len, slots: slots.clone() },
            Heap(values) => Heap(values.clone()),
        })
    }

    /// Value by value into the storage `self` has, so a slot that is
    /// overwritten message after message keeps whatever its values own.
    fn clone_from(&mut self, source: &Self) {
        match (&mut self.0, &source.0) {
            (Inline { len, slots }, Inline { len: n, slots: from }) => {
                let (head, tail) = slots.split_at_mut((*n as usize).min(N));
                head.clone_from_slice(from.get(..head.len()).unwrap_or_default());
                let stale = len.saturating_sub(*n) as usize;
                tail.iter_mut().take(stale).for_each(|slot| *slot = T::default());
                *len = *n;
            }
            (Heap(values), Heap(from)) => values.clone_from(from),
            _ => *self = source.clone(),
        }
    }
}

impl<T: Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match &self.0 {
            Inline { len, slots } => slots.get(..*len as usize).unwrap_or_default(),
            Heap(values) => values,
        }
    }
}

impl<T, const N: usize> DerefMut for InlineVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        match &mut self.0 {
            Inline { len, slots } => slots.get_mut(..*len as usize).unwrap_or_default(),
            Heap(values) => values,
        }
    }
}

impl<T: Default, const N: usize> Extend<T> for InlineVec<T, N> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, values: I) {
        for value in values {
            self.push(value);
        }
    }
}

impl<T: Default, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(values: I) -> Self {
        let mut out = Self::new();
        out.extend(values);
        out
    }
}

impl<T: Default, const N: usize> From<Vec<T>> for InlineVec<T, N> {
    /// Values that fit move inline; more keep the vector they came in.
    fn from(values: Vec<T>) -> Self {
        if values.len() > N {
            return InlineVec(Heap(values));
        }
        values.into_iter().collect()
    }
}

impl<'a, T, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T: PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Eq, const N: usize> Eq for InlineVec<T, N> {}

impl<T: fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_stay_inline_up_to_capacity_and_spill_past_it() {
        let mut v: InlineVec<String, 2> = InlineVec::new();
        v.push("a".into());
        v.push("b".into());
        assert!(!v.spilled());
        v.push("c".into());
        assert!(v.spilled());
        assert_eq!(&*v, ["a", "b", "c"]);
        assert_eq!(v.pop().as_deref(), Some("c"));
        let mut one: InlineVec<String, 2> = InlineVec::new();
        one.push("x".into());
        assert_eq!((one.pop().as_deref(), one.pop()), (Some("x"), None));
        v.clear();
        assert!(v.is_empty());
    }

    #[test]
    fn equality_and_conversions_see_only_the_values() {
        let inline: InlineVec<u8, 4> = vec![1, 2].into();
        let mut heap: InlineVec<u8, 4> = InlineVec(Heap(vec![1, 2]));
        assert_eq!(inline, heap);
        heap[1] = 3;
        assert_ne!(inline, heap);
        let wide: InlineVec<u8, 1> = vec![1, 2].into();
        assert!(wide.spilled());
        assert_eq!(wide.iter().copied().collect::<Vec<_>>(), [1, 2]);
        let mut cleared: InlineVec<String, 2> = ["x".to_string()].into_iter().collect();
        cleared.clear();
        cleared.push("y".into());
        assert_eq!(format!("{cleared:?}"), "[\"y\"]");
        let mut into: InlineVec<String, 3> =
            ["a", "b", "c"].map(String::from).into_iter().collect();
        into.clone_from(&cleared.iter().cloned().collect());
        assert_eq!(&*into, ["y"]);
        into.clone_from(&InlineVec(Heap(vec!["z".into(); 4])));
        assert!(into.spilled() && into.len() == 4);
    }
}
