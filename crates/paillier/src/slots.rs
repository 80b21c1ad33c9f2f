//! Slot-vector plaintext packing — the paper's §4.2 vectorization.
//!
//! > "extend the encryption and decryption functions to work over a tuple of
//! > integers while keeping the homomorphic property for each single
//! > element … by encoding (x₁,…,x_p) as x₁N₁ + x₂N₂ + … + x_p before
//! > encryption, and using modulo calculations for decoding."
//!
//! We realize each `Nᵢ` as a power of two so packing is shifting. Each slot
//! has a *width* (its total bit budget) and a *capacity* (the bits values
//! may actually occupy); the difference is guard space that absorbs the
//! growth from homomorphic additions so a sum never carries into the next
//! slot. A [`SlotLayout`] fixes widths once per protocol instance; the
//! number of additions it can absorb before overflow is
//! `2^(width - capacity)`.
//!
//! One slot may be declared *modular*: its values are decoded modulo
//! `2^capacity`, so a field that intentionally wraps around stays
//! meaningful while its carries die in the guard bits.
//!
//! The product counter (`gridmine_paillier::oblivious`) packs its
//! non-negative side-band — `num`, `share` and the timestamp vector —
//! through [`SlotLayout::side_band`]: uniform [`SIDE_SLOT_BITS`]-bit slots
//! holding [`SIDE_VALUE_BITS`]-bit values, as many per ciphertext as
//! [`side_band_capacity`] says the plaintext modulus carries. Its shares
//! stay in their prime field and are *not* a modular slot: the un-reduced
//! running sum sits in the guard bits, so the authentication tag stays an
//! exact equality over the unpacked values.
//!
//! What [`SlotLayout::unpack`] is handed on the controller's side is
//! whatever a broker chose to aggregate, so both directions are total:
//! a value that does not fit its slot, a plaintext wider than the layout
//! (what a borrow from `A−` or a foreign plaintext decrypts to) and a
//! breached guard are a [`SlotError`], never a panic.

use num_bigint::BigUint;
use num_traits::{ToPrimitive, Zero};
use serde::{Deserialize, Serialize};

/// Width of one side-band slot of the product counter.
pub const SIDE_SLOT_BITS: u32 = 44;
/// Bits a *sealed* side-band value may occupy (they are `u32`s); the
/// other 12 bits of the slot absorb 4096 homomorphic additions.
pub const SIDE_VALUE_BITS: u32 = 32;

/// Side-band slots one plaintext of an `n_bits`-bit modulus carries. Two
/// bits stay clear, so every packed value is below `n/2` and anything
/// negative (`n − x`) reads as wider than its layout.
pub fn side_band_capacity(n_bits: u64) -> usize {
    (n_bits.saturating_sub(2) / u64::from(SIDE_SLOT_BITS)) as usize
}

/// Why a value vector did not pack, or a plaintext did not unpack.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlotError {
    /// The value count differs from the layout's slot count.
    CountMismatch { expected: usize, got: usize },
    /// A non-modular value exceeds its slot's capacity (packing only).
    ValueTooWide { slot: usize },
    /// A slot wider than 64 bits holds more than a `u64`: its guard bits
    /// were breached.
    GuardBreached { slot: usize },
    /// The plaintext has bits above the layout's total width — a borrow
    /// out of the top slot, or a plaintext that was never packed under
    /// this layout.
    OutOfLayout,
}

impl std::fmt::Display for SlotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SlotError::CountMismatch { expected, got } => {
                write!(f, "slot count mismatch: layout has {expected}, got {got} values")
            }
            SlotError::ValueTooWide { slot } => {
                write!(f, "value exceeds the capacity of slot {slot}")
            }
            SlotError::GuardBreached { slot } => write!(f, "slot {slot} overflowed its guard bits"),
            SlotError::OutOfLayout => write!(f, "plaintext wider than its slot layout"),
        }
    }
}

impl std::error::Error for SlotError {}

/// Static description of one packed slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Slot {
    /// Total bits reserved for the slot in the packed integer.
    pub width: u32,
    /// Bits a *single* stored value may occupy; `width - capacity` guard
    /// bits absorb addition growth.
    pub capacity: u32,
    /// If true the slot decodes modulo `2^capacity` (wrap-around
    /// semantics).
    pub modular: bool,
}

impl Slot {
    /// A plain accumulator slot.
    pub fn counter(width: u32, capacity: u32) -> Self {
        Slot { width, capacity, modular: false }
    }

    /// A modular (wrap-around) slot.
    pub fn modular(width: u32, capacity: u32) -> Self {
        Slot { width, capacity, modular: true }
    }

    /// `2^capacity − 1` (capacities are at most 63 bits).
    fn value_mask(&self) -> u64 {
        (1u64 << self.capacity) - 1
    }
}

/// A fixed layout of slots, most-significant first in the packed integer.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlotLayout {
    slots: Vec<Slot>,
    total_bits: u64,
}

/// A decoded slot vector (plaintext side).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SlotVector {
    /// Values, one per slot, in layout order.
    pub values: Vec<u64>,
}

impl SlotLayout {
    /// Builds a layout.
    ///
    /// # Panics
    /// Panics if a slot's capacity exceeds its width, a capacity exceeds
    /// 63 bits (values are `u64`), or the layout is empty.
    pub fn new(slots: Vec<Slot>) -> Self {
        assert!(!slots.is_empty(), "layout must have at least one slot");
        for (i, s) in slots.iter().enumerate() {
            assert!(s.capacity <= s.width, "slot {i}: capacity > width");
            assert!(s.capacity >= 1 && s.capacity <= 63, "slot {i}: capacity out of range");
            assert!(s.width <= 128, "slot {i}: width too large");
        }
        let total_bits = slots.iter().map(|s| s.width as u64).sum();
        SlotLayout { slots, total_bits }
    }

    /// The layout of one side-band ciphertext of the product counter:
    /// `n ≥ 1` uniform slots (see the module docs).
    pub fn side_band(n: usize) -> Self {
        SlotLayout::new(vec![Slot::counter(SIDE_SLOT_BITS, SIDE_VALUE_BITS); n])
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if the layout has no slots (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Total packed width in bits; must stay below the plaintext modulus
    /// bit length for the encryption to be lossless.
    pub fn total_bits(&self) -> u64 {
        self.total_bits
    }

    /// Slot descriptors.
    pub fn slots(&self) -> &[Slot] {
        &self.slots
    }

    /// Packs a vector of slot values into a single integer. Modular
    /// slots are reduced; a value count that mismatches the layout or a
    /// non-modular value above its slot capacity is refused.
    pub fn pack(&self, values: &[u64]) -> Result<BigUint, SlotError> {
        if values.len() != self.slots.len() {
            return Err(SlotError::CountMismatch { expected: self.slots.len(), got: values.len() });
        }
        let mut acc = BigUint::zero();
        for (i, (slot, &v)) in self.slots.iter().zip(values).enumerate() {
            let v = if slot.modular {
                v & slot.value_mask()
            } else if v > slot.value_mask() {
                return Err(SlotError::ValueTooWide { slot: i });
            } else {
                v
            };
            acc <<= slot.width;
            acc += BigUint::from(v);
        }
        Ok(acc)
    }

    /// Unpacks an integer into slot values, applying modular reduction to
    /// modular slots. Values may have grown into their guard bits; what
    /// cannot be read back — a slot holding more than a `u64`, bits above
    /// the layout — is a [`SlotError`].
    pub fn unpack(&self, packed: &BigUint) -> Result<SlotVector, SlotError> {
        if packed.bits() > self.total_bits {
            return Err(SlotError::OutOfLayout);
        }
        let mut rest = packed.clone();
        let mut values = Vec::with_capacity(self.slots.len());
        for (i, slot) in self.slots.iter().enumerate().rev() {
            let mask = (BigUint::from(1u8) << slot.width) - 1u8;
            let raw = (&rest & &mask).to_u64().ok_or(SlotError::GuardBreached { slot: i })?;
            values.push(if slot.modular { raw & slot.value_mask() } else { raw });
            rest >>= slot.width;
        }
        values.reverse();
        Ok(SlotVector { values })
    }

    /// Slot-wise sum of plain vectors — the reference semantics that
    /// homomorphic addition of packed encryptions must agree with.
    pub fn add_plain(&self, a: &SlotVector, b: &SlotVector) -> SlotVector {
        let values = self
            .slots
            .iter()
            .zip(a.values.iter().zip(&b.values))
            .map(|(slot, (&x, &y))| if slot.modular { (x + y) & slot.value_mask() } else { x + y })
            .collect();
        SlotVector { values }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HomCipher, Keypair};

    fn layout() -> SlotLayout {
        SlotLayout::new(vec![
            Slot::counter(48, 40),
            Slot::modular(40, 32),
            Slot::counter(40, 32),
            Slot::counter(40, 32),
        ])
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let l = layout();
        let vals = [123_456u64, 0xDEAD_BEEF, 7, 0];
        let packed = l.pack(&vals).unwrap();
        assert_eq!(l.unpack(&packed).unwrap().values, vals);
    }

    #[test]
    fn zero_roundtrip() {
        let l = layout();
        let packed = l.pack(&[0, 0, 0, 0]).unwrap();
        assert!(packed.is_zero());
        assert_eq!(l.unpack(&packed).unwrap().values, [0, 0, 0, 0]);
    }

    #[test]
    fn overflowing_counter_rejected() {
        let l = layout();
        assert_eq!(l.pack(&[1u64 << 41, 0, 0, 0]), Err(SlotError::ValueTooWide { slot: 0 }));
        assert_eq!(l.pack(&[0, 0, 1u64 << 32, 0]), Err(SlotError::ValueTooWide { slot: 2 }));
        assert_eq!(l.pack(&[0, 0, 0]), Err(SlotError::CountMismatch { expected: 4, got: 3 }));
    }

    #[test]
    fn modular_slot_wraps() {
        let l = layout();
        let a = l.unpack(&l.pack(&[0, u32::MAX as u64, 0, 0]).unwrap()).unwrap();
        let b = l.unpack(&l.pack(&[0, 5, 0, 0]).unwrap()).unwrap();
        let sum = l.add_plain(&a, &b);
        // (2^32 - 1) + 5 ≡ 4 (mod 2^32)
        assert_eq!(sum.values[1], 4);
    }

    #[test]
    fn plain_addition_matches_packed_integer_addition() {
        let l = layout();
        let a = [10u64, 20, 30, 40];
        let b = [1u64, 2, 3, 4];
        let pa = l.pack(&a).unwrap();
        let pb = l.pack(&b).unwrap();
        let packed_sum = l.unpack(&(pa + pb)).unwrap();
        let plain_sum =
            l.add_plain(&SlotVector { values: a.to_vec() }, &SlotVector { values: b.to_vec() });
        assert_eq!(packed_sum, plain_sum);
    }

    #[test]
    fn homomorphic_addition_acts_slotwise() {
        let kp = Keypair::generate_with_seed(512, 99);
        let (e, d) = (kp.encryptor(), kp.decryptor());
        let l = layout();
        assert!(l.total_bits() < kp.public_key().bits());

        let a = [100u64, 7, 1, 2];
        let b = [250u64, 9, 3, 4];
        let ca = e.encrypt_residue(&l.pack(&a).unwrap());
        let cb = e.encrypt_residue(&l.pack(&b).unwrap());
        let sum = e.add(&ca, &cb);
        let got = l.unpack(&d.decrypt_residue(&sum)).unwrap();
        assert_eq!(got.values, [350, 16, 4, 6]);
    }

    #[test]
    fn side_band_layout_follows_the_modulus() {
        // ⌊(n_bits − 2) / 44⌋: the 64-bit fixture key, the suites' 128
        // bits, gridbench's 512 and the deployment's 1024 — each one bit
        // short, as generated moduli may be.
        assert_eq!(side_band_capacity(63), 1);
        assert_eq!(side_band_capacity(127), 2);
        assert_eq!(side_band_capacity(511), 11);
        assert_eq!(side_band_capacity(1023), 23);
        let l = SlotLayout::side_band(11);
        assert_eq!(l.len(), 11);
        assert_eq!(l.total_bits(), 11 * 44);
        assert!(l.slots().iter().all(|s| *s == Slot::counter(SIDE_SLOT_BITS, SIDE_VALUE_BITS)));
        assert_eq!(l.pack(&[u64::from(u32::MAX); 11]).map(|p| p.bits()), Ok(10 * 44 + 32));
    }

    #[test]
    fn guard_bits_absorb_many_additions() {
        let l = SlotLayout::new(vec![Slot::counter(24, 8), Slot::counter(24, 8)]);
        let one = l.pack(&[200, 200]).unwrap();
        let mut acc = BigUint::zero();
        for _ in 0..1000 {
            acc += &one;
        }
        // 1000 * 200 = 200_000 < 2^24: no carry, slots intact.
        assert_eq!(l.unpack(&acc).unwrap().values, [200_000, 200_000]);
    }

    #[test]
    fn unpack_is_total_on_foreign_plaintexts() {
        let l = SlotLayout::side_band(2);
        // One bit above the layout: what a carry out of the top slot, a
        // plaintext packed for a wider layout, or a negative (n − x)
        // value all look like.
        let wide = BigUint::from(1u8) << 88u32;
        assert_eq!(l.unpack(&wide), Err(SlotError::OutOfLayout));
        assert_eq!(l.unpack(&(wide - 1u8)).unwrap().values, [(1 << 44) - 1, (1 << 44) - 1]);
        // A slot wider than a u64 whose guard bits filled up.
        let fat = SlotLayout::new(vec![Slot::counter(100, 40), Slot::counter(100, 40)]);
        let breached = BigUint::from(1u8) << 70u32;
        assert_eq!(fat.unpack(&breached), Err(SlotError::GuardBreached { slot: 1 }));
        assert_eq!(fat.unpack(&(breached << 100u32)), Err(SlotError::GuardBreached { slot: 0 }));
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn empty_layout_rejected() {
        let _ = SlotLayout::new(vec![]);
    }
}
