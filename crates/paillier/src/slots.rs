//! Signed-digit plaintext packing — the paper's §4.2 vectorization.
//!
//! > "extend the encryption and decryption functions to work over a tuple of
//! > integers while keeping the homomorphic property for each single
//! > element … by encoding (x₁,…,x_p) as x₁N₁ + x₂N₂ + … + x_p before
//! > encryption, and using modulo calculations for decoding."
//!
//! We take `Nᵢ = 2^(45·i)`: value `i` of a tuple is digit `i` of
//! `x = Σ xᵢ·2^(45·i)`, the first value lowest. Digits are *balanced* —
//! each lies in `[−2⁴⁴, 2⁴⁴)` — so `x` is a signed integer, and it enters
//! `Z_n` with the shifting convention the paper applies to negative
//! counters (`x < 0` is `n + x`). Reading back inverts both steps: the
//! residue is read centred mod `n`, then digit by digit from the low end,
//! each digit centred. What is left after the last digit must be zero;
//! otherwise the plaintext holds no tuple of that width and the read is
//! [`SlotError::OutOfLayout`].
//!
//! `A+`, `A−` and scalar multiplication act digit-wise while every digit
//! stays in its range: a digit driven below zero borrows one from the digit
//! above, and the centred read hands the borrow back. So signed values pack
//! with no bias and no per-slot guard bits, and a sum reads back exactly
//! while each of its digits stays below 2⁴⁴ in magnitude — 4096 times the
//! 32 bits a sealed side-band value occupies.
//!
//! `capacity(n_bits)` digits fit one plaintext of a modulus that long: the
//! tuples of `k` digits are the `2^(45k)` integers from
//! `−H = −2⁴⁴·(2^(45k) − 1)/(2⁴⁵ − 1)` on, each below `2^(45k)` in
//! magnitude, which the centred read of `Z_n` takes back whole while
//! `45·k + 2 ≤ n_bits` — 11 digits at 512 bits, 2 at 128, 1 at 64.
//!
//! What [`unpack`] is handed on the controller's side is whatever a broker
//! chose to aggregate, so both directions are total: any residue reads as
//! a tuple or as [`SlotError::OutOfLayout`], and [`pack`] encodes any `i64`
//! values (one outside a digit carries into the next, so the tuple no
//! longer reads back as sealed — callers seal digits).
//!
//! A sealed tuple ends in its authentication tag, an integer wider than a
//! digit: two adjacent digits where a ciphertext carries two or more
//! ([`tag_values`]), one wide value where it carries one. [`widths`] keeps
//! the two in one ciphertext, so the carry that an honest aggregate's low
//! tag digit makes lands in the high one, and the pair reads back as the
//! integer the tags sum to.

// No panic and no unchecked index on hostile input (DESIGN.md § Static analysis).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::unimplemented, clippy::disallowed_macros))]
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use num_bigint::BigUint;
use num_traits::{ToPrimitive, Zero};

use crate::keys::PublicKey;

/// Bits of one digit.
const DIGIT_BITS: u32 = 45;

/// Half the digit base: digits lie in `[−HALF, HALF)`.
const HALF: i64 = 1 << (DIGIT_BITS - 1);

/// Digits one plaintext of an `n_bits`-bit modulus carries (see the module
/// docs), at least one.
pub(crate) fn capacity(n_bits: u64) -> usize {
    (n_bits.saturating_sub(2) / u64::from(DIGIT_BITS)).max(1) as usize
}

/// Whether `v` fits one digit: `−2⁴⁴ ≤ v < 2⁴⁴`.
pub fn is_digit(v: i64) -> bool {
    (-HALF..HALF).contains(&v)
}

/// How many values each ciphertext of a sealed tuple of `len` values
/// holds, `cap` to a ciphertext, filled greedily in order — except that
/// the last two (the tag's digits) never part: a lone last value takes
/// the one before it along into its ciphertext. The count is
/// `⌈len / cap⌉` either way.
pub fn widths(cap: usize, len: usize) -> impl Iterator<Item = usize> + Clone {
    let cap = cap.max(1);
    let count = len.div_ceil(cap);
    let lone = cap > 1 && len > 1 && len % cap == 1;
    (0..count).map(move |i| match count - i {
        1 if lone => 2,
        2 if lone => cap - 1,
        _ => cap.min(len - i * cap),
    })
}

/// How many values a tag takes at capacity `cap`: two digits, or one wide
/// value when a ciphertext carries one.
pub fn tag_len(cap: usize) -> usize {
    if cap > 1 {
        2
    } else {
        1
    }
}

/// The tag `t` as its [`tag_len`] values, low first, and whether they
/// hold it exactly: two balanced digits, or one `i64`. A tag they do not
/// hold is written wrapped, and then reads back as another integer.
pub fn tag_values(cap: usize, t: i128) -> ([i64; 2], bool) {
    if cap == 1 {
        return ([t as i64, 0], i64::try_from(t).is_ok());
    }
    let low = ((t + i128::from(HALF)) & ((1 << DIGIT_BITS) - 1)) - i128::from(HALF);
    let high = (t - low) >> DIGIT_BITS;
    ([low as i64, high as i64], i64::try_from(high).is_ok_and(is_digit))
}

/// The integer a tag's values, low first, hold.
pub fn tag_of(values: &[i64]) -> i128 {
    values.iter().rev().fold(0, |t, &v| (t << DIGIT_BITS) + i128::from(v))
}

/// Why a plaintext did not read as a tuple.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlotError {
    /// The plaintext holds no tuple of its width: a digit carried out of
    /// the top, or a plaintext that was never packed at this width.
    OutOfLayout,
    /// Value `slot` of the tuple, which only a non-negative value may
    /// hold, is negative — a borrow out of `A−`, or a negative scalar.
    Negative { slot: usize },
}

impl std::fmt::Display for SlotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SlotError::OutOfLayout => write!(f, "plaintext holds no tuple of its width"),
            SlotError::Negative { slot } => write!(f, "value {slot} must not be negative"),
        }
    }
}

impl std::error::Error for SlotError {}

/// `Σ values[i]·2^(45·i)` as a residue mod `n`.
pub fn pack<'a>(pk: &PublicKey, values: impl IntoIterator<Item = &'a i64>) -> BigUint {
    let (mut pos, mut neg) = (BigUint::zero(), BigUint::zero());
    for (i, &v) in values.into_iter().enumerate() {
        let digit = BigUint::from(v.unsigned_abs()) << (DIGIT_BITS as usize * i);
        if v < 0 {
            neg += digit;
        } else {
            pos += digit;
        }
    }
    match pos.checked_sub(&neg) {
        Some(x) => x % &pk.n,
        None => match (neg - pos) % &pk.n {
            m if m.is_zero() => m,
            m => &pk.n - m,
        },
    }
}

/// Reads the `width` digits of the residue `m`, first value first, onto
/// `out`; on [`SlotError::OutOfLayout`] nothing is appended.
pub fn unpack(
    pk: &PublicKey,
    m: &BigUint,
    width: usize,
    out: &mut Vec<i64>,
) -> Result<(), SlotError> {
    // Adding 2⁴⁴ to every digit turns the balanced x into y = x + offset,
    // whose plain base-2⁴⁵ digits are the tuple's, each plus 2⁴⁴: x holds
    // a tuple of `width` digits iff 0 ≤ y < 2^(45·width).
    let offset = (0..width)
        .fold(BigUint::zero(), |h, _| (h << DIGIT_BITS) + BigUint::from(HALF.unsigned_abs()));
    let y = if *m > pk.half_n { (offset + m).checked_sub(&pk.n) } else { Some(offset + m) };
    let mut y = match y {
        Some(y) if y.bits() <= u64::from(DIGIT_BITS) * width as u64 => y,
        _ => return Err(SlotError::OutOfLayout),
    };
    let mask = BigUint::from((1u64 << DIGIT_BITS) - 1);
    for _ in 0..width {
        out.push((&y & &mask).to_i64().unwrap_or_default() - HALF);
        y >>= DIGIT_BITS;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HomCipher, Keypair};

    fn pk() -> PublicKey {
        Keypair::generate_with_seed(512, 99).public_key().clone()
    }

    fn read(pk: &PublicKey, m: &BigUint, width: usize) -> Result<Vec<i64>, SlotError> {
        let mut out = Vec::new();
        unpack(pk, m, width, &mut out).map(|()| out)
    }

    #[test]
    fn signed_digits_round_trip() {
        let pk = pk();
        let edge = [-HALF, HALF - 1, -1, 0, 1, 7, -(1 << 30)];
        assert_eq!(read(&pk, &pack(&pk, &edge), edge.len()), Ok(edge.to_vec()));
        assert!(pack(&pk, &[0, 0]).is_zero());
        // One value is `encrypt_i64`'s embedding of it.
        assert_eq!(pack(&pk, &[-5]), &pk.n - BigUint::from(5u8));
    }

    #[test]
    fn capacity_follows_the_modulus() {
        // ⌊(n_bits − 2) / 45⌋: the 64-bit fixture key, the suites' 128
        // bits, gridbench's 512 and the deployment's 1024 — each also one
        // bit short, as generated moduli may be.
        for (bits, cap) in [(63, 1), (64, 1), (127, 2), (128, 2), (511, 11), (512, 11), (1024, 22)]
        {
            assert_eq!(capacity(bits), cap, "{bits} bits");
        }
        assert_eq!(capacity(8), 1, "never zero");
        assert_eq!(widths(11, 7).collect::<Vec<_>>(), [7]);
        assert_eq!(widths(11, 17).collect::<Vec<_>>(), [11, 6]);
        assert_eq!(widths(11, 22).collect::<Vec<_>>(), [11, 11]);
        // A lone last value takes the one before it along.
        assert_eq!(widths(11, 12).collect::<Vec<_>>(), [10, 2]);
        assert_eq!(widths(11, 23).collect::<Vec<_>>(), [11, 10, 2]);
        assert_eq!(widths(2, 5).collect::<Vec<_>>(), [2, 1, 2]);
        assert_eq!(widths(1, 3).collect::<Vec<_>>(), [1, 1, 1]);
    }

    #[test]
    fn tags_split_into_the_values_that_hold_them() {
        // Two digits hold [−2⁸⁹ − 2⁴⁴, 2⁸⁹ − 2⁴⁴); past them the tag wraps.
        let (half, wide) = (i128::from(HALF), i128::from(HALF) << DIGIT_BITS);
        for t in [0, 1, -1, half, -half - 1, 1 << 88, wide - half - 1, -wide - half] {
            let (values, exact) = tag_values(11, t);
            assert!(exact && values.iter().all(|&v| is_digit(v)), "{t}");
            assert_eq!(tag_of(&values), t);
        }
        assert!(!tag_values(2, wide - half).1);
        assert!(!tag_values(2, -wide - half - 1).1);
        // One wide value holds an i64.
        assert_eq!(tag_values(1, -7), ([-7, 0], true));
        assert_eq!(tag_of(&[-7]), -7);
        assert!(!tag_values(1, i128::from(i64::MAX) + 1).1);
    }

    #[test]
    fn borrows_come_back_and_carries_out_of_the_top_do_not() {
        let pk = pk();
        // 3 − 5 in the low digit borrows from the one above; the centred
        // read returns it.
        let diff = (pack(&pk, &[3, 9]) + pack(&pk, &[-5, -9])) % &pk.n;
        assert_eq!(read(&pk, &diff, 2), Ok(vec![-2, 0]));
        // Either end of the tuples of two digits, and one step past it.
        let top = pack(&pk, &[HALF - 1, HALF - 1]);
        assert_eq!(read(&pk, &top, 2), Ok(vec![HALF - 1, HALF - 1]));
        assert_eq!(read(&pk, &(&top + 1u8), 2), Err(SlotError::OutOfLayout));
        let bottom = pack(&pk, &[-HALF, -HALF]);
        assert_eq!(read(&pk, &bottom, 2), Ok(vec![-HALF, -HALF]));
        assert_eq!(read(&pk, &(&bottom - 1u8), 2), Err(SlotError::OutOfLayout));
        // A three-digit tuple read at width two.
        assert_eq!(read(&pk, &pack(&pk, &[1, 2, 3]), 2), Err(SlotError::OutOfLayout));
    }

    #[test]
    fn homomorphic_algebra_acts_digitwise() {
        let kp = Keypair::generate_with_seed(512, 99);
        let (e, d) = (kp.encryptor(), kp.decryptor());
        let (a, b) = ([100i64, -7, 1, 2], [250i64, 9, -3, 4]);
        let ca = e.encrypt_residue(&pack(kp.public_key(), &a));
        let cb = e.encrypt_residue(&pack(kp.public_key(), &b));
        let open = |c: &crate::Ciphertext| read(kp.public_key(), &d.decrypt_residue(c), 4);
        assert_eq!(open(&e.add(&ca, &cb)), Ok(vec![350, 2, -2, 6]));
        assert_eq!(open(&e.sub(&ca, &cb)), Ok(vec![-150, -16, 4, -2]));
        assert_eq!(open(&e.scalar(-3, &ca)), Ok(vec![-300, 21, -3, -6]));
    }
}
