//! Offline stand-in for the `num-bigint` crate.
//!
//! Implements the subset of the upstream API that the Paillier layer and
//! the secure counters exercise: [`BigUint`] / [`BigInt`] arithmetic with
//! every reference combination the code uses, Knuth Algorithm-D division,
//! `modpow`, bit manipulation, big-endian byte codecs, the
//! `num-integer::Integer` impls (gcd / lcm / extended gcd) and the
//! [`RandBigInt`] sampling extension. Semantics match upstream.
//!
//! `modpow` dispatches to a Montgomery-form CIOS kernel with fixed-window
//! exponentiation for odd moduli ([`MontgomeryCtx`]); even moduli take a
//! division-per-step ladder. Karatsuba multiplication is still
//! omitted — schoolbook arithmetic is plenty at Paillier test-key sizes
//! once the per-step divisions are gone.

use std::cmp::Ordering;
use std::fmt;

use num_integer::{ExtendedGcd, Integer};
use num_traits::{One, ToPrimitive, Zero};
use rand::Rng;

mod montgomery;

pub use montgomery::{FixedBaseTable, MontgomeryCtx};

const BASE_BITS: u32 = 64;

/// An arbitrary-precision unsigned integer (little-endian `u64` limbs, no
/// trailing zero limbs).
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    limbs: Vec<u64>,
}

impl BigUint {
    fn from_limbs(mut limbs: Vec<u64>) -> Self {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        BigUint { limbs }
    }

    /// Number of significant bits (0 for zero).
    pub fn bits(&self) -> u64 {
        match self.limbs.last() {
            None => 0,
            Some(&top) => {
                (self.limbs.len() as u64 - 1) * BASE_BITS as u64 + (64 - top.leading_zeros()) as u64
            }
        }
    }

    /// Sets or clears bit `bit` (little-endian position).
    pub fn set_bit(&mut self, bit: u64, value: bool) {
        let limb = (bit / BASE_BITS as u64) as usize;
        let pos = (bit % BASE_BITS as u64) as u32;
        if value {
            if self.limbs.len() <= limb {
                self.limbs.resize(limb + 1, 0);
            }
            self.limbs[limb] |= 1u64 << pos;
        } else if limb < self.limbs.len() {
            self.limbs[limb] &= !(1u64 << pos);
            while self.limbs.last() == Some(&0) {
                self.limbs.pop();
            }
        }
    }

    /// Tests bit `bit`.
    pub fn bit(&self, bit: u64) -> bool {
        let limb = (bit / BASE_BITS as u64) as usize;
        let pos = (bit % BASE_BITS as u64) as u32;
        self.limbs.get(limb).is_some_and(|l| l >> pos & 1 == 1)
    }

    /// Big-endian byte encoding (empty for zero, like upstream's `[0]`?
    /// — upstream returns `[0]` for zero; match that).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.limbs.is_empty() {
            return vec![0];
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for limb in self.limbs.iter().rev() {
            out.extend_from_slice(&limb.to_be_bytes());
        }
        let first = out.iter().position(|&b| b != 0).unwrap_or(out.len() - 1);
        out.split_off(first)
    }

    /// Decodes a big-endian byte string.
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        for chunk in bytes.rchunks(8) {
            let mut buf = [0u8; 8];
            buf[8 - chunk.len()..].copy_from_slice(chunk);
            limbs.push(u64::from_be_bytes(buf));
        }
        BigUint::from_limbs(limbs)
    }

    fn add_mag(&self, other: &BigUint) -> BigUint {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u128;
        for (i, &l) in long.iter().enumerate() {
            let s = carry + l as u128 + *short.get(i).unwrap_or(&0) as u128;
            out.push(s as u64);
            carry = s >> 64;
        }
        if carry != 0 {
            out.push(carry as u64);
        }
        BigUint::from_limbs(out)
    }

    /// Magnitude subtraction; panics if `other > self` (same as upstream's
    /// unsigned subtraction overflow). The underflow check is a hard
    /// `assert!` so release builds cannot return a wrapped magnitude.
    fn sub_mag(&self, other: &BigUint) -> BigUint {
        self.checked_sub(other).expect("BigUint subtraction overflow")
    }

    /// Subtraction returning `None` on underflow instead of panicking
    /// (mirrors upstream's `CheckedSub`).
    pub fn checked_sub(&self, other: &BigUint) -> Option<BigUint> {
        if other.limbs.len() > self.limbs.len() {
            return None;
        }
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0i128;
        for i in 0..self.limbs.len() {
            let d = self.limbs[i] as i128 - *other.limbs.get(i).unwrap_or(&0) as i128 - borrow;
            if d < 0 {
                out.push((d + (1i128 << 64)) as u64);
                borrow = 1;
            } else {
                out.push(d as u64);
                borrow = 0;
            }
        }
        if borrow != 0 {
            return None;
        }
        Some(BigUint::from_limbs(out))
    }

    fn mul_mag(&self, other: &BigUint) -> BigUint {
        if self.limbs.is_empty() || other.limbs.is_empty() {
            return BigUint::default();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            if a == 0 {
                continue;
            }
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let t = a as u128 * b as u128 + out[i + j] as u128 + carry;
                out[i + j] = t as u64;
                carry = t >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry != 0 {
                let t = out[k] as u128 + carry;
                out[k] = t as u64;
                carry = t >> 64;
                k += 1;
            }
        }
        BigUint::from_limbs(out)
    }

    fn shl_bits(&self, bits: u64) -> BigUint {
        if self.limbs.is_empty() {
            return BigUint::default();
        }
        let limb_shift = (bits / 64) as usize;
        let bit_shift = (bits % 64) as u32;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push(l << bit_shift | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        BigUint::from_limbs(out)
    }

    fn shr_bits(&self, bits: u64) -> BigUint {
        let limb_shift = (bits / 64) as usize;
        if limb_shift >= self.limbs.len() {
            return BigUint::default();
        }
        let bit_shift = (bits % 64) as u32;
        let src = &self.limbs[limb_shift..];
        let mut out = Vec::with_capacity(src.len());
        if bit_shift == 0 {
            out.extend_from_slice(src);
        } else {
            for i in 0..src.len() {
                let hi = if i + 1 < src.len() { src[i + 1] << (64 - bit_shift) } else { 0 };
                out.push(src[i] >> bit_shift | hi);
            }
        }
        BigUint::from_limbs(out)
    }

    /// Quotient and remainder. Knuth Algorithm D for multi-limb divisors.
    ///
    /// # Panics
    /// Panics on division by zero.
    pub fn div_rem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.limbs.is_empty(), "division by zero");
        match self.cmp(divisor) {
            Ordering::Less => return (BigUint::default(), self.clone()),
            Ordering::Equal => return (BigUint::from(1u8), BigUint::default()),
            Ordering::Greater => {}
        }
        if divisor.limbs.len() == 1 {
            let d = divisor.limbs[0] as u128;
            let mut q = vec![0u64; self.limbs.len()];
            let mut rem = 0u128;
            for i in (0..self.limbs.len()).rev() {
                let cur = rem << 64 | self.limbs[i] as u128;
                q[i] = (cur / d) as u64;
                rem = cur % d;
            }
            return (BigUint::from_limbs(q), BigUint::from(rem as u64));
        }

        // Knuth D: normalize so the divisor's top limb has its high bit set.
        let shift = divisor.limbs.last().unwrap().leading_zeros() as u64;
        let v = divisor.shl_bits(shift);
        let mut u = self.shl_bits(shift).limbs;
        let n = v.limbs.len();
        let m = u.len() - n;
        u.push(0);
        let mut q = vec![0u64; m + 1];
        let vn1 = v.limbs[n - 1] as u128;
        let vn2 = v.limbs[n - 2] as u128;

        for j in (0..=m).rev() {
            let numer = (u[j + n] as u128) << 64 | u[j + n - 1] as u128;
            let mut qhat = numer / vn1;
            let mut rhat = numer % vn1;
            while qhat >> 64 != 0 || qhat * vn2 > (rhat << 64 | u[j + n - 2] as u128) {
                qhat -= 1;
                rhat += vn1;
                if rhat >> 64 != 0 {
                    break;
                }
            }
            // Multiply-and-subtract qhat * v from u[j .. j+n+1].
            let mut borrow = 0i128;
            let mut carry = 0u128;
            for i in 0..n {
                let p = qhat * v.limbs[i] as u128 + carry;
                carry = p >> 64;
                let t = u[j + i] as i128 - (p as u64) as i128 - borrow;
                if t < 0 {
                    u[j + i] = (t + (1i128 << 64)) as u64;
                    borrow = 1;
                } else {
                    u[j + i] = t as u64;
                    borrow = 0;
                }
            }
            let t = u[j + n] as i128 - carry as i128 - borrow;
            if t < 0 {
                // qhat was one too large: add v back.
                u[j + n] = (t + (1i128 << 64)) as u64;
                qhat -= 1;
                let mut c = 0u128;
                for i in 0..n {
                    let s = u[j + i] as u128 + v.limbs[i] as u128 + c;
                    u[j + i] = s as u64;
                    c = s >> 64;
                }
                u[j + n] = u[j + n].wrapping_add(c as u64);
            } else {
                u[j + n] = t as u64;
            }
            q[j] = qhat as u64;
        }

        u.truncate(n);
        let r = BigUint::from_limbs(u).shr_bits(shift);
        (BigUint::from_limbs(q), r)
    }

    /// Modular exponentiation. Odd moduli take the Montgomery fixed-window
    /// kernel ([`MontgomeryCtx`]); even moduli fall back to a
    /// square-and-multiply ladder. Callers that exponentiate repeatedly
    /// under one modulus should build a [`MontgomeryCtx`] themselves to
    /// amortize the context setup.
    pub fn modpow(&self, exp: &BigUint, modulus: &BigUint) -> BigUint {
        assert!(!modulus.limbs.is_empty(), "modpow with zero modulus");
        match MontgomeryCtx::new(modulus) {
            Some(ctx) => ctx.modpow(self, exp),
            None => modpow_ladder(self, exp, modulus),
        }
    }

    /// Binary (Stein) gcd, in place on two copies of the limbs: shifts
    /// and subtractions only, no division (exposed publicly through the
    /// `Integer` trait).
    fn gcd_mag(&self, other: &BigUint) -> BigUint {
        if self.is_zero() {
            return other.clone();
        }
        if other.is_zero() {
            return self.clone();
        }
        let (mut a, mut b) = (self.limbs.clone(), other.limbs.clone());
        let (za, zb) = (trailing_zeros(&a), trailing_zeros(&b));
        shr_in_place(&mut a, za);
        shr_in_place(&mut b, zb);
        // Both odd from here on: the larger minus the smaller is even and
        // non-zero until the two meet.
        loop {
            match cmp_limbs(&a, &b) {
                Ordering::Equal => break,
                Ordering::Less => std::mem::swap(&mut a, &mut b),
                Ordering::Greater => {}
            }
            sub_in_place(&mut a, &b);
            let z = trailing_zeros(&a);
            shr_in_place(&mut a, z);
        }
        BigUint::from_limbs(a).shl_bits(za.min(zb))
    }

    /// Least common multiple (exposed through the `Integer` trait).
    fn lcm_mag(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::default();
        }
        let g = self.gcd_mag(other);
        self.div_rem(&g).0.mul_mag(other)
    }
}

/// Trailing zero bits of a non-zero magnitude.
fn trailing_zeros(limbs: &[u64]) -> u64 {
    let zero_limbs = limbs.iter().take_while(|&&l| l == 0).count();
    let low = limbs.get(zero_limbs).map_or(0, |l| l.trailing_zeros());
    zero_limbs as u64 * 64 + u64::from(low)
}

/// `limbs >>= bits`, trimmed of high zero limbs.
fn shr_in_place(limbs: &mut Vec<u64>, bits: u64) {
    let whole = ((bits / 64) as usize).min(limbs.len());
    limbs.drain(..whole);
    let shift = (bits % 64) as u32;
    if shift != 0 {
        let mut carry = 0u64;
        for l in limbs.iter_mut().rev() {
            let next = *l << (64 - shift);
            *l = *l >> shift | carry;
            carry = next;
        }
    }
    while limbs.last() == Some(&0) {
        limbs.pop();
    }
}

/// Compares two trimmed magnitudes.
fn cmp_limbs(a: &[u64], b: &[u64]) -> Ordering {
    a.len().cmp(&b.len()).then_with(|| a.iter().rev().cmp(b.iter().rev()))
}

/// `a -= b` for `a ≥ b`, trimmed of high zero limbs.
fn sub_in_place(a: &mut Vec<u64>, b: &[u64]) {
    let mut borrow = false;
    for (i, x) in a.iter_mut().enumerate() {
        let (d, b1) = x.overflowing_sub(b.get(i).copied().unwrap_or(0));
        let (d, b2) = d.overflowing_sub(u64::from(borrow));
        *x = d;
        borrow = b1 || b2;
    }
    while a.last() == Some(&0) {
        a.pop();
    }
}

/// `base^exp mod modulus` (nonzero modulus) by square-and-multiply
/// with a full division per step: the path of even moduli, and the
/// reference the Montgomery kernel's unit tests hold it to.
fn modpow_ladder(base: &BigUint, exp: &BigUint, modulus: &BigUint) -> BigUint {
    if modulus.is_one() {
        return BigUint::default();
    }
    let mut base = base.div_rem(modulus).1;
    let mut acc = BigUint::from(1u8);
    let nbits = exp.bits();
    for i in 0..nbits {
        if exp.bit(i) {
            acc = acc.mul_mag(&base).div_rem(modulus).1;
        }
        if i + 1 < nbits {
            base = base.mul_mag(&base).div_rem(modulus).1;
        }
    }
    acc
}

impl Integer for BigUint {
    fn gcd(&self, other: &Self) -> Self {
        self.gcd_mag(other)
    }
    fn lcm(&self, other: &Self) -> Self {
        self.lcm_mag(other)
    }
    fn extended_gcd(&self, other: &Self) -> ExtendedGcd<Self> {
        let a = BigInt::from(self.clone());
        let b = BigInt::from(other.clone());
        let e = a.extended_gcd(&b);
        // Reduce Bézout coefficients into non-negative range.
        let x = if e.x.sign == Sign::Minus { &e.x + &b } else { e.x.clone() };
        let y = if e.y.sign == Sign::Minus { &e.y + &a } else { e.y.clone() };
        ExtendedGcd {
            gcd: e.gcd.to_biguint().expect("gcd is non-negative"),
            x: x.to_biguint().expect("normalized"),
            y: y.to_biguint().expect("normalized"),
        }
    }
    fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l % 2 == 0)
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {
                for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
                    match a.cmp(b) {
                        Ordering::Equal => continue,
                        o => return o,
                    }
                }
                Ordering::Equal
            }
            o => o,
        }
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

macro_rules! impl_from_uint {
    ($($t:ty),*) => {$(
        impl From<$t> for BigUint {
            fn from(v: $t) -> Self {
                BigUint::from_limbs(vec![v as u64])
            }
        }
    )*};
}
impl_from_uint!(u8, u16, u32, u64, usize);

impl From<u128> for BigUint {
    fn from(v: u128) -> Self {
        BigUint::from_limbs(vec![v as u64, (v >> 64) as u64])
    }
}

impl Zero for BigUint {
    fn zero() -> Self {
        BigUint::default()
    }
    fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }
}

impl One for BigUint {
    fn one() -> Self {
        BigUint::from(1u8)
    }
    fn is_one(&self) -> bool {
        self.limbs == [1]
    }
}

impl ToPrimitive for BigUint {
    fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }
    fn to_i64(&self) -> Option<i64> {
        self.to_u64().and_then(|v| i64::try_from(v).ok())
    }
    fn to_f64(&self) -> Option<f64> {
        let mut f = 0.0f64;
        for &l in self.limbs.iter().rev() {
            f = f * 1.8446744073709552e19 + l as f64;
        }
        Some(f)
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        // Repeated division by 10^19 (the largest power of ten in a u64).
        let chunk = BigUint::from(10_000_000_000_000_000_000u64);
        let mut rest = self.clone();
        let mut parts = Vec::new();
        while !rest.is_zero() {
            let (q, r) = rest.div_rem(&chunk);
            parts.push(r.to_u64().unwrap_or(0));
            rest = q;
        }
        write!(f, "{}", parts.pop().unwrap())?;
        for p in parts.iter().rev() {
            write!(f, "{p:019}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

// --- binary operators, all reference combinations ---------------------

macro_rules! forward_binop {
    ($trait:ident, $method:ident, $imp:ident) => {
        impl std::ops::$trait<BigUint> for BigUint {
            type Output = BigUint;
            fn $method(self, rhs: BigUint) -> BigUint {
                (&self).$imp(&rhs)
            }
        }
        impl std::ops::$trait<&BigUint> for BigUint {
            type Output = BigUint;
            fn $method(self, rhs: &BigUint) -> BigUint {
                (&self).$imp(rhs)
            }
        }
        impl std::ops::$trait<BigUint> for &BigUint {
            type Output = BigUint;
            fn $method(self, rhs: BigUint) -> BigUint {
                self.$imp(&rhs)
            }
        }
        impl std::ops::$trait<&BigUint> for &BigUint {
            type Output = BigUint;
            fn $method(self, rhs: &BigUint) -> BigUint {
                self.$imp(rhs)
            }
        }
    };
}

impl BigUint {
    fn do_add(&self, rhs: &BigUint) -> BigUint {
        self.add_mag(rhs)
    }
    fn do_sub(&self, rhs: &BigUint) -> BigUint {
        self.sub_mag(rhs)
    }
    fn do_mul(&self, rhs: &BigUint) -> BigUint {
        self.mul_mag(rhs)
    }
    fn do_div(&self, rhs: &BigUint) -> BigUint {
        self.div_rem(rhs).0
    }
    fn do_rem(&self, rhs: &BigUint) -> BigUint {
        self.div_rem(rhs).1
    }
    fn do_bitand(&self, rhs: &BigUint) -> BigUint {
        let out = self.limbs.iter().zip(rhs.limbs.iter()).map(|(a, b)| a & b).collect();
        BigUint::from_limbs(out)
    }
}

forward_binop!(Add, add, do_add);
forward_binop!(Sub, sub, do_sub);
forward_binop!(Mul, mul, do_mul);
forward_binop!(Div, div, do_div);
forward_binop!(Rem, rem, do_rem);
forward_binop!(BitAnd, bitand, do_bitand);

macro_rules! scalar_binop {
    ($($t:ty),*) => {$(
        impl std::ops::Add<$t> for BigUint {
            type Output = BigUint;
            fn add(self, rhs: $t) -> BigUint { &self + &BigUint::from(rhs) }
        }
        impl std::ops::Add<$t> for &BigUint {
            type Output = BigUint;
            fn add(self, rhs: $t) -> BigUint { self + &BigUint::from(rhs) }
        }
        impl std::ops::Sub<$t> for BigUint {
            type Output = BigUint;
            fn sub(self, rhs: $t) -> BigUint { &self - &BigUint::from(rhs) }
        }
        impl std::ops::Sub<$t> for &BigUint {
            type Output = BigUint;
            fn sub(self, rhs: $t) -> BigUint { self - &BigUint::from(rhs) }
        }
        impl std::ops::Mul<$t> for BigUint {
            type Output = BigUint;
            fn mul(self, rhs: $t) -> BigUint { &self * &BigUint::from(rhs) }
        }
        impl std::ops::Mul<$t> for &BigUint {
            type Output = BigUint;
            fn mul(self, rhs: $t) -> BigUint { self * &BigUint::from(rhs) }
        }
        impl std::ops::Rem<$t> for BigUint {
            type Output = BigUint;
            fn rem(self, rhs: $t) -> BigUint { &self % &BigUint::from(rhs) }
        }
        impl std::ops::Rem<$t> for &BigUint {
            type Output = BigUint;
            fn rem(self, rhs: $t) -> BigUint { self % &BigUint::from(rhs) }
        }
        impl std::ops::Div<$t> for BigUint {
            type Output = BigUint;
            fn div(self, rhs: $t) -> BigUint { &self / &BigUint::from(rhs) }
        }
        impl std::ops::Div<$t> for &BigUint {
            type Output = BigUint;
            fn div(self, rhs: $t) -> BigUint { self / &BigUint::from(rhs) }
        }
    )*};
}
scalar_binop!(u8, u16, u32, u64, usize);

macro_rules! shift_ops {
    ($($t:ty),*) => {$(
        impl std::ops::Shl<$t> for BigUint {
            type Output = BigUint;
            fn shl(self, rhs: $t) -> BigUint { self.shl_bits(rhs as u64) }
        }
        impl std::ops::Shl<$t> for &BigUint {
            type Output = BigUint;
            fn shl(self, rhs: $t) -> BigUint { self.shl_bits(rhs as u64) }
        }
        impl std::ops::Shr<$t> for BigUint {
            type Output = BigUint;
            fn shr(self, rhs: $t) -> BigUint { self.shr_bits(rhs as u64) }
        }
        impl std::ops::Shr<$t> for &BigUint {
            type Output = BigUint;
            fn shr(self, rhs: $t) -> BigUint { self.shr_bits(rhs as u64) }
        }
        impl std::ops::ShlAssign<$t> for BigUint {
            fn shl_assign(&mut self, rhs: $t) { *self = self.shl_bits(rhs as u64); }
        }
        impl std::ops::ShrAssign<$t> for BigUint {
            fn shr_assign(&mut self, rhs: $t) { *self = self.shr_bits(rhs as u64); }
        }
    )*};
}
shift_ops!(i32, u32, u64, usize);

impl std::ops::AddAssign<BigUint> for BigUint {
    fn add_assign(&mut self, rhs: BigUint) {
        *self = self.add_mag(&rhs);
    }
}
impl std::ops::AddAssign<&BigUint> for BigUint {
    fn add_assign(&mut self, rhs: &BigUint) {
        *self = self.add_mag(rhs);
    }
}
impl std::ops::SubAssign<BigUint> for BigUint {
    fn sub_assign(&mut self, rhs: BigUint) {
        *self = self.sub_mag(&rhs);
    }
}
impl std::ops::SubAssign<&BigUint> for BigUint {
    fn sub_assign(&mut self, rhs: &BigUint) {
        *self = self.sub_mag(rhs);
    }
}

// --- signed integers ---------------------------------------------------

/// Sign of a [`BigInt`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Sign {
    /// Negative.
    Minus,
    /// Zero.
    NoSign,
    /// Positive.
    Plus,
}

/// An arbitrary-precision signed integer.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BigInt {
    sign: Sign,
    mag: BigUint,
}

impl BigInt {
    fn new(sign: Sign, mag: BigUint) -> Self {
        if mag.is_zero() {
            BigInt { sign: Sign::NoSign, mag }
        } else {
            BigInt { sign, mag }
        }
    }

    /// Splits into sign and magnitude (upstream's `into_parts`).
    pub fn into_parts(self) -> (Sign, BigUint) {
        (self.sign, self.mag)
    }

    /// The sign.
    pub fn sign(&self) -> Sign {
        self.sign
    }

    /// The magnitude.
    pub fn magnitude(&self) -> &BigUint {
        &self.mag
    }

    /// Converts to an unsigned integer if non-negative.
    pub fn to_biguint(&self) -> Option<BigUint> {
        match self.sign {
            Sign::Minus => None,
            _ => Some(self.mag.clone()),
        }
    }

    fn do_add(&self, rhs: &BigInt) -> BigInt {
        match (self.sign, rhs.sign) {
            (Sign::NoSign, _) => rhs.clone(),
            (_, Sign::NoSign) => self.clone(),
            (a, b) if a == b => BigInt::new(a, self.mag.add_mag(&rhs.mag)),
            _ => match self.mag.cmp(&rhs.mag) {
                Ordering::Equal => BigInt::new(Sign::NoSign, BigUint::default()),
                Ordering::Greater => BigInt::new(self.sign, self.mag.sub_mag(&rhs.mag)),
                Ordering::Less => BigInt::new(rhs.sign, rhs.mag.sub_mag(&self.mag)),
            },
        }
    }

    fn do_neg(&self) -> BigInt {
        match self.sign {
            Sign::NoSign => self.clone(),
            Sign::Plus => BigInt::new(Sign::Minus, self.mag.clone()),
            Sign::Minus => BigInt::new(Sign::Plus, self.mag.clone()),
        }
    }

    fn do_sub(&self, rhs: &BigInt) -> BigInt {
        self.do_add(&rhs.do_neg())
    }

    fn do_mul(&self, rhs: &BigInt) -> BigInt {
        let sign = match (self.sign, rhs.sign) {
            (Sign::NoSign, _) | (_, Sign::NoSign) => Sign::NoSign,
            (a, b) if a == b => Sign::Plus,
            _ => Sign::Minus,
        };
        BigInt::new(sign, self.mag.mul_mag(&rhs.mag))
    }

    /// Truncated division (sign of remainder follows the dividend, like
    /// Rust's `%` and upstream num-bigint).
    fn do_div_rem(&self, rhs: &BigInt) -> (BigInt, BigInt) {
        let (q, r) = self.mag.div_rem(&rhs.mag);
        let q_sign = match (self.sign, rhs.sign) {
            (Sign::NoSign, _) => Sign::NoSign,
            (a, b) if a == b => Sign::Plus,
            _ => Sign::Minus,
        };
        (BigInt::new(q_sign, q), BigInt::new(self.sign, r))
    }
}

impl From<BigUint> for BigInt {
    fn from(mag: BigUint) -> Self {
        BigInt::new(Sign::Plus, mag)
    }
}

macro_rules! bigint_from_signed {
    ($($t:ty),*) => {$(
        impl From<$t> for BigInt {
            fn from(v: $t) -> Self {
                if v < 0 {
                    BigInt::new(Sign::Minus, BigUint::from(v.unsigned_abs() as u64))
                } else {
                    BigInt::new(Sign::Plus, BigUint::from(v as u64))
                }
            }
        }
    )*};
}
bigint_from_signed!(i8, i16, i32, i64, isize);

macro_rules! bigint_from_unsigned {
    ($($t:ty),*) => {$(
        impl From<$t> for BigInt {
            fn from(v: $t) -> Self {
                BigInt::new(Sign::Plus, BigUint::from(v))
            }
        }
    )*};
}
bigint_from_unsigned!(u8, u16, u32, u64, usize);

impl Ord for BigInt {
    fn cmp(&self, other: &Self) -> Ordering {
        use Sign::*;
        match (self.sign, other.sign) {
            (Minus, Minus) => other.mag.cmp(&self.mag),
            (Minus, _) => Ordering::Less,
            (_, Minus) => Ordering::Greater,
            (NoSign, NoSign) => Ordering::Equal,
            (NoSign, Plus) => Ordering::Less,
            (Plus, NoSign) => Ordering::Greater,
            (Plus, Plus) => self.mag.cmp(&other.mag),
        }
    }
}

impl PartialOrd for BigInt {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Zero for BigInt {
    fn zero() -> Self {
        BigInt::new(Sign::NoSign, BigUint::default())
    }
    fn is_zero(&self) -> bool {
        self.sign == Sign::NoSign
    }
}

impl One for BigInt {
    fn one() -> Self {
        BigInt::from(1u8)
    }
    fn is_one(&self) -> bool {
        self.sign == Sign::Plus && self.mag.is_one()
    }
}

impl ToPrimitive for BigInt {
    fn to_u64(&self) -> Option<u64> {
        match self.sign {
            Sign::Minus => None,
            _ => self.mag.to_u64(),
        }
    }
    fn to_i64(&self) -> Option<i64> {
        match self.sign {
            Sign::Minus => {
                let m = self.mag.to_u64()?;
                if m <= i64::MAX as u64 + 1 {
                    Some((m as i64).wrapping_neg())
                } else {
                    None
                }
            }
            _ => self.mag.to_i64(),
        }
    }
    fn to_f64(&self) -> Option<f64> {
        let f = self.mag.to_f64()?;
        Some(if self.sign == Sign::Minus { -f } else { f })
    }
}

impl fmt::Display for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.sign == Sign::Minus {
            write!(f, "-")?;
        }
        fmt::Display::fmt(&self.mag, f)
    }
}

impl fmt::Debug for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

macro_rules! forward_bigint_binop {
    ($trait:ident, $method:ident, $imp:ident) => {
        impl std::ops::$trait<BigInt> for BigInt {
            type Output = BigInt;
            fn $method(self, rhs: BigInt) -> BigInt {
                (&self).$imp(&rhs)
            }
        }
        impl std::ops::$trait<&BigInt> for BigInt {
            type Output = BigInt;
            fn $method(self, rhs: &BigInt) -> BigInt {
                (&self).$imp(rhs)
            }
        }
        impl std::ops::$trait<BigInt> for &BigInt {
            type Output = BigInt;
            fn $method(self, rhs: BigInt) -> BigInt {
                self.$imp(&rhs)
            }
        }
        impl std::ops::$trait<&BigInt> for &BigInt {
            type Output = BigInt;
            fn $method(self, rhs: &BigInt) -> BigInt {
                self.$imp(rhs)
            }
        }
    };
}

impl BigInt {
    fn imp_add(&self, rhs: &BigInt) -> BigInt {
        self.do_add(rhs)
    }
    fn imp_sub(&self, rhs: &BigInt) -> BigInt {
        self.do_sub(rhs)
    }
    fn imp_mul(&self, rhs: &BigInt) -> BigInt {
        self.do_mul(rhs)
    }
    fn imp_div(&self, rhs: &BigInt) -> BigInt {
        self.do_div_rem(rhs).0
    }
    fn imp_rem(&self, rhs: &BigInt) -> BigInt {
        self.do_div_rem(rhs).1
    }
}

forward_bigint_binop!(Add, add, imp_add);
forward_bigint_binop!(Sub, sub, imp_sub);
forward_bigint_binop!(Mul, mul, imp_mul);
forward_bigint_binop!(Div, div, imp_div);
forward_bigint_binop!(Rem, rem, imp_rem);

impl std::ops::Neg for BigInt {
    type Output = BigInt;
    fn neg(self) -> BigInt {
        self.do_neg()
    }
}
impl std::ops::Neg for &BigInt {
    type Output = BigInt;
    fn neg(self) -> BigInt {
        self.do_neg()
    }
}

impl std::ops::AddAssign<BigInt> for BigInt {
    fn add_assign(&mut self, rhs: BigInt) {
        *self = self.do_add(&rhs);
    }
}
impl std::ops::AddAssign<&BigInt> for BigInt {
    fn add_assign(&mut self, rhs: &BigInt) {
        *self = self.do_add(rhs);
    }
}

impl Integer for BigInt {
    fn gcd(&self, other: &Self) -> Self {
        BigInt::from(self.mag.gcd_mag(&other.mag))
    }
    fn lcm(&self, other: &Self) -> Self {
        BigInt::from(self.mag.lcm_mag(&other.mag))
    }
    fn extended_gcd(&self, other: &Self) -> ExtendedGcd<Self> {
        let (mut old_r, mut r) = (self.clone(), other.clone());
        let (mut old_x, mut x) = (BigInt::one(), BigInt::zero());
        let (mut old_y, mut y) = (BigInt::zero(), BigInt::one());
        while !r.is_zero() {
            let q = &old_r / &r;
            let next_r = &old_r - &(&q * &r);
            old_r = std::mem::replace(&mut r, next_r);
            let next_x = &old_x - &(&q * &x);
            old_x = std::mem::replace(&mut x, next_x);
            let next_y = &old_y - &(&q * &y);
            old_y = std::mem::replace(&mut y, next_y);
        }
        if old_r.sign == Sign::Minus {
            ExtendedGcd { gcd: -old_r, x: -old_x, y: -old_y }
        } else {
            ExtendedGcd { gcd: old_r, x: old_x, y: old_y }
        }
    }
    fn is_even(&self) -> bool {
        self.mag.is_even()
    }
}

// --- random sampling ---------------------------------------------------

/// Random big-integer sampling, mirroring upstream's `RandBigInt`
/// extension trait over any [`rand::Rng`].
pub trait RandBigInt {
    /// Uniform integer with exactly the given number of random bits.
    fn gen_biguint(&mut self, bits: u64) -> BigUint;
    /// Uniform in `[0, bound)`.
    fn gen_biguint_below(&mut self, bound: &BigUint) -> BigUint;
    /// Uniform in `[lo, hi)`.
    fn gen_biguint_range(&mut self, lo: &BigUint, hi: &BigUint) -> BigUint;
}

impl<R: Rng + ?Sized> RandBigInt for R {
    fn gen_biguint(&mut self, bits: u64) -> BigUint {
        let limbs = bits.div_ceil(64) as usize;
        let mut v: Vec<u64> = (0..limbs).map(|_| self.next_u64()).collect();
        let extra = (limbs as u64 * 64 - bits) as u32;
        if extra > 0 {
            if let Some(top) = v.last_mut() {
                *top >>= extra;
            }
        }
        BigUint::from_limbs(v)
    }

    fn gen_biguint_below(&mut self, bound: &BigUint) -> BigUint {
        assert!(!bound.is_zero(), "empty sampling range");
        let bits = bound.bits();
        loop {
            let cand = self.gen_biguint(bits);
            if &cand < bound {
                return cand;
            }
        }
    }

    fn gen_biguint_range(&mut self, lo: &BigUint, hi: &BigUint) -> BigUint {
        assert!(lo < hi, "empty sampling range");
        let span = hi - lo;
        lo + self.gen_biguint_below(&span)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big(s: &str) -> BigUint {
        // Decimal parse used only by tests.
        let mut acc = BigUint::default();
        for c in s.bytes() {
            acc = acc * 10u8 + (c - b'0');
        }
        acc
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = big("340282366920938463463374607431768211456"); // 2^128
        let b = big("18446744073709551616"); // 2^64
        assert_eq!(&(&a + &b) - &b, a);
    }

    #[test]
    fn mul_div_rem() {
        let a = big("123456789012345678901234567890123456789");
        let b = big("98765432109876543210987654321");
        let p = &a * &b;
        let (q, r) = p.div_rem(&a);
        assert_eq!(q, b);
        assert!(r.is_zero());
        let (q2, r2) = (&p + &BigUint::from(17u8)).div_rem(&a);
        assert_eq!(q2, b);
        assert_eq!(r2, BigUint::from(17u8));
    }

    #[test]
    fn knuth_add_back_edge() {
        // A divisor crafted to trigger the qhat-correction path.
        let u = (BigUint::from(1u8) << 128u32) - 1u8;
        let v = (BigUint::from(1u8) << 64u32) + 1u8;
        let (q, r) = u.div_rem(&v);
        assert_eq!(&q * &v + &r, u);
        assert!(r < v);
    }

    #[test]
    fn modpow_matches_fermat() {
        // 2^(p-1) ≡ 1 mod p for prime p.
        let p = big("1000000000000000003");
        let res = BigUint::from(2u8).modpow(&(&p - 1u32), &p);
        assert!(res.is_one());
    }

    #[test]
    fn byte_codec_roundtrips() {
        let a = big("123456789012345678901234567890");
        assert_eq!(BigUint::from_bytes_be(&a.to_bytes_be()), a);
        assert_eq!(BigUint::from_bytes_be(&[0]), BigUint::default());
    }

    #[test]
    fn display_decimal() {
        assert_eq!(big("120034005600789").to_string(), "120034005600789");
        assert_eq!(BigUint::default().to_string(), "0");
        let big_num = big("12345678901234567890123456789012345678901234567890");
        assert_eq!(big_num.to_string(), "12345678901234567890123456789012345678901234567890");
    }

    #[test]
    fn bigint_extended_gcd_bezout() {
        let a = BigInt::from(240i64);
        let b = BigInt::from(46i64);
        let e = a.extended_gcd(&b);
        assert_eq!(e.gcd, BigInt::from(2i64));
        assert_eq!(&(&a * &e.x) + &(&b * &e.y), BigInt::from(2i64));
    }

    #[test]
    fn signed_rem_follows_dividend() {
        let a = BigInt::from(-7i64);
        let b = BigInt::from(3i64);
        assert_eq!(&a % &b, BigInt::from(-1i64));
        assert_eq!(&a / &b, BigInt::from(-2i64));
    }

    #[test]
    fn set_bit_and_bits() {
        let mut x = BigUint::default();
        x.set_bit(127, true);
        x.set_bit(0, true);
        assert_eq!(x.bits(), 128);
        assert!(x.bit(127) && x.bit(0) && !x.bit(64));
    }

    #[test]
    fn sampling_in_range() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
        let lo = big("1000000000000000000000");
        let hi = big("2000000000000000000000");
        for _ in 0..100 {
            let s = rng.gen_biguint_range(&lo, &hi);
            assert!(s >= lo && s < hi);
        }
    }
}
