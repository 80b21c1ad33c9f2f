//! Montgomery-form modular arithmetic: the fast path under `modpow`.
//!
//! The seed implementation performed a full Knuth Algorithm-D division
//! after every squaring, which dominated the cost of every Paillier
//! operation. A [`MontgomeryCtx`] precomputes everything that depends only
//! on the modulus — `n' = -n⁻¹ mod 2⁶⁴` and `R² mod n` for `R = 2^(64k)` —
//! so each multiply-and-reduce becomes one FIOS (finely integrated
//! operand scanning) pass with no division at all. The product kernel
//! software-pipelines three operand rows at a time (six independent carry
//! chains), squarings take a dedicated ~1.5k²-multiply path, and both are
//! instantiated with compile-time limb counts for the widths Paillier
//! uses. On top sits a 5-bit sliding-window exponentiation ladder, cutting
//! the number of multiplies per exponent bit from ~1.5 to ~1.17.
//!
//! Montgomery reduction requires `gcd(n, 2⁶⁴) = 1`, i.e. an odd modulus.
//! Paillier moduli (`n²`, `p²`, `q²`) are always odd; even moduli fall
//! back to a square-and-multiply ladder in `BigUint::modpow`.
//!
//! **Not constant-time.** Window selection indexes a table by secret
//! exponent bits and the final subtraction is conditional; this mirrors
//! the reproduction's scope (protocol semantics, not side-channel
//! hardening) and is called out in DESIGN.md.

use std::cmp::Ordering;

use num_integer::Integer;
use num_traits::{One, Zero};

use crate::BigUint;

/// Precomputed Montgomery context for a fixed odd modulus.
#[derive(Clone, Debug)]
pub struct MontgomeryCtx {
    /// The modulus `n`.
    n: BigUint,
    /// `n` as exactly `k` little-endian limbs.
    n_limbs: Vec<u64>,
    /// Limb count `k`; `R = 2^(64k)`.
    k: usize,
    /// `-n⁻¹ mod 2⁶⁴` (the CIOS per-limb folding constant).
    n0_inv: u64,
    /// `R² mod n`, padded to `k` limbs — converts into Montgomery form.
    r2: Vec<u64>,
}

fn pad(limbs: &[u64], k: usize) -> Vec<u64> {
    let mut v = limbs.to_vec();
    v.resize(k, 0);
    v
}

fn cmp_limbs(a: &[u64], b: &[u64]) -> Ordering {
    debug_assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().rev().zip(b.iter().rev()) {
        match x.cmp(y) {
            Ordering::Equal => continue,
            o => return o,
        }
    }
    Ordering::Equal
}

/// `a -= b` over equal-length limb slices; the final borrow is discarded
/// (callers only subtract when it cancels against an overflow limb).
fn sub_limbs_in_place(a: &mut [u64], b: &[u64]) {
    let mut borrow = 0u64;
    for (x, &y) in a.iter_mut().zip(b.iter()) {
        let (d1, b1) = x.overflowing_sub(y);
        let (d2, b2) = d1.overflowing_sub(borrow);
        *x = d2;
        borrow = u64::from(b1) + u64::from(b2);
    }
}

impl MontgomeryCtx {
    /// Builds a context for `modulus`, or `None` when Montgomery reduction
    /// does not apply (even modulus, or modulus < 2).
    pub fn new(modulus: &BigUint) -> Option<Self> {
        if modulus.is_zero() || modulus.is_one() || modulus.is_even() {
            return None;
        }
        let n_limbs = modulus.limbs.clone();
        let k = n_limbs.len();
        // Newton–Hensel: for odd n₀, n₀ is its own inverse mod 8, and each
        // iteration doubles the number of correct low bits (3 → 96 ≥ 64).
        let n0 = n_limbs[0];
        let mut inv = n0;
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
        }
        debug_assert_eq!(n0.wrapping_mul(inv), 1);
        let r_mod_n = (&BigUint::one() << (64 * k)) % modulus;
        let r2 = (&r_mod_n * &r_mod_n) % modulus;
        Some(MontgomeryCtx {
            n: modulus.clone(),
            r2: pad(&r2.limbs, k),
            n_limbs,
            k,
            n0_inv: inv.wrapping_neg(),
        })
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// Fused (FIOS) Montgomery product `a·b·R⁻¹ mod n` into caller-owned
    /// scratch: operands are `k`-limb values already reduced below `n`,
    /// `t` is `k + 1` limbs, and the reduced result lands in `t[..k]`.
    /// Multiply and reduction interleave in a single pass per limb of `a`,
    /// and nothing allocates — this is the innermost hot loop of every
    /// Paillier operation.
    fn montmul_into(&self, a: &[u64], b: &[u64], t: &mut [u64]) {
        // Dispatch on the limb counts Paillier actually uses (512/1024/
        // 2048-bit moduli): `montmul_body` is `inline(always)`, so each arm
        // instantiates it with a literal `k` and LLVM fully unrolls the row
        // loops for that size.
        match self.k {
            8 => self.montmul_body(8, a, b, t),
            16 => self.montmul_body(16, a, b, t),
            32 => self.montmul_body(32, a, b, t),
            k => self.montmul_body(k, a, b, t),
        }
    }

    #[inline(always)]
    fn montmul_body(&self, k: usize, a: &[u64], b: &[u64], t: &mut [u64]) {
        let n = &self.n_limbs[..k];
        debug_assert!(a.len() == k && b.len() == k && t.len() == k + 1);
        let a = &a[..k];
        let b = &b[..k];
        let (t_main, t_over) = t.split_at_mut(k);
        let mut t_top = 0u64;
        if k < 2 {
            t_main.fill(0);
            for &ai in a {
                t_top = self.row1(k, ai, b, t_main, t_top);
            }
        } else {
            // Two rows per pass: the two carry chains are independent, so
            // the CPU overlaps them — roughly doubling multiplier
            // utilisation over one row at a time. The first pass knows the
            // accumulator is all-zero and writes every limb, so `t` never
            // needs explicit zeroing.
            if k < 3 {
                t_top = self.row2::<true>(k, a[0], a[1], b, t_main, 0);
            } else {
                let mut triples = a.chunks_exact(3);
                let first = triples.next().expect("k >= 3");
                t_top = self.row3::<true>(k, first[0], first[1], first[2], b, t_main, 0);
                for p in triples.by_ref() {
                    t_top = self.row3::<false>(k, p[0], p[1], p[2], b, t_main, t_top);
                }
                match *triples.remainder() {
                    [x] => t_top = self.row1(k, x, b, t_main, t_top),
                    [x, y] => t_top = self.row2::<false>(k, x, y, b, t_main, t_top),
                    _ => {}
                }
            }
        }
        t_over[0] = t_top;
        // Invariant: t < 2n, so one conditional subtraction suffices; a
        // set overflow limb cancels against the discarded borrow.
        if t[k] != 0 || cmp_limbs(&t[..k], n) != Ordering::Less {
            sub_limbs_in_place(&mut t[..k], n);
            t[k] = 0;
        }
    }

    /// One FIOS row: `t ← (t + ai·b + m·n) / B` with `m` chosen so the low
    /// limb folds to zero. `t` holds the low `k` limbs; the overflow limb
    /// is threaded through the return value. The write index lags the read
    /// index by one limb — that lag IS the division by `B` — so a single
    /// iterator walks `t` holding the lagging `&mut`, and the zipped
    /// iterators let the compiler drop all bounds checks in the hot loop.
    #[inline(always)]
    fn row1(&self, k: usize, ai: u64, b: &[u64], t: &mut [u64], t_top: u64) -> u64 {
        let ai = ai as u128;
        let n = &self.n_limbs[..k];
        let b = &b[..k];
        let t = &mut t[..k];
        let mut t_iter = t.iter_mut();
        let lag = t_iter.next().expect("k >= 1");
        // j = 0 separately: it determines the folding multiplier m.
        let s0 = *lag as u128 + ai * b[0] as u128;
        let mut c_mul = (s0 >> 64) as u64;
        let m = (s0 as u64).wrapping_mul(self.n0_inv) as u128;
        let r0 = (s0 as u64) as u128 + m * n[0] as u128;
        debug_assert_eq!(r0 as u64, 0);
        let mut c_red = (r0 >> 64) as u64;
        let mut lag = lag;
        for ((tj, &bj), &nj) in t_iter.zip(&b[1..]).zip(&n[1..]) {
            let s = *tj as u128 + ai * bj as u128 + c_mul as u128;
            c_mul = (s >> 64) as u64;
            let r = (s as u64) as u128 + m * nj as u128 + c_red as u128;
            c_red = (r >> 64) as u64;
            *lag = r as u64;
            lag = tj;
        }
        let s = t_top as u128 + c_mul as u128 + c_red as u128;
        *lag = s as u64;
        (s >> 64) as u64
    }

    /// Two software-pipelined FIOS rows: row 1 consumes each limb the
    /// moment row 0 produces it (row 0 at position `j`, row 1 at `j − 1`),
    /// so the inner loop carries four independent multiply chains instead
    /// of two and the out-of-order core overlaps them. Requires `k ≥ 2`.
    ///
    /// With `FIRST` set the accumulator is known to be all-zero (the first
    /// pass of a product), so its loads are skipped entirely.
    #[inline(always)]
    fn row2<const FIRST: bool>(
        &self,
        k: usize,
        a0: u64,
        a1: u64,
        b: &[u64],
        t: &mut [u64],
        t_top: u64,
    ) -> u64 {
        let n = &self.n_limbs[..k];
        debug_assert!(k >= 2 && b.len() == k && t.len() == k && n.len() == k);
        let (a0, a1) = (a0 as u128, a1 as u128);
        let b = &b[..k];
        let n = &n[..k];
        let t = &mut t[..k];
        // Row-0 steps 0 and 1, enough to expose its position-0 output.
        let s = if FIRST { 0 } else { t[0] as u128 } + a0 * b[0] as u128;
        let mut c0m = (s >> 64) as u64;
        let m0 = (s as u64).wrapping_mul(self.n0_inv) as u128;
        let r = (s as u64) as u128 + m0 * n[0] as u128;
        debug_assert_eq!(r as u64, 0);
        let mut c0r = (r >> 64) as u64;
        let s = if FIRST { 0 } else { t[1] as u128 } + a0 * b[1] as u128 + c0m as u128;
        c0m = (s >> 64) as u64;
        let r = (s as u64) as u128 + m0 * n[1] as u128 + c0r as u128;
        c0r = (r >> 64) as u64;
        let out0 = r as u64;
        // Row-1 step 0 on that output.
        let s1 = out0 as u128 + a1 * b[0] as u128;
        let mut c1m = (s1 >> 64) as u64;
        let m1 = (s1 as u64).wrapping_mul(self.n0_inv) as u128;
        let r1 = (s1 as u64) as u128 + m1 * n[0] as u128;
        debug_assert_eq!(r1 as u64, 0);
        let mut c1r = (r1 >> 64) as u64;
        // Steady state: row 0 at j, row 1 at j − 1, final write at j − 2.
        for j in 2..k {
            let s = if FIRST { 0 } else { t[j] as u128 } + a0 * b[j] as u128 + c0m as u128;
            c0m = (s >> 64) as u64;
            let r = (s as u64) as u128 + m0 * n[j] as u128 + c0r as u128;
            c0r = (r >> 64) as u64;
            let out0 = r as u64;
            let s1 = out0 as u128 + a1 * b[j - 1] as u128 + c1m as u128;
            c1m = (s1 >> 64) as u64;
            let r1 = (s1 as u64) as u128 + m1 * n[j - 1] as u128 + c1r as u128;
            c1r = (r1 >> 64) as u64;
            t[j - 2] = r1 as u64;
        }
        // Drain: row 0 consumes the old overflow limb, then row 1 finishes
        // its last multiply step and consumes row 0's new overflow limb.
        let s = t_top as u128 + c0m as u128 + c0r as u128;
        let out0k = s as u64;
        let top0 = (s >> 64) as u64;
        let s1 = out0k as u128 + a1 * b[k - 1] as u128 + c1m as u128;
        c1m = (s1 >> 64) as u64;
        let r1 = (s1 as u64) as u128 + m1 * n[k - 1] as u128 + c1r as u128;
        c1r = (r1 >> 64) as u64;
        t[k - 2] = r1 as u64;
        let s1 = top0 as u128 + c1m as u128 + c1r as u128;
        t[k - 1] = s1 as u64;
        (s1 >> 64) as u64
    }

    /// Three software-pipelined FIOS rows (row 0 at `j`, row 1 at `j − 1`,
    /// row 2 at `j − 2`): six independent multiply chains in the steady
    /// loop. Requires `k ≥ 3`. See [`MontgomeryCtx::row2`] for the
    /// pipelining idea and the meaning of `FIRST`.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn row3<const FIRST: bool>(
        &self,
        k: usize,
        a0: u64,
        a1: u64,
        a2: u64,
        b: &[u64],
        t: &mut [u64],
        t_top: u64,
    ) -> u64 {
        let n = &self.n_limbs[..k];
        debug_assert!(k >= 3 && b.len() == k && t.len() == k && n.len() == k);
        let (a0, a1, a2) = (a0 as u128, a1 as u128, a2 as u128);
        let b = &b[..k];
        let n = &n[..k];
        let t = &mut t[..k];
        let inv = self.n0_inv;
        // Row-0 steps 0..2, row-1 steps 0..1, row-2 step 0: just enough to
        // prime the three-stage pipeline.
        let s = if FIRST { 0 } else { t[0] as u128 } + a0 * b[0] as u128;
        let mut c0m = (s >> 64) as u64;
        let m0 = (s as u64).wrapping_mul(inv) as u128;
        let r = (s as u64) as u128 + m0 * n[0] as u128;
        debug_assert_eq!(r as u64, 0);
        let mut c0r = (r >> 64) as u64;
        let s = if FIRST { 0 } else { t[1] as u128 } + a0 * b[1] as u128 + c0m as u128;
        c0m = (s >> 64) as u64;
        let r = (s as u64) as u128 + m0 * n[1] as u128 + c0r as u128;
        c0r = (r >> 64) as u64;
        let out0 = r as u64;
        let s1 = out0 as u128 + a1 * b[0] as u128;
        let mut c1m = (s1 >> 64) as u64;
        let m1 = (s1 as u64).wrapping_mul(inv) as u128;
        let r1 = (s1 as u64) as u128 + m1 * n[0] as u128;
        debug_assert_eq!(r1 as u64, 0);
        let mut c1r = (r1 >> 64) as u64;
        let s = if FIRST { 0 } else { t[2] as u128 } + a0 * b[2] as u128 + c0m as u128;
        c0m = (s >> 64) as u64;
        let r = (s as u64) as u128 + m0 * n[2] as u128 + c0r as u128;
        c0r = (r >> 64) as u64;
        let out0 = r as u64;
        let s1 = out0 as u128 + a1 * b[1] as u128 + c1m as u128;
        c1m = (s1 >> 64) as u64;
        let r1 = (s1 as u64) as u128 + m1 * n[1] as u128 + c1r as u128;
        c1r = (r1 >> 64) as u64;
        let out1 = r1 as u64;
        let s2 = out1 as u128 + a2 * b[0] as u128;
        let mut c2m = (s2 >> 64) as u64;
        let m2 = (s2 as u64).wrapping_mul(inv) as u128;
        let r2 = (s2 as u64) as u128 + m2 * n[0] as u128;
        debug_assert_eq!(r2 as u64, 0);
        let mut c2r = (r2 >> 64) as u64;
        // Steady state: final write lands three positions down.
        for j in 3..k {
            let s = if FIRST { 0 } else { t[j] as u128 } + a0 * b[j] as u128 + c0m as u128;
            c0m = (s >> 64) as u64;
            let r = (s as u64) as u128 + m0 * n[j] as u128 + c0r as u128;
            c0r = (r >> 64) as u64;
            let out0 = r as u64;
            let s1 = out0 as u128 + a1 * b[j - 1] as u128 + c1m as u128;
            c1m = (s1 >> 64) as u64;
            let r1 = (s1 as u64) as u128 + m1 * n[j - 1] as u128 + c1r as u128;
            c1r = (r1 >> 64) as u64;
            let out1 = r1 as u64;
            let s2 = out1 as u128 + a2 * b[j - 2] as u128 + c2m as u128;
            c2m = (s2 >> 64) as u64;
            let r2 = (s2 as u64) as u128 + m2 * n[j - 2] as u128 + c2r as u128;
            c2r = (r2 >> 64) as u64;
            t[j - 3] = r2 as u64;
        }
        // Drain the pipeline stage by stage.
        let s = t_top as u128 + c0m as u128 + c0r as u128;
        let out0k = s as u64;
        let top0 = (s >> 64) as u64;
        let s1 = out0k as u128 + a1 * b[k - 1] as u128 + c1m as u128;
        c1m = (s1 >> 64) as u64;
        let r1 = (s1 as u64) as u128 + m1 * n[k - 1] as u128 + c1r as u128;
        c1r = (r1 >> 64) as u64;
        let out1 = r1 as u64;
        let s2 = out1 as u128 + a2 * b[k - 2] as u128 + c2m as u128;
        c2m = (s2 >> 64) as u64;
        let r2 = (s2 as u64) as u128 + m2 * n[k - 2] as u128 + c2r as u128;
        c2r = (r2 >> 64) as u64;
        t[k - 3] = r2 as u64;
        let s1 = top0 as u128 + c1m as u128 + c1r as u128;
        let out1k = s1 as u64;
        let top1 = (s1 >> 64) as u64;
        let s2 = out1k as u128 + a2 * b[k - 1] as u128 + c2m as u128;
        c2m = (s2 >> 64) as u64;
        let r2 = (s2 as u64) as u128 + m2 * n[k - 1] as u128 + c2r as u128;
        c2r = (r2 >> 64) as u64;
        t[k - 2] = r2 as u64;
        let s2 = top1 as u128 + c2m as u128 + c2r as u128;
        t[k - 1] = s2 as u64;
        (s2 >> 64) as u64
    }

    /// Montgomery squaring `a²·R⁻¹ mod n` into `out[..k]`. Schoolbook
    /// squaring computes each off-diagonal product once and doubles the
    /// triangle — `k(k−1)/2 + k` multiplies — then a `k`-step reduction
    /// (`k²` multiplies) folds the low half away, for `~1.5k²` total
    /// against `montmul_into`'s `2k²`. Squarings are ~84% of an
    /// exponentiation, so this is worth the extra code. `wide` is `2k + 1`
    /// limbs of scratch and `carries` is `k` limbs of scratch.
    fn montsqr_into(&self, a: &[u64], wide: &mut [u64], carries: &mut [u64], out: &mut [u64]) {
        match self.k {
            8 => self.montsqr_body(8, a, wide, carries, out),
            16 => self.montsqr_body(16, a, wide, carries, out),
            32 => self.montsqr_body(32, a, wide, carries, out),
            k => self.montsqr_body(k, a, wide, carries, out),
        }
    }

    #[inline(always)]
    fn montsqr_body(
        &self,
        k: usize,
        a: &[u64],
        wide: &mut [u64],
        c_out: &mut [u64],
        out: &mut [u64],
    ) {
        let n = &self.n_limbs[..k];
        debug_assert!(
            k >= 2
                && a.len() == k
                && wide.len() == 2 * k + 1
                && c_out.len() == k
                && out.len() == k + 1
        );
        let a = &a[..k];
        let wide = &mut wide[..2 * k + 1];
        let c_out = &mut c_out[..k];
        wide.fill(0);
        // Off-diagonal products a[i]·a[j], i < j, each computed once. Row i
        // touches wide[2i+1 ..= i+k]; rows are independent chains.
        for i in 0..k {
            let ai = a[i] as u128;
            let mut carry = 0u64;
            let row = &mut wide[2 * i + 1..=i + k];
            let (row, last) = row.split_at_mut(k - i - 1);
            for (w, &aj) in row.iter_mut().zip(&a[i + 1..]) {
                let s = *w as u128 + ai * aj as u128 + carry as u128;
                *w = s as u64;
                carry = (s >> 64) as u64;
            }
            last[0] = carry;
        }
        // Double the triangle, then add the diagonal a[i]² at limb 2i.
        let mut top = 0u64;
        for x in wide[1..2 * k].iter_mut() {
            let next = *x >> 63;
            *x = (*x << 1) | top;
            top = next;
        }
        debug_assert_eq!(top, 0); // 2·offdiag ≤ a² < B^2k
        let mut carry = 0u64;
        for i in 0..k {
            let d = a[i] as u128 * a[i] as u128;
            let lo = wide[2 * i] as u128 + (d as u64) as u128 + carry as u128;
            wide[2 * i] = lo as u64;
            let hi = wide[2 * i + 1] as u128 + (d >> 64) + (lo >> 64);
            wide[2 * i + 1] = hi as u64;
            carry = (hi >> 64) as u64;
        }
        debug_assert_eq!(carry, 0); // a² fits exactly 2k limbs
                                    // Montgomery reduction: fold each low limb to zero. Row i's carry
                                    // lands at limb i+k ≥ k, and the fold multiplier m only ever reads
                                    // limbs < k, so all k row carries can be deferred and applied in
                                    // one pass — no per-row carry ripple.
        let inv = self.n0_inv;
        for i in 0..k {
            let m = wide[i].wrapping_mul(inv) as u128;
            let win = &mut wide[i..i + k];
            let mut carry = 0u64;
            for (w, &nj) in win.iter_mut().zip(n.iter()) {
                let s = *w as u128 + m * nj as u128 + carry as u128;
                *w = s as u64;
                carry = (s >> 64) as u64;
            }
            c_out[i] = carry;
        }
        let mut carry = 0u64;
        for i in 0..k {
            let (v, o1) = wide[k + i].overflowing_add(c_out[i]);
            let (v, o2) = v.overflowing_add(carry);
            wide[k + i] = v;
            carry = u64::from(o1) + u64::from(o2);
        }
        wide[2 * k] += carry;
        out[..k].copy_from_slice(&wide[k..2 * k]);
        out[k] = 0;
        // Same invariant as montmul_into: the result is < 2n.
        if wide[2 * k] != 0 || cmp_limbs(&out[..k], n) != Ordering::Less {
            sub_limbs_in_place(&mut out[..k], n);
        }
    }

    /// `base^exp mod n` by 5-bit sliding-window exponentiation over the
    /// Montgomery domain. Matches `BigUint::modpow` semantics: the base is
    /// reduced first and `exp = 0` yields 1.
    pub fn modpow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        if exp.is_zero() {
            return BigUint::one();
        }
        let base = base % &self.n;
        if base.is_zero() {
            return BigUint::zero();
        }
        let k = self.k;
        let mut t = vec![0u64; k + 1];
        // Scratch for montsqr_into, reused across every squaring.
        let mut wide = vec![0u64; 2 * k + 1];
        let mut sq_c = vec![0u64; k];
        // Odd-power table for a 5-bit sliding window:
        // table[i] = base^(2i+1) in Montgomery form, i ∈ [0, 16).
        let mut table: Vec<Vec<u64>> = Vec::with_capacity(16);
        self.montmul_into(&pad(&base.limbs, k), &self.r2, &mut t);
        table.push(t[..k].to_vec());
        let mut base2 = vec![0u64; k + 1];
        self.montmul_into(&table[0], &table[0], &mut base2);
        for i in 1..16 {
            self.montmul_into(&table[i - 1], &base2[..k], &mut t);
            table.push(t[..k].to_vec());
        }
        let e = &exp.limbs;
        let bit = |i: u64| (e[(i / 64) as usize] >> (i % 64)) & 1;
        // Bits [j, j+len) of the exponent; len ≤ 5, may cross one limb.
        let bits_at = |j: u64, len: u64| {
            let (limb, off) = ((j / 64) as usize, j % 64);
            let mut v = e[limb] >> off;
            if off + len > 64 && limb + 1 < e.len() {
                v |= e[limb + 1] << (64 - off);
            }
            v & ((1 << len) - 1)
        };
        // Both buffers are k+1 limbs so the ladder can ping-pong them with
        // a pointer swap instead of copying the result back each step
        // (montmul_into always leaves the overflow limb zero).
        let mut acc: Vec<u64> = vec![0u64; k + 1];
        let mut started = false;
        // Left-to-right sliding window: each window is ≤ 5 bits with its
        // lowest bit set, so only odd powers are ever multiplied in.
        let mut i = exp.bits() as i64 - 1;
        while i >= 0 {
            if bit(i as u64) == 0 {
                if k >= 2 {
                    self.montsqr_into(&acc[..k], &mut wide, &mut sq_c, &mut t);
                } else {
                    self.montmul_into(&acc[..k], &acc[..k], &mut t);
                }
                std::mem::swap(&mut acc, &mut t);
                i -= 1;
                continue;
            }
            let mut j = (i - 4).max(0);
            while bit(j as u64) == 0 {
                j += 1;
            }
            let len = (i - j + 1) as u64;
            let digit = bits_at(j as u64, len) as usize;
            if started {
                for _ in 0..len {
                    if k >= 2 {
                        self.montsqr_into(&acc[..k], &mut wide, &mut sq_c, &mut t);
                    } else {
                        self.montmul_into(&acc[..k], &acc[..k], &mut t);
                    }
                    std::mem::swap(&mut acc, &mut t);
                }
                self.montmul_into(&acc[..k], &table[digit >> 1], &mut t);
                std::mem::swap(&mut acc, &mut t);
            } else {
                acc[..k].copy_from_slice(&table[digit >> 1]);
                started = true;
            }
            i = j - 1;
        }
        // Leave the Montgomery domain: multiply by plain 1.
        let mut one = vec![0u64; k];
        one[0] = 1;
        self.montmul_into(&acc[..k], &one, &mut t);
        t.truncate(k);
        BigUint::from_limbs(t)
    }

    /// Converts the Montgomery-form accumulator in `acc[..k]` back to a
    /// plain `BigUint` (multiply by plain 1).
    fn demont(&self, acc: &[u64], t: &mut [u64]) -> BigUint {
        let k = self.k;
        let mut one = vec![0u64; k];
        one[0] = 1;
        self.montmul_into(&acc[..k], &one, t);
        BigUint::from_limbs(t[..k].to_vec())
    }

    /// Precomputes a fixed-base exponentiation table for `base` covering
    /// exponents up to `max_exp_bits` bits. Evaluation then costs only
    /// table multiplies — no squarings at all — which beats the sliding
    /// window whenever the same base is raised to many exponents (the
    /// noise pool's `h^σ` refills).
    pub fn fixed_base(&self, base: &BigUint, max_exp_bits: u64) -> FixedBaseTable {
        let k = self.k;
        let base = base % &self.n;
        let n_windows = (max_exp_bits.max(1) as usize).div_ceil(FB_WINDOW);
        let mut t = vec![0u64; k + 1];
        let mut wide = vec![0u64; 2 * k + 1];
        let mut sq_c = vec![0u64; k];
        // b = base^(2^(4i)) in Montgomery form, advanced window by window.
        self.montmul_into(&pad(&base.limbs, k), &self.r2, &mut t);
        let mut b = t.clone();
        let mut windows = Vec::with_capacity(n_windows);
        for _ in 0..n_windows {
            // digits[d-1] = base^(d·2^(4i)): successive multiplies by b.
            let mut digits = Vec::with_capacity(FB_DIGITS);
            digits.push(b[..k].to_vec());
            for d in 1..FB_DIGITS {
                self.montmul_into(&digits[d - 1], &b[..k], &mut t);
                digits.push(t[..k].to_vec());
            }
            windows.push(digits);
            // b ← b^16 for the next window: four squarings.
            for _ in 0..FB_WINDOW {
                if k >= 2 {
                    self.montsqr_into(&b[..k], &mut wide, &mut sq_c, &mut t);
                } else {
                    self.montmul_into(&b[..k], &b[..k], &mut t);
                }
                std::mem::swap(&mut b, &mut t);
            }
        }
        FixedBaseTable { ctx: self.clone(), base, windows }
    }

    /// Straus/Shamir multi-exponentiation: `∏ baseⱼ^expⱼ mod n` in one
    /// ladder. All bases share each window's squarings (4 per window,
    /// once, instead of per base), so verifying a whole wave of
    /// ciphertext tags costs little more than one exponentiation.
    /// Matches `∏ modpow(baseⱼ, expⱼ, n) mod n` exactly; the empty
    /// product is 1.
    pub fn multi_modpow(&self, pairs: &[(&BigUint, &BigUint)]) -> BigUint {
        let k = self.k;
        let mut t = vec![0u64; k + 1];
        let mut wide = vec![0u64; 2 * k + 1];
        let mut sq_c = vec![0u64; k];
        // A full 4-bit table per live base: digits[d-1] = baseⱼ^d in
        // Montgomery form. Zero exponents contribute 1 and are dropped; a
        // zero base with a nonzero exponent annihilates the product.
        let mut tables: Vec<(Vec<Vec<u64>>, &BigUint)> = Vec::with_capacity(pairs.len());
        let mut max_bits = 0u64;
        for (base, exp) in pairs {
            if exp.is_zero() {
                continue;
            }
            let b = *base % &self.n;
            if b.is_zero() {
                return BigUint::zero();
            }
            max_bits = max_bits.max(exp.bits());
            self.montmul_into(&pad(&b.limbs, k), &self.r2, &mut t);
            let bm = t[..k].to_vec();
            let mut digits = Vec::with_capacity(FB_DIGITS);
            digits.push(bm.clone());
            for d in 1..FB_DIGITS {
                self.montmul_into(&digits[d - 1], &bm, &mut t);
                digits.push(t[..k].to_vec());
            }
            tables.push((digits, exp));
        }
        if tables.is_empty() {
            return BigUint::one() % &self.n;
        }
        // MSB-first over aligned 4-bit windows (64 % 4 == 0, so a window
        // never straddles a limb): square the joint accumulator, then
        // multiply in every base's digit for this window.
        let mut acc: Option<Vec<u64>> = None;
        for w in (0..(max_bits as usize).div_ceil(FB_WINDOW)).rev() {
            if let Some(a) = &mut acc {
                for _ in 0..FB_WINDOW {
                    if k >= 2 {
                        self.montsqr_into(&a[..k], &mut wide, &mut sq_c, &mut t);
                    } else {
                        self.montmul_into(&a[..k], &a[..k], &mut t);
                    }
                    std::mem::swap(a, &mut t);
                }
            }
            let (limb, off) = (FB_WINDOW * w / 64, FB_WINDOW * w % 64);
            for (digits, exp) in &tables {
                let d = match exp.limbs.get(limb) {
                    Some(l) => (l >> off & 0xF) as usize,
                    None => continue,
                };
                if d == 0 {
                    continue;
                }
                match &mut acc {
                    Some(a) => {
                        self.montmul_into(&a[..k], &digits[d - 1], &mut t);
                        std::mem::swap(a, &mut t);
                    }
                    None => {
                        let mut v = digits[d - 1].clone();
                        v.push(0);
                        acc = Some(v);
                    }
                }
            }
        }
        match acc {
            Some(acc) => self.demont(&acc, &mut t),
            None => BigUint::one() % &self.n,
        }
    }
}

/// Window width (bits) shared by [`FixedBaseTable`] and
/// [`MontgomeryCtx::multi_modpow`]. Divides 64 so a window never
/// straddles a limb boundary.
const FB_WINDOW: usize = 4;
/// Nonzero digit values per 4-bit window.
const FB_DIGITS: usize = 15;

/// Fixed-base windowed precomputation: `windows[i][d-1]` holds
/// `base^(d·2^(4i))` in Montgomery form, so `base^e` for any `e` within
/// capacity is the product of one table entry per nonzero 4-bit digit of
/// `e` — pure multiplies, zero squarings per evaluation.
///
/// Deliberately not `Debug`: the noise pool's table is derived from
/// secret encryption randomness and must stay unformattable.
#[derive(Clone)]
pub struct FixedBaseTable {
    ctx: MontgomeryCtx,
    /// The (reduced) base, kept for the over-capacity fallback path.
    base: BigUint,
    windows: Vec<Vec<Vec<u64>>>,
}

impl FixedBaseTable {
    /// The largest exponent bit-length the table covers without falling
    /// back to [`MontgomeryCtx::modpow`].
    pub fn capacity_bits(&self) -> u64 {
        (self.windows.len() * FB_WINDOW) as u64
    }

    /// The modulus the table reduces by.
    pub fn modulus(&self) -> &BigUint {
        self.ctx.modulus()
    }

    /// `base^exp mod n` from the table. Exponents beyond
    /// [`FixedBaseTable::capacity_bits`] fall back to the sliding-window
    /// ladder (correct, just not table-accelerated).
    pub fn pow(&self, exp: &BigUint) -> BigUint {
        if exp.is_zero() {
            return BigUint::one() % &self.ctx.n;
        }
        if exp.bits() > self.capacity_bits() {
            return self.ctx.modpow(&self.base, exp);
        }
        let k = self.ctx.k;
        let mut t = vec![0u64; k + 1];
        let mut acc: Option<Vec<u64>> = None;
        for (i, digits) in self.windows.iter().enumerate() {
            let (limb, off) = (FB_WINDOW * i / 64, FB_WINDOW * i % 64);
            let d = match exp.limbs.get(limb) {
                Some(l) => (l >> off & 0xF) as usize,
                None => break,
            };
            if d == 0 {
                continue;
            }
            match &mut acc {
                Some(a) => {
                    self.ctx.montmul_into(&a[..k], &digits[d - 1], &mut t);
                    std::mem::swap(a, &mut t);
                }
                None => {
                    let mut v = digits[d - 1].clone();
                    v.push(0);
                    acc = Some(v);
                }
            }
        }
        match acc {
            Some(acc) => self.ctx.demont(&acc, &mut t),
            // Unreachable (a nonzero exp has a nonzero digit), but total.
            None => BigUint::one() % &self.ctx.n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modpow_ladder;

    #[test]
    fn rejects_even_and_trivial_moduli() {
        assert!(MontgomeryCtx::new(&BigUint::zero()).is_none());
        assert!(MontgomeryCtx::new(&BigUint::one()).is_none());
        assert!(MontgomeryCtx::new(&BigUint::from(10u8)).is_none());
        assert!(MontgomeryCtx::new(&BigUint::from(9u8)).is_some());
    }

    #[test]
    fn matches_ladder_small_cases() {
        let n = BigUint::from(1_000_000_007u64);
        let ctx = MontgomeryCtx::new(&n).unwrap();
        for (b, e) in [(2u64, 10u64), (3, 0), (0, 5), (123_456_789, 987_654_321)] {
            let b = BigUint::from(b);
            let e = BigUint::from(e);
            assert_eq!(ctx.modpow(&b, &e), modpow_ladder(&b, &e, &n), "b={b:?} e={e:?}");
        }
    }

    #[test]
    fn matches_ladder_multi_limb() {
        // 2¹⁹² - 237 is prime; exercises the k = 3 CIOS path.
        let n = (&BigUint::one() << 192usize) - 237u32;
        let ctx = MontgomeryCtx::new(&n).unwrap();
        let b = (&BigUint::one() << 150usize) + 12_345u32;
        let e = (&BigUint::one() << 100usize) + 7u32;
        assert_eq!(ctx.modpow(&b, &e), modpow_ladder(&b, &e, &n));
        // Base larger than the modulus gets reduced first.
        let big_b = &b << 100usize;
        assert_eq!(ctx.modpow(&big_b, &e), modpow_ladder(&big_b, &e, &n));
    }

    #[test]
    fn matches_ladder_at_paillier_modulus_sizes() {
        // n and n² of 512- and 1024-bit keys, with a dense base and a
        // full-width all-ones exponent.
        for bits in [512usize, 1024, 2048] {
            let n = (&BigUint::one() << bits) - 159u32;
            let b = &n / 7u32;
            let e = (&BigUint::one() << (bits - 1)) - 1u32;
            let ctx = MontgomeryCtx::new(&n).unwrap();
            assert_eq!(ctx.modpow(&b, &e), modpow_ladder(&b, &e, &n), "{bits}-bit modulus");
        }
    }

    #[test]
    fn one_limb_modulus_works() {
        let n = BigUint::from(0xFFFF_FFFF_FFFF_FFC5u64); // largest 64-bit prime
        let ctx = MontgomeryCtx::new(&n).unwrap();
        let b = BigUint::from(0x0123_4567_89AB_CDEF_u64);
        let e = BigUint::from(0xFFFF_FFFF_FFFF_FFC4u64);
        assert!(ctx.modpow(&b, &e).is_one(), "Fermat little theorem");
    }

    #[test]
    fn fixed_base_matches_ladder_across_exponent_shapes() {
        let n = (&BigUint::one() << 192usize) - 237u32;
        let ctx = MontgomeryCtx::new(&n).unwrap();
        let base = (&BigUint::one() << 150usize) + 12_345u32;
        let table = ctx.fixed_base(&base, 192);
        assert_eq!(table.capacity_bits(), 192);
        for e in [
            BigUint::zero(),
            BigUint::one(),
            BigUint::from(15u8),
            BigUint::from(16u8),
            BigUint::from(0xDEAD_BEEFu64),
            (&BigUint::one() << 191usize) + 99u32,
        ] {
            assert_eq!(table.pow(&e), modpow_ladder(&base, &e, &n), "e={e:?}");
        }
        // Beyond capacity falls back to the ladder, still correct.
        let big_e = &BigUint::one() << 300usize;
        assert_eq!(table.pow(&big_e), modpow_ladder(&base, &big_e, &n));
    }

    #[test]
    fn fixed_base_of_an_unreduced_or_zero_base() {
        let n = BigUint::from(1_000_000_007u64);
        let ctx = MontgomeryCtx::new(&n).unwrap();
        let big = (&BigUint::one() << 100usize) + 5u32;
        let table = ctx.fixed_base(&big, 64);
        let e = BigUint::from(12_345u64);
        assert_eq!(table.pow(&e), modpow_ladder(&big, &e, &n));
        let zero_base = &n * &n; // ≡ 0 mod n
        let table = ctx.fixed_base(&zero_base, 64);
        assert!(table.pow(&e).is_zero());
        assert!(table.pow(&BigUint::zero()).is_one());
    }

    #[test]
    fn multi_modpow_matches_the_product_of_single_exponentiations() {
        let n = (&BigUint::one() << 192usize) - 237u32;
        let ctx = MontgomeryCtx::new(&n).unwrap();
        let bases: Vec<BigUint> = (1u64..6).map(|i| (&BigUint::one() << 100usize) + i).collect();
        let exps: Vec<BigUint> =
            [0u64, 1, 77, u64::MAX, 0x1234_5678_9ABC_DEF0].map(BigUint::from).into();
        let pairs: Vec<(&BigUint, &BigUint)> = bases.iter().zip(exps.iter()).collect();
        let mut expect = BigUint::one();
        for (b, e) in &pairs {
            expect = expect * modpow_ladder(b, e, &n) % &n;
        }
        assert_eq!(ctx.multi_modpow(&pairs), expect);
        // Empty product and all-zero exponents are both 1.
        assert!(ctx.multi_modpow(&[]).is_one());
        let zero = BigUint::zero();
        assert!(ctx.multi_modpow(&[(&bases[0], &zero)]).is_one());
        // One annihilating base zeroes the whole product.
        let zb = &n * 3u8;
        let e = BigUint::from(9u8);
        let mut pairs = pairs;
        pairs.push((&zb, &e));
        assert!(ctx.multi_modpow(&pairs).is_zero());
    }
}
