//! The tag half of the search over what a key-less broker can submit.
//!
//! A broker holds sealed counters — its accountant's local one and, per
//! neighbour, the placeholder it was wired with, a stale counter and the
//! current one — and the public key. Every small integer combination of
//! them is a tuple of ciphertexts it can hand its controller, and so is
//! such a combination plus a public encryption `E(δ·2^(45·w))` at digit
//! `w` of one of its ciphertexts: any value digit, the last one (whose
//! carry runs into the tag), or either of the tag's two digits. The tag
//! is linear, so a combination opens, and reads back exactly the combined
//! values, unless its side-band is negative. A perturbation with `δ ≠ 0`
//! never opens: it fails its tag or its side-band. Neither does a tuple
//! spliced from the ciphertexts of two counters, while an honest
//! aggregate whose low tag digits overflow into the high one does.
//!
//! Held at 512 bits (one ciphertext a counter up to degree 4, two
//! beyond), at 128 bits (two digits a ciphertext) and under the mock (one
//! value a ciphertext, the tag one wide value). Which of the combinations
//! that open the share and timestamp audits then stop is the attribution
//! half of the search, and not this file's.

use std::sync::OnceLock;

use gridmine_core::counter::{CounterLayout, SecureCounter, F_NUM, F_TS};
use gridmine_core::GridKeys;
use gridmine_paillier::{
    slots, CounterMsg, HomCipher, MockCipher, ObliviousError, PaillierCtx, SlotError,
};
use proptest::prelude::*;

/// What one held counter was sealed with: `sum`, `count`, share, time.
type Draw = (i64, i64, u32, u32);

fn draw() -> impl Strategy<Value = Draw> {
    (-(1i64 << 20)..1 << 20, -(1i64 << 20)..1 << 20, 0u32..1 << 31, 0u32..1 << 20)
}

/// Coefficients of a combination: mostly nothing or the counter itself,
/// sometimes a small multiple of either sign.
fn coefficient() -> impl Strategy<Value = i64> {
    prop_oneof![Just(0i64), Just(0), Just(1), -2i64..=3]
}

/// A nonzero perturbation: a unit, a small value, one about a digit's
/// half range, or one past a whole digit.
fn delta() -> impl Strategy<Value = i64> {
    prop_oneof![
        prop_oneof![Just(1i64), Just(-1)],
        -1000i64..=-1,
        1i64..=1000,
        (1i64 << 44) - 3..(1 << 44) + 3,
        -(1i64 << 46)..-(1 << 45),
    ]
}

/// One cipher's keys, and how a broker mints `E(δ)` at digit `w` of a
/// ciphertext with them — key-free.
struct Broker<'k, C: HomCipher> {
    keys: &'k GridKeys<C>,
    bump: &'k dyn Fn(i64, usize) -> C::Ct,
}

impl<C: HomCipher> Broker<'_, C> {
    /// The ciphertext, and the digit within it, of each value of the
    /// sealed tuple of `arity` values, its tag's included.
    fn digits(&self, arity: usize) -> Vec<(usize, usize)> {
        let cap = self.keys.pub_ops.slots_per_ct();
        let widths = slots::widths(cap, arity + slots::tag_len(cap));
        widths.enumerate().flat_map(|(ct, w)| (0..w).map(move |at| (ct, at))).collect()
    }

    /// `msg` plus `E(δ)` at `digit` of its tuple.
    fn perturbed(
        &self,
        msg: &CounterMsg<C>,
        arity: usize,
        digit: usize,
        delta: i64,
    ) -> CounterMsg<C> {
        let (ct, at) = self.digits(arity)[digit];
        let mut out = msg.clone();
        out.fields[ct] = self.keys.pub_ops.add(&out.fields[ct], &(self.bump)(delta, at));
        out
    }

    /// What resource 0 holds under `layout`, with the values each holds:
    /// the local counter, then per neighbour the placeholder it was wired
    /// with, a stale counter and the current one, under the share the
    /// neighbour assigned.
    fn holdings(
        &self,
        layout: &CounterLayout,
        draws: &[Draw],
    ) -> Vec<(SecureCounter<C>, Vec<i64>)> {
        let keys = self.keys;
        let key = keys.tags.key(layout.arity());
        let mut draws = draws.iter().copied().cycle();
        let mut next = || draws.next().expect("draws are never empty");
        let (sum, count, share, ts) = next();
        let local = SecureCounter::seal_local(&keys.enc, &key, layout, sum, count, 1, share, ts);
        let mut held = vec![(local, tuple(layout, [sum, count, 1, share.into()], F_TS, ts.into()))];
        for &v in layout.neighbors.iter() {
            let slot = layout.ts_slot(v).expect("a neighbour has a slot");
            let share = i64::from(next().2);
            let ((s1, c1, _, t1), (s2, c2, _, t2)) = (next(), next());
            let (t1, t2) = (i64::from(t1), i64::from(t1) + i64::from(t2));
            for (sum, count, num, ts) in [(0, 0, 0, 0), (s1, c1, 1, t1), (s2, c2, 1, t2)] {
                let counter = SecureCounter::seal_outgoing(
                    &keys.enc, &key, layout, v, sum, count, num, share, ts,
                )
                .expect("every draw seals");
                held.push((counter, tuple(layout, [sum, count, num, share], slot, ts)));
            }
        }
        held
    }

    /// Resource 0 at `degree` submits `Σ aᵢ·heldᵢ`: it opens as the
    /// combined values, or at a negative side-band value; perturbed at a
    /// digit it does not open at all.
    fn combinations_open_as_combined(
        &self,
        degree: usize,
        draws: &[Draw],
        coeffs: &[i64],
        (target, delta): (usize, i64),
    ) -> Result<(), TestCaseError> {
        let (keys, ops) = (self.keys, &self.keys.pub_ops);
        let layout = CounterLayout::new(0, (1..=degree).collect());
        let arity = layout.arity();
        let key = keys.tags.key(arity);
        let mut model = vec![0i64; arity];
        let mut sub = CounterMsg::zeros(&keys.enc, &key);
        for ((counter, values), &a) in self.holdings(&layout, draws).iter().zip(coeffs) {
            if a != 0 {
                sub = sub.add(ops, &counter.msg.scalar(ops, a));
                model.iter_mut().zip(values).for_each(|(m, v)| *m += a * v);
            }
        }
        let want = match model.iter().skip(F_NUM).position(|&v| v < 0) {
            Some(at) => Err(ObliviousError::SideBand(SlotError::Negative { slot: F_NUM + at })),
            None => Ok(model.clone()),
        };
        prop_assert_eq!(sub.open(&keys.dec, &key, F_NUM), want);

        // Perturbed: at a drawn digit, the last value's, the tag's low and
        // high ones (one wide value under the mock), and the last value
        // pushed to exactly the top of its digit, whose carry lands in the
        // tag.
        let len = self.digits(arity).len();
        let last = arity - 1;
        let top = (1i64 << 44) - model[last];
        let deltas = [(target % len, delta), (last, delta), (arity, delta), (len - 1, delta)];
        for (digit, delta) in deltas.into_iter().chain([(last, top)]) {
            let opened = self.perturbed(&sub, arity, digit, delta).open(&keys.dec, &key, F_NUM);
            prop_assert!(
                matches!(opened, Err(ObliviousError::TagMismatch | ObliviousError::SideBand(_))),
                "digit {} of {}, δ = {}: {:?}",
                digit,
                len,
                delta,
                opened
            );
        }
        Ok(())
    }
}

/// The tuple a counter under `layout` holds: `head` in the four fields
/// before the timestamps, and `ts` at `slot`.
fn tuple(layout: &CounterLayout, head: [i64; 4], slot: usize, ts: i64) -> Vec<i64> {
    let mut values = vec![0; layout.arity()];
    values[..F_TS].copy_from_slice(&head);
    values[slot] = ts;
    values
}

/// Twelve values — a counter of degree 7 — sealed twice: swapping any
/// one ciphertext of the first for the second's never opens.
fn splices_never_open<C: HomCipher>(
    keys: &GridKeys<C>,
    a: &[i64],
    b: &[i64],
) -> Result<(), TestCaseError> {
    let key = keys.tags.key(a.len());
    let (sa, sb) = (CounterMsg::seal(&keys.enc, &key, a), CounterMsg::seal(&keys.enc, &key, b));
    prop_assert_eq!(sa.open(&keys.dec, &key, F_NUM), Ok(a.to_vec()));
    for k in 0..sa.fields.len() {
        let mut spliced = sa.clone();
        spliced.fields[k] = sb.fields[k].clone();
        let opened = spliced.open(&keys.dec, &key, F_NUM);
        prop_assert!(
            matches!(opened, Err(ObliviousError::TagMismatch | ObliviousError::SideBand(_))),
            "ciphertext {} of {}: {:?}",
            k,
            sa.fields.len(),
            opened
        );
    }
    Ok(())
}

/// One keypair per size for all cases (keygen dominates their cost).
fn paillier(bits: u64) -> &'static GridKeys<PaillierCtx> {
    static K512: OnceLock<GridKeys<PaillierCtx>> = OnceLock::new();
    static K128: OnceLock<GridKeys<PaillierCtx>> = OnceLock::new();
    let cell = if bits == 512 { &K512 } else { &K128 };
    cell.get_or_init(|| GridKeys::paillier(bits, 0x7A6))
}

/// The mock's grid keys, shared by all cases.
fn mock() -> &'static GridKeys<MockCipher> {
    static KEYS: OnceLock<GridKeys<MockCipher>> = OnceLock::new();
    KEYS.get_or_init(|| GridKeys::mock(0x7A6))
}

/// `f` run by a broker under `bits`-bit Paillier, which mints a digit's
/// perturbation by packing it.
fn with_paillier<R>(bits: u64, f: impl FnOnce(&Broker<'_, PaillierCtx>) -> R) -> R {
    let keys = paillier(bits);
    let pk = keys.enc.public_key();
    let bump = |delta: i64, at: usize| {
        let mut digits = vec![0; at + 1];
        digits[at] = delta;
        keys.enc.encrypt_residue(&slots::pack(pk, &digits))
    };
    f(&Broker { keys, bump: &bump })
}

/// `f` run by a broker under the mock, whose every ciphertext is one
/// value.
fn with_mock<R>(f: impl FnOnce(&Broker<'_, MockCipher>) -> R) -> R {
    let keys = mock();
    f(&Broker { keys, bump: &|delta, _| keys.enc.encrypt_i64(delta) })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn a_brokers_combinations_open_as_combined_and_perturbed_ones_not_at_all(
        degree in 1usize..=7,
        draws in prop::collection::vec(draw(), 22),
        coeffs in prop::collection::vec(coefficient(), 22),
        perturbation in (any::<usize>(), delta()),
    ) {
        for bits in [512, 128] {
            with_paillier(bits, |b| {
                b.combinations_open_as_combined(degree, &draws, &coeffs, perturbation)
            })?;
        }
        with_mock(|b| b.combinations_open_as_combined(degree, &draws, &coeffs, perturbation))?;
    }

    #[test]
    fn ciphertexts_spliced_across_two_counters_of_degree_7_never_open(
        a in prop::collection::vec(1i64..1 << 30, 12),
        apart in prop::collection::vec(1i64..1 << 20, 12),
    ) {
        let b: Vec<i64> = a.iter().zip(&apart).map(|(x, d)| x + d).collect();
        for bits in [512, 128] {
            splices_never_open(paillier(bits), &a, &b)?;
        }
        splices_never_open(mock(), &a, &b)?;
    }
}

/// Sixteen honest counters, each of whose low tag digit is in the top
/// quarter of its range: their sum carries out of the low digit into the
/// high one, and opens as the sum of their values.
fn low_tag_digits_carry_into_the_high_one(keys: &GridKeys<PaillierCtx>) {
    let layout = CounterLayout::new(0, vec![1, 2]);
    let key = keys.tags.key(layout.arity());
    let cap = keys.pub_ops.slots_per_ct();
    let last = slots::widths(cap, layout.arity() + 2).last().expect("a ciphertext");
    let (mut picked, mut model, mut lows) = (Vec::new(), vec![0i64; layout.arity()], 0i64);
    for i in 1i64.. {
        if picked.len() == 16 {
            break;
        }
        let (sum, count, share, ts) = (i * 7919 % (1 << 20), i, i * 104_729 % (1 << 31), i);
        let counter =
            SecureCounter::seal_outgoing(&keys.enc, &key, &layout, 1, sum, count, 1, share, ts)
                .expect("seals");
        let tag = keys.dec.decrypt_residue(counter.msg.fields.last().expect("a ciphertext"));
        let mut digits = Vec::new();
        slots::unpack(keys.enc.public_key(), &tag, last, &mut digits).expect("honest");
        let low = digits[last - 2];
        if low >= 1 << 43 {
            lows += low;
            let values = tuple(&layout, [sum, count, 1, share], F_TS + 1, ts);
            model.iter_mut().zip(&values).for_each(|(m, v)| *m += v);
            picked.push(counter);
        }
    }
    assert!(lows >= 1 << 46, "the low digits overflow theirs: {lows}");
    let sum =
        picked.iter().skip(1).fold(picked[0].msg.clone(), |acc, c| acc.add(&keys.pub_ops, &c.msg));
    assert_eq!(sum.open(&keys.dec, &key, F_NUM), Ok(model));
}

#[test]
fn honest_aggregates_whose_low_tag_digits_overflow_still_open() {
    low_tag_digits_carry_into_the_high_one(paillier(512));
    low_tag_digits_carry_into_the_high_one(paillier(128));
}
