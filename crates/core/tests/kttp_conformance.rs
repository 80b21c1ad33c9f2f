//! §5.3's security argument, executed: the controller's k-gate must answer
//! exactly the queries the ideal k-TTP of Definition 3.1 would serve, for
//! the cumulative (grow-only) populations the protocol produces.
//!
//! "Because in our algorithm votes are always accumulated, we have that
//! V_t1 ⊆ V_t2 … consequently, for any G ⊆ {V_t1 …}, either
//! |V_ti △ (∪G)| ≥ k or the controller does not provide the majority
//! vote."
//!
//! And the controller's own view (ROADMAP 3(b)): its `Output()` answer is
//! a function of the plaintext it opened and audited in the same call, so
//! what answering shows it is a subset of what auditing shows it.

use std::collections::BTreeSet;

use gridmine_arm::{CandidateRule, ItemSet, Ratio, Rule};
use gridmine_core::counter::{CounterLayout, SecureCounter};
use gridmine_core::shares::SHARE_MODULUS;
use gridmine_core::{Controller, GridKeys, KGate, KTtp};
use gridmine_paillier::{HomCipher, MockCipher, PaillierCtx};
use proptest::prelude::*;

/// A random grow-only population chain: each query adds 0..=6 new
/// participants to the previous population.
fn growth_chain() -> impl Strategy<Value = Vec<usize>> {
    // Population sizes, cumulative.
    prop::collection::vec(0usize..7, 1..12).prop_map(|increments| {
        let mut sizes = Vec::with_capacity(increments.len());
        let mut total = 0;
        for inc in increments {
            total += inc;
            sizes.push(total);
        }
        sizes
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// For nested populations, the gate's "≥ k new members since the last
    /// answered query" decision coincides with Definition 3.1's
    /// symmetric-difference condition.
    #[test]
    fn gate_matches_kttp_on_growing_chains(sizes in growth_chain(), k in 1usize..5) {
        let mut ttp = KTtp::new(k);
        let mut gate = KGate::new(k as i64);
        for i in 0..40 {
            ttp.set_input(i, 1);
        }
        for &n in &sizes {
            let v: BTreeSet<usize> = (0..n).collect();
            let ttp_answers = ttp.request_sum(0, &v).is_some();
            // The gate sees the resource count as x2 and (here) the same
            // value as the transaction count x1.
            let gate_fresh = gate.is_fresh(n as i64, n as i64);
            prop_assert_eq!(
                ttp_answers, gate_fresh,
                "population {} of chain {:?} (k = {})", n, sizes, k
            );
            if gate_fresh {
                gate.disclose(n as i64, n as i64, || true);
            }
        }
    }

    /// The gate never discloses more often than the TTP allows, even when
    /// the transaction population grows faster than the resource
    /// population (the protocol's usual shape).
    #[test]
    fn gate_is_conservative_with_faster_transactions(
        sizes in growth_chain(),
        tx_scale in 2i64..50,
        k in 1usize..5,
    ) {
        let mut ttp = KTtp::new(k);
        let mut gate = KGate::new(k as i64);
        for i in 0..40 {
            ttp.set_input(i, 1);
        }
        for &n in &sizes {
            let v: BTreeSet<usize> = (0..n).collect();
            let ttp_answers = ttp.request_sum(0, &v).is_some();
            let gate_fresh = gate.is_fresh(n as i64 * tx_scale, n as i64);
            // Resource population gating is the binding constraint here:
            // the gate may be *stricter* than the TTP (x1 also must grow)
            // but never looser.
            prop_assert!(
                !gate_fresh || ttp_answers,
                "gate disclosed where the k-TTP refuses (n = {n}, k = {k})"
            );
            if gate_fresh {
                gate.disclose(n as i64 * tx_scale, n as i64, || true);
            } else if ttp_answers {
                // Keep the two histories aligned: the TTP served this
                // population even though the gate stayed shut; from the
                // gate's perspective that disclosure never happened, which
                // only makes it stricter going forward.
            }
        }
    }
}

#[test]
fn kttp_refuses_differencing_attack() {
    // The attack the resource-gate exists to stop: query {A..J}, then
    // {A..J} ∪ {K} — the difference would reveal K's data alone.
    let mut ttp = KTtp::new(2);
    for i in 0..11 {
        ttp.set_input(i, (i * i) as i64);
    }
    let v10: BTreeSet<usize> = (0..10).collect();
    let v11: BTreeSet<usize> = (0..11).collect();
    assert!(ttp.request_sum(0, &v10).is_some());
    assert_eq!(ttp.request_sum(0, &v11), None, "|V11 △ V10| = 1 < 2");
    // Two more members is fine.
    let mut v12 = v11.clone();
    v12.insert(11);
    ttp.set_input(11, 5);
    assert!(ttp.request_sum(0, &v12).is_some());
}

/// One output query's aggregate: the local votes `(sum, count)` and the
/// resource count neighbor 1 reports.
type Query = (i64, i64, u32);

fn queries() -> impl Strategy<Value = Vec<Query>> {
    prop::collection::vec((-50i64..50, 0i64..50, 0u32..6), 1..12)
}

/// Resource 0 with neighbor 1 answers `Output()` on each query in turn,
/// at increasing times. Every answer must be exactly the k-gated sign of
/// `λ.delta(sum, count)` on the aggregate's plaintext — which the
/// controller opens and audits in the same call — gated on that
/// plaintext's `count` and `num`, with the gate's history the queries
/// before it.
fn output_answer_is_the_gated_sign_of_the_audited_plaintext<C: HomCipher>(
    keys: &GridKeys<C>,
    k: i64,
    queries: &[Query],
) -> Result<(), TestCaseError> {
    let rule = CandidateRule::new(Rule::frequency(ItemSet::of(&[1])), Ratio::new(1, 3));
    let layout = CounterLayout::new(0, vec![1]);
    let key = keys.tags.key(layout.arity());
    let mut ctl = Controller::new(0, keys.dec.clone(), keys.tags.clone(), k, layout.clone());
    let mut gate = KGate::new(k);
    let own_share = (SHARE_MODULUS + 1 - 77) as u32;
    for (t, &(sum, count, num)) in (1u32..).zip(queries) {
        let local =
            SecureCounter::seal_local(&keys.enc, &key, &layout, sum, count, 1, own_share, t);
        let recv = SecureCounter::seal_outgoing(
            &keys.enc,
            &key,
            &layout,
            1,
            0,
            0,
            num.into(),
            77,
            t.into(),
        )
        .expect("1 is a neighbor of 0");
        let mut full = local.clone();
        assert!(full.add_assign(&keys.pub_ops, &recv), "counters of one layout");
        let p = full.open(&keys.dec, &key).expect("an honest aggregate opens");
        let want = gate.disclose(p.count, p.num, || rule.lambda.delta(p.sum, p.count) >= 0);
        prop_assert_eq!(ctl.output_query(0, &rule, &full), Ok(want), "query {}", t);
    }
    Ok(())
}

fn paillier_128() -> &'static GridKeys<PaillierCtx> {
    static KEYS: std::sync::OnceLock<GridKeys<PaillierCtx>> = std::sync::OnceLock::new();
    KEYS.get_or_init(|| GridKeys::paillier(128, 0x0b5e))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn output_view_is_a_subset_of_the_audit_view(queries in queries(), k in 1i64..4) {
        output_answer_is_the_gated_sign_of_the_audited_plaintext(&GridKeys::<MockCipher>::mock(3), k, &queries)?;
        output_answer_is_the_gated_sign_of_the_audited_plaintext(paillier_128(), k, &queries)?;
    }
}
