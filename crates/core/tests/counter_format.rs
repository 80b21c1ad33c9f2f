//! The product counter format and what the controller pays to open it:
//! `sum` and `count` standalone, the side-band packed by the cipher's
//! capacity, every SFE input opened once per content.
//!
//! * sealed counters add slot-wise under both ciphers, across a spill
//!   into a second side-band ciphertext and at the two slots a 128-bit
//!   key carries;
//! * one rule change at a degree-2 resource is at most one decryption
//!   wave, over the inputs that changed, with a fixed key-operation
//!   budget;
//! * a neighbor's share, and each SFE input, is decrypted once per
//!   distinct ciphertext and forgotten with the membership epoch;
//! * a forged edge of a wave is blamed where one query per edge would
//!   have blamed it, with the earlier edges' messages still returned.

use std::sync::OnceLock;

use gridmine_arm::{CandidateRule, ItemSet, Ratio, Rule};
use gridmine_core::counter::{CounterLayout, SecureCounter, F_SUM};
use gridmine_core::shares::{share_reduce, SHARE_MODULUS};
use gridmine_core::{Controller, GridKeys, SendEdge, Verdict};
use gridmine_obs::{Event, KeyOpKind, MemoryRecorder, SharedRecorder};
use gridmine_paillier::{HomCipher, MockCipher, PaillierCtx};
use proptest::prelude::*;

fn rule() -> CandidateRule {
    CandidateRule::new(Rule::frequency(ItemSet::of(&[1])), Ratio::new(1, 2))
}

/// One sealed counter's plaintexts: `(sum, count, num, share, time)`.
type Fields = (i64, i64, u32, u32, u32);

/// Votes bounded so that a chain's tag sum stays inside the mock's `i64`.
fn fields() -> impl Strategy<Value = Fields> {
    (-(1i64 << 30)..1 << 30, -(1i64 << 30)..1 << 30, any::<u32>(), any::<u32>(), any::<u32>())
}

/// Seals each element of `chain` — the first as the local counter, the
/// rest as messages from the neighbors in turn — adds them up,
/// rerandomises, opens, and compares with the field-wise sum.
fn add_chain_opens_to_the_fieldwise_sum<C: HomCipher>(
    keys: &GridKeys<C>,
    degree: usize,
    chain: &[Fields],
) -> Result<(), TestCaseError> {
    let layout = CounterLayout::new(0, (1..=degree).collect());
    let key = keys.tags.key(layout.arity());
    let mut want_ts = vec![0i64; 1 + degree];
    let (mut sum, mut count, mut num, mut share) = (0i64, 0i64, 0i64, 0i64);
    let mut acc: Option<SecureCounter<C>> = None;
    for (i, &(s, c, n, sh, t)) in chain.iter().enumerate() {
        let slot = i % (1 + degree);
        let sealed = if slot == 0 {
            SecureCounter::seal_local(&keys.enc, &key, &layout, s, c, n, sh, t)
        } else {
            let (n, sh, t) = (i64::from(n), i64::from(sh), i64::from(t));
            SecureCounter::seal_outgoing(&keys.enc, &key, &layout, slot, s, c, n, sh, t)
                .expect("every u32 seals")
        };
        prop_assert_eq!(sealed.msg.fields.len(), SecureCounter::field_cts(&keys.pub_ops, &layout));
        (sum, count, num, share) = (sum + s, count + c, num + i64::from(n), share + i64::from(sh));
        want_ts[slot] += i64::from(t);
        acc = Some(match acc {
            Some(acc) => acc.add(&keys.pub_ops, &sealed),
            None => sealed,
        });
    }
    let acc = acc.expect("chains are non-empty").rerandomize(&keys.pub_ops);
    let p = acc.open(&keys.dec, &key).expect("an honest aggregate opens");
    prop_assert_eq!((p.sum, p.count, p.num, p.share), (sum, count, num, share_reduce(share)));
    prop_assert_eq!(p.ts, want_ts);
    Ok(())
}

/// One keypair per size for all cases (keygen dominates their cost).
fn paillier_512() -> &'static GridKeys<PaillierCtx> {
    static KEYS: OnceLock<GridKeys<PaillierCtx>> = OnceLock::new();
    KEYS.get_or_init(|| GridKeys::paillier(512, 0x5EED))
}

fn paillier_128() -> &'static GridKeys<PaillierCtx> {
    static KEYS: OnceLock<GridKeys<PaillierCtx>> = OnceLock::new();
    KEYS.get_or_init(|| GridKeys::paillier(128, 0x5EED))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Degree 12 at 512 bits: 15 side-band values over the 11 slots of a
    /// ciphertext, so two of them.
    #[test]
    fn chains_add_slotwise_across_a_spill(chain in prop::collection::vec(fields(), 1..=64)) {
        let keys = paillier_512();
        prop_assert_eq!(keys.pub_ops.slots_per_ct(), 11);
        add_chain_opens_to_the_fieldwise_sum(keys, 12, &chain)?;
        add_chain_opens_to_the_fieldwise_sum(&GridKeys::<MockCipher>::mock(9), 12, &chain)?;
    }

    /// 128-bit keys, as the suites use: two slots a ciphertext.
    #[test]
    fn chains_add_slotwise_at_two_slots_a_ciphertext(
        chain in prop::collection::vec(fields(), 1..=64),
        degree in 0usize..4,
    ) {
        let keys = paillier_128();
        prop_assert_eq!(keys.pub_ops.slots_per_ct(), 2);
        add_chain_opens_to_the_fieldwise_sum(keys, degree, &chain)?;
        add_chain_opens_to_the_fieldwise_sum(&GridKeys::<MockCipher>::mock(9), degree, &chain)?;
    }
}

/// Resource 0 with neighbors 1 and 2: an honest wave's inputs, built the
/// way a broker holds them. Shares: own + 77 + 88 ≡ 1. The local vote
/// (0 of 10) goes against what both neighbors reported (6 of 10), so the
/// send condition holds toward each.
struct Wave<C: HomCipher> {
    keys: GridKeys<C>,
    layout: CounterLayout,
    receiver_layouts: [CounterLayout; 2],
    local: SecureCounter<C>,
    recv: [SecureCounter<C>; 2],
    full: SecureCounter<C>,
    shares: [C::Ct; 2],
}

impl<C: HomCipher> Wave<C> {
    fn new(keys: GridKeys<C>) -> Self {
        let layout = CounterLayout::new(0, vec![1, 2]);
        let local = Self::local(&keys, &layout, 10, 3);
        let recv = [Self::from(&keys, &layout, 1, 5), Self::from(&keys, &layout, 2, 5)];
        let full = Self::sum(&keys, &local, &recv);
        let shares = [keys.enc.encrypt_i64(123), keys.enc.encrypt_i64(456)];
        let receiver_layouts = [CounterLayout::new(1, vec![0]), CounterLayout::new(2, vec![0])];
        Wave { keys, layout, receiver_layouts, local, recv, full, shares }
    }

    /// The accountant's counter after `count` transactions, at time `ts`.
    fn local(keys: &GridKeys<C>, layout: &CounterLayout, count: i64, ts: u32) -> SecureCounter<C> {
        let key = keys.tags.key(layout.arity());
        let own_share = (SHARE_MODULUS - 77 - 88 + 1) as u32;
        SecureCounter::seal_local(&keys.enc, &key, layout, 0, count, 1, own_share, ts)
    }

    /// A message from neighbor `v`, sent at its time `ts`.
    fn from(keys: &GridKeys<C>, layout: &CounterLayout, v: usize, ts: i64) -> SecureCounter<C> {
        let key = keys.tags.key(layout.arity());
        let share = [77, 88][v - 1];
        SecureCounter::seal_outgoing(&keys.enc, &key, layout, v, 6, 10, 1, share, ts)
            .expect("a neighbor of 0")
    }

    /// The full aggregate, as the broker sums it.
    fn sum(
        keys: &GridKeys<C>,
        local: &SecureCounter<C>,
        recv: &[SecureCounter<C>; 2],
    ) -> SecureCounter<C> {
        local.add(&keys.pub_ops, &recv[0]).add(&keys.pub_ops, &recv[1])
    }

    fn controller(&self, rec: Option<SharedRecorder>) -> Controller<C> {
        let dec = match rec {
            Some(rec) => self.keys.dec.clone().with_recorder(rec),
            None => self.keys.dec.clone(),
        };
        Controller::new(0, dec, self.keys.tags.clone(), 1, self.layout.clone())
    }

    /// The wave's edges; `recv_v` as stored, as the broker hands it.
    fn edges(&self) -> Vec<SendEdge<'_, C>> {
        (0..2)
            .map(|i| SendEdge {
                v: i + 1,
                receiver_layout: &self.receiver_layouts[i],
                recv_v: &self.recv[i],
                share_for_me: &self.shares[i],
            })
            .collect()
    }

    /// What an outgoing message toward `receiver` carries:
    /// `(sum, count, num, share)`.
    fn payload_in(&self, receiver: usize, sealed: &SecureCounter<C>) -> (i64, i64, i64, i64) {
        let key = self.keys.tags.key(self.receiver_layouts[receiver - 1].arity());
        let p = sealed.open(&self.keys.dec, &key).expect("the controller's own seal opens");
        (p.sum, p.count, p.num, p.share)
    }

    /// The share an outgoing message toward `receiver` carries.
    fn share_in(&self, receiver: usize, sealed: &SecureCounter<C>) -> i64 {
        self.payload_in(receiver, sealed).3
    }
}

fn key_ops(mem: &MemoryRecorder, op: KeyOpKind) -> usize {
    mem.snapshot().iter().filter(|e| matches!(e, Event::KeyOp { op: o, .. } if *o == op)).count()
}

#[test]
fn one_rule_change_opens_what_changed_within_its_key_op_budget() {
    let mut w = Wave::new(GridKeys::paillier(512, 7));
    assert_eq!(w.full.msg.fields.len() + 1, 4, "sum, count, side-band, tag");
    let mem = MemoryRecorder::shared();
    let mut ctl = w.controller(Some(mem.clone()));
    // One wave: (Decrypt, BatchDecrypt, MultiExp) it cost the controller.
    let wave = |ctl: &mut Controller<PaillierCtx>, w: &Wave<PaillierCtx>| {
        mem.clear();
        let (sealed, verdict) = ctl.send_queries(0, &rule(), &w.full, &w.edges());
        assert_eq!(verdict, Ok(()));
        let ops = [KeyOpKind::Decrypt, KeyOpKind::BatchDecrypt, KeyOpKind::MultiExp];
        (sealed.len(), ops.map(|op| key_ops(&mem, op)))
    };

    // First contact: both edges send. Three counters of three ciphertexts
    // in one wave, one decryption for the combined tag check, two shares.
    assert_eq!(wave(&mut ctl, &w), (2, [12, 1, 1]));
    assert_eq!(ctl.queries_served, 2);
    // The same inputs again — a nudge over unchanged state — send
    // nothing and cost no key operation at all.
    assert_eq!(wave(&mut ctl, &w), (0, [0, 0, 0]));
    assert_eq!(key_ops(&mem, KeyOpKind::Encrypt), 0);
    assert_eq!(ctl.queries_served, 4, "still one query per edge");
    // A receive: neighbor 1's counter is replaced and the aggregate
    // with it. Those two open — neighbor 2's is read back.
    w.recv[0] = Wave::from(&w.keys, &w.layout, 1, 6);
    w.full = Wave::sum(&w.keys, &w.local, &w.recv);
    assert_eq!(wave(&mut ctl, &w).1, [7, 1, 1]);
    // A scan: only the local counter moves, so only the aggregate is
    // new, and a lone tag is checked without a multi-exponentiation.
    w.local = Wave::local(&w.keys, &w.layout, 12, 4);
    w.full = Wave::sum(&w.keys, &w.local, &w.recv);
    assert_eq!(wave(&mut ctl, &w).1, [4, 1, 0]);
    assert_eq!(wave(&mut ctl, &w).1, [0, 0, 0]);
}

#[test]
fn share_cache_hits_only_on_the_same_ciphertext_and_dies_with_the_epoch() {
    let mut w = Wave::new(GridKeys::paillier(128, 11));
    let mem = MemoryRecorder::shared();
    let mut ctl = w.controller(Some(mem.clone()));
    // One wave with every edge's suppressor lifted, so that each one
    // seals: the decryptions it cost the controller, and the shares the
    // sealed messages carry.
    let wave = |ctl: &mut Controller<PaillierCtx>, w: &Wave<PaillierCtx>| {
        ctl.reset_edge(1);
        ctl.reset_edge(2);
        mem.clear();
        let (sealed, verdict) = ctl.send_queries(0, &rule(), &w.full, &w.edges());
        assert_eq!(verdict, Ok(()));
        let shares: Vec<i64> = sealed.iter().map(|(v, c)| w.share_in(*v, c)).collect();
        (key_ops(&mem, KeyOpKind::Decrypt), shares)
    };
    let (cold, shares) = wave(&mut ctl, &w);
    assert_eq!(shares, [123, 456]);
    // A repeat of the same ciphertexts costs no share decryption (nor,
    // the counters being the same bytes too, any other)…
    let (warm, shares) = wave(&mut ctl, &w);
    assert_eq!((warm, shares), (0, vec![123, 456]));
    // …a swapped one gets the decryption of what was supplied, once…
    w.shares[0] = w.keys.enc.encrypt_i64(999);
    assert_eq!(wave(&mut ctl, &w), (warm + 1, vec![999, 456]));
    assert_eq!(wave(&mut ctl, &w), (warm, vec![999, 456]));
    // …and another ciphertext of the same plaintext is another key.
    w.shares[1] = w.keys.pub_ops.rerandomize(&w.shares[1]);
    assert_eq!(wave(&mut ctl, &w), (warm + 1, vec![999, 456]));
    // A new membership epoch forgets them all — and, with them, what
    // the wave's three counters opened to.
    ctl.set_layout(w.layout.clone());
    assert_eq!(wave(&mut ctl, &w), (cold, vec![999, 456]));
}

#[test]
fn opened_inputs_are_read_back_only_as_the_same_bytes_and_die_with_the_epoch() {
    let mut w = Wave::new(GridKeys::paillier(128, 11));
    let mem = MemoryRecorder::shared();
    let mut ctl = w.controller(Some(mem.clone()));
    // What opening one counter costs: its ciphertexts and its tag.
    let one = w.full.msg.fields.len() + 1;
    // One wave with every edge's suppressor lifted, so that each one
    // seals: the decryptions it cost the controller, and what it sealed.
    let wave = |ctl: &mut Controller<PaillierCtx>, w: &Wave<PaillierCtx>| {
        ctl.reset_edge(1);
        ctl.reset_edge(2);
        mem.clear();
        let (sealed, verdict) = ctl.send_queries(0, &rule(), &w.full, &w.edges());
        assert_eq!(verdict, Ok(()));
        let sent: Vec<_> = sealed.iter().map(|(v, c)| w.payload_in(*v, c)).collect();
        (key_ops(&mem, KeyOpKind::Decrypt), sent)
    };
    // Three counters and two shares; the three tags share a decryption.
    let cold = 3 * (one - 1) + 1 + 2;
    let sent = vec![(6, 20, 2, 123), (6, 20, 2, 456)];
    assert_eq!(wave(&mut ctl, &w), (cold, sent.clone()));
    // The same bytes again decrypt nothing and decide the same…
    assert_eq!(wave(&mut ctl, &w), (0, sent.clone()));
    // …another ciphertext of the same counter is opened, to the same
    // plaintext, once…
    w.recv[0] = w.recv[0].rerandomize(&w.keys.pub_ops);
    assert_eq!(wave(&mut ctl, &w), (one, sent.clone()));
    assert_eq!(wave(&mut ctl, &w), (0, sent.clone()));
    // …and the output SFE on the aggregate a wave just opened pays for
    // the blinded Δ alone.
    mem.clear();
    let blinded = w.keys.enc.encrypt_i64(-7);
    assert_eq!(ctl.output_query(0, &rule(), &w.full, &blinded), Ok(false));
    assert_eq!(key_ops(&mem, KeyOpKind::Decrypt), 1);
    // A new membership epoch forgets them all.
    ctl.set_layout(w.layout.clone());
    assert_eq!(wave(&mut ctl, &w), (cold, sent));

    // A hit is no licence: after an honest `recv_v` was read back, a
    // forged one in its place is opened, fails its tag and convicts.
    w.recv[1].msg.fields[F_SUM] = w.keys.pub_ops.encrypt_i64(999);
    ctl.reset_edge(1);
    mem.clear();
    let (sealed, verdict) = ctl.send_queries(0, &rule(), &w.full, &w.edges());
    assert_eq!(verdict, Err(Verdict::MaliciousBroker(0)));
    assert_eq!(sealed.iter().map(|(v, _)| *v).collect::<Vec<_>>(), [1], "edge 1 still answered");
    assert!(key_ops(&mem, KeyOpKind::Decrypt) >= one, "the forgery was opened, not looked up");
}

fn forged_second_edge_is_blamed_after_the_first_is_answered<C: HomCipher>(keys: GridKeys<C>) {
    let w = Wave::new(keys);
    let mem = MemoryRecorder::shared();
    let mut ctl = w.controller(None);
    ctl.set_recorder(mem.clone());
    // Neighbor 2's `recv_v` forged: a vote the broker made up, under a
    // tag it cannot produce.
    let mut forged = w.recv[1].clone();
    forged.msg.fields[F_SUM] = w.keys.pub_ops.encrypt_i64(999);
    let mut edges = w.edges();
    edges[1].recv_v = &forged;
    let (sealed, verdict) = ctl.send_queries(0, &rule(), &w.full, &edges);
    assert_eq!(verdict, Err(Verdict::MaliciousBroker(0)));
    assert_eq!(sealed.iter().map(|(v, _)| *v).collect::<Vec<_>>(), [1], "edge 1 still answered");
    assert_eq!(w.share_in(1, &sealed[0].1), 123);
    // Two queries were asked, one was answered, as one query per edge.
    assert_eq!(ctl.queries_served, 2);
    let events = mem.snapshot();
    let count = |f: &dyn Fn(&Event) -> bool| events.iter().filter(|e| f(e)).count();
    assert_eq!(count(&|e| matches!(e, Event::SfeQuery { .. })), 2);
    assert_eq!(count(&|e| matches!(e, Event::SfeAnswer { answer: true, .. })), 1);
    assert_eq!(count(&|e| matches!(e, Event::VerdictIssued { .. })), 1);
    // Halted: the next wave is refused whole.
    let (sealed, verdict) = ctl.send_queries(0, &rule(), &w.full, &w.edges());
    assert!(sealed.is_empty());
    assert_eq!(verdict, Err(Verdict::MaliciousBroker(0)));
}

#[test]
fn wave_blame_order_matches_one_query_per_edge_under_both_ciphers() {
    forged_second_edge_is_blamed_after_the_first_is_answered(GridKeys::<MockCipher>::mock(5));
    forged_second_edge_is_blamed_after_the_first_is_answered(GridKeys::paillier(128, 5));
}
