//! Hostile-ciphertext attacks: a malicious peer mails a counter whose
//! "ciphertext" is not a unit mod n² (e.g. the public modulus `n` itself,
//! a multiple of a prime factor). On such a value the homomorphic
//! inverse — and therefore `A−` and negative/blinding scalars — is
//! undefined, so the broker→controller sign-SFE path used to be a
//! release-mode panic waiting inside `refresh_outputs`.
//!
//! The protocol answer (§5.2's accountability stance): the receiving
//! resource screens every wire counter with the key-free
//! `is_wellformed` check and convicts the *sender* at the door; if a
//! malformed value somehow reaches the delta algebra anyway, the broker
//! surfaces a `CipherError` and the resource halts with a verdict — in
//! no case does the process abort.
//!
//! The same stance covers the packed side-band: what a controller
//! unpacks is whatever its broker aggregated, so a plaintext that is no
//! tuple of slot values — wider than its layout, a borrow out of `A−`, a
//! side-band ciphertext too few or too many — and a restored clock no
//! timestamp slot seals each end in a verdict or a rejected restore,
//! under both ciphers.
//!
//! And it covers the one input of the send SFE a broker picks freely,
//! `recv_v`: a counter `full` cannot contain convicts the broker; one it
//! can — an older counter of the same neighbor — is answered, to the
//! cost of the liar's own resource and nobody else's; a replayed one
//! regresses the trace through `full` and is blamed on its slot's owner.

use gridmine_arm::{CandidateRule, Database, Item, ItemSet, Ratio, Rule, Transaction};
use gridmine_core::attack::BrokerBehavior;
use gridmine_core::counter::{CounterLayout, SecureCounter, F_COUNT, F_NUM, F_SUM};
use gridmine_core::resource::wire_grid;
use gridmine_core::{
    Accountant, AuditImage, Broker, Controller, GridKeys, KGate, SealedEdges, SecureResource,
    SendEdge, Verdict, WireMsg,
};
use gridmine_majority::CandidateGenerator;
use gridmine_obs::{Event, EventKind, MemoryRecorder, VerdictKind};
use gridmine_paillier::{
    Ciphertext, HomCipher, MockCipher, ObliviousError, PaillierCtx, SlotError,
};
use gridmine_recovery::{RecoveryLog, ResourceState, RuleRecord};

/// A non-unit "ciphertext": the public modulus `n` itself, which shares
/// every prime factor with n² and therefore has no inverse mod n².
fn evil_ciphertext(keys: &GridKeys<PaillierCtx>) -> Ciphertext {
    Ciphertext::from_bytes_be(&keys.enc.public_key().modulus().to_bytes_be())
}

fn paillier_grid(n: usize) -> (GridKeys<PaillierCtx>, Vec<SecureResource<PaillierCtx>>) {
    let keys = GridKeys::paillier(128, 17);
    let rs = path_grid(&keys, n);
    (keys, rs)
}

fn path_grid<C: HomCipher>(keys: &GridKeys<C>, n: usize) -> Vec<SecureResource<C>> {
    let generator = CandidateGenerator::new(Ratio::new(1, 2), Ratio::new(1, 2));
    let items = vec![Item(1), Item(2)];
    let mut rs: Vec<SecureResource<C>> = (0..n)
        .map(|u| {
            let db = Database::from_transactions(
                (0..8).map(|j| Transaction::of((u * 8 + j) as u64, &[1, 2])).collect(),
            );
            let mut neighbors = Vec::new();
            if u > 0 {
                neighbors.push(u - 1);
            }
            if u + 1 < n {
                neighbors.push(u + 1);
            }
            SecureResource::new(u, keys, neighbors, db, 1, generator, &items, u as u64)
        })
        .collect();
    wire_grid(&mut rs);
    rs
}

/// End-to-end: a hostile peer splices a non-unit value into an otherwise
/// legitimate wire message. The receiver convicts the sender at the door
/// — no panic, and the poison never reaches the broker's aggregate.
#[test]
fn non_unit_ciphertext_from_peer_convicts_sender_without_panic() {
    let (keys, mut rs) = paillier_grid(3);

    // Produce legitimate traffic, then tamper with one message in flight.
    let mut msgs: Vec<WireMsg<PaillierCtx>> = Vec::new();
    for r in rs.iter_mut() {
        msgs.extend(r.step(usize::MAX));
    }
    let mut msg = msgs.into_iter().find(|m| m.to == 1).expect("some message toward resource 1");
    msg.counter.msg.fields[F_SUM] = evil_ciphertext(&keys);

    // Watch the victim through the event layer: the rejection must show
    // up as exactly one wellformedness event and exactly one verdict.
    let mem = MemoryRecorder::shared();
    rs[1].set_recorder(mem.clone());

    let from = msg.from;
    let replies = rs[1].on_receive(&msg);
    assert!(replies.is_empty(), "poisoned message must be dropped, not relayed");
    assert_eq!(rs[1].verdict(), Some(Verdict::MaliciousResource(from)));
    assert_eq!(mem.count_of(EventKind::WellformednessRejected), 1);
    assert_eq!(mem.count_of(EventKind::VerdictIssued), 1);
    assert!(
        mem.snapshot().contains(&Event::VerdictIssued {
            resource: 1,
            verdict: VerdictKind::Resource,
            culprit: from as u64,
        }),
        "verdict event names the hostile sender: {:?}",
        mem.snapshot()
    );

    // The halted resource stays inert but alive; refreshing outputs must
    // not touch the poisoned state (and must not panic) — and must not
    // double-report the verdict.
    rs[1].refresh_outputs();
    assert_eq!(rs[1].verdict(), Some(Verdict::MaliciousResource(from)));
    assert_eq!(mem.count_of(EventKind::WellformednessRejected), 1);
    assert_eq!(mem.count_of(EventKind::VerdictIssued), 1, "halted state must not re-emit");
}

/// A poisoned *tag* (rather than field) is caught by the same screen.
#[test]
fn non_unit_tag_from_peer_convicts_sender() {
    let (keys, mut rs) = paillier_grid(2);
    let mut msgs: Vec<WireMsg<PaillierCtx>> = Vec::new();
    for r in rs.iter_mut() {
        msgs.extend(r.step(usize::MAX));
    }
    let mut msg = msgs.into_iter().find(|m| m.to == 0).expect("some message toward resource 0");
    msg.counter.msg.tag = evil_ciphertext(&keys);
    rs[0].on_receive(&msg);
    assert_eq!(rs[0].verdict(), Some(Verdict::MaliciousResource(1)));
}

/// Defense in depth: if a malformed counter bypasses the resource screen
/// (here: fed to the broker directly), the blinded-delta algebra reports
/// a `CipherError` instead of panicking.
#[test]
fn blinded_delta_on_poisoned_aggregate_errors_instead_of_panicking() {
    let keys = GridKeys::paillier(128, 23);
    let layout = CounterLayout::new(0, vec![1]);
    let db = Database::from_transactions(vec![Transaction::of(0, &[1])]);
    let mut acc = Accountant::new(0, keys.enc.clone(), keys.tags.clone(), layout.clone(), db, 2);
    let mut broker = Broker::new(0, keys.pub_ops.clone(), layout.clone(), 0x5EED);
    let cand = CandidateRule::new(Rule::frequency(ItemSet::of(&[1])), Ratio::new(1, 2));
    acc.register_rule(0, &cand);
    acc.scan_all(0);
    let local = acc.respond(0).pop().unwrap();
    broker.init_rule(0, local, vec![acc.placeholder_for(1)]);

    // An evil counter injected straight into broker state (screen
    // bypassed). The count field is the subtrahend of the delta, so the
    // blinding algebra must invert it — the exact operation that is
    // undefined on a non-unit.
    let key = keys.tags.key(layout.arity());
    let mut evil = SecureCounter::seal_outgoing(&keys.enc, &key, &layout, 1, 3, 4, 1, 0, 1)
        .expect("1 is a neighbor of 0");
    evil.msg.fields[F_COUNT] = evil_ciphertext(&keys);
    assert!(!broker.counter_is_wellformed(&evil));
    broker.on_receive(0, 1, &evil);

    let full = broker.full_aggregate(0, None).expect("rule was initialized");
    assert!(
        broker.blinded_delta(&cand, &full).is_err(),
        "non-unit field must surface as a protocol error, not a panic"
    );
}

/// A hostile resource sends a counter sealed under a *different* overlay
/// layout (wrong arity). The door screen must reject it before the
/// aggregation algebra — whose field-count invariants would otherwise
/// fire an assertion — ever sees it.
#[test]
fn wrong_arity_counter_rejected_at_the_door() {
    let keys = GridKeys::paillier(128, 29);
    let layout = CounterLayout::new(0, vec![1]);
    let broker = Broker::new(0, keys.pub_ops.clone(), layout, 0x5EED);

    // Sealed for a 3-neighbor overlay: arity 7 instead of 6.
    let fat_layout = CounterLayout::new(0, vec![1, 2, 3]);
    let key = keys.tags.key(fat_layout.arity());
    let fat = SecureCounter::seal_outgoing(&keys.enc, &key, &fat_layout, 1, 3, 4, 1, 0, 1)
        .expect("1 is a neighbor of 0");
    assert!(
        !broker.counter_is_wellformed(&fat),
        "arity mismatch must fail the door screen, not reach the adder"
    );
}

// ---- the packed side-band, over both ciphers ------------------------

fn rule() -> CandidateRule {
    CandidateRule::new(Rule::frequency(ItemSet::of(&[1])), Ratio::new(1, 2))
}

/// Resource 0's controller with an honest `(full, recv_1)` pair (shares
/// summing to one) and the share 1 assigned to 0.
struct Scene<C: HomCipher> {
    keys: GridKeys<C>,
    layout: CounterLayout,
    receiver_layout: CounterLayout,
    full: SecureCounter<C>,
    recv: SecureCounter<C>,
    share: C::Ct,
}

impl<C: HomCipher> Scene<C> {
    fn new(keys: GridKeys<C>) -> Self {
        let layout = CounterLayout::new(0, vec![1]);
        let key = keys.tags.key(layout.arity());
        // 2³¹ − 1 − 76 + 77 ≡ 1 in the share field.
        let own_share = (1u32 << 31) - 1 - 76;
        let local = SecureCounter::seal_local(&keys.enc, &key, &layout, 4, 10, 1, own_share, 3);
        let recv = SecureCounter::seal_outgoing(&keys.enc, &key, &layout, 1, 6, 10, 1, 77, 5)
            .expect("1 is a neighbor of 0");
        let full = local.add(&keys.pub_ops, &recv);
        let share = keys.enc.encrypt_i64(123);
        Scene { receiver_layout: CounterLayout::new(1, vec![0]), keys, layout, full, recv, share }
    }

    /// A counter from neighbor 1 other than the one in `full`: what it
    /// reported `(sum, count, num)` at its time `ts`, validly sealed.
    fn from_1(&self, (sum, count, num): (i64, i64, i64), ts: i64) -> SecureCounter<C> {
        let key = self.keys.tags.key(self.layout.arity());
        SecureCounter::seal_outgoing(&self.keys.enc, &key, &self.layout, 1, sum, count, num, 77, ts)
            .expect("1 is a neighbor of 0")
    }

    fn controller(&self) -> Controller<C> {
        Controller::new(0, self.keys.dec.clone(), self.keys.tags.clone(), 1, self.layout.clone())
    }

    /// The send SFE toward neighbor 1 on `(full, recv)`.
    fn send(
        &self,
        full: &SecureCounter<C>,
        recv: &SecureCounter<C>,
    ) -> (SealedEdges<C>, Result<(), Verdict>) {
        let edge = SendEdge {
            v: 1,
            receiver_layout: &self.receiver_layout,
            recv_v: recv,
            share_for_me: &self.share,
        };
        self.controller().send_queries(0, &rule(), full, &[edge])
    }

    /// Both SFEs must convict the local broker for `forged` as `full`.
    fn assert_convicts_broker(&self, forged: &SecureCounter<C>, why: ObliviousError) {
        let key = self.keys.tags.key(self.layout.arity());
        assert_eq!(forged.open(&self.keys.dec, &key), Err(why));
        let blinded = self.keys.enc.encrypt_i64(7);
        assert_eq!(
            self.controller().output_query(0, &rule(), forged, &blinded),
            Err(Verdict::MaliciousBroker(0))
        );
        let (sealed, verdict) = self.send(forged, &self.recv);
        assert!(sealed.is_empty());
        assert_eq!(verdict, Err(Verdict::MaliciousBroker(0)));
    }
}

/// A ciphertext of `2^(44·slots)`: one bit above a side-band ciphertext
/// of that many slots. Key-free — any broker can mint it.
fn wider_than<C: HomCipher>(cipher: &C, slots: usize) -> C::Ct {
    (0..slots).fold(cipher.encrypt_i64(1), |c, _| cipher.scalar(1 << 44, &c))
}

fn hostile_side_bands_end_in_a_verdict<C: HomCipher>(keys: GridKeys<C>) {
    let s = Scene::new(keys);
    let cipher = &s.keys.pub_ops;
    // The honest pair passes: the scene itself is sound.
    let (sealed, verdict) = s.send(&s.full, &s.recv);
    assert_eq!((sealed.len(), verdict), (1, Ok(())));

    // Side-band replaced by an encryption of 2^total_bits.
    let slots = cipher.slots_per_ct().min(s.layout.arity() - F_NUM);
    let mut wide = s.full.clone();
    wide.msg.fields[F_NUM] = wider_than(cipher, slots);
    s.assert_convicts_broker(&wide, ObliviousError::SideBand(SlotError::OutOfLayout));

    // `recv_v − full`, ciphertext by ciphertext, tag included: the tag
    // relation holds, so only the unpacker stands between this forgery
    // and the audits. `num` (the top slot) goes negative and borrows out
    // of the layout.
    let mut borrowed = s.full.clone();
    borrowed.msg = s.recv.msg.sub(cipher, &s.full.msg);
    s.assert_convicts_broker(&borrowed, ObliviousError::SideBand(SlotError::OutOfLayout));
    // `full − 2·recv_v`: neighbor 1's timestamp goes negative. Alone in
    // its ciphertext that reads as out of the layout; packed, the slot
    // above it absorbs the borrow and the unpacked tuple no longer
    // matches the tag.
    borrowed.msg = s.full.msg.sub(cipher, &s.recv.msg.scalar(cipher, 2));
    let why = match cipher.slots_per_ct() {
        1 => ObliviousError::SideBand(SlotError::OutOfLayout),
        _ => ObliviousError::TagMismatch,
    };
    s.assert_convicts_broker(&borrowed, why);
    // The same forgery as `recv_v` of an otherwise honest wave.
    let (sealed, verdict) = s.send(&s.full, &borrowed);
    assert!(sealed.is_empty());
    assert_eq!(verdict, Err(Verdict::MaliciousBroker(0)));

    // One side-band ciphertext too few, one too many.
    let cts = s.full.msg.fields.len();
    let mut short = s.full.clone();
    short.msg.fields.pop();
    s.assert_convicts_broker(&short, ObliviousError::ArityMismatch { expected: cts, got: cts - 1 });
    let mut long = s.full.clone();
    long.msg.fields.push(cipher.encrypt_i64(0));
    s.assert_convicts_broker(&long, ObliviousError::ArityMismatch { expected: cts, got: cts + 1 });
}

fn recv_v_is_held_to_what_full_contains<C: HomCipher>(keys: GridKeys<C>) {
    let s = Scene::new(keys);
    // What neighbor 1 sent *before* the counter in `full`: every field at
    // or below `full`'s, so no comparison of the two tells it from the
    // latest. It is answered, and what is sealed is `full − old` — the
    // neighbor's newer votes sent back to it. The lie buys the broker a
    // wrong message out of its own resource, nothing about anyone else.
    let old = s.from_1((5, 8, 1), 2);
    let (sealed, verdict) = s.send(&s.full, &old);
    assert_eq!(verdict, Ok(()));
    let [(1, out)] = &sealed[..] else { panic!("one message toward 1, got {}", sealed.len()) };
    let key = s.keys.tags.key(s.receiver_layout.arity());
    let p = out.open(&s.keys.dec, &key).expect("the controller's own seal opens");
    assert_eq!((p.sum, p.count, p.num, p.share), (10 - 5, 20 - 8, 2 - 1, 123));

    // A counter `full` was not summed from: more resources than `full`
    // counts, or a later time than `full` saw from neighbor 1.
    for outside in [s.from_1((6, 10, 3), 5), s.from_1((6, 10, 1), 6)] {
        let (sealed, verdict) = s.send(&s.full, &outside);
        assert!(sealed.is_empty());
        assert_eq!(verdict, Err(Verdict::MaliciousBroker(0)));
    }
}

#[test]
fn recv_v_is_held_to_what_full_contains_under_both_ciphers() {
    recv_v_is_held_to_what_full_contains(GridKeys::<MockCipher>::mock(53));
    recv_v_is_held_to_what_full_contains(GridKeys::paillier(128, 53));
}

/// Resource 1's broker replays neighbor 0's first counter from the third
/// on. The stale counter is other bytes than the one the controller last
/// opened at that slot, so it is opened — and the aggregate summed from
/// it regresses neighbor 0's timestamp below the trace.
fn replayed_counter_is_blamed_on_its_slot_owner<C: HomCipher>(keys: GridKeys<C>) {
    let mut rs = path_grid(&keys, 2);
    rs[1].set_broker_behavior(BrokerBehavior::Replay(0));
    // Two transactions a step: resource 0's counters keep changing, and
    // with them what it sends.
    for _ in 0..4 {
        let mut queue: std::collections::VecDeque<WireMsg<C>> =
            rs.iter_mut().flat_map(|r| r.step(2)).collect();
        while let Some(msg) = queue.pop_front() {
            let to = msg.to;
            queue.extend(rs[to].on_receive(&msg));
        }
    }
    let verdicts: Vec<Verdict> = rs.iter().filter_map(|r| r.verdict()).collect();
    assert_eq!(verdicts, [Verdict::MaliciousResource(0)]);
    assert_eq!(rs[1].verdict(), Some(Verdict::MaliciousResource(0)), "raised where it was seen");
}

#[test]
fn replayed_counter_is_blamed_on_its_slot_owner_under_both_ciphers() {
    replayed_counter_is_blamed_on_its_slot_owner(GridKeys::<MockCipher>::mock(59));
    replayed_counter_is_blamed_on_its_slot_owner(GridKeys::paillier(128, 59));
}

#[test]
fn hostile_side_bands_end_in_a_verdict_under_both_ciphers() {
    hostile_side_bands_end_in_a_verdict(GridKeys::<MockCipher>::mock(41));
    // 128-bit keys: two slots a ciphertext, the four side-band values of
    // a degree-1 counter in two of them.
    hostile_side_bands_end_in_a_verdict(GridKeys::paillier(128, 41));
    // 512 bits: all four in one.
    hostile_side_bands_end_in_a_verdict(GridKeys::paillier(512, 41));
}

fn miscounted_wire_counter_convicts_its_sender<C: HomCipher>(keys: GridKeys<C>) {
    for grow in [false, true] {
        let mut rs = path_grid(&keys, 2);
        let mut msgs: Vec<WireMsg<C>> = Vec::new();
        for r in rs.iter_mut() {
            msgs.extend(r.step(usize::MAX));
        }
        let mut msg = msgs.into_iter().find(|m| m.to == 0).expect("some message toward 0");
        if grow {
            msg.counter.msg.fields.push(keys.pub_ops.encrypt_i64(0));
        } else {
            msg.counter.msg.fields.pop();
        }
        let mem = MemoryRecorder::shared();
        rs[0].set_recorder(mem.clone());
        assert!(rs[0].on_receive(&msg).is_empty());
        assert_eq!(rs[0].verdict(), Some(Verdict::MaliciousResource(1)));
        assert_eq!(mem.count_of(EventKind::WellformednessRejected), 1);
    }
}

#[test]
fn miscounted_side_band_is_rejected_at_the_door_under_both_ciphers() {
    miscounted_wire_counter_convicts_its_sender(GridKeys::<MockCipher>::mock(43));
    miscounted_wire_counter_convicts_its_sender(GridKeys::paillier(128, 43));
}

fn oversized_restored_clocks_are_rejected<C: HomCipher>(keys: GridKeys<C>) {
    // No support in eight transactions: a vote the neighbor has not
    // heard, so the send condition holds.
    let record = |clock: i64| RuleRecord {
        rule: rule(),
        frontier: 8,
        sum: 0,
        count: 8,
        clock,
        last_sum: 0,
        output: None,
    };
    let image = |clock: i64| {
        let state = ResourceState { resource: 1, records: vec![record(clock)] };
        RecoveryLog::baseline(&state).image().to_bytes()
    };
    // Every clock a timestamp slot seals restores. At the very last one
    // the accountant's clock saturates and its counters still seal and
    // audit, but no Lamport time above it fits a slot: the rule falls
    // silent toward the neighbor, and nobody is convicted for it.
    for (clock, speaks) in [(u32::MAX - 8, true), (u32::MAX, false)] {
        let mut rs = path_grid(&keys, 2);
        rs[1].crash_wipe();
        assert!(rs[1].restore_from_image(&image(i64::from(clock))));
        assert_eq!(!rs[1].nudge().is_empty(), speaks, "clock {clock}");
        assert!(rs[1].verdict().is_none());
    }
    // One past it — let alone 2⁴⁰ — is a forged image.
    for clock in [1i64 << 32, 1 << 40, i64::MAX, -3] {
        let mut rs = path_grid(&keys, 2);
        rs[1].crash_wipe();
        assert!(!rs[1].restore_from_image(&image(clock)), "clock {clock}");
        assert_eq!(rs[1].verdict(), Some(Verdict::MaliciousResource(1)));
        assert_eq!(rs[1].recovery_rejected(), 1);
    }
    // The controller's audit image is the other door a clock comes
    // through on a warm restart.
    let audit = |clock: i64| AuditImage {
        rule: rule(),
        clock,
        output_gate: KGate::new(1),
        send_gates: Vec::new(),
        last_sent: Vec::new(),
    };
    let mut rs = path_grid(&keys, 2);
    assert!(rs[1].import_controller_audits(vec![audit(0), audit(i64::from(u32::MAX))]));
    assert!(rs[1].verdict().is_none());
    assert!(!rs[1].import_controller_audits(vec![audit(7), audit(1 << 40)]));
    assert_eq!(rs[1].verdict(), Some(Verdict::MaliciousResource(1)));
    assert_eq!(rs[1].recovery_rejected(), 1);
}

#[test]
fn oversized_restored_clocks_are_rejected_under_both_ciphers() {
    oversized_restored_clocks_are_rejected(GridKeys::<MockCipher>::mock(47));
    oversized_restored_clocks_are_rejected(GridKeys::paillier(128, 47));
}
