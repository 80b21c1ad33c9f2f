//! The broker (Algorithm 1): runs Scalable-Majority over ciphertexts.
//!
//! The broker holds neither key. Everything it stores — its accountant's
//! latest local counter, the latest counter received from each neighbor,
//! the encrypted shares neighbors assigned to it — is opaque. Its only
//! operations are the key-free aggregate algebra and handing its
//! controller the inputs of the two SFE questions. [`BrokerBehavior`] hooks let a compromised
//! broker mis-aggregate in exactly the ways §5.2 analyzes.

// No panic and no unchecked index on hostile input (DESIGN.md § Static analysis).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::unimplemented, clippy::disallowed_macros))]
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use gridmine_arm::CandidateRule;
use gridmine_paillier::HomCipher;

use crate::attack::BrokerBehavior;
use crate::counter::{with_buffer, CounterLayout, SecureCounter};
use crate::rules::{PerRule, RuleId};

/// A wire message between brokers: one sealed counter for one rule. Plain
/// data: the rule's itemsets, the counter's ciphertexts and its layout
/// all in place (up to their inline bounds). It shares no handle with its
/// sender or its receiver, so it crosses threads by copy and dropping it
/// frees nothing.
#[derive(Clone, Debug)]
pub struct BrokerMsg<C: HomCipher> {
    /// Sending resource.
    pub from: usize,
    /// Receiving resource.
    pub to: usize,
    /// The voting instance.
    pub cand: CandidateRule,
    /// The sealed aggregate.
    pub counter: SecureCounter<C>,
}

/// What one rule's instance holds for one neighbor.
#[derive(Clone, Debug)]
struct Inbox<C: HomCipher> {
    /// Its latest counter (the placeholder until the first message).
    latest: SecureCounter<C>,
    /// The first real counter it ever sent (replay attack stash).
    first: Option<SecureCounter<C>>,
    /// Messages received from it (drives the selective-replay phase).
    count: u64,
}

/// Per-rule instance state.
#[derive(Clone, Debug)]
struct Instance<C: HomCipher> {
    /// `⟨sum, count, num⟩_enc^{⊥u}` — the accountant's latest counter.
    local: SecureCounter<C>,
    /// One inbox per neighbor, in the layout's slot order.
    recv: Vec<Inbox<C>>,
}

/// The broker of one resource.
#[derive(Clone)]
pub struct Broker<C: HomCipher> {
    id: usize,
    cipher: C,
    layout: CounterLayout,
    /// `share^{vu}` per neighbor v, in the layout's slot order — the
    /// encrypted share v's accountant assigned to this resource, included
    /// in messages sent *to* v.
    shares_from: Vec<Option<C::Ct>>,
    rules: PerRule<Instance<C>>,
    /// Injected deviation (Honest in normal operation).
    pub behavior: BrokerBehavior,
    /// Messages sent (protocol-cost accounting).
    pub msgs_sent: u64,
}

impl<C: HomCipher> Broker<C> {
    /// Builds a broker. `cipher` should be a key-free handle.
    pub fn new(id: usize, cipher: C, layout: CounterLayout) -> Self {
        Broker {
            id,
            cipher,
            shares_from: vec![None; layout.neighbors.len()],
            layout,
            rules: PerRule::default(),
            behavior: BrokerBehavior::Honest,
            msgs_sent: 0,
        }
    }

    /// Resource id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Own counter layout.
    pub fn layout(&self) -> &CounterLayout {
        &self.layout
    }

    /// Whether an instance exists for rule `id`.
    pub fn has_rule(&self, id: RuleId) -> bool {
        self.rules.get(id).is_some()
    }

    /// Stores the encrypted share a neighbor's accountant assigned to us.
    /// A share from a resource that is no neighbor has no slot to go to.
    pub fn store_share_from(&mut self, v: usize, share: C::Ct) {
        if let Some(slot) = self.layout.slot_of(v).and_then(|at| self.shares_from.get_mut(at)) {
            *slot = Some(share);
        }
    }

    /// Adopts a new layout after a membership change, dropping every rule
    /// instance (counters sealed under the old arity cannot be mixed with
    /// the new world; the resource re-initializes them from the
    /// accountant, which loses no data — supports are re-reported, not
    /// re-counted). The share of a neighbor that stays is kept until its
    /// accountant delivers the new epoch's.
    pub fn rewire(&mut self, layout: CounterLayout) {
        self.shares_from = self.layout.reslot(&layout, std::mem::take(&mut self.shares_from));
        self.layout = layout;
        self.rules.clear();
    }

    /// Key-free well-formedness screen for a wire-received counter: it
    /// must claim *this broker's* layout shape and carry exactly the
    /// ciphertexts that layout has under this cipher (a counter sealed
    /// under a foreign or stale overlay, or with a ciphertext too few or
    /// too many, would otherwise panic the shape assertions deep in the
    /// aggregation algebra), and every ciphertext must support the full
    /// homomorphic algebra. Lets the resource reject malformed counters
    /// at the door and blame the sender, instead of hitting an undefined
    /// `A−`/scalar mid-aggregate.
    pub fn counter_is_wellformed(&self, counter: &SecureCounter<C>) -> bool {
        let fields = &counter.msg.fields;
        let Some(first) = fields.first() else { return false };
        if counter.layout.arity() != self.layout.arity()
            || fields.len() != SecureCounter::field_cts(&self.cipher, &self.layout)
        {
            return false;
        }
        // Batched screen: the whole tuple goes through one
        // `all_wellformed` call, which Paillier folds into a single gcd.
        with_buffer(fields.len(), first, |cts| {
            for (ct, field) in cts.iter_mut().zip(fields) {
                *ct = field;
            }
            self.cipher.all_wellformed(cts)
        })
    }

    /// The stored share for messages toward `v`, or `None` while
    /// initialization has not yet delivered `v`'s share.
    pub fn share_for_sending_to(&self, v: usize) -> Option<&C::Ct> {
        self.shares_from.get(self.layout.slot_of(v)?)?.as_ref()
    }

    /// Creates the voting instance for rule `id` from the accountant's
    /// initial local counter and one placeholder per neighbor, in the
    /// layout's slot order.
    #[expect(clippy::disallowed_macros, reason = "debug builds assert a local wiring bug")]
    pub fn init_rule(
        &mut self,
        id: RuleId,
        local: SecureCounter<C>,
        placeholders: Vec<SecureCounter<C>>,
    ) {
        debug_assert_eq!(placeholders.len(), self.layout.neighbors.len());
        self.rules.get_or_insert_with(id, || Instance {
            local,
            recv: placeholders
                .into_iter()
                .map(|latest| Inbox { latest, first: None, count: 0 })
                .collect(),
        });
    }

    /// Restarts `v`'s inbox in every rule's instance from `placeholder`,
    /// as [`Broker::init_rule`] starts it: `v` rejoined, and its counters
    /// start over.
    pub(crate) fn restart_inbox(&mut self, v: usize, placeholder: &SecureCounter<C>) {
        let Some(at) = self.layout.slot_of(v) else { return };
        for inbox in self.rules.values_mut().filter_map(|inst| inst.recv.get_mut(at)) {
            *inbox = Inbox { latest: placeholder.clone(), first: None, count: 0 };
        }
    }

    /// Replaces the local counter (a new accountant response). A no-op
    /// when no instance exists for rule `id` (a local wiring bug:
    /// `init_rule` always precedes in both drivers — debug builds assert).
    #[expect(clippy::disallowed_macros, reason = "debug builds assert a local wiring bug")]
    pub fn set_local(&mut self, id: RuleId, counter: SecureCounter<C>) {
        let inst = self.rules.get_mut(id);
        debug_assert!(inst.is_some(), "no instance for rule {id} at broker {}", self.id);
        if let Some(inst) = inst {
            inst.local = counter;
        }
    }

    /// Handles a received counter from neighbor `v`. A `Replay(v)` broker
    /// lets the first two counters through (so the controller's trace
    /// advances), then reverts to the first one — the selective reuse of
    /// §5.2 that the timestamp vector exists to catch. Counters for
    /// unknown candidates, or from a resource with no slot, are dropped
    /// (the resource adopts the candidate, and screens the sender,
    /// *before* forwarding a counter here). The counter is copied into
    /// the buffers the neighbor's slot already has.
    #[expect(clippy::disallowed_macros, reason = "debug builds assert a local wiring bug")]
    pub fn on_receive(&mut self, id: RuleId, v: usize, counter: &SecureCounter<C>) {
        let slot = self.layout.slot_of(v);
        let inbox = self.rules.get_mut(id).and_then(|inst| inst.recv.get_mut(slot?));
        debug_assert!(inbox.is_some(), "no slot for {v} in rule {id} at broker {}", self.id);
        let Some(inbox) = inbox else { return };
        let first = inbox.first.get_or_insert_with(|| counter.clone());
        inbox.count += 1;
        match self.behavior {
            BrokerBehavior::Replay(victim) if victim == v && inbox.count > 2 => {
                inbox.latest.clone_from(first);
            }
            _ => inbox.latest.clone_from(counter),
        }
    }

    #[expect(clippy::disallowed_macros, reason = "debug builds assert a local wiring bug")]
    fn instance(&self, id: RuleId) -> Option<&Instance<C>> {
        let inst = self.rules.get(id);
        debug_assert!(inst.is_some(), "no instance for rule {id} at broker {}", self.id);
        inst
    }

    /// The full aggregate `Σ_{v ∈ N} …` — local counter plus every
    /// neighbor's latest, summed in slot order into one buffer: `spare`,
    /// a counter the caller is done with, if it hands one in — with
    /// behaviour deviations applied. `None` when no instance exists for
    /// rule `id`, or when a term was sealed under another layout than the
    /// local counter (the door screens keep such counters out; a sum of
    /// them would mean nothing).
    pub fn full_aggregate(
        &self,
        id: RuleId,
        spare: Option<SecureCounter<C>>,
    ) -> Option<SecureCounter<C>> {
        let inst = self.instance(id)?;
        let mut agg = spare.unwrap_or_else(|| inst.local.clone());
        agg.clone_from(&inst.local);
        for (&v, inbox) in self.layout.neighbors.iter().zip(&inst.recv) {
            if matches!(self.behavior, BrokerBehavior::OmitNeighbor(w) if w == v) {
                continue;
            }
            let twice = matches!(self.behavior, BrokerBehavior::DoubleCount(w) if w == v);
            for _ in 0..1 + usize::from(twice) {
                if !agg.add_assign(&self.cipher, &inbox.latest) {
                    return None;
                }
            }
        }
        if self.behavior == BrokerBehavior::ArbitraryValue {
            // Self-encrypted garbage: Paillier encryption is public-key, so
            // a broker *can* encrypt — it just cannot produce a valid tag.
            agg.msg.fields = (0..SecureCounter::field_cts(&self.cipher, &self.layout))
                .map(|i| self.cipher.encrypt_i64(1_000 + i as i64))
                .collect();
        }
        Some(agg)
    }

    /// The latest counter from `v` (placeholder if nothing arrived yet),
    /// exactly as stored: with [`Broker::full_aggregate`] it is the whole
    /// input of the send SFE toward `v` — what goes out is the difference
    /// of the two, taken by the controller. Its only reader holds the
    /// decryption key and links inputs by plaintext, so fresh noise here
    /// would hide nothing; handing over the same bytes until `v` sends
    /// again is what lets the controller open them once. `None` when the
    /// instance or the neighbor's slot is missing.
    pub fn recv_of(&self, id: RuleId, v: usize) -> Option<&SecureCounter<C>> {
        let inbox = self.instance(id)?.recv.get(self.layout.slot_of(v)?)?;
        Some(&inbox.latest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accountant::Accountant;
    use crate::keyring::GridKeys;
    use gridmine_arm::{Database, ItemSet, Ratio, Rule, Transaction};
    use gridmine_paillier::MockCipher;

    fn rule() -> CandidateRule {
        CandidateRule::new(Rule::frequency(ItemSet::of(&[1])), Ratio::new(1, 2))
    }

    struct Fix {
        keys: GridKeys<MockCipher>,
        broker: Broker<MockCipher>,
        acc: Accountant<MockCipher>,
    }

    fn fix() -> Fix {
        let keys = GridKeys::mock(2);
        let layout = CounterLayout::new(0, vec![1, 2]);
        let db = Database::from_transactions(vec![Transaction::of(0, &[1])]);
        let mut acc =
            Accountant::new(0, keys.enc.clone(), keys.tags.clone(), layout.clone(), db, 3);
        let mut broker = Broker::new(0, keys.pub_ops.clone(), layout);
        let r = rule();
        acc.register_rule(0, &r);
        acc.scan_all(0);
        let local = acc.respond(0).pop().unwrap();
        let placeholders = vec![acc.placeholder_for(1), acc.placeholder_for(2)];
        broker.init_rule(0, local, placeholders);
        Fix { keys, broker, acc }
    }

    fn incoming(f: &Fix, from: usize, sum: i64, count: i64, ts: i64) -> SecureCounter<MockCipher> {
        // A counter as some honest neighbor's controller would seal it:
        // receiver layout, receiver-assigned share.
        let layout = f.broker.layout().clone();
        let key = f.keys.tags.key(layout.arity());
        let share = f.acc.placeholder_for(from).open(&f.keys.dec, &key).unwrap().share;
        SecureCounter::seal_outgoing(&f.keys.enc, &key, &layout, from, sum, count, 1, share, ts)
            .unwrap()
    }

    fn open_full(f: &Fix) -> crate::plain::PlainCounter {
        let agg = f.broker.full_aggregate(0, None).unwrap();
        let key = f.keys.tags.key(agg.layout.arity());
        agg.open(&f.keys.dec, &key).unwrap()
    }

    #[test]
    fn honest_aggregate_has_share_one() {
        let mut f = fix();
        f.broker.on_receive(0, 1, &incoming(&f, 1, 5, 9, 1));
        let p = open_full(&f);
        assert_eq!((p.sum, p.count, p.num), (6, 10, 2));
        assert_eq!(p.share, 1, "all shares counted exactly once");
    }

    #[test]
    fn placeholders_keep_share_valid_before_any_message() {
        let f = fix();
        let p = open_full(&f);
        assert_eq!(p.share, 1);
        assert_eq!(p.num, 1, "only own data so far");
    }

    #[test]
    fn double_count_breaks_share() {
        let mut f = fix();
        f.broker.on_receive(0, 1, &incoming(&f, 1, 5, 9, 1));
        f.broker.behavior = BrokerBehavior::DoubleCount(1);
        let p = open_full(&f);
        assert_ne!(p.share, 1);
        assert_eq!(p.sum, 11, "victim counted twice");
    }

    #[test]
    fn omission_breaks_share() {
        let mut f = fix();
        f.broker.on_receive(0, 1, &incoming(&f, 1, 5, 9, 1));
        f.broker.behavior = BrokerBehavior::OmitNeighbor(2);
        let p = open_full(&f);
        assert_ne!(p.share, 1, "placeholder share of 2 missing");
    }

    #[test]
    fn arbitrary_value_breaks_tag() {
        let mut f = fix();
        f.broker.behavior = BrokerBehavior::ArbitraryValue;
        let agg = f.broker.full_aggregate(0, None).unwrap();
        let key = f.keys.tags.key(agg.layout.arity());
        assert!(agg.open(&f.keys.dec, &key).is_err());
    }

    #[test]
    fn replay_reverts_to_first_counter_after_two() {
        let mut f = fix();
        f.broker.behavior = BrokerBehavior::Replay(1);
        f.broker.on_receive(0, 1, &incoming(&f, 1, 5, 9, 1));
        // Second message still goes through (the trace-advancing phase).
        f.broker.on_receive(0, 1, &incoming(&f, 1, 50, 90, 2));
        assert_eq!(open_full(&f).sum, 51);
        // Third message triggers the revert to the stale counter.
        f.broker.on_receive(0, 1, &incoming(&f, 1, 70, 99, 3));
        let p = open_full(&f);
        assert_eq!(p.sum, 6, "stale counter back in use");
        assert_eq!(p.ts[1], 1, "stale timestamp for neighbor 1 — a regression vs the trace");
    }

    #[test]
    fn a_counter_under_another_layout_yields_no_aggregate() {
        let mut f = fix();
        let foreign = CounterLayout::new(0, vec![1, 3]);
        let key = f.keys.tags.key(foreign.arity());
        let stray =
            SecureCounter::seal_outgoing(&f.keys.enc, &key, &foreign, 1, 5, 9, 1, 0, 1).unwrap();
        f.broker.on_receive(0, 1, &stray);
        assert!(f.broker.full_aggregate(0, None).is_none(), "no sum across layouts, no panic");
        f.broker.on_receive(0, 1, &incoming(&f, 1, 5, 9, 1));
        assert_eq!(open_full(&f).sum, 6, "the inbox holds what arrived last");
    }

    #[test]
    fn recv_of_is_the_stored_counter_unchanged() {
        let mut f = fix();
        let c = incoming(&f, 1, 5, 9, 1);
        f.broker.on_receive(0, 1, &c);
        assert_eq!(f.broker.recv_of(0, 1), Some(&c), "no fresh noise, no copy");
        // Until 2 sends, its slot holds the placeholder it was wired with.
        let key = f.keys.tags.key(c.layout.arity());
        let placeholder = f.broker.recv_of(0, 2).unwrap().open(&f.keys.dec, &key).unwrap();
        assert_eq!((placeholder.sum, placeholder.count, placeholder.num), (0, 0, 0));
        assert_eq!(f.broker.recv_of(0, 9), None, "no slot for a stranger");
    }
}
