//! The broker (Algorithm 1): runs Scalable-Majority over ciphertexts.
//!
//! The broker holds neither key. Everything it stores — its accountant's
//! latest local counter, the latest counter received from each neighbor,
//! the encrypted shares neighbors assigned to it — is opaque. Its only
//! operations are the key-free aggregate algebra and asking its controller
//! the two SFE questions. [`BrokerBehavior`] hooks let a compromised
//! broker mis-aggregate in exactly the ways §5.2 analyzes.

use std::sync::atomic::{AtomicU64, Ordering};

use gridmine_arm::CandidateRule;
use gridmine_paillier::{CipherError, HomCipher};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::attack::BrokerBehavior;
use crate::counter::{with_buffer, CounterLayout, SecureCounter};
use crate::rules::{PerRule, RuleId};

/// A wire message between brokers: one sealed counter for one rule.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
#[serde(bound(
    serialize = "C::Ct: serde::Serialize",
    deserialize = "C::Ct: serde::Deserialize<'de>"
))]
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
pub struct Broker<C: HomCipher> {
    id: usize,
    cipher: C,
    layout: CounterLayout,
    /// `share^{vu}` per neighbor v, in the layout's slot order — the
    /// encrypted share v's accountant assigned to this resource, included
    /// in messages sent *to* v.
    shares_from: Vec<Option<C::Ct>>,
    rules: PerRule<Instance<C>>,
    /// Seed for the blinding factors `ρ` drawn in [`Broker::blinded_delta`];
    /// derived from the driver seed so replays are byte-identical.
    rho_seed: u64,
    /// Blinding draws made so far (each draw uses a fresh stream).
    /// Atomic (not `Cell`) so a broker can be shared across the worker
    /// pool's threads; draws stay deterministic because each `&self`
    /// caller still owns its resource exclusively — the atomic only
    /// restores `Sync` for read-only fan-out over resources.
    rho_ctr: AtomicU64,
    /// Injected deviation (Honest in normal operation).
    pub behavior: BrokerBehavior,
    /// Messages sent (protocol-cost accounting).
    pub msgs_sent: u64,
}

impl<C: HomCipher> Clone for Broker<C> {
    // Manual because `AtomicU64` is not `Clone`; the clone carries the
    // same draw counter so replayed brokers stay byte-identical.
    fn clone(&self) -> Self {
        Broker {
            id: self.id,
            cipher: self.cipher.clone(),
            layout: self.layout.clone(),
            shares_from: self.shares_from.clone(),
            rules: self.rules.clone(),
            rho_seed: self.rho_seed,
            rho_ctr: AtomicU64::new(self.rho_ctr.load(Ordering::Relaxed)),
            behavior: self.behavior,
            msgs_sent: self.msgs_sent,
        }
    }
}

impl<C: HomCipher> Broker<C> {
    /// Builds a broker. `cipher` should be a key-free handle; `seed`
    /// drives the SFE blinding factors (deterministic per driver seed).
    pub fn new(id: usize, cipher: C, layout: CounterLayout, seed: u64) -> Self {
        Broker {
            id,
            cipher,
            shares_from: vec![None; layout.neighbors.len()],
            layout,
            rules: PerRule::default(),
            rho_seed: seed ^ (id as u64).wrapping_mul(0xA076_1D64_78BD_642F),
            rho_ctr: AtomicU64::new(0),
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
    /// under a foreign or stale overlay, or with a side-band ciphertext
    /// too few or too many, would otherwise panic the shape assertions
    /// deep in the aggregation algebra), and every ciphertext and the tag
    /// must support the full homomorphic algebra. Lets the resource
    /// reject malformed counters at the door and blame the sender,
    /// instead of hitting an undefined `A−`/scalar mid-aggregate.
    pub fn counter_is_wellformed(&self, counter: &SecureCounter<C>) -> bool {
        if counter.layout.arity() != self.layout.arity()
            || counter.msg.fields.len() != SecureCounter::field_cts(&self.cipher, &self.layout)
        {
            return false;
        }
        // Batched screen: the whole tuple (fields + tag) goes through one
        // `all_wellformed` call, which Paillier folds into a single gcd.
        let (fields, tag) = (&counter.msg.fields, &counter.msg.tag);
        with_buffer(fields.len() + 1, tag, |cts| {
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

    /// Replaces the local counter (a new accountant response). A no-op
    /// when no instance exists for rule `id` (a local wiring bug:
    /// `init_rule` always precedes in both drivers — debug builds assert).
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

    fn instance(&self, id: RuleId) -> Option<&Instance<C>> {
        let inst = self.rules.get(id);
        debug_assert!(inst.is_some(), "no instance for rule {id} at broker {}", self.id);
        inst
    }

    /// The full aggregate `Σ_{v ∈ N} …` — local counter plus every
    /// neighbor's latest, summed in slot order into one buffer: `spare`,
    /// a counter the caller is done with, if it hands one in — with
    /// behaviour deviations applied. `None` when no instance exists for
    /// rule `id`.
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
            agg.add_assign(&self.cipher, &inbox.latest);
            if matches!(self.behavior, BrokerBehavior::DoubleCount(w) if w == v) {
                agg.add_assign(&self.cipher, &inbox.latest);
            }
        }
        if self.behavior == BrokerBehavior::ArbitraryValue {
            // Self-encrypted garbage: Paillier encryption is public-key, so
            // a broker *can* encrypt — it just cannot produce a valid tag.
            let garbage: Vec<C::Ct> = (0..SecureCounter::field_cts(&self.cipher, &self.layout))
                .map(|i| self.cipher.encrypt_i64(1_000 + i as i64))
                .collect();
            agg.msg.fields = garbage;
        }
        Some(agg)
    }

    /// The multiplicatively blinded majority counter
    /// `E(ρ · (λ_d·Σsum − λ_n·Σcount))` for a random `ρ ∈ [1, 2¹⁶)` —
    /// the broker-side half of the sign SFE. Blinding hides |Δ| from the
    /// controller: the sign survives (`ρ > 0`), the magnitude does not.
    /// A malicious broker blinding a *different* value can only flip its
    /// own decisions (validity, not privacy — it holds no keys).
    ///
    /// Fallible: the aggregate mixes wire-received ciphertexts, and a
    /// hostile peer can mail a non-unit value (e.g. a multiple of a prime
    /// factor of `n`) on which `A−`/scalar are undefined. That surfaces
    /// here as a [`CipherError`], never a panic. The caller supplies the
    /// aggregate (usually its own [`Broker::full_aggregate`] result, which
    /// it needs for the accompanying SFE anyway).
    pub fn blinded_delta(
        &self,
        cand: &CandidateRule,
        agg: &SecureCounter<C>,
    ) -> Result<C::Ct, CipherError> {
        let mut fields = agg.msg.fields.iter();
        let (Some(sum), Some(count)) = (fields.next(), fields.next()) else {
            // Fewer than two fields: nothing the delta algebra is defined
            // on — the same verdict path as an undefined scalar.
            return Err(CipherError::NotAUnit);
        };
        let lambda = cand.lambda;
        let delta = self.cipher.try_sub(
            &self.cipher.try_scalar(lambda.den() as i64, sum)?,
            &self.cipher.try_scalar(lambda.num() as i64, count)?,
        )?;
        let draw = self.rho_ctr.fetch_add(1, Ordering::Relaxed);
        let mut rng = SmallRng::seed_from_u64(self.rho_seed ^ draw.wrapping_mul(0x9E37_79B9));
        let rho = rng.gen_range(1i64..1 << 16);
        self.cipher.try_scalar(rho, &delta)
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
        let mut broker = Broker::new(0, keys.pub_ops.clone(), layout, 0x5EED);
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
