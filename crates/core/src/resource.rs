//! A full Secure-Majority-Rule participant (Algorithm 4): the
//! accountant/broker/controller triple plus anytime candidate management.
//!
//! The driving loop matches §6's simulation regime: the caller invokes
//! [`SecureResource::step`] once per simulation step (the accountant scans
//! its budget of transactions and the broker reacts to local-counter
//! changes), [`SecureResource::on_receive`] per delivered message, and
//! [`SecureResource::generate_candidates`] every few steps ("on every
//! fifth step communicated with its controller to create new candidate
//! rules").

use std::collections::{HashMap, HashSet};

use gridmine_arm::{CandidateRule, Database, Item, Rule, RuleSet};
use gridmine_majority::CandidateGenerator;
use gridmine_obs::{emit, Event, SharedRecorder};
use gridmine_paillier::HomCipher;
use gridmine_recovery::{
    JournalError, RecoveryImage, RecoveryLog, ResourceState, RetryPolicy, RuleRecord,
};
use gridmine_store::{MemBackend, Store};

use crate::accountant::Accountant;
use crate::attack::{BrokerBehavior, ControllerBehavior};
use crate::broker::{Broker, BrokerMsg};
use crate::chaos::DegradeReason;
use crate::controller::{AuditImage, Controller, SendEdge, Verdict};
use crate::counter::{CounterLayout, SecureCounter};
use crate::keyring::GridKeys;
use crate::rules::{PerRule, RuleId, RuleTable};

/// A protocol message in flight between two resources.
pub type WireMsg<C> = BrokerMsg<C>;

/// The image tree the controller's audits travel in, beside the recovery
/// log's: one [`AuditImage::to_entry`] per audited rule.
const AUDITS: &str = "audits";

/// One grid resource running Secure-Majority-Rule.
pub struct SecureResource<C: HomCipher> {
    id: usize,
    layout: CounterLayout,
    acc: Accountant<C>,
    broker: Broker<C>,
    ctl: Controller<C>,
    generator: CandidateGenerator,
    /// Counter layouts of neighbors (public topology metadata), in the own
    /// layout's slot order, needed to seal outgoing messages in the
    /// receiver's.
    neighbor_layouts: Vec<Option<CounterLayout>>,
    /// Every rule this resource has met, by the id its accountant, broker
    /// and controller file it under.
    rules: RuleTable,
    /// Per rule that arrived over the wire, the frequency rule over its
    /// union (itself, for a frequency rule): what a delivery implies must
    /// be a live candidate too (see [`SecureResource::adopt`]).
    implied: PerRule<RuleId>,
    /// Last `Output()` answer per live candidate (Algorithm 4's `R̃`
    /// source), walked in id order.
    output_cache: PerRule<bool>,
    /// The last aggregate a wave is done with: the buffer the next one is
    /// summed into.
    spare: Option<SecureCounter<C>>,
    /// Verdict that halted this resource, if any.
    halted: Option<Verdict>,
    /// Fault that degraded this resource out of the protocol, if any.
    degraded: Option<DegradeReason>,
    /// SFE retries spent against an unresponsive controller.
    retries_spent: u64,
    /// Retries tolerated before the resource gives up on its controller
    /// and degrades (bounded retry-with-timeout; the timeout itself is
    /// the driver's message-delivery granularity).
    retry_budget: u64,
    /// Controller deviation (validity experiments).
    pub controller_behavior: ControllerBehavior,
    /// Checkpoint + journal, when recovery is armed: every state delta
    /// is appended as it happens. A crash hands its image to the driver
    /// ([`SecureResource::crash_wipe`]).
    recovery: Option<RecoveryLog>,
    /// Attack injection: forge the journal so the next restore must be
    /// rejected (the recovery analogue of [`BrokerBehavior`]).
    tamper_journal: bool,
    /// True while [`SecureResource::nudge`] re-sends current aggregates
    /// (tags outgoing `CounterSent` events as resends).
    resending: bool,
    /// Anti-entropy / recovery re-sends this resource has mailed.
    resends_sent: u64,
    /// Checkpoints taken / journals replayed / restores rejected.
    checkpoints_taken: u64,
    journal_replays: u64,
    recoveries_rejected: u64,
    /// Whether the SFE retry budget ran dry (at most once; the resource
    /// degrades when it happens).
    retry_exhausted: bool,
    /// Observability sink (`NullRecorder` by default).
    rec: SharedRecorder,
}

/// Default SFE retry budget before a mute controller degrades its
/// resource: [`RetryPolicy::DEFAULT`]'s per-operation budget. Generous
/// enough that transient hiccups recover, small enough that a dead
/// controller stalls only its own resource briefly.
pub const DEFAULT_RETRY_BUDGET: u64 = RetryPolicy::DEFAULT.budget;

impl<C: HomCipher> SecureResource<C> {
    /// Builds a resource with its initial per-item candidates
    /// (Algorithm 4's `C ← {⟨∅ ⇒ {i}, MinFreq⟩ | i ∈ I}`).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: usize,
        keys: &GridKeys<C>,
        neighbors: Vec<usize>,
        db: Database,
        k: i64,
        generator: CandidateGenerator,
        items: &[Item],
        seed: u64,
    ) -> Self {
        let layout = CounterLayout::new(id, neighbors);
        let acc =
            Accountant::new(id, keys.enc.clone(), keys.tags.clone(), layout.clone(), db, seed);
        let broker = Broker::new(id, keys.pub_ops.clone(), layout.clone());
        let ctl = Controller::new(id, keys.dec.clone(), keys.tags.clone(), k, layout.clone());
        let mut r = SecureResource {
            id,
            neighbor_layouts: vec![None; layout.neighbors.len()],
            layout,
            acc,
            broker,
            ctl,
            generator,
            rules: RuleTable::default(),
            implied: PerRule::default(),
            output_cache: PerRule::default(),
            spare: None,
            halted: None,
            degraded: None,
            retries_spent: 0,
            retry_budget: DEFAULT_RETRY_BUDGET,
            controller_behavior: ControllerBehavior::Honest,
            recovery: None,
            tamper_journal: false,
            resending: false,
            resends_sent: 0,
            checkpoints_taken: 0,
            journal_replays: 0,
            recoveries_rejected: 0,
            retry_exhausted: false,
            rec: gridmine_obs::null(),
        };
        for cand in generator.initial(items) {
            r.ensure_candidate(&cand);
        }
        r
    }

    /// Attaches an observability recorder to this resource (and its
    /// controller): counters on the wire, SFE traffic, verdicts and
    /// degradations are reported through it from then on.
    pub fn set_recorder(&mut self, rec: SharedRecorder) {
        self.ctl.set_recorder(rec.clone());
        self.rec = rec;
    }

    /// Resource id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Own counter layout.
    pub fn layout(&self) -> &CounterLayout {
        &self.layout
    }

    /// The accountant (for database growth and metrics).
    pub fn accountant(&self) -> &Accountant<C> {
        &self.acc
    }

    /// Mutable accountant access.
    pub fn accountant_mut(&mut self) -> &mut Accountant<C> {
        &mut self.acc
    }

    /// Injects a broker deviation.
    pub fn set_broker_behavior(&mut self, b: BrokerBehavior) {
        self.broker.behavior = b;
    }

    /// Switches the controller's privacy-gate mode (call right after
    /// construction; see [`crate::sfe::GateMode`]).
    pub fn set_gate_mode(&mut self, mode: crate::sfe::GateMode) {
        self.ctl.set_gate_mode(mode);
    }

    /// Messages this resource's broker has sent.
    pub fn msgs_sent(&self) -> u64 {
        self.broker.msgs_sent
    }

    /// SFE queries this resource's controller has served.
    pub fn queries_served(&self) -> u64 {
        self.ctl.queries_served
    }

    /// Number of live candidate instances.
    pub fn candidate_count(&self) -> usize {
        self.output_cache.len()
    }

    /// The verdict that halted this resource, if any — either raised by
    /// the local controller or delivered by a grid broadcast.
    pub fn verdict(&self) -> Option<Verdict> {
        self.halted.or(self.ctl.verdict())
    }

    /// The fault that degraded this resource out of the protocol, if any.
    pub fn degraded(&self) -> Option<DegradeReason> {
        self.degraded
    }

    /// Marks this resource degraded (drivers record crashes and thread
    /// failures here). The first reason wins.
    pub fn mark_degraded(&mut self, reason: DegradeReason) {
        if self.degraded.is_none() {
            self.degraded = Some(reason);
            emit(&self.rec, || Event::ResourceDegraded {
                resource: self.id as u64,
                reason: format!("{reason:?}"),
            });
        }
    }

    /// Clears a degradation (crash recovery).
    pub fn clear_degraded(&mut self) {
        self.degraded = None;
        self.retries_spent = 0;
    }

    /// SFE retries this resource has spent against an unresponsive
    /// controller.
    pub fn retries_spent(&self) -> u64 {
        self.retries_spent
    }

    /// Overrides the SFE retry budget (see [`DEFAULT_RETRY_BUDGET`]).
    pub fn set_retry_budget(&mut self, budget: u64) {
        self.retry_budget = budget.max(1);
    }

    /// Adopts a [`RetryPolicy`]'s per-operation budget.
    pub fn set_retry_policy(&mut self, policy: &RetryPolicy) {
        self.set_retry_budget(policy.budget);
    }

    /// True while this resource participates in the protocol.
    fn is_live(&self) -> bool {
        self.halted.is_none() && self.degraded.is_none()
    }

    /// One bounded retry against a controller that refuses SFE service.
    /// Returns `true` while the budget lasts; once it runs out the
    /// resource degrades — stalling itself, not the grid.
    fn retry_controller(&mut self) -> bool {
        self.retries_spent += 1;
        emit(&self.rec, || Event::SfeRetry { resource: self.id as u64, spent: self.retries_spent });
        if self.retries_spent >= self.retry_budget {
            self.retry_exhausted = true;
            emit(&self.rec, || Event::RetryExhausted {
                resource: self.id as u64,
                spent: self.retries_spent,
            });
            self.mark_degraded(DegradeReason::MuteController);
            return false;
        }
        true
    }

    /// Grid-broadcast handler: a verdict was announced somewhere; this
    /// resource stops trusting / talking (Algorithm 3 halts execution).
    pub fn on_verdict_broadcast(&mut self, v: Verdict) {
        if self.halted.is_none() {
            self.halted = Some(v);
        }
    }

    /// Registers a neighbor's layout (grid wiring). A resource that is no
    /// neighbor has no slot for it to go to.
    pub fn set_neighbor_layout(&mut self, v: usize, layout: CounterLayout) {
        if let Some(slot) = self.layout.slot_of(v).and_then(|at| self.neighbor_layouts.get_mut(at))
        {
            *slot = Some(layout);
        }
    }

    /// Stores the encrypted share a neighbor's accountant assigned to this
    /// resource (grid wiring).
    pub fn store_share_from(&mut self, v: usize, share: C::Ct) {
        self.broker.store_share_from(v, share);
    }

    /// The encrypted share this resource's accountant assigned to neighbor
    /// `v` (grid wiring, outbound).
    pub fn share_for_neighbor(&self, v: usize) -> C::Ct {
        self.acc.encrypted_share_for(v)
    }

    /// Adopts a new neighbor set (dynamic membership, §1's "dynamically
    /// adjusts to … newly added resources").
    ///
    /// Following Algorithm 2's "on change in `N_t^u`", the accountant
    /// regenerates the accounting shares (`epoch` salts them), every
    /// voting instance is re-initialized from the accountant's current
    /// counters (no support data is lost), and the controller remaps its
    /// audit state — *keeping* the k-gates, so a membership change cannot
    /// be abused to re-disclose over a near-identical population.
    ///
    /// The caller must afterwards re-deliver shares and layouts between
    /// this resource and its (new) neighbors; `resource::wire_pair` does
    /// one edge.
    pub fn rewire(&mut self, neighbors: Vec<usize>, epoch: u64) {
        let layout = CounterLayout::new(self.id, neighbors);
        let known = std::mem::take(&mut self.neighbor_layouts);
        self.neighbor_layouts = self.layout.reslot(&layout, known);
        self.layout = layout.clone();
        self.acc.set_layout(layout.clone(), epoch);
        self.ctl.set_layout(layout.clone());
        self.broker.rewire(layout);
        for id in self.live_rules() {
            self.init_instance(id);
        }
    }

    /// The live candidates, in id order (the order they were first
    /// registered in).
    fn live_rules(&self) -> Vec<RuleId> {
        self.output_cache.iter().map(|(id, _)| id).collect()
    }

    /// Starts rule `id`'s voting instance at the broker from the
    /// accountant's current counter and a placeholder per neighbor.
    /// `false` when the accountant has no counter for it.
    fn init_instance(&mut self, id: RuleId) -> bool {
        // The accountant answers every registered rule; an empty response
        // is a local wiring bug, not wire input — skip the rule rather
        // than panic (debug builds assert).
        let local = self.acc.respond(id).pop();
        debug_assert!(local.is_some(), "accountant mute for rule {id}");
        let Some(local) = local else { return false };
        let placeholders =
            self.layout.neighbors.iter().map(|&v| self.acc.placeholder_for(v)).collect();
        self.broker.init_rule(id, local, placeholders);
        true
    }

    /// Lifts the duplicate-send suppressor toward `v` (see
    /// [`Controller::reset_edge`]); call on the neighbors of a resource
    /// that just rewired so they resend their current aggregates.
    pub fn reset_edge(&mut self, v: usize) {
        self.ctl.reset_edge(v);
    }

    /// Restarts the edge from `v`, whose successor rejoins now, at this
    /// end: a rejoin is a membership epoch at both ends of each of its
    /// edges. The broker's counter from `v` goes back to the placeholder
    /// and the controller's trace of `v`'s slot back to zero, for every
    /// rule, so neither re-feeds nor holds `v`'s timestamps from before
    /// the crash against its successor, whose clocks may be older.
    pub(crate) fn restart_edge(&mut self, v: usize) {
        if self.layout.slot_of(v).is_none() {
            return;
        }
        let placeholder = self.acc.placeholder_for(v);
        self.broker.restart_inbox(v, &placeholder);
        self.ctl.restart_trace(v);
    }

    /// Re-evaluates the send condition for every rule toward every
    /// neighbor (a poke after membership changes).
    pub fn nudge(&mut self) -> Vec<WireMsg<C>> {
        if !self.is_live() {
            return Vec::new();
        }
        let mut out = Vec::new();
        // Everything a nudge mails is a re-send of an already-published
        // aggregate (anti-entropy / recovery traffic), accounted apart
        // from first-time protocol messages.
        self.resending = true;
        for id in self.live_rules() {
            out.extend(self.on_change(id));
            if !self.is_live() {
                break;
            }
        }
        self.resending = false;
        out
    }

    /// Creates the voting instance for a candidate if absent. Returns the
    /// id the candidate is filed under.
    fn ensure_candidate(&mut self, cand: &CandidateRule) -> RuleId {
        let id = self.rules.intern(cand);
        if self.broker.has_rule(id) {
            return id;
        }
        self.acc.register_rule(id, cand);
        if self.init_instance(id) {
            self.output_cache.insert(id, false);
            if let Some(log) = &mut self.recovery {
                log.rule_registered(cand);
            }
        }
        id
    }

    /// Resolves the rule a delivered counter names — the one keyed lookup
    /// of the message path — adopting it, together with its implied
    /// union-frequency candidate, when either is not a live candidate
    /// here (Algorithm 4's receive handler).
    fn adopt(&mut self, cand: &CandidateRule) -> RuleId {
        let live = |id: RuleId| self.output_cache.get(id).is_some();
        if let Some(id) = self.rules.id_of(cand) {
            if live(id) && self.implied.get(id).is_some_and(|&union| live(union)) {
                return id;
            }
        }
        let mut ids = [0; 2];
        for (id, implied) in ids.iter_mut().zip(self.generator.from_received(cand)) {
            *id = self.ensure_candidate(&implied);
        }
        // `from_received` names the rule itself, then the frequency rule
        // over its union if that is another rule.
        let [id, union] = ids;
        self.implied.insert(id, if cand.rule.is_frequency() { id } else { union });
        id
    }

    /// Evaluates the send condition toward every neighbor for one rule
    /// (Algorithm 1's "for each v ∈ E: if MajorityCond(v), call
    /// Update(v)") — one SFE wave: the full aggregate is the same toward
    /// every neighbor, so it is built once, and each edge adds only the
    /// counter last received from its neighbor, by reference. The
    /// controller opens whichever of those it has not opened before —
    /// after a receive, the aggregate and the sender's counter — and
    /// takes the outgoing aggregate as the difference of the two.
    fn on_change(&mut self, id: RuleId) -> Vec<WireMsg<C>> {
        if !self.is_live() {
            return Vec::new();
        }
        // A mute controller never answers the send SFE: the broker
        // retries once per wired edge (the driver's delivery timeout
        // paces the attempts) until the budget runs out, then the
        // resource degrades.
        if self.controller_behavior == ControllerBehavior::Mute {
            for _ in 0..self.neighbor_layouts.iter().flatten().count() {
                if !self.retry_controller() {
                    break;
                }
            }
            return Vec::new();
        }
        let spare = self.spare.take();
        let (Some(cand), Some(full)) = (self.rules.rule(id), self.broker.full_aggregate(id, spare))
        else {
            return Vec::new();
        };
        // All SFE inputs exist once wiring completed (instance created in
        // `ensure_candidate`, layout and share delivered at init); an
        // incomplete edge (e.g. during joins) is skipped.
        let edges: Vec<SendEdge<'_, C>> = self
            .layout
            .neighbors
            .iter()
            .zip(&self.neighbor_layouts)
            .filter_map(|(&v, receiver_layout)| {
                Some(SendEdge {
                    v,
                    receiver_layout: receiver_layout.as_ref()?,
                    recv_v: self.broker.recv_of(id, v)?,
                    share_for_me: self.broker.share_for_sending_to(v)?,
                })
            })
            .collect();
        let (sealed, verdict) = self.ctl.send_queries(id, cand, &full, &edges);
        let mut out = Vec::with_capacity(sealed.len());
        for (v, counter) in sealed {
            self.broker.msgs_sent += 1;
            if self.resending {
                self.resends_sent += 1;
            }
            let resend = self.resending;
            emit(&self.rec, || Event::CounterSent {
                from: self.id as u64,
                to: v as u64,
                rule: cand.to_string(),
                bytes: counter.wire_bytes() as u64,
                resend,
            });
            out.push(BrokerMsg { from: self.id, to: v, cand: cand.clone(), counter });
        }
        if let Err(verdict) = verdict {
            self.halted = Some(verdict);
        }
        self.spare = Some(full);
        out
    }

    /// One simulation step: the accountant scans `scan_budget` transactions
    /// per candidate; changed counters flow to the broker (with the
    /// obfuscation sequence) and trigger send evaluations.
    pub fn step(&mut self, scan_budget: usize) -> Vec<WireMsg<C>> {
        if !self.is_live() {
            return Vec::new();
        }
        let mut out = Vec::new();
        for id in self.live_rules() {
            if self.acc.advance_scan(id, scan_budget) {
                for counter in self.acc.respond(id) {
                    self.broker.set_local(id, counter);
                    out.extend(self.on_change(id));
                }
                if let Some(log) = &mut self.recovery {
                    if let Some(r) = self.acc.scan_record(id) {
                        log.scan_advanced(&r);
                    }
                }
            }
            if !self.is_live() {
                break;
            }
        }
        out
    }

    /// Handles a delivered protocol message. Unknown candidates are
    /// adopted together with their implied union-frequency candidate
    /// (Algorithm 4's receive handler).
    pub fn on_receive(&mut self, msg: &WireMsg<C>) -> Vec<WireMsg<C>> {
        if !self.is_live() {
            return Vec::new();
        }
        // Stale-epoch guard: a message sealed before a membership change
        // carries the old layout (or comes from a departed neighbor) and
        // cannot be mixed into the new counter world. Dropping it is safe:
        // the rewire nudges force fresh sends under the new epoch.
        if msg.counter.layout != self.layout || self.layout.slot_of(msg.from).is_none() {
            return Vec::new();
        }
        // Malformed-ciphertext screen: every field of a wire counter must
        // support the full homomorphic algebra (a hostile peer can mail a
        // non-unit value mod n² that later makes A−/scalar undefined).
        // The check is key-free, so the sender is blamed at the door
        // instead of panicking mid-aggregate.
        if !self.broker.counter_is_wellformed(&msg.counter) {
            let verdict = Verdict::MaliciousResource(msg.from);
            self.halted = Some(verdict);
            emit(&self.rec, || Event::WellformednessRejected {
                at: self.id as u64,
                from: msg.from as u64,
            });
            emit(&self.rec, || verdict.to_event(self.id));
            return Vec::new();
        }
        emit(&self.rec, || Event::CounterReceived {
            at: self.id as u64,
            from: msg.from as u64,
            rule: msg.cand.to_string(),
        });
        let id = self.adopt(&msg.cand);
        self.broker.on_receive(id, msg.from, &msg.counter);
        self.on_change(id)
    }

    /// Refreshes every candidate's `Output()` answer through the
    /// controller SFE.
    pub fn refresh_outputs(&mut self) {
        if !self.is_live() {
            return;
        }
        for id in self.live_rules() {
            if self.controller_behavior == ControllerBehavior::Mute {
                continue;
            }
            let spare = self.spare.take();
            let (Some(cand), Some(full)) =
                (self.rules.rule(id), self.broker.full_aggregate(id, spare))
            else {
                continue;
            };
            match self.ctl.output_query(id, cand, &full) {
                Ok(answer) => {
                    let answer = if self.controller_behavior == ControllerBehavior::InvertOutputs {
                        !answer
                    } else {
                        answer
                    };
                    if let Some(log) = &mut self.recovery {
                        log.output_cached(cand, answer);
                    }
                    self.output_cache.insert(id, answer);
                }
                Err(verdict) => {
                    self.halted = Some(verdict);
                    return;
                }
            }
            self.spare = Some(full);
        }
    }

    /// The interim solution `R̃_u[DB_t]`: candidates whose `Output()` is
    /// true; confidence rules additionally require their union's frequency
    /// rule to hold ("correct rules between frequent itemsets").
    pub fn interim(&self) -> RuleSet {
        let holds = || {
            self.output_cache
                .iter()
                .filter(|&(_, &ok)| ok)
                .filter_map(|(id, _)| Some(&self.rules.rule(id)?.rule))
        };
        let frequent: HashSet<&Rule> = holds().filter(|rule| rule.is_frequency()).collect();
        holds()
            .filter(|r| r.is_frequency() || frequent.contains(&Rule::frequency(r.union())))
            .cloned()
            .collect()
    }

    /// The candidate-generation cycle of Algorithm 4: refresh outputs,
    /// expand the candidate set from the interim solution, start new
    /// voting instances.
    pub fn generate_candidates(&mut self) -> Vec<WireMsg<C>> {
        if !self.is_live() {
            return Vec::new();
        }
        self.refresh_outputs();
        let interim = self.interim();
        let existing: HashSet<CandidateRule> =
            self.output_cache.iter().filter_map(|(id, _)| self.rules.rule(id).cloned()).collect();
        let fresh = self.generator.expand(&interim, &existing);
        let mut out = Vec::new();
        for cand in fresh {
            let id = self.ensure_candidate(&cand);
            out.extend(self.on_change(id));
            if !self.is_live() {
                break;
            }
        }
        out
    }

    // ---- checkpoint / journal recovery -------------------------------

    /// Arms checkpoint recovery: takes a baseline snapshot of the current
    /// mining state and starts journalling every state delta. Until armed,
    /// the resource behaves exactly as before (cold-restart world).
    pub fn arm_recovery(&mut self) {
        self.recovery = Some(RecoveryLog::baseline(&self.current_state()));
    }

    /// True once [`SecureResource::arm_recovery`] has run.
    pub fn recovery_armed(&self) -> bool {
        self.recovery.is_some()
    }

    /// The volatile mining state a crash would lose: every candidate's
    /// scan position plus its cached `Output()` answer.
    fn current_state(&self) -> ResourceState {
        let records = self
            .acc
            .scan_snapshot()
            .into_iter()
            .map(|(id, r)| RuleRecord { output: self.output_cache.get(id).copied(), ..r })
            .collect();
        ResourceState { resource: self.id as u64, records }
    }

    /// Takes a checkpoint: collapses the journal into a fresh snapshot
    /// (bounding replay length). No-op until recovery is armed.
    pub fn take_checkpoint(&mut self, tick: u64) {
        if self.recovery.is_none() {
            return;
        }
        self.arm_recovery();
        self.checkpoints_taken += 1;
        emit(&self.rec, || Event::CheckpointTaken { resource: self.id as u64, tick });
    }

    /// Simulates the state loss of a crash — what a killed process loses:
    /// scan positions, voting instances, output caches and the
    /// controller's audit state are gone; the keyring, the database and
    /// the accounting shares (re-distributed only on membership changes)
    /// survive. Returns the image the crash leaves, bytes for the driver
    /// to hold until [`SecureResource::restore_from_image`]: the recovery
    /// log when armed (forged when
    /// [`SecureResource::corrupt_recovery_journal`] armed the attack) and
    /// the controller's audits, which are all a cold restart keeps. The
    /// resource stays armed.
    pub fn crash_wipe(&mut self) -> Vec<u8> {
        let mut image = self.image();
        if std::mem::take(&mut self.tamper_journal) && self.recovery.is_some() {
            // The adversary forges the "persisted" journal while the
            // resource is down; the restore screens must catch it.
            image.corrupt();
        }
        self.ctl.wipe_audits();
        self.acc.wipe_scans();
        self.broker.rewire(self.layout.clone());
        self.output_cache.clear();
        image.to_bytes()
    }

    /// Restores from a serialized [`RecoveryImage`] — what a crash handed
    /// its driver, or a file: verifies the digest chain, re-seats the
    /// controller's audits, then screens every record of the recovery log
    /// exactly like a wire message (bytes from disk are as untrusted as
    /// bytes off the wire), re-audits the accounting shares and replays
    /// the journal. An image without a log (a cold restart's) restores
    /// the audits alone, unless the resource is armed and expects one.
    /// On any failure, an undecodable image included, the
    /// resource blames itself with [`Verdict::MaliciousResource`] and
    /// stays out of the protocol — a forged image degrades one resource,
    /// it never panics the grid.
    ///
    /// Returns `true` on a successful restore.
    pub fn restore_from_image(&mut self, bytes: &[u8]) -> bool {
        match self.restore(bytes) {
            Ok(()) => true,
            Err(reason) => self.reject_recovery(reason),
        }
    }

    /// [`SecureResource::restore_from_image`] short of the verdict: why
    /// the image is refused, if it is.
    fn restore(&mut self, bytes: &[u8]) -> Result<(), String> {
        let image = RecoveryImage::from_bytes(bytes)
            .map_err(|e| format!("undecodable recovery image: {e}"))?;
        let store = image.verify().map_err(|e| e.to_string())?;
        // Audits before any replay: the controller screens what the
        // restored resource sends against its clocks and gates.
        let audits: Option<Vec<_>> = store
            .scan_tree(AUDITS)
            .map(|(key, value)| AuditImage::from_entry(key, value))
            .collect();
        let audits = audits.ok_or("malformed `audits` entry")?;
        if !self.ctl.import_audits(audits, |rule| self.rules.intern(rule)) {
            return Err("controller audit image carries an out-of-range clock".into());
        }
        match ResourceState::read(&store).map_err(|e| e.to_string())? {
            Some(state) => self.replay(state, &store)?,
            None if self.recovery.is_some() => return Err("image holds no recovery log".into()),
            None => {}
        }
        // A rejoin is a membership epoch: traces restart, as in `rewire`.
        self.ctl.set_layout(self.layout.clone());
        Ok(())
    }

    /// The journal half of [`SecureResource::restore`]: the screens,
    /// then the replay.
    fn replay(&mut self, state: ResourceState, store: &Store<MemBackend>) -> Result<(), String> {
        if state.resource != self.id as u64 {
            let owner = state.resource;
            return Err(format!("journal belongs to resource {owner}, not {}", self.id));
        }
        let db_len = self.acc.db_len() as u64;
        if let Some(bad) = state.records.iter().find(|r| !r.is_wellformed(db_len)) {
            return Err(format!("malformed restored record for {}", bad.rule));
        }
        if !self.acc.audit_shares() {
            return Err("accounting shares no longer sum to one".into());
        }
        // Screens passed: apply. Same wiring as `rewire`, but scan state
        // comes from the journal instead of starting at the epoch.
        for r in &state.records {
            let id = self.rules.intern(&r.rule);
            self.acc.restore_scan(id, r);
            // The journal is recovered input, not trusted state: a rule
            // the accountant cannot answer, or answers with a corrupt
            // counter, is a corrupt image, rejected like any other failed
            // screen — never a panic.
            let local = match self.acc.respond(id).pop() {
                Some(local) if self.broker.counter_is_wellformed(&local) => local,
                local => {
                    self.acc.wipe_scans();
                    self.output_cache.clear();
                    let what = if local.is_some() { "corrupt" } else { "missing" };
                    return Err(format!("restored counter for {} is {what}", r.rule));
                }
            };
            let placeholders =
                self.layout.neighbors.iter().map(|&v| self.acc.placeholder_for(v)).collect();
            self.broker.init_rule(id, local, placeholders);
            self.output_cache.insert(id, r.output.unwrap_or(false));
        }
        // Re-baseline on the restored state: the replayed journal has
        // done its job and replay length stays bounded.
        self.arm_recovery();
        self.journal_replays += 1;
        // The journal's deltas: the log's records, not the audits a crash
        // appended after them.
        let entries = store.wal_records().saturating_sub(store.tree_len(AUDITS) as u64);
        emit(&self.rec, || Event::JournalReplayed { resource: self.id as u64, entries });
        Ok(())
    }

    /// The store a crash right now would leave: a copy of the live
    /// recovery log (nothing re-read; none when unarmed) with the
    /// controller's audits appended as the `audits` tree, for a driver
    /// that publishes it with trees of its own. A log or store that
    /// refused a write is the error.
    pub fn recovery_store(&self) -> Result<Store<MemBackend>, JournalError> {
        let mut store = match &self.recovery {
            Some(log) => log.store()?.clone(),
            None => Store::in_memory()?,
        };
        for audit in self.ctl.export_audits() {
            let (key, value) = audit.to_entry();
            store.put(AUDITS, &key, &value)?;
        }
        Ok(store)
    }

    /// [`SecureResource::recovery_store`] at rest; a store that refused a
    /// write leaves the empty image, which no warm restore accepts.
    fn image(&self) -> RecoveryImage {
        self.recovery_store().map(RecoveryImage::from_store).unwrap_or_default()
    }

    /// The image a crash right now would leave, for external persistence.
    /// Always `Some`: every resource has audits to lose.
    pub fn encode_recovery_image(&self) -> Option<Vec<u8>> {
        Some(self.image().to_bytes())
    }

    /// The controller's audit state, the part of an image
    /// [`Controller::export_audits`] lists. See [`AuditImage`].
    pub fn export_controller_audits(&self) -> Vec<AuditImage> {
        self.ctl.export_audits()
    }

    /// Attack injection: forge the journal during the next crash so the
    /// restore screens must reject it.
    pub fn corrupt_recovery_journal(&mut self) {
        self.tamper_journal = true;
    }

    /// Common rejection path for untrusted recovery state — also a
    /// driver's, for persisted state it could not even hand over.
    /// Returns `false`.
    pub fn reject_recovery(&mut self, reason: String) -> bool {
        self.recoveries_rejected += 1;
        emit(&self.rec, || Event::RecoveryRejected {
            resource: self.id as u64,
            reason: reason.clone(),
        });
        let verdict = Verdict::MaliciousResource(self.id);
        self.halted = Some(verdict);
        emit(&self.rec, || verdict.to_event(self.id));
        false
    }

    /// Anti-entropy / recovery re-sends mailed (subset of `msgs_sent`).
    pub fn resends_sent(&self) -> u64 {
        self.resends_sent
    }

    /// Checkpoints taken since recovery was armed.
    pub fn recovery_checkpoints(&self) -> u64 {
        self.checkpoints_taken
    }

    /// Successful journal replays.
    pub fn recovery_replays(&self) -> u64 {
        self.journal_replays
    }

    /// Restores refused by the untrusted-input screens.
    pub fn recovery_rejected(&self) -> u64 {
        self.recoveries_rejected
    }

    /// True if the SFE retry budget ever ran dry.
    pub fn retry_exhausted(&self) -> bool {
        self.retry_exhausted
    }
}

/// Wires one edge: exchanges encrypted shares and layouts between two
/// adjacent resources (both directions). Use after a join or rewire.
pub fn wire_pair<C: HomCipher>(a: &mut SecureResource<C>, b: &mut SecureResource<C>) {
    let (a_id, b_id) = (a.id, b.id);
    a.set_neighbor_layout(b_id, b.layout.clone());
    b.set_neighbor_layout(a_id, a.layout.clone());
    b.store_share_from(a_id, a.share_for_neighbor(b_id));
    a.store_share_from(b_id, b.share_for_neighbor(a_id));
}

/// Wires a grid: exchanges encrypted shares and layouts between adjacent
/// resources. Call once after constructing all resources.
pub fn wire_grid<C: HomCipher>(resources: &mut [SecureResource<C>]) {
    // Outbound shares: u's accountant assigns share^{uv} to neighbor v.
    let mut deliveries: Vec<(usize, usize, C::Ct)> = Vec::new();
    let mut layouts: Vec<(usize, CounterLayout)> = Vec::new();
    for r in resources.iter() {
        layouts.push((r.id, r.layout.clone()));
        for &v in r.layout.neighbors.iter() {
            deliveries.push((r.id, v, r.share_for_neighbor(v)));
        }
    }
    let layout_map: HashMap<usize, CounterLayout> = layouts.into_iter().collect();
    for r in resources.iter_mut() {
        let nbrs = r.layout.neighbors.clone();
        for &v in nbrs.iter() {
            if let Some(l) = layout_map.get(&v) {
                r.set_neighbor_layout(v, l.clone());
            }
        }
    }
    let index: HashMap<usize, usize> =
        resources.iter().enumerate().map(|(i, r)| (r.id, i)).collect();
    for (from, to, share) in deliveries {
        if let Some(&i) = index.get(&to) {
            resources[i].store_share_from(from, share);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inproc::run_synchronous;
    use crate::miner::MiningOutcome;
    use gridmine_arm::{Ratio, Transaction};
    use gridmine_paillier::MockCipher;

    fn mk_db(rows: &[(u64, &[u32])]) -> Database {
        Database::from_transactions(
            rows.iter().map(|&(id, items)| Transaction::of(id, items)).collect(),
        )
    }

    fn items(n: u32) -> Vec<Item> {
        (1..=n).map(Item).collect()
    }

    /// The synchronous driver over a hand-built grid, fault-free.
    fn run_grid(resources: Vec<SecureResource<MockCipher>>, rounds: usize) -> MiningOutcome {
        let (plan, rec) = (gridmine_topology::FaultPlan::none(), gridmine_obs::null());
        run_synchronous(resources, rounds, plan, rec, gridmine_recovery::RecoveryMode::Disabled)
    }

    fn two_resource_grid(k: i64) -> Vec<SecureResource<MockCipher>> {
        let keys = GridKeys::mock(5);
        let generator = CandidateGenerator::new(Ratio::new(1, 2), Ratio::new(3, 4));
        let db0 = mk_db(&[(0, &[1, 2]), (1, &[1, 2]), (2, &[3])]);
        let db1 = mk_db(&[(3, &[1, 2]), (4, &[1])]);
        let mut rs = vec![
            SecureResource::new(0, &keys, vec![1], db0, k, generator, &items(3), 7),
            SecureResource::new(1, &keys, vec![0], db1, k, generator, &items(3), 8),
        ];
        wire_grid(&mut rs);
        rs
    }

    #[test]
    fn two_resources_converge_to_global_rules() {
        let outcome = run_grid(two_resource_grid(1), 6);
        // Global: {1}: 4/5, {2}: 3/5, {1,2}: 3/5 frequent at MinFreq 1/2;
        // conf(1⇒2) = 3/4, conf(2⇒1) = 1 at MinConf 3/4.
        let expect = ["∅ ⇒ {1}", "∅ ⇒ {1,2}", "∅ ⇒ {2}", "{1} ⇒ {2}", "{2} ⇒ {1}"];
        for (u, rules) in outcome.solutions.iter().enumerate() {
            let got: Vec<String> = rules.sorted().iter().map(|x| x.to_string()).collect();
            assert_eq!(got, expect, "resource {u} diverged");
        }
        assert!(outcome.verdicts.is_empty());
    }

    #[test]
    fn high_k_discloses_nothing_on_a_small_grid() {
        // k = 10 with 2 resources: the num gate can never pass, so the
        // interim solutions stay empty — the k-privacy floor in action.
        let outcome = run_grid(two_resource_grid(10), 4);
        for rules in &outcome.solutions {
            assert!(rules.is_empty(), "k larger than the grid must gate all outputs");
        }
    }

    #[test]
    fn double_count_attack_is_detected_and_blamed() {
        let mut rs = two_resource_grid(1);
        rs[0].set_broker_behavior(BrokerBehavior::DoubleCount(1));
        assert_eq!(run_grid(rs, 3).verdicts, [Verdict::MaliciousBroker(0)]);
    }

    #[test]
    fn arbitrary_value_attack_is_detected() {
        let mut rs = two_resource_grid(1);
        rs[1].set_broker_behavior(BrokerBehavior::ArbitraryValue);
        assert_eq!(run_grid(rs, 3).verdicts, [Verdict::MaliciousBroker(1)]);
    }

    #[test]
    fn omission_attack_is_detected() {
        let mut rs = two_resource_grid(1);
        rs[0].set_broker_behavior(BrokerBehavior::OmitNeighbor(1));
        assert_eq!(run_grid(rs, 3).verdicts, [Verdict::MaliciousBroker(0)]);
    }

    #[test]
    fn verdict_broadcast_halts_other_resources() {
        let mut rs = two_resource_grid(1);
        rs[1].on_verdict_broadcast(Verdict::MaliciousBroker(0));
        assert_eq!(rs[1].verdict(), Some(Verdict::MaliciousBroker(0)));
        assert!(rs[1].step(usize::MAX).is_empty(), "halted resources stay silent");
    }

    /// Two armed resources after three rounds of traffic, with a
    /// checkpoint after the first: the log holds a snapshot and deltas.
    fn armed_and_mined() -> Vec<SecureResource<MockCipher>> {
        mined(true)
    }

    /// Two resources after three rounds of traffic, armed (a checkpoint
    /// after the first) or, as under a cold restart, not.
    fn mined(armed: bool) -> Vec<SecureResource<MockCipher>> {
        let mut rs = two_resource_grid(1);
        if armed {
            rs.iter_mut().for_each(SecureResource::arm_recovery);
        }
        let mut mail = std::collections::VecDeque::new();
        for round in 0..3 {
            for r in rs.iter_mut() {
                mail.extend(r.step(usize::MAX));
                mail.extend(r.generate_candidates());
            }
            while let Some(m) = mail.pop_front() {
                let to = m.to;
                mail.extend(rs[to].on_receive(&m));
            }
            if round == 0 {
                rs.iter_mut().for_each(|r| r.take_checkpoint(0));
            }
        }
        rs
    }

    #[test]
    fn a_crash_hands_over_the_image_the_log_stood_at_and_it_restores() {
        let mut rs = armed_and_mined();
        let r = &mut rs[0];
        let (interim, candidates) = (r.interim(), r.candidate_count());
        assert!(!interim.is_empty(), "the resource mined something to lose");
        let before = r.encode_recovery_image().expect("armed");
        let image = r.crash_wipe();
        assert_eq!(image, before, "the crash hands over the log as it stood");
        assert_eq!(r.candidate_count(), 0, "the wipe lost the working set");
        assert!(r.recovery_armed(), "the resource stays armed");
        assert!(r.restore_from_image(&image));
        assert_eq!((r.interim(), r.candidate_count()), (interim, candidates));
        assert_eq!((r.recovery_replays(), r.verdict()), (1, None));
    }

    #[test]
    fn a_crash_and_its_restore_leave_every_gate_and_clock_where_they_were() {
        // Armed for checkpoints, and unarmed as under a cold restart,
        // whose image holds the audits alone.
        for armed in [true, false] {
            let mut rs = mined(armed);
            let r = &mut rs[0];
            let audits = r.export_controller_audits();
            let fresh = crate::sfe::KGate::new(1);
            let disclosed = |a: &AuditImage| {
                a.clock > 0 && a.output_gate != fresh && a.send_gates.iter().any(|g| g.1 != fresh)
            };
            assert!(audits.iter().any(disclosed), "armed {armed}: nothing disclosed yet");
            let image = r.crash_wipe();
            assert!(r.export_controller_audits().is_empty(), "armed {armed}: the crash lost them");
            assert!(r.restore_from_image(&image), "armed {armed}");
            assert_eq!(r.export_controller_audits(), audits, "armed {armed}");
            assert_eq!((r.recovery_replays(), r.verdict()), (u64::from(armed), None));
        }
    }

    #[test]
    fn a_crash_with_a_forged_journal_hands_over_an_image_the_restore_refuses() {
        let mut rs = armed_and_mined();
        let r = &mut rs[1];
        r.corrupt_recovery_journal();
        let before = r.encode_recovery_image().expect("armed");
        let forged = r.crash_wipe();
        assert_ne!(forged, before, "the adversary rewrote the image");
        assert!(!r.restore_from_image(&forged));
        assert_eq!(r.verdict(), Some(Verdict::MaliciousResource(1)));
        assert_eq!((r.recovery_replays(), r.recovery_rejected()), (0, 1));
    }
}
