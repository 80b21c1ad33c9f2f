//! The grid simulation: one set of pass bodies, two schedules.
//!
//! One step = one unit of simulated time. Within a step: arriving
//! messages are delivered, each resource's database grows, each resource
//! scans its budget and reacts, and — every `candidate_every` steps —
//! runs the candidate-generation cycle. Cross-resource interaction
//! happens only through the message queue, so per-phase parallelism is
//! race-free.
//!
//! Each kind of work is a [`Pass`] with exactly one body here; a pass
//! visits the resources its tracking set names (`growing`, `scan_armed`,
//! `dirty`) and recurs on one cadence ([`Simulation::cadence`]). Two
//! schedules decide *when* a pass fires and *whom* it visits:
//!
//! * [`Simulation::run_event_driven`] — the product scheduler, and what
//!   every session, suite, example and bench runs. Passes are events on
//!   a hierarchical [`TimerWheel`]; timestamps with no pending pass are
//!   skipped outright, so idle resources cost nothing and a 10⁵-node
//!   grid advances at the cost of its *active* frontier. The tracking
//!   sets are maintained by the passes themselves.
//! * [`Simulation::step`] / [`Simulation::run`] — the dense schedule,
//!   kept as the differential oracle: every resource armed, every pass
//!   whose cadence divides `t` fired, the end-of-timestamp sweep over
//!   everyone. It shares the pass bodies and nothing else, so the
//!   wheel-vs-tick suite pins exactly what the wheel adds — the
//!   selection of resources, the re-arming and idle skipping, and the
//!   same-timestamp agenda — to identical solutions, verdicts and
//!   [`ChaosReport`]s under the same seed. What a pass body does to one
//!   resource is held against the centralized truth instead.
//!
//! Determinism-under-seed holds under both schedules: passes fire in a
//! fixed order per timestamp, same-time wheel events pop in schedule
//! order, per-batch message sorts are unchanged, and every RNG draw is
//! sequenced at schedule time — so the per-directed-edge message
//! sequences (which the fault layer keys on) are byte-identical.

use std::collections::{BTreeMap, BTreeSet};

use gridmine_arm::{Database, Item, Ratio, RuleSet};
use gridmine_core::proxy::mirror_delivery;
use gridmine_core::resource::{wire_grid, wire_pair};
use gridmine_core::{
    BrokerBehavior, ChaosReport, DegradeReason, GridKeys, RecoveryMode, ResourceStatus,
    SecureResource, Verdict, WireMsg,
};
use gridmine_majority::CandidateGenerator;
use gridmine_obs::{emit, Event, SharedRecorder};
use gridmine_paillier::HomCipher;
use gridmine_topology::faults::{Delivery, FaultPlan, FaultyLink, ResourceFault};
use gridmine_topology::Overlay;
use rayon::prelude::*;

use crate::config::SimConfig;
use crate::wheel::TimerWheel;
use crate::workload::GrowthPlan;

/// One kind of work in a simulation timestamp. The declaration order is
/// the within-timestamp firing order under both schedules: faults,
/// delivery, growth, scans, anti-entropy, rejoin healing, checkpoints,
/// candidate generation, and a no-op liveness wake (deferred degradation
/// checks run in the timestamp finalizer).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Pass {
    Faults,
    Deliver,
    Growth,
    Scan,
    AntiEntropy,
    Healing,
    Checkpoint,
    Candidates,
    Wake,
}

impl Pass {
    /// Every pass, in firing order.
    const ALL: [Pass; 9] = [
        Pass::Faults,
        Pass::Deliver,
        Pass::Growth,
        Pass::Scan,
        Pass::AntiEntropy,
        Pass::Healing,
        Pass::Checkpoint,
        Pass::Candidates,
        Pass::Wake,
    ];
}

/// Runs `f` on the selected `items` and returns `(id, result)` in
/// ascending id order; `ids` must be ascending and in range. The whole
/// grid is walked in parallel when the selection covers at least a
/// quarter of it, and the sparse selection sequentially otherwise — the
/// same output either way, because `f` sees one item and nothing shared.
fn visit<R: Send, T: Send>(
    items: &mut [R],
    ids: &[usize],
    f: impl Fn(usize, &mut R) -> T + Sync,
) -> Vec<(usize, T)> {
    if ids.len() * 4 >= items.len() {
        let per: Vec<Option<T>> = items
            .par_iter_mut()
            .enumerate()
            .map(|(u, r)| ids.binary_search(&u).is_ok().then(|| f(u, r)))
            .collect();
        per.into_iter().enumerate().filter_map(|(u, slot)| Some((u, slot?))).collect()
    } else {
        ids.iter().map(|&u| (u, f(u, &mut items[u]))).collect()
    }
}

/// The event-driven scheduler state. `None` while the simulation is (or
/// was last) driven by the dense schedule; armed lazily by
/// [`Simulation::run_event_driven`] and invalidated by any mutation the
/// bookkeeping cannot track (manual ticks, membership changes, fault or
/// recovery re-arming).
struct SchedState {
    timer: TimerWheel<Pass>,
    /// Future `(time, pass)` pairs already in the wheel, for dedup.
    scheduled: BTreeSet<(u64, Pass)>,
    /// Passes still to fire at the timestamp being processed.
    agenda: BTreeSet<Pass>,
    /// True while inside `process_timestamp` (same-time ensure calls go
    /// to the agenda instead of the wheel).
    processing: bool,
    /// The pass currently firing; later-ranked passes may still be added
    /// to the current timestamp, earlier ones must wait for the next.
    phase: Pass,
}

/// A running simulation.
pub struct Simulation<C: HomCipher> {
    cfg: SimConfig,
    overlay: Overlay,
    keys: GridKeys<C>,
    items: Vec<Item>,
    resources: Vec<SecureResource<C>>,
    plans: Vec<GrowthPlan>,
    /// Scheduled deliveries: arrival time → receiver → messages, both in
    /// ascending order, message vectors in schedule order.
    inflight: BTreeMap<u64, BTreeMap<usize, Vec<WireMsg<C>>>>,
    departed: Vec<bool>,
    /// Fault injection, when armed via [`Simulation::inject_faults`].
    link: Option<FaultyLink>,
    /// Last scheduled arrival per directed edge — under jitter the links
    /// stay FIFO streams (a later message never overtakes a delayed one;
    /// overtaking would read as a timestamp regression, i.e. a replay).
    edge_clock: BTreeMap<(usize, usize), u64>,
    /// Where a crashed resource should re-attach on recovery (the hub its
    /// neighborhood was bridged through when it was routed around).
    crash_parent: Vec<Option<usize>>,
    /// Crash-recovery semantics (see [`Simulation::set_recovery`]).
    mode: RecoveryMode,
    /// Resources rebuilding state after a rejoin: they (and their
    /// neighbors) get periodic resend passes until caught up.
    healing: Vec<bool>,
    /// Structured-event sink ([`gridmine_obs::null`] unless armed).
    rec: SharedRecorder,
    step_no: u64,
    /// Event-driven scheduler, armed while `run_event_driven` drives the
    /// sim. The tracking sets below name whom the next passes visit:
    /// `arm_wheel` rebuilds them from first principles and the passes
    /// maintain them from then on; the dense schedule overwrites them
    /// with everyone before each step.
    sched: Option<SchedState>,
    /// Resources that may still have scan backlog (superset).
    scan_armed: BTreeSet<usize>,
    /// Resources whose protocol state changed since their last candidate
    /// pass — the only ones a restricted candidate pass must visit.
    dirty: BTreeSet<usize>,
    /// Resources under external mutation (corrupted brokers): re-examined
    /// by every candidate pass, as the dense schedule does for everyone.
    always_dirty: BTreeSet<usize>,
    /// Resources touched at the timestamp being processed (feeds the
    /// finalizer's liveness + verdict sweep).
    touched_now: BTreeSet<usize>,
    /// Resources touched during finalizer repairs, re-examined at the
    /// next timestamp (the dense schedule re-examines everyone every
    /// step).
    deferred_live: BTreeSet<usize>,
    /// Resources whose growth stream still has transactions.
    growing: BTreeSet<usize>,
    /// Total protocol messages put on the wire.
    pub total_msgs: u64,
    /// Total protocol bytes put on the wire (per the cipher's bandwidth
    /// model).
    pub total_bytes: u64,
    /// Verdicts raised so far, with the step they surfaced at.
    pub verdicts: Vec<(u64, Verdict)>,
    /// Broadcast verdicts to all resources as they surface (attack runs).
    pub broadcast_verdicts: bool,
}

impl<C: HomCipher> Simulation<C>
where
    C::Ct: Send + Sync,
{
    /// Builds a grid: BA topology, spanning tree, one resource per node.
    pub fn new(
        cfg: SimConfig,
        keys: &GridKeys<C>,
        mut plans: Vec<GrowthPlan>,
        items: &[Item],
    ) -> Self {
        cfg.validate();
        assert_eq!(plans.len(), cfg.n_resources, "one growth plan per resource");
        let overlay = if cfg.n_resources == 1 {
            Overlay::from_tree(gridmine_topology::Tree::singleton(), cfg.delay, cfg.seed)
        } else {
            Overlay::barabasi(
                cfg.n_resources,
                cfg.ba_m.min(cfg.n_resources - 1),
                cfg.delay,
                cfg.seed,
            )
        };
        let generator = CandidateGenerator::new(cfg.min_freq, cfg.min_conf);
        let mut resources: Vec<SecureResource<C>> = (0..cfg.n_resources)
            .map(|u| {
                let neighbors: Vec<usize> = overlay.neighbors(u).collect();
                let db = std::mem::take(&mut plans[u].initial);
                let mut r = SecureResource::new(
                    u,
                    keys,
                    neighbors,
                    db,
                    cfg.k,
                    generator,
                    items,
                    cfg.seed ^ (u as u64).wrapping_mul(0x9E37_79B9),
                );
                r.accountant_mut().obfuscate = cfg.obfuscate;
                if cfg.relaxed_gate {
                    r.set_gate_mode(gridmine_core::GateMode::TransactionsOnly);
                }
                r
            })
            .collect();
        wire_grid(&mut resources);
        Simulation {
            cfg,
            overlay,
            keys: keys.clone(),
            items: items.to_vec(),
            resources,
            plans,
            inflight: BTreeMap::new(),
            departed: vec![false; cfg.n_resources],
            link: None,
            edge_clock: BTreeMap::new(),
            crash_parent: vec![None; cfg.n_resources],
            mode: RecoveryMode::Disabled,
            healing: vec![false; cfg.n_resources],
            rec: gridmine_obs::null(),
            step_no: 0,
            sched: None,
            scan_armed: BTreeSet::new(),
            dirty: BTreeSet::new(),
            always_dirty: BTreeSet::new(),
            touched_now: BTreeSet::new(),
            deferred_live: BTreeSet::new(),
            growing: BTreeSet::new(),
            total_msgs: 0,
            total_bytes: 0,
            verdicts: Vec::new(),
            broadcast_verdicts: false,
        }
    }

    /// Current step number.
    pub fn step_no(&self) -> u64 {
        self.step_no
    }

    /// Number of resources currently in the grid (grows with joins,
    /// shrinks with departures). Slot ids are never reused, so this is a
    /// count, not an upper bound on ids.
    pub fn current_size(&self) -> usize {
        self.departed.iter().filter(|&&d| !d).count()
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The overlay topology.
    pub fn overlay(&self) -> &Overlay {
        &self.overlay
    }

    /// Access to a resource (metrics, attack injection).
    pub fn resource(&self, u: usize) -> &SecureResource<C> {
        &self.resources[u]
    }

    /// Mutable access to a resource. External surgery the scheduler's
    /// bookkeeping cannot see — the event-driven state is invalidated and
    /// rebuilt from scratch on the next `run_event_driven`.
    pub fn resource_mut(&mut self, u: usize) -> &mut SecureResource<C> {
        self.sched = None;
        &mut self.resources[u]
    }

    /// Makes one broker malicious. The resource joins the always-dirty
    /// set: every candidate pass re-examines it (as the dense schedule
    /// re-examines everyone), so detections that surface without any
    /// message or candidate signal are never missed.
    pub fn corrupt_broker(&mut self, u: usize, behavior: BrokerBehavior) {
        self.resources[u].set_broker_behavior(behavior);
        self.always_dirty.insert(u);
        self.note_effect(u);
    }

    /// Attaches a structured-event recorder: every resource (present and
    /// future joiners) reports protocol events to it, and the engine adds
    /// round/fault/quarantine markers. Attach before the first
    /// [`Simulation::run_event_driven`] for a complete log.
    pub fn set_recorder(&mut self, rec: SharedRecorder) {
        for r in self.resources.iter_mut() {
            r.set_recorder(rec.clone());
        }
        self.rec = rec;
    }

    /// Arms deterministic fault injection: every subsequent send goes
    /// through the plan's drop/duplication/jitter decisions and the
    /// crash/recover/depart schedules fire at their ticks (plan ticks =
    /// simulation steps). Same plan + same config ⇒ byte-identical
    /// [`Simulation::chaos_report`].
    pub fn inject_faults(&mut self, plan: FaultPlan) {
        self.link = Some(FaultyLink::new(plan));
        self.sched = None;
    }

    /// The armed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.link.as_ref().map(|l| l.plan())
    }

    /// Selects the crash-recovery semantics (default:
    /// [`RecoveryMode::Disabled`], the legacy keep-state behavior).
    /// With [`RecoveryMode::Checkpoint`] every resource (present and
    /// future joiners) is armed with an in-memory checkpoint + journal
    /// and adopts the policy's retry budget. Call before the first
    /// [`Simulation::run_event_driven`].
    pub fn set_recovery(&mut self, mode: RecoveryMode) {
        self.mode = mode;
        self.sched = None;
        if let Some(policy) = mode.policy() {
            for r in self.resources.iter_mut() {
                r.arm_recovery();
                r.set_retry_policy(&policy.retry);
            }
        }
    }

    /// The crash-recovery mode in force.
    pub fn recovery_mode(&self) -> RecoveryMode {
        self.mode
    }

    /// A new resource joins the grid under `parent` (dynamic membership).
    ///
    /// The parent rewires (regenerated shares, remapped audit state —
    /// k-gates preserved), both ends of every affected edge re-exchange
    /// shares and layouts, the parent's other neighbors lift their
    /// duplicate-send suppressors toward it, and everyone affected is
    /// nudged so current aggregates flow into the new world. Returns the
    /// new resource's id.
    pub fn join_resource(&mut self, parent: usize, plan: GrowthPlan) -> usize {
        assert!(parent < self.resources.len(), "parent must exist");
        self.sched = None;
        let mut plan = plan;
        let id = self.overlay.join(parent);
        let generator = CandidateGenerator::new(self.cfg.min_freq, self.cfg.min_conf);
        let db = std::mem::take(&mut plan.initial);
        let mut newcomer = SecureResource::new(
            id,
            &self.keys,
            vec![parent],
            db,
            self.cfg.k,
            generator,
            &self.items,
            self.cfg.seed ^ (id as u64).wrapping_mul(0x9E37_79B9) ^ 0xBEEF,
        );
        newcomer.set_recorder(self.rec.clone());
        self.resources.push(newcomer);
        self.plans.push(plan);
        self.departed.push(false);
        self.crash_parent.push(None);
        self.healing.push(false);
        if self.cfg.relaxed_gate {
            self.resources[id].set_gate_mode(gridmine_core::GateMode::TransactionsOnly);
        }
        self.resources[id].accountant_mut().obfuscate = self.cfg.obfuscate;
        if let Some(policy) = self.mode.policy() {
            self.resources[id].arm_recovery();
            self.resources[id].set_retry_policy(&policy.retry);
        }

        // Parent adopts its grown neighbor set; the whole neighborhood is
        // re-wired and nudged.
        self.rewire_around(parent);
        id
    }

    /// A *leaf* resource departs the grid. Its former neighbor rewires
    /// into a new share epoch, rebuilding its aggregates *without* the
    /// departed subtree — so fresh statistics no longer count the departed
    /// data. Because the k-gates are monotone in the accumulated counts,
    /// already-disclosed answers persist until new data outgrows the
    /// registers; re-convergence to the shrunken database therefore needs
    /// ongoing growth (the protocol's world is append-only, §3). Interior
    /// departures would partition the tree; as in §3, the underlying
    /// overlay mechanism is assumed to repair those, so only the safe case
    /// is modelled.
    ///
    /// # Panics
    /// Panics if `u` is not a present leaf.
    pub fn leave_resource(&mut self, u: usize) {
        self.sched = None;
        let neighbors: Vec<usize> = self.overlay.neighbors(u).collect();
        assert!(neighbors.len() <= 1, "only leaf resources can depart");
        self.overlay.leave(u);
        self.departed[u] = true;
        if let Some(&parent) = neighbors.first() {
            self.rewire_around(parent);
        }
    }

    /// True if resource `u` has departed.
    pub fn is_departed(&self, u: usize) -> bool {
        self.departed[u]
    }

    /// Rebuilds resource `u`'s protocol state for its current overlay
    /// neighbor set and re-wires every incident edge: shares and layouts
    /// are re-exchanged, neighbors lift their duplicate-send suppressors
    /// toward `u` (its recv state restarted), and the neighborhood is
    /// nudged so current aggregates flow into the new epoch.
    fn rewire_around(&mut self, u: usize) {
        let neighbors: Vec<usize> = self.overlay.neighbors(u).collect();
        let epoch = self.step_no.wrapping_mul(0x9E37).wrapping_add(self.resources.len() as u64);
        self.resources[u].rewire(neighbors.clone(), epoch);

        for &v in &neighbors {
            let (a, b) = if u < v {
                let (lo, hi) = self.resources.split_at_mut(v);
                (&mut lo[u], &mut hi[0])
            } else {
                let (lo, hi) = self.resources.split_at_mut(u);
                (&mut hi[0], &mut lo[v])
            };
            wire_pair(a, b);
            self.resources[v].reset_edge(u);
        }

        let mut msgs = Vec::new();
        for w in neighbors.iter().copied().chain([u]) {
            msgs.extend(self.resources[w].nudge());
        }
        self.schedule(msgs);
        for w in neighbors.into_iter().chain([u]) {
            self.mark_touch(w);
        }
    }

    fn schedule(&mut self, mut msgs: Vec<WireMsg<C>>) {
        if self.link.is_some() {
            // Resources iterate hash maps internally, so the order of a
            // batch varies run-to-run — but the per-edge fault decisions
            // are sequence-numbered, so replayable chaos needs a canonical
            // order. The sort is stable and keys on the rule, preserving
            // the per-edge-per-rule FIFO the timestamp traces rely on.
            msgs.sort_by_cached_key(|m| (m.from, m.to, m.cand.to_string()));
        }
        for m in msgs {
            let delay = self.overlay.delay(m.from, m.to).max(1);
            self.total_msgs += 1;
            self.total_bytes += m.counter.wire_bytes() as u64;
            let delivery = match &mut self.link {
                Some(link) => link.on_send(m.from, m.to),
                None => Delivery::clean(),
            };
            mirror_delivery(&delivery, m.from, m.to, &self.rec);
            if delivery.is_dropped() {
                continue;
            }
            let mut at = self.step_no + delay + delivery.extra_delay;
            if self.link.is_some() {
                // FIFO links: jitter delays the stream, it never reorders
                // it (see `edge_clock`).
                let clock = self.edge_clock.entry((m.from, m.to)).or_insert(0);
                at = at.max(*clock);
                *clock = at;
            }
            for _ in 0..delivery.copies {
                self.inflight.entry(at).or_default().entry(m.to).or_default().push(m.clone());
            }
            self.ensure_pass(at, Pass::Deliver);
        }
    }

    /// Removes resource `u` from the live grid: the overlay routes around
    /// it (bridging its orphaned neighbors through a hub), the affected
    /// neighborhood rewires into a fresh share epoch, and the resource is
    /// marked degraded. Used for scheduled crashes/departures and for
    /// liveness-driven isolation of self-degraded (e.g. mute-controller)
    /// resources.
    fn quarantine(&mut self, u: usize, reason: DegradeReason) {
        emit(&self.rec, || Event::ResourceQuarantined { resource: u as u64, tick: self.step_no });
        self.note_effect(u);
        let nbrs: Vec<usize> = self.overlay.neighbors(u).collect();
        self.overlay.route_around(u);
        self.departed[u] = true;
        self.resources[u].mark_degraded(reason);
        if reason == DegradeReason::Crashed && self.mode.wipes() {
            // Honest crash semantics: volatile mining state dies with the
            // process. The in-memory recovery log survives (it models the
            // node's disk); legacy `Disabled` mode keeps everything.
            self.resources[u].crash_wipe();
        }
        let Some(&first) = nbrs.first() else { return };
        // The hub is the former neighbor now adjacent to all the others
        // (route_around bridges every orphan through it). Rewire it last,
        // so its closing nudges reach the whole repaired neighborhood
        // under final layouts.
        let hub = nbrs
            .iter()
            .copied()
            .find(|&v| nbrs.iter().all(|&w| w == v || self.overlay.neighbors(v).any(|x| x == w)))
            .unwrap_or(first);
        self.crash_parent[u] = Some(hub);
        // Pre-pass: adopt the repaired neighbor sets everywhere before any
        // share exchange. `wire_pair` needs *both* endpoints' layouts to
        // contain the edge, and route_around creates brand-new orphan↔hub
        // edges, so a one-at-a-time rewire would ask a not-yet-rewired hub
        // for a share toward an orphan it never knew.
        let epoch = self.step_no.wrapping_mul(0x9E37).wrapping_add(self.resources.len() as u64);
        for &v in &nbrs {
            let nv: Vec<usize> = self.overlay.neighbors(v).collect();
            self.resources[v].rewire(nv, epoch);
        }
        for &v in &nbrs {
            if v != hub {
                self.rewire_around(v);
            }
        }
        self.rewire_around(hub);
    }

    /// Re-admits a recovered resource as a leaf under the hub it was
    /// bridged through (falling back to any live resource if the hub has
    /// itself gone down since).
    fn recover(&mut self, u: usize) {
        if !self.departed[u] {
            return;
        }
        let anchor = self.crash_parent[u]
            .filter(|&p| !self.departed[p])
            .or_else(|| (0..self.departed.len()).find(|&v| v != u && !self.departed[v]));
        let Some(anchor) = anchor else { return };
        self.overlay.rejoin(u, anchor);
        self.departed[u] = false;
        self.resources[u].clear_degraded();
        let epoch =
            self.step_no.wrapping_mul(0x9E37).wrapping_add(self.resources.len() as u64) ^ 0xC0DE;
        self.resources[u].rewire(vec![anchor], epoch);
        if self.mode.wipes() {
            if self.mode.policy().is_some() {
                // Checkpoint restore: the journal is untrusted input. A
                // rejection halts the resource with a MaliciousResource
                // verdict (it rejoined the overlay but will never speak);
                // the grid keeps mining around it.
                if self.resources[u].restore_from_log() {
                    self.healing[u] = true;
                }
            } else {
                // Cold rejoin: nothing to restore; anti-entropy resends
                // rebuild the state until the backlog check clears.
                self.healing[u] = true;
            }
            if self.healing[u] {
                self.rearm(Pass::Healing);
            }
        }
        self.mark_touch(u);
        self.rewire_around(anchor);
    }

    /// Fires the fault plan's crash/recover/depart events scheduled for
    /// the current step.
    fn apply_fault_schedule(&mut self) {
        let Some(link) = &mut self.link else { return };
        let t = self.step_no;
        let started = link.plan().outages_at(t);
        let recovered = link.plan().recoveries_at(t);
        let mut reasons: Vec<(usize, DegradeReason)> = Vec::with_capacity(started.len());
        for &u in &started {
            if self.departed[u] {
                continue;
            }
            match link.plan().fault_of(u) {
                Some(ResourceFault::Depart { .. }) => {
                    link.stats_mut().departures += 1;
                    emit(&self.rec, || Event::ResourceDeparted { resource: u as u64, tick: t });
                    reasons.push((u, DegradeReason::Departed));
                }
                _ => {
                    link.stats_mut().crashes += 1;
                    emit(&self.rec, || Event::ResourceCrashed { resource: u as u64, tick: t });
                    reasons.push((u, DegradeReason::Crashed));
                }
            }
        }
        for &u in &recovered {
            if self.departed[u] {
                link.stats_mut().recoveries += 1;
                emit(&self.rec, || Event::ResourceRecovered { resource: u as u64, tick: t });
            }
        }
        for (u, reason) in reasons {
            self.quarantine(u, reason);
        }
        for u in recovered {
            self.recover(u);
        }
    }

    /// What the fault layer did so far: injected faults, SFE retries spent
    /// against mute controllers, resources degraded, and the number of
    /// steps convergence was exposed to faults. Deterministic per plan
    /// seed.
    pub fn chaos_report(&self) -> ChaosReport {
        let faults = self.link.as_ref().map(|l| l.stats()).unwrap_or_default();
        let degraded: Vec<usize> = self
            .resources
            .iter()
            .enumerate()
            .filter(|(_, r)| r.degraded().is_some())
            .map(|(u, _)| u)
            .collect();
        ChaosReport {
            faults,
            retries: self.resources.iter().map(|r| r.retries_spent()).sum(),
            degraded,
            convergence_delay: self
                .link
                .as_ref()
                .and_then(|l| l.plan().onset())
                .map_or(0, |onset| self.step_no.saturating_sub(onset)),
            resends: self.resources.iter().map(|r| r.resends_sent()).sum(),
            checkpoints: self.resources.iter().map(|r| r.recovery_checkpoints()).sum(),
            replays: self.resources.iter().map(|r| r.recovery_replays()).sum(),
            rejected: self.resources.iter().map(|r| r.recovery_rejected()).sum(),
            exhausted: self.resources.iter().map(|r| u64::from(r.retry_exhausted())).sum(),
        }
    }

    /// Runs one step of the dense schedule — the differential oracle for
    /// [`Simulation::run_event_driven`], referenced by the wheel-vs-tick
    /// suite and the `sim_scale` speedup column only. Every resource is
    /// armed, every pass whose cadence divides the new timestamp fires in
    /// [`Pass`] order, and the liveness and verdict sweep covers
    /// everyone: the same pass bodies as the wheel, with none of its
    /// selection, re-arming or idle skipping. A manual step invalidates
    /// any armed event scheduler; it re-bootstraps on the next
    /// event-driven run.
    pub fn step(&mut self) {
        self.sched = None;
        self.step_no += 1;
        let t = self.step_no;
        emit(&self.rec, || Event::RoundAdvanced { tick: t });
        let n = self.resources.len();
        self.growing = (0..n).collect();
        self.scan_armed = (0..n).collect();
        self.dirty = (0..n).collect();
        for pass in Pass::ALL {
            if self.cadence(pass).is_some_and(|every| t.is_multiple_of(every)) {
                self.fire_pass(pass, t);
            }
        }
        self.route_around_degraded(0..n);
        self.collect_new_verdicts(0..n);
    }

    /// Runs `n` steps of the dense schedule (see [`Simulation::step`]).
    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// The period `pass` recurs on under the current configuration,
    /// fault plan and recovery mode; `None` for a pass that never fires
    /// under them. Anti-entropy lifts the duplicate-send suppressors
    /// under lossy links only; rejoin healing runs where a crash wipes
    /// state; checkpoints need a recovery policy.
    fn cadence(&self, pass: Pass) -> Option<u64> {
        let resend_every = || self.mode.retry().resend_every.max(1);
        match pass {
            Pass::Faults | Pass::Deliver | Pass::Growth | Pass::Scan | Pass::Wake => Some(1),
            Pass::AntiEntropy => {
                self.link.as_ref().is_some_and(|l| l.plan().has_edge_faults()).then(resend_every)
            }
            Pass::Healing => self.mode.wipes().then(resend_every),
            Pass::Checkpoint => self.mode.policy().map(|p| p.checkpoint_every.max(1)),
            Pass::Candidates => Some(self.cfg.candidate_every.max(1)),
        }
    }

    /// Dispatches one pass to its body.
    fn fire_pass(&mut self, pass: Pass, t: u64) {
        match pass {
            Pass::Faults => self.apply_fault_schedule(),
            Pass::Deliver => self.deliver_due(t),
            Pass::Growth => self.growth_pass(),
            Pass::Scan => self.scan_pass(),
            Pass::AntiEntropy => self.anti_entropy_pass(),
            Pass::Healing => self.healing_pass(),
            Pass::Checkpoint => self.checkpoint_pass(t),
            Pass::Candidates => self.candidate_pass(),
            Pass::Wake => {}
        }
    }

    // ───────────────────────────── pass bodies ─────────────────────────────

    /// Delivery: messages scheduled for `t` are handed to their receivers
    /// (ascending id, per-receiver schedule order) and each receiver's
    /// replies are scheduled as one batch. `on_receive` has no
    /// cross-resource interaction and every reply lands at
    /// `t + delay ≥ t + 1`, so the receivers are independent.
    fn deliver_due(&mut self, t: u64) {
        let Some(inbox) = self.inflight.remove(&t) else { return };
        let ids: Vec<usize> = inbox.keys().copied().filter(|&to| !self.departed[to]).collect();
        let replies = visit(&mut self.resources, &ids, |to, r| {
            let mut out = Vec::new();
            for m in inbox.get(&to).into_iter().flatten() {
                out.extend(r.on_receive(m));
            }
            out
        });
        for (to, out) in replies {
            self.mark_touch(to);
            self.schedule(out);
        }
    }

    /// Growth: every present resource in `growing` appends its next
    /// `growth_per_step` transactions (a departed resource's partition is
    /// frozen as of its departure); exhausted streams drop out.
    fn growth_pass(&mut self) {
        let growth = self.cfg.growth_per_step;
        if growth == 0 {
            return;
        }
        let ids: Vec<usize> = self.growing.iter().copied().collect();
        for u in ids {
            if self.departed[u] {
                continue;
            }
            let txs = self.plans[u].take(growth);
            if !txs.is_empty() {
                self.resources[u].accountant_mut().append(txs);
                self.mark_touch(u);
            }
            if self.plans[u].remaining() == 0 {
                self.growing.remove(&u);
            }
        }
    }

    /// Scan: every present resource in `scan_armed` processes its budget
    /// — the recovery policy's catch-up budget while it heals (bounding
    /// the rejoin burst), the configured one otherwise. Drained, departed
    /// and halted resources drop out of the armed set.
    fn scan_pass(&mut self) {
        self.scan_armed.retain(|&u| !self.departed[u]);
        let ids: Vec<usize> = self.scan_armed.iter().copied().collect();
        let budget = self.cfg.scan_budget;
        let catchup = self.mode.catchup_scan_budget() as usize;
        let (wipes, healing) = (self.mode.wipes(), &self.healing);
        let scanned = visit(&mut self.resources, &ids, |u, r| {
            let had_backlog = r.accountant().total_backlog() > 0;
            let out = r.step(if wipes && healing[u] { catchup } else { budget });
            let keep = r.accountant().total_backlog() > 0
                && r.verdict().is_none()
                && r.degraded().is_none();
            (had_backlog, keep, out)
        });
        for (u, (had_backlog, keep, out)) in scanned {
            if !keep {
                self.scan_armed.remove(&u);
            }
            if had_backlog {
                self.note_effect(u);
            }
            self.schedule(out);
        }
    }

    /// Anti-entropy under lossy links: every live resource lifts its
    /// duplicate-send suppressors and resends current aggregates, so a
    /// dropped message is healed instead of being suppressed forever.
    /// Resends carry unchanged Lamport traces (idempotent, not replays).
    /// One schedule batch for the whole pass: the chaos sort
    /// canonicalizes whole batches, so batching is part of the pinned
    /// behavior.
    fn anti_entropy_pass(&mut self) {
        let mut msgs = Vec::new();
        let mut touched = Vec::new();
        for u in 0..self.resources.len() {
            if self.departed[u] {
                continue;
            }
            let nbrs: Vec<usize> = self.overlay.neighbors(u).collect();
            for v in nbrs {
                self.resources[u].reset_edge(v);
            }
            msgs.extend(self.resources[u].nudge());
            touched.push(u);
        }
        self.schedule(msgs);
        for u in touched {
            self.mark_touch(u);
        }
    }

    /// Rejoin healing: a recovered resource and its neighbors exchange
    /// resends on the retry policy's cadence until it has candidates and
    /// no scan backlog — one schedule batch for the whole pass. A warm
    /// (checkpoint) restore typically clears the check immediately; a
    /// cold rejoin keeps paying resends until rebuilt — that cost
    /// difference is the measured value of the journal.
    fn healing_pass(&mut self) {
        let mut msgs = Vec::new();
        let mut touched = Vec::new();
        for u in 0..self.resources.len() {
            if !self.healing[u] || self.departed[u] {
                continue;
            }
            if self.resources[u].candidate_count() > 0
                && self.resources[u].accountant().total_backlog() == 0
            {
                self.healing[u] = false;
                continue;
            }
            let nbrs: Vec<usize> = self.overlay.neighbors(u).collect();
            for &v in &nbrs {
                self.resources[v].reset_edge(u);
                msgs.extend(self.resources[v].nudge());
                self.resources[u].reset_edge(v);
                touched.push(v);
            }
            msgs.extend(self.resources[u].nudge());
            touched.push(u);
        }
        self.schedule(msgs);
        for u in touched {
            self.mark_touch(u);
        }
    }

    /// Checkpoint: snapshot + journal truncation on every armed, present
    /// resource, so replay length stays bounded by the checkpoint
    /// interval.
    fn checkpoint_pass(&mut self, t: u64) {
        for u in 0..self.resources.len() {
            if !self.departed[u] && self.resources[u].recovery_armed() {
                self.resources[u].take_checkpoint(t);
            }
        }
    }

    /// Candidate generation: every present resource whose state changed
    /// since its last pass (`dirty`, plus the always-dirty). When a
    /// recovery policy is armed, `generate_candidates` appends an
    /// `OutputCached` journal entry per cached rule on *every* call —
    /// skipping clean resources would shrink their journals and change
    /// replay tallies after a restore — so journalled runs visit the
    /// whole grid.
    fn candidate_pass(&mut self) {
        let mut wanted = std::mem::take(&mut self.dirty);
        if self.mode.policy().is_some() {
            wanted = (0..self.resources.len()).collect();
        } else {
            wanted.extend(self.always_dirty.iter().copied());
        }
        let ids: Vec<usize> = wanted.into_iter().filter(|&u| !self.departed[u]).collect();
        let generated = visit(&mut self.resources, &ids, |_, r| {
            let before = r.candidate_count();
            let out = r.generate_candidates();
            (before != r.candidate_count(), out)
        });
        for (u, (grew, out)) in generated {
            let r = &self.resources[u];
            let touched = grew
                || !out.is_empty()
                || r.degraded().is_some()
                || r.verdict().is_some_and(|v| !self.verdicts.iter().any(|&(_, w)| w == v));
            if touched {
                self.mark_touch(u);
            }
            self.schedule(out);
        }
    }

    /// Liveness over `ids`: a resource that degraded on its own (mute
    /// controller, audit halt against its own broker) stops serving its
    /// subtree — route the overlay around it so the rest of the grid
    /// keeps converging.
    fn route_around_degraded(&mut self, ids: impl Iterator<Item = usize>) {
        let stuck: Vec<(usize, DegradeReason)> = ids
            .filter(|&u| !self.departed[u])
            .filter_map(|u| self.resources[u].degraded().map(|reason| (u, reason)))
            .collect();
        for (u, reason) in stuck {
            self.quarantine(u, reason);
        }
    }

    /// Verdict collection over `ids`, with no within-pass deduplication
    /// (two resources surfacing the same fresh verdict in one pass both
    /// record it). A broadcast mutates every live resource, so they are
    /// all marked for re-examination.
    fn collect_new_verdicts(&mut self, ids: impl Iterator<Item = usize>) {
        let fresh: Vec<Verdict> = ids
            .filter_map(|u| self.resources[u].verdict())
            .filter(|v| !self.verdicts.iter().any(|(_, w)| w == v))
            .collect();
        for &v in &fresh {
            self.verdicts.push((self.step_no, v));
            if self.broadcast_verdicts {
                for r in self.resources.iter_mut() {
                    r.on_verdict_broadcast(v);
                }
            }
        }
        if !fresh.is_empty() && self.broadcast_verdicts {
            for u in 0..self.resources.len() {
                if !self.departed[u] {
                    self.note_effect(u);
                }
            }
        }
    }

    // ─────────────────────── event-driven scheduler ───────────────────────

    /// Records that `u`'s protocol state changed: it joins the touched
    /// and dirty sets and a candidate pass is guaranteed at the next
    /// cadence point. No-op under the dense schedule.
    fn note_effect(&mut self, u: usize) {
        if self.sched.is_none() {
            return;
        }
        self.touched_now.insert(u);
        self.dirty.insert(u);
        self.rearm(Pass::Candidates);
    }

    /// [`Simulation::note_effect`] plus scan arming: `u` may now hold
    /// backlog, so a scan pass must look at it — this timestamp if scans
    /// have not fired yet, else the next.
    fn mark_touch(&mut self, u: usize) {
        if self.sched.is_none() {
            return;
        }
        self.note_effect(u);
        self.scan_armed.insert(u);
        self.rearm(Pass::Scan);
    }

    /// Guarantees `pass` fires at `at`: same-timestamp when it still
    /// ranks after the pass currently firing, otherwise clamped forward
    /// to the next timestamp. Deduplicated against the wheel.
    fn ensure_pass(&mut self, at: u64, pass: Pass) {
        let t = self.step_no;
        let Some(s) = self.sched.as_mut() else { return };
        if s.processing && at <= t && pass > s.phase {
            s.agenda.insert(pass);
            return;
        }
        let at = at.max(t + 1);
        if s.scheduled.insert((at, pass)) {
            s.timer.schedule(at, pass);
        }
    }

    /// Keeps a recurring `pass` on the wheel while it has someone to
    /// visit: guarantees it at its next cadence point — the current
    /// timestamp included while the pass can still fire in it, as the
    /// dense schedule would still reach it there.
    fn rearm(&mut self, pass: Pass) {
        let pending = match pass {
            Pass::Growth => self.cfg.growth_per_step > 0 && !self.growing.is_empty(),
            Pass::Scan => !self.scan_armed.is_empty(),
            Pass::AntiEntropy | Pass::Checkpoint => true,
            Pass::Healing => self.healing.iter().any(|&h| h),
            Pass::Candidates => !self.dirty.is_empty() || !self.always_dirty.is_empty(),
            Pass::Faults | Pass::Deliver | Pass::Wake => false,
        };
        if !pending {
            return;
        }
        let Some(every) = self.cadence(pass) else { return };
        let t = self.step_no;
        let same_t = t.is_multiple_of(every)
            && self.sched.as_ref().is_some_and(|s| s.processing && pass > s.phase);
        let target = if same_t { t } else { (t / every + 1) * every };
        self.ensure_pass(target, pass);
    }

    /// Bootstraps the event scheduler from the simulation's current
    /// state: pending deliveries, the fault plan's event times, growth /
    /// scan / liveness arming, and the recurring cadence passes. The
    /// first candidate pass covers the whole grid (everyone dirty), so
    /// the wheel starts from the caches the dense schedule would hold.
    fn arm_wheel(&mut self) {
        self.sched = Some(SchedState {
            timer: TimerWheel::new(self.step_no),
            scheduled: BTreeSet::new(),
            agenda: BTreeSet::new(),
            processing: false,
            phase: Pass::Faults,
        });
        self.touched_now.clear();
        let now = self.step_no;

        let fault_times: Vec<u64> = self
            .link
            .as_ref()
            .map(|l| l.plan().schedule_events().iter().map(|e| e.at).filter(|&a| a > now).collect())
            .unwrap_or_default();
        for at in fault_times {
            self.ensure_pass(at, Pass::Faults);
        }
        let delivery_times: Vec<u64> = self.inflight.keys().copied().collect();
        for at in delivery_times {
            self.ensure_pass(at, Pass::Deliver);
        }

        self.growing = (0..self.plans.len()).filter(|&u| self.plans[u].remaining() > 0).collect();
        self.scan_armed = (0..self.resources.len())
            .filter(|&u| {
                !self.departed[u]
                    && self.resources[u].verdict().is_none()
                    && self.resources[u].degraded().is_none()
                    && self.resources[u].accountant().total_backlog() > 0
            })
            .collect();
        self.dirty = (0..self.resources.len()).collect();
        for pass in Pass::ALL {
            self.rearm(pass);
        }

        self.deferred_live = (0..self.resources.len())
            .filter(|&u| !self.departed[u] && self.resources[u].degraded().is_some())
            .collect();
        if !self.deferred_live.is_empty() {
            self.ensure_pass(now + 1, Pass::Wake);
        }
    }

    /// Runs `n` steps of simulated time on the event scheduler — the
    /// driver behind `SimSession`, the experiment runners, the suites and
    /// the examples. The observable outcome — solutions, verdicts, chaos
    /// tallies, message and byte counts, obs event counts — is pinned
    /// identical to the dense schedule ([`Simulation::run`]) under the
    /// same seed by the wheel-vs-tick differential suite; timestamps with
    /// no scheduled pass cost one round marker and nothing else, so idle
    /// resources are free.
    pub fn run_event_driven(&mut self, n: u64) {
        let end = self.step_no.saturating_add(n);
        if self.sched.is_none() {
            self.arm_wheel();
        }
        loop {
            let next = self.sched.as_ref().and_then(|s| s.timer.peek_next_time());
            let Some(next) = next else { break };
            if next > end {
                break;
            }
            for t in self.step_no + 1..=next {
                emit(&self.rec, || Event::RoundAdvanced { tick: t });
            }
            self.step_no = next;
            self.process_timestamp(next);
        }
        for t in self.step_no + 1..=end {
            emit(&self.rec, || Event::RoundAdvanced { tick: t });
        }
        self.step_no = end;
    }

    /// Pops the pass batch due at `t` and fires it in [`Pass`] order,
    /// re-arming each recurring pass after it fires; passes ensured
    /// mid-timestamp join the agenda when they still rank ahead. Ends
    /// with the liveness + verdict finalizer.
    fn process_timestamp(&mut self, t: u64) {
        {
            let Some(s) = self.sched.as_mut() else { return };
            let Some((_, passes)) = s.timer.pop_next() else { return };
            for p in passes {
                s.scheduled.remove(&(t, p));
                s.agenda.insert(p);
            }
            s.processing = true;
        }
        loop {
            let pass = {
                let Some(s) = self.sched.as_mut() else { return };
                match s.agenda.pop_first() {
                    Some(p) => {
                        s.phase = p;
                        p
                    }
                    None => break,
                }
            };
            self.fire_pass(pass, t);
            self.rearm(pass);
        }
        if let Some(s) = self.sched.as_mut() {
            s.processing = false;
        }
        self.finalize_timestamp(t);
    }

    /// End-of-timestamp sweep over the resources touched at `t`:
    /// liveness quarantine, then verdict collection. Repairs touch
    /// further resources; those are deferred to a liveness wake at
    /// `t + 1`, exactly when the dense schedule would next examine them.
    fn finalize_timestamp(&mut self, t: u64) {
        let mut ids = std::mem::take(&mut self.touched_now);
        ids.append(&mut self.deferred_live);
        self.route_around_degraded(ids.iter().copied());
        let late = std::mem::take(&mut self.touched_now);
        ids.extend(late.iter().copied());
        self.collect_new_verdicts(ids.into_iter());
        let broadcast_marks = std::mem::take(&mut self.touched_now);
        if !late.is_empty() || !broadcast_marks.is_empty() {
            self.deferred_live.extend(late);
            self.deferred_live.extend(broadcast_marks);
            self.ensure_pass(t + 1, Pass::Wake);
        }
    }

    /// Every resource's interim solution, in id order — the
    /// `MiningOutcome::solutions` shape the threaded and net drivers
    /// return.
    pub fn solutions(&self) -> Vec<RuleSet> {
        self.resources.iter().map(|r| r.interim()).collect()
    }

    /// Per-resource health, in id order — the `MiningOutcome::statuses`
    /// shape the threaded and net drivers return.
    pub fn statuses(&self) -> Vec<ResourceStatus> {
        self.resources
            .iter()
            .map(|r| r.degraded().map_or(ResourceStatus::Ok, ResourceStatus::Degraded))
            .collect()
    }

    /// Forces an `Output()` refresh everywhere (before sampling metrics).
    pub fn refresh_outputs(&mut self) {
        self.resources.par_iter_mut().for_each(|r| r.refresh_outputs());
    }

    /// The union of every resource's *current* database content — the
    /// `DB_t` that defines `R[DB_t]`.
    /// Only present resources count: a departed resource's data is gone
    /// from every *fresh* disclosure (its former neighbor rebuilt its
    /// aggregates without it). Cached interim answers may keep reflecting
    /// the departed history until new data outgrows the k-gate registers —
    /// the price of the protocol's monotone disclosure accounting.
    pub fn current_global_db(&self) -> Database {
        Database::union_of(
            self.resources
                .iter()
                .enumerate()
                .filter(|(u, _)| !self.departed[*u])
                .map(|(_, r)| r.accountant().db()),
        )
    }

    /// Average recall and precision across all present resources against
    /// `truth`.
    pub fn global_recall_precision(&self, truth: &RuleSet) -> (f64, f64) {
        let n = self.departed.iter().filter(|&&d| !d).count() as f64;
        let (r_sum, p_sum) = self
            .resources
            .par_iter()
            .enumerate()
            .filter(|(u, _)| !self.departed[*u])
            .map(|(_, r)| {
                let interim = r.interim();
                (gridmine_arm::recall(&interim, truth), gridmine_arm::precision(&interim, truth))
            })
            .reduce(|| (0.0, 0.0), |a, b| (a.0 + b.0, a.1 + b.1));
        (r_sum / n, p_sum / n)
    }

    /// Fraction of resources whose interim solution contains every rule of
    /// `truth` (per-rule coverage used by the single-itemset experiments).
    pub fn coverage(&self, truth: &RuleSet) -> f64 {
        if truth.is_empty() {
            return 1.0;
        }
        let n = self.departed.iter().filter(|&&d| !d).count() as f64;
        let covered = self
            .resources
            .par_iter()
            .enumerate()
            .filter(|(u, r)| {
                if self.departed[*u] {
                    return false;
                }
                let interim = r.interim();
                truth.iter().all(|rule| interim.contains(rule))
            })
            .count();
        covered as f64 / n
    }

    /// Number of local-database scans completed so far (the x-axis of
    /// Figure 2): steps × budget / current average local size.
    pub fn scans_completed(&self) -> f64 {
        let avg_size: f64 =
            self.resources.iter().map(|r| r.accountant().db_len() as f64).sum::<f64>()
                / self.resources.len() as f64;
        if avg_size == 0.0 {
            return 0.0;
        }
        (self.step_no as f64 * self.cfg.scan_budget as f64) / avg_size
    }

    /// The thresholds as an Apriori config (ground-truth computation).
    pub fn apriori_cfg(&self) -> gridmine_arm::AprioriConfig {
        gridmine_arm::AprioriConfig::new(self.cfg.min_freq, self.cfg.min_conf)
    }

    /// λ accessor pair.
    pub fn thresholds(&self) -> (Ratio, Ratio) {
        (self.cfg.min_freq, self.cfg.min_conf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridmine_arm::{correct_rules, Transaction};
    use gridmine_paillier::MockCipher;

    fn grid(n: usize, k: i64) -> Simulation<MockCipher> {
        let keys = GridKeys::mock(1);
        // Every resource holds {1,2}-heavy data; {1,2} is globally frequent.
        let plans: Vec<GrowthPlan> = (0..n)
            .map(|u| {
                GrowthPlan::fixed(Database::from_transactions(
                    (0..40)
                        .map(|j| {
                            let id = (u * 40 + j) as u64;
                            if j % 4 == 0 {
                                Transaction::of(id, &[3])
                            } else {
                                Transaction::of(id, &[1, 2])
                            }
                        })
                        .collect(),
                ))
            })
            .collect();
        let mut cfg = SimConfig::small().with_resources(n).with_k(k);
        cfg.growth_per_step = 0;
        cfg.min_freq = Ratio::new(1, 2);
        cfg.min_conf = Ratio::new(1, 2);
        let items: Vec<Item> = vec![Item(1), Item(2), Item(3)];
        Simulation::new(cfg, &keys, plans, &items)
    }

    #[test]
    fn visit_gives_one_answer_on_both_sides_of_the_threshold() {
        // Three selected of twelve is a quarter of the grid (the parallel
        // walk); of thirteen it is less (the sparse sequential one).
        let ids = [2usize, 5, 11];
        for len in [12usize, 13] {
            let mut grid: Vec<u64> = (0..len as u64).collect();
            let got = visit(&mut grid, &ids, |u, x| {
                *x += 100;
                (u as u64) * 1000 + *x
            });
            assert_eq!(got, vec![(2, 2102), (5, 5105), (11, 11111)], "{len} items");
            let visited: Vec<usize> = (0..len).filter(|&u| grid[u] >= 100).collect();
            assert_eq!(visited, ids, "{len} items: only the selection is visited");
        }
    }

    #[test]
    fn small_grid_converges_to_centralized_result() {
        let mut sim = grid(8, 1);
        sim.run_event_driven(40);
        sim.refresh_outputs();
        let truth = correct_rules(&sim.current_global_db(), &sim.apriori_cfg());
        let (recall, precision) = sim.global_recall_precision(&truth);
        assert!(recall > 0.99, "recall {recall}");
        assert!(precision > 0.99, "precision {precision}");
        assert!(sim.verdicts.is_empty());
        assert!(sim.total_msgs > 0);
    }

    #[test]
    fn privacy_gate_blocks_small_grids() {
        // k = 6 > what a 4-resource grid can ever aggregate: nothing is
        // disclosed, recall stays 0.
        let mut sim = grid(4, 6);
        sim.run_event_driven(30);
        sim.refresh_outputs();
        let truth = correct_rules(&sim.current_global_db(), &sim.apriori_cfg());
        let (recall, _) = sim.global_recall_precision(&truth);
        assert_eq!(recall, 0.0, "k-privacy floor must gate all outputs");
    }

    #[test]
    fn attack_surfaces_as_verdict() {
        let mut sim = grid(6, 1);
        sim.broadcast_verdicts = true;
        let victim = sim.overlay().neighbors(2).next().unwrap();
        sim.corrupt_broker(2, BrokerBehavior::DoubleCount(victim));
        sim.run_event_driven(20);
        assert!(
            sim.verdicts.iter().any(|&(_, v)| v == Verdict::MaliciousBroker(2)),
            "double-count must be detected, got {:?}",
            sim.verdicts
        );
    }

    #[test]
    fn growth_streams_are_consumed() {
        let keys = GridKeys::mock(2);
        let txs: Vec<Transaction> = (0..200).map(|i| Transaction::of(i, &[1])).collect();
        let global = Database::from_transactions(txs);
        let plans = crate::workload::split_growth(&global, 4, 0.5, 1);
        let mut cfg = SimConfig::small().with_resources(4).with_k(1);
        cfg.growth_per_step = 5;
        let mut sim = Simulation::new(cfg, &keys, plans, &[Item(1)]);
        let before = sim.current_global_db().len();
        sim.run_event_driven(10);
        let after = sim.current_global_db().len();
        assert!(after > before, "databases must grow");
        assert_eq!(after, 200, "everything eventually arrives");
    }
}
