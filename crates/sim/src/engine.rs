//! The grid simulation: one set of pass bodies, two schedules.
//!
//! One step = one unit of simulated time. Within a step: arriving
//! messages are delivered, each resource's database grows, each resource
//! scans its budget and reacts, and — every `candidate_every` steps —
//! runs the candidate-generation cycle. Cross-resource interaction
//! happens only through the message queue, so per-phase parallelism is
//! race-free.
//!
//! Each resource is a [`RoundMachine`], the per-resource machine the
//! synchronous, threaded and net drivers run too: every protocol call
//! (delivery, scan, heal resend, candidate generation, rejoin restore)
//! goes through it, it arms recovery and the retry budget, it contains a
//! panic as [`DegradeReason::Panicked`], and its schedule answers when a
//! rejoin heals. A simulation is built once, by [`crate::SimSession`],
//! with its fault plan, recovery mode and recorder. What stays the
//! simulator's own is scheduling: the overlay's repair on a crash,
//! departure or quarantine, rewire epochs, the lossy-link heal cadence
//! (every `resend_every` steps), growth, budgeted scans, and the event
//! scheduler with its dense oracle.
//!
//! Each kind of work is a [`Pass`] with exactly one body here; a pass
//! visits the resources its tracking set names (`growing`, `scan_armed`,
//! `dirty`) and fires at the timestamps one function names
//! ([`Simulation::next_at`]). Two schedules decide *when* a pass fires
//! and *whom* it visits:
//!
//! * [`Simulation::run_event_driven`] — the product scheduler, and what
//!   every session, suite, example and bench runs. Pending passes are
//!   `(time, pass)` pairs in one ordered set, whose order is the firing
//!   order; timestamps with no pending pass are skipped outright, so
//!   idle resources cost nothing and a 10⁵-node grid advances at the
//!   cost of its *active* frontier. The tracking sets are maintained by
//!   the passes themselves.
//! * [`Simulation::step`] / [`Simulation::run`] — the dense schedule,
//!   kept as the differential oracle: every resource armed, every pass
//!   due at `t` fired, the end-of-timestamp sweep over
//!   everyone. It shares the pass bodies and nothing else, so the
//!   wheel-vs-tick suite pins exactly what the event scheduler adds —
//!   the selection of resources, the re-arming and idle skipping, and
//!   the passes joining their own timestamp — to identical solutions,
//!   verdicts and [`ChaosReport`]s under the same seed. What a pass body
//!   does to one resource is held against the centralized truth instead.
//!
//! Determinism-under-seed holds under both schedules: passes fire in
//! [`Pass`] order per timestamp; each sender sorts its own batch, rolls
//! its own per-edge fault decisions in send order and buckets its copies
//! by arrival and receiver on the worker that handled it (`Outbox`);
//! and a pass appends the buckets to the in-flight queue in ascending
//! sender order — so the per-directed-edge message sequences (which the
//! fault layer keys on) and every receiver's delivery order are
//! byte-identical whatever the pool's width.

// No panic on hostile input (DESIGN.md § Static analysis).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::unimplemented, clippy::disallowed_macros))]

use std::collections::{BTreeMap, BTreeSet};

use gridmine_arm::{Database, Item, Ratio, RuleSet};
use gridmine_core::proxy::mirror_delivery;
use gridmine_core::resource::{wire_grid, wire_pair};
use gridmine_core::{
    BrokerBehavior, ChaosReport, DegradeReason, GateMode, GridKeys, MineConfig, RecoveryMode,
    ResourceStatus, RoundMachine, RoundSchedule, SecureResource, Tallies, Verdict, WireMsg,
};
use gridmine_obs::{emit, Event, SharedRecorder};
use gridmine_paillier::HomCipher;
use gridmine_topology::faults::{Delivery, FaultPlan, FaultyLink, ResourceFault};
use gridmine_topology::Overlay;
use rayon::prelude::*;

use crate::config::SimConfig;
use crate::workload::GrowthPlan;

/// One kind of work in a simulation timestamp. The declaration order is
/// the within-timestamp firing order under both schedules: faults,
/// delivery, growth, scans, healing, checkpoints, candidate generation,
/// and a no-op liveness wake (deferred degradation checks run in the
/// timestamp finalizer).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Pass {
    Faults,
    Deliver,
    Growth,
    Scan,
    Heal,
    Checkpoint,
    Candidates,
    Wake,
}

impl Pass {
    /// Every pass, in firing order.
    const ALL: [Pass; 8] = [
        Pass::Faults,
        Pass::Deliver,
        Pass::Growth,
        Pass::Scan,
        Pass::Heal,
        Pass::Checkpoint,
        Pass::Candidates,
        Pass::Wake,
    ];
}

/// Runs `f` on each selected resource and its outbox, and returns
/// `(id, result)` in ascending id order; `ids` must be ascending and in
/// range. The selection is fanned out across the pool when it covers at
/// least a quarter of the grid, and run sequentially otherwise. The
/// output is the same either way: `f` may write only the one resource
/// and outbox it is handed, and may read only what no pass mutates while
/// `visit` runs — the messages being delivered, the overlay (the delays a
/// reply is timed by), the fault plan and the recorder. Picking the
/// selected slots costs the selection, not the grid.
#[expect(clippy::disallowed_macros, reason = "debug builds assert the callers' ascending ids")]
fn visit<R: Send, S: Send, T: Send>(
    items: &mut [R],
    outboxes: &mut [S],
    ids: impl IntoIterator<Item = usize>,
    f: impl Fn(usize, &mut R, &mut S) -> T + Sync,
) -> Vec<(usize, T)> {
    let fan_out_from = items.len();
    let (mut items, mut outboxes, mut base, mut asked) = (items, outboxes, 0, 0);
    let picked: Vec<(usize, &mut R, &mut S)> = ids
        .into_iter()
        .filter_map(|u| {
            asked += 1;
            let skip = u.checked_sub(base)?;
            let (r, rest) = std::mem::take(&mut items).get_mut(skip..)?.split_first_mut()?;
            let (out, tail) = std::mem::take(&mut outboxes).get_mut(skip..)?.split_first_mut()?;
            (items, outboxes, base) = (rest, tail, u + 1);
            Some((u, r, out))
        })
        .collect();
    debug_assert_eq!(picked.len(), asked, "ids must ascend within the grid");
    let run = |(u, r, out): (usize, &mut R, &mut S)| (u, f(u, r, out));
    if picked.len() * 4 >= fan_out_from {
        picked.into_par_iter().map(run).collect()
    } else {
        picked.into_iter().map(run).collect()
    }
}

/// One resource's side of its out-edges, touched by nobody but the
/// sender, so a pass times and buckets its messages on the worker that
/// produced them. Under a fault plan it holds the fault layer's per-edge
/// sequence numbers and tallies — its own [`FaultyLink`], as each station
/// of the threaded driver holds its own proxy — and the FIFO clock of
/// every out-edge. A decision is a pure function of `(seed, edge, seq)`,
/// so where the sequence numbers live changes none.
struct Outbox {
    /// The sender's fault decisions; `None` on a clean grid.
    link: Option<FaultyLink>,
    /// Last scheduled arrival per out-edge, by receiver: under jitter the
    /// links stay FIFO streams (a later message never overtakes a delayed
    /// one; overtaking would read as a timestamp regression, i.e. a
    /// replay).
    edge_clock: BTreeMap<usize, u64>,
}

/// What one sender put on the wire in one pass.
struct Posted<C: HomCipher> {
    /// Messages sent, dropped ones included.
    msgs: u64,
    /// Their bytes, per the cipher's bandwidth model.
    bytes: u64,
    /// The surviving copies by `(arrival, receiver)`, each bucket in send
    /// order.
    buckets: BTreeMap<(u64, usize), Vec<WireMsg<C>>>,
}

impl Outbox {
    /// An outbox under `plan`, with fresh sequence numbers.
    fn under(plan: Option<&FaultPlan>) -> Self {
        Outbox { link: plan.cloned().map(FaultyLink::new), edge_clock: BTreeMap::new() }
    }

    /// Times the messages `from` sends at `t` — the overlay delay, and
    /// under a fault plan the edge's next fault decision and its FIFO
    /// clock — and buckets the surviving copies by arrival and receiver.
    /// A duplicated message is cloned; a single copy moves.
    #[expect(clippy::disallowed_macros, reason = "debug builds assert a local wiring bug")]
    fn post<C: HomCipher>(
        &mut self,
        from: usize,
        mut msgs: Vec<WireMsg<C>>,
        t: u64,
        overlay: &Overlay,
        rec: &SharedRecorder,
    ) -> Posted<C> {
        if self.link.is_some() {
            // Resources iterate hash maps internally, so the order of a
            // batch varies run-to-run — but the per-edge fault decisions
            // are sequence-numbered, so replayable chaos needs a canonical
            // order. The sort is stable and keys on the rule, preserving
            // the per-edge-per-rule FIFO the timestamp traces rely on.
            msgs.sort_by_cached_key(|m| (m.to, m.cand.to_string()));
        }
        let mut posted = Posted { msgs: msgs.len() as u64, bytes: 0, buckets: BTreeMap::new() };
        for m in msgs {
            debug_assert_eq!(m.from, from, "a resource sends on its own out-edges only");
            posted.bytes += m.counter.wire_bytes() as u64;
            let delivery = match &mut self.link {
                Some(link) => link.on_send(from, m.to),
                None => Delivery::clean(),
            };
            mirror_delivery(&delivery, from, m.to, rec);
            if delivery.is_dropped() {
                continue;
            }
            let mut at = t + overlay.delay(from, m.to).max(1) + delivery.extra_delay;
            if self.link.is_some() {
                // FIFO links: jitter delays the stream, it never reorders
                // it (see `edge_clock`).
                let clock = self.edge_clock.entry(m.to).or_insert(0);
                at = at.max(*clock);
                *clock = at;
            }
            let bucket = posted.buckets.entry((at, m.to)).or_default();
            for _ in 1..delivery.copies {
                bucket.push(m.clone());
            }
            bucket.push(m);
        }
        posted
    }
}

/// The event-driven scheduler state. `None` while the simulation is (or
/// was last) driven by the dense schedule; armed lazily by
/// [`Simulation::run_event_driven`] and invalidated by any mutation the
/// bookkeeping cannot track (manual ticks, membership changes, external
/// surgery on a resource).
struct SchedState {
    /// Pending `(time, pass)` pairs; the set order is the firing order,
    /// and a pair is pending at most once.
    queue: BTreeSet<(u64, Pass)>,
    /// The pass firing now, while a timestamp is processed: passes that
    /// rank after it may still join the current timestamp, the others
    /// wait for the next.
    firing: Option<Pass>,
}

/// A running simulation.
pub struct Simulation<C: HomCipher> {
    cfg: SimConfig,
    overlay: Overlay,
    keys: GridKeys<C>,
    items: Vec<Item>,
    /// One round machine per resource, by id: every protocol call goes
    /// through it, and it holds the resource's slice of the fault plan
    /// and recovery mode.
    machines: Vec<RoundMachine<C>>,
    plans: Vec<GrowthPlan>,
    /// Each resource's out-edge state, by sender id (see [`Outbox`]).
    outboxes: Vec<Outbox>,
    /// Scheduled deliveries: arrival time → receiver → messages, both in
    /// ascending order. A receiver's vector holds whole per-sender
    /// buckets, appended pass by pass and, within a pass, in ascending
    /// sender order; each bucket is in its sender's send order.
    inflight: BTreeMap<u64, BTreeMap<usize, Vec<WireMsg<C>>>>,
    departed: Vec<bool>,
    /// The fault plan the simulation was built under, if any, and the
    /// tallies of the crashes, recoveries and departures it fired.
    /// Message decisions roll on each sender's own link in its
    /// [`Outbox`].
    link: Option<FaultyLink>,
    /// Where a crashed resource should re-attach on recovery (the hub its
    /// neighborhood was bridged through when it was routed around).
    crash_parent: Vec<Option<usize>>,
    /// The recovery image a crash left, held until the rejoin restores
    /// from it (it models the node's disk).
    crash_image: Vec<Option<Vec<u8>>>,
    /// Structured-event sink, every resource's and the engine's.
    rec: SharedRecorder,
    step_no: u64,
    /// Event-driven scheduler, armed while `run_event_driven` drives the
    /// sim. The tracking sets below name whom the next passes visit:
    /// `arm_scheduler` rebuilds them from first principles and the passes
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

/// Mints resource `u` of the overlay by core's recipe
/// ([`MineConfig::resource`], resource seed mixed from `seed`), with the
/// sim's own knobs applied: Algorithm 1's padding and the gate mode.
fn mint<C: HomCipher>(
    cfg: &SimConfig,
    seed: u64,
    keys: &GridKeys<C>,
    overlay: &Overlay,
    u: usize,
    db: Database,
    items: &[Item],
) -> SecureResource<C> {
    // The sim counts steps, not rounds: the recipe never reads `rounds`.
    let recipe =
        MineConfig { min_freq: cfg.min_freq, min_conf: cfg.min_conf, k: cfg.k, rounds: 0, seed };
    let mut r = recipe.resource(u, keys, |v| overlay.neighbors(v).collect(), db, items);
    r.accountant_mut().obfuscate = cfg.obfuscate;
    if cfg.relaxed_gate {
        r.set_gate_mode(GateMode::TransactionsOnly);
    }
    r
}

impl<C: HomCipher> Simulation<C>
where
    C::Ct: Send + Sync,
{
    /// Builds a grid: BA topology, spanning tree, one resource per node,
    /// each wrapped in a [`RoundMachine`] with its slice of `faults` and
    /// `mode` and reporting to `rec`. [`crate::SimSession`] validates the
    /// inputs first.
    pub(crate) fn new(
        cfg: SimConfig,
        keys: &GridKeys<C>,
        mut plans: Vec<GrowthPlan>,
        items: &[Item],
        faults: Option<FaultPlan>,
        mode: RecoveryMode,
        rec: SharedRecorder,
    ) -> Self {
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
        let mut resources: Vec<SecureResource<C>> = (0..cfg.n_resources)
            .map(|u| {
                let db = std::mem::take(&mut plans[u].initial);
                mint(&cfg, cfg.seed, keys, &overlay, u, db, items)
            })
            .collect();
        wire_grid(&mut resources);
        let quiet = FaultPlan::none();
        let plan = faults.as_ref().unwrap_or(&quiet);
        let machines = resources
            .into_iter()
            .enumerate()
            .map(|(u, r)| RoundMachine::new(r, RoundSchedule::of(plan, u, mode), rec.clone()))
            .collect();
        Simulation {
            cfg,
            overlay,
            keys: keys.clone(),
            items: items.to_vec(),
            machines,
            plans,
            outboxes: (0..cfg.n_resources).map(|_| Outbox::under(faults.as_ref())).collect(),
            inflight: BTreeMap::new(),
            departed: vec![false; cfg.n_resources],
            link: faults.map(FaultyLink::new),
            crash_parent: vec![None; cfg.n_resources],
            crash_image: vec![None; cfg.n_resources],
            rec,
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
        self.machines[u].resource()
    }

    /// Mutable access to a resource. External surgery the scheduler's
    /// bookkeeping cannot see — the event-driven state is invalidated and
    /// rebuilt from scratch on the next `run_event_driven`.
    pub fn resource_mut(&mut self, u: usize) -> &mut SecureResource<C> {
        self.sched = None;
        self.machines[u].resource_mut()
    }

    /// Makes one broker malicious. The resource joins the always-dirty
    /// set: every candidate pass re-examines it (as the dense schedule
    /// re-examines everyone), so detections that surface without any
    /// message or candidate signal are never missed.
    pub fn corrupt_broker(&mut self, u: usize, behavior: BrokerBehavior) {
        self.machines[u].resource_mut().set_broker_behavior(behavior);
        self.always_dirty.insert(u);
        self.note_effect(u);
    }

    /// A new resource joins the grid under `parent` (dynamic membership).
    ///
    /// The parent rewires (regenerated shares, remapped audit state —
    /// k-gates preserved), both ends of every affected edge re-exchange
    /// shares and layouts, the parent's other neighbors lift their
    /// duplicate-send suppressors toward it, and everyone affected is
    /// nudged so current aggregates flow into the new world. Returns the
    /// new resource's id.
    ///
    /// # Panics
    /// Panics if `parent` is not a resource of the grid.
    #[expect(clippy::disallowed_macros, reason = "documented # Panics on a caller's bad id")]
    pub fn join_resource(&mut self, parent: usize, plan: GrowthPlan) -> usize {
        assert!(parent < self.machines.len(), "parent must exist");
        self.sched = None;
        let mut plan = plan;
        let id = self.overlay.join(parent);
        let db = std::mem::take(&mut plan.initial);
        // A joiner's seed stays apart from any founder's.
        let seed = self.cfg.seed ^ 0xBEEF;
        let newcomer = mint(&self.cfg, seed, &self.keys, &self.overlay, id, db, &self.items);
        // A fault plan names founders only, so a joiner's slice of it is
        // a founder's without that founder's own fault.
        let schedule = self.machines[parent].schedule().clone().without_own_fault();
        self.machines.push(RoundMachine::new(newcomer, schedule, self.rec.clone()));
        self.outboxes.push(Outbox::under(self.link.as_ref().map(FaultyLink::plan)));
        self.plans.push(plan);
        self.departed.push(false);
        self.crash_parent.push(None);
        self.crash_image.push(None);

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
    #[expect(clippy::disallowed_macros, reason = "documented # Panics on a caller's bad id")]
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
        let epoch = self.epoch();
        self.machines[u].resource_mut().rewire(neighbors.clone(), epoch);
        for &v in &neighbors {
            let (a, b) = if u < v {
                let (lo, hi) = self.machines.split_at_mut(v);
                (&mut lo[u], &mut hi[0])
            } else {
                let (lo, hi) = self.machines.split_at_mut(u);
                (&mut hi[0], &mut lo[v])
            };
            wire_pair(a.resource_mut(), b.resource_mut());
        }

        // Each neighbor heals its edge toward `u`, and `u` resends on its
        // own. The buckets go out in that order, neighbors then `u`, on a
        // clean grid; the chaos sort orders a fault plan's batch by sender.
        let mut senders: Vec<usize> = neighbors.into_iter().chain([u]).collect();
        if self.link.is_some() {
            senders.sort_unstable();
        }
        let mut ids = senders.clone();
        ids.sort_unstable();
        let (t, overlay, rec) = (self.step_no, &self.overlay, &self.rec);
        let mut nudged: BTreeMap<usize, Posted<C>> =
            visit(&mut self.machines, &mut self.outboxes, ids, |w, m, out| {
                let edges: &[usize] = if w == u { &[] } else { &[u] };
                out.post(w, m.heal(edges), t, overlay, rec)
            })
            .into_iter()
            .collect();
        for w in senders {
            if let Some(posted) = nudged.remove(&w) {
                self.enqueue(posted);
            }
            self.mark_touch(w);
        }
    }

    /// The share epoch a rewiring at the current step salts with.
    fn epoch(&self) -> u64 {
        self.step_no.wrapping_mul(0x9E37).wrapping_add(self.machines.len() as u64)
    }

    /// Appends one sender's buckets to `inflight` — whole buckets, no
    /// copy — and guarantees a delivery pass at each arrival. A pass
    /// enqueues its senders in ascending order, so a receiver reads
    /// same-tick messages from different senders in the order one
    /// sender-sorted batch would have put them.
    fn enqueue(&mut self, posted: Posted<C>) {
        self.total_msgs += posted.msgs;
        self.total_bytes += posted.bytes;
        for ((at, to), mut bucket) in posted.buckets {
            let queued = self.inflight.entry(at).or_default().entry(to).or_default();
            if queued.is_empty() {
                *queued = bucket;
            } else {
                queued.append(&mut bucket);
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
        let r = self.machines[u].resource_mut();
        r.mark_degraded(reason);
        if reason == DegradeReason::Crashed {
            // Volatile mining state dies with the process; the recovery
            // image it leaves is held until the rejoin.
            self.crash_image[u] = Some(r.crash_wipe());
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
        let epoch = self.epoch();
        for &v in &nbrs {
            let nv: Vec<usize> = self.overlay.neighbors(v).collect();
            self.machines[v].resource_mut().rewire(nv, epoch);
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
        let epoch = self.epoch() ^ 0xC0DE;
        let m = &mut self.machines[u];
        m.resource_mut().clear_degraded();
        m.resource_mut().rewire(vec![anchor], epoch);
        // The one restore door, as in every driver: the controller's
        // audits, then the mining state under a checkpoint policy. The image
        // is untrusted input: a rejection halts the resource with a
        // MaliciousResource verdict (it rejoined the overlay but will
        // never speak); the grid keeps mining around it. A resource
        // isolated without a crash rejoins from the image a crash now
        // would leave. Cold, only the audits come back, and the heal
        // pass's resends rebuild the rest. Simulated time has no wall
        // clock, so a restore never stalls.
        let image = self.crash_image[u].take().or_else(|| m.resource().encode_recovery_image());
        m.restore(image.as_deref(), || 0);
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
        let mut faults = self.link.as_ref().map(|l| l.stats()).unwrap_or_default();
        for link in self.outboxes.iter().filter_map(|out| out.link.as_ref()) {
            faults.merge(&link.stats());
        }
        let degraded = (0..self.machines.len()).filter(|&u| self.machines[u].degraded().is_some());
        let convergence_delay = (self.link.as_ref())
            .and_then(|l| l.plan().onset())
            .map_or(0, |onset| self.step_no.saturating_sub(onset));
        let tallies: Vec<Tallies> = self.machines.iter().map(RoundMachine::tallies).collect();
        ChaosReport::tallied(faults, degraded.collect(), convergence_delay, &tallies)
    }

    /// Runs one step of the dense schedule — the differential oracle for
    /// [`Simulation::run_event_driven`], referenced by the wheel-vs-tick
    /// suite only. Every resource is armed, every pass due at the new
    /// timestamp fires in [`Pass`] order, and the liveness and verdict
    /// sweep covers everyone: the same pass bodies as the event
    /// scheduler, with none of its selection, re-arming or idle
    /// skipping. A manual step invalidates any armed event
    /// scheduler; it re-bootstraps on the next event-driven run.
    pub fn step(&mut self) {
        self.sched = None;
        self.step_no += 1;
        let t = self.step_no;
        emit(&self.rec, || Event::RoundAdvanced { tick: t });
        let n = self.machines.len();
        self.growing = (0..n).collect();
        self.scan_armed = (0..n).collect();
        self.dirty = (0..n).collect();
        for pass in Pass::ALL {
            if self.next_at(pass, t) == Some(t) {
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

    /// The first timestamp at or after `from` at which `pass` fires under
    /// the current configuration, fault plan and recovery mode; `None`
    /// once it never does. Every pass but healing recurs on a period, and
    /// checkpoints need a recovery policy. Healing fires only at ticks a
    /// schedule names: the multiples of `resend_every` under lossy links,
    /// and the resend ticks of the plan's rejoins
    /// ([`RoundSchedule::next_heal`]).
    fn next_at(&self, pass: Pass, from: u64) -> Option<u64> {
        let every = match pass {
            Pass::Faults | Pass::Deliver | Pass::Growth | Pass::Scan | Pass::Wake => 1,
            Pass::Heal => {
                let every = self.resend_every();
                let lossy = self.link.as_ref()?.plan().has_edge_faults();
                let lossy = lossy.then(|| from.div_ceil(every) * every);
                let rejoin = self.plan_schedule().next_heal(from);
                return lossy.into_iter().chain(rejoin).min();
            }
            Pass::Checkpoint => self.plan_schedule().mode().policy()?.checkpoint_every.max(1),
            Pass::Candidates => self.cfg.candidate_every.max(1),
        };
        Some(from.div_ceil(every) * every)
    }

    /// Resource 0's schedule, which answers for the whole grid where every
    /// schedule agrees: the plan's rejoin ticks and the recovery mode.
    fn plan_schedule(&self) -> &RoundSchedule {
        self.machines[0].schedule()
    }

    /// The retry policy's resend cadence, clamped to at least one step.
    fn resend_every(&self) -> u64 {
        self.plan_schedule().mode().retry().resend_every.max(1)
    }

    /// Dispatches one pass to its body.
    fn fire_pass(&mut self, pass: Pass, t: u64) {
        match pass {
            Pass::Faults => self.apply_fault_schedule(),
            Pass::Deliver => self.deliver_due(t),
            Pass::Growth => self.growth_pass(),
            Pass::Scan => self.scan_pass(t),
            Pass::Heal => self.heal_pass(t),
            Pass::Checkpoint => self.checkpoint_pass(t),
            Pass::Candidates => self.candidate_pass(t),
            Pass::Wake => {}
        }
    }

    // ───────────────────────────── pass bodies ─────────────────────────────

    /// Delivery: messages scheduled for `t` are handed to their receivers
    /// (ascending id, per-receiver schedule order), and the worker that
    /// handles a receiver times and buckets the replies they caused.
    /// A receive has no cross-resource interaction and every reply
    /// lands at `t + delay ≥ t + 1`, so the receivers are independent.
    /// The delivered inbox is dropped on the calling thread when the pass
    /// ends. A message is plain data, so that frees only the buckets'
    /// vectors and the ciphertexts of the few counters too wide to hold
    /// in place; each was allocated on whichever thread handled its
    /// sender, and freeing on the workers while they allocate contends
    /// on the allocator's locks (a `sim_grid_50` session on a 2-thread
    /// pool made about 1 600 voluntary context switches instead of 250
    /// when every message owned a vector, and ran no faster).
    fn deliver_due(&mut self, t: u64) {
        let Some(inbox) = self.inflight.remove(&t) else { return };
        let ids = inbox.keys().copied().filter(|&to| !self.departed[to]);
        let (overlay, rec) = (&self.overlay, &self.rec);
        let replies = visit(&mut self.machines, &mut self.outboxes, ids, |to, m, out| {
            let mut replies = Vec::new();
            for msg in inbox.get(&to).into_iter().flatten() {
                m.receive(msg, &mut replies);
            }
            out.post(to, replies, t, overlay, rec)
        });
        for (to, posted) in replies {
            self.mark_touch(to);
            self.enqueue(posted);
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
                self.machines[u].resource_mut().accountant_mut().append(txs);
                self.mark_touch(u);
            }
            if self.plans[u].remaining() == 0 {
                self.growing.remove(&u);
            }
        }
    }

    /// Scan: every present resource in `scan_armed` processes the
    /// configured budget. Drained, departed and halted resources drop out
    /// of the armed set.
    fn scan_pass(&mut self, t: u64) {
        self.scan_armed.retain(|&u| !self.departed[u]);
        let ids = self.scan_armed.iter().copied();
        let (budget, overlay, rec) = (self.cfg.scan_budget, &self.overlay, &self.rec);
        let scanned = visit(&mut self.machines, &mut self.outboxes, ids, |u, m, out| {
            let had_backlog = m.resource().accountant().total_backlog() > 0;
            let msgs = m.step(budget);
            let keep = m.resource().accountant().total_backlog() > 0
                && m.resource().verdict().is_none()
                && m.degraded().is_none();
            (had_backlog, keep, out.post(u, msgs, t, overlay, rec))
        });
        for (u, (had_backlog, keep, posted)) in scanned {
            if !keep {
                self.scan_armed.remove(&u);
            }
            if had_backlog {
                self.note_effect(u);
            }
            self.enqueue(posted);
        }
    }

    /// Healing: resources lift duplicate-send suppressors and resend
    /// their current aggregates. Under lossy links, at each multiple of
    /// `resend_every`, every live resource lifts every edge, so a dropped
    /// message is healed instead of being suppressed forever. Otherwise
    /// each rejoiner due a resend and its live neighbors lift the edges
    /// their [`RoundSchedule`] names over their overlay neighbors: a warm
    /// rejoin one exchange at its rejoin tick, a cold one every
    /// `resend_every` from then to the end of the run. Resends carry
    /// unchanged Lamport traces (idempotent, not replays). Each healer
    /// times its own resends and the buckets go out in ascending sender
    /// order: the chaos sort keys a batch on the sender first, so that is
    /// the order one sorted batch of the whole pass would have, and each
    /// sender's own sort keeps its per-edge sequence numbers.
    fn heal_pass(&mut self, t: u64) {
        let Some(plan) = self.link.as_ref().map(FaultyLink::plan) else { return };
        let everyone = plan.has_edge_faults() && t.is_multiple_of(self.resend_every());
        let ids: BTreeSet<usize> = if everyone {
            (0..self.machines.len()).collect()
        } else {
            let healing = self.plan_schedule().healing_at(t);
            healing.flat_map(|r| self.overlay.neighbors(r).chain([r])).collect()
        };
        let ids = ids.into_iter().filter(|&u| !self.departed[u]);
        let (overlay, rec) = (&self.overlay, &self.rec);
        let healed = visit(&mut self.machines, &mut self.outboxes, ids, |u, m, out| {
            let live: Vec<usize> = overlay.neighbors(u).collect();
            let edges = if everyone { live } else { m.schedule().rejoin_edges(t, &live) };
            if edges.is_empty() {
                return None;
            }
            Some(out.post(u, m.heal(&edges), t, overlay, rec))
        });
        for (u, posted) in healed {
            if let Some(posted) = posted {
                self.mark_touch(u);
                self.enqueue(posted);
            }
        }
    }

    /// Checkpoint: counted and reported on every present resource armed
    /// for recovery.
    fn checkpoint_pass(&mut self, t: u64) {
        for u in (0..self.machines.len()).filter(|&u| !self.departed[u]) {
            self.machines[u].resource_mut().take_checkpoint(t);
        }
    }

    /// Candidate generation: every present resource whose state changed
    /// since its last pass (`dirty`, plus the always-dirty).
    fn candidate_pass(&mut self, t: u64) {
        let mut wanted = std::mem::take(&mut self.dirty);
        wanted.extend(self.always_dirty.iter().copied());
        let ids = wanted.into_iter().filter(|&u| !self.departed[u]);
        let (overlay, rec) = (&self.overlay, &self.rec);
        let generated = visit(&mut self.machines, &mut self.outboxes, ids, |u, m, out| {
            let before = m.resource().candidate_count();
            let msgs = m.candidates();
            (before != m.resource().candidate_count(), out.post(u, msgs, t, overlay, rec))
        });
        for (u, (grew, posted)) in generated {
            let m = &self.machines[u];
            let touched = grew
                || posted.msgs > 0
                || m.degraded().is_some()
                || m.resource()
                    .verdict()
                    .is_some_and(|v| !self.verdicts.iter().any(|&(_, w)| w == v));
            if touched {
                self.mark_touch(u);
            }
            self.enqueue(posted);
        }
    }

    /// Liveness over `ids`: a resource that degraded on its own (mute
    /// controller, audit halt against its own broker, a panic its machine
    /// contained) stops serving its subtree — route the overlay around it
    /// so the rest of the grid keeps converging.
    fn route_around_degraded(&mut self, ids: impl Iterator<Item = usize>) {
        let stuck: Vec<(usize, DegradeReason)> = ids
            .filter(|&u| !self.departed[u])
            .filter_map(|u| self.machines[u].degraded().map(|reason| (u, reason)))
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
            .filter_map(|u| self.machines[u].resource().verdict())
            .filter(|v| !self.verdicts.iter().any(|(_, w)| w == v))
            .collect();
        for &v in &fresh {
            self.verdicts.push((self.step_no, v));
            if self.broadcast_verdicts {
                for m in self.machines.iter_mut() {
                    m.resource_mut().on_verdict_broadcast(v);
                }
            }
        }
        if !fresh.is_empty() && self.broadcast_verdicts {
            for u in 0..self.machines.len() {
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
    /// to the next timestamp.
    fn ensure_pass(&mut self, at: u64, pass: Pass) {
        let t = self.step_no;
        let Some(s) = self.sched.as_mut() else { return };
        let at = if at <= t && s.firing.is_some_and(|f| pass > f) { t } else { at.max(t + 1) };
        s.queue.insert((at, pass));
    }

    /// Keeps a recurring `pass` in the queue while it has someone to
    /// visit: guarantees it at the next timestamp it fires at — the
    /// current one included while the pass can still fire in it, as the
    /// dense schedule would still reach it there.
    fn rearm(&mut self, pass: Pass) {
        let pending = match pass {
            Pass::Growth => self.cfg.growth_per_step > 0 && !self.growing.is_empty(),
            Pass::Scan => !self.scan_armed.is_empty(),
            Pass::Heal | Pass::Checkpoint => true,
            Pass::Candidates => !self.dirty.is_empty() || !self.always_dirty.is_empty(),
            Pass::Faults | Pass::Deliver | Pass::Wake => false,
        };
        if !pending {
            return;
        }
        let t = self.step_no;
        let same_t = self.sched.as_ref().and_then(|s| s.firing).is_some_and(|f| pass > f);
        if let Some(at) = self.next_at(pass, if same_t { t } else { t + 1 }) {
            self.ensure_pass(at, pass);
        }
    }

    /// Bootstraps the event scheduler from the simulation's current
    /// state: pending deliveries, the fault plan's event times, growth /
    /// scan / liveness arming, and the recurring cadence passes. The
    /// first candidate pass covers the whole grid (everyone dirty), so
    /// the queue starts from the caches the dense schedule would hold.
    fn arm_scheduler(&mut self) {
        self.sched = Some(SchedState { queue: BTreeSet::new(), firing: None });
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
        self.scan_armed = (0..self.machines.len())
            .filter(|&u| {
                let m = &self.machines[u];
                !self.departed[u]
                    && m.resource().verdict().is_none()
                    && m.degraded().is_none()
                    && m.resource().accountant().total_backlog() > 0
            })
            .collect();
        self.dirty = (0..self.machines.len()).collect();
        for pass in Pass::ALL {
            self.rearm(pass);
        }

        self.deferred_live = (0..self.machines.len())
            .filter(|&u| !self.departed[u] && self.machines[u].degraded().is_some())
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
            self.arm_scheduler();
        }
        loop {
            let next = self.sched.as_ref().and_then(|s| s.queue.first()).map(|&(at, _)| at);
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

    /// Pops the passes due at `t` in [`Pass`] order and fires each,
    /// re-arming each recurring pass after it fires; passes ensured
    /// mid-timestamp join `t` when they still rank after the one firing.
    /// Ends with the liveness + verdict finalizer.
    fn process_timestamp(&mut self, t: u64) {
        loop {
            let Some(s) = self.sched.as_mut() else { return };
            let Some(&(_, pass)) = s.queue.first().filter(|&&(at, _)| at == t) else {
                s.firing = None;
                break;
            };
            s.queue.pop_first();
            s.firing = Some(pass);
            self.fire_pass(pass, t);
            self.rearm(pass);
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
        self.machines.iter().map(|m| m.resource().interim()).collect()
    }

    /// Per-resource health, in id order — the `MiningOutcome::statuses`
    /// shape the threaded and net drivers return.
    pub fn statuses(&self) -> Vec<ResourceStatus> {
        self.machines
            .iter()
            .map(|m| m.degraded().map_or(ResourceStatus::Ok, ResourceStatus::Degraded))
            .collect()
    }

    /// Forces an `Output()` refresh everywhere (before sampling metrics)
    /// but on a resource a contained panic poisoned, which keeps what it
    /// had cached.
    pub fn refresh_outputs(&mut self) {
        let live = |m: &&mut RoundMachine<C>| m.degraded() != Some(DegradeReason::Panicked);
        self.machines.par_iter_mut().filter(live).for_each(|m| m.resource_mut().refresh_outputs());
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
            self.machines
                .iter()
                .enumerate()
                .filter(|(u, _)| !self.departed[*u])
                .map(|(_, m)| m.resource().accountant().db()),
        )
    }

    /// Average recall and precision across all present resources against
    /// `truth`; both 0 when no resource is present, since none holds a
    /// rule.
    pub fn global_recall_precision(&self, truth: &RuleSet) -> (f64, f64) {
        let n = self.departed.iter().filter(|&&d| !d).count() as f64;
        if n == 0.0 {
            return (0.0, 0.0);
        }
        let (r_sum, p_sum) = self
            .machines
            .par_iter()
            .enumerate()
            .filter(|(u, _)| !self.departed[*u])
            .map(|(_, m)| {
                let interim = m.resource().interim();
                (gridmine_arm::recall(&interim, truth), gridmine_arm::precision(&interim, truth))
            })
            .reduce(|| (0.0, 0.0), |a, b| (a.0 + b.0, a.1 + b.1));
        (r_sum / n, p_sum / n)
    }

    /// Fraction of present resources whose interim solution contains every
    /// rule of `truth` (per-rule coverage used by the single-itemset
    /// experiments); 0 when no resource is present, since none holds a
    /// rule.
    pub fn coverage(&self, truth: &RuleSet) -> f64 {
        let n = self.departed.iter().filter(|&&d| !d).count() as f64;
        if n == 0.0 {
            return 0.0;
        }
        if truth.is_empty() {
            return 1.0;
        }
        let covered = self
            .machines
            .par_iter()
            .enumerate()
            .filter(|(u, m)| {
                if self.departed[*u] {
                    return false;
                }
                let interim = m.resource().interim();
                truth.iter().all(|rule| interim.contains(rule))
            })
            .count();
        covered as f64 / n
    }

    /// Number of local-database scans completed so far (the x-axis of
    /// Figure 2): steps × budget / current average local size.
    pub fn scans_completed(&self) -> f64 {
        let avg_size: f64 =
            self.machines.iter().map(|m| m.resource().accountant().db_len() as f64).sum::<f64>()
                / self.machines.len() as f64;
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
    use crate::SimSession;
    use gridmine_arm::{correct_rules, Transaction};
    use gridmine_paillier::MockCipher;
    use gridmine_topology::faults::{EdgeFaults, FaultStats};

    fn grid(n: usize, k: i64) -> SimSession<MockCipher> {
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
        SimSession::over(cfg, keys).with_workload(plans).with_items(&items)
    }

    #[test]
    fn visit_gives_one_answer_on_both_sides_of_the_threshold() {
        // Three selected of twelve is a quarter of the grid (the parallel
        // walk); of thirteen it is less (the sparse sequential one).
        let ids = [2usize, 5, 11];
        for len in [12usize, 13] {
            let mut grid: Vec<u64> = (0..len as u64).collect();
            let mut outboxes = vec![usize::MAX; len];
            let got = visit(&mut grid, &mut outboxes, ids, |u, x, out| {
                *x += 100;
                *out = u;
                (u as u64) * 1000 + *x
            });
            assert_eq!(got, vec![(2, 2102), (5, 5105), (11, 11111)], "{len} items");
            let visited: Vec<usize> = (0..len).filter(|&u| grid[u] >= 100).collect();
            assert_eq!(visited, ids, "{len} items: only the selection is visited");
            let paired: Vec<usize> = (0..len).filter(|&u| outboxes[u] == u).collect();
            assert_eq!(paired, ids, "{len} items: each resource is handed its own outbox");
        }
    }

    #[test]
    fn senders_bucket_alike_on_both_sides_of_the_threshold_and_keep_links_fifo() {
        let mut sim = grid(8, 1).with_steps(12).build();
        sim.run_event_driven(12);
        let plan = FaultPlan::new(0xF1F0).with_default_edge(EdgeFaults {
            drop: 0.2,
            duplicate: 0.3,
            jitter: 3,
        });
        // Every resource's resend of all it holds, three times over: each
        // edge carries a run of messages for the fault layer to number.
        let batches: Vec<Vec<Vec<WireMsg<MockCipher>>>> = (0..3)
            .map(|_| {
                (0..8)
                    .map(|u| {
                        let live: Vec<usize> = sim.overlay.neighbors(u).collect();
                        sim.machines[u].heal(&live)
                    })
                    .collect()
            })
            .collect();
        assert!(batches.iter().flatten().all(|msgs| !msgs.is_empty()));
        // All eight senders of eight slots fan out; of 33 slots they run
        // one by one.
        let post_all = |slots: usize| {
            let mut outs: Vec<Outbox> = (0..slots).map(|_| Outbox::under(Some(&plan))).collect();
            let rounds: Vec<Vec<(usize, Posted<MockCipher>)>> = batches
                .iter()
                .enumerate()
                .map(|(round, batch)| {
                    let t = round as u64;
                    let mut sent = batch.clone();
                    sent.resize_with(slots, Vec::new);
                    visit(&mut sent, &mut outs, 0..8, |u, msgs, out| {
                        out.post(u, std::mem::take(msgs), t, &sim.overlay, &sim.rec)
                    })
                })
                .collect();
            let stats: Vec<_> =
                outs.iter().filter_map(|o| o.link.as_ref()).map(|l| l.stats()).collect();
            (rounds, stats)
        };
        let (fanned, fanned_stats) = post_all(8);
        let (serial, serial_stats) = post_all(33);
        let view = |rounds: &[Vec<(usize, Posted<MockCipher>)>]| -> Vec<String> {
            rounds
                .iter()
                .flatten()
                .flat_map(|(u, p)| {
                    p.buckets.iter().map(move |((at, to), msgs)| {
                        let cands: Vec<String> = msgs.iter().map(|m| m.cand.to_string()).collect();
                        format!("{u}->{to}@{at}: {cands:?} of {} sent", p.msgs)
                    })
                })
                .collect()
        };
        assert_eq!(view(&fanned), view(&serial), "the buckets depend on the fan-out");
        assert_eq!(fanned_stats, serial_stats[..8], "the fault tallies depend on the fan-out");
        let faults = fanned_stats.iter().fold(FaultStats::default(), |mut a, s| {
            a.merge(s);
            a
        });
        assert!(faults.dropped > 0 && faults.duplicated > 0 && faults.delayed > 0, "{faults:?}");

        // Per edge, a copy sent later never arrives earlier. A nudge
        // sends one message per rule and edge, and under a plan `post`
        // sorts each edge's messages by rule, so an edge's send order is
        // its rules' order within a post, then post order.
        let mut arrivals: BTreeMap<(usize, usize), Vec<u64>> = BTreeMap::new();
        for round in &fanned {
            for (u, p) in round {
                let mut sent: BTreeMap<usize, Vec<(String, u64)>> = BTreeMap::new();
                for (&(at, to), msgs) in &p.buckets {
                    sent.entry(to)
                        .or_default()
                        .extend(msgs.iter().map(|m| (m.cand.to_string(), at)));
                }
                for (to, mut copies) in sent {
                    copies.sort();
                    arrivals
                        .entry((*u, to))
                        .or_default()
                        .extend(copies.into_iter().map(|(_, at)| at));
                }
            }
        }
        let jittered = arrivals.values().filter(|ats| ats.windows(2).any(|w| w[0] != w[1])).count();
        assert!(jittered > 0, "jitter must spread some edge's arrivals");
        for (edge, ats) in &arrivals {
            assert!(ats.windows(2).all(|w| w[0] <= w[1]), "edge {edge:?} reordered: {ats:?}");
        }
    }

    #[test]
    fn the_queue_takes_a_pass_into_its_own_timestamp_only_after_the_one_firing() {
        let mut sim = grid(4, 1).with_steps(5).build();
        sim.step_no = 5;
        sim.sched = Some(SchedState { queue: BTreeSet::new(), firing: Some(Pass::Scan) });
        // Mid-timestamp, scans firing: candidates still fire at 5; a scan
        // (the pass firing) and growth (ranked before it) wait for 6.
        sim.ensure_pass(5, Pass::Candidates);
        sim.ensure_pass(5, Pass::Scan);
        sim.ensure_pass(3, Pass::Growth);
        // Outside a timestamp a deadline at or before 5 lands on 6, and a
        // pass ensured twice is pending once.
        sim.sched.as_mut().expect("armed").firing = None;
        sim.ensure_pass(5, Pass::Wake);
        sim.ensure_pass(2, Pass::Wake);
        sim.ensure_pass(9, Pass::Deliver);
        sim.ensure_pass(9, Pass::Deliver);
        let want = [
            (5, Pass::Candidates),
            (6, Pass::Growth),
            (6, Pass::Scan),
            (6, Pass::Wake),
            (9, Pass::Deliver),
        ];
        let s = sim.sched.as_ref().expect("armed");
        assert_eq!(s.queue, want.into_iter().collect::<BTreeSet<_>>());
        // Processing 5 pops exactly its own entries and closes the
        // timestamp.
        sim.process_timestamp(5);
        let s = sim.sched.as_ref().expect("armed");
        assert!(s.firing.is_none());
        assert!(s.queue.first().is_some_and(|&(at, _)| at > 5), "{:?}", s.queue);
        assert!(want[1..].iter().all(|e| s.queue.contains(e)));
    }

    #[test]
    fn a_cold_rejoin_leaves_every_gate_and_clock_where_the_crash_found_them() {
        let mut sim = grid(6, 1).with_recovery(RecoveryMode::ColdRestart).with_steps(20).build();
        sim.run_event_driven(20);
        let u = 2;
        let audits = sim.resource(u).export_controller_audits();
        let fresh = gridmine_core::KGate::new(1);
        assert!(audits.iter().any(|a| a.clock > 0 && a.output_gate != fresh), "{audits:?}");
        sim.quarantine(u, DegradeReason::Crashed);
        assert!(sim.resource(u).export_controller_audits().is_empty(), "the crash lost them");
        sim.recover(u);
        // A cold rejoiner has no voting instance to send from, so nothing
        // has moved since the restore; it keeps the send gate of the one
        // edge it rejoined on.
        let anchor: Vec<usize> = sim.overlay().neighbors(u).collect();
        let kept: Vec<_> = audits
            .into_iter()
            .map(|mut a| {
                a.send_gates.retain(|(v, _)| anchor.contains(v));
                a
            })
            .collect();
        assert_eq!(anchor.len(), 1);
        assert!(kept.iter().any(|a| !a.send_gates.is_empty()), "{kept:?}");
        assert_eq!(sim.resource(u).export_controller_audits(), kept);
    }

    #[test]
    fn small_grid_converges_to_centralized_result() {
        let mut sim = grid(8, 1).with_steps(40).build();
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
        let mut sim = grid(4, 6).with_steps(30).build();
        sim.run_event_driven(30);
        sim.refresh_outputs();
        let truth = correct_rules(&sim.current_global_db(), &sim.apriori_cfg());
        let (recall, _) = sim.global_recall_precision(&truth);
        assert_eq!(recall, 0.0, "k-privacy floor must gate all outputs");
    }

    #[test]
    fn attack_surfaces_as_verdict() {
        let mut sim = grid(6, 1).with_steps(20).build();
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
        let mut sim = SimSession::over(cfg, keys)
            .with_workload(plans)
            .with_items(&[Item(1)])
            .with_steps(10)
            .build();
        let before = sim.current_global_db().len();
        sim.run_event_driven(10);
        let after = sim.current_global_db().len();
        assert!(after > before, "databases must grow");
        assert_eq!(after, 200, "everything eventually arrives");
    }

    #[test]
    fn a_grid_with_no_present_resource_scores_zero_not_nan() {
        let plan = (0..3).fold(FaultPlan::new(1), |p, u| p.with_crash(u, 2, None));
        let mut sim = grid(3, 1).with_faults(plan).with_steps(5).build();
        let truth = correct_rules(&sim.current_global_db(), &sim.apriori_cfg());
        sim.run_event_driven(5);
        assert!((0..3).all(|u| sim.is_departed(u)));
        assert_eq!(sim.global_recall_precision(&truth), (0.0, 0.0));
        assert_eq!(sim.coverage(&truth), 0.0);
    }
}
