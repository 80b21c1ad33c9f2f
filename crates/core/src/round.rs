//! The round machine: everything a driver decides *per round* that the
//! paper's Algorithms 1–4 leave open, written once.
//!
//! The algorithms say what a resource does when a counter arrives, when
//! it scans and when it generates candidates. At which tick it is wiped,
//! restored, healed or checkpointed, and how per-resource results fold
//! into a [`MiningOutcome`], is scheduling policy — and every driver
//! (synchronous, threaded, multi-process) must apply the *same* policy
//! or their outcomes stop being comparable. This module owns it:
//!
//! * [`RoundSchedule`] — one resource's slice of the [`FaultPlan`] and
//!   [`RecoveryMode`]: when it is down, which edges heal, when a
//!   checkpoint is due. Serialisable, so the hub ships it to a node
//!   process as is.
//! * [`RoundMachine`] — a [`SecureResource`] plus its schedule and the
//!   poisoned flag. No clock, thread, socket or file: a driver feeds it
//!   ticks, messages and restore images, and forwards what it returns.
//! * [`assemble`] — folds per-resource [`ResourceReport`]s, door
//!   verdicts and driver-side degradations into the outcome, with one
//!   status precedence and the schedule events emitted exactly once.
//!
//! The fault router messages pass through on their way out is
//! [`crate::proxy::ChaosProxy`].

use std::panic::{catch_unwind, AssertUnwindSafe};

use gridmine_arm::RuleSet;
use gridmine_obs::{emit, Event, MetricsSnapshot, SharedRecorder};
use gridmine_paillier::HomCipher;
use gridmine_recovery::RecoveryMode;
use gridmine_topology::faults::{FaultPlan, FaultStats, ResourceFault};
use serde::{Deserialize, Serialize};

use crate::chaos::{ChaosReport, DegradeReason, ResourceStatus};
use crate::controller::Verdict;
use crate::miner::MiningOutcome;
use crate::resource::{SecureResource, WireMsg};

/// One resource's view of the fault plan and recovery mode: its own
/// outage, its neighbors' rejoin ticks and whether links are lossy.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoundSchedule {
    fault: Option<ResourceFault>,
    /// Ascending, so [`RoundSchedule::heal_edges`] is too.
    neighbors: Vec<usize>,
    /// Neighbors scheduled to rejoin, as `(neighbor, recover_tick)`.
    nbr_recovers: Vec<(usize, u64)>,
    edge_faults: bool,
    mode: RecoveryMode,
}

impl RoundSchedule {
    /// Resource `u`'s slice of `plan` under `mode`.
    pub fn of(plan: &FaultPlan, u: usize, mut neighbors: Vec<usize>, mode: RecoveryMode) -> Self {
        neighbors.sort_unstable();
        neighbors.dedup();
        let nbr_recovers = neighbors
            .iter()
            .filter_map(|&v| match plan.fault_of(v) {
                Some(ResourceFault::Crash { recover: Some(rt), .. }) => Some((v, rt)),
                _ => None,
            })
            .collect();
        RoundSchedule {
            fault: plan.fault_of(u),
            neighbors,
            nbr_recovers,
            edge_faults: plan.has_edge_faults(),
            mode,
        }
    }

    /// The same schedule for a resource whose outage is inflicted from
    /// outside (a hard process kill): it never wipes or departs on its
    /// own, but its neighbors still heal toward its successor.
    pub fn without_own_fault(mut self) -> Self {
        self.fault = None;
        self
    }

    /// The recovery mode in force.
    pub fn mode(&self) -> RecoveryMode {
        self.mode
    }

    /// True while the resource is scheduled out at `tick`.
    pub fn down(&self, tick: u64) -> bool {
        self.fault.is_some_and(|f| f.down_at(tick))
    }

    /// True at the tick a wiping mode loses this resource's volatile
    /// state. Under [`RecoveryMode::Disabled`] a crash only silences.
    pub fn wipes_at(&self, tick: u64) -> bool {
        self.mode.wipes()
            && matches!(self.fault, Some(ResourceFault::Crash { at, .. }) if at == tick)
    }

    /// True at the tick a wiped resource rejoins and must be restored.
    pub fn restores_at(&self, tick: u64) -> bool {
        self.mode.wipes() && self.rejoin_tick() == Some(tick)
    }

    /// True at the tick the resource leaves for good.
    pub fn departs_at(&self, tick: u64) -> bool {
        matches!(self.fault, Some(ResourceFault::Depart { at }) if at == tick)
    }

    fn rejoin_tick(&self) -> Option<u64> {
        match self.fault {
            Some(ResourceFault::Crash { recover, .. }) => recover,
            _ => None,
        }
    }

    /// Whether a resend toward a resource that rejoined at `rt` is due:
    /// a verified checkpoint restore needs exactly one exchange; a cold
    /// rejoin needs the periodic cadence to the end of the run, since
    /// nothing signals that it has caught up.
    fn resend_due(&self, rt: u64, tick: u64) -> bool {
        match self.mode {
            RecoveryMode::Checkpoint(_) => tick == rt,
            _ => tick >= rt && (tick - rt).is_multiple_of(self.mode.retry().resend_every.max(1)),
        }
    }

    /// Neighbors that rejoin from a wipe at `tick`, ascending: the edge
    /// toward each restarts at this end too.
    pub(crate) fn rejoined_at(&self, tick: u64) -> Vec<usize> {
        if !self.mode.wipes() {
            return Vec::new();
        }
        self.nbr_recovers.iter().filter(|&&(_, rt)| rt == tick).map(|&(v, _)| v).collect()
    }

    /// Edges whose duplicate-send suppressors are lifted this tick so
    /// the current aggregates go out again, ascending: every edge under
    /// lossy links (a dropped aggregate would otherwise be suppressed as
    /// a duplicate forever) or on this resource's own rejoin, else the
    /// edges toward neighbors that rejoined.
    pub fn heal_edges(&self, tick: u64) -> Vec<usize> {
        let wipes = self.mode.wipes();
        if self.edge_faults
            || (wipes && self.rejoin_tick().is_some_and(|rt| self.resend_due(rt, tick)))
        {
            return self.neighbors.clone();
        }
        if !wipes {
            return Vec::new();
        }
        self.nbr_recovers
            .iter()
            .filter(|&&(_, rt)| self.resend_due(rt, tick))
            .map(|&(v, _)| v)
            .collect()
    }

    /// Whether the scan at `tick` opens with a checkpoint. A cadence of
    /// zero is clamped to one, like every other cadence in the workspace.
    pub fn checkpoint_due(&self, tick: u64) -> bool {
        tick > 0
            && self.mode.policy().is_some_and(|p| tick.is_multiple_of(p.checkpoint_every.max(1)))
    }
}

/// Per-resource protocol tallies: what a [`ResourceReport`] carries and
/// what a node process persists so a successor's report covers its
/// predecessor's life too.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Tallies {
    /// Protocol messages mailed (`SecureResource::msgs_sent`).
    pub msgs_sent: u64,
    /// SFE retries spent against a mute controller.
    pub retries: u64,
    /// Anti-entropy / recovery re-sends.
    pub resends: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Journal replays performed.
    pub replays: u64,
    /// Restores rejected by the untrusted-input screens.
    pub rejected: u64,
    /// Whether the SFE retry budget ever ran dry.
    pub exhausted: bool,
}

impl Tallies {
    /// Length of [`Tallies::to_bytes`].
    pub const BYTES: usize = 56;

    /// The one byte form of a tally set, in a node's `Report` frame and in
    /// its state file alike: seven big-endian words, the flag last.
    pub fn to_bytes(self) -> [u8; Tallies::BYTES] {
        let Tallies { msgs_sent, retries, resends, checkpoints, replays, rejected, exhausted } =
            self;
        let words =
            [msgs_sent, retries, resends, checkpoints, replays, rejected, u64::from(exhausted)];
        let mut out = [0; Tallies::BYTES];
        for (slot, word) in out.chunks_exact_mut(8).zip(words) {
            slot.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// Total inverse of [`Tallies::to_bytes`]: `None` for anything but
    /// exactly one such form.
    pub fn from_bytes(bytes: &[u8]) -> Option<Tallies> {
        if bytes.len() != Tallies::BYTES {
            return None;
        }
        let mut words = [0u64; 7];
        for (word, chunk) in words.iter_mut().zip(bytes.chunks_exact(8)) {
            *word = u64::from_be_bytes(chunk.try_into().ok()?);
        }
        let [msgs_sent, retries, resends, checkpoints, replays, rejected, exhausted @ (0 | 1)] =
            words
        else {
            return None;
        };
        let exhausted = exhausted == 1;
        Some(Tallies { msgs_sent, retries, resends, checkpoints, replays, rejected, exhausted })
    }

    fn of<C: HomCipher>(r: &SecureResource<C>) -> Self {
        Tallies {
            msgs_sent: r.msgs_sent(),
            retries: r.retries_spent(),
            resends: r.resends_sent(),
            checkpoints: r.recovery_checkpoints(),
            replays: r.recovery_replays(),
            rejected: r.recovery_rejected(),
            exhausted: r.retry_exhausted(),
        }
    }

    fn plus(self, other: Tallies) -> Tallies {
        Tallies {
            msgs_sent: self.msgs_sent + other.msgs_sent,
            retries: self.retries + other.retries,
            resends: self.resends + other.resends,
            checkpoints: self.checkpoints + other.checkpoints,
            replays: self.replays + other.replays,
            rejected: self.rejected + other.rejected,
            exhausted: self.exhausted || other.exhausted,
        }
    }
}

/// What one resource contributes to the outcome at the end of a run.
#[derive(Clone, Debug, PartialEq)]
pub struct ResourceReport {
    /// The interim solution `R̃_u`.
    pub solutions: RuleSet,
    /// Verdict that halted this resource, if any.
    pub verdict: Option<Verdict>,
    /// Degradation the resource recorded about itself, if any.
    pub degraded: Option<DegradeReason>,
    /// Protocol tallies, including any carried pre-restart life.
    pub tallies: Tallies,
}

/// What opening a scan phase asks of the driver.
pub enum Scan<C: HomCipher> {
    /// Scheduled crash: volatile state is wiped and the resource is down.
    /// The image the crash left is the driver's to hold for the
    /// successor.
    Crash(Vec<u8>),
    /// Scheduled departure: the resource reports as is and leaves.
    Depart,
    /// Scheduled out or poisoned: nothing to send.
    Down,
    /// Counters to route. `checkpointed` tells a driver with a disk that
    /// the recovery log was just re-based and is worth persisting.
    Send {
        /// Heal resends followed by the scan's own sends.
        msgs: Vec<WireMsg<C>>,
        /// Whether this scan opened with a checkpoint.
        checkpointed: bool,
    },
}

/// One resource as a value a scheduler drives: the protocol state, its
/// schedule, and whether a contained panic poisoned it.
pub struct RoundMachine<C: HomCipher> {
    resource: SecureResource<C>,
    schedule: RoundSchedule,
    /// A protocol call panicked; the resource stays quiet from then on
    /// and reports [`DegradeReason::Panicked`].
    poisoned: bool,
    /// Scheduled out for the round the last [`RoundMachine::scan`] opened.
    down: bool,
    /// Tallies of earlier incarnations of this resource.
    carried: Tallies,
}

impl<C: HomCipher> RoundMachine<C> {
    /// Attaches `resource` to `rec` and arms what the schedule's recovery
    /// mode needs (journal + retry budget under a checkpoint policy).
    pub fn new(
        mut resource: SecureResource<C>,
        schedule: RoundSchedule,
        rec: SharedRecorder,
    ) -> Self {
        resource.set_recorder(rec);
        if let Some(policy) = schedule.mode.policy() {
            resource.arm_recovery();
            resource.set_retry_policy(&policy.retry);
        }
        RoundMachine {
            resource,
            schedule,
            poisoned: false,
            down: false,
            carried: Tallies::default(),
        }
    }

    /// The resource's schedule.
    pub fn schedule(&self) -> &RoundSchedule {
        &self.schedule
    }

    /// The protocol state (for wiring and persistence).
    pub fn resource(&self) -> &SecureResource<C> {
        &self.resource
    }

    /// Mutable protocol state (for wiring).
    pub fn resource_mut(&mut self) -> &mut SecureResource<C> {
        &mut self.resource
    }

    /// Adopts the tallies a previous incarnation persisted.
    pub fn carry(&mut self, tallies: Tallies) {
        self.carried = tallies;
    }

    /// Total tallies: carried life plus this incarnation's.
    pub fn tallies(&self) -> Tallies {
        self.carried.plus(Tallies::of(&self.resource))
    }

    /// Runs `f` on the resource, converting a panic into the poisoned
    /// flag and a default result — the driver keeps meeting its barriers
    /// and the resource degrades instead of taking the run down.
    fn guarded<T: Default>(&mut self, f: impl FnOnce(&mut SecureResource<C>) -> T) -> T {
        let resource = &mut self.resource;
        match catch_unwind(AssertUnwindSafe(|| f(resource))) {
            Ok(v) => v,
            Err(_) => {
                self.poisoned = true;
                T::default()
            }
        }
    }

    fn quiet(&self) -> bool {
        self.poisoned || self.down
    }

    /// Opens round `tick`'s scan phase: crash-wipe or depart if
    /// scheduled, else heal → checkpoint → scan.
    pub fn scan(&mut self, tick: u64) -> Scan<C> {
        self.down = self.schedule.down(tick);
        if self.schedule.wipes_at(tick) {
            return Scan::Crash(self.resource.crash_wipe());
        }
        if self.schedule.departs_at(tick) {
            return Scan::Depart;
        }
        if self.quiet() {
            return Scan::Down;
        }
        // A neighbor's successor starts its counters over (see
        // `SecureResource::restart_edge`), before this end resends to it.
        for v in self.schedule.rejoined_at(tick) {
            self.guarded(|r| r.restart_edge(v));
        }
        let mut msgs = Vec::new();
        let heal = self.schedule.heal_edges(tick);
        if !heal.is_empty() {
            // Resends carry unchanged Lamport traces, so receivers treat
            // them as idempotent, never as replays.
            for v in heal {
                self.resource.reset_edge(v);
            }
            msgs = self.guarded(|r| r.nudge());
        }
        let checkpointed = self.schedule.checkpoint_due(tick);
        if checkpointed {
            self.resource.take_checkpoint(tick);
        }
        msgs.extend(self.guarded(|r| r.step(usize::MAX)));
        Scan::Send { msgs, checkpointed }
    }

    /// Opens the round's candidate-generation phase.
    pub fn candidates(&mut self) -> Vec<WireMsg<C>> {
        if self.quiet() {
            return Vec::new();
        }
        self.guarded(|r| r.generate_candidates())
    }

    /// Handles a delivered counter; a down or poisoned resource discards
    /// it.
    pub fn receive(&mut self, msg: &WireMsg<C>) -> Vec<WireMsg<C>> {
        if self.quiet() {
            return Vec::new();
        }
        self.guarded(|r| r.on_receive(msg))
    }

    /// Rejoins after a wipe: restores from `image` (untrusted bytes,
    /// screened by the resource), the one door under every wiping mode —
    /// the controller's audits, then the journal when armed. `None` (a
    /// successor that found nothing published) is nothing to restore.
    /// The driver owns the clock: `elapsed_nanos` is read once the
    /// restore is done, and an overrun of the policy deadline degrades
    /// this resource ([`DegradeReason::RecoveryStalled`]) rather than
    /// aborting the run.
    pub fn restore(&mut self, image: Option<&[u8]>, elapsed_nanos: impl FnOnce() -> u128) {
        if let Some(bytes) = image {
            self.guarded(|r| r.restore_from_image(bytes));
        }
        let Some(policy) = self.schedule.mode.policy() else { return };
        if elapsed_nanos() > policy.retry.deadline_nanos() {
            self.resource.mark_degraded(DegradeReason::RecoveryStalled);
        }
    }

    /// Closes the run after `rounds` rounds: a live resource refreshes
    /// its outputs once more; one that is out keeps what it had cached.
    pub fn finish(&mut self, rounds: usize) {
        if !self.poisoned && !self.schedule.down(rounds as u64) {
            self.guarded(|r| r.refresh_outputs());
        }
    }

    /// The resource's contribution to the outcome.
    pub fn report(&self) -> ResourceReport {
        ResourceReport {
            solutions: self.resource.interim(),
            verdict: self.resource.verdict(),
            degraded: if self.poisoned {
                Some(DegradeReason::Panicked)
            } else {
                self.resource.degraded()
            },
            tallies: self.tallies(),
        }
    }
}

/// What a driver knows about one resource when the run ends.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Seat {
    /// The resource's own report; `None` if it never delivered one.
    pub report: Option<ResourceReport>,
    /// Verdict the driver issued at its door (undecodable bytes).
    pub door_verdict: Option<Verdict>,
    /// Degradation the driver observed from outside (lost connection,
    /// missed deadline, dead worker).
    pub degraded: Option<DegradeReason>,
    /// Tallies to count when there is no report (last persisted ones).
    pub fallback: Tallies,
}

impl From<ResourceReport> for Seat {
    fn from(report: ResourceReport) -> Self {
        Seat { report: Some(report), ..Seat::default() }
    }
}

/// Folds one [`Seat`] per resource (indexed by id) into the outcome of a
/// run of `rounds` rounds under `plan`. `faults` carries the link stats
/// the routers accumulated; the schedule's crash / recovery / departure
/// events that fired are counted into it and emitted here, once, so
/// event counts equal the [`FaultStats`] tallies under every driver.
pub fn assemble(
    plan: &FaultPlan,
    rounds: usize,
    seats: Vec<Seat>,
    mut faults: FaultStats,
    rec: &SharedRecorder,
) -> MiningOutcome {
    let end = rounds as u64;
    let mut solutions = Vec::with_capacity(seats.len());
    let mut statuses = Vec::with_capacity(seats.len());
    let mut verdicts = Vec::new();
    let mut sum = Tallies::default();
    let mut exhausted = 0u64;
    for (u, seat) in seats.into_iter().enumerate() {
        let tallies = seat.report.as_ref().map_or(seat.fallback, |r| r.tallies);
        sum = sum.plus(tallies);
        exhausted += u64::from(tallies.exhausted);
        verdicts.extend(seat.door_verdict);
        verdicts.extend(seat.report.as_ref().and_then(|r| r.verdict));
        let own = seat.report.as_ref().and_then(|r| r.degraded);
        let panicked = Some(DegradeReason::Panicked);
        let reason = if own == panicked || seat.degraded == panicked {
            panicked
        } else if plan.down(u, end) {
            match plan.fault_of(u) {
                Some(ResourceFault::Depart { .. }) => Some(DegradeReason::Departed),
                _ => Some(DegradeReason::Crashed),
            }
        } else {
            let missing = seat.report.is_none().then_some(DegradeReason::Disconnected);
            own.or(seat.degraded).or(missing)
        };
        statuses.push(reason.map_or(ResourceStatus::Ok, ResourceStatus::Degraded));
        solutions.push(seat.report.map(|r| r.solutions).unwrap_or_default());

        match plan.fault_of(u) {
            Some(ResourceFault::Crash { at, recover }) if at < end => {
                faults.crashes += 1;
                emit(rec, || Event::ResourceCrashed { resource: u as u64, tick: at });
                if let Some(r) = recover.filter(|&r| r <= end) {
                    faults.recoveries += 1;
                    emit(rec, || Event::ResourceRecovered { resource: u as u64, tick: r });
                }
            }
            Some(ResourceFault::Depart { at }) if at < end => {
                faults.departures += 1;
                emit(rec, || Event::ResourceDeparted { resource: u as u64, tick: at });
            }
            _ => {}
        }
    }

    let chaos = ChaosReport {
        faults,
        retries: sum.retries,
        degraded: statuses.iter().enumerate().filter(|(_, s)| !s.is_ok()).map(|(u, _)| u).collect(),
        convergence_delay: plan.onset().map_or(0, |onset| end.saturating_sub(onset)),
        resends: sum.resends,
        checkpoints: sum.checkpoints,
        replays: sum.replays,
        rejected: sum.rejected,
        exhausted,
    };
    MiningOutcome {
        solutions,
        verdicts,
        messages: sum.msgs_sent,
        statuses,
        chaos,
        metrics: MetricsSnapshot::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridmine_arm::{ItemSet, Rule};
    use gridmine_obs::{EventKind, MemoryRecorder};
    use gridmine_recovery::RecoveryPolicy;
    use gridmine_topology::faults::EdgeFaults;

    #[test]
    fn schedule_table() {
        let off = RecoveryMode::Disabled;
        let cold = RecoveryMode::ColdRestart;
        let warm = RecoveryMode::Checkpoint(RecoveryPolicy::DEFAULT);
        let every0 = RecoveryMode::Checkpoint(RecoveryPolicy {
            checkpoint_every: 0,
            ..RecoveryPolicy::DEFAULT
        });
        // Resource 1 of a path 0 – 1 – 2; cadences are the defaults (5).
        let own_crash = FaultPlan::new(1).with_crash(1, 2, Some(4));
        let nbr_crash = FaultPlan::new(1).with_crash(2, 1, Some(3));
        let lossy = FaultPlan::new(1).with_default_edge(EdgeFaults::dropping(0.1));
        let depart = FaultPlan::new(1).with_departure(1, 3);
        let all: &[usize] = &[0, 2];
        let none: &[usize] = &[];

        // (label, plan, mode, tick) → (down, heal_edges, checkpoint_due)
        #[allow(clippy::type_complexity)]
        let rows: Vec<(&str, &FaultPlan, RecoveryMode, u64, bool, &[usize], bool)> = vec![
            ("own crash: up before", &own_crash, warm, 1, false, none, false),
            ("own crash: down at onset", &own_crash, off, 2, true, none, false),
            ("own crash: down until rejoin", &own_crash, cold, 3, true, none, false),
            ("own crash, disabled: silence only, no heal", &own_crash, off, 4, false, none, false),
            ("own crash, cold: heal at rejoin", &own_crash, cold, 4, false, all, false),
            ("own crash, cold: quiet between beats", &own_crash, cold, 5, false, none, false),
            ("own crash, cold: every resend_every from rt", &own_crash, cold, 9, false, all, false),
            ("own crash, cold: … to the end of the run", &own_crash, cold, 14, false, all, false),
            ("own crash, warm: heal exactly once at rt", &own_crash, warm, 4, false, all, false),
            ("own crash, warm: never again", &own_crash, warm, 9, false, none, false),
            ("neighbor rejoin, disabled: nothing", &nbr_crash, off, 3, false, none, false),
            ("neighbor rejoin, cold: that edge at rt", &nbr_crash, cold, 3, false, &[2], false),
            ("neighbor rejoin, cold: not before rt", &nbr_crash, cold, 2, false, none, false),
            ("neighbor rejoin, cold: cadence", &nbr_crash, cold, 8, false, &[2], false),
            ("neighbor rejoin, warm: once at rt", &nbr_crash, warm, 3, false, &[2], false),
            ("neighbor rejoin, warm: never again", &nbr_crash, warm, 8, false, none, false),
            ("lossy links, disabled: every edge, every tick", &lossy, off, 0, false, all, false),
            ("lossy links, cold: every edge, every tick", &lossy, cold, 7, false, all, false),
            ("lossy links, warm: every edge + checkpoint", &lossy, warm, 5, false, all, true),
            ("depart: up before", &depart, cold, 2, false, none, false),
            ("depart: down from onset", &depart, cold, 3, true, none, false),
            ("depart: down for good", &depart, warm, 100, true, none, true),
            ("checkpoint: never at tick 0", &lossy, warm, 0, false, all, false),
            ("checkpoint: off the cadence", &nbr_crash, warm, 6, false, none, false),
            ("checkpoint: on the cadence", &nbr_crash, warm, 10, false, none, true),
            ("checkpoint: none without a policy", &nbr_crash, cold, 10, false, none, false),
            (
                "checkpoint_every = 0 is every round, not never",
                &nbr_crash,
                every0,
                1,
                false,
                none,
                true,
            ),
            ("checkpoint_every = 0: still not tick 0", &nbr_crash, every0, 0, false, none, false),
        ];
        for (label, plan, mode, tick, down, heal, ckpt) in rows {
            let s = RoundSchedule::of(plan, 1, vec![2, 0], mode);
            assert_eq!(s.down(tick), down, "{label}: down({tick})");
            assert_eq!(s.heal_edges(tick), heal, "{label}: heal_edges({tick})");
            assert_eq!(s.checkpoint_due(tick), ckpt, "{label}: checkpoint_due({tick})");
        }

        // A neighbor's rejoin restarts its edge at its rejoin tick only,
        // under a wiping mode: not on a cold cadence's later resends, not
        // on lossy links' anti-entropy.
        for (mode, tick, rejoined) in [
            (off, 3, none),
            (cold, 2, none),
            (cold, 3, &[2][..]),
            (cold, 8, none),
            (warm, 3, &[2][..]),
            (warm, 4, none),
        ] {
            let s = RoundSchedule::of(&nbr_crash, 1, vec![2, 0], mode);
            assert_eq!(s.rejoined_at(tick), rejoined, "{mode:?}: rejoined_at({tick})");
        }
        let s = RoundSchedule::of(&lossy, 1, vec![2, 0], warm);
        assert!(s.rejoined_at(3).is_empty() && s.heal_edges(3) == all);

        // The crash / rejoin / depart ticks, and what a mode makes of them.
        for mode in [off, cold, warm] {
            let s = RoundSchedule::of(&own_crash, 1, all.to_vec(), mode);
            assert_eq!(s.wipes_at(2), mode.wipes(), "{mode:?}");
            assert_eq!(s.restores_at(4), mode.wipes(), "{mode:?}");
            assert!(!s.wipes_at(3) && !s.restores_at(2) && !s.departs_at(2));
            let spared = s.without_own_fault();
            assert!(!spared.down(2) && !spared.wipes_at(2) && !spared.restores_at(4));
            let d = RoundSchedule::of(&depart, 1, all.to_vec(), mode);
            assert!(d.departs_at(3) && !d.departs_at(4) && !d.wipes_at(3));
        }
    }

    #[test]
    fn tallies_words_round_trip_and_nothing_else_decodes() {
        let t = Tallies {
            msgs_sent: u64::MAX,
            retries: 1,
            resends: 2,
            checkpoints: 3,
            replays: 4,
            rejected: 5,
            exhausted: true,
        };
        let value = t.to_bytes();
        assert_eq!((value.len(), Tallies::from_bytes(&value)), (56, Some(t)));
        let mut flag = value;
        flag[55] = 2;
        for bad in [&value[..55], &[value.as_slice(), &[0]].concat(), &flag, &value[..48], b"{}"] {
            assert_eq!(Tallies::from_bytes(bad), None, "{bad:?}");
        }
    }

    fn rule(item: u32) -> Rule {
        Rule::frequency(ItemSet::of(&[item]))
    }

    fn report(degraded: Option<DegradeReason>, msgs_sent: u64) -> ResourceReport {
        ResourceReport {
            solutions: RuleSet::from_rules([rule(1)]),
            verdict: None,
            degraded,
            tallies: Tallies { msgs_sent, ..Tallies::default() },
        }
    }

    #[test]
    fn assemble_applies_one_status_precedence_and_emits_schedule_events_once() {
        use DegradeReason::*;
        let plan = FaultPlan::new(3)
            .with_crash(0, 2, None)
            .with_crash(1, 2, None)
            .with_departure(2, 3)
            .with_crash(3, 1, Some(4))
            .with_crash(7, 5, Some(99));
        let seats = vec![
            // Panicked beats scheduled-down …
            report(Some(Panicked), 1).into(),
            // … which beats what the resource said about itself …
            report(Some(MuteController), 2).into(),
            report(None, 4).into(),
            // … which beats what the driver saw from outside …
            Seat { degraded: Some(Disconnected), ..report(Some(MuteController), 8).into() },
            Seat { degraded: Some(Disconnected), ..report(None, 16).into() },
            // … which beats the bare absence of a report.
            Seat {
                degraded: Some(RecoveryStalled),
                door_verdict: Some(Verdict::MaliciousResource(5)),
                fallback: Tallies { msgs_sent: 32, exhausted: true, ..Tallies::default() },
                ..Seat::default()
            },
            Seat::default(),
            report(None, 64).into(),
            Seat {
                door_verdict: Some(Verdict::MaliciousResource(8)),
                ..ResourceReport {
                    verdict: Some(Verdict::MaliciousBroker(8)),
                    tallies: Tallies { exhausted: true, ..Tallies::default() },
                    ..report(None, 0)
                }
                .into()
            },
        ];
        let mem = MemoryRecorder::shared();
        let rec: SharedRecorder = mem.clone();
        let link = FaultStats { dropped: 3, ..FaultStats::default() };
        let out = assemble(&plan, 8, seats, link, &rec);

        let degraded = |r| ResourceStatus::Degraded(r);
        assert_eq!(
            out.statuses,
            vec![
                degraded(Panicked),
                degraded(Crashed),
                degraded(Departed),
                degraded(MuteController),
                degraded(Disconnected),
                degraded(RecoveryStalled),
                degraded(Disconnected),
                degraded(Crashed),
                ResourceStatus::Ok,
            ]
        );
        assert_eq!(out.chaos.degraded, vec![0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(out.messages, 127, "reports, else the fallback tallies");
        assert_eq!(out.chaos.exhausted, 2);
        assert_eq!(
            out.verdicts,
            vec![
                Verdict::MaliciousResource(5),
                Verdict::MaliciousResource(8),
                Verdict::MaliciousBroker(8)
            ],
            "ascending by resource, the door's verdict before the resource's own"
        );
        assert!(out.solutions[5].is_empty() && out.solutions[0].contains(&rule(1)));

        // Four crashes and a departure fire inside 8 rounds; only
        // resource 3's recovery does (7's lies beyond the run).
        let f = out.chaos.faults;
        assert_eq!((f.dropped, f.crashes, f.recoveries, f.departures), (3, 4, 1, 1));
        assert_eq!(mem.count_of(EventKind::ResourceCrashed) as u64, f.crashes);
        assert_eq!(mem.count_of(EventKind::ResourceRecovered) as u64, f.recoveries);
        assert_eq!(mem.count_of(EventKind::ResourceDeparted) as u64, f.departures);
        assert_eq!(out.chaos.convergence_delay, 7, "earliest onset is tick 1");
    }
}
