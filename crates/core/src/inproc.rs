//! The in-process round, written once: what the synchronous and the
//! threaded driver do with one resource in one round, and the synchronous
//! driver itself.
//!
//! A `Station` is one resource as an in-process driver holds it: its
//! [`RoundMachine`], the [`ChaosProxy`] in front of its out-edges and the
//! recovery image its last crash handed over (the resource keeps only
//! its live log). Each round it restores if it rejoins now, scans,
//! releases the copies parked in earlier rounds, routes its sends
//! through the fault layer, answers what it is handed and generates
//! candidates. The two drivers differ only in how a routed counter
//! reaches its addressee:
//!
//! * [`run_synchronous`] moves every counter on one thread, oldest first,
//!   and a phase ends when nothing is left to move. Per directed edge
//!   that is FIFO, and the choice of what moves next is the send order
//!   itself — a function of the seed and the input — so a run under any
//!   [`FaultPlan`] replays message for message;
//! * [`crate::threaded::run_threaded_full`] gives every station an OS
//!   thread and an inbox, and the interleaving to the OS scheduler.
//!
//! Plan ticks are protocol rounds under both, and both degrade rather
//! than abort:
//!
//! * a delayed copy waits in its sender's proxy for the sender's next
//!   scan, and later copies on its edge wait behind it;
//! * a crash wipes the resource's volatile state, as a killed process
//!   loses it, and the resource discards what it is handed until its
//!   scheduled recovery, if any; its image waits in its station for the
//!   rejoin tick, and a restore that overruns the policy deadline (on the
//!   wall clock) degrades the resource;
//! * under lossy links every round opens with an anti-entropy pass
//!   (`reset_edge` + `nudge`), so an aggregate lost to a drop is resent
//!   instead of being suppressed as a duplicate forever;
//! * a mute controller exhausts its resource's bounded SFE retry budget
//!   and degrades only that resource (see [`crate::RetryPolicy::budget`]).
//!
//! The injected faults, retries and degradations surface in
//! [`MiningOutcome::chaos`].

// No panic on hostile input (DESIGN.md § Static analysis).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::unimplemented, clippy::disallowed_macros))]

use std::collections::VecDeque;

use gridmine_obs::{emit, Event, SharedRecorder};
use gridmine_paillier::HomCipher;
use gridmine_topology::faults::{FaultPlan, FaultStats};

use crate::miner::MiningOutcome;
use crate::proxy::ChaosProxy;
use crate::recovery::RecoveryMode;
use crate::resource::{SecureResource, WireMsg};
use crate::round::{assemble, RoundMachine, RoundSchedule, Scan, Seat};
use crate::session::SessionError;

/// Deliveries one phase of the synchronous driver may take before it
/// gives up on quiescence.
const QUIESCENCE_HOPS: u64 = 10_000_000;

/// One resource as an in-process driver holds it.
pub(crate) struct Station<C: HomCipher> {
    machine: RoundMachine<C>,
    proxy: ChaosProxy<WireMsg<C>>,
    /// What a receive sends, on its way to the proxy; a buffer kept
    /// between deliveries.
    sent: Vec<WireMsg<C>>,
    /// The recovery image the last crash handed over — the stand-in for
    /// the file a node process publishes — until the rejoin restores it.
    image: Option<Vec<u8>>,
    rec: SharedRecorder,
}

impl<C: HomCipher> Station<C> {
    /// `resource` under its slice of `plan` and `mode`, reporting to `rec`.
    pub(crate) fn new(
        resource: SecureResource<C>,
        plan: &FaultPlan,
        mode: RecoveryMode,
        rec: SharedRecorder,
    ) -> Self {
        let schedule = RoundSchedule::of(plan, resource.id(), mode);
        Station {
            machine: RoundMachine::new(resource, schedule, rec.clone()),
            proxy: ChaosProxy::new(plan.clone()),
            sent: Vec::new(),
            image: None,
            rec,
        }
    }

    /// Opens round `tick`: a resource that rejoins now is restored from
    /// the image its crash left, then its scan phase runs. A crash hands
    /// the station its image; a scan that sends hands `post` the copies
    /// parked in earlier rounds, then routes its own.
    #[expect(
        clippy::disallowed_methods,
        reason = "the recovery watchdog measures real restore latency; it can only degrade a \
                  node and never feeds replayed protocol state"
    )]
    pub(crate) fn scan(&mut self, tick: u64, mut post: impl FnMut(WireMsg<C>)) {
        if self.machine.schedule().restores_at(tick) {
            let t0 = std::time::Instant::now();
            self.machine.restore(self.image.take().as_deref(), || t0.elapsed().as_nanos());
        }
        match self.machine.scan(tick) {
            Scan::Crash(image) => self.image = Some(image),
            Scan::Send { msgs, .. } => {
                for (_, _, m) in self.proxy.flush() {
                    post(m);
                }
                self.route(msgs, post);
            }
            Scan::Depart | Scan::Down => {}
        }
    }

    /// Opens the round's candidate-generation phase.
    pub(crate) fn candidates(&mut self, post: impl FnMut(WireMsg<C>)) {
        let msgs = self.machine.candidates();
        self.route(msgs, post);
    }

    /// Handles a delivered counter and routes what it causes.
    pub(crate) fn receive(&mut self, msg: &WireMsg<C>, mut post: impl FnMut(WireMsg<C>)) {
        self.machine.receive(msg, &mut self.sent);
        for m in self.sent.drain(..) {
            self.proxy.route(m.from, m.to, m, &self.rec, &mut post);
        }
    }

    fn route(&mut self, msgs: Vec<WireMsg<C>>, mut post: impl FnMut(WireMsg<C>)) {
        for m in msgs {
            self.proxy.route(m.from, m.to, m, &self.rec, &mut post);
        }
    }

    /// Closes a run of `rounds` rounds: the resource's seat and the link
    /// faults its proxy injected.
    pub(crate) fn finish(mut self, rounds: usize) -> (Seat, FaultStats) {
        self.machine.finish(rounds);
        (self.machine.report().into(), self.proxy.stats())
    }
}

/// One station per resource. Resources must be indexed by id (resource
/// `u` at position `u`) and already wired — see
/// [`crate::resource::wire_grid`].
#[expect(clippy::disallowed_macros, reason = "a wiring contract of the local caller, not input")]
pub(crate) fn stations<C: HomCipher>(
    resources: Vec<SecureResource<C>>,
    plan: &FaultPlan,
    mode: RecoveryMode,
    rec: &SharedRecorder,
) -> Vec<Station<C>> {
    let station = |(u, r): (usize, SecureResource<C>)| {
        assert_eq!(r.id(), u, "resources must be indexed by id");
        Station::new(r, plan, mode, rec.clone())
    };
    resources.into_iter().enumerate().map(station).collect()
}

/// Folds each resource's seat and link stats, in id order, into the
/// outcome of a run of `rounds` rounds under `plan`.
pub(crate) fn conclude(
    plan: &FaultPlan,
    rounds: usize,
    closed: impl IntoIterator<Item = (Seat, FaultStats)>,
    rec: &SharedRecorder,
) -> MiningOutcome {
    let mut faults = FaultStats::default();
    let seats = closed
        .into_iter()
        .map(|(seat, stats)| {
            faults.merge(&stats);
            seat
        })
        .collect();
    assemble(plan, rounds, seats, faults, rec)
}

/// The synchronous driver over pre-built (and pre-wired) resources — the
/// engine behind [`crate::session::MineSession::try_run`], and the entry
/// point for tests that corrupt resources by hand before a replayable
/// run. Its arguments are [`crate::threaded::run_threaded_full`]'s:
/// `plan` ticks are protocol rounds, `mode` is the crash-recovery
/// semantics, and every resource reports to `rec`.
///
/// Each round is scan → delivery to quiescence → candidate generation →
/// delivery to quiescence; every machine runs all `rounds`. A phase that
/// does not quiesce within [`QUIESCENCE_HOPS`] deliveries ends the run
/// with [`SessionError::NoQuiescence`].
pub fn run_synchronous<C: HomCipher>(
    resources: Vec<SecureResource<C>>,
    rounds: usize,
    plan: FaultPlan,
    rec: SharedRecorder,
    mode: RecoveryMode,
) -> Result<MiningOutcome, SessionError> {
    let mut grid = stations(resources, &plan, mode, &rec);
    let mut queue: VecDeque<WireMsg<C>> = VecDeque::new();
    for round in 0..rounds {
        let tick = round as u64;
        let stalled = |phase| move |hops| SessionError::NoQuiescence { round, phase, hops };
        emit(&rec, || Event::RoundAdvanced { tick });
        for s in grid.iter_mut() {
            s.scan(tick, |m| queue.push_back(m));
        }
        deliver(&mut grid, &mut queue, QUIESCENCE_HOPS).map_err(stalled("scan"))?;
        for s in grid.iter_mut() {
            s.candidates(|m| queue.push_back(m));
        }
        deliver(&mut grid, &mut queue, QUIESCENCE_HOPS).map_err(stalled("candidates"))?;
    }
    Ok(conclude(&plan, rounds, grid.into_iter().map(|s| s.finish(rounds)), &rec))
}

/// Hands out queued counters, oldest first, until none is left, or
/// fails with the hop count once `budget` deliveries have not emptied
/// the queue.
fn deliver<C: HomCipher>(
    grid: &mut [Station<C>],
    queue: &mut VecDeque<WireMsg<C>>,
    budget: u64,
) -> Result<(), u64> {
    let mut hops = 0u64;
    while let Some(msg) = queue.pop_front() {
        hops += 1;
        if hops >= budget {
            return Err(hops);
        }
        if let Some(s) = grid.get_mut(msg.to) {
            s.receive(&msg, |m| queue.push_back(m));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::Verdict;
    use crate::miner::MineConfig;
    use crate::recovery::RecoveryPolicy;
    use crate::session::MineSession;
    use gridmine_arm::{Database, Ratio, Transaction};

    #[test]
    fn a_resource_restored_from_its_last_checkpoint_is_not_blamed() {
        // ROADMAP item 1's kill on one thread: `net_ckpt_t5i2`'s input, a
        // checkpoint every round, resource 1 down at tick 2 and back at
        // tick 3 — from the image its tick-1 checkpoint published, which
        // is what a SIGKILL leaves a node's successor, not from the image
        // a crash hands over. Its restored clocks are older than what its
        // neighbors audited since.
        let quest = gridmine_quest::QuestParams::t5i2()
            .with_transactions(2000)
            .with_items(60)
            .with_patterns(25)
            .with_seed(42);
        let global = gridmine_quest::generate(&quest);
        let mut cfg = MineConfig::new(Ratio::from_f64(0.05), Ratio::from_f64(0.5));
        (cfg.rounds, cfg.seed) = (6, 42);
        let dbs = gridmine_quest::partition(&global, 4, 42 ^ 7);
        let mode = RecoveryMode::Checkpoint(RecoveryPolicy::DEFAULT.with_checkpoint_every(1));
        let plan = FaultPlan::none().with_crash(1, 2, Some(3));
        let rec = gridmine_obs::null();

        // `run_synchronous`'s loop, with the published image swapped in.
        let mut grid =
            stations(MineSession::new(cfg).with_databases(dbs).build(&rec), &plan, mode, &rec);
        let mut queue = VecDeque::new();
        let mut published = None;
        for tick in 0..cfg.rounds as u64 {
            for s in grid.iter_mut() {
                s.scan(tick, |m| queue.push_back(m));
            }
            match tick {
                1 => published = grid[1].machine.resource().encode_recovery_image(),
                2 => grid[1].image = published.take(),
                _ => {}
            }
            deliver(&mut grid, &mut queue, QUIESCENCE_HOPS).expect("quiesces");
            for s in grid.iter_mut() {
                s.candidates(|m| queue.push_back(m));
            }
            deliver(&mut grid, &mut queue, QUIESCENCE_HOPS).expect("quiesces");
        }
        let outcome =
            conclude(&plan, cfg.rounds, grid.into_iter().map(|s| s.finish(cfg.rounds)), &rec);

        let sizes: Vec<usize> = outcome.solutions.iter().map(|s| s.len()).collect();
        println!("resources hold {sizes:?}; verdicts {:?}", outcome.verdicts);
        assert_eq!((outcome.chaos.replays, outcome.chaos.rejected), (1, 0));
        assert_eq!(outcome.verdicts, Vec::<Verdict>::new());
    }

    #[test]
    fn a_phase_over_its_hop_budget_is_an_error_not_a_panic() {
        let dbs = (0..2u64)
            .map(|u| {
                let rows = (0..4).map(|j| Transaction::of(4 * u + j, &[1, 2])).collect();
                Database::from_transactions(rows)
            })
            .collect();
        let cfg = MineConfig::new(Ratio::new(1, 2), Ratio::new(1, 2));
        let (rec, plan) = (gridmine_obs::null(), FaultPlan::none());
        let resources = MineSession::new(cfg).with_databases(dbs).build(&rec);
        let mut grid = stations(resources, &plan, RecoveryMode::ColdRestart, &rec);
        let mut queue = VecDeque::new();
        for s in grid.iter_mut() {
            s.scan(0, |m| queue.push_back(m));
        }
        assert_eq!(deliver(&mut grid, &mut queue, 3), Err(3));
    }
}
