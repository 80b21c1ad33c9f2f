//! Asynchronous multithreaded mining — the paper's "asynchronous …
//! involves no global communication patterns" claim, executed literally.
//!
//! [`crate::session::MineSession::run_threaded`] runs every resource on its own OS
//! thread; each inbox is one unbounded `std::sync::mpsc` channel, and
//! message processing happens whenever a message arrives, in whatever
//! order the scheduler produces (per-edge FIFO is preserved by the
//! channel, which is all the protocol needs — see the controller's
//! Lamport-trace documentation). A send to an inbox whose receiver is
//! gone errs, which is how a dead peer is noticed.
//!
//! Quiescence is detected with an atomic in-flight counter: a sender
//! increments it before each send and the receiver decrements after fully
//! processing (its own consequent sends were already counted), so the
//! counter reads zero iff no message exists anywhere in the system. A
//! phase is a round's scan or its candidate generation: every worker
//! sends, a barrier makes sure all those sends are counted, then every
//! worker drains its inbox until the phase is quiescent, and a barrier
//! aligns the threads for the next one.
//!
//! A drain is told of quiescence, it does not poll for it. Nothing is
//! sent during a drain except in reaction to a delivery, so the counter
//! reaches zero exactly once per phase, at one decrement — and the thread
//! that makes it posts a marker carrying the phase's number to every
//! inbox, its own included. A worker leaves its drain on the marker of
//! the phase it is in. Workers count phases in step at the barrier before
//! each drain, and a marker of an earlier phase is ignored: the one
//! decrement outside a drain — a send to a peer whose inbox is gone —
//! can reach zero while others are still sending, but the marker it posts
//! carries the phase before, and a phase that opens with nothing in
//! flight (which no decrement will ever end) is ended by the barrier's
//! leader, who looks once everybody's sends are in. The marker is the only
//! way out of a drain: a receive blocks until mail arrives.
//!
//! # Fault tolerance
//!
//! What a [`FaultPlan`] does to a resource in a round is the in-process
//! round's, the same as under the synchronous driver (see
//! [`crate::inproc`]). What the threads add degrades rather than aborts:
//!
//! * a worker panic is caught *inside* the round loop — the thread keeps
//!   meeting its barriers (so siblings never deadlock on a dead peer)
//!   but goes quiet, and the resource is reported
//!   [`crate::chaos::ResourceStatus::Degraded`];
//! * a send to a disconnected peer is dropped, not escalated to a panic;
//! * a crashed resource's worker still takes its inbound traffic out of
//!   flight, keeping the quiescence counter sound; the recovery image
//!   the crash handed over waits in the worker's station, not in the
//!   resource, until the rejoin tick restores from it.

// No panic on hostile input (DESIGN.md § Static analysis).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::unimplemented, clippy::disallowed_macros))]

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Barrier};

use gridmine_obs::{emit, Event, SharedRecorder};
use gridmine_paillier::HomCipher;
use gridmine_topology::faults::{FaultPlan, FaultStats};

use crate::chaos::DegradeReason;
use crate::inproc::{conclude, stations, Station};
use crate::miner::MiningOutcome;
use crate::recovery::RecoveryMode;
use crate::resource::{SecureResource, WireMsg};
use crate::round::Seat;

/// What travels to an inbox: a counter, or the word that a phase is over.
enum Mail<C: HomCipher> {
    Counter(WireMsg<C>),
    /// Nothing is in flight any more in the phase of this number.
    Quiet(u64),
}

/// The channel fabric as one worker holds it: every inbox, the count of
/// messages in flight, and the number of the phase the worker is in.
struct Fabric<C: HomCipher> {
    senders: Vec<Sender<Mail<C>>>,
    in_flight: Arc<AtomicI64>,
    /// The drain this worker is in, or left last. Workers count in step
    /// (see [`Fabric::open_drain`]).
    phase: u64,
}

impl<C: HomCipher> Fabric<C> {
    /// Puts `m` in flight. A send to a disconnected peer (a dead thread)
    /// is dropped, not escalated.
    fn post(&self, m: WireMsg<C>) {
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        if self.senders[m.to].send(Mail::Counter(m)).is_err() {
            self.settle();
        }
    }

    /// Takes one message out of flight. The decrement that reaches zero is
    /// the one event that ends a phase, so whoever makes it says so.
    fn settle(&self) {
        if self.in_flight.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.wake();
        }
    }

    /// Tells every inbox that this worker's phase is quiescent.
    fn wake(&self) {
        for inbox in &self.senders {
            // An inbox that is gone has no drain to end.
            let _ = inbox.send(Mail::Quiet(self.phase));
        }
    }

    /// Ends a phase's sends and opens its drain. The barrier makes sure
    /// every thread's phase sends are counted in `in_flight` before
    /// anyone can take zero for quiescence; its leader, finding nothing
    /// in flight, ends the phase there and then, since no decrement will.
    fn open_drain(&mut self, barrier: &Barrier) {
        self.phase += 1;
        if barrier.wait().is_leader() && self.in_flight.load(Ordering::SeqCst) == 0 {
            self.wake();
        }
    }
}

/// Receives until the marker of the phase the worker is in arrives. A
/// down (crashed/poisoned) machine discards its traffic but keeps the
/// in-flight accounting sound. The worker's own fabric holds a sender to
/// its inbox, so the inbox never disconnects while the drain runs.
fn drain<C: HomCipher>(station: &mut Station<C>, rx: &Receiver<Mail<C>>, fabric: &Fabric<C>) {
    while let Ok(mail) = rx.recv() {
        match mail {
            Mail::Counter(msg) => {
                station.receive(&msg, |m| fabric.post(m));
                fabric.settle();
            }
            Mail::Quiet(phase) if phase == fabric.phase => return,
            // An earlier phase's marker: that phase is over already.
            Mail::Quiet(_) => {}
        }
    }
}

/// The threaded driver over pre-built (and pre-wired) resources — the
/// engine behind [`crate::session::MineSession::try_run_threaded`], and the
/// entry point for tests that corrupt resources by hand before running
/// them under true concurrency.
///
/// `plan` ticks are protocol rounds. Resources must be indexed by id
/// (resource `u` at position `u`) and already wired — see
/// [`crate::resource::wire_grid`]. Every resource reports to `rec`, the
/// fault layer mirrors its stats there as events, and worker 0 marks
/// round boundaries. Every crash wipes volatile mining state and hands
/// its recovery image to the worker's station; `mode` decides what the
/// rejoin restores from it:
///
/// * [`RecoveryMode::ColdRestart`] — the controller's audits only; the
///   rejoined resource rebuilds from periodic resends (it and its
///   neighbors re-publish on the retry policy's cadence until the run
///   ends, since nothing tells them when it has caught up).
/// * [`RecoveryMode::Checkpoint`] — a crash's image carries the mining
///   state it lost, and at the recovery tick the image is decoded,
///   screened as untrusted input and applied. A verified restore needs exactly one
///   resend exchange. A restore that overruns the policy deadline is
///   degraded by the watchdog ([`DegradeReason::RecoveryStalled`])
///   rather than aborting the run.
///
/// What a resource does in a round is [`crate::inproc`]'s, as under
/// [`crate::inproc::run_synchronous`]; this function owns the threads,
/// channels and barriers.
pub fn run_threaded_full<C: HomCipher + 'static>(
    resources: Vec<SecureResource<C>>,
    rounds: usize,
    plan: FaultPlan,
    rec: SharedRecorder,
    mode: RecoveryMode,
) -> MiningOutcome {
    let grid = stations(resources, &plan, mode, &rec);
    let n = grid.len();

    // One channel per resource; every thread holds senders to all (the
    // tree structure limits who actually writes to whom).
    let (senders, receivers): (Vec<_>, Vec<_>) = (0..n).map(|_| channel()).unzip();
    let in_flight = Arc::new(AtomicI64::new(0));
    let barrier = Arc::new(Barrier::new(n));

    let handles: Vec<_> = grid
        .into_iter()
        .zip(receivers)
        .enumerate()
        .map(|(u, (mut station, rx))| {
            let mut fabric =
                Fabric { senders: senders.clone(), in_flight: Arc::clone(&in_flight), phase: 0 };
            let (barrier, rec) = (Arc::clone(&barrier), rec.clone());
            std::thread::spawn(move || {
                for round in 0..rounds {
                    let tick = round as u64;
                    if u == 0 {
                        // Exactly one thread marks round boundaries, so the
                        // log carries `rounds` RoundAdvanced events total.
                        emit(&rec, || Event::RoundAdvanced { tick });
                    }

                    // Scan phase.
                    barrier.wait();
                    station.scan(tick, |m| fabric.post(m));
                    fabric.open_drain(&barrier);
                    drain(&mut station, &rx, &fabric);

                    // Candidate-generation phase.
                    barrier.wait();
                    station.candidates(|m| fabric.post(m));
                    fabric.open_drain(&barrier);
                    drain(&mut station, &rx, &fabric);
                }
                barrier.wait();
                station.finish(rounds)
            })
        })
        .collect();

    // A worker that died outside the guarded sections (should not
    // happen) is reported degraded instead of aborting the mine.
    let died = || {
        (Seat { degraded: Some(DegradeReason::Panicked), ..Seat::default() }, FaultStats::default())
    };
    conclude(&plan, rounds, handles.into_iter().map(|h| h.join().unwrap_or_else(|_| died())), &rec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ResourceStatus;
    use crate::keyring::GridKeys;
    use crate::miner::MineConfig;
    use crate::session::MineSession;
    use gridmine_arm::{correct_rules, AprioriConfig, Database, Ratio, RuleSet, Transaction};
    use gridmine_paillier::MockCipher;
    use gridmine_topology::faults::EdgeFaults;
    use gridmine_topology::Tree;
    use std::time::{Duration, Instant};

    fn session(seed: u64, cfg: MineConfig, tree: Tree, n: u64) -> MineSession<MockCipher> {
        MineSession::over(cfg, GridKeys::<MockCipher>::mock(seed))
            .with_topology(tree)
            .with_databases(dbs(n))
    }

    fn dbs(n: u64) -> Vec<Database> {
        (0..n)
            .map(|u| {
                Database::from_transactions(
                    (0..40)
                        .map(|j| {
                            let id = u * 40 + j;
                            if j % 4 == 0 {
                                Transaction::of(id, &[3])
                            } else {
                                Transaction::of(id, &[1, 2])
                            }
                        })
                        .collect(),
                )
            })
            .collect()
    }

    fn truth(n: u64, cfg: &MineConfig) -> RuleSet {
        correct_rules(
            &Database::union_of(dbs(n).iter()),
            &AprioriConfig::new(cfg.min_freq, cfg.min_conf),
        )
    }

    /// Resource 0 of a wired two-resource path as its worker holds it —
    /// station, inbox, fabric — with resource 1's inbox beside it and a
    /// counter from 1 that 0 has yet to be handed. Resource 0 is down: it
    /// takes what it is handed out of flight and answers nothing, so the
    /// count in flight is the test's alone to move.
    struct Rig {
        station: Station<MockCipher>,
        rx: Receiver<Mail<MockCipher>>,
        fabric: Fabric<MockCipher>,
        peer_rx: Receiver<Mail<MockCipher>>,
        msg: WireMsg<MockCipher>,
    }

    fn rig() -> Rig {
        let cfg = MineConfig::new(Ratio::new(1, 2), Ratio::new(1, 2));
        let rec = gridmine_obs::null();
        let mut pair = session(17, cfg, Tree::path(2), 2).build(&rec);
        let (mut r1, r0) = (pair.pop().unwrap(), pair.pop().unwrap());
        let msg = r1.step(usize::MAX).into_iter().next().expect("a first scan mails the neighbor");
        assert_eq!((msg.from, msg.to), (1, 0));
        let plan = FaultPlan::new(0).with_crash(0, 0, None);
        let mut station = Station::new(r0, &plan, RecoveryMode::ColdRestart, rec);
        station.scan(0, |m| panic!("a down resource sends nothing: {} -> {}", m.from, m.to));
        let ((tx, rx), (peer_tx, peer_rx)) = (channel(), channel());
        let fabric =
            Fabric { senders: vec![tx, peer_tx], in_flight: Arc::new(AtomicI64::new(0)), phase: 0 };
        Rig { station, rx, fabric, peer_rx, msg }
    }

    fn quiet_marks(rx: &Receiver<Mail<MockCipher>>) -> Vec<u64> {
        rx.try_iter().filter_map(|m| if let Mail::Quiet(p) = m { Some(p) } else { None }).collect()
    }

    /// Runs `drain` on a helper thread and hands the fabric back once it
    /// returns. The deadline is the test's alone, so a marker that is
    /// never posted fails the test instead of hanging it.
    fn drained(
        mut station: Station<MockCipher>,
        rx: Receiver<Mail<MockCipher>>,
        fabric: Fabric<MockCipher>,
    ) -> Fabric<MockCipher> {
        let helper = std::thread::spawn(move || {
            drain(&mut station, &rx, &fabric);
            fabric
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        while !helper.is_finished() {
            assert!(Instant::now() < deadline, "no marker ended the drain within 10 s");
            std::thread::sleep(Duration::from_millis(1));
        }
        helper.join().expect("the drain returned")
    }

    #[test]
    fn a_stale_marker_does_not_end_the_next_phase() {
        let Rig { station, rx, mut fabric, peer_rx, msg } = rig();
        // Phase 4, one counter in flight — and, ahead of it in the inbox,
        // the marker phase 3 ended on a second time.
        fabric.phase = 4;
        fabric.senders[0].send(Mail::Quiet(3)).unwrap();
        fabric.post(msg);
        let fabric = drained(station, rx, fabric);
        // The counter was handled — only that takes it out of flight —
        // and what ended the drain was the marker that decrement posted.
        assert_eq!(fabric.in_flight.load(Ordering::SeqCst), 0, "drained past the stale marker");
        assert_eq!(quiet_marks(&peer_rx), [4], "every inbox heard of phase 4's end");
    }

    #[test]
    fn a_post_to_a_dropped_receiver_that_empties_the_flight_still_ends_every_drain() {
        let Rig { station, rx, mut fabric, peer_rx, msg } = rig();
        fabric.phase = 7;
        drop(peer_rx);
        // The only message in flight goes to a peer whose inbox is gone:
        // the decrement that writes it off is the one that reaches zero,
        // and its marker is the one that ends the drain.
        let to_the_dead = WireMsg::<MockCipher> { from: 0, to: 1, ..msg };
        fabric.post(to_the_dead);
        assert_eq!(fabric.in_flight.load(Ordering::SeqCst), 0);
        let fabric = drained(station, rx, fabric);
        assert_eq!(fabric.in_flight.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn a_phase_that_opens_with_nothing_in_flight_is_ended_by_the_barrier_leader() {
        let Rig { station, rx, mut fabric, peer_rx, .. } = rig();
        // Alone at its barrier, this worker is the leader.
        fabric.open_drain(&Barrier::new(1));
        assert_eq!(fabric.phase, 1);
        let mut fabric = drained(station, rx, fabric);
        assert_eq!(fabric.in_flight.load(Ordering::SeqCst), 0);
        assert_eq!(quiet_marks(&peer_rx), [1]);
        // With a counter in flight the leader leaves the phase to the
        // decrement that will empty it.
        fabric.in_flight.store(1, Ordering::SeqCst);
        fabric.open_drain(&Barrier::new(1));
        assert_eq!(quiet_marks(&peer_rx), [] as [u64; 0]);
    }

    #[test]
    fn threaded_mining_matches_centralized_truth() {
        let cfg = MineConfig::new(Ratio::new(1, 2), Ratio::new(1, 2));
        let outcome = session(11, cfg, Tree::path(6), 6).run_threaded();
        assert!(outcome.verdicts.is_empty());
        assert!(outcome.statuses.iter().all(|s| s.is_ok()));
        assert!(outcome.chaos.is_clean());
        for (u, sol) in outcome.solutions.iter().enumerate() {
            assert_eq!(sol, &truth(6, &cfg), "thread {u} diverged");
        }
    }

    #[test]
    fn threaded_and_synchronous_agree() {
        let cfg = MineConfig::new(Ratio::new(1, 2), Ratio::new(3, 4));
        let sync = session(12, cfg, Tree::star(5), 5).run();
        let threaded = session(12, cfg, Tree::star(5), 5).run_threaded();
        assert_eq!(sync.solutions, threaded.solutions, "schedulers must not change answers");
        assert_eq!(sync.verdicts, threaded.verdicts);
        assert_eq!(sync.statuses, threaded.statuses);
        assert_eq!(sync.chaos, threaded.chaos, "one assembly, one report shape");
    }

    #[test]
    fn threaded_and_synchronous_agree_under_every_fault_class() {
        use crate::recovery::RecoveryPolicy;
        let cfg = MineConfig::new(Ratio::new(1, 2), Ratio::new(1, 2));
        let warm = RecoveryMode::Checkpoint(RecoveryPolicy::DEFAULT);
        let lossy = EdgeFaults { drop: 0.2, duplicate: 0.1, jitter: 1 };
        let crash = FaultPlan::new(3).with_crash(2, 1, Some(3));
        let cases = [
            ("cold rejoin", crash.clone(), RecoveryMode::ColdRestart),
            ("warm rejoin", crash, warm),
            ("crash for good", FaultPlan::new(3).with_crash(4, 2, None), warm),
            ("departure", FaultPlan::new(3).with_departure(0, 3), RecoveryMode::ColdRestart),
            ("lossy links", FaultPlan::new(3).with_default_edge(lossy), RecoveryMode::ColdRestart),
        ];
        for (label, plan, mode) in cases {
            let session = || session(18, cfg, Tree::path(5), 5).with_faults(plan.clone());
            let sync = session().with_recovery(mode).run();
            let threaded = session().with_recovery(mode).run_threaded();
            assert_eq!(sync.solutions, threaded.solutions, "{label}: schedulers changed answers");
            assert_eq!(sync.verdicts, threaded.verdicts, "{label}");
            assert_eq!(sync.statuses, threaded.statuses, "{label}");
            // What the schedule fires is the plan's; how many copies a
            // link drops depends on what the interleaving put on it.
            let fired = |o: &MiningOutcome| {
                let (f, c) = (o.chaos.faults, &o.chaos);
                (f.crashes, f.recoveries, f.departures, c.replays, c.rejected, c.degraded.clone())
            };
            assert_eq!(fired(&sync), fired(&threaded), "{label}");
        }
    }

    #[test]
    fn threaded_detects_attacks_too() {
        // Hand-corrupted grids under the threaded driver are covered in
        // tests/threaded_faults.rs via run_threaded_full; here we pin that an
        // honest grid stays clean under concurrency.
        let cfg = MineConfig::new(Ratio::new(1, 2), Ratio::new(1, 2));
        let outcome = session(13, cfg, Tree::path(4), 4).run_threaded();
        assert!(outcome.verdicts.is_empty(), "honest grid stays clean under threads");
        assert!(outcome.messages > 0);
    }

    #[test]
    fn dropped_messages_are_healed_by_anti_entropy() {
        let cfg = MineConfig::new(Ratio::new(1, 2), Ratio::new(1, 2));
        let plan = FaultPlan::new(99).with_default_edge(EdgeFaults {
            drop: 0.2,
            duplicate: 0.1,
            jitter: 1,
        });
        let outcome = session(14, cfg, Tree::path(5), 5).with_faults(plan).run_threaded();
        assert!(outcome.verdicts.is_empty(), "link faults must not look malicious");
        assert!(outcome.chaos.faults.dropped > 0, "faults must actually fire");
        for (u, sol) in outcome.surviving_solutions() {
            assert_eq!(sol, &truth(5, &cfg), "resource {u} diverged under lossy links");
        }
    }

    #[test]
    fn crashed_resource_degrades_without_stalling_the_grid() {
        let cfg = MineConfig::new(Ratio::new(1, 2), Ratio::new(1, 2));
        // Resource 4 (a path leaf) crashes from round 2 onward.
        let plan = FaultPlan::new(1).with_crash(4, 2, None);
        let outcome = session(15, cfg, Tree::path(5), 5).with_faults(plan).run_threaded();
        assert_eq!(outcome.statuses[4], ResourceStatus::Degraded(DegradeReason::Crashed));
        assert!(outcome.statuses[..4].iter().all(|s| s.is_ok()));
        assert_eq!(outcome.chaos.faults.crashes, 1);
        assert_eq!(outcome.chaos.degraded, vec![4]);
        for (u, sol) in outcome.surviving_solutions() {
            assert_eq!(sol, &truth(5, &cfg), "survivor {u} diverged");
        }
    }

    #[test]
    fn crash_and_recovery_rejoins_the_round_loop() {
        let cfg = MineConfig::new(Ratio::new(1, 2), Ratio::new(1, 2));
        let plan = FaultPlan::new(2).with_crash(2, 1, Some(3));
        let outcome = session(16, cfg, Tree::path(5), 5).with_faults(plan).run_threaded();
        assert!(
            outcome.statuses.iter().all(|s| s.is_ok()),
            "a recovered resource is not degraded: {:?}",
            outcome.statuses
        );
        assert_eq!(outcome.chaos.faults.recoveries, 1);
    }
}
