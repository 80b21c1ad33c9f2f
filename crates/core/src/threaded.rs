//! Asynchronous multithreaded mining — the paper's "asynchronous …
//! involves no global communication patterns" claim, executed literally.
//!
//! [`MineSession::run_threaded`] runs every resource on its own OS
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
//! leader, who looks once everybody's sends are in. Under the marker the
//! old poll remains — a receive times out, finds the counter at zero and
//! leaves, backing off while it is not — so a marker that is never posted
//! costs a wait, not a hang.
//!
//! # Fault tolerance
//!
//! Under [`MineSession::with_faults`] every send is threaded through a
//! [`FaultyLink`], injecting the deterministic drop/duplication/jitter
//! and crash schedules of a [`FaultPlan`] (ticks = rounds here). The
//! driver degrades rather than aborts:
//!
//! * a worker panic is caught *inside* the round loop — the thread keeps
//!   meeting its barriers (so siblings never deadlock on a dead peer)
//!   but goes quiet, and the resource is reported
//!   [`ResourceStatus::Degraded`];
//! * a send to a disconnected peer is dropped, not escalated to a panic;
//! * a crashed resource discards its inbound traffic (keeping the
//!   quiescence counter sound) until its scheduled recovery, if any;
//! * under lossy links every round opens with an anti-entropy pass
//!   (`reset_edge` + `nudge`), so an aggregate lost to a drop is resent
//!   instead of being suppressed as a duplicate forever;
//! * a mute controller exhausts its resource's bounded SFE retry budget
//!   and degrades only that resource (see
//!   [`crate::resource::DEFAULT_RETRY_BUDGET`]).
//!
//! The injected faults, retries and degradations surface in
//! [`MiningOutcome::chaos`].

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Barrier};

use gridmine_obs::{emit, Event, SharedRecorder};
use gridmine_paillier::HomCipher;
use gridmine_recovery::{RecoveryMode, RetryPolicy};
use gridmine_topology::faults::{FaultPlan, FaultStats};

use crate::chaos::DegradeReason;
use crate::miner::MiningOutcome;
use crate::proxy::ChaosProxy;
use crate::resource::{SecureResource, WireMsg};
use crate::round::{assemble, RoundMachine, RoundSchedule, Scan, Seat};

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
    /// (see [`Outbox::open_drain`]).
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
}

/// One worker's way out: its fault router in front of the channel fabric.
struct Outbox<C: HomCipher> {
    proxy: ChaosProxy<WireMsg<C>>,
    fabric: Fabric<C>,
    rec: SharedRecorder,
}

impl<C: HomCipher> Outbox<C> {
    /// Routes `msgs` through the fault layer.
    fn send(&mut self, msgs: Vec<WireMsg<C>>) {
        let Outbox { proxy, fabric, rec } = self;
        for m in msgs {
            proxy.route(m.from, m.to, m, rec, |m| fabric.post(m));
        }
    }

    /// Releases the copies parked in earlier phases — their delay has
    /// elapsed.
    fn flush(&mut self) {
        for (_, _, m) in self.proxy.flush() {
            self.fabric.post(m);
        }
    }

    /// Ends a phase's sends and opens its drain. The barrier makes sure
    /// every thread's phase sends are counted in `in_flight` before
    /// anyone can take zero for quiescence; its leader, finding nothing
    /// in flight, ends the phase there and then, since no decrement will.
    fn open_drain(&mut self, barrier: &Barrier) {
        self.fabric.phase += 1;
        if barrier.wait().is_leader() && self.fabric.in_flight.load(Ordering::SeqCst) == 0 {
            self.fabric.wake();
        }
    }
}

/// Receives until the phase is quiescent: until its marker arrives, or,
/// failing that, until a receive times out with nothing in flight. A down
/// (crashed/poisoned) machine discards its traffic but keeps the
/// in-flight accounting sound. Consecutive empty polls back off per the
/// [`RetryPolicy`] (capped exponential with seeded jitter; the first poll
/// keeps the legacy 1 ms timeout), so a drain the marker has not reached
/// does not spin at full tilt. Returns how many polls came back empty.
fn drain<C: HomCipher>(
    machine: &mut RoundMachine<C>,
    rx: &Receiver<Mail<C>>,
    out: &mut Outbox<C>,
    retry: &RetryPolicy,
) -> u32 {
    let (mut misses, mut empty_polls) = (0u32, 0u32);
    loop {
        match rx.recv_timeout(std::time::Duration::from_millis(retry.backoff_ms(misses))) {
            Ok(Mail::Counter(msg)) => {
                misses = 0;
                out.send(machine.receive(&msg));
                out.fabric.settle();
            }
            Ok(Mail::Quiet(phase)) if phase == out.fabric.phase => break,
            // An earlier phase's marker: that phase is over already.
            Ok(Mail::Quiet(_)) => {}
            Err(RecvTimeoutError::Timeout) => {
                empty_polls += 1;
                if out.fabric.in_flight.load(Ordering::SeqCst) == 0 {
                    break;
                }
                misses += 1;
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    empty_polls
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
/// round boundaries. `mode` is the crash-recovery semantics:
///
/// * [`RecoveryMode::Disabled`] — legacy semantics: a "crashed" resource
///   merely goes silent and resumes with its state intact.
/// * [`RecoveryMode::ColdRestart`] — the crash wipes volatile mining
///   state; the rejoined resource rebuilds from periodic anti-entropy
///   resends (its neighbors re-publish on the retry policy's cadence
///   until the run ends, since nothing tells them when it has caught up).
/// * [`RecoveryMode::Checkpoint`] — every resource journals its state
///   deltas; at the crash the journal is serialized to bytes (the
///   file-backed persistence path), and at the recovery tick it is
///   decoded, screened as untrusted input and replayed. A verified
///   restore needs exactly one resend exchange. A restore that overruns
///   the policy deadline is degraded by the watchdog
///   ([`DegradeReason::RecoveryStalled`]) rather than aborting the run.
///
/// What happens at which tick is [`crate::round`]'s; this function owns
/// the threads, channels, barriers and the watchdog's clock.
pub fn run_threaded_full<C: HomCipher + 'static>(
    resources: Vec<SecureResource<C>>,
    rounds: usize,
    plan: FaultPlan,
    rec: SharedRecorder,
    mode: RecoveryMode,
) -> MiningOutcome {
    let n = resources.len();
    for (u, r) in resources.iter().enumerate() {
        assert_eq!(r.id(), u, "resources must be indexed by id");
    }

    // One channel per resource; every thread holds senders to all (the
    // tree structure limits who actually writes to whom).
    let (senders, receivers): (Vec<_>, Vec<_>) = (0..n).map(|_| channel()).unzip();
    let in_flight = Arc::new(AtomicI64::new(0));
    let barrier = Arc::new(Barrier::new(n));

    type Worker<C> = std::thread::JoinHandle<(RoundMachine<C>, FaultStats)>;
    let handles: Vec<Worker<C>> = resources
        .into_iter()
        .zip(receivers)
        .map(|(resource, rx)| {
            let u = resource.id();
            let neighbors = resource.layout().neighbors.to_vec();
            let schedule = RoundSchedule::of(&plan, u, neighbors, mode);
            let mut machine = RoundMachine::new(resource, schedule, rec.clone());
            let mut out = Outbox {
                proxy: ChaosProxy::new(plan.clone()),
                fabric: Fabric {
                    senders: senders.clone(),
                    in_flight: Arc::clone(&in_flight),
                    phase: 0,
                },
                rec: rec.clone(),
            };
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let retry = mode.retry();
                // Serialized recovery image, captured at crash time — the
                // stand-in for the file a real deployment would persist.
                let mut image: Option<Vec<u8>> = None;
                for round in 0..rounds {
                    let tick = round as u64;
                    if u == 0 {
                        // Exactly one thread marks round boundaries, so the
                        // log carries `rounds` RoundAdvanced events total.
                        emit(&out.rec, || Event::RoundAdvanced { tick });
                    }
                    if machine.schedule().restores_at(tick) {
                        // gridlint: allow(determinism) -- recovery watchdog measures real restore latency; it can only degrade a node, never feeds replayed protocol state
                        let t0 = std::time::Instant::now();
                        machine.restore(image.take().as_deref(), || t0.elapsed().as_nanos());
                    }

                    // Scan phase.
                    barrier.wait();
                    match machine.scan(tick) {
                        Scan::Crash => image = machine.resource().encode_recovery_image(),
                        Scan::Send { msgs, .. } => {
                            out.flush();
                            out.send(msgs);
                        }
                        Scan::Depart | Scan::Down => {}
                    }
                    out.open_drain(&barrier);
                    drain(&mut machine, &rx, &mut out, &retry);

                    // Candidate-generation phase.
                    barrier.wait();
                    out.send(machine.candidates());
                    out.open_drain(&barrier);
                    drain(&mut machine, &rx, &mut out, &retry);
                }
                barrier.wait();
                machine.finish(rounds);
                (machine, out.proxy.stats())
            })
        })
        .collect();

    let mut faults = FaultStats::default();
    let seats = handles
        .into_iter()
        .map(|h| match h.join() {
            Ok((machine, stats)) => {
                faults.merge(&stats);
                machine.report().into()
            }
            // A worker died outside the guarded sections (should not
            // happen): report it degraded instead of aborting the mine.
            Err(_) => Seat { degraded: Some(DegradeReason::Panicked), ..Seat::default() },
        })
        .collect();
    assemble(&plan, rounds, seats, faults, &rec)
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
    /// machine, inbox, outbox — with resource 1's inbox beside it and a
    /// counter from 1 that 0 has yet to be handed. Resource 0 is down: it
    /// takes what it is handed out of flight and answers nothing, so the
    /// count in flight is the test's alone to move.
    struct Rig {
        machine: RoundMachine<MockCipher>,
        rx: Receiver<Mail<MockCipher>>,
        out: Outbox<MockCipher>,
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
        let schedule = RoundSchedule::of(&plan, 0, vec![1], RecoveryMode::Disabled);
        let mut machine = RoundMachine::new(r0, schedule, rec.clone());
        assert!(matches!(machine.scan(0), Scan::Down));
        let ((tx, rx), (peer_tx, peer_rx)) = (channel(), channel());
        let fabric =
            Fabric { senders: vec![tx, peer_tx], in_flight: Arc::new(AtomicI64::new(0)), phase: 0 };
        let out = Outbox { proxy: ChaosProxy::new(plan), fabric, rec };
        Rig { machine, rx, out, peer_rx, msg }
    }

    fn quiet_marks(rx: &Receiver<Mail<MockCipher>>) -> Vec<u64> {
        rx.try_iter().filter_map(|m| if let Mail::Quiet(p) = m { Some(p) } else { None }).collect()
    }

    #[test]
    fn a_stale_marker_does_not_end_the_next_phase() {
        let Rig { mut machine, rx, mut out, peer_rx, msg } = rig();
        // Phase 4, one counter in flight — and, ahead of it in the inbox,
        // the marker phase 3 ended on a second time.
        out.fabric.phase = 4;
        out.fabric.senders[0].send(Mail::Quiet(3)).unwrap();
        out.fabric.post(msg);
        let empty_polls = drain(&mut machine, &rx, &mut out, &RetryPolicy::DEFAULT);
        // The counter was handled — only that takes it out of flight —
        // and what ended the drain was the marker that decrement posted.
        assert_eq!(out.fabric.in_flight.load(Ordering::SeqCst), 0, "drained past the stale marker");
        assert_eq!(empty_polls, 0, "woken, not polled");
        assert_eq!(quiet_marks(&peer_rx).last(), Some(&4), "every inbox heard of phase 4's end");
    }

    #[test]
    fn a_post_to_a_dropped_receiver_that_empties_the_flight_still_ends_every_drain() {
        let Rig { mut machine, rx, mut out, peer_rx, msg } = rig();
        out.fabric.phase = 7;
        drop(peer_rx);
        // The only message in flight goes to a peer whose inbox is gone:
        // the decrement that writes it off is the one that reaches zero.
        let to_the_dead = WireMsg::<MockCipher> { from: 0, to: 1, ..msg };
        out.fabric.post(to_the_dead);
        assert_eq!(out.fabric.in_flight.load(Ordering::SeqCst), 0);
        assert_eq!(
            drain(&mut machine, &rx, &mut out, &RetryPolicy::DEFAULT),
            0,
            "woken, not polled"
        );
    }

    #[test]
    fn a_phase_that_opens_with_nothing_in_flight_ends_without_a_back_off_slot() {
        let Rig { mut machine, rx, mut out, peer_rx, .. } = rig();
        // Alone at its barrier, this worker is the leader.
        out.open_drain(&Barrier::new(1));
        assert_eq!(out.fabric.phase, 1);
        assert_eq!(
            drain(&mut machine, &rx, &mut out, &RetryPolicy::DEFAULT),
            0,
            "woken, not polled"
        );
        assert_eq!(quiet_marks(&peer_rx), [1]);
        // With a counter in flight the leader leaves the phase to the
        // decrement that will empty it.
        out.fabric.in_flight.store(1, Ordering::SeqCst);
        out.open_drain(&Barrier::new(1));
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
