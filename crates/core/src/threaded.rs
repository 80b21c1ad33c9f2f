//! Asynchronous multithreaded mining — the paper's "asynchronous …
//! involves no global communication patterns" claim, executed literally.
//!
//! [`MineSession::run_threaded`] runs every resource on its own OS
//! thread; links are crossbeam channels; message processing happens
//! whenever a message arrives, in whatever order the scheduler produces
//! (per-edge FIFO is preserved by the channels, which is all the
//! protocol needs — see the controller's Lamport-trace documentation).
//!
//! Quiescence is detected with an atomic in-flight counter: a sender
//! increments it before each send and the receiver decrements after fully
//! processing (its own consequent sends were already counted), so the
//! counter reads zero iff no message exists anywhere in the system. A
//! barrier then aligns the threads for the next scan/candidate round.
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
use std::sync::{Arc, Barrier};

use crossbeam_channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use gridmine_obs::{emit, Event, SharedRecorder};
use gridmine_paillier::HomCipher;
use gridmine_recovery::{RecoveryMode, RetryPolicy};
use gridmine_topology::faults::{FaultPlan, FaultStats};

use crate::chaos::DegradeReason;
use crate::miner::MiningOutcome;
use crate::proxy::ChaosProxy;
use crate::resource::{SecureResource, WireMsg};
use crate::round::{assemble, RoundMachine, RoundSchedule, Scan, Seat};

/// One worker's way out: its fault router plus the channel fabric. A
/// send to a disconnected peer (a dead thread) is dropped, not escalated.
struct Outbox<C: HomCipher> {
    proxy: ChaosProxy<WireMsg<C>>,
    senders: Vec<Sender<WireMsg<C>>>,
    in_flight: Arc<AtomicI64>,
    rec: SharedRecorder,
}

impl<C: HomCipher> Outbox<C> {
    fn post(senders: &[Sender<WireMsg<C>>], in_flight: &AtomicI64, m: WireMsg<C>) {
        in_flight.fetch_add(1, Ordering::SeqCst);
        if senders[m.to].send(m).is_err() {
            in_flight.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Routes `msgs` through the fault layer.
    fn send(&mut self, msgs: Vec<WireMsg<C>>) {
        let Outbox { proxy, senders, in_flight, rec } = self;
        for m in msgs {
            proxy.route(m.from, m.to, m, rec, |m| Self::post(senders, in_flight, m));
        }
    }

    /// Releases the copies parked in earlier phases — their delay has
    /// elapsed.
    fn flush(&mut self) {
        for (_, _, m) in self.proxy.flush() {
            Self::post(&self.senders, &self.in_flight, m);
        }
    }
}

/// Receives until quiescence. A down (crashed/poisoned) machine
/// discards its traffic but keeps the in-flight accounting sound.
/// Consecutive empty polls back off per the [`RetryPolicy`] (capped
/// exponential with seeded jitter; the first poll keeps the legacy
/// 1 ms timeout), so an idle drain does not spin at full tilt.
fn drain<C: HomCipher>(
    machine: &mut RoundMachine<C>,
    rx: &Receiver<WireMsg<C>>,
    out: &mut Outbox<C>,
    retry: &RetryPolicy,
) {
    let mut misses = 0u32;
    loop {
        match rx.recv_timeout(std::time::Duration::from_millis(retry.backoff_ms(misses))) {
            Ok(msg) => {
                misses = 0;
                out.send(machine.receive(&msg));
                out.in_flight.fetch_sub(1, Ordering::SeqCst);
            }
            Err(RecvTimeoutError::Timeout) => {
                if out.in_flight.load(Ordering::SeqCst) == 0 {
                    break;
                }
                misses += 1;
            }
            Err(RecvTimeoutError::Disconnected) => break,
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
    let (senders, receivers): (Vec<_>, Vec<_>) = (0..n).map(|_| unbounded()).unzip();
    let in_flight = Arc::new(AtomicI64::new(0));
    let barrier = Arc::new(Barrier::new(n));

    type Worker<C> = std::thread::JoinHandle<(RoundMachine<C>, FaultStats)>;
    let handles: Vec<Worker<C>> = resources
        .into_iter()
        .zip(receivers)
        .map(|(resource, rx)| {
            let u = resource.id();
            let neighbors = resource.layout().neighbors.clone();
            let schedule = RoundSchedule::of(&plan, u, neighbors, mode);
            let mut machine = RoundMachine::new(resource, schedule, rec.clone());
            let mut out = Outbox {
                proxy: ChaosProxy::new(plan.clone()),
                senders: senders.clone(),
                in_flight: Arc::clone(&in_flight),
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

                    // Scan phase. The barrier between send and drain makes
                    // sure every thread's phase sends are counted in
                    // `in_flight` before anyone can observe zero and leave
                    // its drain loop early.
                    barrier.wait();
                    match machine.scan(tick) {
                        Scan::Crash => image = machine.resource().encode_recovery_image(),
                        Scan::Send { msgs, .. } => {
                            out.flush();
                            out.send(msgs);
                        }
                        Scan::Depart | Scan::Down => {}
                    }
                    barrier.wait();
                    drain(&mut machine, &rx, &mut out, &retry);

                    // Candidate-generation phase.
                    barrier.wait();
                    out.send(machine.candidates());
                    barrier.wait();
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
