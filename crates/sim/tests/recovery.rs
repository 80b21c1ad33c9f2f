//! Crash-restart recovery acceptance in the simulated grid: a
//! checkpoint+journal restore resumes with strictly fewer anti-entropy
//! resends than a cold rejoin, a forged journal is rejected as malice
//! without a panic, and a crashed-and-recovered run converges to the
//! fault-free frequent-itemset verdicts.

use gridmine_arm::{correct_rules, Database, Item, Ratio, Transaction};
use gridmine_core::{ChaosReport, RecoveryMode, RecoveryPolicy, Verdict};
use gridmine_obs::{Event, EventKind, FanoutRecorder, MemoryRecorder, Metrics, SharedRecorder};
use gridmine_paillier::MockCipher;
use gridmine_sim::runner::simulation_over;
use gridmine_sim::{ObsSummary, SimConfig, Simulation};
use gridmine_topology::faults::FaultPlan;
use proptest::prelude::*;
use std::sync::Arc;

const N: usize = 8;
const CRASHER: usize = 5;

/// Identical-distribution partitions (as in the chaos suite): every
/// subset of resources mines the same ruleset, so a recovered grid can
/// be checked against centralized truth.
fn dbs() -> Vec<Database> {
    (0..N as u64)
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

fn cfg(seed: u64) -> SimConfig {
    let mut cfg = SimConfig::small().with_resources(N).with_k(1).with_seed(seed);
    cfg.growth_per_step = 0;
    cfg.min_freq = Ratio::new(1, 2);
    cfg.min_conf = Ratio::new(1, 2);
    cfg
}

/// One crash-restart scenario: resource 5 goes down at step 40 — late
/// enough that the grid is in steady state, so a *verified* restore has
/// nothing left to rescan — and rejoins at step 44. No link faults, so
/// every resend in the report comes from rejoin healing.
fn recovery_run(mode: RecoveryMode) -> (Simulation<MockCipher>, ChaosReport) {
    let items = vec![Item(1), Item(2), Item(3)];
    let mut sim = simulation_over(cfg(2), dbs(), &items);
    sim.set_recovery(mode);
    sim.inject_faults(FaultPlan::new(0xBEEF).with_crash(CRASHER, 40, Some(44)));
    sim.run_event_driven(70);
    sim.refresh_outputs();
    let report = sim.chaos_report();
    (sim, report)
}

#[test]
fn checkpoint_restore_beats_cold_rejoin_on_resends() {
    let (warm_sim, warm) = recovery_run(RecoveryMode::Checkpoint(RecoveryPolicy::DEFAULT));
    let (cold_sim, cold) = recovery_run(RecoveryMode::ColdRestart);

    // The journal was exercised end to end: checkpoints were taken on
    // the cadence, the crash triggered exactly one replay, nothing was
    // rejected and nobody was blamed.
    assert!(warm.checkpoints > 0, "checkpoint cadence never fired: {warm:?}");
    assert_eq!(warm.replays, 1, "one crash, one journal replay: {warm:?}");
    assert_eq!(warm.rejected, 0, "an honest journal passes the screens");
    assert!(warm_sim.verdicts.is_empty(), "honest recovery is not malice: {:?}", warm_sim.verdicts);
    assert!(cold_sim.verdicts.is_empty());
    assert_eq!(cold.replays, 0, "a cold rejoin has no journal to replay");

    // The measured value of the journal: a restored resource resumes
    // where it left off, a cold one pays anti-entropy resends until its
    // state is rebuilt.
    assert!(cold.resends > 0, "cold rejoin must rebuild through resends: {cold:?}");
    assert!(
        warm.resends < cold.resends,
        "restoring from the journal must cost strictly fewer resends: warm {} vs cold {}",
        warm.resends,
        cold.resends
    );

    // Both modes converge back to the fault-free ruleset.
    for (sim, label) in [(&warm_sim, "warm"), (&cold_sim, "cold")] {
        assert!(!sim.is_departed(CRASHER), "{label}: the crasher rejoined");
        let truth = correct_rules(&sim.current_global_db(), &sim.apriori_cfg());
        assert!(!truth.is_empty());
        let (recall, precision) = sim.global_recall_precision(&truth);
        assert!(recall > 0.99, "{label} recall {recall}");
        assert!(precision > 0.99, "{label} precision {precision}");
    }
}

#[test]
fn forged_journal_is_rejected_as_malicious_without_panicking() {
    let items = vec![Item(1), Item(2), Item(3)];
    let mut sim = simulation_over(cfg(2), dbs(), &items);
    let rec = MemoryRecorder::shared();
    sim.set_recorder(rec.clone());
    sim.set_recovery(RecoveryMode::Checkpoint(RecoveryPolicy::DEFAULT));
    sim.inject_faults(FaultPlan::new(0xBEEF).with_crash(CRASHER, 40, Some(44)));
    // The adversary rewrites the journal while the node is down.
    sim.resource_mut(CRASHER).corrupt_recovery_journal();
    sim.run_event_driven(70);
    sim.refresh_outputs();
    let report = sim.chaos_report();

    // Exactly one rejection, surfaced as a MaliciousResource verdict —
    // not a panic, not a silent acceptance.
    assert_eq!(report.rejected, 1, "{report:?}");
    assert_eq!(report.replays, 0, "a rejected journal is never applied");
    assert_eq!(rec.count_of(EventKind::RecoveryRejected), 1);
    assert!(
        sim.verdicts.iter().any(|&(_, v)| v == Verdict::MaliciousResource(CRASHER)),
        "forgery must be blamed on the forger: {:?}",
        sim.verdicts
    );
    assert_eq!(
        sim.verdicts.iter().filter(|&&(_, v)| matches!(v, Verdict::MaliciousResource(_))).count(),
        1,
        "exactly one resource is blamed"
    );

    // The halted forger stays silent; everyone else keeps mining.
    let truth = correct_rules(&sim.current_global_db(), &sim.apriori_cfg());
    assert!(!truth.is_empty());
    for u in (0..N).filter(|&u| u != CRASHER) {
        let interim = sim.resource(u).interim();
        assert!(
            gridmine_arm::recall(&interim, &truth) > 0.99
                && gridmine_arm::precision(&interim, &truth) > 0.99,
            "survivor {u} diverged after the forgery was contained"
        );
    }
    assert!(sim.resource(CRASHER).interim().is_empty(), "the forger never speaks again");
}

#[test]
fn recovery_events_agree_with_the_chaos_report() {
    // PR 3's audit-trail invariant extends to the recovery events: the
    // structured log's per-type counts equal the report's tallies, and
    // the resend-flagged CounterSent events are exactly the resends the
    // report (and the metrics registry) accounted.
    let items = vec![Item(1), Item(2), Item(3)];
    let mut sim = simulation_over(cfg(2), dbs(), &items);
    let rec = MemoryRecorder::shared();
    let metrics = Metrics::shared();
    let sinks: Vec<SharedRecorder> = vec![rec.clone(), metrics.clone()];
    sim.set_recorder(Arc::new(FanoutRecorder::new(sinks)));
    sim.set_recovery(RecoveryMode::ColdRestart);
    sim.inject_faults(FaultPlan::new(0xBEEF).with_crash(CRASHER, 40, Some(44)));
    sim.run_event_driven(70);
    sim.refresh_outputs();
    let report = sim.chaos_report();

    assert_eq!(rec.count_of(EventKind::CheckpointTaken) as u64, report.checkpoints);
    assert_eq!(rec.count_of(EventKind::JournalReplayed) as u64, report.replays);
    assert_eq!(rec.count_of(EventKind::RecoveryRejected) as u64, report.rejected);
    assert_eq!(rec.count_of(EventKind::RetryExhausted) as u64, report.exhausted);
    let resend_events = sim_resend_count(&rec.snapshot());
    assert!(report.resends > 0, "the cold rejoin exercised the resend path");
    assert_eq!(resend_events, report.resends, "every resend is flagged on its CounterSent event");

    // The metrics registry split the resent traffic out of the totals.
    let snap = metrics.snapshot();
    assert_eq!(snap.resent_msgs, report.resends);
    assert!(snap.resent_bytes > 0, "resent wire volume was accounted");
    assert!(snap.resent_msgs <= snap.msgs_sent(), "resends are a subset of sends");
    assert!(snap.resent_bytes <= snap.bytes_on_wire);
    let summary = ObsSummary::from(&snap);
    assert_eq!(summary.resent_msgs, snap.resent_msgs);
    assert_eq!(summary.resent_bytes, snap.resent_bytes);
}

fn sim_resend_count(events: &[Event]) -> u64 {
    events.iter().filter(|e| matches!(e, Event::CounterSent { resend: true, .. })).count() as u64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// A crash at an arbitrary tick followed by a checkpoint restore
    /// converges to the same frequent-itemset verdicts as the fault-free
    /// run of the same seed — the journal is a faithful substitute for
    /// never having crashed.
    #[test]
    fn checkpoint_recovery_matches_the_fault_free_verdicts(
        seed in 0u64..1_000_000,
        crash_at in 5u64..30,
    ) {
        let crashed = (seed % N as u64) as usize;
        let items = vec![Item(1), Item(2), Item(3)];

        let mut faulty = simulation_over(cfg(seed), dbs(), &items);
        faulty.set_recovery(RecoveryMode::Checkpoint(RecoveryPolicy::DEFAULT));
        faulty.inject_faults(
            FaultPlan::new(seed ^ 0x5EED).with_crash(crashed, crash_at, Some(crash_at + 4)),
        );
        faulty.run_event_driven(70);
        faulty.refresh_outputs();
        let report = faulty.chaos_report();

        let mut clean = simulation_over(cfg(seed), dbs(), &items);
        clean.run_event_driven(70);
        clean.refresh_outputs();

        prop_assert!(faulty.verdicts.is_empty(), "recovery misread as malice: {:?}", faulty.verdicts);
        prop_assert_eq!(report.replays, 1, "the journal was replayed once: {:?}", report);
        prop_assert_eq!(report.rejected, 0);
        for u in 0..N {
            let recovered = faulty.resource(u).interim();
            let baseline = clean.resource(u).interim();
            prop_assert_eq!(
                recovered,
                baseline,
                "resource {} diverged from the fault-free verdicts (crash at {})",
                u,
                crash_at
            );
        }
    }
}
