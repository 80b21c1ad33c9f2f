//! Chaos acceptance: the simulated grid keeps mining under seeded link
//! loss, a mid-run crash and a mute controller — surviving honest
//! resources converge to the fault-free ruleset, nothing panics, and the
//! chaos report is byte-identical across same-seed runs.

use gridmine_arm::{correct_rules, Database, Item, Ratio, Transaction};
use gridmine_core::attack::ControllerBehavior;
use gridmine_core::ChaosReport;
use gridmine_obs::{EventKind, MemoryRecorder};
use gridmine_paillier::MockCipher;
use gridmine_sim::runner::simulation_over;
use gridmine_sim::{SimConfig, Simulation};
use gridmine_topology::faults::{EdgeFaults, FaultPlan};
use proptest::prelude::*;

const N: usize = 8;

/// Identical-distribution partitions: every subset of resources mines the
/// same ruleset, so survivor convergence can be checked against the
/// fault-free truth even after crashes remove data from the grid.
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

/// Runs the full chaos scenario: ~15 % message drops everywhere, resource
/// 5 crashes at step 20 for good, resource 6's controller goes mute.
fn chaos_run(seed: u64) -> (Simulation<MockCipher>, ChaosReport) {
    let items = vec![Item(1), Item(2), Item(3)];
    let mut sim = simulation_over(cfg(seed), dbs(), &items);
    sim.inject_faults(
        FaultPlan::new(seed ^ 0xFA57)
            .with_default_edge(EdgeFaults::dropping(0.15))
            .with_crash(5, 20, None),
    );
    sim.resource_mut(6).controller_behavior = ControllerBehavior::Mute;
    sim.resource_mut(6).set_retry_budget(8);
    sim.run_event_driven(60);
    sim.refresh_outputs();
    let report = sim.chaos_report();
    (sim, report)
}

#[test]
fn survivors_converge_under_drops_crash_and_mute_controller() {
    let (sim, report) = chaos_run(2);

    // The faults actually fired and were accounted.
    assert!(report.faults.dropped > 0, "drops must fire: {report:?}");
    assert_eq!(report.faults.crashes, 1, "the scheduled crash fired");
    assert!(report.retries > 0, "the mute controller cost retries");
    assert!(report.degraded.contains(&5), "crashed resource is degraded");
    assert!(report.degraded.contains(&6), "mute-controller resource is degraded");
    assert!(report.convergence_delay > 0);
    assert!(sim.is_departed(5) && sim.is_departed(6), "both were routed around");

    // No honest resource was blamed for the weather.
    assert!(sim.verdicts.is_empty(), "link faults must not look malicious: {:?}", sim.verdicts);

    // Surviving honest resources converge to the fault-free ruleset.
    let truth = correct_rules(&sim.current_global_db(), &sim.apriori_cfg());
    assert!(!truth.is_empty());
    let (recall, precision) = sim.global_recall_precision(&truth);
    assert!(recall > 0.99, "survivor recall {recall}");
    assert!(precision > 0.99, "survivor precision {precision}");
}

#[test]
fn event_log_agrees_with_chaos_report() {
    // Same scenario as `chaos_run`, with a structured-event recorder
    // attached: the log's per-type counts must equal the report's tallies
    // (events are emitted at the exact sites the counters increment).
    let items = vec![Item(1), Item(2), Item(3)];
    let mut sim = simulation_over(cfg(2), dbs(), &items);
    let rec = MemoryRecorder::shared();
    sim.set_recorder(rec.clone());
    sim.inject_faults(
        FaultPlan::new(2 ^ 0xFA57)
            .with_default_edge(EdgeFaults::dropping(0.15))
            .with_crash(5, 20, None),
    );
    sim.resource_mut(6).controller_behavior = ControllerBehavior::Mute;
    sim.resource_mut(6).set_retry_budget(8);
    sim.run_event_driven(60);
    sim.refresh_outputs();
    let report = sim.chaos_report();

    assert_eq!(rec.count_of(EventKind::MessageDropped) as u64, report.faults.dropped);
    assert_eq!(rec.count_of(EventKind::MessageDuplicated) as u64, report.faults.duplicated);
    assert_eq!(rec.count_of(EventKind::MessageDelayed) as u64, report.faults.delayed);
    assert_eq!(rec.count_of(EventKind::ResourceCrashed) as u64, report.faults.crashes);
    assert_eq!(rec.count_of(EventKind::ResourceRecovered) as u64, report.faults.recoveries);
    assert_eq!(rec.count_of(EventKind::SfeRetry) as u64, report.retries);
    assert_eq!(rec.count_of(EventKind::ResourceDegraded), report.degraded.len());
    assert_eq!(rec.count_of(EventKind::RoundAdvanced), 60, "one marker per step");
    assert!(
        rec.count_of(EventKind::ResourceQuarantined) >= 2,
        "crash and mute-controller quarantines both logged"
    );
    assert_eq!(rec.count_of(EventKind::VerdictIssued), 0, "weather is not malice");
    assert!(rec.count_of(EventKind::CounterSent) > 0, "protocol traffic was logged");

    // The recovery-layer tallies obey the same invariant (all zero here:
    // recovery is disabled in this scenario, and the log must agree).
    assert_eq!(rec.count_of(EventKind::CheckpointTaken) as u64, report.checkpoints);
    assert_eq!(rec.count_of(EventKind::JournalReplayed) as u64, report.replays);
    assert_eq!(rec.count_of(EventKind::RecoveryRejected) as u64, report.rejected);
    assert_eq!(rec.count_of(EventKind::RetryExhausted) as u64, report.exhausted);
}

#[test]
fn same_seed_yields_byte_identical_chaos_reports() {
    let (_, a) = chaos_run(2);
    let (_, b) = chaos_run(2);
    let ja = serde_json::to_string(&a).expect("report serializes");
    let jb = serde_json::to_string(&b).expect("report serializes");
    assert_eq!(ja, jb, "chaos experiments must be replayable evidence");
}

#[test]
fn different_seeds_change_the_injected_faults() {
    let (_, a) = chaos_run(2);
    let (_, b) = chaos_run(3);
    assert_ne!(a.faults.dropped, b.faults.dropped, "fault seed must matter");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Seeded drops below 40 % plus one connectivity-preserving crash:
    /// surviving honest resources still converge, deterministically per
    /// seed.
    #[test]
    fn lossy_grids_converge_and_replay_deterministically(
        seed in 0u64..1_000_000,
        drop_pct in 0u32..40,
        crash_at in 5u64..30,
    ) {
        let drop = f64::from(drop_pct) / 100.0;
        let crashed = (seed % N as u64) as usize;
        let run = |s: u64| {
            let items = vec![Item(1), Item(2), Item(3)];
            let mut sim = simulation_over(cfg(s), dbs(), &items);
            sim.inject_faults(
                FaultPlan::new(s ^ 0xC4A5)
                    .with_default_edge(EdgeFaults::dropping(drop))
                    .with_crash(crashed, crash_at, None),
            );
            sim.run_event_driven(80);
            sim.refresh_outputs();
            let report = sim.chaos_report();
            (sim, report)
        };

        let (sim, report) = run(seed);
        prop_assert!(sim.verdicts.is_empty(), "faults misread as malice: {:?}", sim.verdicts);
        prop_assert_eq!(report.faults.crashes, 1);
        let truth = correct_rules(&sim.current_global_db(), &sim.apriori_cfg());
        let (recall, precision) = sim.global_recall_precision(&truth);
        prop_assert!(recall > 0.99, "recall {} at drop {}", recall, drop);
        prop_assert!(precision > 0.99, "precision {} at drop {}", precision, drop);

        // Same seed twice → byte-identical report.
        let (_, again) = run(seed);
        prop_assert_eq!(
            serde_json::to_string(&report).expect("serializes"),
            serde_json::to_string(&again).expect("serializes")
        );
    }
}
