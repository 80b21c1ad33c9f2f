//! Fault tolerance under the threaded driver, with hand-corrupted grids:
//! a mute controller degrades only its own resource, a replaying broker
//! is blamed through the timestamp traces, and scheduled crashes don't
//! take honest survivors down with them.

use gridmine_arm::{correct_rules, AprioriConfig, Database, Item, Ratio, RuleSet, Transaction};
use gridmine_core::attack::{BrokerBehavior, ControllerBehavior};
use gridmine_core::resource::wire_grid;
use gridmine_core::{
    run_threaded_full, DegradeReason, GridKeys, MiningOutcome, RecoveryMode, ResourceStatus,
    SecureResource, Verdict,
};
use gridmine_paillier::MockCipher;
use gridmine_topology::faults::{EdgeFaults, FaultPlan};

/// Path-wired grid over identical-distribution partitions: every subset
/// of the resources mines the same ruleset, so survivors can be checked
/// against centralized truth even when faulty resources drop out.
fn grid(n: usize) -> (Vec<SecureResource<MockCipher>>, RuleSet) {
    let keys = GridKeys::mock(21);
    let generator = gridmine_majority::CandidateGenerator::new(Ratio::new(1, 2), Ratio::new(1, 2));
    let items = vec![Item(1), Item(2), Item(3)];
    let dbs: Vec<Database> = (0..n as u64)
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
        .collect();
    let truth = correct_rules(
        &Database::union_of(dbs.iter()),
        &AprioriConfig::new(Ratio::new(1, 2), Ratio::new(1, 2)),
    );
    let mut rs: Vec<SecureResource<MockCipher>> = dbs
        .into_iter()
        .enumerate()
        .map(|(u, db)| {
            let mut neighbors = Vec::new();
            if u > 0 {
                neighbors.push(u - 1);
            }
            if u + 1 < n {
                neighbors.push(u + 1);
            }
            SecureResource::new(u, &keys, neighbors, db, 1, generator, &items, u as u64)
        })
        .collect();
    wire_grid(&mut rs);
    (rs, truth)
}

/// The threaded driver with no recorder and no crash recovery.
fn run_threaded(
    rs: Vec<SecureResource<MockCipher>>,
    rounds: usize,
    plan: FaultPlan,
) -> MiningOutcome {
    run_threaded_full(rs, rounds, plan, gridmine_obs::null(), RecoveryMode::Disabled)
}

#[test]
fn mute_controller_degrades_only_its_resource() {
    let (mut rs, truth) = grid(5);
    rs[4].controller_behavior = ControllerBehavior::Mute;
    rs[4].set_retry_budget(4);
    let outcome = run_threaded(rs, 6, FaultPlan::none());

    assert_eq!(
        outcome.statuses[4],
        ResourceStatus::Degraded(DegradeReason::MuteController),
        "the mute controller's own resource degrades"
    );
    assert!(outcome.statuses[..4].iter().all(|s| s.is_ok()), "blast radius is one resource");
    assert!(outcome.chaos.retries > 0, "the broker spent retries before giving up");
    assert_eq!(outcome.chaos.degraded, vec![4]);
    assert!(outcome.verdicts.is_empty(), "refusing service is not a protocol forgery");
    for (u, sol) in outcome.surviving_solutions() {
        assert_eq!(sol, &truth, "survivor {u} diverged");
    }
}

#[test]
fn replaying_broker_is_blamed_through_timestamp_traces() {
    // Resource 2's broker selectively replays neighbor 1's counters. The
    // jitter-only plan keeps the anti-entropy resend pass active, so
    // neighbor 1 keeps advancing its Lamport trace past the replay
    // threshold; the reverted (stale) slot then regresses at resource 3's
    // controller.
    let (mut rs, _) = grid(4);
    rs[2].set_broker_behavior(BrokerBehavior::Replay(1));
    let plan =
        FaultPlan::new(7).with_default_edge(EdgeFaults { drop: 0.0, duplicate: 0.0, jitter: 1 });
    let outcome = run_threaded(rs, 8, plan);
    assert!(
        outcome.verdicts.contains(&Verdict::MaliciousResource(1)),
        "replay must surface as a timestamp-regression verdict, got {:?}",
        outcome.verdicts
    );
}

#[test]
fn crash_schedule_spares_honest_survivors() {
    let (rs, truth) = grid(6);
    // Resource 3 (interior) crashes at round 2 and stays down.
    let plan = FaultPlan::new(3).with_crash(3, 2, None);
    let outcome = run_threaded(rs, 8, plan);
    assert_eq!(outcome.statuses[3], ResourceStatus::Degraded(DegradeReason::Crashed));
    assert_eq!(outcome.chaos.faults.crashes, 1);
    let survivors: Vec<usize> = outcome.surviving_solutions().map(|(u, _)| u).collect();
    assert_eq!(survivors, vec![0, 1, 2, 4, 5]);
    for (u, sol) in outcome.surviving_solutions() {
        assert_eq!(sol, &truth, "survivor {u} diverged");
    }
}
