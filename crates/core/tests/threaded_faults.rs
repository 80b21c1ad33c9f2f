//! Fault tolerance under both in-process drivers, the synchronous one and
//! the threaded one, with hand-corrupted grids: a mute controller
//! degrades only its own resource, a replaying broker is blamed through
//! the timestamp traces, and scheduled crashes — under lossy links too —
//! don't take honest survivors down with them.

use gridmine_arm::{correct_rules, AprioriConfig, Database, Item, Ratio, RuleSet, Transaction};
use gridmine_core::attack::{BrokerBehavior, ControllerBehavior};
use gridmine_core::resource::wire_grid;
use gridmine_core::{
    run_synchronous, run_threaded_full, DegradeReason, GridKeys, MiningOutcome, RecoveryMode,
    ResourceStatus, SecureResource, Verdict,
};
use gridmine_paillier::MockCipher;
use gridmine_topology::faults::{EdgeFaults, FaultPlan};

/// Path-wired grid over identical-distribution partitions: every subset
/// of the resources mines the same ruleset, so survivors can be checked
/// against centralized truth even when faulty resources drop out.
fn grid(n: usize) -> (Vec<SecureResource<MockCipher>>, RuleSet) {
    let keys = GridKeys::mock(21);
    let generator = gridmine_core::CandidateGenerator::new(Ratio::new(1, 2), Ratio::new(1, 2));
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

/// `make`'s grid for `rounds` rounds under `plan`, with no recorder and
/// cold crash recovery, once per in-process driver, by name.
fn under_both(
    make: impl Fn() -> Vec<SecureResource<MockCipher>>,
    rounds: usize,
    plan: FaultPlan,
) -> [(&'static str, MiningOutcome); 2] {
    let (null, cold) = (gridmine_obs::null, RecoveryMode::ColdRestart);
    [
        ("sync", run_synchronous(make(), rounds, plan.clone(), null(), cold).expect("quiesces")),
        ("threaded", run_threaded_full(make(), rounds, plan, null(), cold)),
    ]
}

#[test]
fn mute_controller_degrades_only_its_resource() {
    let truth = grid(5).1;
    let muted = || {
        let mut rs = grid(5).0;
        rs[4].controller_behavior = ControllerBehavior::Mute;
        rs[4].set_retry_budget(4);
        rs
    };
    for (driver, outcome) in under_both(muted, 6, FaultPlan::none()) {
        assert_eq!(
            outcome.statuses[4],
            ResourceStatus::Degraded(DegradeReason::MuteController),
            "{driver}: the mute controller's own resource degrades"
        );
        let ok = outcome.statuses[..4].iter().all(|s| s.is_ok());
        assert!(ok, "{driver}: blast radius is one resource");
        assert!(outcome.chaos.retries > 0, "{driver}: the broker spent retries before giving up");
        assert_eq!(outcome.chaos.degraded, vec![4], "{driver}");
        assert!(outcome.verdicts.is_empty(), "{driver}: refusing service is not a forgery");
        for (u, sol) in outcome.surviving_solutions() {
            assert_eq!(sol, &truth, "{driver}: survivor {u} diverged");
        }
    }
}

#[test]
fn replaying_broker_is_blamed_through_timestamp_traces() {
    // Resource 2's broker selectively replays neighbor 1's counters. The
    // jitter-only plan keeps the anti-entropy resend pass active, so
    // neighbor 1 keeps advancing its Lamport trace past the replay
    // threshold; the reverted (stale) slot then regresses at resource 3's
    // controller.
    let replaying = || {
        let mut rs = grid(4).0;
        rs[2].set_broker_behavior(BrokerBehavior::Replay(1));
        rs
    };
    let plan =
        FaultPlan::new(7).with_default_edge(EdgeFaults { drop: 0.0, duplicate: 0.0, jitter: 1 });
    for (driver, outcome) in under_both(replaying, 8, plan) {
        assert!(
            outcome.verdicts.contains(&Verdict::MaliciousResource(1)),
            "{driver}: replay must surface as a timestamp-regression verdict, got {:?}",
            outcome.verdicts
        );
    }
}

#[test]
fn crash_schedule_spares_honest_survivors() {
    let truth = grid(6).1;
    // Resource 3 (interior) crashes at round 2 and stays down.
    let plan = FaultPlan::new(3).with_crash(3, 2, None);
    for (driver, outcome) in under_both(|| grid(6).0, 8, plan) {
        let crashed = ResourceStatus::Degraded(DegradeReason::Crashed);
        assert_eq!(outcome.statuses[3], crashed, "{driver}");
        assert_eq!(outcome.chaos.faults.crashes, 1, "{driver}");
        let survivors: Vec<usize> = outcome.surviving_solutions().map(|(u, _)| u).collect();
        assert_eq!(survivors, vec![0, 1, 2, 4, 5], "{driver}");
        for (u, sol) in outcome.surviving_solutions() {
            assert_eq!(sol, &truth, "{driver}: survivor {u} diverged");
        }
    }
}

#[test]
fn lossy_links_and_a_crash_spare_honest_survivors_under_every_seed() {
    // Algorithm 1's padding under loss: when the last counter of a
    // padding sequence is dropped, a pad is the latest counter its
    // neighbor holds until the next anti-entropy pass. An `Output()` at
    // the full population in between must not read a pad as a counted
    // resource whose sum is off by its whole support: the literal gate
    // would keep that answer for good. One thread, so every seed replays.
    let truth = grid(6).1;
    for seed in 0..64 {
        let plan = FaultPlan::new(0xC4A05 ^ seed)
            .with_default_edge(EdgeFaults { drop: 0.2, duplicate: 0.1, jitter: 1 })
            .with_crash(3, 2, None);
        let outcome =
            run_synchronous(grid(6).0, 6, plan, gridmine_obs::null(), RecoveryMode::ColdRestart)
                .expect("quiesces");
        assert!(outcome.verdicts.is_empty(), "seed {seed}: {:?}", outcome.verdicts);
        for (u, sol) in outcome.surviving_solutions() {
            assert_eq!(sol, &truth, "seed {seed}: survivor {u} diverged");
        }
    }
}
