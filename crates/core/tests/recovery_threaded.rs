//! Crash-restart recovery under both in-process drivers, the synchronous
//! one and the threaded one: a checkpoint restore (serialized through the
//! `Vec<u8>` image codec) resumes with strictly fewer resend exchanges
//! than a cold rejoin — on a toy input and on a Quest T5I2 input the size
//! of the net suite's kill — a forged journal ends in a `MaliciousResource`
//! verdict instead of a panic, the watchdog degrades a restore that
//! overruns its deadline, and the session builder refuses malformed fault
//! plans up front.

use gridmine_arm::{correct_rules, AprioriConfig, Database, Item, Ratio, RuleSet, Transaction};
use gridmine_core::resource::wire_grid;
use gridmine_core::{
    item_domain, run_synchronous, run_threaded_full, DegradeReason, GridKeys, MineConfig,
    MineSession, MiningOutcome, RecoveryMode, RecoveryPolicy, ResourceStatus, RetryPolicy,
    SecureResource, SessionError, Verdict,
};
use gridmine_obs::{EventKind, MemoryRecorder, SharedRecorder};
use gridmine_paillier::MockCipher;
use gridmine_quest::QuestParams;
use gridmine_topology::faults::{EdgeFaults, FaultPlan};
use gridmine_topology::Tree;

/// Path-wired grid over identical-distribution partitions (the
/// threaded-faults idiom): any subset mines the same ruleset.
fn grid(n: usize) -> (Vec<SecureResource<MockCipher>>, RuleSet) {
    let keys = GridKeys::mock(21);
    let generator = gridmine_core::CandidateGenerator::new(Ratio::new(1, 2), Ratio::new(1, 2));
    let items = vec![Item(1), Item(2), Item(3)];
    let dbs: Vec<Database> = (0..n as u64).map(partition).collect();
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

/// Quest T5I2 at the size of the net suite's kill (2 000 transactions
/// over 60 items, minFreq 0.05), split over a path of `n`.
fn t5i2_grid(n: usize) -> (Vec<SecureResource<MockCipher>>, RuleSet) {
    let quest = QuestParams::t5i2().with_transactions(2_000).with_items(60).with_patterns(25);
    let global = gridmine_quest::generate(&quest.with_seed(42));
    let cfg = MineConfig::new(Ratio::from_f64(0.05), Ratio::from_f64(0.5));
    let truth = correct_rules(&global, &AprioriConfig::new(cfg.min_freq, cfg.min_conf));
    let (keys, items, tree) =
        (GridKeys::mock(21), item_domain(global.transactions()), Tree::path(n));
    let mut rs: Vec<SecureResource<MockCipher>> = gridmine_quest::partition(&global, n, 42 ^ 7)
        .into_iter()
        .enumerate()
        .map(|(u, db)| cfg.resource(u, &keys, |v| tree.neighbors(v).collect(), db, &items))
        .collect();
    wire_grid(&mut rs);
    (rs, truth)
}

type Driver = fn(
    Vec<SecureResource<MockCipher>>,
    usize,
    FaultPlan,
    SharedRecorder,
    RecoveryMode,
) -> MiningOutcome;

/// Every in-process driver, by name: each scenario must hold under both.
const DRIVERS: [(&str, Driver); 2] = [
    ("sync", |r, n, p, rec, m| run_synchronous(r, n, p, rec, m).expect("quiesces")),
    ("threaded", run_threaded_full),
];

fn partition(u: u64) -> Database {
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
}

#[test]
fn checkpoint_restore_beats_cold_rejoin_on_resends() {
    assert_warm_beats_cold(|| grid(6));
}

#[test]
fn checkpoint_restore_beats_cold_rejoin_on_a_t5i2_input() {
    assert_warm_beats_cold(|| t5i2_grid(6));
}

/// The journal's acceptance on the grid `grid` builds, under each driver.
fn assert_warm_beats_cold(grid: fn() -> (Vec<SecureResource<MockCipher>>, RuleSet)) {
    // Resource 3 crashes at round 2 and rejoins at round 4; 12 rounds
    // total. A verified restore needs exactly one resend exchange at the
    // rejoin; a cold rejoin pays the periodic cadence to the end of the
    // run (nothing signals its completion).
    let plan = FaultPlan::new(9).with_crash(3, 2, Some(4));
    for (driver, run) in DRIVERS {
        let (rs, truth) = grid();
        let warm = run(
            rs,
            12,
            plan.clone(),
            gridmine_obs::null(),
            RecoveryMode::Checkpoint(RecoveryPolicy::DEFAULT),
        );
        let (rs, _) = grid();
        let cold = run(rs, 12, plan.clone(), gridmine_obs::null(), RecoveryMode::ColdRestart);

        assert_eq!(warm.chaos.replays, 1, "{driver}: one crash, one replay: {:?}", warm.chaos);
        assert!(warm.chaos.checkpoints > 0, "{driver}: checkpoint cadence fired");
        assert_eq!(warm.chaos.rejected, 0, "{driver}: an honest image passes the screens");
        assert!(warm.verdicts.is_empty(), "{driver}: honest recovery is not malice");
        assert!(cold.verdicts.is_empty(), "{driver}: {:?}", cold.verdicts);
        assert_eq!(cold.chaos.replays, 0, "{driver}: a cold rejoin has no journal");

        assert!(warm.chaos.resends > 0, "{driver}: the rejoin exchange was counted");
        assert!(
            warm.chaos.resends < cold.chaos.resends,
            "{driver}: restoring from the journal must cost strictly fewer resends: warm {} vs \
             cold {}",
            warm.chaos.resends,
            cold.chaos.resends
        );

        // Both modes converge everywhere, including the recovered resource.
        for outcome in [&warm, &cold] {
            assert!(outcome.statuses.iter().all(|s| s.is_ok()), "{driver}: {:?}", outcome.statuses);
            for (u, sol) in outcome.solutions.iter().enumerate() {
                assert_eq!(sol, &truth, "{driver}: resource {u} diverged after the crash-restart");
            }
        }
    }
}

#[test]
fn forged_journal_is_rejected_as_malicious_without_panicking() {
    for (driver, run) in DRIVERS {
        let (mut rs, truth) = grid(5);
        // The adversary rewrites resource 2's journal while it is down.
        rs[2].corrupt_recovery_journal();
        let rec = MemoryRecorder::shared();
        let outcome = run(
            rs,
            12,
            FaultPlan::new(9).with_crash(2, 2, Some(4)),
            rec.clone(),
            RecoveryMode::Checkpoint(RecoveryPolicy::DEFAULT),
        );

        assert_eq!(outcome.chaos.rejected, 1, "{driver}: {:?}", outcome.chaos);
        assert_eq!(outcome.chaos.replays, 0, "{driver}: a rejected journal is never applied");
        assert_eq!(rec.count_of(EventKind::RecoveryRejected), 1, "{driver}");
        assert!(
            outcome.verdicts.contains(&Verdict::MaliciousResource(2)),
            "{driver}: forgery must be blamed on the forger: {:?}",
            outcome.verdicts
        );
        // The halted forger goes silent; the survivors still converge.
        for (u, sol) in outcome.solutions.iter().enumerate() {
            if u == 2 {
                assert!(sol.is_empty(), "{driver}: the rejected resource never speaks again");
            } else {
                assert_eq!(sol, &truth, "{driver}: survivor {u} diverged after the forgery");
            }
        }
    }
}

#[test]
fn watchdog_degrades_a_restore_that_overruns_its_deadline() {
    // A zero-millisecond deadline makes any real restore overrun: the
    // watchdog must degrade that one resource, not abort the run.
    let policy = RecoveryPolicy {
        retry: RetryPolicy { deadline_ms: 0, ..RetryPolicy::DEFAULT },
        ..RecoveryPolicy::DEFAULT
    };
    for (driver, run) in DRIVERS {
        let (rs, truth) = grid(5);
        let outcome = run(
            rs,
            10,
            FaultPlan::new(9).with_crash(2, 2, Some(4)),
            gridmine_obs::null(),
            RecoveryMode::Checkpoint(policy),
        );

        assert_eq!(
            outcome.statuses[2],
            ResourceStatus::Degraded(DegradeReason::RecoveryStalled),
            "{driver}: the stalled restore degrades its own resource: {:?}",
            outcome.statuses
        );
        assert!(outcome.chaos.degraded.contains(&2), "{driver}");
        assert!(outcome.verdicts.is_empty(), "{driver}: slowness is not malice");
        for (u, sol) in outcome.surviving_solutions() {
            assert_eq!(sol, &truth, "{driver}: survivor {u} diverged around the stalled resource");
        }
    }
}

fn uniform_dbs(n: u64) -> Vec<Database> {
    (0..n).map(partition).collect()
}

#[test]
fn session_rejects_fault_plans_that_target_missing_resources() {
    let mut cfg = MineConfig::new(Ratio::new(1, 2), Ratio::new(1, 2));
    cfg.rounds = 8;
    let err = MineSession::new(cfg)
        .with_topology(Tree::path(5))
        .with_databases(uniform_dbs(5))
        .with_faults(FaultPlan::new(1).with_crash(9, 2, None))
        .try_run_threaded()
        .unwrap_err();
    assert_eq!(err, SessionError::FaultResourceOutOfRange { resource: 9, capacity: 5 });
}

#[test]
fn session_rejects_fault_ticks_the_run_never_reaches() {
    let mut cfg = MineConfig::new(Ratio::new(1, 2), Ratio::new(1, 2));
    cfg.rounds = 8;
    let err = MineSession::new(cfg)
        .with_topology(Tree::path(5))
        .with_databases(uniform_dbs(5))
        .with_faults(FaultPlan::new(1).with_crash(2, 99, None))
        .try_run_threaded()
        .unwrap_err();
    assert_eq!(err, SessionError::FaultTickOutOfRange { resource: 2, tick: 99, rounds: 8 });
    assert!(err.to_string().contains("tick 99"), "typed error keeps a readable message");
}

#[test]
fn session_rejects_edge_overrides_outside_the_grid() {
    let mut cfg = MineConfig::new(Ratio::new(1, 2), Ratio::new(1, 2));
    cfg.rounds = 8;
    let err = MineSession::new(cfg)
        .with_topology(Tree::path(5))
        .with_databases(uniform_dbs(5))
        .with_faults(FaultPlan::new(1).with_edge(0, 9, EdgeFaults::dropping(0.5)))
        .try_run_threaded()
        .unwrap_err();
    assert_eq!(err, SessionError::FaultEdgeOutOfRange { edge: (0, 9), capacity: 5 });
}

#[test]
fn session_rejects_link_rates_outside_zero_one() {
    // A rate outside [0, 1], NaN included, is a typed refusal before
    // anything is built, on the default edge and on an override alike.
    let nan_duplicate = EdgeFaults { duplicate: f64::NAN, ..EdgeFaults::default() };
    let plans = [
        (
            FaultPlan::new(1).with_default_edge(EdgeFaults::dropping(1.5)),
            SessionError::FaultRateOutOfRange { edge: None, field: "drop" },
        ),
        (
            FaultPlan::new(1).with_edge(3, 2, nan_duplicate),
            SessionError::FaultRateOutOfRange { edge: Some((2, 3)), field: "duplicate" },
        ),
    ];
    for (plan, want) in plans {
        let mut cfg = MineConfig::new(Ratio::new(1, 2), Ratio::new(1, 2));
        cfg.rounds = 8;
        let err = MineSession::new(cfg)
            .with_topology(Tree::path(5))
            .with_databases(uniform_dbs(5))
            .with_faults(plan)
            .try_run()
            .unwrap_err();
        assert_eq!(err, want);
    }
}

#[test]
fn session_accepts_recover_ticks_beyond_the_run() {
    // A recovery scheduled after the last round simply never fires; only
    // the *onset* must land inside the run.
    let mut cfg = MineConfig::new(Ratio::new(1, 2), Ratio::new(1, 2));
    cfg.rounds = 8;
    let outcome = MineSession::new(cfg)
        .with_topology(Tree::path(5))
        .with_databases(uniform_dbs(5))
        .with_faults(FaultPlan::new(1).with_crash(2, 3, Some(99)))
        .try_run()
        .expect("late recovery tick is valid");
    assert_eq!(outcome.statuses[2], ResourceStatus::Degraded(DegradeReason::Crashed));
}

#[test]
fn session_with_recovery_drives_the_full_checkpoint_path() {
    // The builder wires the recovery mode through to either driver:
    // crash, image restore, convergence — all from MineSession.
    let mut cfg = MineConfig::new(Ratio::new(1, 2), Ratio::new(1, 2));
    cfg.rounds = 12;
    let session = || {
        MineSession::new(cfg)
            .with_topology(Tree::path(5))
            .with_databases(uniform_dbs(5))
            .with_faults(FaultPlan::new(7).with_crash(2, 2, Some(4)))
            .with_recovery(RecoveryMode::Checkpoint(RecoveryPolicy::DEFAULT))
    };
    let truth = correct_rules(
        &Database::union_of(uniform_dbs(5).iter()),
        &AprioriConfig::new(Ratio::new(1, 2), Ratio::new(1, 2)),
    );
    for (driver, outcome) in [("sync", session().run()), ("threaded", session().run_threaded())] {
        assert_eq!(outcome.chaos.replays, 1, "{driver}: {:?}", outcome.chaos);
        assert!(outcome.chaos.checkpoints > 0, "{driver}");
        assert!(outcome.verdicts.is_empty(), "{driver}: {:?}", outcome.verdicts);
        assert!(outcome.statuses.iter().all(|s| s.is_ok()), "{driver}: {:?}", outcome.statuses);
        for (u, sol) in outcome.solutions.iter().enumerate() {
            assert_eq!(sol, &truth, "{driver}: resource {u} diverged");
        }
    }
}
