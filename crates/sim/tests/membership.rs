//! Dynamic membership: the §1 claim that the algorithm "dynamically
//! adjusts to new data or newly added resources", exercised end to end —
//! including the interaction with the privacy gate: under the paper's
//! literal gate, *new members* are precisely what re-permits disclosure.

use gridmine_arm::{correct_rules, Database, Item, Ratio, Transaction};
use gridmine_core::GridKeys;
use gridmine_paillier::MockCipher;
use gridmine_sim::workload::GrowthPlan;
use gridmine_sim::{SimConfig, Simulation};

fn db_of(u: u64, n: u64, items: &[u32]) -> Database {
    Database::from_transactions((0..n).map(|j| Transaction::of(u * 1000 + j, items)).collect())
}

fn cfg(n: usize, k: i64) -> SimConfig {
    let mut cfg = SimConfig::small().with_resources(n).with_k(k).with_seed(3);
    cfg.growth_per_step = 0;
    cfg.min_freq = Ratio::new(1, 2);
    cfg.min_conf = Ratio::new(1, 2);
    cfg
}

#[test]
fn joined_resource_data_is_incorporated() {
    // 4 resources all voting {1}; a newcomer with {2}-heavy data flips the
    // global picture once enough members joined for the gate (k = 1).
    let keys = GridKeys::<MockCipher>::mock(5);
    let plans: Vec<GrowthPlan> = (0..4).map(|u| GrowthPlan::fixed(db_of(u, 40, &[1]))).collect();
    let items = vec![Item(1), Item(2)];
    let mut sim = Simulation::new(cfg(4, 1), &keys, plans, &items);
    sim.run_event_driven(20);
    sim.refresh_outputs();

    let truth_before = correct_rules(&sim.current_global_db(), &sim.apriori_cfg());
    let (recall, _) = sim.global_recall_precision(&truth_before);
    assert!(recall > 0.99, "pre-join convergence failed: {recall}");

    // Newcomer holds enough {2} transactions to make {2} globally frequent
    // ({1} stays frequent: 160 of 400).
    let id = sim.join_resource(0, GrowthPlan::fixed(db_of(9, 240, &[2])));
    assert_eq!(id, 4);
    sim.run_event_driven(30);
    sim.refresh_outputs();

    let truth_after = correct_rules(&sim.current_global_db(), &sim.apriori_cfg());
    assert_ne!(truth_before, truth_after, "the join must change the ground truth");
    let (recall, precision) = sim.global_recall_precision(&truth_after);
    assert!(recall > 0.99, "post-join recall {recall}");
    assert!(precision > 0.99, "post-join precision {precision}");
    assert!(sim.verdicts.is_empty(), "honest join must not raise verdicts");
}

#[test]
fn statistics_propagate_after_k_joins() {
    // k = 4 over a 4-resource grid holding only {1}-transactions. Four
    // {2}-heavy newcomers join one by one; once the resource population
    // has grown by ≥ k, the paper-literal gate permits fresh disclosures
    // and the new statistic must reach every old member. (Which old
    // members may disclose *during* the joins depends on each gate's
    // per-rule disclosure history — the precise freeze/unfreeze boundary
    // is pinned down by the k-TTP conformance property tests in
    // gridmine-core; this test checks the end-to-end grid behaviour.)
    let keys = GridKeys::<MockCipher>::mock(8);
    let plans: Vec<GrowthPlan> = (0..4).map(|u| GrowthPlan::fixed(db_of(u, 40, &[1]))).collect();
    let items = vec![Item(1), Item(2)];
    let mut sim = Simulation::new(cfg(4, 4), &keys, plans, &items);
    sim.run_event_driven(25);
    sim.refresh_outputs();

    let rule1 = gridmine_arm::Rule::frequency(gridmine_arm::ItemSet::of(&[1]));
    let rule2 = gridmine_arm::Rule::frequency(gridmine_arm::ItemSet::of(&[2]));
    for u in 0..4 {
        assert!(sim.resource(u).interim().contains(&rule1), "resource {u} missing {{1}}");
        assert!(!sim.resource(u).interim().contains(&rule2));
    }

    for j in 0..4u64 {
        sim.join_resource(0, GrowthPlan::fixed(db_of(10 + j, 300, &[2])));
        sim.run_event_driven(20);
    }
    sim.run_event_driven(60);
    sim.refresh_outputs();

    // {2}: 1200 of 1360 transactions — globally frequent; after ≥ k new
    // members everyone may (and must, eventually) learn it.
    let holders = (0..4).filter(|&u| sim.resource(u).interim().contains(&rule2)).count();
    assert_eq!(holders, 4, "new statistic must reach all old members");
    // {1}: 160 of 1360 — no longer frequent; the same disclosures retire it.
    let stale = (0..4).filter(|&u| sim.resource(u).interim().contains(&rule1)).count();
    assert_eq!(stale, 0, "stale statistic must be retired at all old members");
    assert!(sim.verdicts.is_empty());
}

#[test]
fn join_keeps_grid_honest_under_attack_checks() {
    // Rewiring must not make honest traffic look malicious: shares and
    // timestamps survive the epoch change.
    let keys = GridKeys::<MockCipher>::mock(13);
    let plans: Vec<GrowthPlan> = (0..6).map(|u| GrowthPlan::fixed(db_of(u, 30, &[1, 2]))).collect();
    let items = vec![Item(1), Item(2)];
    let mut sim = Simulation::new(cfg(6, 1), &keys, plans, &items);
    sim.run_event_driven(15);
    for parent in [0usize, 2, 4] {
        sim.join_resource(parent, GrowthPlan::fixed(db_of(50 + parent as u64, 30, &[1])));
        sim.run_event_driven(10);
        assert!(
            sim.verdicts.is_empty(),
            "join under parent {parent} produced spurious verdicts: {:?}",
            sim.verdicts
        );
    }
    sim.run_event_driven(40);
    sim.refresh_outputs();
    let truth = correct_rules(&sim.current_global_db(), &sim.apriori_cfg());
    let (recall, precision) = sim.global_recall_precision(&truth);
    assert!(recall > 0.99 && precision > 0.99, "recall {recall}, precision {precision}");
}

#[test]
fn departure_rewires_cleanly_and_new_data_reconverges() {
    // A leaf departs; the protocol must not wedge or raise spurious
    // verdicts, and as new data accumulates at the remaining resources the
    // fresh disclosures converge to the present-resources database
    // (cached pre-departure answers persist until the monotone counts
    // outgrow the k-gate registers — the append-only world of §3).
    let keys = GridKeys::<MockCipher>::mock(17);
    let mut c = cfg(5, 1);
    c.relaxed_gate = true;
    c.growth_per_step = 8;
    let plans: Vec<GrowthPlan> = (0..5)
        .map(|u| GrowthPlan {
            initial: db_of(u, 40, &[1, 2]),
            stream: (0..600).map(|j| Transaction::of(u * 10_000 + 500 + j, &[1])).collect(),
        })
        .collect();
    let items = vec![Item(1), Item(2)];
    let mut sim = Simulation::new(c, &keys, plans, &items);
    sim.run_event_driven(10);
    sim.refresh_outputs();

    // Remove some leaf (every tree has at least two).
    let leaf =
        (0..5).find(|&u| sim.overlay().neighbors(u).count() == 1).expect("a tree has leaves");
    sim.leave_resource(leaf);
    assert!(sim.is_departed(leaf));
    assert_eq!(sim.current_size(), 4);

    // Keep growing: {1}-only data dilutes {2} below the threshold.
    sim.run_event_driven(120);
    sim.refresh_outputs();
    assert!(sim.verdicts.is_empty(), "departure raised verdicts: {:?}", sim.verdicts);

    let truth = correct_rules(&sim.current_global_db(), &sim.apriori_cfg());
    let rule2 = gridmine_arm::Rule::frequency(gridmine_arm::ItemSet::of(&[2]));
    assert!(!truth.contains(&rule2), "{{2}} must have been diluted out");
    let (recall, precision) = sim.global_recall_precision(&truth);
    assert!(recall > 0.99, "post-departure recall {recall}");
    assert!(precision > 0.99, "post-departure precision {precision}");
}
