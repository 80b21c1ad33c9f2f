//! A living grid: resources join, data gets deleted, a resource departs —
//! and the mining keeps tracking the truth.
//!
//! Demonstrates the §1 claim that Secure-Majority-Rule "dynamically
//! adjusts to new data or newly added resources", plus §3's
//! deletion-as-negating-transaction model. Runs on the mock cipher (the
//! protocol code is identical; see the quickstart for real Paillier).
//!
//! ```text
//! cargo run --release --example dynamic_grid
//! ```

use gridmine::prelude::*;
use gridmine::sim::workload::GrowthPlan;

fn db_of(resource: u64, n: u64, items: &[u32]) -> Database {
    Database::from_transactions(
        (0..n).map(|j| Transaction::of(resource * 100_000 + j, items)).collect(),
    )
}

fn report(sim: &Simulation<MockCipher>, label: &str) {
    let truth = correct_rules(&sim.current_global_db(), &sim.apriori_cfg());
    let (recall, precision) = sim.global_recall_precision(&truth);
    println!(
        "{label:<44} | {:>4} resources | truth {:>2} rules | recall {recall:.2} precision {precision:.2}",
        sim.current_size(),
        truth.len(),
    );
}

fn main() {
    let mut cfg = SimConfig::small().with_resources(6).with_k(1).with_seed(11);
    cfg.growth_per_step = 0;
    cfg.relaxed_gate = true; // track updates from a static membership
    cfg.min_freq = Ratio::new(1, 2);
    cfg.min_conf = Ratio::new(1, 2);

    // Six clinics reporting co-occurring diagnoses {1,2}.
    let plans: Vec<GrowthPlan> = (0..6).map(|u| GrowthPlan::fixed(db_of(u, 50, &[1, 2]))).collect();
    let keys = GridKeys::<MockCipher>::mock(3);
    let items = vec![Item(1), Item(2), Item(3)];
    let mut sim =
        SimSession::over(cfg, keys).with_workload(plans).with_items(&items).with_steps(130).build();

    sim.run_event_driven(25);
    sim.refresh_outputs();
    report(&sim, "initial grid converged");

    // Two {3}-heavy clinics join: {3} becomes globally frequent.
    for j in 0..2u64 {
        sim.join_resource(0, GrowthPlan::fixed(db_of(10 + j, 200, &[3])));
    }
    sim.run_event_driven(35);
    sim.refresh_outputs();
    report(&sim, "after 2 joins ({3}-heavy data)");

    // A data-quality audit retracts half of clinic 0's records: §3's
    // negating transactions, appended like any other data.
    let negations: Vec<Transaction> = sim
        .resource(0)
        .accountant()
        .db()
        .transactions()
        .iter()
        .take(25)
        .enumerate()
        .map(|(i, t)| t.negation_of(900_000 + i as u64))
        .collect();
    sim.resource_mut(0).accountant_mut().append(negations);
    sim.run_event_driven(35);
    sim.refresh_outputs();
    report(&sim, "after retracting 25 records via negation");

    // A leaf departs; the grid rewires and keeps going.
    let leaf = (0..sim.overlay().tree().capacity())
        .find(|&u| !sim.is_departed(u) && sim.overlay().neighbors(u).count() == 1)
        .expect("every tree has a leaf");
    sim.leave_resource(leaf);
    sim.run_event_driven(35);
    sim.refresh_outputs();
    report(&sim, &format!("after resource {leaf} departed"));

    assert!(sim.verdicts.is_empty(), "an honest dynamic grid raises no verdicts");
    println!("\nno verdicts raised — joins, deletions and departures are all honest-path events");
}
