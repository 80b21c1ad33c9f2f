//! Chaos grid: Secure-Majority-Rule under seeded faults.
//!
//! The paper's adversary is malicious but its network is benign; this
//! demo adds the weather — lossy links, a mid-run crash, and a mute
//! (denial-of-service) controller — and shows the surviving honest
//! resources still converging to the fault-free ruleset, with every
//! injected fault accounted in a replayable [`ChaosReport`].
//!
//! ```text
//! cargo run --release --example chaos_grid
//! ```

use gridmine::prelude::*;
use gridmine::sim::runner::simulation_over;

/// Identical-distribution partitions: every subset of resources mines
/// the same ruleset, so survivors can be checked against centralized
/// truth even after faults remove data from the grid.
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

fn main() {
    // ── Part 1: the threaded driver under a fault plan ────────────────
    // Six real OS threads on a path topology; 20 % of messages dropped,
    // 10 % duplicated, jitter of one round, and resource 3 crashes for
    // good at round 2.
    println!("threaded driver: lossy links + mid-run crash");
    let plan = FaultPlan::new(0xC4A05)
        .with_default_edge(EdgeFaults { drop: 0.2, duplicate: 0.1, jitter: 1 })
        .with_crash(3, 2, None);
    let cfg = MineConfig::new(Ratio::new(1, 2), Ratio::new(1, 2));
    let rec = MemoryRecorder::shared();
    let outcome = MineSession::new(cfg)
        .with_keys(GridKeys::<MockCipher>::mock(21))
        .with_topology(Tree::path(6))
        .with_databases(dbs(6))
        .with_faults(plan)
        .with_recorder(rec.clone())
        .run_threaded();

    for (u, status) in outcome.statuses.iter().enumerate() {
        println!("  resource {u}: {status:?}");
    }
    let chaos = &outcome.chaos;
    println!(
        "  {} dropped, {} duplicated, {} delayed, {} crash(es); {} degraded",
        chaos.faults.dropped,
        chaos.faults.duplicated,
        chaos.faults.delayed,
        chaos.faults.crashes,
        chaos.degraded.len(),
    );
    // The structured event log mirrors the fault accounting one-to-one.
    assert_eq!(rec.count_of(EventKind::MessageDropped) as u64, chaos.faults.dropped);
    assert_eq!(rec.count_of(EventKind::ResourceCrashed) as u64, chaos.faults.crashes);
    println!(
        "  event log agrees: {} events total, {} CounterSent\n",
        rec.len(),
        rec.count_of(EventKind::CounterSent),
    );
    assert!(outcome.verdicts.is_empty(), "bad weather must not look malicious");

    let truth = correct_rules(
        &Database::union_of(dbs(6).iter()),
        &AprioriConfig::new(Ratio::new(1, 2), Ratio::new(1, 2)),
    );
    for (u, solution) in outcome.surviving_solutions() {
        assert_eq!(solution, &truth, "survivor {u} diverged");
    }
    println!("  every survivor matches the fault-free ruleset ({} rules)\n", truth.len());

    // ── Part 2: the §6 simulator with a mute controller on top ────────
    // Eight resources over a Barabási–Albert overlay: 15 % drops
    // everywhere, resource 5 crashes at step 20, and resource 6's
    // controller answers no SFE queries at all — its broker spends a
    // bounded retry budget, the resource degrades, and the overlay
    // routes around it.
    println!("simulator: drops + crash + mute controller");
    let mut sim_cfg = SimConfig::small().with_resources(8).with_k(1).with_seed(2);
    sim_cfg.growth_per_step = 0;
    sim_cfg.min_freq = Ratio::new(1, 2);
    sim_cfg.min_conf = Ratio::new(1, 2);
    let mut sim = simulation_over(sim_cfg, dbs(8), &[Item(1), Item(2), Item(3)]);
    sim.inject_faults(
        FaultPlan::new(0xFA57)
            .with_default_edge(EdgeFaults::dropping(0.15))
            .with_crash(5, 20, None),
    );
    sim.resource_mut(6).controller_behavior = ControllerBehavior::Mute;
    sim.resource_mut(6).set_retry_budget(8);
    sim.run_event_driven(60);
    sim.refresh_outputs();

    let report = sim.chaos_report();
    println!(
        "  {} dropped over {} steps of exposure; {} SFE retries; degraded: {:?}",
        report.faults.dropped, report.convergence_delay, report.retries, report.degraded,
    );
    let truth = correct_rules(&sim.current_global_db(), &sim.apriori_cfg());
    let (recall, precision) = sim.global_recall_precision(&truth);
    println!("  survivor recall {recall:.3}, precision {precision:.3}");
    assert!(recall > 0.99 && precision > 0.99, "survivors must converge");
    assert!(sim.verdicts.is_empty(), "bad weather must not look malicious");

    // Same seeds, same run: the simulator's report is replayable
    // evidence (the threaded driver's counts ride on the OS scheduler's
    // interleaving, so only its *schedule* — not its tallies — replays).
    println!("\nsimulator chaos runs replay byte-for-byte — same seeds, same report");
}
