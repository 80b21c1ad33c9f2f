//! Dynamic databases (§3): resources keep mining while their local
//! databases grow — fresh transactions *and* negations of earlier ones
//! stream in. The suite pins convergence under churn to the post-stream
//! ground truth.

use std::collections::VecDeque;

use gridmine_arm::{correct_rules, AprioriConfig, Database, Item, Ratio, Transaction};
use gridmine_sim::{churn_plans, GrowthPlan, SimConfig, SimSession};

const N: usize = 6;
const FRESH: usize = 20;
const NEGATIONS: usize = 8;
const SEED: u64 = 11;

/// Identical-distribution partitions (same shape as the chaos suite):
/// every resource mines the same ruleset, so churned clones preserve
/// the distribution and the global truth stays well-defined.
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
    cfg.growth_per_step = 4;
    cfg.min_freq = Ratio::new(1, 2);
    cfg.min_conf = Ratio::new(1, 2);
    cfg
}

#[test]
fn convergence_under_streaming_churn() {
    let plans = churn_plans(dbs(), FRESH, NEGATIONS, SEED);
    assert!(
        plans.iter().all(|p| p.stream.iter().any(|t| t.polarity() == -1)),
        "every stream must carry negations"
    );

    let steps = 200u64;
    let mut sim = SimSession::new(cfg(SEED))
        .with_workload(plans)
        .with_items(&[Item(1), Item(2), Item(3)])
        .with_steps(steps)
        .build();
    sim.run_event_driven(steps);
    sim.refresh_outputs();

    // Honest churn raises no verdicts and every resource finishes.
    assert!(sim.verdicts.is_empty(), "churn looked malicious: {:?}", sim.verdicts);
    assert!(sim.statuses().iter().all(|s| s.is_ok()), "statuses: {:?}", sim.statuses());

    // The engine consumed the whole stream: the global log holds every
    // record, and the net size subtracts the negations (each retracts
    // exactly one earlier transaction).
    let global = sim.current_global_db();
    assert_eq!(global.len(), N * (40 + FRESH + NEGATIONS), "whole stream consumed");
    assert_eq!(global.net_len(), N * (40 + FRESH - NEGATIONS), "negations must net out");

    // Convergence to the post-stream truth.
    let truth = correct_rules(&sim.current_global_db(), &sim.apriori_cfg());
    assert!(!truth.is_empty());
    let (recall, precision) = sim.global_recall_precision(&truth);
    assert!(recall > 0.99, "recall under churn {recall}");
    assert!(precision > 0.99, "precision under churn {precision}");
}

#[test]
fn the_default_item_domain_takes_in_the_growth_streams() {
    // No initial partition holds item 3; the streams make it frequent.
    // Without `with_items` the voted domain is the union of the initial
    // databases *and* the streams, so the rules on item 3 are mined.
    let plans: Vec<GrowthPlan> = (0..N as u64)
        .map(|u| GrowthPlan {
            initial: Database::from_transactions(
                (0..20).map(|j| Transaction::of(u * 100 + j, &[1, 2])).collect(),
            ),
            stream: (20..60)
                .map(|j| Transaction::of(u * 100 + j, &[1, 3]))
                .collect::<VecDeque<_>>(),
        })
        .collect();
    let mut global = Database::union_of(plans.iter().map(|p| &p.initial));
    global.extend(plans.iter().flat_map(|p| p.stream.iter().cloned()));
    assert!(plans.iter().all(|p| !p.initial.item_domain().contains(&Item(3))));
    // The paper-literal gate freezes outputs on a static membership, so
    // tracking a shifting distribution needs the relaxed one.
    let cfg = SimConfig { relaxed_gate: true, ..cfg(SEED) };
    let truth = correct_rules(&global, &AprioriConfig::new(cfg.min_freq, cfg.min_conf));
    assert!(truth.iter().any(|r| r.union().contains(Item(3))), "item 3 is frequent at the end");

    let outcome = SimSession::new(cfg).with_workload(plans).with_steps(200).run();
    assert!(outcome.verdicts.is_empty(), "verdicts: {:?}", outcome.verdicts);
    for (u, sol) in outcome.solutions.iter().enumerate() {
        assert_eq!(sol, &truth, "resource {u} must mine the rules on the streamed item");
    }
}
