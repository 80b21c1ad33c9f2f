//! One-call experiment drivers, used by the benches and examples.

use gridmine_arm::{correct_rules, Database, Item, Ratio, Rule, RuleSet};
use gridmine_paillier::MockCipher;

use crate::config::SimConfig;
use crate::engine::Simulation;
use crate::metrics::{GlobalMetrics, Sample};
use crate::session::SimSession;
use crate::workload::{significance_databases, GrowthPlan};

/// Steps until average recall reaches `target`, or `max_steps`. Returns
/// `(steps, metrics)`; `None` for steps when the target was never reached.
pub fn time_to_recall(
    cfg: SimConfig,
    global: &Database,
    target: f64,
    sample_every: u64,
    max_steps: u64,
) -> (Option<u64>, GlobalMetrics) {
    let mut sim = SimSession::new(cfg).with_global(global, 0.0).with_steps(max_steps).build();

    let truth = correct_rules(global, &sim.apriori_cfg());
    let mut metrics = GlobalMetrics::default();
    let mut steps = 0;
    while steps < max_steps {
        sim.run_event_driven(sample_every);
        steps += sample_every;
        sim.refresh_outputs();
        let (recall, precision) = sim.global_recall_precision(&truth);
        metrics.push(Sample {
            step: sim.step_no(),
            scans: sim.scans_completed(),
            recall,
            precision,
            msgs: sim.total_msgs,
        });
        if recall >= target {
            return (Some(sim.step_no()), metrics);
        }
    }
    (None, metrics)
}

/// The Figure 3 harness: a single-itemset vote at the given significance
/// level. Returns the steps until ≥ 90 % of resources decide the (globally
/// correct) rule, or `None` within `max_steps`.
pub fn single_itemset_steps(
    cfg: SimConfig,
    local_size: usize,
    significance: f64,
    max_steps: u64,
) -> Option<u64> {
    assert!(significance > 0.0, "figure 3 measures positive-significance rules");
    let lambda = cfg.min_freq;
    let dbs = significance_databases(cfg.n_resources, local_size, lambda, significance, cfg.seed);
    let plans: Vec<GrowthPlan> = dbs.into_iter().map(GrowthPlan::fixed).collect();
    // Only item 0 is voted on ("these experiments were conducted for the
    // special case of a single itemset").
    let mut sim = SimSession::new(cfg)
        .with_workload(plans)
        .with_items(&[Item(0)])
        .with_steps(max_steps)
        .build();
    let truth: RuleSet = [Rule::frequency(gridmine_arm::ItemSet::of(&[0]))].into_iter().collect();

    let mut steps = 0;
    while steps < max_steps {
        sim.run_event_driven(2.min(max_steps - steps));
        steps = sim.step_no();
        sim.refresh_outputs();
        if sim.coverage(&truth) >= 0.9 {
            return Some(steps);
        }
    }
    None
}

/// Convenience: a `MockCipher` simulation over an explicit database list
/// (integration-test helper).
pub fn simulation_over(
    cfg: SimConfig,
    dbs: Vec<Database>,
    items: &[Item],
) -> Simulation<MockCipher> {
    SimSession::new(cfg).with_databases(dbs).with_items(items).build()
}

/// The significance definition of Figure 3 (for reporting):
/// `(Σ sum) / (λ · Σ count) − 1`.
pub fn significance(lambda: Ratio, sum: u64, count: u64) -> f64 {
    sum as f64 / (lambda.as_f64() * count as f64) - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridmine_arm::Transaction;

    fn tiny_global() -> Database {
        Database::from_transactions(
            (0..400)
                .map(|i| {
                    if i % 5 == 0 {
                        Transaction::of(i, &[3])
                    } else {
                        Transaction::of(i, &[1, 2])
                    }
                })
                .collect(),
        )
    }

    #[test]
    fn convergence_run_reaches_high_recall() {
        let mut cfg = SimConfig::small().with_resources(6).with_k(1);
        cfg.growth_per_step = 4;
        cfg.min_freq = Ratio::new(1, 2);
        let m = SimSession::new(cfg).with_global(&tiny_global(), 0.3).with_steps(60).convergence(5);
        assert!(m.final_recall() > 0.95, "final recall {}", m.final_recall());
        assert!(m.final_precision() > 0.95, "final precision {}", m.final_precision());
        assert!(m.step_at_90_recall.is_some());
    }

    #[test]
    fn time_to_recall_reports_steps() {
        let mut cfg = SimConfig::small().with_resources(6).with_k(1);
        cfg.growth_per_step = 0;
        cfg.min_freq = Ratio::new(1, 2);
        let (steps, m) = time_to_recall(cfg, &tiny_global(), 0.9, 4, 80);
        assert!(steps.is_some(), "never reached 90% recall: {:?}", m.samples.last());
    }

    #[test]
    fn single_itemset_converges_faster_at_higher_significance() {
        let mut cfg = SimConfig::small().with_resources(12).with_k(2);
        cfg.growth_per_step = 0;
        cfg.min_freq = Ratio::new(1, 2);
        let hi = single_itemset_steps(cfg, 200, 0.5, 400).expect("high significance converges");
        let lo = single_itemset_steps(cfg, 200, 0.02, 400).unwrap_or(400);
        assert!(hi <= lo, "high significance ({hi}) must not be slower than low ({lo})");
    }

    #[test]
    fn significance_formula() {
        // 600 of 1000 at λ = 1/2 → 600/(0.5·1000) − 1 = 0.2.
        assert!((significance(Ratio::new(1, 2), 600, 1000) - 0.2).abs() < 1e-12);
    }
}
