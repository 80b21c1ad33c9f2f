//! One-call experiment drivers, used by the examples.

use gridmine_arm::{correct_rules, Database, Item, Rule, RuleSet};

use crate::config::SimConfig;
use crate::metrics::{GlobalMetrics, Sample};
use crate::session::SimSession;
use crate::workload::{significance_databases, GrowthPlan};

/// Steps until average recall reaches `target`, or `max_steps`, sampled
/// every `sample_every` steps (at least one; the last chunk stops at
/// `max_steps`). Returns `(steps, metrics)`; `None` for steps when the
/// target was never reached.
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
        let chunk = sample_every.clamp(1, max_steps - steps);
        sim.run_event_driven(chunk);
        steps += chunk;
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

#[cfg(test)]
mod tests {
    use super::*;
    use gridmine_arm::{Ratio, Transaction};

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

    /// A recall target no grid reaches: the run goes to `max_steps`.
    fn unreachable_recall(sample_every: u64, max_steps: u64) -> GlobalMetrics {
        let mut cfg = SimConfig::small().with_resources(3).with_k(1);
        cfg.growth_per_step = 0;
        cfg.min_freq = Ratio::new(1, 2);
        let (steps, m) = time_to_recall(cfg, &tiny_global(), 2.0, sample_every, max_steps);
        assert_eq!(steps, None);
        m
    }

    #[test]
    fn time_to_recall_samples_every_step_when_asked_for_zero() {
        let m = unreachable_recall(0, 3);
        assert_eq!(m.samples.iter().map(|s| s.step).collect::<Vec<_>>(), [1, 2, 3]);
    }

    #[test]
    fn time_to_recall_stops_at_max_steps_when_the_chunk_does_not_divide_it() {
        let m = unreachable_recall(4, 10);
        assert_eq!(m.samples.iter().map(|s| s.step).collect::<Vec<_>>(), [4, 8, 10]);
    }
}
