//! **Figure 4** — the effect of the privacy parameter k on convergence.
//!
//! Paper setup: T10I4, steps to 90 % recall for increasing k. Reported
//! result: "the tradeoff between security and performance is logarithmic
//! and thus practical" — each doubling of k costs roughly a constant
//! number of extra steps, because disclosure waits for aggregates covering
//! ≥ k resources and aggregate coverage grows multiplicatively per hop.
//!
//! Default run: 24 resources, k up to 32. `GRIDMINE_SCALE=full` runs
//! 2,000 resources and k up to 512.
//!
//! ```text
//! cargo run --release --example fig4_privacy
//! ```

use gridmine::prelude::*;

mod figures;
use figures::{full_scale, hr};

fn main() {
    let full = full_scale();
    hr("Figure 4: steps to 90% recall vs. privacy parameter k (T10I4)");
    println!("scale: {}", if full { "FULL" } else { "small" });

    let (params, n_resources, ks, max_steps): (QuestParams, usize, Vec<i64>, u64) = if full {
        (
            QuestParams::t10i4().with_transactions(1_000_000).with_seed(42),
            2_000,
            vec![1, 2, 4, 8, 16, 32, 64, 128, 256, 512],
            2_000,
        )
    } else {
        // Density tuned for a correct-rule set in the hundreds (see
        // DESIGN.md on rule-count explosion).
        (
            QuestParams::t10i4()
                .with_transactions(3_000)
                .with_items(300)
                .with_patterns(100)
                .with_seed(42),
            24,
            vec![1, 2, 4, 8, 16, 32],
            300,
        )
    };
    let global = gridmine::quest::generate(&params);

    println!("\n{:>6} {:>14} {:>10} {:>10}", "k", "steps to 90%", "Δ steps", "scans");
    let mut prev: Option<u64> = None;
    for k in ks {
        if k > n_resources as i64 {
            // The k-privacy floor: with fewer than k resources no aggregate
            // can ever cover k members, so nothing is ever disclosed —
            // demonstrated by the `privacy_parameter_gates_disclosure`
            // integration test; no need to simulate the silence.
            println!(
                "{k:>6} {:>14} {:>10} {:>10}   (k exceeds grid size: gated by construction)",
                "never", "-", "-"
            );
            continue;
        }
        let mut cfg = SimConfig::small().with_resources(n_resources).with_k(k).with_seed(5);
        cfg.growth_per_step = 0;
        cfg.scan_budget = if full { 100 } else { 50 };
        cfg.obfuscate = false;
        cfg.min_freq = Ratio::from_f64(if full { 0.02 } else { 0.05 });
        cfg.min_conf = Ratio::from_f64(0.5);

        let (steps, metrics) = time_to_recall(cfg, &global, 0.9, 5, max_steps);
        let delta = match (steps, prev) {
            (Some(s), Some(p)) => format!("{:+}", s as i64 - p as i64),
            _ => "-".into(),
        };
        match steps {
            Some(s) => {
                println!(
                    "{k:>6} {s:>14} {delta:>10} {:>10.2}",
                    metrics.scans_at_90_recall.unwrap_or(f64::NAN)
                );
                prev = Some(s);
            }
            None => println!("{k:>6} {:>14} {delta:>10} {:>10}", "> budget", "-"),
        }
    }

    println!(
        "\nexpected shape (paper): steps grow roughly linearly in log2(k) —\n\
         each doubling of k costs a near-constant step increment."
    );
}
