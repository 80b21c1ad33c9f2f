//! **Figure 3** — scalability: steps to 90 % recall vs. number of
//! resources, one curve per rule *significance*.
//!
//! Paper setup: the single-itemset special case ("this change does not
//! affect the overall result, because in our algorithm the votes of all
//! candidates take place concurrently"), resource counts swept into the
//! thousands. Reported result: "for any significance level, there is some
//! constant amount of resources for which the number of required steps
//! does not increase even if more resources are added. The closer the
//! significance is to zero … the more steps are required."
//!
//! Default run: the same scan pacing at 16–256 resources.
//! `GRIDMINE_SCALE=full` sweeps the paper's 250–4,000.
//!
//! ```text
//! cargo run --release --example fig3_scalability
//! ```

use gridmine::prelude::*;

mod figures;
use figures::{full_scale, hr};

fn main() {
    let full = full_scale();
    hr("Figure 3: steps to 90% recall vs. number of resources");
    println!(
        "scale: {} (single-itemset vote; one curve per significance level)",
        if full { "FULL" } else { "small" }
    );

    let (sizes, significances, local_size, budget, max_steps): (
        Vec<usize>,
        Vec<f64>,
        usize,
        usize,
        u64,
    ) = if full {
        // Paper regime: 10,000-transaction local DBs scanned 100/step.
        (vec![250, 500, 1000, 2000, 4000], vec![0.002, 0.005, 0.02, 0.1], 10_000, 100, 3_000)
    } else {
        // Same scan pacing (1% of the local DB per step), scaled down.
        (vec![16, 32, 64, 128, 256], vec![0.005, 0.01, 0.05, 0.2], 2_000, 20, 800)
    };

    println!(
        "\n{:>14} | {}",
        "significance",
        sizes.iter().map(|n| format!("{n:>7}")).collect::<Vec<_>>().join(" ")
    );
    println!("{:->14}-+-{}", "", "-".repeat(8 * sizes.len()));

    for &sig in &significances {
        let mut row = Vec::new();
        for &n in &sizes {
            let mut cfg = SimConfig::small().with_resources(n).with_seed(17);
            cfg.k = if full { 10 } else { 4 };
            cfg.growth_per_step = 0;
            cfg.scan_budget = budget;
            cfg.obfuscate = false; // a single static itemset: padding adds nothing
            cfg.min_freq = Ratio::new(1, 2);
            let steps = single_itemset_steps(cfg, local_size, sig, max_steps);
            row.push(match steps {
                Some(s) => format!("{s:>7}"),
                None => format!("{:>7}", ">max"),
            });
        }
        println!("{sig:>14.3} | {}", row.join(" "));
    }

    println!(
        "\nexpected shape (paper): rows flatten beyond some resource count; rows with\n\
         significance closer to zero sit higher (need more steps)."
    );
}
