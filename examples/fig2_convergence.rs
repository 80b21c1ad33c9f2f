//! **Figure 2** — recall and precision of Secure-Majority-Rule vs. local
//! database scans, on T5I2, T10I4 and T20I6.
//!
//! Paper setup: 2,000 resources × 10,000 local transactions (10⁶ total per
//! workload), k = 10, 100 transactions scanned per step, candidate
//! generation every 5 steps, +20 transactions per step. Reported result:
//! "by the time each resource has scanned its part of the database almost
//! three times, the average recall and precision have already reached
//! 90%."
//!
//! Default run: shape-preserving scale-down (fewer/smaller resources,
//! proportional thresholds). `GRIDMINE_SCALE=full` restores §6 exactly.
//!
//! ```text
//! cargo run --release --example fig2_convergence
//! ```

use gridmine::obs::Table;
use gridmine::prelude::*;

mod figures;
use figures::{full_scale, hr};

fn main() {
    let full = full_scale();
    hr("Figure 2: convergence of recall & precision (per local scan)");
    println!(
        "scale: {} (set GRIDMINE_SCALE=full for the paper's 2,000 x 10,000 setup)",
        if full { "FULL" } else { "small" }
    );

    let workloads = [QuestParams::t5i2(), QuestParams::t10i4(), QuestParams::t20i6()];

    for params in workloads {
        let (params, cfg, growth_frac, sample_every, max_steps) = if full {
            let p = params.with_transactions(1_000_000).with_seed(42);
            let c = SimConfig { min_freq: Ratio::from_f64(0.02), ..SimConfig::default() };
            (p, c, 0.3, 25, 400)
        } else {
            // Workload densities are tuned so the correct-rule set stays in
            // the hundreds (rule counts explode combinatorially with item
            // density; see DESIGN.md). Obfuscation padding is left to the
            // full-scale run — it multiplies traffic ~5× without changing
            // the recall/precision trajectory.
            let (n_items, n_patterns, freq) = match params.name().as_str() {
                "T5I2" => (60, 25, 0.05),
                "T10I4" => (300, 100, 0.065),
                _ => (1_000, 400, 0.06), // T20I6
            };
            let p = params
                .with_transactions(6_000)
                .with_items(n_items)
                .with_patterns(n_patterns)
                .with_seed(42);
            let mut c = SimConfig::small().with_resources(12).with_k(4);
            c.scan_budget = 50;
            c.growth_per_step = 2;
            c.min_freq = Ratio::from_f64(freq);
            c.min_conf = Ratio::from_f64(0.5);
            c.obfuscate = false;
            (p, c, 0.2, 10, 110)
        };

        let name = params.name();
        hr(&format!("workload {name}"));

        let global = gridmine::quest::generate(&params);
        let metrics = SimSession::new(cfg)
            .with_global(&global, growth_frac)
            .with_steps(max_steps)
            .convergence(sample_every);
        let mut table = Table::new(["step", "scans", "recall", "precision", "messages"]);
        for s in &metrics.samples {
            table.row([
                s.step.to_string(),
                format!("{:.2}", s.scans),
                format!("{:.3}", s.recall),
                format!("{:.3}", s.precision),
                s.msgs.to_string(),
            ]);
        }
        print!("{table}");
        match metrics.scans_at_90_recall {
            Some(scans) => {
                println!("→ {name}: 90% recall after {scans:.2} local scans (paper: ≈3 scans)")
            }
            None => println!("→ {name}: did not reach 90% recall in {max_steps} steps"),
        }
    }
}
