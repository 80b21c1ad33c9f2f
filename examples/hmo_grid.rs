//! The paper's motivating scenario: a federation of HMO clinics sharing
//! medical statistics without sharing records.
//!
//! Twenty clinics each hold a private stream of patient "transactions"
//! (co-occurring diagnoses / treatments). New records arrive while the
//! mining runs — the anytime property in action: interim recall climbs as
//! the grid digests its data, and no clinic ever reveals statistics over
//! fewer than k patients or k clinics.
//!
//! ```text
//! cargo run --release --example hmo_grid
//! ```

use gridmine::prelude::*;

fn main() {
    // Synthetic "medical" workload: T5I2 with a 60-code vocabulary.
    let params = QuestParams::t5i2()
        .with_transactions(8_000)
        .with_items(60)
        .with_patterns(25)
        .with_seed(2026);
    println!("generating {} synthetic patient records ({})…", params.n_transactions, params.name());
    let global = gridmine::quest::generate(&params);

    let mut cfg = SimConfig::small().with_resources(20).with_k(4).with_seed(7);
    cfg.min_freq = Ratio::from_f64(0.04);
    cfg.min_conf = Ratio::from_f64(0.5);
    cfg.growth_per_step = 5; // records keep arriving during the run
    cfg.scan_budget = 50;
    // Algorithm 1's ±1 padding sequence multiplies traffic ~5x; leave it to
    // the figure examples (which reproduce the paper's regime exactly) and
    // keep this walkthrough snappy.
    cfg.obfuscate = false;

    println!(
        "grid: {} clinics, k = {} (no statistic over fewer than {} patients or clinics is ever disclosed)\n",
        cfg.n_resources, cfg.k, cfg.k
    );
    println!("{:>6} {:>8} {:>8} {:>10} {:>12}", "step", "scans", "recall", "precision", "messages");

    // 30% of each clinic's data arrives while mining runs.
    let metrics = SimSession::new(cfg).with_global(&global, 0.3).with_steps(120).convergence(10);
    for s in &metrics.samples {
        println!(
            "{:>6} {:>8.2} {:>8.3} {:>10.3} {:>12}",
            s.step, s.scans, s.recall, s.precision, s.msgs
        );
    }

    match metrics.step_at_90_recall {
        Some(step) => println!(
            "\nreached 90% recall at step {step} ({:.2} local scans) — the paper reports ≈3 scans at full scale",
            metrics.scans_at_90_recall.unwrap_or(f64::NAN)
        ),
        None => println!("\nnever reached 90% recall — try more steps"),
    }
    assert!(
        metrics.final_recall() >= 0.85,
        "HMO grid failed to converge: recall {}",
        metrics.final_recall()
    );
}
