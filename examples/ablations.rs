//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. **Obfuscation padding** (Algorithm 1's ±1 sequence) — message and
//!    convergence cost of the data-independence machinery.
//! 2. **Gate mode** (paper-literal vs. transactions-only) — update
//!    tracking under database growth.
//! 3. **Privacy parameter** sensitivity of message volume (k gates both
//!    disclosures *and* the flood default).
//!
//! Prints one table per ablation.
//!
//! ```text
//! cargo run --release --example ablations
//! ```

use gridmine::obs::Table;
use gridmine::prelude::*;

mod figures;
use figures::hr;

fn base_cfg() -> SimConfig {
    let mut c = SimConfig::small().with_resources(12).with_k(4).with_seed(5);
    c.scan_budget = 50;
    c.growth_per_step = 2;
    c.min_freq = Ratio::from_f64(0.05);
    c.min_conf = Ratio::from_f64(0.5);
    c.obfuscate = false;
    c
}

fn workload() -> Database {
    gridmine::quest::generate(
        &QuestParams::t5i2()
            .with_transactions(4_000)
            .with_items(60)
            .with_patterns(25)
            .with_seed(42),
    )
}

fn ablation_table() -> Table {
    Table::new(["variant", "steps to 90%", "recall", "precision", "messages"])
}

fn run(variant: &str, cfg: SimConfig, global: &Database, table: &mut Table) {
    let m = SimSession::new(cfg).with_global(global, 0.2).with_steps(90).convergence(10);
    table.row([
        variant.to_string(),
        m.step_at_90_recall.map(|s| s.to_string()).unwrap_or_else(|| ">max".into()),
        format!("{:.3}", m.final_recall()),
        format!("{:.3}", m.final_precision()),
        m.total_msgs.to_string(),
    ]);
}

fn main() {
    let global = workload();

    hr("Ablation 1: obfuscation padding (Algorithm 1's ±1 sequence)");
    let mut table = ablation_table();
    let mut on = base_cfg();
    on.obfuscate = true;
    run("padding on (paper regime)", on, &global, &mut table);
    run("padding off", base_cfg(), &global, &mut table);
    print!("{table}");
    println!(
        "(the padding multiplies traffic without changing the trajectory —\n\
         its purpose is data-independence of the message pattern, not speed)"
    );

    hr("Ablation 2: privacy-gate mode under database growth");
    let mut table = ablation_table();
    run("literal (k new resources)", base_cfg(), &global, &mut table);
    let mut relaxed = base_cfg();
    relaxed.relaxed_gate = true;
    run("relaxed (k new tx only)", relaxed, &global, &mut table);
    print!("{table}");

    hr("Ablation 3: message volume vs. k");
    let mut table = ablation_table();
    for k in [1i64, 4, 8] {
        run(&format!("k = {k}"), base_cfg().with_k(k), &global, &mut table);
    }
    print!("{table}");

    // Consistency pin: ablations must not change the final ground truth.
    let truth =
        correct_rules(&global, &AprioriConfig::new(Ratio::from_f64(0.05), Ratio::from_f64(0.5)));
    println!("\n[ground truth: {} correct rules]", truth.len());
}
