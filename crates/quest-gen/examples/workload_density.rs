//! Workload density explorer: prints the correct-rule count for a few
//! generator configurations.
//!
//! Rule counts explode combinatorially with item density (every frequent
//! L-itemset contributes O(2^L) rules), so simulation workloads must be
//! tuned to keep the candidate space tractable — this utility is how the
//! configurations of the figure examples were chosen.
//!
//! ```text
//! cargo run --release -p gridmine-quest --example workload_density
//! ```

use gridmine_arm::{correct_rules, AprioriConfig, Ratio};
use gridmine_quest::QuestParams;

fn main() {
    let cases: Vec<(&str, u32, usize, f64, f64)> = vec![
        ("T5I2", 60, 25, 0.05, 0.5),
        ("T10I4", 300, 100, 0.05, 0.7),
        ("T20I6", 1000, 400, 0.05, 0.7),
    ];
    for (name, items, patterns, freq, conf) in cases {
        let p = match name {
            "T10I4" => QuestParams::t10i4(),
            "T20I6" => QuestParams::t20i6(),
            _ => QuestParams::t5i2(),
        };
        let p = p.with_transactions(4_000).with_items(items).with_patterns(patterns).with_seed(42);
        let db = gridmine_quest::generate(&p);
        let cfg = AprioriConfig::new(Ratio::from_f64(freq), Ratio::from_f64(conf));
        let rules = correct_rules(&db, &cfg);
        println!(
            "{name} items={items} patterns={patterns} minfreq={freq}: {} correct rules",
            rules.len()
        );
    }
}
