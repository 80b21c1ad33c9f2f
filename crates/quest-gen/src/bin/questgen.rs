//! `questgen` — command-line synthetic dataset generator.
//!
//! A stand-in for the IBM Quest tool the paper used: generates a
//! `T<len>I<pat>` transaction database and writes it as JSON (one
//! transaction per line is deliberately avoided — the JSON round-trips
//! through `gridmine_arm::Database`'s serde impl).
//!
//! ```text
//! questgen --workload t10i4 --transactions 100000 --items 1000 \
//!          --patterns 2000 --seed 42 --out t10i4.json [--stats]
//! ```

// Replay-deterministic and crash-safe (DESIGN.md § Static analysis).
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]

use std::io::Write;
use std::process::ExitCode;

use gridmine_arm::{frequent_itemsets, AprioriConfig, Ratio};
use gridmine_quest::{generate, QuestParams};

fn usage() -> ExitCode {
    eprintln!(
        "usage: questgen --workload <t5i2|t10i4|t20i6> [--transactions N] [--items N]\n\
         \t[--patterns N] [--seed N] [--out FILE] [--stats] [--min-freq F]\n\
         \n\
         --out -      write JSON to stdout (default)\n\
         --stats      print workload statistics (length histogram, frequent itemsets)"
    );
    ExitCode::from(2)
}

#[expect(clippy::disallowed_methods, reason = "writes a generated dataset, not protocol state")]
fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = String::from("t10i4");
    let mut transactions = 100_000usize;
    let mut items = 1_000u32;
    let mut patterns = 2_000usize;
    let mut seed = 0x9E57u64;
    let mut out = String::from("-");
    let mut stats = false;
    let mut min_freq = 0.02f64;

    let mut i = 0;
    while i < args.len() {
        let take = |i: &mut usize| -> Option<String> {
            *i += 1;
            args.get(*i).cloned()
        };
        match args[i].as_str() {
            "--workload" => {
                workload = match take(&mut i) {
                    Some(v) => v,
                    None => return usage(),
                }
            }
            "--transactions" => match take(&mut i).and_then(|v| v.parse().ok()) {
                Some(v) => transactions = v,
                None => return usage(),
            },
            "--items" => match take(&mut i).and_then(|v| v.parse().ok()) {
                Some(v) => items = v,
                None => return usage(),
            },
            "--patterns" => match take(&mut i).and_then(|v| v.parse().ok()) {
                Some(v) => patterns = v,
                None => return usage(),
            },
            "--seed" => match take(&mut i).and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => return usage(),
            },
            "--min-freq" => match take(&mut i).and_then(|v| v.parse().ok()) {
                Some(v) => min_freq = v,
                None => return usage(),
            },
            "--out" => {
                out = match take(&mut i) {
                    Some(v) => v,
                    None => return usage(),
                }
            }
            "--stats" => stats = true,
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument: {other}");
                return usage();
            }
        }
        i += 1;
    }

    let params = match workload.to_ascii_lowercase().as_str() {
        "t5i2" => QuestParams::t5i2(),
        "t10i4" => QuestParams::t10i4(),
        "t20i6" => QuestParams::t20i6(),
        other => {
            eprintln!("unknown workload '{other}' (expected t5i2, t10i4 or t20i6)");
            return usage();
        }
    };
    let params = params
        .with_transactions(transactions)
        .with_items(items)
        .with_patterns(patterns)
        .with_seed(seed);

    eprintln!(
        "generating {} ({} transactions, {} items, {} patterns, seed {})…",
        params.name(),
        transactions,
        items,
        patterns,
        seed
    );
    let db = generate(&params);

    if stats {
        let mut hist = std::collections::BTreeMap::new();
        for t in db.transactions() {
            *hist.entry(t.len()).or_insert(0u64) += 1;
        }
        let mean: f64 =
            db.transactions().iter().map(|t| t.len() as f64).sum::<f64>() / db.len() as f64;
        eprintln!("transaction length: mean {mean:.2}, histogram {hist:?}");
        let cfg = AprioriConfig::new(Ratio::from_f64(min_freq), Ratio::from_f64(0.5));
        let freq = frequent_itemsets(&db, &cfg);
        let max_len = freq.keys().map(|s| s.len()).max().unwrap_or(0);
        eprintln!("frequent itemsets at MinFreq {min_freq}: {} (longest: {max_len})", freq.len());
    }

    let json = serde_json::to_string(&db).expect("database serializes");
    if out == "-" {
        let stdout = std::io::stdout();
        let mut lock = stdout.lock();
        lock.write_all(json.as_bytes()).expect("write stdout");
        lock.write_all(b"\n").expect("write stdout");
    } else {
        std::fs::write(&out, json).expect("write output file");
        eprintln!("wrote {out}");
    }
    ExitCode::SUCCESS
}
