//! Secure ≡ plain: Secure-Majority-Rule is Majority-Rule (§4.1) wrapped in
//! oblivious counters and a k-gate, and the wrapping must keep the
//! decisions. Each case runs the plain oracle ([`plain::rule`]) and the
//! synchronous secure driver (`MineSession::run`, mock cipher) on the same
//! tree, partitions and λ/γ, and asserts the same `RuleSet` at every
//! resource. When k exceeds the number of resources the k-TTP discloses
//! nothing, so every secure `RuleSet` must be empty.
//!
//! The cases print secure against plain messages per resource — the
//! message price of k that Figure 4 argues about. EXPERIMENTS.md's
//! "secure vs plain" table is their output:
//!
//! ```text
//! cargo test --release -p gridmine-core --test secure_matches_plain -- --nocapture
//! ```

mod plain;

use gridmine_arm::{Database, Ratio, RuleSet, Transaction};
use gridmine_core::{MineConfig, MineSession};
use gridmine_quest::QuestParams;
use gridmine_topology::Tree;
use proptest::prelude::*;

use plain::rule::run_plain_mining;

/// Rounds of the secure run: enough for the deepest candidate lattice
/// below to reach its fixpoint.
const ROUNDS: usize = 12;

/// Quest T5I2 with 1 200 transactions over 24 items, split over `n`
/// resources.
fn t5i2(n: usize) -> Vec<Database> {
    let global = gridmine_quest::generate(
        &QuestParams::t5i2().with_transactions(1_200).with_items(24).with_patterns(12),
    );
    gridmine_quest::partition(&global, n, 0x5EC)
}

/// Runs both protocols on one grid at privacy parameter `k`, asserts the
/// secure decisions, and returns (plain, secure) messages per resource.
fn compare(tree: &Tree, dbs: &[Database], min_freq: Ratio, min_conf: Ratio, k: i64) -> (f64, f64) {
    let plain = run_plain_mining(tree, dbs, min_freq, min_conf);
    let mut cfg = MineConfig::new(min_freq, min_conf).with_k(k);
    cfg.rounds = ROUNDS;
    let secure =
        MineSession::new(cfg).with_topology(tree.clone()).with_databases(dbs.to_vec()).run();
    assert!(secure.verdicts.is_empty(), "honest grid drew {:?}", secure.verdicts);
    let n = tree.capacity();
    let k_exceeds_grid = k > n as i64;
    for u in tree.nodes() {
        let want = if k_exceeds_grid { &RuleSet::new() } else { &plain.solutions[u] };
        assert_eq!(&secure.solutions[u], want, "resource {u} of {n} at k = {k}");
    }
    (plain.messages as f64 / n as f64, secure.messages as f64 / n as f64)
}

/// One report line: grid, k, messages per resource and their ratio.
fn report(grid: &str, k: i64, (plain, secure): (f64, f64)) {
    println!(
        "{grid:<14} k = {k:>2}  plain {plain:>8.1}  secure {secure:>8.1}  secure/plain {:>5.2}",
        secure / plain
    );
}

/// The T5I2 grid `tree` spans, compared at each of `ks`.
fn t5i2_decides_as_the_plain_grid(name: &str, tree: Tree, ks: &[i64]) {
    let dbs = t5i2(tree.capacity());
    let (min_freq, min_conf) = (Ratio::from_f64(0.08), Ratio::from_f64(0.6));
    for &k in ks {
        report(name, k, compare(&tree, &dbs, min_freq, min_conf, k));
    }
}

#[test]
fn a_t5i2_path_of_twelve_decides_as_the_plain_grid_at_every_k() {
    t5i2_decides_as_the_plain_grid("path(12)", Tree::path(12), &[1, 2, 4, 10]);
}

#[test]
fn a_t5i2_star_of_twelve_decides_as_the_plain_grid_at_every_k() {
    t5i2_decides_as_the_plain_grid("star(12)", Tree::star(12), &[1, 2, 4, 10]);
}

#[test]
fn a_t5i2_path_of_five_decides_as_the_plain_grid() {
    t5i2_decides_as_the_plain_grid("path(5)", Tree::path(5), &[1, 2, 4]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_grids_decide_as_the_plain_grid(
        n in 1usize..6,
        tree_seed: u64,
        rows in prop::collection::vec(prop::collection::vec(0u32..5, 1..4), 4..40),
        fnum in 2u32..8,
        cnum in 2u32..9,
        k_at in 0usize..4,
    ) {
        let k = [1, 2, 4, 10][k_at];
        let tree = plain::random_tree(n, tree_seed);
        let mut parts = vec![Vec::new(); n];
        for (id, items) in rows.iter().enumerate() {
            parts[id % n].push(Transaction::of(id as u64, items));
        }
        let dbs: Vec<Database> = parts.into_iter().map(Database::from_transactions).collect();
        compare(&tree, &dbs, Ratio::new(fnum, 10), Ratio::new(cnum, 10), k);
    }
}
