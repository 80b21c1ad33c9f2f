//! Property tests: Scalable-Majority must agree with the global majority at
//! quiescence on arbitrary random trees, inputs and thresholds, and plain
//! Majority-Rule must match centralized Apriori on random partitioned
//! databases.

use super::random_tree;
use super::rule::run_plain_mining;
use super::scalable::{run_to_quiescence, VotePair};
use gridmine_arm::{correct_rules, AprioriConfig, Database, Ratio, Transaction};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn quiescent_decision_matches_global_majority(
        n in 1usize..40,
        seed: u64,
        num in 1u32..10,
        inputs_seed: u64,
    ) {
        let lambda = Ratio::new(num, 10);
        let tree = random_tree(n, seed);
        let mut rng = ChaCha12Rng::seed_from_u64(inputs_seed);
        let inputs: Vec<VotePair> = (0..n)
            .map(|_| VotePair::new(rng.gen_range(0..50), rng.gen_range(1..50)))
            .collect();
        let decisions = run_to_quiescence(&tree, lambda, &inputs);
        let (s, c) = inputs.iter().fold((0i64, 0i64), |(s, c), p| (s + p.sum, c + p.count));
        let want = lambda.delta(s, c) >= 0;
        for u in tree.nodes() {
            prop_assert_eq!(decisions[u], want, "node {} of {}", u, n);
        }
    }

    #[test]
    fn bit_votes_on_random_trees(
        n in 1usize..60,
        seed: u64,
        bits_seed: u64,
    ) {
        let tree = random_tree(n, seed);
        let mut rng = ChaCha12Rng::seed_from_u64(bits_seed);
        let inputs: Vec<VotePair> =
            (0..n).map(|_| VotePair::new(rng.gen_range(0..=1), 1)).collect();
        let yes: i64 = inputs.iter().map(|p| p.sum).sum();
        let decisions = run_to_quiescence(&tree, Ratio::new(1, 2), &inputs);
        let want = 2 * yes >= n as i64;
        for u in tree.nodes() {
            prop_assert_eq!(decisions[u], want);
        }
    }
}

proptest! {
    // Full distributed-mining runs are costlier; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn plain_mining_matches_centralized(
        n_resources in 1usize..5,
        tree_seed: u64,
        rows in prop::collection::vec(prop::collection::vec(0u32..5, 1..4), 4..30),
        fnum in 2u32..8,
        cnum in 2u32..9,
    ) {
        let tree = random_tree(n_resources, tree_seed);
        let min_freq = Ratio::new(fnum, 10);
        let min_conf = Ratio::new(cnum, 10);

        let all: Vec<Transaction> = rows
            .iter()
            .enumerate()
            .map(|(id, items)| Transaction::of(id as u64, items))
            .collect();
        let mut dbs = vec![Vec::new(); n_resources];
        for (i, t) in all.iter().enumerate() {
            dbs[i % n_resources].push(t.clone());
        }
        let dbs: Vec<Database> = dbs.into_iter().map(Database::from_transactions).collect();

        let truth = correct_rules(
            &Database::union_of(dbs.iter()),
            &AprioriConfig::new(min_freq, min_conf),
        );
        let results = run_plain_mining(&tree, &dbs, min_freq, min_conf).solutions;
        for u in tree.nodes() {
            prop_assert_eq!(&results[u], &truth, "resource {} diverged", u);
        }
    }
}
