//! Workload preparation: initial partitions, growth streams, seeded §3
//! churn (fresh transactions and negations), and the single-itemset
//! significance databases of Figure 3.

use std::collections::VecDeque;

use gridmine_arm::{Database, Item, Ratio, Transaction};
use gridmine_quest::partition;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;

/// A resource's database split into its initial content and the stream of
/// transactions that arrives during the run (§6's +20 per step).
#[derive(Clone, Debug)]
pub struct GrowthPlan {
    /// Initial local database.
    pub initial: Database,
    /// Transactions appended over time, in arrival order.
    pub stream: VecDeque<Transaction>,
}

impl GrowthPlan {
    /// A static plan (no growth).
    pub fn fixed(db: Database) -> Self {
        GrowthPlan { initial: db, stream: VecDeque::new() }
    }

    /// Takes the next `n` stream transactions.
    pub fn take(&mut self, n: usize) -> Vec<Transaction> {
        let n = n.min(self.stream.len());
        self.stream.drain(..n).collect()
    }

    /// Number of stream transactions not yet taken. The event scheduler
    /// drops a resource from the growth pass once this hits zero.
    pub fn remaining(&self) -> usize {
        self.stream.len()
    }
}

/// Partitions a global database across `n_resources` and reserves
/// `growth_fraction` of each partition as its growth stream.
pub fn split_growth(
    global: &Database,
    n_resources: usize,
    growth_fraction: f64,
    seed: u64,
) -> Vec<GrowthPlan> {
    assert!((0.0..1.0).contains(&growth_fraction), "growth fraction must be in [0,1)");
    partition(global, n_resources, seed)
        .into_iter()
        .map(|db| {
            let n = db.len();
            let keep = n - ((n as f64) * growth_fraction).round() as usize;
            let txs = db.transactions();
            GrowthPlan {
                initial: Database::from_transactions(txs[..keep].to_vec()),
                stream: txs[keep..].iter().cloned().collect(),
            }
        })
        .collect()
}

/// Figure 3's single-itemset workload. Generates one local database per
/// resource over the single item `0`, such that the global frequency of
/// `{0}` is `λ · (1 + significance)`:
///
/// > "Significance of a rule is defined as
/// > (Σ sum) / (λ · Σ count) − 1."
///
/// Per-resource supports are drawn around the target so the data is
/// distributed but the global significance is exact (the remainder is
/// assigned deterministically).
pub fn significance_databases(
    n_resources: usize,
    local_size: usize,
    lambda: Ratio,
    significance: f64,
    seed: u64,
) -> Vec<Database> {
    assert!(n_resources >= 1 && local_size >= 1);
    let total = (n_resources * local_size) as i64;
    let target_global = ((lambda.as_f64() * (1.0 + significance)) * total as f64)
        .round()
        .clamp(0.0, total as f64) as i64;

    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    // Per-resource supports are binomial around the global frequency —
    // each local database is a sample of the same population, as in the
    // paper's hashed-sampling setup. The sampling noise per resource is
    // σ ≈ √(p(1−p)·|db|), which is what makes low-significance votes
    // genuinely harder: local views straddle the threshold.
    let p = (target_global as f64 / total as f64).clamp(0.0, 1.0);
    let mut supports: Vec<i64> = (0..n_resources)
        .map(|_| (0..local_size).filter(|_| rng.gen_bool(p)).count() as i64)
        .collect();
    let mut current: i64 = supports.iter().sum();
    // Greedy adjust toward the target.
    let mut i = 0;
    while current != target_global {
        let idx = i % n_resources;
        if current < target_global && supports[idx] < local_size as i64 {
            supports[idx] += 1;
            current += 1;
        } else if current > target_global && supports[idx] > 0 {
            supports[idx] -= 1;
            current -= 1;
        }
        i += 1;
    }

    let mut next_id = 0u64;
    supports
        .into_iter()
        .map(|s| {
            // Interleave supporting and non-supporting transactions
            // uniformly: the accountants scan in order, so a partial scan
            // must look like a random sample, not a support-first prefix.
            let mut kinds: Vec<bool> = (0..local_size).map(|j| (j as i64) < s).collect();
            kinds.shuffle(&mut rng);
            let txs: Vec<Transaction> = kinds
                .into_iter()
                .map(|supports_rule| {
                    let id = next_id;
                    next_id += 1;
                    if supports_rule {
                        Transaction::new(id, vec![Item(0)])
                    } else {
                        Transaction::new(id, vec![Item(1)])
                    }
                })
                .collect();
            Database::from_transactions(txs)
        })
        .collect()
}

/// A seeded §3 churn feed over `pool`: `fresh` new transactions (items
/// cloned from random pool members, ids from `id_from`) followed by
/// `negations` cancelling randomly chosen positive transactions — both
/// earlier stream entries and original pool members, so the stream can
/// retract initial database content too.
pub fn churn_stream(
    pool: &[Transaction],
    fresh: usize,
    negations: usize,
    id_from: u64,
    seed: u64,
) -> Vec<Transaction> {
    assert!(!pool.is_empty(), "churn needs a donor pool");
    let mut rng = ChaCha12Rng::seed_from_u64(seed ^ 0x5EED_C1124);
    let mut next_id = id_from;
    let mut out: Vec<Transaction> = Vec::with_capacity(fresh + negations);
    for _ in 0..fresh {
        let donor = &pool[rng.gen_range(0..pool.len())];
        out.push(Transaction::new(next_id, donor.items().to_vec()));
        next_id += 1;
    }
    // Each target is retracted at most once so net supports never go
    // negative — a stream of valid §3 updates, not an underflow attack.
    let mut negated = std::collections::HashSet::new();
    for _ in 0..negations {
        let candidates: Vec<&Transaction> = pool
            .iter()
            .chain(out.iter())
            .filter(|t| t.polarity() == 1 && !negated.contains(&t.id))
            .collect();
        let Some(target) = candidates.get(rng.gen_range(0..candidates.len().max(1))) else {
            break;
        };
        negated.insert(target.id);
        let neg = target.negation_of(next_id);
        next_id += 1;
        out.push(neg);
    }
    out
}

/// Wraps per-resource churn into [`GrowthPlan`]s: resource `u` keeps its
/// initial database and streams `churn_stream` of its own partition,
/// with globally unique ids carved from disjoint ranges.
pub fn churn_plans(
    initials: Vec<Database>,
    fresh: usize,
    negations: usize,
    seed: u64,
) -> Vec<GrowthPlan> {
    let id_base =
        1 + initials.iter().flat_map(|db| db.transactions()).map(|t| t.id).max().unwrap_or(0);
    let span = (fresh + negations) as u64;
    initials
        .into_iter()
        .enumerate()
        .map(|(u, db)| {
            let stream: VecDeque<Transaction> = churn_stream(
                db.transactions(),
                fresh,
                negations,
                id_base + span * u as u64,
                seed ^ u as u64,
            )
            .into();
            GrowthPlan { initial: db, stream }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridmine_arm::ItemSet;

    #[test]
    fn split_growth_partitions_everything() {
        let global = Database::from_transactions(
            (0..1000).map(|i| Transaction::of(i, &[(i % 5) as u32])).collect(),
        );
        let plans = split_growth(&global, 4, 0.2, 3);
        assert_eq!(plans.len(), 4);
        let total: usize = plans.iter().map(|p| p.initial.len() + p.stream.len()).sum();
        assert_eq!(total, 1000);
        for p in &plans {
            let frac = p.stream.len() as f64 / (p.initial.len() + p.stream.len()) as f64;
            assert!((frac - 0.2).abs() < 0.05, "stream fraction {frac}");
        }
    }

    #[test]
    fn growth_plan_take_drains_in_order() {
        let mut p = GrowthPlan {
            initial: Database::new(),
            stream: (0..10).map(|i| Transaction::of(i, &[1])).collect(),
        };
        let first = p.take(3);
        assert_eq!(first.iter().map(|t| t.id).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(p.take(100).len(), 7);
        assert!(p.take(5).is_empty());
    }

    #[test]
    fn significance_hits_exact_global_frequency() {
        for sig in [0.01f64, 0.1, 0.5, -0.2] {
            let lambda = Ratio::new(1, 2);
            let dbs = significance_databases(10, 100, lambda, sig, 7);
            let global = Database::union_of(dbs.iter());
            let support = global.support(&ItemSet::of(&[0])) as f64;
            let expect = lambda.as_f64() * (1.0 + sig) * 1000.0;
            assert!(
                (support - expect).abs() <= 1.0,
                "sig {sig}: support {support}, expected {expect}"
            );
        }
    }

    #[test]
    fn significance_data_is_actually_distributed() {
        let dbs = significance_databases(10, 100, Ratio::new(1, 2), 0.1, 7);
        let supports: Vec<u64> = dbs.iter().map(|d| d.support(&ItemSet::of(&[0]))).collect();
        // Not all resources should hold identical support.
        assert!(supports.iter().any(|&s| s != supports[0]));
    }
}
