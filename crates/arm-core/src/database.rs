//! Databases: growing lists of transactions with support counting.
//!
//! §3's database model is append-only ("no transactions will be deleted …
//! deleting a transaction can be simulated by adding a 'negating'
//! transaction"), so [`Database`] exposes `append` and never removal.
//! [`Database::support`] tests every transaction, in parallel with rayon
//! on large databases. It serves the centralized truth (Apriori) and the
//! reports, and it is the oracle the grid's answers are judged by. The
//! accountants never call it: each counts its candidates from a vertical
//! index of its own partition (`gridmine_core::accountant`).

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::itemset::{subset_of_sorted, ItemSet};
use crate::transaction::Transaction;

/// A transaction database `DB_t` (one resource's partition, or the global
/// union when used centrally).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Database {
    transactions: Vec<Transaction>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds from a transaction list.
    pub fn from_transactions(transactions: Vec<Transaction>) -> Self {
        Database { transactions }
    }

    /// Number of stored records (negating transactions included — this is
    /// the log length, not the net size; see [`Database::net_len`]).
    pub fn len(&self) -> usize {
        self.transactions.len()
    }

    /// Net transaction count: records minus negations, saturating at 0.
    pub fn net_len(&self) -> usize {
        let net: i64 = self.transactions.iter().map(|t| t.polarity()).sum();
        net.max(0) as usize
    }

    /// True when the database holds no transactions.
    pub fn is_empty(&self) -> bool {
        self.transactions.is_empty()
    }

    /// Appends one transaction (database growth, §6's +20 tx per step).
    pub fn append(&mut self, t: Transaction) {
        self.transactions.push(t);
    }

    /// Appends many transactions.
    pub fn extend<I: IntoIterator<Item = Transaction>>(&mut self, ts: I) {
        self.transactions.extend(ts);
    }

    /// The transactions in insertion order.
    pub fn transactions(&self) -> &[Transaction] {
        &self.transactions
    }

    /// `Support(X, DB)`: net count of transactions containing all of `X`
    /// (negating transactions subtract, per §3's deletion model; the net
    /// saturates at zero).
    pub fn support(&self, x: &ItemSet) -> u64 {
        // The set's items once, not once a transaction.
        let x = x.items();
        let holds = |t: &&Transaction| subset_of_sorted(x, t.items());
        let net: i64 = if self.transactions.len() >= PAR_THRESHOLD {
            self.transactions.par_iter().filter(holds).map(|t| t.polarity()).sum()
        } else {
            self.transactions.iter().filter(holds).map(|t| t.polarity()).sum()
        };
        net.max(0) as u64
    }

    /// `Freq(X, DB)` as a float (reporting only; protocol math stays
    /// rational).
    pub fn freq(&self, x: &ItemSet) -> f64 {
        if self.transactions.is_empty() {
            return 0.0;
        }
        self.support(x) as f64 / self.transactions.len() as f64
    }

    /// All distinct items appearing in the database, sorted.
    pub fn item_domain(&self) -> Vec<crate::itemset::Item> {
        let mut items: Vec<_> =
            self.transactions.iter().flat_map(|t| t.items().iter().copied()).collect();
        items.sort_unstable();
        items.dedup();
        items
    }

    /// Merges several partitions into one database (the union `DB^V`).
    pub fn union_of<'a, I: IntoIterator<Item = &'a Database>>(parts: I) -> Database {
        let mut db = Database::new();
        for p in parts {
            db.transactions.extend_from_slice(&p.transactions);
        }
        db
    }
}

/// Below this size a sequential scan beats rayon's fork-join overhead.
const PAR_THRESHOLD: usize = 4096;

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Database {
        Database::from_transactions(vec![
            Transaction::of(0, &[1, 2, 3]),
            Transaction::of(1, &[1, 2]),
            Transaction::of(2, &[2, 3]),
            Transaction::of(3, &[1, 3]),
            Transaction::of(4, &[1, 2, 3, 4]),
        ])
    }

    #[test]
    fn support_counts_containing_transactions() {
        let db = db();
        assert_eq!(db.support(&ItemSet::of(&[1])), 4);
        assert_eq!(db.support(&ItemSet::of(&[1, 2])), 3);
        assert_eq!(db.support(&ItemSet::of(&[4])), 1);
        assert_eq!(db.support(&ItemSet::of(&[5])), 0);
        assert_eq!(db.support(&ItemSet::empty()), 5);
    }

    #[test]
    fn freq_is_support_over_len() {
        let db = db();
        assert!((db.freq(&ItemSet::of(&[1])) - 0.8).abs() < 1e-12);
        assert_eq!(Database::new().freq(&ItemSet::of(&[1])), 0.0);
    }

    #[test]
    fn item_domain_is_sorted_distinct() {
        let items: Vec<u32> = db().item_domain().iter().map(|i| i.0).collect();
        assert_eq!(items, vec![1, 2, 3, 4]);
    }

    #[test]
    fn union_of_partitions() {
        let a = Database::from_transactions(vec![Transaction::of(0, &[1])]);
        let b =
            Database::from_transactions(vec![Transaction::of(1, &[2]), Transaction::of(2, &[3])]);
        let u = Database::union_of([&a, &b]);
        assert_eq!(u.len(), 3);
        assert_eq!(u.support(&ItemSet::of(&[2])), 1);
    }

    #[test]
    fn parallel_and_sequential_paths_agree() {
        // Build a DB crossing PAR_THRESHOLD and compare with a manual count.
        let mut txs = Vec::new();
        for i in 0..5000u64 {
            let items: Vec<u32> = if i % 3 == 0 { vec![1, 2] } else { vec![2] };
            txs.push(Transaction::new(i, items.into_iter().map(crate::itemset::Item).collect()));
        }
        let db = Database::from_transactions(txs);
        assert_eq!(db.support(&ItemSet::of(&[1])), (0..5000).filter(|i| i % 3 == 0).count() as u64);
        assert_eq!(db.support(&ItemSet::of(&[2])), 5000);
    }
}
