//! Association-rule-mining domain model.
//!
//! Everything the paper's §3 "Association Rule Mining Model" defines lives
//! here: items, itemsets, transactions, databases, support/frequency,
//! candidate rules with rational thresholds, plus two reference miners —
//! a levelwise [`apriori`] miner used as the ground truth `R[DB]` for the
//! recall/precision metrics of §6, and an exponential [`bruteforce`] miner
//! used as a property-test oracle for Apriori itself.

pub mod apriori;
pub mod bruteforce;
pub mod database;
pub mod itemset;
pub mod metrics;
pub mod ratio;
pub mod rule;
pub mod transaction;

pub use apriori::{correct_rules, frequent_itemsets, AprioriConfig};
pub use database::Database;
pub use itemset::{Item, ItemSet};
pub use metrics::{precision, recall};
pub use ratio::Ratio;
pub use rule::{CandidateRule, Rule, RuleFormError, RuleSet};
pub use transaction::Transaction;
