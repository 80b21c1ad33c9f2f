//! IBM Quest-style synthetic transaction generation (§6's workloads).
//!
//! The paper generates its T5I2 / T10I4 / T20I6 databases with "the
//! standard association patterns generation tool from the IBM Quest group"
//! — the Agrawal–Srikant synthetic generator of VLDB'94. That tool is long
//! gone from the web; [`generator`] reimplements it from the published
//! description: a table of potentially-large itemsets ("patterns") with
//! exponentially distributed weights and per-pattern corruption levels,
//! Poisson transaction lengths, and cross-pattern item reuse.
//!
//! [`sampler`] implements the paper's partitioning step: "using standard,
//! pair-wise independent hashing techniques, transactions were sampled from
//! the database to simulate the local database of each resource."

// Replay-deterministic and crash-safe (DESIGN.md § Static analysis).
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod dist;
pub mod generator;
pub mod params;
pub mod sampler;

pub use generator::generate;
pub use params::QuestParams;
pub use sampler::{partition, sample_with_replacement, PairwiseHash};
