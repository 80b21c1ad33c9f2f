//! # gridmine
//!
//! A complete reproduction of **"Privacy-Preserving Data Mining on Data
//! Grids in the Presence of Malicious Participants"** (Gilburd, Schuster,
//! Wolff — HPDC 2004): *Secure-Majority-Rule*, a k-secure, asynchronous,
//! local distributed association-rule mining algorithm for data grids,
//! together with every substrate it stands on.
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`crypto`] | `gridmine-paillier` | Paillier, slot vectors, authenticated oblivious counters |
//! | [`arm`] | `gridmine-arm` | itemsets, databases, Apriori ground truth, metrics |
//! | [`quest`] | `gridmine-quest` | IBM Quest-style synthetic data generator |
//! | [`topology`] | `gridmine-topology` | Barabási–Albert overlays, spanning trees, delays |
//! | [`secure`] | `gridmine-core` | the paper's contribution: Algorithms 1–4, k-TTP, attacks |
//! | [`sim`] | `gridmine-sim` | the §6 grid simulator and experiment drivers |
//! | [`obs`] | `gridmine-obs` | structured protocol events, recorders, metrics |
//! | [`recovery`] | `gridmine-core` | recovery images (the state a crash loses), retry policies |
//! | [`store`] | `gridmine-store` | embedded log-structured store: digest-chained WAL, crash-point injection |
//! | [`net`] | `gridmine-net` | versioned wire codec, supervised TCP transport, multi-process driver |
//!
//! ## Quickstart
//!
//! Mining runs are driven through the [`secure::session::MineSession`]
//! builder — pick a cipher, a topology, optionally faults and a recorder,
//! then `run()` (synchronous) or `run_threaded()` (one thread per
//! resource):
//!
//! ```
//! use gridmine::prelude::*;
//!
//! // A 4-resource grid over a path, every partition {1,2}-heavy.
//! let dbs: Vec<Database> = (0..4u64)
//!     .map(|u| Database::from_transactions(
//!         (0..20).map(|j| Transaction::of(u * 20 + j, &[1, 2])).collect(),
//!     ))
//!     .collect();
//!
//! let cfg = MineConfig::new(Ratio::new(1, 2), Ratio::new(1, 2));
//! let rec = MemoryRecorder::shared();
//! let outcome = MineSession::new(cfg)          // MockCipher by default
//!     .with_topology(Tree::path(4))
//!     .with_databases(dbs)
//!     .with_recorder(rec.clone())
//!     .run();
//!
//! assert!(outcome.verdicts.is_empty());
//! assert!(outcome.solutions[0].contains(&Rule::frequency(ItemSet::of(&[1, 2]))));
//! // The recorder saw every counter the grid mailed.
//! assert_eq!(rec.count_of(EventKind::CounterSent) as u64, outcome.messages);
//! assert_eq!(outcome.metrics.msgs_sent(), outcome.messages);
//! ```
//!
//! Simulation-scale experiments go through the analogous
//! [`sim::session::SimSession`] builder, which drives the event-driven
//! engine (one ordered queue of pending passes):
//!
//! ```
//! use gridmine::prelude::*;
//!
//! let params = QuestParams::t5i2().with_transactions(300).with_items(30).with_patterns(12);
//! let global = gridmine::quest::generate(&params);
//!
//! let mut cfg = SimConfig::small().with_resources(4).with_k(1);
//! cfg.growth_per_step = 0;
//! cfg.min_freq = Ratio::from_f64(0.08);
//!
//! let metrics = SimSession::new(cfg)
//!     .with_global(&global, 0.0)
//!     .with_steps(45)
//!     .convergence(15);
//! assert!(metrics.final_recall() > 0.9);
//! ```

pub use gridmine_arm as arm;
pub use gridmine_core as secure;
pub use gridmine_core::recovery;
pub use gridmine_net as net;
pub use gridmine_obs as obs;
pub use gridmine_paillier as crypto;
pub use gridmine_quest as quest;
pub use gridmine_sim as sim;
pub use gridmine_store as store;
pub use gridmine_topology as topology;

/// The most common imports in one place.
pub mod prelude {
    pub use gridmine_arm::{
        correct_rules, frequent_itemsets, AprioriConfig, Database, Item, ItemSet, Ratio, Rule,
        RuleSet, Transaction,
    };
    pub use gridmine_core::recovery::{RecoveryImage, RecoveryMode, RecoveryPolicy, RetryPolicy};
    pub use gridmine_core::{
        BrokerBehavior, CandidateGenerator, ChaosReport, ControllerBehavior, DegradeReason,
        GridKeys, KTtp, MineConfig, MineSession, MiningOutcome, ResourceStatus, SecureResource,
        SessionCipher, SessionError, Verdict, WireMsg,
    };
    pub use gridmine_obs::{
        Event, EventKind, FanoutRecorder, JsonlRecorder, MemoryRecorder, Metrics, MetricsSnapshot,
        NullRecorder, Recorder, SharedRecorder,
    };
    pub use gridmine_paillier::{HomCipher, Keypair, MockCipher, PaillierCtx};
    pub use gridmine_quest::QuestParams;
    pub use gridmine_sim::{
        single_itemset_steps, time_to_recall, SimConfig, SimSession, Simulation,
    };
    pub use gridmine_topology::faults::{EdgeFaults, FaultPlan, FaultStats, ResourceFault};
    pub use gridmine_topology::{DelayModel, Overlay, Tree};
}
