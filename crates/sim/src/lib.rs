//! Discrete-event data-grid simulator (§6's experimental harness).
//!
//! Reproduces the paper's simulation regime: resources connected by a
//! spanning tree over a Barabási–Albert topology with per-link propagation
//! delays; each resource processes `scan_budget` (100) transactions per
//! step, runs a candidate-generation cycle every `candidate_every` (5)
//! steps, and receives `growth_per_step` (20) new transactions per step.
//!
//! * [`config`] — simulation parameters with the paper's defaults;
//! * [`workload`] — partitioned databases, growth streams, and the
//!   single-itemset significance workloads of Figure 3;
//! * [`engine`] — the event-driven simulation core (one set of pass
//!   bodies under the timer-wheel scheduler, with their dense schedule
//!   kept as a differential oracle);
//! * [`wheel`] — the deterministic hierarchical timer wheel;
//! * [`metrics`] — global recall/precision sampling and time-to-recall;
//! * [`session`] — the [`SimSession`] builder, the simulator's analogue
//!   of `MineSession`/`NetSession`;
//! * [`runner`] — experiment drivers used by the benches.

pub mod config;
pub mod durable;
pub mod engine;
pub mod metrics;
pub mod runner;
pub mod session;
pub mod wheel;
pub mod workload;

pub use config::SimConfig;
pub use durable::{churn_plans, churn_stream, DurableStream};
pub use engine::Simulation;
pub use metrics::{GlobalMetrics, ObsSummary, Sample};
pub use runner::{single_itemset_steps, time_to_recall};
pub use session::SimSession;
pub use wheel::TimerWheel;
pub use workload::{significance_databases, split_growth, GrowthPlan};
