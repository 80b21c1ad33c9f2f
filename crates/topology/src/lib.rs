//! Overlay topologies for the simulated data grid.
//!
//! The paper's evaluation (§6) generates network topologies with BRITE
//! under the Barabási–Albert preferential-attachment model and connects
//! resources "via links with different propagation delays as in the real
//! world", while "an underlying mechanism maintains a communication tree
//! that spans all the resources" (§3).
//!
//! * [`graph`] — undirected graphs with degree statistics;
//! * [`barabasi`] — the BA preferential-attachment generator (what BRITE
//!   implements);
//! * [`spanning`] — BFS spanning-tree extraction plus tree invariants;
//! * [`overlay`] — the communication tree with per-link delays and dynamic
//!   membership (resource join/leave);
//! * [`faults`] — seeded, deterministic fault injection (message drop /
//!   duplication / jitter, resource crash / recover / depart) for chaos
//!   runs against the protocol's tolerance machinery.

// Replay-deterministic and crash-safe (DESIGN.md § Static analysis).
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod barabasi;
pub mod faults;
pub mod graph;
pub mod overlay;
pub mod spanning;

pub use barabasi::barabasi_albert;
pub use faults::{Delivery, EdgeFaults, FaultPlan, FaultStats, FaultyLink, ResourceFault};
pub use graph::{Graph, NodeId};
pub use overlay::{DelayModel, Overlay};
pub use spanning::{spanning_tree, Tree};
