//! Real-socket deployment of Secure-Majority-Rule.
//!
//! Everything before this crate runs the grid in one OS process — the
//! simulator schedules closures, the threaded driver schedules threads.
//! This crate takes the same resources (accountant + broker +
//! controller) onto real loopback TCP sockets, one **process** per
//! resource, and keeps the protocol semantics byte-comparable with the
//! threaded driver on the same seed:
//!
//! * [`frame`]/[`codec`] — the versioned binary wire format: length-
//!   delimited frames with a magic + version header and a per-frame
//!   checksum, and a total decoder that takes one byte form per frame and
//!   maps everything else to a typed [`WireError`] (accounted as
//!   `Verdict::MaliciousResource` at the peering door), never a panic.
//! * [`transport`] — the peering handshake (session id and resource,
//!   under the version every frame header carries), the heartbeat
//!   cadence, and dialing bounded by the recovery
//!   [`RetryPolicy`](gridmine_core::RetryPolicy)'s budget.
//! * the in-path chaos layer is core's
//!   [`ChaosProxy`](gridmine_core::ChaosProxy): one seeded
//!   [`FaultPlan`](gridmine_topology::FaultPlan) drives byte-level
//!   socket faults (drop / duplicate / delay / process kill) with the
//!   same per-edge decisions the threaded driver sees.
//! * [`node`]/[`hub`] — the multi-process backend: [`NetSession`]
//!   mirrors the `MineSession` builder, spawns one `gridmine-node`
//!   process per resource, supervises them (a peer whose stream closes
//!   reads `Degraded(Disconnected)`), and can SIGKILL a resource
//!   mid-session and warm-restart it from a persisted recovery image.

// No panic on hostile input; replay-deterministic and crash-safe (DESIGN.md § Static analysis).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::unimplemented, clippy::disallowed_macros))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod codec;
pub mod error;
pub mod frame;
pub mod hub;
pub mod node;
pub mod spec;
pub mod state;
pub mod transport;

pub use codec::{Frame, NodeReport, Phase, Tallies};
pub use error::{NetError, WireError};
pub use frame::{MAX_PAYLOAD, WIRE_VERSION};
pub use hub::{NetCipher, NetSession};
pub use spec::NodeSpec;
pub use state::NodeState;
