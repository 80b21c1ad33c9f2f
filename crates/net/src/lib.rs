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
//!   checksum, and a total decoder mapping hostile bytes to typed
//!   [`WireError`]s (accounted as `Verdict::MaliciousResource` at the
//!   peering door), never a panic.
//! * [`transport`] — the peering handshake (protocol version + role +
//!   session id), heartbeat liveness, and capped-backoff dialing reusing
//!   the recovery [`RetryPolicy`](gridmine_core::RetryPolicy).
//! * the in-path chaos layer is core's
//!   [`ChaosProxy`](gridmine_core::ChaosProxy): one seeded
//!   [`FaultPlan`](gridmine_topology::FaultPlan) drives byte-level
//!   socket faults (drop / duplicate / delay / process kill) with the
//!   same per-edge decisions the threaded driver sees.
//! * [`node`]/[`hub`] — the multi-process backend: [`NetSession`]
//!   mirrors the `MineSession` builder, spawns one `gridmine-node`
//!   process per resource, supervises them (degrading a peer to the
//!   existing quarantine states when its reconnect budget runs dry), and
//!   can SIGKILL a resource mid-session and warm-restart it from a
//!   persisted recovery image.

pub mod codec;
pub mod error;
pub mod frame;
pub mod hub;
pub mod node;
pub mod spec;
pub mod state;
pub mod transport;

pub use codec::{Frame, NodeReport, Phase, Role, Tallies};
pub use error::{NetError, WireError};
pub use frame::{MAX_PAYLOAD, WIRE_VERSION};
pub use hub::{NetCipher, NetSession};
pub use spec::NodeSpec;
pub use state::NodeState;
