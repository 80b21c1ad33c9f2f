//! **Secure-Majority-Rule** — the paper's contribution: k-secure
//! distributed association rule mining over a data grid, robust to
//! malicious brokers and controllers (HPDC'04, Gilburd/Schuster/Wolff).
//!
//! Every resource is the triple of §5 (see Figure 1):
//!
//! * the **accountant** ([`accountant`]) holds the local database partition
//!   and the encryption key; it answers support queries with sealed
//!   [`counter::SecureCounter`]s that carry the vote, the accounting
//!   `share` field and a timestamp vector (Algorithm 2);
//! * the **broker** ([`broker`]) runs Scalable-Majority over ciphertexts it
//!   can neither read nor forge (Algorithm 1);
//! * the **controller** ([`controller`]) holds the decryption key and
//!   answers the broker's sign-evaluation queries through a two-party SFE,
//!   enforcing the k-privacy gate and the malicious-behaviour audits
//!   (Algorithm 3).
//!
//! [`resource`] assembles the three into a full Secure-Majority-Rule
//! participant (Algorithm 4); [`kttp`] is an executable rendition of the
//! k-TTP of Definition 3.1 used to property-test the privacy gate;
//! [`attack`] injects the malicious-broker behaviours of §5.2.
//!
//! All protocol code is generic over
//! [`gridmine_paillier::HomCipher`], so the same state machines run under
//! real Paillier and under the plaintext mock used at simulation scale.
//!
//! The driving API is [`session::MineSession`]: a builder covering the
//! synchronous driver, the threaded driver, fault injection under either
//! and structured observability (`gridmine-obs` recorders). The two
//! share one in-process round ([`inproc`]). A third, multi-process
//! backend lives in the `gridmine-net` crate and drives the same
//! resources over real loopback TCP sockets. What a resource does at
//! each round — crash-wipe, restore, heal, checkpoint, scan — and how
//! reports fold into a [`MiningOutcome`] is written once, in [`round`];
//! the drivers only move its inputs and outputs.

// Protocol crate: the paper's adversary model makes every panic a
// denial-of-service lever, so `.unwrap()` outside tests is part of the
// lint wall (the gridlint panic-freedom rule covers the hot modules;
// this covers the rest of the crate).
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod accountant;
pub mod attack;
pub mod broker;
pub mod chaos;
pub mod controller;
pub mod counter;
pub mod inproc;
pub mod keyring;
pub mod kttp;
pub mod miner;
pub mod plain;
pub mod proxy;
pub mod resource;
pub mod round;
pub mod rules;
pub mod session;
pub mod sfe;
pub mod shares;
pub mod threaded;

pub use accountant::Accountant;
pub use attack::{BrokerBehavior, ControllerBehavior};
pub use broker::{Broker, BrokerMsg};
pub use chaos::{ChaosReport, DegradeReason, ResourceStatus};
pub use controller::{AuditImage, Controller, SealedEdges, SendEdge, Verdict};
pub use counter::{CounterLayout, SecureCounter};
pub use gridmine_recovery::{RecoveryMode, RecoveryPolicy, RetryPolicy};
pub use inproc::run_synchronous;
pub use keyring::GridKeys;
pub use kttp::KTtp;
pub use miner::{item_domain, MineConfig, MiningOutcome};
pub use plain::PlainCounter;
pub use proxy::ChaosProxy;
pub use resource::{SecureResource, WireMsg};
pub use round::{assemble, ResourceReport, RoundMachine, RoundSchedule, Scan, Seat, Tallies};
pub use rules::RuleId;
pub use session::{validate_grid, MineSession, SessionCipher, SessionError};
pub use sfe::{GateMode, KGate};
pub use threaded::run_threaded_full;
