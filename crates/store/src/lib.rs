//! `gridmine-store`: the workspace's single durability layer.
//!
//! The paper's malicious-participant model lets resources vanish and
//! return at any moment; everything a resource must remember across
//! that therefore goes through this crate instead of ad-hoc
//! `std::fs::write` calls that can tear mid-crash and swallow their
//! errors — and through this crate's one record codec instead of a
//! format per artifact:
//!
//! * a resource's recovery image (`gridmine_core::recovery`) is a
//!   `Store<MemBackend>`: its mining state bulk-loaded as trees into the
//!   snapshot ([`Store::from_trees`]: the files a `put` per record and a
//!   [`Store::compact`] would leave, each record encoded once), the
//!   controller's audits put into the WAL on top, and the two segments'
//!   bytes ([`MemBackend::to_bytes`]) with [`Store::head`] pinned beside
//!   them — [`Store::open`] is what verifies a restore;
//! * a `gridmine-node` checkpoint is that image plus the node's binary
//!   tallies tree: the store a crash right now would leave — at a
//!   crash, the image the crash left, verified — with the node's entry
//!   appended to its WAL, published with one [`atomic_write_file`].
//!
//! [`FsBackend`], a store over a real directory, is used only by this
//! crate's own tests so far: every durable artifact of the workspace is
//! a [`MemBackend`] store published whole.
//!
//! The design is a miniature log-structured store:
//!
//! * **Keyed trees** ([`Store`]): named `BTreeMap`s of byte keys to
//!   byte values, rebuilt on open from a snapshot plus a WAL tail.
//! * **Digest-chained WAL** ([`wal`]): every record carries a SplitMix64
//!   chain digest — the workspace's only one — so corruption and naive
//!   tampering surface as typed errors on the exact record.
//! * **Atomic rotation**: snapshots are published by tmp + fsync +
//!   rename ([`atomic_write_file`] is the shared primitive); a crash at
//!   any byte leaves the old generation or the new, never a mix.
//! * **Crash-point injection** ([`CrashBackend`]): the [`Backend`]
//!   trait abstracts the primitive file ops, so a seeded [`CrashPlan`]
//!   can kill any operation at any byte boundary in-process; the sweep
//!   in `tests/crash_points.rs` proves every kill point recovers to a
//!   pre- or post-write state — never a torn one, never a panic.
//!
//! The chain is **tamper evidence, not authentication**: it is keyless.
//! A forger who recomputes digests is caught downstream by the restore
//! screens, which treat everything read from disk as untrusted input.

// No panic and no unchecked index on hostile input; replay-deterministic
// and crash-safe (DESIGN.md § Static analysis).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::unimplemented, clippy::disallowed_macros))]
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]

mod backend;
mod crash;
mod error;
mod store;
pub mod wal;

pub use backend::{atomic_write_file, Backend, FsBackend, MemBackend};
pub use crash::{CrashBackend, CrashPlan, OpKind};
pub use error::{CorruptKind, StoreError};
pub use store::{OpenReport, Store, Tree, MAX_TREE_NAME};
pub use wal::{chain_bytes, digest_bytes, mix64};
