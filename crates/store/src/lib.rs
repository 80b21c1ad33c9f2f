//! `gridmine-store`: the workspace's single durability layer.
//!
//! The paper's malicious-participant model lets resources vanish and
//! return at any moment; everything a resource must remember across
//! that therefore goes through this crate instead of ad-hoc
//! `std::fs::write` calls that can tear mid-crash and swallow their
//! errors — and through this crate's one record codec instead of a
//! format per artifact:
//!
//! * the recovery log (`gridmine-recovery`) is a set of trees in a
//!   `Store<MemBackend>`: a checkpoint is the snapshot, every state
//!   delta one WAL record, and a recovery image is the two segments'
//!   bytes ([`MemBackend::to_bytes`]) with [`Store::head`] pinned beside
//!   them — [`Store::open`] is what verifies a restore;
//! * a `gridmine-node` checkpoint is that image plus the node's
//!   controller-audit and tallies trees, published with one
//!   [`atomic_write_file`];
//! * the §3 dynamic-database transaction log (`gridmine-sim`'s
//!   `DurableStream`) is a store over [`FsBackend`].
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

// Protocol-adjacent crate: bytes come from disk, which the adversary
// model treats as hostile input, so `.unwrap()` outside tests is part
// of the lint wall (gridlint's panic-freedom rule covers the whole
// crate; this is the rustc/clippy half).
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod backend;
mod crash;
mod error;
mod store;
pub mod wal;

pub use backend::{atomic_write_file, Backend, FsBackend, MemBackend};
pub use crash::{CrashBackend, CrashPlan, OpKind};
pub use error::{CorruptKind, StoreError};
pub use store::{OpenReport, Store, MAX_TREE_NAME};
pub use wal::{chain_bytes, digest_bytes, mix64};
