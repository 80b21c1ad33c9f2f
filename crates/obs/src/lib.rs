//! # gridmine-obs — the grid's flight recorder
//!
//! Secure-Majority-Rule's value claim is behavioral: locality of
//! communication (§5 of the paper), convergence under churn (§6), and
//! conviction of malicious participants. This crate gives every layer of
//! the stack one vocabulary to report that behavior — a typed [`Event`]
//! enum covering the protocol's observable actions — and one channel to
//! report it through, the [`Recorder`] trait.
//!
//! Three recorders ship in-tree:
//!
//! * [`NullRecorder`] — the zero-cost default. `enabled()` returns
//!   `false`, and every emission site is guarded so event construction
//!   (string formatting included) is skipped entirely.
//! * [`MemoryRecorder`] — buffers events for test assertions.
//! * [`JsonlRecorder`] — one JSON object per line, suitable for CI
//!   artifacts; pairs with [`Event::from_json`] for round-trips.
//!
//! [`Metrics`] is itself a recorder: it tallies events by kind, bytes on
//! wire, SFE round-trips, and modpow latency buckets, and snapshots into
//! the drivers' outcome structs. [`FanoutRecorder`] composes it with any
//! user sink.
//!
//! The crate is dependency-free (std only) so every crate in the
//! workspace — including `gridmine-paillier` at the bottom of the stack —
//! can emit events without dependency cycles.

// No unwrap or expect, so a poisoned lock cannot cascade;
// replay-deterministic and crash-safe (DESIGN.md § Static analysis).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod event;
pub mod metrics;
pub mod recorder;
pub mod render;

pub use event::{Event, EventKind, KeyOpKind, SfeKind, VerdictKind};
pub use metrics::{LatencyStats, Metrics, MetricsSnapshot};
pub use recorder::{
    null, FanoutRecorder, JsonlRecorder, MemoryRecorder, NullRecorder, Recorder, SharedRecorder,
};
pub use render::Table;

/// Emit an event through `rec`, constructing it lazily.
///
/// The closure runs only when the recorder is enabled, so the default
/// [`NullRecorder`] path pays one virtual call and a branch — no string
/// formatting, no allocation.
#[inline]
pub fn emit<F: FnOnce() -> Event>(rec: &SharedRecorder, f: F) {
    if rec.enabled() {
        rec.record(&f());
    }
}
