//! Crash-restart durability for Secure-Majority-Rule resources.
//!
//! The paper's target grid (§3, §5) loses and regains resources mid-run
//! while malicious participants probe every weakness. This crate supplies
//! the two pieces a recovering resource needs:
//!
//! * **Checkpoint + journal** ([`RecoveryLog`]): the resource's volatile
//!   mining state ([`ResourceState`]) as named trees in a
//!   [`gridmine_store::Store`] — a checkpoint is the store's snapshot,
//!   every state delta since is one record of its write-ahead log — so
//!   truncation, reordering and payload tampering are caught by the one
//!   digest chain the workspace has. This crate adds the typed records,
//!   their screen, and the adapter between the two. At rest the log is a
//!   [`RecoveryImage`]: the store's segment bytes with the chain head
//!   pinned, which a crash hands to its driver — held in memory by the
//!   sim and the in-process drivers, published to a file by a node
//!   process.
//! * **Unified retry/deadline policy** ([`RetryPolicy`]): one place for
//!   the previously scattered bounded-SFE-retry budget, anti-entropy
//!   resend cadence, channel-drain timeout and the recovery watchdog
//!   deadline, with capped exponential backoff and seeded jitter.
//!
//! Restored state is **untrusted input**: the digest chain proves only
//! log integrity, not honesty (there is no key; a forger who rewrites the
//! whole image re-chains it trivially). The consuming resource therefore
//! re-screens every restored record ([`RuleRecord::is_wellformed`]),
//! re-audits share totals against its accountant, and converts any
//! failure into a `MaliciousResource` verdict — never a panic.

// Protocol crate: the paper's adversary model makes every panic a
// denial-of-service lever, so `.unwrap()` outside tests is part of the
// lint wall (the gridlint panic-freedom rule covers the hot modules;
// this covers the rest of the crate).
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod journal;
mod policy;

pub use journal::{JournalError, RecoveryImage, RecoveryLog, ResourceState, RuleRecord};
pub use policy::{RecoveryMode, RecoveryPolicy, RetryPolicy};
