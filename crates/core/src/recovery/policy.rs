//! The unified retry/deadline policy and the recovery mode switch.

/// One home for the bounded-retry and timing constants that were
/// previously scattered across the drivers:
///
/// * `budget` — the broker↔controller SFE retry budget (a resource
///   degrades with `MuteController` once it is spent), and the number
///   of attempts a net node makes to dial its hub;
/// * `deadline_ms` — the threaded driver's recovery watchdog: a restore
///   that overruns it degrades the resource instead of aborting the run;
/// * `resend_every` — the cold-rejoin resend cadence, in protocol rounds:
///   a cold rejoiner's edges are healed every `resend_every` rounds from
///   its rejoin tick (by the synchronous, threaded and net drivers and the
///   simulator alike); the simulator also heals every edge under lossy
///   links at its multiples of `resend_every` steps, where the round
///   drivers heal every round.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct RetryPolicy {
    pub budget: u64,
    pub deadline_ms: u64,
    pub resend_every: u64,
}

impl RetryPolicy {
    /// The workspace defaults (these reproduce the constants the drivers
    /// used before the policy existed: budget 16, anti-entropy every 5
    /// rounds).
    pub const DEFAULT: RetryPolicy =
        RetryPolicy { budget: 16, deadline_ms: 1_000, resend_every: 5 };

    /// The watchdog deadline in nanoseconds (for `Instant`-based checks).
    pub fn deadline_nanos(&self) -> u128 {
        u128::from(self.deadline_ms) * 1_000_000
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::DEFAULT
    }
}

/// Checkpoint-mode knobs: how often to take a checkpoint, and the retry
/// policy in force.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct RecoveryPolicy {
    /// Checkpoint cadence, in protocol rounds.
    pub checkpoint_every: u64,
    pub retry: RetryPolicy,
}

impl RecoveryPolicy {
    pub const DEFAULT: RecoveryPolicy =
        RecoveryPolicy { checkpoint_every: 5, retry: RetryPolicy::DEFAULT };

    /// Overrides the checkpoint cadence. A cadence of zero is read as
    /// one, like every other cadence in the workspace.
    pub fn with_checkpoint_every(mut self, every: u64) -> Self {
        self.checkpoint_every = every;
        self
    }
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self::DEFAULT
    }
}

/// How a crashed resource comes back. Every crash wipes volatile mining
/// state, as a killed process loses it; the mode decides what the rejoin
/// restores.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum RecoveryMode {
    /// No durability: only the controller's audits come back, and the
    /// rest is rebuilt from the rejoin's heal resends.
    #[default]
    ColdRestart,
    /// Wipe at crash time, then restore from the validated recovery
    /// image instead of starting cold.
    Checkpoint(RecoveryPolicy),
}

impl RecoveryMode {
    /// The checkpoint policy, when recovery is armed.
    pub fn policy(&self) -> Option<RecoveryPolicy> {
        match self {
            RecoveryMode::Checkpoint(p) => Some(*p),
            _ => None,
        }
    }

    /// The retry policy in force (defaults when recovery is off).
    pub fn retry(&self) -> RetryPolicy {
        self.policy().map_or(RetryPolicy::DEFAULT, |p| p.retry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_accessors() {
        assert_eq!(RecoveryMode::default(), RecoveryMode::ColdRestart);
        let p = RecoveryPolicy::DEFAULT.with_checkpoint_every(3);
        let m = RecoveryMode::Checkpoint(p);
        assert_eq!(m.policy(), Some(p));
        assert_eq!(m.retry(), RetryPolicy::DEFAULT);
        assert_eq!(RecoveryMode::ColdRestart.policy(), None);
        assert_eq!(RecoveryMode::ColdRestart.retry(), RetryPolicy::DEFAULT);
    }

    #[test]
    fn policies_roundtrip_through_serde() {
        let p = RecoveryPolicy::DEFAULT.with_checkpoint_every(7);
        let json = serde_json::to_string(&p).expect("serializes");
        let back: RecoveryPolicy = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, p);
    }
}
