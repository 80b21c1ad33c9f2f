//! The unified retry/deadline policy and the recovery mode switch.

use gridmine_store::mix64;

/// One home for the bounded-retry and timing constants that were
/// previously scattered across the drivers:
///
/// * `budget` — the broker↔controller SFE retry budget (a resource
///   degrades with `MuteController` once it is spent);
/// * `base_ms`/`cap_ms` — capped exponential backoff for threaded
///   channel receives ([`RetryPolicy::backoff_ms`]);
/// * `deadline_ms` — the threaded driver's recovery watchdog: a restore
///   that overruns it degrades the resource instead of aborting the run;
/// * `resend_every` — the cold-rejoin resend cadence, in protocol rounds:
///   a cold rejoiner's edges are healed every `resend_every` rounds from
///   its rejoin tick (by the synchronous, threaded and net drivers and the
///   simulator alike); the simulator also heals every edge under lossy
///   links at its multiples of `resend_every` steps, where the round
///   drivers heal every round;
/// * `seed` — drives the deterministic backoff jitter.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct RetryPolicy {
    pub budget: u64,
    pub base_ms: u64,
    pub cap_ms: u64,
    pub deadline_ms: u64,
    pub resend_every: u64,
    pub seed: u64,
}

impl RetryPolicy {
    /// The workspace defaults (these reproduce the constants the drivers
    /// used before the policy existed: budget 16, 1 ms drain timeout,
    /// anti-entropy every 5 rounds).
    pub const DEFAULT: RetryPolicy = RetryPolicy {
        budget: 16,
        base_ms: 1,
        cap_ms: 16,
        deadline_ms: 1_000,
        resend_every: 5,
        seed: 0x9E37_79B9,
    };

    /// Backoff for the `attempt`-th consecutive failure (0-based):
    /// capped exponential plus deterministic seeded jitter (≤ 25 % of the
    /// slot, so `backoff_ms(0)` with defaults is exactly `base_ms`).
    pub fn backoff_ms(&self, attempt: u32) -> u64 {
        let exp = self.base_ms.max(1).saturating_mul(1u64 << attempt.min(20));
        let slot = exp.min(self.cap_ms.max(self.base_ms.max(1)));
        let jitter = mix64(self.seed ^ u64::from(attempt)) % (slot / 4 + 1);
        slot + jitter
    }

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

    /// # Panics
    /// Panics if `every` is 0.
    #[expect(clippy::disallowed_macros, reason = "a local configuration precondition, not input")]
    pub fn with_checkpoint_every(mut self, every: u64) -> Self {
        assert!(every > 0, "checkpoint cadence must be positive");
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
    fn backoff_is_deterministic_capped_and_monotone_to_the_cap() {
        let p = RetryPolicy::DEFAULT;
        assert_eq!(p.backoff_ms(0), 1, "first retry keeps the legacy 1 ms drain timeout");
        for a in 0..24 {
            assert_eq!(p.backoff_ms(a), p.backoff_ms(a), "same attempt, same delay");
            // Slot ≤ cap, jitter ≤ 25% of slot.
            assert!(p.backoff_ms(a) <= p.cap_ms + p.cap_ms / 4);
        }
        // The exponential actually grows before the cap bites.
        assert!(p.backoff_ms(3) > p.backoff_ms(0));
    }

    #[test]
    fn jitter_depends_on_the_seed() {
        let a = RetryPolicy { seed: 1, ..RetryPolicy::DEFAULT };
        let b = RetryPolicy { seed: 2, ..RetryPolicy::DEFAULT };
        // Some attempt in the capped region must differ between seeds.
        assert!((4..24).any(|i| a.backoff_ms(i) != b.backoff_ms(i)), "seeded jitter never fired");
    }

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
