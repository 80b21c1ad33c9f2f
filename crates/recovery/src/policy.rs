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
/// * `resend_every` — the anti-entropy / healing resend cadence, in
///   protocol rounds (sim steps or threaded ticks);
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

    pub fn with_budget(mut self, budget: u64) -> Self {
        self.budget = budget;
        self
    }

    pub fn with_deadline_ms(mut self, deadline_ms: u64) -> Self {
        self.deadline_ms = deadline_ms;
        self
    }

    pub fn with_resend_every(mut self, every: u64) -> Self {
        assert!(every > 0, "resend cadence must be positive");
        self.resend_every = every;
        self
    }

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

/// Checkpoint-mode knobs: how often to snapshot-and-truncate the journal
/// and how fast a restored resource rescans its backlog.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct RecoveryPolicy {
    /// Snapshot + journal truncation cadence, in protocol rounds.
    pub checkpoint_every: u64,
    /// Per-round scan budget while a recovered resource catches up on
    /// its backlog (bounds the recovery burst).
    pub catchup_scan_budget: u64,
    pub retry: RetryPolicy,
}

impl RecoveryPolicy {
    pub const DEFAULT: RecoveryPolicy =
        RecoveryPolicy { checkpoint_every: 5, catchup_scan_budget: 8, retry: RetryPolicy::DEFAULT };

    pub fn with_checkpoint_every(mut self, every: u64) -> Self {
        assert!(every > 0, "checkpoint cadence must be positive");
        self.checkpoint_every = every;
        self
    }

    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self::DEFAULT
    }
}

/// What a driver does with a resource scheduled to crash and recover.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum RecoveryMode {
    /// Legacy behavior: the driver keeps the resource object intact and
    /// merely silences it while "down" (no wipe, no journal).
    #[default]
    Disabled,
    /// Honest crash semantics without durability: volatile mining state
    /// is wiped at crash time and rebuilt from anti-entropy resends.
    ColdRestart,
    /// Wipe at crash time, then restore from the validated checkpoint +
    /// journal instead of starting cold.
    Checkpoint(RecoveryPolicy),
}

impl RecoveryMode {
    /// Whether crashes wipe volatile state (any non-legacy mode).
    pub fn wipes(&self) -> bool {
        !matches!(self, RecoveryMode::Disabled)
    }

    /// The checkpoint policy, when journaling is armed.
    pub fn policy(&self) -> Option<RecoveryPolicy> {
        match self {
            RecoveryMode::Checkpoint(p) => Some(*p),
            _ => None,
        }
    }

    /// The retry policy in force (defaults when journaling is off).
    pub fn retry(&self) -> RetryPolicy {
        self.policy().map_or(RetryPolicy::DEFAULT, |p| p.retry)
    }

    /// The catch-up scan budget in force.
    pub fn catchup_scan_budget(&self) -> u64 {
        self.policy().map_or(RecoveryPolicy::DEFAULT.catchup_scan_budget, |p| p.catchup_scan_budget)
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
        assert!(!RecoveryMode::Disabled.wipes());
        assert!(RecoveryMode::ColdRestart.wipes());
        let p = RecoveryPolicy::DEFAULT.with_checkpoint_every(3);
        let m = RecoveryMode::Checkpoint(p);
        assert!(m.wipes());
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
