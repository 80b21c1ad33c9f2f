//! Malicious-broker behaviours (§5.2).
//!
//! The attack model lets a compromised broker "do whatever it pleases";
//! §5.2 taxonomizes the protocol-relevant deviations into three classes,
//! which [`BrokerBehavior`] injects:
//!
//! * **arbitrary values** instead of honest aggregation — cannot endanger
//!   privacy (the broker holds no key) and is caught by the
//!   tag/share audit;
//! * **mis-counting** a neighbor (zero or twice) — caught by the share
//!   field summing to something other than 1;
//! * **replaying** stale counters — caught by the timestamp traces.
//!
//! Controllers can also be corrupted; a malicious controller can lie about
//! SFE outcomes (harming validity, not privacy — it already knows the
//! plaintexts it is entitled to) or refuse service. [`ControllerBehavior`]
//! models the lying variant for the validity experiments.

use serde::{Deserialize, Serialize};

/// How a broker deviates from Algorithm 1.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum BrokerBehavior {
    /// Follows the protocol.
    #[default]
    Honest,
    /// Replaces aggregate field ciphertexts with self-encrypted garbage.
    ArbitraryValue,
    /// Counts the named neighbor's latest counter twice.
    DoubleCount(usize),
    /// Never counts the named neighbor's counter (uses its zero
    /// placeholder forever).
    OmitNeighbor(usize),
    /// Selectively reuses stale counters from the named neighbor: after
    /// letting two fresh counters through (advancing the controller's
    /// timestamp trace), it reverts to the first counter it ever received.
    ///
    /// Note the paper's taxonomy is about *selective* reuse ("summing old
    /// messages rather than the latest"): a broker that replays the very
    /// first counter *consistently* is indistinguishable from arbitrarily
    /// slow links in an asynchronous system, harms only convergence, and
    /// is correctly not flagged.
    Replay(usize),
}

/// How a controller deviates from Algorithm 3.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ControllerBehavior {
    /// Follows the protocol.
    #[default]
    Honest,
    /// Inverts every output bit it discloses (harms validity only).
    InvertOutputs,
    /// Answers no queries at all (denial of service). The broker spends a
    /// bounded retry budget against it and then the resource degrades
    /// ([`crate::chaos::DegradeReason::MuteController`]) — only its own
    /// mining stalls. The `gridmine-sim` engine then routes the overlay
    /// around the degraded resource (the liveness sweep that ends every
    /// simulated timestamp), exactly as it repairs crash faults.
    Mute,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_honest() {
        assert_eq!(BrokerBehavior::default(), BrokerBehavior::Honest);
        assert_eq!(ControllerBehavior::default(), ControllerBehavior::Honest);
    }

    #[test]
    fn behaviors_serialize() {
        let b = BrokerBehavior::Replay(3);
        let s = serde_json::to_string(&b).unwrap();
        assert_eq!(serde_json::from_str::<BrokerBehavior>(&s).unwrap(), b);
    }
}
