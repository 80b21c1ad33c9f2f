//! Fault-tolerance outcome reporting.
//!
//! The drivers (the synchronous miner, the threaded miner and the
//! `gridmine-sim` engine) survive injected faults — crashed resources,
//! mute controllers, lossy links — by degrading the affected resource
//! rather than aborting the mine. This module is the vocabulary those
//! drivers use to report what happened: a per-resource
//! [`ResourceStatus`] and a run-level [`ChaosReport`].

use gridmine_topology::faults::FaultStats;
use serde::{Deserialize, Serialize};

/// Why a resource finished a run degraded instead of converged.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DegradeReason {
    /// Crashed mid-run (fault schedule) and never recovered.
    Crashed,
    /// Departed the grid permanently.
    Departed,
    /// A protocol call panicked (any driver) or its worker thread died;
    /// the panic was contained and the rest of the grid kept mining.
    Panicked,
    /// Its controller stopped serving SFE queries and the broker's
    /// bounded retry budget ran out.
    MuteController,
    /// Its channel disconnected mid-run (threaded driver).
    Disconnected,
    /// Its checkpoint restore overran the `RetryPolicy` deadline and the
    /// recovery watchdog degraded it (threaded driver).
    RecoveryStalled,
}

/// Terminal state of one resource after a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ResourceStatus {
    /// Participated to the end; its interim solution is trustworthy.
    #[default]
    Ok,
    /// Dropped out of the protocol; its interim solution is whatever it
    /// had cached when it degraded.
    Degraded(DegradeReason),
}

impl ResourceStatus {
    /// True for the healthy case.
    pub fn is_ok(&self) -> bool {
        matches!(self, ResourceStatus::Ok)
    }
}

/// What the fault layer did to a run, and what it cost.
///
/// On fault-free runs every field is zero/empty. Given the same seed and
/// the same deterministic driver (the discrete-event simulator), the
/// report is byte-identical across runs — chaos experiments are
/// replayable evidence, not anecdotes.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ChaosReport {
    /// Faults actually injected (drops, duplicates, delays, outages).
    pub faults: FaultStats,
    /// Broker→controller SFE retries spent against unresponsive
    /// controllers, summed over all resources.
    pub retries: u64,
    /// Ids of resources that finished degraded, ascending.
    pub degraded: Vec<usize>,
    /// Driver time units (simulation steps / threaded rounds) between the
    /// earliest possible fault and the end of the run — the window during
    /// which convergence was exposed to faults. 0 on fault-free runs.
    pub convergence_delay: u64,
    /// Anti-entropy / recovery re-sends of already-published aggregates
    /// (a subset of the run's total messages, counted separately so
    /// recovery-cost measurements are honest).
    pub resends: u64,
    /// Checkpoints taken, all resources.
    pub checkpoints: u64,
    /// Successful restores of a mining state, all resources.
    pub replays: u64,
    /// Restores refused (forged/truncated image, failed screens).
    pub rejected: u64,
    /// Bounded-retry budgets that ran dry (one per degraded operation).
    pub exhausted: u64,
}

impl ChaosReport {
    /// True when the run saw no faults and no degradation at all.
    pub fn is_clean(&self) -> bool {
        self.faults == FaultStats::default() && self.retries == 0 && self.degraded.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_report_is_clean() {
        assert!(ChaosReport::default().is_clean());
        assert!(ResourceStatus::default().is_ok());
    }

    #[test]
    fn degradation_marks_the_report_dirty() {
        let r = ChaosReport { degraded: vec![3], ..ChaosReport::default() };
        assert!(!r.is_clean());
        assert!(!ResourceStatus::Degraded(DegradeReason::Crashed).is_ok());
    }

    #[test]
    fn report_roundtrips_through_serde() {
        let r = ChaosReport {
            faults: FaultStats { dropped: 5, crashes: 1, ..FaultStats::default() },
            retries: 8,
            degraded: vec![1, 4],
            convergence_delay: 17,
            resends: 6,
            checkpoints: 4,
            replays: 1,
            rejected: 1,
            exhausted: 1,
        };
        let s = serde_json::to_string(&r).unwrap();
        assert_eq!(serde_json::from_str::<ChaosReport>(&s).unwrap(), r);
    }
}
