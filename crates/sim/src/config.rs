//! Simulation parameters.

use gridmine_arm::Ratio;
use gridmine_core::SessionError;
use gridmine_topology::DelayModel;

/// Parameters of one simulated grid run. Defaults follow §6: "the number
/// of resources was 2,000, the size of each local database was 10,000
/// transactions, and the privacy argument k was 10 … each resource
/// processed 100 transactions at each step, and on every fifth step
/// communicated with its controller to create new candidate rules …
/// incrementing every resource with twenty additional transactions at each
/// step."
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Number of resources in the grid.
    pub n_resources: usize,
    /// The privacy parameter k.
    pub k: i64,
    /// Transactions the accountant scans per candidate per step.
    pub scan_budget: usize,
    /// Candidate-generation cycle period, in steps.
    pub candidate_every: u64,
    /// New transactions appended to each resource per step.
    pub growth_per_step: usize,
    /// Frequency threshold.
    pub min_freq: Ratio,
    /// Confidence threshold.
    pub min_conf: Ratio,
    /// Barabási–Albert attachment degree of the generated topology.
    pub ba_m: usize,
    /// Link propagation delays, in steps.
    pub delay: DelayModel,
    /// Algorithm 1's ±1 padding sequence on local-counter changes.
    pub obfuscate: bool,
    /// Relax the privacy gate to k-transactions-only (see
    /// `gridmine_core::GateMode`); the paper-literal gate additionally
    /// demands k new *resources* per disclosure, freezing outputs once
    /// grid membership is static.
    pub relaxed_gate: bool,
    /// Master seed.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            n_resources: 2_000,
            k: 10,
            scan_budget: 100,
            candidate_every: 5,
            growth_per_step: 20,
            min_freq: Ratio::from_f64(0.02),
            min_conf: Ratio::from_f64(0.5),
            ba_m: 2,
            delay: DelayModel::Uniform { min: 1, max: 3 },
            obfuscate: true,
            relaxed_gate: false,
            seed: 0x6D11,
        }
    }
}

impl SimConfig {
    /// A scaled-down configuration that preserves the paper's regime but
    /// finishes in seconds — used by tests and default bench runs.
    pub fn small() -> Self {
        SimConfig {
            n_resources: 24,
            k: 4,
            scan_budget: 100,
            candidate_every: 5,
            growth_per_step: 5,
            min_freq: Ratio::from_f64(0.05),
            min_conf: Ratio::from_f64(0.5),
            ba_m: 2,
            delay: DelayModel::Uniform { min: 1, max: 2 },
            obfuscate: true,
            relaxed_gate: false,
            seed: 0x6D11,
        }
    }

    /// Builder-style overrides.
    pub fn with_resources(mut self, n: usize) -> Self {
        self.n_resources = n;
        self
    }

    /// Overrides k.
    pub fn with_k(mut self, k: i64) -> Self {
        self.k = k;
        self
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sanity checks: the first field no run can be built on, as a
    /// [`SessionError::InvalidConfig`] naming it.
    pub fn validate(&self) -> Result<(), SessionError> {
        let at_least_one = [
            ("n_resources", self.n_resources >= 1),
            ("k", self.k >= 1),
            ("scan_budget", self.scan_budget >= 1),
            ("candidate_every", self.candidate_every >= 1),
        ];
        match at_least_one.into_iter().find(|&(_, ok)| !ok) {
            Some((field, _)) => {
                Err(SessionError::InvalidConfig { field, need: "must be at least 1" })
            }
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = SimConfig::default();
        assert_eq!(c.n_resources, 2_000);
        assert_eq!(c.k, 10);
        assert_eq!(c.scan_budget, 100);
        assert_eq!(c.candidate_every, 5);
        assert_eq!(c.growth_per_step, 20);
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn builders() {
        let c = SimConfig::small().with_resources(8).with_k(2).with_seed(9);
        assert_eq!(c.n_resources, 8);
        assert_eq!(c.k, 2);
        assert_eq!(c.seed, 9);
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn invalid_k_rejected() {
        let mut c = SimConfig::small();
        c.k = 0;
        let err = c.validate().unwrap_err();
        assert_eq!(err, SessionError::InvalidConfig { field: "k", need: "must be at least 1" });
        assert_eq!(err.to_string(), "configuration field `k` must be at least 1");
    }
}
