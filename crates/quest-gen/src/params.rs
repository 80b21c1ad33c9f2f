//! Generator parameterization, with the paper's three presets.

/// Parameters of the Agrawal–Srikant synthetic generator.
///
/// The `T<x>I<y>` naming from the paper: `x` is the average transaction
/// length, `y` the average length of the maximal potentially-large
/// itemsets ("patterns").
#[derive(Clone, Copy, Debug)]
pub struct QuestParams {
    /// `|D|` — number of transactions to generate.
    pub n_transactions: usize,
    /// `|T|` — average transaction length (Poisson mean).
    pub avg_trans_len: f64,
    /// `|I|` — average pattern length (Poisson mean).
    pub avg_pattern_len: f64,
    /// `N` — number of distinct items.
    pub n_items: u32,
    /// `|L|` — number of patterns in the pattern table.
    pub n_patterns: usize,
    /// Fraction of a pattern's items reused from the previous pattern
    /// (exponential mean, per VLDB'94; 0.5 default).
    pub correlation: f64,
    /// Mean of the per-pattern corruption level (normal with σ = 0.1,
    /// clipped to [0, 1]; 0.5 default).
    pub corruption_mean: f64,
    /// RNG seed for reproducibility.
    pub seed: u64,
}

impl QuestParams {
    /// Common defaults shared by the presets (paper-scale counts must be
    /// requested explicitly via [`QuestParams::with_transactions`]).
    fn base(avg_trans_len: f64, avg_pattern_len: f64) -> Self {
        QuestParams {
            n_transactions: 100_000,
            avg_trans_len,
            avg_pattern_len,
            n_items: 1_000,
            n_patterns: 2_000,
            correlation: 0.5,
            corruption_mean: 0.5,
            seed: 0x9E57,
        }
    }

    /// The paper's T5I2 workload (avg transaction length 5, pattern length 2).
    pub fn t5i2() -> Self {
        Self::base(5.0, 2.0)
    }

    /// The paper's T10I4 workload.
    pub fn t10i4() -> Self {
        Self::base(10.0, 4.0)
    }

    /// The paper's T20I6 workload.
    pub fn t20i6() -> Self {
        Self::base(20.0, 6.0)
    }

    /// Returns the workload name in the paper's `T..I..` convention.
    pub fn name(&self) -> String {
        format!("T{}I{}", self.avg_trans_len.round() as u64, self.avg_pattern_len.round() as u64)
    }

    /// Overrides the transaction count (builder style).
    pub fn with_transactions(mut self, n: usize) -> Self {
        self.n_transactions = n;
        self
    }

    /// Overrides the item-domain size.
    pub fn with_items(mut self, n: u32) -> Self {
        self.n_items = n;
        self
    }

    /// Overrides the pattern-table size.
    pub fn with_patterns(mut self, n: usize) -> Self {
        self.n_patterns = n;
        self
    }

    /// Overrides the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    /// Panics when a parameter combination cannot generate meaningful data.
    pub fn validate(&self) {
        assert!(self.n_transactions > 0, "need at least one transaction");
        assert!(self.avg_trans_len >= 1.0, "average transaction length must be ≥ 1");
        assert!(self.avg_pattern_len >= 1.0, "average pattern length must be ≥ 1");
        assert!(self.n_items >= 4, "need a non-trivial item domain");
        assert!(self.n_patterns >= 1, "need at least one pattern");
        assert!((0.0..=1.0).contains(&self.correlation), "correlation must be in [0,1]");
        assert!((0.0..=1.0).contains(&self.corruption_mean), "corruption must be in [0,1]");
        assert!(
            self.avg_pattern_len <= self.n_items as f64,
            "patterns cannot be longer than the item domain"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_names() {
        assert_eq!(QuestParams::t5i2().name(), "T5I2");
        assert_eq!(QuestParams::t10i4().name(), "T10I4");
        assert_eq!(QuestParams::t20i6().name(), "T20I6");
    }

    #[test]
    fn builders_compose() {
        let p = QuestParams::t10i4().with_transactions(500).with_items(50).with_seed(7);
        assert_eq!(p.n_transactions, 500);
        assert_eq!(p.n_items, 50);
        assert_eq!(p.seed, 7);
        p.validate();
    }

    #[test]
    #[should_panic(expected = "at least one transaction")]
    fn zero_transactions_invalid() {
        QuestParams::t5i2().with_transactions(0).validate();
    }
}
