//! Measurement types for the experiment harness.

/// One time-series sample of a convergence run (Figure 2's data points).
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Simulation step.
    pub step: u64,
    /// Local database scans completed (the paper's x-axis).
    pub scans: f64,
    /// Average recall across resources.
    pub recall: f64,
    /// Average precision across resources.
    pub precision: f64,
    /// Cumulative protocol messages.
    pub msgs: u64,
}

/// Aggregate results of one run.
#[derive(Clone, Debug, Default)]
pub struct GlobalMetrics {
    /// The sampled time series.
    pub samples: Vec<Sample>,
    /// First step at which average recall reached 0.9, if any.
    pub step_at_90_recall: Option<u64>,
    /// Scans completed at that step.
    pub scans_at_90_recall: Option<f64>,
    /// Total messages at the end of the run.
    pub total_msgs: u64,
}

impl GlobalMetrics {
    /// Records a sample, updating the 90 %-recall watermark.
    pub fn push(&mut self, s: Sample) {
        if self.step_at_90_recall.is_none() && s.recall >= 0.9 {
            self.step_at_90_recall = Some(s.step);
            self.scans_at_90_recall = Some(s.scans);
        }
        self.total_msgs = s.msgs;
        self.samples.push(s);
    }

    /// Final recall (last sample), or 0 if never sampled.
    pub fn final_recall(&self) -> f64 {
        self.samples.last().map_or(0.0, |s| s.recall)
    }

    /// Final precision (last sample), or 0 if never sampled.
    pub fn final_precision(&self) -> f64 {
        self.samples.last().map_or(0.0, |s| s.precision)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(step: u64, recall: f64) -> Sample {
        Sample { step, scans: step as f64 / 100.0, recall, precision: 1.0, msgs: step * 10 }
    }

    #[test]
    fn watermark_records_first_crossing() {
        let mut m = GlobalMetrics::default();
        m.push(sample(10, 0.5));
        m.push(sample(20, 0.92));
        m.push(sample(30, 0.89)); // dips back below — watermark must not move
        m.push(sample(40, 0.95));
        assert_eq!(m.step_at_90_recall, Some(20));
        assert_eq!(m.total_msgs, 400);
        assert!((m.final_recall() - 0.95).abs() < 1e-12);
    }

    #[test]
    fn empty_metrics_are_sane() {
        let m = GlobalMetrics::default();
        assert_eq!(m.final_recall(), 0.0);
        assert_eq!(m.step_at_90_recall, None);
    }
}
