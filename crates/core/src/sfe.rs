//! Secure-function-evaluation plumbing: the k-privacy gate and the
//! condition algebra of §5.1.
//!
//! The broker↔controller SFE of the paper (citing Goldreich–Micali–Wigderson
//! and Kikuchi's oblivious-counter sign protocol) evaluates, over an encrypted
//! counter and the controller's decryption key, a condition whose result
//! is revealed to the broker only. We implement the SFE as an explicit
//! request/response between the two co-resident entities; the
//! cryptographic sub-protocol that would *additionally* hide the counter
//! from the controller is a constant-cost black box in the paper's own
//! evaluation and is documented as a substitution in DESIGN.md. What this
//! module preserves exactly is the *information released to the broker*:
//! one gated bit per query.

use gridmine_arm::Ratio;
use serde::{Deserialize, Serialize};

/// The k-privacy gate of Algorithm 1's `Output()`:
/// `Cond(x₁, x₂, x₃) = (x₁ − k₁last ≥ k) ∧ (x₂ − k₂last ≥ k) ∧ (x₃ ≥ 0)`,
/// where `x₁` is the aggregated transaction count, `x₂` the aggregated
/// resource count, and the `last` values are the counts at the previous
/// *answered* query.
///
/// When the gate fails, the controller's answer must be independent of the
/// data gathered since the last disclosure; we return the cached previous
/// answer (initially `false`), which is a function of already-disclosed
/// information only.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct KGate {
    /// The privacy parameter k (≥ 1). `k = 1` answers every query — the
    /// no-privacy baseline.
    pub k: i64,
    mode: GateMode,
    k1_last: i64,
    k2_last: i64,
    cached: bool,
}

/// Which populations must grow by k between disclosures.
///
/// The paper's condition demands both: k new transactions *and* k new
/// resources. The resource half means that once grid membership is static
/// and every partition is aggregated, no further disclosures happen — by
/// design: answering two queries whose resource populations differ by
/// fewer than k members would let the requester difference out an
/// individual resource's update (exactly what Definition 3.1 forbids).
/// [`GateMode::TransactionsOnly`] is a documented relaxation that keeps
/// only k-transaction-security, letting a static grid keep tracking
/// database growth; see DESIGN.md.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum GateMode {
    /// Paper-literal: `(x₁ − k₁last ≥ k) ∧ (x₂ − k₂last ≥ k)`.
    #[default]
    BothKNew,
    /// Relaxed: `x₁ − k₁last ≥ k` only (k-transactions-security).
    TransactionsOnly,
}

impl KGate {
    /// A fresh paper-literal gate; both `last` registers start at zero
    /// (Algorithm 1).
    pub fn new(k: i64) -> Self {
        Self::with_mode(k, GateMode::BothKNew)
    }

    /// A gate with an explicit mode.
    pub fn with_mode(k: i64, mode: GateMode) -> Self {
        assert!(k >= 1, "privacy parameter must be at least 1");
        KGate { k, mode, k1_last: 0, k2_last: 0, cached: false }
    }

    /// True when a query at (`x1`, `x2`) would be *fresh* — i.e. at least
    /// k new transactions (and, in [`GateMode::BothKNew`], k new
    /// resources) since the last disclosure.
    pub fn is_fresh(&self, x1: i64, x2: i64) -> bool {
        let tx_ok = x1 - self.k1_last >= self.k;
        match self.mode {
            GateMode::BothKNew => tx_ok && x2 - self.k2_last >= self.k,
            GateMode::TransactionsOnly => tx_ok,
        }
    }

    /// Runs one gated disclosure: if fresh, records the population,
    /// caches and returns `compute()`; otherwise returns the cached
    /// previous answer untouched.
    pub fn disclose<F: FnOnce() -> bool>(&mut self, x1: i64, x2: i64, compute: F) -> bool {
        if self.is_fresh(x1, x2) {
            self.k1_last = x1;
            self.k2_last = x2;
            self.cached = compute();
        }
        self.cached
    }

    /// The last disclosed answer (what a gated query returns).
    pub fn cached(&self) -> bool {
        self.cached
    }

    /// Appends the gate as fixed-width big-endian fields: `k`, a mode
    /// byte, the two `last` registers, a cached byte.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.k.to_be_bytes());
        out.push(match self.mode {
            GateMode::BothKNew => 0,
            GateMode::TransactionsOnly => 1,
        });
        out.extend_from_slice(&self.k1_last.to_be_bytes());
        out.extend_from_slice(&self.k2_last.to_be_bytes());
        out.push(u8::from(self.cached));
    }

    /// Total inverse of [`KGate::encode`] on the front of `bytes`, with
    /// the rest: `None` when they are short, or hold a gate no
    /// constructor builds (`k < 1`) or a byte that is not a mode or a
    /// bool.
    pub(crate) fn decode(bytes: &[u8]) -> Option<(KGate, &[u8])> {
        let (k, rest) = be_word(bytes)?;
        let (mode, rest) = rest.split_first()?;
        let (k1_last, rest) = be_word(rest)?;
        let (k2_last, rest) = be_word(rest)?;
        let (cached, rest) = rest.split_first()?;
        let mode = match mode {
            0 => GateMode::BothKNew,
            1 => GateMode::TransactionsOnly,
            _ => return None,
        };
        let cached = match cached {
            0 => false,
            1 => true,
            _ => return None,
        };
        (k >= 1).then_some((KGate { k, mode, k1_last, k2_last, cached }, rest))
    }
}

/// The big-endian `i64` at the front of `bytes`, with the rest.
pub(crate) fn be_word(bytes: &[u8]) -> Option<(i64, &[u8])> {
    let (word, rest) = bytes.split_first_chunk()?;
    Some((i64::from_be_bytes(*word), rest))
}

/// The Majority-Rule send condition over decrypted Δ values:
/// `(Δ^uv ≥ 0 ∧ Δ^uv > Δ^u) ∨ (Δ^uv < 0 ∧ Δ^uv < Δ^u)`.
pub fn majority_send_cond(delta_uv: i64, delta_u: i64) -> bool {
    (delta_uv >= 0 && delta_uv > delta_u) || (delta_uv < 0 && delta_uv < delta_u)
}

/// `Δ = λ_d·sum − λ_n·count` over plaintext values.
pub fn delta(lambda: Ratio, sum: i64, count: i64) -> i64 {
    lambda.delta(sum, count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_blocks_until_k_new_of_both() {
        let mut g = KGate::new(5);
        // 10 transactions but only 3 resources: blocked.
        assert!(!g.is_fresh(10, 3));
        assert!(!g.disclose(10, 3, || true), "gated query returns initial cache");
        // 10 transactions, 5 resources: fresh.
        assert!(g.is_fresh(10, 5));
        assert!(g.disclose(10, 5, || true));
        // The disclosure recorded (10, 5): k more of both are due next.
        assert!(!g.is_fresh(14, 10) && !g.is_fresh(15, 9) && g.is_fresh(15, 10));
    }

    #[test]
    fn gated_queries_return_cached_answer() {
        let mut g = KGate::new(3);
        assert!(g.disclose(5, 5, || true));
        // Only 2 new transactions since: stale, compute must NOT run.
        let answer = g.disclose(7, 9, || panic!("must not recompute while gated"));
        assert!(answer, "cache preserved");
        // 3 new of both: fresh again, recompute flips it.
        assert!(!g.disclose(8, 8, || false));
        assert!(!g.cached());
    }

    #[test]
    fn k_equal_one_answers_every_growing_query() {
        let mut g = KGate::new(1);
        assert!(g.disclose(1, 1, || true));
        assert!(!g.disclose(2, 2, || false));
        assert!(g.disclose(3, 3, || true));
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_k_rejected() {
        let _ = KGate::new(0);
    }

    #[test]
    fn send_condition_truth_table() {
        // Δuv overstates a positive majority relative to Δu → must send.
        assert!(majority_send_cond(5, 2));
        // Pair view agrees or understates → no send.
        assert!(!majority_send_cond(5, 5));
        assert!(!majority_send_cond(2, 5));
        // Negative side mirrors.
        assert!(majority_send_cond(-5, -2));
        assert!(!majority_send_cond(-2, -5));
        assert!(!majority_send_cond(-5, -5));
        // Opposite signs: pair says yes, node says net no → send.
        assert!(majority_send_cond(1, -1));
        assert!(majority_send_cond(-1, 1));
    }
}
