//! Candidate-rule generation (§4.1, also used verbatim by Algorithm 4).
//! Every resource builds one ([`crate::miner::MineConfig::resource`]);
//! the plain Majority-Rule oracle of the differential test
//! `tests/secure_matches_plain.rs` runs the same generator.
//!
//! Majority-Rule is an anytime algorithm, so its candidates are *rules*
//! rather than itemsets. Generation, driven by the current interim
//! solution `R̃_u[DB_t]`:
//!
//! 1. Initially: `⟨∅ ⇒ {i}, MinFreq⟩` for every item `i ∈ I`.
//! 2. For every correct frequency rule `∅ ⇒ X`: the confidence candidates
//!    `⟨X∖{i} ⇒ {i}, MinConf⟩` for each `i ∈ X`, and the next-level
//!    frequency candidates per the Apriori join on `∅ ⇒ X` rules.
//! 3. For pairs `X ⇒ Y∪{i₁}`, `X ⇒ Y∪{i₂}` in `R̃` whose right-hand sides
//!    differ only in the last item: `⟨X ⇒ Y∪{i₁,i₂}, λ⟩`, provided every
//!    `⟨X ⇒ Y∪{i₁,i₂}∖{i₃}, λ⟩` with `i₃ ∈ Y` is also in `R̃`.

use std::collections::HashSet;

use gridmine_arm::{CandidateRule, Item, ItemSet, Ratio, Rule, RuleSet};

/// Stateless candidate generator parameterized by the two thresholds.
#[derive(Clone, Copy, Debug)]
pub struct CandidateGenerator {
    /// Frequency threshold for `∅ ⇒ X` candidates.
    pub min_freq: Ratio,
    /// Confidence threshold for `X ⇒ Y` candidates.
    pub min_conf: Ratio,
}

impl CandidateGenerator {
    /// Builds a generator.
    pub fn new(min_freq: Ratio, min_conf: Ratio) -> Self {
        CandidateGenerator { min_freq, min_conf }
    }

    /// The initial candidate set: one frequency rule per item.
    pub fn initial(&self, items: &[Item]) -> Vec<CandidateRule> {
        items
            .iter()
            .map(|&i| CandidateRule::new(Rule::frequency(ItemSet::singleton(i)), self.min_freq))
            .collect()
    }

    /// Expands the candidate set given the current interim solution.
    /// Returns only candidates not already in `existing`, in an order
    /// that depends on the two sets alone — never on how a hash map
    /// happened to lay them out — so a seeded run registers its
    /// candidates in the same order every time.
    pub fn expand(
        &self,
        interim: &RuleSet,
        existing: &HashSet<CandidateRule>,
    ) -> Vec<CandidateRule> {
        let mut fresh = Vec::new();
        // What `fresh` holds, for an O(1) duplicate check; `fresh` keeps
        // the order.
        let mut pushed = HashSet::new();
        let mut push = |c: CandidateRule, fresh: &mut Vec<CandidateRule>| {
            if !existing.contains(&c) && pushed.insert(c.clone()) {
                fresh.push(c);
            }
        };
        // By antecedent, then consequent.
        let sorted = interim.sorted();

        // Rule 2: confidence candidates from correct frequency rules.
        for r in sorted.iter().filter(|r| r.is_frequency()) {
            let x = &r.consequent;
            if x.len() >= 2 {
                for &i in x.items() {
                    let cand = CandidateRule::new(
                        Rule::new(x.without(i), ItemSet::singleton(i)),
                        self.min_conf,
                    );
                    push(cand, &mut fresh);
                }
            }
        }

        // Rule 3: the pairwise join, applied uniformly to frequency rules
        // (growing the frequent-itemset lattice) and confidence rules
        // (growing consequents). Group by antecedent — a run of `sorted`,
        // its right-hand sides in order — then join right-hand sides
        // sharing all but the last item.
        for rules in sorted.chunk_by(|a, b| a.antecedent == b.antecedent) {
            let Some(antecedent) = rules.first().map(|r| &r.antecedent) else { continue };
            let lambda = if antecedent.is_empty() { self.min_freq } else { self.min_conf };
            // The set of right-hand sides, for the prune check.
            let rhs_set: HashSet<&ItemSet> = rules.iter().map(|r| &r.consequent).collect();

            for (i, r1) in rules.iter().enumerate() {
                for r2 in &rules[i + 1..] {
                    let (r1, r2) = (&r1.consequent, &r2.consequent);
                    let (a, b) = (r1.items(), r2.items());
                    let k = a.len();
                    if k != b.len() || k == 0 {
                        continue;
                    }
                    if a[..k - 1] != b[..k - 1] {
                        continue;
                    }
                    // Y = common prefix; i₁ = a[k-1] < i₂ = b[k-1].
                    let joined = r1.with(b[k - 1]);
                    // Prune: for each i₃ in the shared prefix, the sibling
                    // rule must also be correct.
                    let prefix = &a[..k - 1];
                    let all_siblings_present = prefix.iter().all(|&i3| {
                        let sibling = joined.without(i3);
                        rhs_set.contains(&sibling)
                    });
                    if all_siblings_present {
                        push(
                            CandidateRule::new(Rule::new(antecedent.clone(), joined), lambda),
                            &mut fresh,
                        );
                    }
                }
            }
        }
        fresh
    }

    /// Candidates implied by a rule received from a neighbor (Algorithm 4's
    /// "on receiving a message relevant to rule r"): the rule itself plus
    /// the frequency rule over its union.
    pub fn from_received(&self, cand: &CandidateRule) -> Vec<CandidateRule> {
        let mut out = vec![cand.clone()];
        if !cand.rule.is_frequency() {
            out.push(CandidateRule::new(Rule::frequency(cand.rule.union()), self.min_freq));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generator() -> CandidateGenerator {
        CandidateGenerator::new(Ratio::new(1, 2), Ratio::new(3, 4))
    }

    fn freq_rule(items: &[u32]) -> Rule {
        Rule::frequency(ItemSet::of(items))
    }

    #[test]
    fn initial_candidates_cover_all_items() {
        let g = generator();
        let init = g.initial(&[Item(0), Item(1), Item(2)]);
        assert_eq!(init.len(), 3);
        assert!(init.iter().all(|c| c.rule.is_frequency() && c.lambda == Ratio::new(1, 2)));
    }

    #[test]
    fn frequent_pair_spawns_confidence_candidates() {
        let g = generator();
        let interim: RuleSet = [freq_rule(&[1, 2])].into_iter().collect();
        let fresh = g.expand(&interim, &HashSet::new());
        let want1 =
            CandidateRule::new(Rule::new(ItemSet::of(&[1]), ItemSet::of(&[2])), Ratio::new(3, 4));
        let want2 =
            CandidateRule::new(Rule::new(ItemSet::of(&[2]), ItemSet::of(&[1])), Ratio::new(3, 4));
        assert!(fresh.contains(&want1), "{fresh:?}");
        assert!(fresh.contains(&want2));
    }

    #[test]
    fn frequency_join_grows_the_lattice() {
        let g = generator();
        // {1},{2} frequent → candidate {1,2} (frequency rule join).
        let interim: RuleSet = [freq_rule(&[1]), freq_rule(&[2])].into_iter().collect();
        let fresh = g.expand(&interim, &HashSet::new());
        let want = CandidateRule::new(freq_rule(&[1, 2]), Ratio::new(1, 2));
        assert!(fresh.contains(&want), "{fresh:?}");
    }

    #[test]
    fn join_requires_all_siblings() {
        let g = generator();
        // {1,2} and {1,3} frequent but {2,3} not → no {1,2,3} candidate.
        let interim: RuleSet = [
            freq_rule(&[1, 2]),
            freq_rule(&[1, 3]),
            freq_rule(&[1]),
            freq_rule(&[2]),
            freq_rule(&[3]),
        ]
        .into_iter()
        .collect();
        let fresh = g.expand(&interim, &HashSet::new());
        let unwanted = CandidateRule::new(freq_rule(&[1, 2, 3]), Ratio::new(1, 2));
        assert!(!fresh.contains(&unwanted), "{fresh:?}");

        // With {2,3} as well, the join fires.
        let mut interim2 = interim.clone();
        interim2.insert(freq_rule(&[2, 3]));
        let fresh2 = g.expand(&interim2, &HashSet::new());
        assert!(fresh2.contains(&unwanted));
    }

    #[test]
    fn confidence_join_extends_consequents() {
        let g = generator();
        // {5} ⇒ {1} and {5} ⇒ {2} correct → candidate {5} ⇒ {1,2}.
        let interim: RuleSet = [
            Rule::new(ItemSet::of(&[5]), ItemSet::of(&[1])),
            Rule::new(ItemSet::of(&[5]), ItemSet::of(&[2])),
        ]
        .into_iter()
        .collect();
        let fresh = g.expand(&interim, &HashSet::new());
        let want = CandidateRule::new(
            Rule::new(ItemSet::of(&[5]), ItemSet::of(&[1, 2])),
            Ratio::new(3, 4),
        );
        assert!(fresh.contains(&want), "{fresh:?}");
    }

    #[test]
    fn existing_candidates_not_regenerated() {
        let g = generator();
        let interim: RuleSet = [freq_rule(&[1]), freq_rule(&[2])].into_iter().collect();
        let mut existing = HashSet::new();
        existing.insert(CandidateRule::new(freq_rule(&[1, 2]), Ratio::new(1, 2)));
        let fresh = g.expand(&interim, &existing);
        assert!(fresh.is_empty(), "{fresh:?}");
    }

    #[test]
    fn received_rule_implies_union_frequency_candidate() {
        let g = generator();
        let c =
            CandidateRule::new(Rule::new(ItemSet::of(&[1]), ItemSet::of(&[2])), Ratio::new(3, 4));
        let implied = g.from_received(&c);
        assert_eq!(implied.len(), 2);
        assert!(implied.contains(&CandidateRule::new(freq_rule(&[1, 2]), Ratio::new(1, 2))));
    }

    #[test]
    fn expansion_order_is_pinned() {
        let g = generator();
        let (freq, conf) = (Ratio::new(1, 2), Ratio::new(3, 4));
        let rule = |a: &[u32], c: &[u32]| Rule::new(ItemSet::of(a), ItemSet::of(c));
        let interim: RuleSet = [
            freq_rule(&[3]),
            rule(&[5], &[2]),
            freq_rule(&[1, 3]),
            freq_rule(&[1]),
            rule(&[5], &[1]),
            freq_rule(&[2]),
            freq_rule(&[1, 2]),
        ]
        .into_iter()
        .collect();
        let existing: HashSet<_> = [CandidateRule::new(freq_rule(&[1, 2]), freq)].into();
        let want = [
            // Rule 2, by frequency rule: {1, 2}, then {1, 3}.
            CandidateRule::new(rule(&[2], &[1]), conf),
            CandidateRule::new(rule(&[1], &[2]), conf),
            CandidateRule::new(rule(&[3], &[1]), conf),
            CandidateRule::new(rule(&[1], &[3]), conf),
            // Rule 3 under ∅, {1, 2} already a candidate and {1, 2, 3}
            // pruned for want of {2, 3}; then under {5}.
            CandidateRule::new(freq_rule(&[1, 3]), freq),
            CandidateRule::new(freq_rule(&[2, 3]), freq),
            CandidateRule::new(rule(&[5], &[1, 2]), conf),
        ];
        assert_eq!(g.expand(&interim, &existing), want);
    }

    #[test]
    fn a_large_interim_expands_without_duplicates() {
        let g = generator();
        // 200 frequent singletons, and every pair of the first 20 items.
        let singles = (0..200).map(|i| freq_rule(&[i]));
        let pairs = (0..20).flat_map(|i| (i + 1..20).map(move |j| freq_rule(&[i, j])));
        let interim: RuleSet = singles.chain(pairs).collect();
        let fresh = g.expand(&interim, &HashSet::new());
        let distinct: HashSet<&CandidateRule> = fresh.iter().collect();
        assert_eq!(distinct.len(), fresh.len(), "a candidate came out twice");
        // Pairs of 200 items, triples of 20, two confidence rules a pair.
        assert_eq!(fresh.len(), 200 * 199 / 2 + 20 * 19 * 18 / 6 + 2 * (20 * 19 / 2));
    }
}
