//! Recall and precision of interim solutions (§6.1).
//!
//! > "The recall and precision of u at time t are
//! > |R̃ᵤ ∩ R| / |R| and |R̃ᵤ ∩ R| / |R̃ᵤ|."

use crate::rule::RuleSet;

/// `|interim ∩ truth| / |truth|`. An empty truth set yields recall 1 (there
/// was nothing to find).
pub fn recall(interim: &RuleSet, truth: &RuleSet) -> f64 {
    if truth.is_empty() {
        return 1.0;
    }
    interim.intersection_size(truth) as f64 / truth.len() as f64
}

/// `|interim ∩ truth| / |interim|`. An empty interim solution has precision
/// 1 (it asserts nothing false).
pub fn precision(interim: &RuleSet, truth: &RuleSet) -> f64 {
    if interim.is_empty() {
        return 1.0;
    }
    interim.intersection_size(truth) as f64 / interim.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::itemset::ItemSet;
    use crate::rule::Rule;

    fn freq(items: &[u32]) -> Rule {
        Rule::frequency(ItemSet::of(items))
    }

    #[test]
    fn perfect_solution_scores_one() {
        let truth: RuleSet = [freq(&[1]), freq(&[2])].into_iter().collect();
        assert_eq!(recall(&truth, &truth), 1.0);
        assert_eq!(precision(&truth, &truth), 1.0);
    }

    #[test]
    fn partial_overlap() {
        let truth: RuleSet = [freq(&[1]), freq(&[2]), freq(&[3]), freq(&[4])].into_iter().collect();
        let interim: RuleSet = [freq(&[1]), freq(&[2]), freq(&[9])].into_iter().collect();
        assert!((recall(&interim, &truth) - 0.5).abs() < 1e-12);
        assert!((precision(&interim, &truth) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_edge_cases() {
        let truth: RuleSet = [freq(&[1])].into_iter().collect();
        let empty = RuleSet::new();
        assert_eq!(recall(&empty, &truth), 0.0);
        assert_eq!(precision(&empty, &truth), 1.0);
        assert_eq!(recall(&truth, &empty), 1.0);
        assert_eq!(precision(&truth, &empty), 0.0);
    }
}
