//! Association rules and candidate rules.
//!
//! Following Majority-Rule's convention, an itemset-frequency question is
//! itself a rule `∅ ⇒ X` with threshold `MinFreq`, and a confidence
//! question is `X ⇒ Y` (disjoint, non-empty `Y`) with threshold `MinConf`.
//! A [`CandidateRule`] is a rule paired with its majority threshold λ — the
//! unit over which every voting instance runs.
//!
//! A rule has one byte form, on the wire and on disk alike: big-endian
//! words `|X| X… |Y| Y…`, each side's items strictly ascending, and for a
//! candidate its reduced threshold `λₙ λ_d` after them. The counts
//! delimit the sides, so distinct rules never share a form, and sorted
//! forms order rules one fixed way — the store keys every per-rule tree
//! by a candidate's form ([`CandidateRule::key`]). The decoders take
//! exactly what the encoders write: bytes decode only if re-encoding the
//! rule they spell gives them back.

// No panic and no unchecked index on hostile input (DESIGN.md § Static analysis).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::unimplemented, clippy::disallowed_macros))]
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use std::collections::HashSet;
use std::fmt;

use crate::itemset::{Item, ItemSet};
use crate::ratio::Ratio;

/// Why bytes are not the canonical form of a rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RuleFormError {
    /// A count or a word reaches past the end of the bytes.
    Truncated,
    /// Whole words that no encoder writes: what [`Rule::new`] or
    /// [`Ratio::new`] would panic on, or a second spelling of a rule.
    NotCanonical(&'static str),
}

/// One big-endian word off the front of `bytes`.
fn word(bytes: &[u8]) -> Result<(u32, &[u8]), RuleFormError> {
    let (w, rest) = bytes.split_first_chunk::<4>().ok_or(RuleFormError::Truncated)?;
    Ok((u32::from_be_bytes(*w), rest))
}

/// One side of a rule: a count, then that many strictly ascending items.
/// The count is screened against the bytes left before anything is
/// allocated for it.
fn side(bytes: &[u8]) -> Result<(ItemSet, &[u8]), RuleFormError> {
    let (n, mut rest) = word(bytes)?;
    if n as usize > rest.len() / 4 {
        return Err(RuleFormError::Truncated);
    }
    let mut items = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let (i, tail) = word(rest)?;
        if items.last().is_some_and(|&Item(last)| last >= i) {
            return Err(RuleFormError::NotCanonical("items out of order or repeated"));
        }
        items.push(Item(i));
        rest = tail;
    }
    Ok((ItemSet::from_items(items), rest))
}

/// An association rule `antecedent ⇒ consequent`.
#[derive(Clone, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct Rule {
    /// Left-hand side (may be empty: frequency rules).
    pub antecedent: ItemSet,
    /// Right-hand side (never empty).
    pub consequent: ItemSet,
}

impl Rule {
    /// Builds a rule.
    ///
    /// # Panics
    /// Panics if the consequent is empty or the sides intersect.
    #[expect(
        clippy::disallowed_macros,
        reason = "local callers only; the wire and the store go through `Rule::decode`"
    )]
    pub fn new(antecedent: ItemSet, consequent: ItemSet) -> Self {
        assert!(!consequent.is_empty(), "rule consequent must be non-empty");
        assert!(
            antecedent.is_disjoint(&consequent),
            "rule sides must be disjoint: {antecedent} vs {consequent}"
        );
        Rule { antecedent, consequent }
    }

    /// A frequency rule `∅ ⇒ X`.
    pub fn frequency(x: ItemSet) -> Self {
        Rule::new(ItemSet::empty(), x)
    }

    /// True for `∅ ⇒ X` rules.
    pub fn is_frequency(&self) -> bool {
        self.antecedent.is_empty()
    }

    /// `antecedent ∪ consequent` — the itemset whose transactions are
    /// relevant to this rule.
    pub fn union(&self) -> ItemSet {
        self.antecedent.union(&self.consequent)
    }

    /// Appends the rule's canonical form to `out` (see the module docs).
    pub fn encode(&self, out: &mut Vec<u8>) {
        for side in [&self.antecedent, &self.consequent] {
            out.extend_from_slice(&(side.len() as u32).to_be_bytes());
            for Item(i) in side.items() {
                out.extend_from_slice(&i.to_be_bytes());
            }
        }
    }

    /// Reads one canonical form off the front of `bytes`: the rule and
    /// the bytes after it. Total: [`Rule::new`]'s invariants are checked
    /// before it runs.
    pub fn decode(bytes: &[u8]) -> Result<(Rule, &[u8]), RuleFormError> {
        let (antecedent, rest) = side(bytes)?;
        let (consequent, rest) = side(rest)?;
        if consequent.is_empty() {
            return Err(RuleFormError::NotCanonical("rule with empty consequent"));
        }
        if !antecedent.is_disjoint(&consequent) {
            return Err(RuleFormError::NotCanonical("rule sides overlap"));
        }
        Ok((Rule { antecedent, consequent }, rest))
    }
}

impl fmt::Debug for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ⇒ {}", self.antecedent, self.consequent)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ⇒ {}", self.antecedent, self.consequent)
    }
}

/// A rule with its majority threshold: `⟨X ⇒ Y, λ⟩` in Algorithm 4.
#[derive(Clone, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct CandidateRule {
    /// The rule being voted on.
    pub rule: Rule,
    /// Majority threshold (MinFreq for frequency rules, MinConf otherwise).
    pub lambda: Ratio,
}

impl CandidateRule {
    /// Pairs a rule with its threshold.
    pub fn new(rule: Rule, lambda: Ratio) -> Self {
        CandidateRule { rule, lambda }
    }

    /// Appends the candidate's canonical form: its rule's, then `λₙ λ_d`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        self.rule.encode(out);
        out.extend_from_slice(&self.lambda.num().to_be_bytes());
        out.extend_from_slice(&self.lambda.den().to_be_bytes());
    }

    /// [`Rule::decode`] for a candidate, whose threshold must be the
    /// reduced, non-zero-denominator one [`Ratio::new`] builds.
    pub fn decode(bytes: &[u8]) -> Result<(CandidateRule, &[u8]), RuleFormError> {
        let (rule, rest) = Rule::decode(bytes)?;
        let (num, rest) = word(rest)?;
        let (den, rest) = word(rest)?;
        if den == 0 {
            return Err(RuleFormError::NotCanonical("zero threshold denominator"));
        }
        let lambda = Ratio::new(num, den);
        if (lambda.num(), lambda.den()) != (num, den) {
            return Err(RuleFormError::NotCanonical("unreduced threshold"));
        }
        Ok((CandidateRule::new(rule, lambda), rest))
    }

    /// The canonical form on its own: the candidate's store key.
    pub fn key(&self) -> Vec<u8> {
        let sides = self.rule.antecedent.len() + self.rule.consequent.len();
        let mut key = Vec::with_capacity(4 * (4 + sides));
        self.encode(&mut key);
        key
    }

    /// Total inverse of [`CandidateRule::key`]: `None` for anything but
    /// exactly one canonical form.
    pub fn from_key(key: &[u8]) -> Option<CandidateRule> {
        match CandidateRule::decode(key) {
            Ok((cand, [])) => Some(cand),
            _ => None,
        }
    }
}

impl fmt::Display for CandidateRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨{}, {}⟩", self.rule, self.lambda)
    }
}

/// A set of rules — interim solutions `R̃_u[DB_t]` and ground truths
/// `R[DB_t]` alike.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RuleSet {
    rules: HashSet<Rule>,
}

impl RuleSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds from an iterator of rules.
    pub fn from_rules<I: IntoIterator<Item = Rule>>(rules: I) -> Self {
        RuleSet { rules: rules.into_iter().collect() }
    }

    /// Inserts a rule; returns true if new.
    pub fn insert(&mut self, r: Rule) -> bool {
        self.rules.insert(r)
    }

    /// Membership.
    pub fn contains(&self, r: &Rule) -> bool {
        self.rules.contains(r)
    }

    /// Cardinality.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True if no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Iterates over the rules (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = &Rule> {
        self.rules.iter()
    }

    /// `|self ∩ other|`.
    pub fn intersection_size(&self, other: &RuleSet) -> usize {
        if self.len() <= other.len() {
            self.rules.iter().filter(|r| other.contains(r)).count()
        } else {
            other.rules.iter().filter(|r| self.contains(r)).count()
        }
    }

    /// Rules sorted by (antecedent, consequent) for deterministic output.
    pub fn sorted(&self) -> Vec<&Rule> {
        let mut v: Vec<&Rule> = self.rules.iter().collect();
        v.sort_by(|a, b| {
            (a.antecedent.items(), a.consequent.items())
                .cmp(&(b.antecedent.items(), b.consequent.items()))
        });
        v
    }
}

impl FromIterator<Rule> for RuleSet {
    fn from_iter<I: IntoIterator<Item = Rule>>(iter: I) -> Self {
        RuleSet::from_rules(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frequency_rule_shape() {
        let r = Rule::frequency(ItemSet::of(&[1, 2]));
        assert!(r.is_frequency());
        assert_eq!(r.union(), ItemSet::of(&[1, 2]));
        assert_eq!(r.to_string(), "∅ ⇒ {1,2}");
    }

    #[test]
    fn union_covers_both_sides() {
        let r = Rule::new(ItemSet::of(&[1]), ItemSet::of(&[2, 3]));
        assert_eq!(r.union(), ItemSet::of(&[1, 2, 3]));
        assert!(!r.is_frequency());
    }

    #[test]
    #[should_panic(expected = "must be disjoint")]
    fn overlapping_sides_rejected() {
        let _ = Rule::new(ItemSet::of(&[1, 2]), ItemSet::of(&[2]));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_consequent_rejected() {
        let _ = Rule::new(ItemSet::of(&[1]), ItemSet::empty());
    }

    #[test]
    fn ruleset_set_semantics() {
        let mut s = RuleSet::new();
        assert!(s.insert(Rule::frequency(ItemSet::of(&[1]))));
        assert!(!s.insert(Rule::frequency(ItemSet::of(&[1]))));
        assert_eq!(s.len(), 1);
        assert!(s.contains(&Rule::frequency(ItemSet::of(&[1]))));
    }

    #[test]
    fn intersection_size_is_symmetric() {
        let a: RuleSet = [Rule::frequency(ItemSet::of(&[1])), Rule::frequency(ItemSet::of(&[2]))]
            .into_iter()
            .collect();
        let b: RuleSet = [Rule::frequency(ItemSet::of(&[2])), Rule::frequency(ItemSet::of(&[3]))]
            .into_iter()
            .collect();
        assert_eq!(a.intersection_size(&b), 1);
        assert_eq!(b.intersection_size(&a), 1);
    }

    #[test]
    fn sorted_is_deterministic() {
        let s: RuleSet = [
            Rule::frequency(ItemSet::of(&[2])),
            Rule::frequency(ItemSet::of(&[1])),
            Rule::new(ItemSet::of(&[1]), ItemSet::of(&[2])),
        ]
        .into_iter()
        .collect();
        let names: Vec<String> = s.sorted().iter().map(|r| r.to_string()).collect();
        assert_eq!(names, vec!["∅ ⇒ {1}", "∅ ⇒ {2}", "{1} ⇒ {2}"]);
    }

    fn cand(x: &[u32], y: &[u32], num: u32, den: u32) -> CandidateRule {
        CandidateRule::new(Rule::new(ItemSet::of(x), ItemSet::of(y)), Ratio::new(num, den))
    }

    #[test]
    fn rule_keys_are_injective_and_only_canonical_keys_decode() {
        // The same items split differently between the sides, the same
        // rule under different thresholds, and item ids that read as
        // counts: all distinct rules, all distinct keys.
        let rules = [
            cand(&[], &[1, 2, 3], 1, 2),
            cand(&[1], &[2, 3], 1, 2),
            cand(&[1, 2], &[3], 1, 2),
            cand(&[2], &[1, 3], 1, 2),
            cand(&[1, 2], &[3], 1, 3),
            cand(&[1, 2], &[3], 2, 3),
            cand(&[], &[1], 1, 2),
            cand(&[1], &[2], 1, 2),
            cand(&[], &[1, 2], 1, 2),
            cand(&[], &[2], 0, 1),
        ];
        let keys: HashSet<Vec<u8>> = rules.iter().map(CandidateRule::key).collect();
        assert_eq!(keys.len(), rules.len(), "two rules share a key");
        for r in &rules {
            assert_eq!(CandidateRule::from_key(&r.key()).as_ref(), Some(r));
        }

        // Keys `Rule::new` or `Ratio::new` would panic on, or that are a
        // second spelling of a rule, do not decode.
        let words = |w: &[u32]| w.iter().flat_map(|x| x.to_be_bytes()).collect::<Vec<u8>>();
        for (bad, why) in [
            (words(&[0, 0, 1, 2]), "empty consequent"),
            (words(&[1, 7, 1, 7, 1, 2]), "overlapping sides"),
            (words(&[0, 2, 5, 4, 1, 2]), "descending items"),
            (words(&[0, 2, 4, 4, 1, 2]), "repeated item"),
            (words(&[0, 1, 4, 1, 0]), "zero denominator"),
            (words(&[0, 1, 4, 2, 4]), "unreduced threshold"),
            (words(&[0, 1, 4, 1, 2, 9]), "trailing word"),
            (words(&[0, u32::MAX, 4, 1, 2]), "count past the end"),
            (words(&[0, 1, 4, 1]), "short"),
            (vec![0, 0, 0], "not whole words"),
        ] {
            assert_eq!(CandidateRule::from_key(&bad), None, "{why}");
        }
    }

    #[test]
    fn a_form_decodes_off_the_front_and_says_why_it_does_not() {
        let c = cand(&[1], &[2, 3], 1, 2);
        let mut bytes = Vec::new();
        c.encode(&mut bytes);
        c.rule.encode(&mut bytes);
        bytes.push(0xAB);
        let (back, rest) = CandidateRule::decode(&bytes).expect("a candidate");
        assert_eq!(back, c);
        let (rule, rest) = Rule::decode(rest).expect("then a bare rule");
        assert_eq!((rule, rest), (c.rule, &[0xAB][..]));

        // A forged count is a truncation, found before any allocation;
        // whole words out of canonical order are not.
        let forged = [u32::MAX.to_be_bytes(), [0; 4]].concat();
        assert_eq!(Rule::decode(&forged), Err(RuleFormError::Truncated));
        let swapped = [0u32, 2, 3, 2].map(u32::to_be_bytes).concat();
        assert!(matches!(Rule::decode(&swapped), Err(RuleFormError::NotCanonical(_))));
    }

    #[test]
    fn a_decoded_candidate_hits_the_same_hash_bucket() {
        // The protocol routes messages by candidate-rule hash-map lookups;
        // a rule read back from its bytes must find its entry.
        let c = cand(&[1, 5], &[3], 3, 7);
        let map = std::collections::HashMap::from([(c.clone(), 42)]);
        let back = CandidateRule::from_key(&c.key()).expect("decodes");
        assert_eq!(map.get(&back), Some(&42));
    }
}
