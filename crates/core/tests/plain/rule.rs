//! *Majority-Rule*: distributed ARM as one majority vote per candidate rule
//! (§4.1), in the plain (non-private) form used as the paper's baseline.
//!
//! Each resource runs one [`MajorityNode`] instance per candidate rule.
//! Votes are agglomerated database counts: for a frequency candidate
//! `∅ ⇒ X` the local pair is ⟨Support(X), |DB|⟩ against λ = MinFreq; for a
//! confidence candidate `X ⇒ Y` it is ⟨Support(X∪Y), Support(X)⟩ against
//! λ = MinConf.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::BuildHasherDefault;

use gridmine_arm::{CandidateRule, Database, Item, Ratio, Rule, RuleSet};
use gridmine_core::{item_domain, CandidateGenerator};

use super::scalable::{MajorityNode, VotePair};

/// Computes a resource's local vote for a candidate rule.
#[derive(Clone, Copy, Debug)]
pub struct ResourceVote;

impl ResourceVote {
    /// The ⟨sum, count⟩ pair dictated by §4.1 for `cand` over `db`.
    pub fn compute(cand: &CandidateRule, db: &Database) -> VotePair {
        if cand.rule.is_frequency() {
            VotePair::new(db.support(&cand.rule.consequent) as i64, db.len() as i64)
        } else {
            let (count, sum) = (db.support(&cand.rule.antecedent), db.support(&cand.rule.union()));
            VotePair::new(sum as i64, count as i64)
        }
    }
}

/// A protocol message: a Scalable-Majority pair tagged with its rule.
#[derive(Clone, Debug)]
pub struct RuleMsg {
    /// Sending resource.
    pub from: usize,
    /// Receiving resource.
    pub to: usize,
    /// The voting instance this belongs to.
    pub cand: CandidateRule,
    /// The payload.
    pub pair: VotePair,
}

/// One resource's Majority-Rule state (plain baseline).
#[derive(Clone, Debug)]
pub struct MajorityRuleMiner {
    id: usize,
    generator: CandidateGenerator,
    neighbors: Vec<usize>,
    /// Unkeyed hashing, so a run visits its candidates in the same
    /// order every time and its message count replays.
    nodes: HashMap<CandidateRule, MajorityNode, BuildHasherDefault<DefaultHasher>>,
    /// Total Scalable-Majority messages sent by this resource.
    pub msgs_sent: u64,
}

impl MajorityRuleMiner {
    /// Creates a miner with the initial per-item candidates.
    pub fn new(
        id: usize,
        generator: CandidateGenerator,
        items: &[Item],
        neighbors: Vec<usize>,
    ) -> Self {
        let mut miner =
            MajorityRuleMiner { id, generator, neighbors, nodes: HashMap::default(), msgs_sent: 0 };
        for cand in generator.initial(items) {
            miner.ensure_node(cand);
        }
        miner
    }

    /// Number of live voting instances.
    pub fn candidate_count(&self) -> usize {
        self.nodes.len()
    }

    fn ensure_node(&mut self, cand: CandidateRule) -> bool {
        if self.nodes.contains_key(&cand) {
            return false;
        }
        let mut node = MajorityNode::new(cand.lambda);
        for &v in &self.neighbors {
            // First-contact sends are deferred to the next refresh, which
            // sets the input and reevaluates anyway.
            let _ = node.add_neighbor(v);
        }
        self.nodes.insert(cand, node);
        true
    }

    /// Recomputes local votes from the database for every candidate.
    /// Call after DB growth (§6 increments 20 transactions per step).
    pub fn refresh_votes(&mut self, db: &Database) -> Vec<RuleMsg> {
        let mut out = Vec::new();
        let cands: Vec<CandidateRule> = self.nodes.keys().cloned().collect();
        for cand in cands {
            let pair = ResourceVote::compute(&cand, db);
            let node = self.nodes.get_mut(&cand).expect("candidate exists");
            if node.input() != pair {
                for m in node.set_input(pair) {
                    out.push(RuleMsg { from: self.id, to: m.to, cand: cand.clone(), pair: m.pair });
                }
            }
        }
        self.msgs_sent += out.len() as u64;
        out
    }

    /// Handles an incoming rule message; unknown candidates are adopted
    /// (plus their implied frequency candidate) per Algorithm 4.
    pub fn on_receive(&mut self, msg: &RuleMsg, db: &Database) -> Vec<RuleMsg> {
        let mut out = Vec::new();
        for implied in self.generator.from_received(&msg.cand) {
            if self.ensure_node(implied.clone()) {
                let pair = ResourceVote::compute(&implied, db);
                let node = self.nodes.get_mut(&implied).expect("just inserted");
                for m in node.set_input(pair) {
                    out.push(RuleMsg {
                        from: self.id,
                        to: m.to,
                        cand: implied.clone(),
                        pair: m.pair,
                    });
                }
            }
        }
        let node = self.nodes.get_mut(&msg.cand).expect("ensured above");
        for m in node.on_receive(msg.from, msg.pair) {
            out.push(RuleMsg { from: self.id, to: m.to, cand: msg.cand.clone(), pair: m.pair });
        }
        self.msgs_sent += out.len() as u64;
        out
    }

    /// The interim solution `R̃_u[DB_t]`: rules whose instance votes true —
    /// confidence rules additionally require their union's frequency
    /// instance to vote true ("correct rules *between frequent itemsets*").
    pub fn interim(&self) -> RuleSet {
        let decided_freq: HashSet<&Rule> = self
            .nodes
            .iter()
            .filter(|(c, n)| c.rule.is_frequency() && n.decision())
            .map(|(c, _)| &c.rule)
            .collect();
        let mut out = RuleSet::new();
        for (cand, node) in &self.nodes {
            if !node.decision() {
                continue;
            }
            if cand.rule.is_frequency() {
                out.insert(cand.rule.clone());
            } else {
                let union_rule = Rule::frequency(cand.rule.union());
                if decided_freq.contains(&union_rule) {
                    out.insert(cand.rule.clone());
                }
            }
        }
        out
    }

    /// Expands the candidate set from the interim solution; new voting
    /// instances get their local votes immediately.
    pub fn generate_candidates(&mut self, db: &Database) -> Vec<RuleMsg> {
        let interim = self.interim();
        let existing: HashSet<CandidateRule> = self.nodes.keys().cloned().collect();
        let fresh = self.generator.expand(&interim, &existing);
        let mut out = Vec::new();
        for cand in fresh {
            self.ensure_node(cand.clone());
            let pair = ResourceVote::compute(&cand, db);
            let node = self.nodes.get_mut(&cand).expect("just inserted");
            for m in node.set_input(pair) {
                out.push(RuleMsg { from: self.id, to: m.to, cand: cand.clone(), pair: m.pair });
            }
        }
        self.msgs_sent += out.len() as u64;
        out
    }
}

/// What a plain run ends with.
pub struct PlainOutcome {
    /// Every resource's final interim solution.
    pub solutions: Vec<RuleSet>,
    /// Scalable-Majority messages sent, summed over the grid.
    pub messages: u64,
}

/// Synchronous whole-grid driver: runs plain Majority-Rule to a global
/// fixpoint (no pending messages, no new candidates).
///
/// The oracle of `secure_matches_plain.rs`: its messages per resource
/// are the baseline the secure protocol's price of k is measured against.
pub fn run_plain_mining(
    tree: &gridmine_topology::Tree,
    dbs: &[Database],
    min_freq: Ratio,
    min_conf: Ratio,
) -> PlainOutcome {
    assert_eq!(dbs.len(), tree.capacity(), "one database per resource");
    let generator = CandidateGenerator::new(min_freq, min_conf);
    let items = item_domain(dbs.iter().flat_map(Database::transactions));
    let mut miners: Vec<MajorityRuleMiner> = tree
        .nodes()
        .map(|u| {
            let neighbors: Vec<usize> = tree.neighbors(u).collect();
            MajorityRuleMiner::new(u, generator, &items, neighbors)
        })
        .collect();

    let mut queue: VecDeque<RuleMsg> = VecDeque::new();
    for (u, m) in tree.nodes().enumerate() {
        debug_assert_eq!(u, m);
        for msg in miners[u].refresh_votes(&dbs[u]) {
            queue.push_back(msg);
        }
    }

    let mut budget: u64 = 200_000_000;
    loop {
        while let Some(msg) = queue.pop_front() {
            budget = budget.checked_sub(1).expect("majority-rule failed to quiesce");
            let to = msg.to;
            for out in miners[to].on_receive(&msg, &dbs[to]) {
                queue.push_back(out);
            }
        }
        // Quiescent: run a candidate-generation round everywhere. Candidate
        // creation counts as progress even when it emits no messages — the
        // *next* generation round sees a richer interim solution.
        let mut progressed = false;
        for u in tree.nodes() {
            let before = miners[u].candidate_count();
            for msg in miners[u].generate_candidates(&dbs[u]) {
                queue.push_back(msg);
            }
            progressed |= miners[u].candidate_count() != before;
        }
        if !progressed && queue.is_empty() {
            break;
        }
    }
    PlainOutcome {
        solutions: miners.iter().map(MajorityRuleMiner::interim).collect(),
        messages: miners.iter().map(|m| m.msgs_sent).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridmine_arm::{correct_rules, AprioriConfig, Transaction};
    use gridmine_topology::Tree;

    fn mk_db(rows: &[(u64, &[u32])]) -> Database {
        Database::from_transactions(
            rows.iter().map(|&(id, items)| Transaction::of(id, items)).collect(),
        )
    }

    #[test]
    fn vote_pairs_follow_the_reduction() {
        let db = mk_db(&[(0, &[1, 2]), (1, &[1]), (2, &[2])]);
        let freq =
            CandidateRule::new(Rule::frequency(gridmine_arm::ItemSet::of(&[1])), Ratio::new(1, 2));
        assert_eq!(ResourceVote::compute(&freq, &db), VotePair::new(2, 3));
        let conf = CandidateRule::new(
            Rule::new(gridmine_arm::ItemSet::of(&[1]), gridmine_arm::ItemSet::of(&[2])),
            Ratio::new(1, 2),
        );
        assert_eq!(ResourceVote::compute(&conf, &db), VotePair::new(1, 2));
    }

    /// End-to-end: distributed mining over a partitioned DB must converge
    /// to the centralized Apriori result on the union.
    fn assert_matches_centralized(tree: &Tree, dbs: &[Database], min_freq: Ratio, min_conf: Ratio) {
        let global = Database::union_of(dbs.iter());
        let cfg = AprioriConfig::new(min_freq, min_conf);
        let truth = correct_rules(&global, &cfg);
        let results = run_plain_mining(tree, dbs, min_freq, min_conf).solutions;
        for u in tree.nodes() {
            assert_eq!(
                results[u].sorted().iter().map(|r| r.to_string()).collect::<Vec<_>>(),
                truth.sorted().iter().map(|r| r.to_string()).collect::<Vec<_>>(),
                "resource {u} diverged from centralized mining"
            );
        }
    }

    #[test]
    fn two_resources_tiny_db() {
        let dbs = vec![
            mk_db(&[(0, &[1, 2]), (1, &[1, 2]), (2, &[3])]),
            mk_db(&[(3, &[1, 2]), (4, &[1])]),
        ];
        assert_matches_centralized(&Tree::path(2), &dbs, Ratio::new(1, 2), Ratio::new(3, 4));
    }

    #[test]
    fn path_of_five_resources() {
        let dbs: Vec<Database> = (0..5)
            .map(|r| {
                mk_db(&[
                    (r * 10, &[1, 2, 3]),
                    (r * 10 + 1, &[1, 2]),
                    (r * 10 + 2, &[2, 3]),
                    (r * 10 + 3, &[4]),
                ])
            })
            .collect();
        assert_matches_centralized(&Tree::path(5), &dbs, Ratio::new(2, 5), Ratio::new(1, 2));
    }

    #[test]
    fn skewed_partitions_still_converge() {
        // All the support for {7} sits on one resource; the vote must still
        // reflect the global frequency.
        let dbs = vec![
            mk_db(&[(0, &[7]), (1, &[7]), (2, &[7]), (3, &[7])]),
            mk_db(&[(4, &[1]), (5, &[1])]),
            mk_db(&[(6, &[1]), (7, &[1])]),
        ];
        assert_matches_centralized(&Tree::star(3), &dbs, Ratio::new(1, 2), Ratio::new(1, 2));
    }

    #[test]
    fn empty_partitions_are_tolerated() {
        let dbs = vec![mk_db(&[(0, &[1]), (1, &[1])]), Database::new(), mk_db(&[(2, &[1])])];
        assert_matches_centralized(&Tree::path(3), &dbs, Ratio::new(1, 2), Ratio::new(1, 2));
    }
}
