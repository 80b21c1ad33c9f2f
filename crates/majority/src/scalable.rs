//! *Scalable-Majority* (§4.1): local majority voting over a spanning tree.
//!
//! Node `u` maintains, for each tree neighbor `v`, the last pair sent
//! (`⟨sum^uv, count^uv⟩`) and received (`⟨sum^vu, count^vu⟩`), plus its own
//! input as a virtual message from `⊥`. It computes
//!
//! ```text
//! Δ^u  = Σ_{vu ∈ N}  (λ_d·sum^vu − λ_n·count^vu)
//! Δ^uv = λ_d·(sum^uv + sum^vu) − λ_n·(count^uv + count^vu)
//! ```
//!
//! and sends to `v` upon first contact or whenever
//! `(Δ^uv ≥ 0 ∧ Δ^uv > Δ^u) ∨ (Δ^uv < 0 ∧ Δ^uv < Δ^u)` — i.e. exactly when
//! the pairwise agreement overstates the majority relative to everything
//! `u` knows. A sent message carries the sum of all *other* neighbors'
//! latest pairs, after which `Δ^uv = Δ^u` and the edge is quiescent.
//!
//! The struct is a pure state machine — no I/O, no clock — so the same
//! code runs under the synchronous test harness, the discrete-event
//! simulator, and (wrapped in oblivious counters) the secure protocol.

use std::collections::HashMap;

use gridmine_arm::Ratio;

/// A ⟨sum, count⟩ vote aggregate.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VotePair {
    /// Number of "yes" votes (or support count).
    pub sum: i64,
    /// Number of votes (or transaction count).
    pub count: i64,
}

impl VotePair {
    /// Builds a pair.
    pub fn new(sum: i64, count: i64) -> Self {
        VotePair { sum, count }
    }

    fn add(&self, other: &VotePair) -> VotePair {
        VotePair { sum: self.sum + other.sum, count: self.count + other.count }
    }
}

/// An outgoing protocol message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OutMsg {
    /// Receiving neighbor.
    pub to: usize,
    /// The aggregate ⟨sum, count⟩ payload.
    pub pair: VotePair,
}

#[derive(Clone, Debug, Default)]
struct EdgeState {
    sent: VotePair,
    recv: VotePair,
    /// False until the first message crosses this edge in either direction.
    contacted: bool,
}

/// One node's state in a single majority-vote instance.
#[derive(Clone, Debug)]
pub struct MajorityNode {
    id: usize,
    lambda: Ratio,
    /// The virtual `⊥` message: this node's own agglomerated vote.
    local: VotePair,
    edges: HashMap<usize, EdgeState>,
    /// Messages sent counter (protocol-cost accounting).
    pub msgs_sent: u64,
}

impl MajorityNode {
    /// A node with no input yet (local pair zero).
    pub fn new(id: usize, lambda: Ratio) -> Self {
        MajorityNode { id, lambda, local: VotePair::default(), edges: HashMap::new(), msgs_sent: 0 }
    }

    /// This node's id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Registers a tree neighbor. Returns any messages triggered (first
    /// contact forces an exchange so a fresh edge learns our aggregate).
    pub fn add_neighbor(&mut self, v: usize) -> Vec<OutMsg> {
        self.edges.entry(v).or_default();
        self.reevaluate()
    }

    /// Sets this node's own vote (`⟨sum^⊥u, count^⊥u⟩`). For a bit vote use
    /// `(bit as i64, 1)`; database nodes pass agglomerated counts.
    pub fn set_input(&mut self, pair: VotePair) -> Vec<OutMsg> {
        self.local = pair;
        self.reevaluate()
    }

    /// Current input pair.
    pub fn input(&self) -> VotePair {
        self.local
    }

    /// Handles a received message from neighbor `v`.
    pub fn on_receive(&mut self, from: usize, pair: VotePair) -> Vec<OutMsg> {
        let e = self.edges.entry(from).or_default();
        e.recv = pair;
        e.contacted = true;
        self.reevaluate()
    }

    /// `Δ^u`: the node's view of the global majority.
    pub fn delta(&self) -> i64 {
        let total = self.edges.values().fold(self.local, |acc, e| acc.add(&e.recv));
        self.lambda.delta(total.sum, total.count)
    }

    /// `Δ^uv` for a neighbor.
    fn delta_uv(&self, e: &EdgeState) -> i64 {
        self.lambda.delta(e.sent.sum + e.recv.sum, e.sent.count + e.recv.count)
    }

    /// The node's current decision: majority reached (`Δ^u ≥ 0`).
    pub fn decision(&self) -> bool {
        self.delta() >= 0
    }

    /// Re-checks the send condition on every edge; emits the dictated
    /// messages and updates sent-state. After a send to `v`, `Δ^uv = Δ^u`,
    /// so one pass reaches a per-event fixpoint.
    fn reevaluate(&mut self) -> Vec<OutMsg> {
        let delta_u = self.delta();
        let neighbor_ids: Vec<usize> = self.edges.keys().copied().collect();
        let mut out = Vec::new();
        for v in neighbor_ids {
            let e = &self.edges[&v];
            let duv = self.delta_uv(e);
            let first_contact = !e.contacted;
            let must_send =
                first_contact || (duv >= 0 && duv > delta_u) || (duv < 0 && duv < delta_u);
            if must_send {
                // Payload: everything except v's own last message.
                let payload = self
                    .edges
                    .iter()
                    .filter(|(&w, _)| w != v)
                    .fold(self.local, |acc, (_, e)| acc.add(&e.recv));
                let e = self.edges.get_mut(&v).expect("neighbor exists");
                if e.contacted && e.sent == payload {
                    // Nothing new to tell v; resending an identical pair
                    // cannot change Δ^uv.
                    continue;
                }
                e.sent = payload;
                e.contacted = true;
                self.msgs_sent += 1;
                out.push(OutMsg { to: v, pair: payload });
            }
        }
        out
    }
}

/// Synchronous in-memory runner: delivers messages over a tree until
/// quiescence. Returns per-node decisions. Panics if the protocol fails to
/// quiesce within a generous bound (a liveness bug).
///
/// ```
/// use gridmine_arm::Ratio;
/// use gridmine_majority::scalable::{run_to_quiescence, VotePair};
/// use gridmine_topology::Tree;
///
/// // 3 yes, 2 no — majority at λ = 1/2 is yes, and every node agrees.
/// let votes: Vec<VotePair> =
///     [1, 0, 1, 0, 1].iter().map(|&b| VotePair::new(b, 1)).collect();
/// let decisions = run_to_quiescence(&Tree::path(5), Ratio::new(1, 2), &votes);
/// assert!(decisions.iter().all(|&d| d));
/// ```
pub fn run_to_quiescence(
    tree: &gridmine_topology::Tree,
    lambda: Ratio,
    inputs: &[VotePair],
) -> Vec<bool> {
    assert_eq!(inputs.len(), tree.capacity(), "one input per node");
    let n = tree.capacity();
    let mut nodes: Vec<MajorityNode> = (0..n).map(|i| MajorityNode::new(i, lambda)).collect();
    let mut queue: std::collections::VecDeque<(usize, OutMsg)> = std::collections::VecDeque::new();

    for u in tree.nodes() {
        let neighbors: Vec<usize> = tree.neighbors(u).collect();
        for v in neighbors {
            for m in nodes[u].add_neighbor(v) {
                queue.push_back((u, m));
            }
        }
    }
    for u in tree.nodes() {
        let input = inputs[u];
        for m in nodes[u].set_input(input) {
            queue.push_back((u, m));
        }
    }

    let mut budget = 200usize.max(n * n * 16);
    while let Some((from, msg)) = queue.pop_front() {
        budget = budget.checked_sub(1).expect("scalable-majority failed to quiesce");
        for m in nodes[msg.to].on_receive(from, msg.pair) {
            queue.push_back((msg.to, m));
        }
    }
    nodes.iter().map(|n| n.decision()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridmine_topology::Tree;

    fn bit_inputs(bits: &[u8]) -> Vec<VotePair> {
        bits.iter().map(|&b| VotePair::new(b as i64, 1)).collect()
    }

    /// Global truth: λ_d·Σsum − λ_n·Σcount ≥ 0.
    fn global(lambda: Ratio, inputs: &[VotePair]) -> bool {
        let (s, c) = inputs.iter().fold((0, 0), |(s, c), p| (s + p.sum, c + p.count));
        lambda.delta(s, c) >= 0
    }

    fn assert_converges(tree: &Tree, lambda: Ratio, inputs: &[VotePair]) {
        let decisions = run_to_quiescence(tree, lambda, inputs);
        let want = global(lambda, inputs);
        for u in tree.nodes() {
            assert_eq!(decisions[u], want, "node {u} disagrees with global majority");
        }
    }

    #[test]
    fn single_node_decides_alone() {
        let t = Tree::singleton();
        assert_converges(&t, Ratio::new(1, 2), &bit_inputs(&[1]));
        assert_converges(&t, Ratio::new(1, 2), &bit_inputs(&[0]));
    }

    #[test]
    fn unanimous_votes_converge_without_dissent() {
        let t = Tree::path(8);
        assert_converges(&t, Ratio::new(1, 2), &bit_inputs(&[1; 8]));
        assert_converges(&t, Ratio::new(1, 2), &bit_inputs(&[0; 8]));
    }

    #[test]
    fn split_votes_resolve_to_global_majority() {
        let t = Tree::path(9);
        // 5 yes / 4 no with λ = 1/2 → majority yes.
        assert_converges(&t, Ratio::new(1, 2), &bit_inputs(&[1, 0, 1, 0, 1, 0, 1, 0, 1]));
        // 4 yes / 5 no → no.
        assert_converges(&t, Ratio::new(1, 2), &bit_inputs(&[0, 1, 0, 1, 0, 1, 0, 1, 0]));
    }

    #[test]
    fn threshold_other_than_half() {
        let t = Tree::star(10);
        // 3 of 10 yes; λ = 1/4 → yes, λ = 1/2 → no.
        let inputs = bit_inputs(&[1, 1, 1, 0, 0, 0, 0, 0, 0, 0]);
        assert_converges(&t, Ratio::new(1, 4), &inputs);
        assert_converges(&t, Ratio::new(1, 2), &inputs);
    }

    #[test]
    fn agglomerated_database_votes() {
        // Nodes carry whole-database counts, not single bits.
        let t = Tree::path(4);
        let inputs = vec![
            VotePair::new(900, 1000),
            VotePair::new(10, 1000),
            VotePair::new(400, 1000),
            VotePair::new(100, 1000),
        ];
        // Global: 1410/4000 = 0.3525.
        assert_converges(&t, Ratio::new(3, 10), &inputs);
        assert_converges(&t, Ratio::new(4, 10), &inputs);
    }

    #[test]
    fn skewed_tree_shapes() {
        let inputs = bit_inputs(&[1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 0, 1, 1, 0, 1]);
        for tree in [Tree::path(15), Tree::star(15)] {
            assert_converges(&tree, Ratio::new(1, 2), &inputs);
        }
    }

    #[test]
    fn input_update_retriggers_convergence() {
        // Start all-no, converge; flip everything to yes; converge again.
        let t = Tree::path(5);
        let lambda = Ratio::new(1, 2);
        let mut nodes: Vec<MajorityNode> = (0..5).map(|i| MajorityNode::new(i, lambda)).collect();
        let mut queue = std::collections::VecDeque::new();
        for u in t.nodes() {
            for v in t.neighbors(u) {
                for m in nodes[u].add_neighbor(v) {
                    queue.push_back((u, m));
                }
            }
            for m in nodes[u].set_input(VotePair::new(0, 1)) {
                queue.push_back((u, m));
            }
        }
        let drain = |nodes: &mut Vec<MajorityNode>,
                     queue: &mut std::collections::VecDeque<(usize, OutMsg)>| {
            let mut budget = 10_000;
            while let Some((from, msg)) = queue.pop_front() {
                budget -= 1;
                assert!(budget > 0, "no quiescence");
                for m in nodes[msg.to].on_receive(from, msg.pair) {
                    queue.push_back((msg.to, m));
                }
            }
        };
        drain(&mut nodes, &mut queue);
        assert!(nodes.iter().all(|n| !n.decision()));

        for (u, node) in nodes.iter_mut().enumerate() {
            for m in node.set_input(VotePair::new(1, 1)) {
                queue.push_back((u, m));
            }
        }
        drain(&mut nodes, &mut queue);
        assert!(nodes.iter().all(|n| n.decision()), "update must flip the global decision");
    }

    #[test]
    fn message_cost_is_zero_under_unanimity_after_first_contact() {
        // After initial first-contact exchanges, a unanimous system is quiet.
        let t = Tree::path(6);
        let decisions = run_to_quiescence(&t, Ratio::new(1, 2), &bit_inputs(&[1; 6]));
        assert!(decisions.iter().all(|&d| d));
    }
}
