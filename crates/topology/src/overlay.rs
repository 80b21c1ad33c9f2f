//! The communication overlay: a spanning tree with per-link propagation
//! delays ("links with different propagation delays as in the real world",
//! §6).

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};

use crate::barabasi::barabasi_albert;
use crate::graph::NodeId;
use crate::spanning::{spanning_tree, Tree};

/// How link delays are assigned.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub enum DelayModel {
    /// Every link has the same delay (lock-step experiments).
    Constant(u64),
    /// Uniform in `[min, max]` — BRITE's default placement produces a
    /// spread of distances; uniform delay is its overlay-level shadow.
    Uniform { min: u64, max: u64 },
}

impl DelayModel {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        match *self {
            DelayModel::Constant(d) => d,
            DelayModel::Uniform { min, max } => {
                assert!(min <= max, "delay range inverted");
                rng.gen_range(min..=max)
            }
        }
    }
}

/// A communication tree with link delays, addressed by `(u, v)` pairs.
#[derive(Clone, Debug)]
pub struct Overlay {
    tree: Tree,
    /// Delay per directed pair; symmetric. Indexed via a sorted-pair map.
    delays: std::collections::HashMap<(NodeId, NodeId), u64>,
    delay_model: DelayModel,
    rng: ChaCha12Rng,
}

impl Overlay {
    /// Builds an overlay over a BA topology: generate the graph, extract
    /// the spanning tree, assign delays.
    pub fn barabasi(n: usize, m: usize, delay_model: DelayModel, seed: u64) -> Self {
        let g = barabasi_albert(n, m, seed);
        let tree = spanning_tree(&g, 0);
        Self::from_tree(tree, delay_model, seed ^ 0xDE1A)
    }

    /// Wraps an existing tree with delays.
    pub fn from_tree(tree: Tree, delay_model: DelayModel, seed: u64) -> Self {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let mut delays = std::collections::HashMap::new();
        for u in tree.nodes() {
            for v in tree.neighbors(u) {
                if u < v {
                    delays.insert((u, v), delay_model.sample(&mut rng));
                }
            }
        }
        Overlay { tree, delays, delay_model, rng }
    }

    /// The underlying tree.
    pub fn tree(&self) -> &Tree {
        &self.tree
    }

    /// Number of present resources.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// True when no resources are present.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Link delay between two adjacent nodes.
    ///
    /// # Panics
    /// Panics if `u` and `v` are not adjacent in the tree.
    pub fn delay(&self, u: NodeId, v: NodeId) -> u64 {
        let key = (u.min(v), u.max(v));
        *self.delays.get(&key).unwrap_or_else(|| panic!("no link {u}–{v}"))
    }

    /// Present neighbors of a node.
    pub fn neighbors(&self, u: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.tree.neighbors(u)
    }

    /// Dynamic join: attach a new resource under `parent` with a freshly
    /// sampled link delay. Returns the new node id.
    pub fn join(&mut self, parent: NodeId) -> NodeId {
        let id = self.tree.join(parent);
        let d = self.delay_model.sample(&mut self.rng);
        self.delays.insert((parent.min(id), parent.max(id)), d);
        id
    }

    /// Dynamic leave of a leaf resource.
    pub fn leave(&mut self, u: NodeId) {
        self.tree.leave(u);
    }

    /// Routes around a dead resource (crash repair, see
    /// [`Tree::route_around`]): removes it and bridges its orphaned
    /// neighbors, sampling fresh delays for the bridge links. Returns the
    /// new edges.
    pub fn route_around(&mut self, u: NodeId) -> Vec<(NodeId, NodeId)> {
        let new_edges = self.tree.route_around(u);
        for &(a, b) in &new_edges {
            let d = self.delay_model.sample(&mut self.rng);
            self.delays.insert((a, b), d);
        }
        new_edges
    }

    /// Re-attaches a recovered resource as a leaf under `parent` with a
    /// freshly sampled link delay (see [`Tree::rejoin`]).
    pub fn rejoin(&mut self, u: NodeId, parent: NodeId) {
        self.tree.rejoin(u, parent);
        let d = self.delay_model.sample(&mut self.rng);
        self.delays.insert((parent.min(u), parent.max(u)), d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_are_symmetric_and_in_range() {
        let o = Overlay::barabasi(100, 2, DelayModel::Uniform { min: 1, max: 10 }, 3);
        for u in o.tree().nodes() {
            for v in o.neighbors(u) {
                let d = o.delay(u, v);
                assert_eq!(d, o.delay(v, u));
                assert!((1..=10).contains(&d));
            }
        }
    }

    #[test]
    fn constant_model_is_constant() {
        let o = Overlay::barabasi(50, 1, DelayModel::Constant(4), 1);
        for u in o.tree().nodes() {
            assert!(o.neighbors(u).all(|v| o.delay(u, v) == 4));
        }
    }

    #[test]
    fn join_assigns_delay() {
        let mut o = Overlay::barabasi(10, 1, DelayModel::Uniform { min: 2, max: 6 }, 5);
        let id = o.join(0);
        let d = o.delay(0, id);
        assert!((2..=6).contains(&d));
        assert_eq!(o.len(), 11);
    }

    #[test]
    fn leave_hides_leaf() {
        let mut o = Overlay::from_tree(Tree::star(4), DelayModel::Constant(1), 0);
        o.leave(2);
        assert_eq!(o.len(), 3);
        assert!(o.neighbors(0).all(|v| v != 2));
    }

    #[test]
    fn route_around_assigns_delays_to_bridge_links() {
        let mut o = Overlay::from_tree(Tree::path(5), DelayModel::Uniform { min: 2, max: 9 }, 7);
        let new_edges = o.route_around(2);
        assert_eq!(new_edges, vec![(1, 3)]);
        assert!((2..=9).contains(&o.delay(1, 3)));
        o.tree().check_invariants();
    }

    #[test]
    fn rejoin_after_route_around_restores_membership() {
        let mut o = Overlay::from_tree(Tree::path(4), DelayModel::Constant(2), 0);
        o.route_around(1);
        assert_eq!(o.len(), 3);
        o.rejoin(1, 3);
        assert_eq!(o.len(), 4);
        assert_eq!(o.delay(1, 3), 2);
        o.tree().check_invariants();
    }

    #[test]
    #[should_panic(expected = "no link")]
    fn non_adjacent_delay_panics() {
        let o = Overlay::from_tree(Tree::path(4), DelayModel::Constant(1), 0);
        let _ = o.delay(0, 3);
    }
}
