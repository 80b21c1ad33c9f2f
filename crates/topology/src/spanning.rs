//! Spanning communication trees.
//!
//! §3: "We assume that an underlying mechanism maintains a communication
//! tree that spans all the resources." [`spanning_tree`] extracts a BFS
//! tree from a generated topology; [`Tree`] supports the dynamic
//! membership operations the algorithm is advertised to handle (new
//! resources joining, leaves departing).

use crate::graph::{Graph, NodeId};

/// A tree over dense node ids, stored as adjacency lists plus parents.
#[derive(Clone, Debug)]
pub struct Tree {
    adj: Vec<Vec<NodeId>>,
    /// Parent of each node in the BFS orientation; root's parent is itself.
    parent: Vec<NodeId>,
    root: NodeId,
    /// Nodes currently present (supports leave without reindexing).
    present: Vec<bool>,
}

/// Extracts a BFS spanning tree of `g` rooted at `root`.
///
/// # Panics
/// Panics if `g` is not connected or `root` is out of range.
pub fn spanning_tree(g: &Graph, root: NodeId) -> Tree {
    assert!(root < g.len(), "root out of range");
    assert!(g.is_connected(), "spanning tree requires a connected graph");
    let n = g.len();
    let mut adj = vec![Vec::new(); n];
    let mut parent = vec![usize::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    parent[root] = root;
    queue.push_back(root);
    while let Some(u) = queue.pop_front() {
        for &v in g.neighbors(u) {
            if parent[v] == usize::MAX {
                parent[v] = u;
                adj[u].push(v);
                adj[v].push(u);
                queue.push_back(v);
            }
        }
    }
    Tree { adj, parent, root, present: vec![true; n] }
}

impl Tree {
    /// A trivial tree with a single node 0.
    pub fn singleton() -> Self {
        Tree { adj: vec![Vec::new()], parent: vec![0], root: 0, present: vec![true] }
    }

    /// A path (chain) over `n` nodes — worst-case diameter, used by the
    /// scalability experiments.
    pub fn path(n: usize) -> Self {
        assert!(n >= 1);
        let mut g = Graph::with_nodes(n);
        for i in 1..n {
            g.add_edge(i - 1, i);
        }
        spanning_tree(&g, 0)
    }

    /// A star over `n` nodes with node 0 at the center — best-case
    /// diameter.
    pub fn star(n: usize) -> Self {
        assert!(n >= 1);
        let mut g = Graph::with_nodes(n);
        for i in 1..n {
            g.add_edge(0, i);
        }
        spanning_tree(&g, 0)
    }

    /// Capacity (including departed nodes' slots).
    pub fn capacity(&self) -> usize {
        self.adj.len()
    }

    /// Number of present nodes.
    pub fn len(&self) -> usize {
        self.present.iter().filter(|&&p| p).count()
    }

    /// True when no nodes are present (never happens in practice).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if `u` is currently part of the tree.
    pub fn contains(&self, u: NodeId) -> bool {
        u < self.present.len() && self.present[u]
    }

    /// Present neighbors of `u`.
    pub fn neighbors(&self, u: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.adj[u].iter().copied().filter(move |&v| self.present[v])
    }

    /// Degree among present nodes.
    pub fn degree(&self, u: NodeId) -> usize {
        self.neighbors(u).count()
    }

    /// Present node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.adj.len()).filter(move |&u| self.present[u])
    }

    /// Attaches a brand-new node under `parent`, returning its id
    /// (dynamic join).
    ///
    /// # Panics
    /// Panics if `parent` is not present.
    pub fn join(&mut self, parent: NodeId) -> NodeId {
        assert!(self.contains(parent), "join parent must be present");
        let id = self.adj.len();
        self.adj.push(vec![parent]);
        self.adj[parent].push(id);
        self.parent.push(parent);
        self.present.push(true);
        id
    }

    /// Removes a *leaf* node (dynamic leave). Interior departures would
    /// partition the tree; the underlying mechanism of §3 is assumed to
    /// repair those, so we only model the safe case.
    ///
    /// # Panics
    /// Panics if `u` is absent or not a leaf.
    pub fn leave(&mut self, u: NodeId) {
        assert!(self.contains(u), "node must be present to leave");
        assert!(self.degree(u) <= 1, "only leaf departures keep the tree connected");
        self.present[u] = false;
    }

    /// Removes a node that died *without* a clean departure, bridging its
    /// orphaned neighbors so the surviving tree stays connected: the
    /// dead node's tree parent (or, for a dead root, its first child)
    /// becomes the hub the other neighbors re-attach to. Returns the new
    /// edges created, as sorted pairs — callers assign link metadata
    /// (delays) to them.
    ///
    /// This is the repair half of §3's "underlying mechanism maintains a
    /// communication tree": leaf crashes degenerate to [`Tree::leave`]
    /// (no new edges), interior crashes re-route around the hole.
    ///
    /// # Panics
    /// Panics if `u` is absent.
    pub fn route_around(&mut self, u: NodeId) -> Vec<(NodeId, NodeId)> {
        assert!(self.contains(u), "node must be present to route around");
        let nbrs: Vec<NodeId> = self.neighbors(u).collect();
        self.present[u] = false;
        if nbrs.len() <= 1 {
            return Vec::new();
        }
        let hub = if self.parent[u] != u && nbrs.contains(&self.parent[u]) {
            self.parent[u]
        } else {
            nbrs[0]
        };
        if self.root == u {
            self.root = hub;
            self.parent[hub] = hub;
        }
        let mut new_edges = Vec::new();
        for &v in &nbrs {
            if v == hub {
                continue;
            }
            self.adj[hub].push(v);
            self.adj[v].push(hub);
            self.parent[v] = hub;
            new_edges.push((hub.min(v), hub.max(v)));
        }
        new_edges
    }

    /// Re-attaches a previously departed node as a fresh leaf under
    /// `parent` (crash recovery). Stale adjacency from before the outage
    /// is purged; the node keeps its id but starts with a single edge.
    ///
    /// # Panics
    /// Panics if `u` is still present or `parent` is not.
    pub fn rejoin(&mut self, u: NodeId, parent: NodeId) {
        assert!(u < self.adj.len() && !self.present[u], "rejoin is for departed nodes");
        assert!(self.contains(parent), "rejoin parent must be present");
        let stale: Vec<NodeId> = std::mem::take(&mut self.adj[u]);
        for v in stale {
            self.adj[v].retain(|&w| w != u);
        }
        self.adj[u].push(parent);
        self.adj[parent].push(u);
        self.parent[u] = parent;
        self.present[u] = true;
    }

    /// Verifies the tree invariants: connected and acyclic over present
    /// nodes (edge count = node count − 1 plus reachability).
    pub fn check_invariants(&self) {
        let n = self.len();
        if n == 0 {
            return;
        }
        let edges: usize = self.nodes().map(|u| self.neighbors(u).filter(|&v| v > u).count()).sum();
        assert_eq!(edges, n - 1, "tree must have exactly n-1 edges");
        // Reachability from any present node.
        let start = self.nodes().next().expect("n > 0");
        let mut seen = vec![false; self.adj.len()];
        let mut stack = vec![start];
        seen[start] = true;
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for v in self.neighbors(u) {
                if !seen[v] {
                    seen[v] = true;
                    count += 1;
                    stack.push(v);
                }
            }
        }
        assert_eq!(count, n, "tree must be connected");
    }

    /// Tree diameter in hops (longest shortest path among present nodes).
    pub fn diameter(&self) -> usize {
        // Double BFS: farthest node from an arbitrary start, then farthest
        // from that — exact on trees.
        let Some(start) = self.nodes().next() else { return 0 };
        let (far, _) = self.bfs_farthest(start);
        let (_, dist) = self.bfs_farthest(far);
        dist
    }

    fn bfs_farthest(&self, start: NodeId) -> (NodeId, usize) {
        let mut dist = vec![usize::MAX; self.adj.len()];
        let mut queue = std::collections::VecDeque::new();
        dist[start] = 0;
        queue.push_back(start);
        let (mut far, mut best) = (start, 0);
        while let Some(u) = queue.pop_front() {
            for v in self.neighbors(u) {
                if dist[v] == usize::MAX {
                    dist[v] = dist[u] + 1;
                    if dist[v] > best {
                        best = dist[v];
                        far = v;
                    }
                    queue.push_back(v);
                }
            }
        }
        (far, best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::barabasi::barabasi_albert;

    #[test]
    fn spanning_tree_of_ba_graph_is_valid() {
        let g = barabasi_albert(300, 2, 4);
        let t = spanning_tree(&g, 0);
        assert_eq!(t.len(), 300);
        t.check_invariants();
    }

    #[test]
    fn path_and_star_diameters() {
        assert_eq!(Tree::path(10).diameter(), 9);
        assert_eq!(Tree::star(10).diameter(), 2);
        assert_eq!(Tree::singleton().diameter(), 0);
    }

    #[test]
    fn join_grows_the_tree() {
        let mut t = Tree::singleton();
        let a = t.join(0);
        let b = t.join(a);
        assert_eq!(t.len(), 3);
        assert_eq!(t.degree(a), 2);
        assert!(t.contains(b));
        t.check_invariants();
    }

    #[test]
    fn leaf_leave_preserves_invariants() {
        let mut t = Tree::path(5);
        t.leave(4);
        assert_eq!(t.len(), 4);
        t.check_invariants();
        assert!(!t.contains(4));
        // Node 3 became a leaf; it can now leave too.
        t.leave(3);
        t.check_invariants();
    }

    #[test]
    #[should_panic(expected = "only leaf departures")]
    fn interior_leave_rejected() {
        let mut t = Tree::path(5);
        t.leave(2);
    }

    #[test]
    #[should_panic(expected = "requires a connected graph")]
    fn disconnected_graph_rejected() {
        let g = Graph::with_nodes(3);
        let _ = spanning_tree(&g, 0);
    }

    #[test]
    fn route_around_interior_node_bridges_neighbors() {
        let mut t = Tree::path(5); // 0-1-2-3-4
        let new_edges = t.route_around(2);
        assert_eq!(t.len(), 4);
        assert!(!t.contains(2));
        t.check_invariants();
        // Node 2's parent (1) became the hub; 3 re-attached to it.
        assert_eq!(new_edges, vec![(1, 3)]);
    }

    #[test]
    fn route_around_star_center_keeps_survivors_connected() {
        let mut t = Tree::star(5);
        let new_edges = t.route_around(0);
        assert_eq!(t.len(), 4);
        t.check_invariants();
        assert_eq!(new_edges.len(), 3, "three leaves re-attach to the hub");
    }

    #[test]
    fn route_around_leaf_is_a_plain_leave() {
        let mut t = Tree::path(4);
        assert!(t.route_around(3).is_empty());
        t.check_invariants();
    }

    #[test]
    fn rejoin_restores_a_crashed_node_as_leaf() {
        let mut t = Tree::path(5);
        t.route_around(2);
        t.rejoin(2, 4);
        assert_eq!(t.len(), 5);
        t.check_invariants();
        let n: Vec<_> = t.neighbors(2).collect();
        assert_eq!(n, vec![4], "rejoined node is a fresh leaf under its new parent");
        assert!(t.neighbors(1).all(|v| v != 2), "stale pre-crash edges are purged");
    }

    #[test]
    fn neighbors_exclude_departed() {
        let mut t = Tree::star(4);
        t.leave(3);
        let n: Vec<_> = t.neighbors(0).collect();
        assert_eq!(n, vec![1, 2]);
    }
}
