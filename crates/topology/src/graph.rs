//! Simple undirected graphs with adjacency lists.

/// Node identifier — dense indices `0..n`.
pub type NodeId = usize;

/// An undirected graph as adjacency lists. Parallel edges and self-loops
/// are rejected at insertion.
#[derive(Clone, Debug, Default)]
pub struct Graph {
    adj: Vec<Vec<NodeId>>,
}

impl Graph {
    /// A graph with `n` isolated nodes.
    pub fn with_nodes(n: usize) -> Self {
        Graph { adj: vec![Vec::new(); n] }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Adds an undirected edge. Returns false (and does nothing) for
    /// self-loops and duplicates.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        assert!(u < self.len() && v < self.len(), "edge endpoints must exist");
        if u == v || self.adj[u].contains(&v) {
            return false;
        }
        self.adj[u].push(v);
        self.adj[v].push(u);
        true
    }

    /// Neighbors of `u`.
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        &self.adj[u]
    }

    /// Degree of `u`.
    pub fn degree(&self, u: NodeId) -> usize {
        self.adj[u].len()
    }

    /// Total number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(|a| a.len()).sum::<usize>() / 2
    }

    /// All edges as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.adj
            .iter()
            .enumerate()
            .flat_map(|(u, ns)| ns.iter().filter(move |&&v| u < v).map(move |&v| (u, v)))
    }

    /// True if every node can reach every other.
    pub fn is_connected(&self) -> bool {
        if self.adj.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.len()];
        let mut stack = vec![0];
        seen[0] = true;
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for &v in &self.adj[u] {
                if !seen[v] {
                    seen[v] = true;
                    count += 1;
                    stack.push(v);
                }
            }
        }
        count == self.len()
    }

    /// Degree histogram: `hist[d]` = number of nodes with degree `d`.
    pub fn degree_histogram(&self) -> Vec<usize> {
        let max = self.adj.iter().map(Vec::len).max().unwrap_or(0);
        let mut hist = vec![0usize; max + 1];
        for a in &self.adj {
            hist[a.len()] += 1;
        }
        hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let mut g = Graph::with_nodes(3);
        assert!(g.add_edge(0, 1));
        assert!(g.add_edge(1, 2));
        assert!(!g.add_edge(0, 0), "self-loop rejected");
        assert!(!g.add_edge(1, 0), "duplicate rejected");
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.degree(1), 2);
        assert!(g.is_connected());
        assert_eq!(g.edges().collect::<Vec<_>>(), vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn disconnected_detected() {
        let mut g = Graph::with_nodes(4);
        g.add_edge(0, 1);
        g.add_edge(2, 3);
        assert!(!g.is_connected());
    }

    #[test]
    fn degree_histogram_sums_to_node_count() {
        let mut g = Graph::with_nodes(5);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.add_edge(0, 3);
        let hist = g.degree_histogram();
        assert_eq!(hist.iter().sum::<usize>(), 5);
        assert_eq!(hist[3], 1); // node 0
        assert_eq!(hist[0], 1); // node 4
    }

    #[test]
    fn empty_graph_is_connected() {
        assert!(Graph::default().is_connected());
    }
}
