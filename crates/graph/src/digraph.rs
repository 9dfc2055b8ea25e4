//! A directed multigraph with stable node/edge indices and tombstone removal.
//!
//! This is the shared substrate for every dependency structure in the
//! workspace: program-dependence graphs, DSCL constraint sets, Petri-net
//! skeletons and the scheduler's ready-tracking all build on [`DiGraph`].
//!
//! Indices are stable: removing a node or edge never renumbers the others
//! (removed slots become tombstones). Algorithms that want a dense index
//! space can call [`DiGraph::compact`] to obtain a tombstone-free copy plus
//! the index remapping.

use std::fmt;

/// Identifier of a node within one [`DiGraph`]. Stable across removals.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Identifier of an edge within one [`DiGraph`]. Stable across removals.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u32);

impl NodeId {
    /// The raw index, usable for dense side tables of size `graph.node_bound()`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl EdgeId {
    /// The raw index, usable for dense side tables of size `graph.edge_bound()`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

#[derive(Clone, Debug)]
struct NodeSlot<N> {
    weight: N,
    out: Vec<EdgeId>,
    inc: Vec<EdgeId>,
}

#[derive(Clone, Debug)]
struct EdgeSlot<E> {
    from: NodeId,
    to: NodeId,
    weight: E,
}

/// A directed multigraph with node weights `N` and edge weights `E`.
#[derive(Clone)]
pub struct DiGraph<N, E> {
    nodes: Vec<Option<NodeSlot<N>>>,
    edges: Vec<Option<EdgeSlot<E>>>,
    node_count: usize,
    edge_count: usize,
}

impl<N, E> Default for DiGraph<N, E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<N, E> DiGraph<N, E> {
    /// Creates an empty graph.
    pub fn new() -> Self {
        DiGraph {
            nodes: Vec::new(),
            edges: Vec::new(),
            node_count: 0,
            edge_count: 0,
        }
    }

    /// Creates an empty graph with reserved capacity.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        DiGraph {
            nodes: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
            node_count: 0,
            edge_count: 0,
        }
    }

    /// Number of live nodes.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of live edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Exclusive upper bound on node indices (tombstones included).
    pub fn node_bound(&self) -> usize {
        self.nodes.len()
    }

    /// Exclusive upper bound on edge indices (tombstones included).
    pub fn edge_bound(&self) -> usize {
        self.edges.len()
    }

    /// Adds a node, returning its stable id.
    pub fn add_node(&mut self, weight: N) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Some(NodeSlot {
            weight,
            out: Vec::new(),
            inc: Vec::new(),
        }));
        self.node_count += 1;
        id
    }

    /// True if `n` refers to a live node.
    pub fn contains_node(&self, n: NodeId) -> bool {
        self.nodes.get(n.index()).is_some_and(Option::is_some)
    }

    fn node(&self, n: NodeId) -> &NodeSlot<N> {
        self.nodes[n.index()].as_ref().expect("node was removed")
    }

    fn node_mut(&mut self, n: NodeId) -> &mut NodeSlot<N> {
        self.nodes[n.index()].as_mut().expect("node was removed")
    }

    fn edge(&self, e: EdgeId) -> &EdgeSlot<E> {
        self.edges[e.index()].as_ref().expect("edge was removed")
    }

    /// Node weight. Panics on a removed/invalid id.
    pub fn weight(&self, n: NodeId) -> &N {
        &self.node(n).weight
    }

    /// Edge weight. Panics on a removed/invalid id.
    pub fn edge_weight(&self, e: EdgeId) -> &E {
        &self.edge(e).weight
    }

    /// The `(from, to)` endpoints of edge `e`.
    pub fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        let s = self.edge(e);
        (s.from, s.to)
    }

    /// Adds an edge `from -> to`, returning its stable id. Parallel edges
    /// are allowed (constraint graphs can carry several differently
    /// conditioned constraints between one activity pair).
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, weight: E) -> EdgeId {
        assert!(self.contains_node(from), "edge source was removed");
        assert!(self.contains_node(to), "edge target was removed");
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(Some(EdgeSlot { from, to, weight }));
        self.node_mut(from).out.push(id);
        self.node_mut(to).inc.push(id);
        self.edge_count += 1;
        id
    }

    /// Removes an edge, returning its weight. Panics on invalid id.
    pub fn remove_edge(&mut self, e: EdgeId) -> E {
        let slot = self.edges[e.index()].take().expect("edge already removed");
        self.node_mut(slot.from).out.retain(|&x| x != e);
        self.node_mut(slot.to).inc.retain(|&x| x != e);
        self.edge_count -= 1;
        slot.weight
    }

    /// Removes a node and all incident edges, returning its weight.
    pub fn remove_node(&mut self, n: NodeId) -> N {
        let slot = self.nodes[n.index()].take().expect("node already removed");
        for e in slot.out.iter().chain(&slot.inc) {
            if let Some(edge) = self.edges[e.index()].take() {
                self.edge_count -= 1;
                // Detach from the opposite endpoint (skip self-loops whose
                // both endpoints are the removed node).
                let other_lists = if edge.from == n { edge.to } else { edge.from };
                if other_lists != n {
                    let other = self.node_mut(other_lists);
                    other.out.retain(|&x| x != *e);
                    other.inc.retain(|&x| x != *e);
                }
            }
        }
        self.node_count -= 1;
        slot.weight
    }

    /// Iterates over live node ids in ascending order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|_| NodeId(i as u32)))
    }

    /// Iterates over live edge ids in ascending order.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.edges
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|_| EdgeId(i as u32)))
    }

    /// Iterates `(edge, from, to, weight)` over live edges.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, NodeId, NodeId, &E)> + '_ {
        self.edges.iter().enumerate().filter_map(|(i, s)| {
            s.as_ref()
                .map(|e| (EdgeId(i as u32), e.from, e.to, &e.weight))
        })
    }

    /// Outgoing edge ids of `n`.
    pub fn out_edges(&self, n: NodeId) -> impl Iterator<Item = EdgeId> + '_ {
        self.node(n).out.iter().copied()
    }

    /// Incoming edge ids of `n`.
    pub fn in_edges(&self, n: NodeId) -> impl Iterator<Item = EdgeId> + '_ {
        self.node(n).inc.iter().copied()
    }

    /// Successor nodes of `n` (with duplicates if parallel edges exist).
    pub fn successors(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.node(n).out.iter().map(|&e| self.edge(e).to)
    }

    /// Predecessor nodes of `n` (with duplicates if parallel edges exist).
    pub fn predecessors(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.node(n).inc.iter().map(|&e| self.edge(e).from)
    }

    /// Out-degree of `n`.
    pub fn out_degree(&self, n: NodeId) -> usize {
        self.node(n).out.len()
    }

    /// In-degree of `n`.
    pub fn in_degree(&self, n: NodeId) -> usize {
        self.node(n).inc.len()
    }

    /// First live edge `from -> to`, if any.
    pub fn find_edge(&self, from: NodeId, to: NodeId) -> Option<EdgeId> {
        self.node(from)
            .out
            .iter()
            .copied()
            .find(|&e| self.edge(e).to == to)
    }

    /// True if at least one live edge `from -> to` exists.
    pub fn has_edge(&self, from: NodeId, to: NodeId) -> bool {
        self.find_edge(from, to).is_some()
    }

    /// Returns a tombstone-free copy and the node remapping
    /// (`map[old.index()] == Some(new)` for live nodes).
    pub fn compact(&self) -> (DiGraph<N, E>, Vec<Option<NodeId>>)
    where
        N: Clone,
        E: Clone,
    {
        let mut g = DiGraph::with_capacity(self.node_count, self.edge_count);
        let mut map: Vec<Option<NodeId>> = vec![None; self.nodes.len()];
        for (i, slot) in self.nodes.iter().enumerate() {
            if let Some(s) = slot {
                map[i] = Some(g.add_node(s.weight.clone()));
            }
        }
        for slot in self.edges.iter().flatten() {
            let from = map[slot.from.index()].expect("live edge with dead source");
            let to = map[slot.to.index()].expect("live edge with dead target");
            g.add_edge(from, to, slot.weight.clone());
        }
        (g, map)
    }

    /// Maps node and edge weights into a structurally identical graph,
    /// preserving ids (tombstones included).
    pub fn map<N2, E2>(
        &self,
        mut fnode: impl FnMut(NodeId, &N) -> N2,
        mut fedge: impl FnMut(EdgeId, &E) -> E2,
    ) -> DiGraph<N2, E2> {
        DiGraph {
            nodes: self
                .nodes
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    s.as_ref().map(|s| NodeSlot {
                        weight: fnode(NodeId(i as u32), &s.weight),
                        out: s.out.clone(),
                        inc: s.inc.clone(),
                    })
                })
                .collect(),
            edges: self
                .edges
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    s.as_ref().map(|s| EdgeSlot {
                        from: s.from,
                        to: s.to,
                        weight: fedge(EdgeId(i as u32), &s.weight),
                    })
                })
                .collect(),
            node_count: self.node_count,
            edge_count: self.edge_count,
        }
    }
}

impl<N: fmt::Debug, E: fmt::Debug> fmt::Debug for DiGraph<N, E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DiGraph ({} nodes, {} edges)", self.node_count, self.edge_count)?;
        for n in self.node_ids() {
            writeln!(f, "  {:?}: {:?}", n, self.weight(n))?;
        }
        for (e, a, b, w) in self.edges() {
            writeln!(f, "  {:?}: {:?} -> {:?} [{:?}]", e, a, b, w)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (DiGraph<&'static str, u32>, [NodeId; 4]) {
        let mut g = DiGraph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        let d = g.add_node("d");
        g.add_edge(a, b, 1);
        g.add_edge(a, c, 2);
        g.add_edge(b, d, 3);
        g.add_edge(c, d, 4);
        (g, [a, b, c, d])
    }

    #[test]
    fn counts_and_degrees() {
        let (g, [a, b, _c, d]) = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.out_degree(a), 2);
        assert_eq!(g.in_degree(d), 2);
        assert_eq!(g.out_degree(d), 0);
        assert_eq!(g.in_degree(b), 1);
    }

    #[test]
    fn neighbors() {
        let (g, [a, b, c, d]) = diamond();
        let succ: Vec<_> = g.successors(a).collect();
        assert_eq!(succ, vec![b, c]);
        let pred: Vec<_> = g.predecessors(d).collect();
        assert_eq!(pred, vec![b, c]);
    }

    #[test]
    fn remove_edge_updates_adjacency() {
        let (mut g, [a, b, _c, _d]) = diamond();
        let e = g.find_edge(a, b).unwrap();
        assert_eq!(g.remove_edge(e), 1);
        assert!(!g.has_edge(a, b));
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.out_degree(a), 1);
        assert_eq!(g.in_degree(b), 0);
    }

    #[test]
    fn remove_node_removes_incident_edges() {
        let (mut g, [a, b, c, d]) = diamond();
        g.remove_node(b);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge(a, c));
        assert!(g.has_edge(c, d));
        assert!(!g.contains_node(b));
        // Remaining ids are stable.
        assert_eq!(*g.weight(d), "d");
    }

    #[test]
    fn self_loop_removal() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        g.add_edge(a, a, ());
        assert_eq!(g.edge_count(), 1);
        g.remove_node(a);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.node_count(), 0);
    }

    #[test]
    fn parallel_edges_allowed() {
        let mut g: DiGraph<(), char> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, 'x');
        g.add_edge(a, b, 'y');
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.successors(a).count(), 2);
    }

    #[test]
    fn compact_renumbers() {
        let (mut g, [a, b, _c, d]) = diamond();
        g.remove_node(b);
        let (c2, map) = g.compact();
        assert_eq!(c2.node_count(), 3);
        assert_eq!(c2.node_bound(), 3);
        assert_eq!(c2.edge_count(), 2);
        assert!(map[b.index()].is_none());
        let na = map[a.index()].unwrap();
        let nd = map[d.index()].unwrap();
        assert_eq!(*c2.weight(na), "a");
        assert_eq!(*c2.weight(nd), "d");
    }

    #[test]
    fn map_preserves_ids() {
        let (g, [a, ..]) = diamond();
        let m = g.map(|_, w| w.len(), |_, e| *e as u64);
        assert_eq!(*m.weight(a), 1);
        assert_eq!(m.edge_count(), 4);
    }

    #[test]
    fn edges_iterator_reports_endpoints() {
        let (g, [a, b, ..]) = diamond();
        let first = g.edges().next().unwrap();
        assert_eq!((first.1, first.2, *first.3), (a, b, 1));
    }
}
