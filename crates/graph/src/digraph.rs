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
//!
//! Adjacency is stored flat, in one vector of node links and one of edge
//! links: every node's out and in lists are singly linked through the
//! edge links (`next_out`, `next_in`), appended at the tail, so they
//! iterate in insertion order and removing an edge unlinks it in place.
//! A graph of any size costs a few allocations to build and drop.

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

/// End of an adjacency list; in [`EdgeLinks::from`], a removed edge.
const NIL: u32 = u32::MAX;

/// A node's two adjacency lists, each a singly linked list of edge ids
/// threaded through [`EdgeLinks`] and kept in insertion order (appended
/// at the tail), with their lengths.
#[derive(Clone, Copy, Debug)]
struct NodeLinks {
    out_head: u32,
    out_tail: u32,
    in_head: u32,
    in_tail: u32,
    out_deg: u32,
    in_deg: u32,
}

/// An edge's endpoints and the next edge in its source's out list and in
/// its target's in list. `from` is [`NIL`] once the edge is removed.
#[derive(Clone, Copy, Debug)]
struct EdgeLinks {
    from: u32,
    to: u32,
    next_out: u32,
    next_in: u32,
}

/// A directed multigraph with node weights `N` and edge weights `E`.
///
/// Links and weights sit in separate vectors, so a walk over adjacency
/// lists reads 16 bytes per edge whatever the weights are.
#[derive(Clone)]
pub struct DiGraph<N, E> {
    nodes: Vec<NodeLinks>,
    /// `None` on removed nodes.
    node_weights: Vec<Option<N>>,
    edges: Vec<EdgeLinks>,
    /// `None` on removed edges.
    edge_weights: Vec<Option<E>>,
    node_count: usize,
    edge_count: usize,
}

/// Edge ids along one adjacency list: the out list if `OUT`, else the in
/// list.
struct Links<'a, const OUT: bool> {
    edges: &'a [EdgeLinks],
    at: u32,
}

impl<const OUT: bool> Iterator for Links<'_, OUT> {
    type Item = EdgeId;

    fn next(&mut self) -> Option<EdgeId> {
        if self.at == NIL {
            return None;
        }
        let e = self.at;
        let l = &self.edges[e as usize];
        self.at = if OUT { l.next_out } else { l.next_in };
        Some(EdgeId(e))
    }
}

impl<N, E> Default for DiGraph<N, E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<N, E> DiGraph<N, E> {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::with_capacity(0, 0)
    }

    /// Creates an empty graph with reserved capacity.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        DiGraph {
            nodes: Vec::with_capacity(nodes),
            node_weights: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
            edge_weights: Vec::with_capacity(edges),
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
        self.nodes.push(NodeLinks {
            out_head: NIL,
            out_tail: NIL,
            in_head: NIL,
            in_tail: NIL,
            out_deg: 0,
            in_deg: 0,
        });
        self.node_weights.push(Some(weight));
        self.node_count += 1;
        id
    }

    /// True if `n` refers to a live node.
    pub fn contains_node(&self, n: NodeId) -> bool {
        self.node_weights.get(n.index()).is_some_and(Option::is_some)
    }

    /// The links of live node `n`.
    fn node(&self, n: NodeId) -> &NodeLinks {
        assert!(self.contains_node(n), "node was removed");
        &self.nodes[n.index()]
    }

    /// The links of live edge `e`.
    fn edge(&self, e: EdgeId) -> &EdgeLinks {
        let l = &self.edges[e.index()];
        assert!(l.from != NIL, "edge was removed");
        l
    }

    /// Node weight. Panics on a removed/invalid id.
    pub fn weight(&self, n: NodeId) -> &N {
        self.node_weights[n.index()].as_ref().expect("node was removed")
    }

    /// Edge weight. Panics on a removed/invalid id.
    pub fn edge_weight(&self, e: EdgeId) -> &E {
        self.edge_weights[e.index()].as_ref().expect("edge was removed")
    }

    /// The `(from, to)` endpoints of edge `e`.
    pub fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        let l = self.edge(e);
        (NodeId(l.from), NodeId(l.to))
    }

    /// Adds an edge `from -> to`, returning its stable id. Parallel edges
    /// are allowed (constraint graphs can carry several differently
    /// conditioned constraints between one activity pair).
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, weight: E) -> EdgeId {
        assert!(self.contains_node(from), "edge source was removed");
        assert!(self.contains_node(to), "edge target was removed");
        let id = self.edges.len() as u32;
        self.edges.push(EdgeLinks {
            from: from.0,
            to: to.0,
            next_out: NIL,
            next_in: NIL,
        });
        self.edge_weights.push(Some(weight));
        let src = &mut self.nodes[from.index()];
        let tail = std::mem::replace(&mut src.out_tail, id);
        src.out_deg += 1;
        if tail == NIL {
            src.out_head = id;
        } else {
            self.edges[tail as usize].next_out = id;
        }
        let dst = &mut self.nodes[to.index()];
        let tail = std::mem::replace(&mut dst.in_tail, id);
        dst.in_deg += 1;
        if tail == NIL {
            dst.in_head = id;
        } else {
            self.edges[tail as usize].next_in = id;
        }
        self.edge_count += 1;
        EdgeId(id)
    }

    /// Removes an edge, returning its weight. Panics on invalid id.
    pub fn remove_edge(&mut self, e: EdgeId) -> E {
        let EdgeLinks {
            from,
            to,
            next_out,
            next_in,
        } = *self.edge(e);
        // Unlink from the source's out list, then the target's in list.
        let (mut prev, mut at) = (NIL, self.nodes[from as usize].out_head);
        while at != e.0 {
            (prev, at) = (at, self.edges[at as usize].next_out);
        }
        let src = &mut self.nodes[from as usize];
        if prev == NIL {
            src.out_head = next_out;
        } else {
            self.edges[prev as usize].next_out = next_out;
        }
        if src.out_tail == e.0 {
            src.out_tail = prev;
        }
        src.out_deg -= 1;
        let (mut prev, mut at) = (NIL, self.nodes[to as usize].in_head);
        while at != e.0 {
            (prev, at) = (at, self.edges[at as usize].next_in);
        }
        let dst = &mut self.nodes[to as usize];
        if prev == NIL {
            dst.in_head = next_in;
        } else {
            self.edges[prev as usize].next_in = next_in;
        }
        if dst.in_tail == e.0 {
            dst.in_tail = prev;
        }
        dst.in_deg -= 1;
        self.edges[e.index()].from = NIL;
        self.edge_count -= 1;
        self.edge_weights[e.index()].take().expect("edge already removed")
    }

    /// Removes a node and all incident edges, returning its weight.
    pub fn remove_node(&mut self, n: NodeId) -> N {
        while self.node(n).out_head != NIL {
            self.remove_edge(EdgeId(self.nodes[n.index()].out_head));
        }
        while self.nodes[n.index()].in_head != NIL {
            self.remove_edge(EdgeId(self.nodes[n.index()].in_head));
        }
        self.node_count -= 1;
        self.node_weights[n.index()].take().expect("node already removed")
    }

    /// Iterates over live node ids in ascending order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_weights
            .iter()
            .enumerate()
            .filter_map(|(i, w)| w.as_ref().map(|_| NodeId(i as u32)))
    }

    /// Iterates over live edge ids in ascending order.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.edges
            .iter()
            .enumerate()
            .filter(|(_, l)| l.from != NIL)
            .map(|(i, _)| EdgeId(i as u32))
    }

    /// Iterates `(edge, from, to, weight)` over live edges.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, NodeId, NodeId, &E)> + '_ {
        let live = self.edges.iter().zip(&self.edge_weights).enumerate();
        live.filter_map(|(i, (l, w))| {
            w.as_ref()
                .map(|w| (EdgeId(i as u32), NodeId(l.from), NodeId(l.to), w))
        })
    }

    /// Outgoing edge ids of `n`, in insertion order.
    pub fn out_edges(&self, n: NodeId) -> impl Iterator<Item = EdgeId> + '_ {
        Links::<true> {
            edges: &self.edges,
            at: self.node(n).out_head,
        }
    }

    /// Incoming edge ids of `n`, in insertion order.
    pub fn in_edges(&self, n: NodeId) -> impl Iterator<Item = EdgeId> + '_ {
        Links::<false> {
            edges: &self.edges,
            at: self.node(n).in_head,
        }
    }

    /// Successor nodes of `n` (with duplicates if parallel edges exist).
    pub fn successors(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.out_edges(n).map(|e| NodeId(self.edges[e.index()].to))
    }

    /// Predecessor nodes of `n` (with duplicates if parallel edges exist).
    pub fn predecessors(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.in_edges(n).map(|e| NodeId(self.edges[e.index()].from))
    }

    /// Out-degree of `n`.
    pub fn out_degree(&self, n: NodeId) -> usize {
        self.node(n).out_deg as usize
    }

    /// In-degree of `n`.
    pub fn in_degree(&self, n: NodeId) -> usize {
        self.node(n).in_deg as usize
    }

    /// First live edge `from -> to`, if any.
    pub fn find_edge(&self, from: NodeId, to: NodeId) -> Option<EdgeId> {
        self.out_edges(from).find(|&e| self.edges[e.index()].to == to.0)
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
        for (i, w) in self.node_weights.iter().enumerate() {
            if let Some(w) = w {
                map[i] = Some(g.add_node(w.clone()));
            }
        }
        for (_, from, to, w) in self.edges() {
            let from = map[from.index()].expect("live edge with dead source");
            let to = map[to.index()].expect("live edge with dead target");
            g.add_edge(from, to, w.clone());
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
        let node_weights = self.node_weights.iter().enumerate();
        let edge_weights = self.edge_weights.iter().enumerate();
        DiGraph {
            nodes: self.nodes.clone(),
            node_weights: node_weights
                .map(|(i, w)| w.as_ref().map(|w| fnode(NodeId(i as u32), w)))
                .collect(),
            edges: self.edges.clone(),
            edge_weights: edge_weights
                .map(|(i, w)| w.as_ref().map(|w| fedge(EdgeId(i as u32), w)))
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
