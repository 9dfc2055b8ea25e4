//! Forward reachability, depth-first postorder and shortest paths.

use crate::bitset::BitSet;
use crate::digraph::{DiGraph, NodeId};
use std::collections::VecDeque;

/// Nodes reachable from `start` by following edges forward (including
/// `start`), as a [`BitSet`] over node indices.
pub fn reachable_from<N, E>(g: &DiGraph<N, E>, start: NodeId) -> BitSet {
    let mut seen = BitSet::new(g.node_bound());
    let mut queue = VecDeque::new();
    seen.insert(start.index());
    queue.push_back(start);
    while let Some(n) = queue.pop_front() {
        for m in g.successors(n) {
            if !seen.contains(m.index()) {
                seen.insert(m.index());
                queue.push_back(m);
            }
        }
    }
    seen
}

/// Depth-first postorder of nodes reachable from `start`.
pub fn dfs_postorder<N, E>(g: &DiGraph<N, E>, start: NodeId) -> Vec<NodeId> {
    let mut seen = BitSet::new(g.node_bound());
    let mut order = Vec::new();
    // Iterative DFS with an explicit phase marker so deep graphs cannot
    // overflow the call stack.
    let mut stack = vec![(start, false)];
    while let Some((n, expanded)) = stack.pop() {
        if expanded {
            order.push(n);
            continue;
        }
        if seen.contains(n.index()) {
            continue;
        }
        seen.insert(n.index());
        stack.push((n, true));
        // Push successors in reverse so the first successor is visited first.
        let succ: Vec<NodeId> = g.successors(n).collect();
        for m in succ.into_iter().rev() {
            if !seen.contains(m.index()) {
                stack.push((m, false));
            }
        }
    }
    order
}

/// Finds one shortest path `from -> to` (inclusive), if any.
pub fn shortest_path<N, E>(g: &DiGraph<N, E>, from: NodeId, to: NodeId) -> Option<Vec<NodeId>> {
    let mut prev: Vec<Option<NodeId>> = vec![None; g.node_bound()];
    let mut seen = BitSet::new(g.node_bound());
    let mut queue = VecDeque::new();
    seen.insert(from.index());
    queue.push_back(from);
    while let Some(n) = queue.pop_front() {
        if n == to {
            let mut path = vec![to];
            let mut cur = to;
            while cur != from {
                cur = prev[cur.index()].expect("path chain broken");
                path.push(cur);
            }
            path.reverse();
            return Some(path);
        }
        for m in g.successors(n) {
            if !seen.contains(m.index()) {
                seen.insert(m.index());
                prev[m.index()] = Some(n);
                queue.push_back(m);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(n: usize) -> (DiGraph<usize, ()>, Vec<NodeId>) {
        let mut g = DiGraph::new();
        let ids: Vec<_> = (0..n).map(|i| g.add_node(i)).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1], ());
        }
        (g, ids)
    }

    #[test]
    fn reachability_follows_edges_forward() {
        let (g, ids) = chain(5);
        let fwd = reachable_from(&g, ids[2]);
        assert_eq!(fwd.iter().collect::<Vec<_>>(), vec![2, 3, 4]);
    }

    #[test]
    fn postorder_children_before_parent() {
        let (g, ids) = chain(4);
        let order = dfs_postorder(&g, ids[0]);
        assert_eq!(order, vec![ids[3], ids[2], ids[1], ids[0]]);
    }

    #[test]
    fn postorder_handles_deep_graphs() {
        let (g, ids) = chain(100_000);
        let order = dfs_postorder(&g, ids[0]);
        assert_eq!(order.len(), 100_000);
        assert_eq!(order[0], ids[99_999]);
    }

    #[test]
    fn shortest_path_found_and_missing() {
        let mut g = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        let d = g.add_node(());
        g.add_edge(a, b, ());
        g.add_edge(b, d, ());
        g.add_edge(a, c, ());
        g.add_edge(c, d, ());
        g.add_edge(a, d, ());
        assert_eq!(shortest_path(&g, a, d), Some(vec![a, d]));
        assert_eq!(shortest_path(&g, d, a), None);
        assert_eq!(shortest_path(&g, a, a), Some(vec![a]));
    }

    #[test]
    fn cyclic_graph_terminates() {
        let mut g = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, ());
        g.add_edge(b, a, ());
        assert_eq!(reachable_from(&g, a).count(), 2);
        assert_eq!(dfs_postorder(&g, a), vec![b, a]);
    }
}
