//! Topological ordering, and the cycle report of a graph that has none.

use crate::digraph::{DiGraph, NodeId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Error returned when an operation requires a DAG but the graph is cyclic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleError {
    /// A node that lies on a cycle: it reaches itself.
    pub on_cycle: NodeId,
}

impl std::fmt::Display for CycleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "graph contains a cycle through {:?}", self.on_cycle)
    }
}

impl std::error::Error for CycleError {}

/// Kahn topological sort, always taking the smallest ready id next (a
/// min-heap, so O((V + E) log V)). Fails with a node that lies on a
/// cycle if the graph is not a DAG.
pub fn topo_sort<N, E>(g: &DiGraph<N, E>) -> Result<Vec<NodeId>, CycleError> {
    let mut indeg: Vec<usize> = vec![0; g.node_bound()];
    for n in g.node_ids() {
        indeg[n.index()] = g.in_degree(n);
    }
    let mut ready: BinaryHeap<Reverse<NodeId>> = g
        .node_ids()
        .filter(|n| indeg[n.index()] == 0)
        .map(Reverse)
        .collect();
    let mut order = Vec::with_capacity(g.node_count());
    while let Some(Reverse(n)) = ready.pop() {
        order.push(n);
        for m in g.successors(n) {
            indeg[m.index()] -= 1;
            if indeg[m.index()] == 0 {
                ready.push(Reverse(m));
            }
        }
    }
    if order.len() != g.node_count() {
        return Err(CycleError {
            on_cycle: cycle_node(g, &indeg),
        });
    }
    Ok(order)
}

/// A node on a cycle, from the in-degrees Kahn's sort left behind. The
/// unsorted nodes are exactly those with positive in-degree, and each has
/// an unsorted predecessor. So walking back from the first of them (in id
/// order) through such predecessors must repeat a node, and the first
/// node to repeat lies on a cycle. The first unsorted node itself may lie
/// only downstream of one. O(V + E).
fn cycle_node<N, E>(g: &DiGraph<N, E>, indeg: &[usize]) -> NodeId {
    let mut seen = vec![false; g.node_bound()];
    let mut n = g
        .node_ids()
        .find(|n| indeg[n.index()] > 0)
        .expect("missing node must have positive in-degree");
    while !seen[n.index()] {
        seen[n.index()] = true;
        n = g
            .predecessors(n)
            .find(|p| indeg[p.index()] > 0)
            .expect("an unsorted node has an unsorted predecessor");
    }
    n
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The earlier Kahn sort, which re-sorts its whole ready list after
    /// every pop: the reference the heap order is pinned to. Its cycle
    /// report is the first unsorted node in id order, which need not lie
    /// on the cycle, so only the error/ok outcome is compared.
    fn resort_reference<N, E>(g: &DiGraph<N, E>) -> Result<Vec<NodeId>, CycleError> {
        let mut indeg: Vec<usize> = vec![0; g.node_bound()];
        for n in g.node_ids() {
            indeg[n.index()] = g.in_degree(n);
        }
        let mut ready: Vec<NodeId> = g.node_ids().filter(|n| indeg[n.index()] == 0).collect();
        // Process in ascending id order for deterministic output.
        ready.sort();
        ready.reverse();
        let mut order = Vec::with_capacity(g.node_count());
        while let Some(n) = ready.pop() {
            order.push(n);
            let mut newly = Vec::new();
            for m in g.successors(n) {
                indeg[m.index()] -= 1;
                if indeg[m.index()] == 0 {
                    newly.push(m);
                }
            }
            newly.sort();
            newly.reverse();
            // Keep `ready` behaving like a min-id stack: merge sorted runs.
            ready.extend(newly);
            ready.sort();
            ready.reverse();
        }
        if order.len() != g.node_count() {
            let on_cycle = g
                .node_ids()
                .find(|n| indeg[n.index()] > 0)
                .expect("missing node must have positive in-degree");
            return Err(CycleError { on_cycle });
        }
        Ok(order)
    }

    /// A seeded random graph on `n` nodes: forward edges only (a DAG)
    /// unless `back` adds edges against the id order, with parallel edges
    /// and a few tombstoned nodes.
    fn seeded(seed: u64, n: usize, back: usize) -> DiGraph<(), ()> {
        let mut rng = dscweaver_prng::Rng::seed_from_u64(seed);
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let ids: Vec<NodeId> = (0..n).map(|_| g.add_node(())).collect();
        for _ in 0..2 * n {
            let (a, b) = (rng.random_range(n), rng.random_range(n));
            if a < b {
                g.add_edge(ids[a], ids[b], ());
            }
        }
        for _ in 0..back {
            let (a, b) = (rng.random_range(n), rng.random_range(n));
            if a > b {
                g.add_edge(ids[a], ids[b], ());
            }
        }
        for _ in 0..n / 10 {
            let k = rng.random_range(n);
            if g.contains_node(ids[k]) {
                g.remove_node(ids[k]);
            }
        }
        g
    }

    #[test]
    fn heap_order_matches_the_resort_reference() {
        let mut cycles = 0;
        for seed in 0..200u64 {
            let n = 1 + (seed as usize * 7) % 60;
            let dag = seeded(seed, n, 0);
            let got = topo_sort(&dag);
            assert!(got.is_ok(), "seed {seed}");
            assert_eq!(got, resort_reference(&dag), "seed {seed}");
            // Cyclic inputs fail alike, and the report lies on a cycle.
            let cyclic = seeded(seed, n, 1 + n / 2);
            let got = topo_sort(&cyclic);
            let reference = resort_reference(&cyclic);
            match got {
                Ok(order) => assert_eq!(Ok(order), reference, "seed {seed}"),
                Err(e) => {
                    cycles += 1;
                    assert!(reference.is_err(), "seed {seed}");
                    assert!(reaches_itself(&cyclic, e.on_cycle), "seed {seed}: {e}");
                }
            }
        }
        assert!(cycles > 60, "only {cycles} cyclic inputs");
    }

    /// True when a path of at least one edge leads from `n` back to `n`.
    pub(crate) fn reaches_itself<N, E>(g: &DiGraph<N, E>, n: NodeId) -> bool {
        let mut seen = vec![false; g.node_bound()];
        let mut stack: Vec<NodeId> = g.successors(n).collect();
        while let Some(m) = stack.pop() {
            if m == n {
                return true;
            }
            if !std::mem::replace(&mut seen[m.index()], true) {
                stack.extend(g.successors(m));
            }
        }
        false
    }

    #[test]
    fn cycle_report_names_a_node_on_the_cycle_not_downstream() {
        // c has the smallest id but only hangs off the a ⇄ b cycle.
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let c = g.add_node(());
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, ());
        g.add_edge(b, a, ());
        g.add_edge(a, c, ());
        let on_cycle = topo_sort(&g).unwrap_err().on_cycle;
        assert!(on_cycle == a || on_cycle == b, "{on_cycle:?}");
        assert!(reaches_itself(&g, on_cycle));
        assert!(!reaches_itself(&g, c));
    }

    fn diamond() -> (DiGraph<(), ()>, [NodeId; 4]) {
        let mut g = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        let d = g.add_node(());
        g.add_edge(a, b, ());
        g.add_edge(a, c, ());
        g.add_edge(b, d, ());
        g.add_edge(c, d, ());
        (g, [a, b, c, d])
    }

    #[test]
    fn topo_sort_diamond() {
        let (g, [a, b, c, d]) = diamond();
        assert_eq!(topo_sort(&g).unwrap(), vec![a, b, c, d]);
    }

    #[test]
    fn topo_sort_detects_cycle() {
        let mut g = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, ());
        g.add_edge(b, a, ());
        assert!(topo_sort(&g).is_err());
    }

    #[test]
    fn topo_deterministic_min_id_first() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        // No edges: order must be id order regardless of insertion effects.
        let _ = (a, b, c);
        assert_eq!(topo_sort(&g).unwrap(), vec![a, b, c]);
    }

    #[test]
    fn empty_graph_metrics() {
        let g: DiGraph<(), ()> = DiGraph::new();
        assert!(topo_sort(&g).unwrap().is_empty());
    }

    #[test]
    fn works_with_tombstones() {
        let (mut g, [_, b, ..]) = diamond();
        g.remove_node(b);
        let order = topo_sort(&g).unwrap();
        assert_eq!(order.len(), 3);
    }
}
