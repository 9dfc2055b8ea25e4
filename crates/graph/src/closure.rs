//! Plain (unconditional) transitive closure of a DAG.
//!
//! The paper's Definition 3 needs *condition-annotated* closures (see
//! [`crate::annotated`]); this module provides the unconditional variant
//! behind the maximum antichain. It needs a DAG, so a cycle is an error
//! here, as in every other closure builder.

use crate::bitset::BitSet;
use crate::digraph::{DiGraph, NodeId};
use crate::topo::{topo_sort, CycleError};

/// Dense reachability matrix of a DAG: `row(n)` is the set of nodes
/// strictly reachable from `n` (the paper's `n+`, never `n` itself).
#[derive(Clone, Debug)]
pub struct Closure {
    rows: Vec<BitSet>,
    bound: usize,
}

impl Closure {
    /// The closure row for `n`.
    pub fn row(&self, n: NodeId) -> &BitSet {
        &self.rows[n.index()]
    }

    /// True if `b` is strictly reachable from `a`.
    pub fn reaches(&self, a: NodeId, b: NodeId) -> bool {
        self.rows[a.index()].contains(b.index())
    }

    /// Index bound the rows are sized to.
    pub fn bound(&self) -> usize {
        self.bound
    }

    /// Total number of reachable pairs.
    pub fn pair_count(&self) -> usize {
        self.rows.iter().map(BitSet::count).sum()
    }
}

/// Computes the strict transitive closure of a DAG in one
/// reverse-topological pass, or fails with a node on a cycle.
pub fn transitive_closure<N, E>(g: &DiGraph<N, E>) -> Result<Closure, CycleError> {
    let order = topo_sort(g)?;
    let bound = g.node_bound();
    let mut rows: Vec<BitSet> = (0..bound).map(|_| BitSet::new(bound)).collect();
    // Reverse topological: successors' rows are complete when used.
    for &n in order.iter().rev() {
        // Two-phase to appease the borrow checker: collect successor
        // indices first, then fold their rows in.
        let succ: Vec<NodeId> = g.successors(n).collect();
        for m in succ {
            let (a, b) = split_two(&mut rows, n.index(), m.index());
            a.union_with(b);
            a.insert(m.index());
        }
    }
    Ok(Closure { rows, bound })
}

/// Mutably borrows two distinct rows at once.
fn split_two(rows: &mut [BitSet], i: usize, j: usize) -> (&mut BitSet, &BitSet) {
    assert_ne!(i, j, "a DAG has no self-loop");
    if i < j {
        let (lo, hi) = rows.split_at_mut(j);
        (&mut lo[i], &hi[0])
    } else {
        let (lo, hi) = rows.split_at_mut(i);
        (&mut hi[0], &lo[j])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topo::tests::reaches_itself;

    #[test]
    fn chain_closure() {
        let mut g = DiGraph::new();
        let ids: Vec<_> = (0..4).map(|_| g.add_node(())).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1], ());
        }
        let c = transitive_closure(&g).unwrap();
        assert!(c.reaches(ids[0], ids[3]));
        assert!(c.reaches(ids[1], ids[2]));
        assert!(!c.reaches(ids[3], ids[0]));
        assert!(!c.reaches(ids[0], ids[0]), "strict closure excludes self");
        assert_eq!(c.pair_count(), 3 + 2 + 1);
    }

    #[test]
    fn diamond_closure() {
        let mut g = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        let d = g.add_node(());
        g.add_edge(a, b, ());
        g.add_edge(a, c, ());
        g.add_edge(b, d, ());
        g.add_edge(c, d, ());
        let cl = transitive_closure(&g).unwrap();
        assert_eq!(cl.row(a).count(), 3);
        assert!(cl.reaches(a, d));
        assert!(!cl.reaches(b, c));
    }

    #[test]
    fn cyclic_graph_fails_with_a_node_on_the_cycle() {
        // c has the smallest id but only hangs off the a ⇄ b cycle.
        let mut g = DiGraph::new();
        let c = g.add_node(());
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, ());
        g.add_edge(b, a, ());
        g.add_edge(a, c, ());
        let on_cycle = transitive_closure(&g).unwrap_err().on_cycle;
        assert!(on_cycle == a || on_cycle == b, "{on_cycle:?}");
        assert!(reaches_itself(&g, on_cycle));
    }

    #[test]
    fn self_loop() {
        let mut g = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, a, ());
        g.add_edge(a, b, ());
        let on_cycle = transitive_closure(&g).unwrap_err().on_cycle;
        assert_eq!(on_cycle, a);
        assert!(reaches_itself(&g, on_cycle));
    }

    #[test]
    fn parallel_edges_equivalent_to_single() {
        let mut g = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, ());
        g.add_edge(a, b, ());
        let c = transitive_closure(&g).unwrap();
        assert!(c.reaches(a, b));
        assert_eq!(c.pair_count(), 1);
    }

    #[test]
    fn closure_with_tombstones() {
        let mut g = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, b, ());
        g.add_edge(b, c, ());
        g.remove_node(b);
        g.add_edge(a, c, ());
        let cl = transitive_closure(&g).unwrap();
        assert!(cl.reaches(a, c));
        assert_eq!(cl.pair_count(), 1);
    }
}
