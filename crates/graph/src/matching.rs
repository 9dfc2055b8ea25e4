//! Bipartite matching (Hopcroft–Karp) and the exact maximum antichain of a
//! DAG via Dilworth's theorem.
//!
//! The maximum antichain of a dependency DAG is the exact peak concurrency a
//! scheduler with unlimited workers can exploit; the benches report it when
//! comparing the optimized and construct-based schedules (experiment
//! Ext-D).

use crate::bitset::BitSet;
use crate::closure::transitive_closure;
use crate::digraph::{DiGraph, NodeId};
use crate::topo::CycleError;
use std::collections::VecDeque;

/// A maximum-cardinality matching in a bipartite graph given as adjacency
/// lists `adj[l] = right neighbors of left vertex l`.
///
/// Returns `match_l[l] = Some(r)` pairs; unmatched vertices map to `None`.
pub fn hopcroft_karp(n_left: usize, n_right: usize, adj: &[Vec<usize>]) -> Vec<Option<usize>> {
    assert_eq!(adj.len(), n_left);
    const INF: u32 = u32::MAX;
    let mut match_l: Vec<Option<usize>> = vec![None; n_left];
    let mut match_r: Vec<Option<usize>> = vec![None; n_right];
    let mut dist: Vec<u32> = vec![INF; n_left];

    loop {
        // BFS phase: layer free left vertices.
        let mut queue = VecDeque::new();
        for (l, m) in match_l.iter().enumerate() {
            if m.is_none() {
                dist[l] = 0;
                queue.push_back(l);
            } else {
                dist[l] = INF;
            }
        }
        let mut found_augmenting = false;
        while let Some(l) = queue.pop_front() {
            for &r in &adj[l] {
                match match_r[r] {
                    None => found_augmenting = true,
                    Some(l2) => {
                        if dist[l2] == INF {
                            dist[l2] = dist[l] + 1;
                            queue.push_back(l2);
                        }
                    }
                }
            }
        }
        if !found_augmenting {
            break;
        }
        // DFS phase: find vertex-disjoint shortest augmenting paths.
        fn try_augment(
            l: usize,
            adj: &[Vec<usize>],
            dist: &mut [u32],
            match_l: &mut [Option<usize>],
            match_r: &mut [Option<usize>],
        ) -> bool {
            for i in 0..adj[l].len() {
                let r = adj[l][i];
                let ok = match match_r[r] {
                    None => true,
                    Some(l2) => {
                        dist[l2] == dist[l] + 1
                            && try_augment(l2, adj, dist, match_l, match_r)
                    }
                };
                if ok {
                    match_l[l] = Some(r);
                    match_r[r] = Some(l);
                    return true;
                }
            }
            dist[l] = u32::MAX;
            false
        }
        for l in 0..n_left {
            if match_l[l].is_none() {
                try_augment(l, adj, &mut dist, &mut match_l, &mut match_r);
            }
        }
    }
    match_l
}

/// The exact maximum antichain of a DAG (Dilworth / Fulkerson): the minimum
/// number of chains covering the *comparability* order equals `n - M` where
/// `M` is a maximum matching in the split bipartite graph over the
/// transitive closure; the maximum antichain size equals that chain count.
///
/// Also returns one concrete antichain (a maximum independent set of the
/// comparability relation, recovered via König's theorem).
pub fn max_antichain<N, E>(g: &DiGraph<N, E>) -> Result<(usize, Vec<NodeId>), CycleError> {
    let closure = transitive_closure(g)?;
    let nodes: Vec<NodeId> = g.node_ids().collect();
    let n = nodes.len();
    let mut pos: Vec<usize> = vec![usize::MAX; g.node_bound()];
    for (i, &nd) in nodes.iter().enumerate() {
        pos[nd.index()] = i;
    }
    // Left copy i connects to right copy j iff i strictly reaches j.
    let adj: Vec<Vec<usize>> = nodes
        .iter()
        .map(|&a| {
            closure
                .row(a)
                .iter()
                .filter(|&t| pos[t] != usize::MAX)
                .map(|t| pos[t])
                .collect()
        })
        .collect();
    let match_l = hopcroft_karp(n, n, &adj);
    let matched = match_l.iter().flatten().count();
    let width = n - matched;

    // König: minimum vertex cover = Z-construction; the antichain is the
    // complement, intersected per Dilworth's correspondence.
    let mut match_r: Vec<Option<usize>> = vec![None; n];
    for (l, r) in match_l.iter().enumerate() {
        if let Some(r) = r {
            match_r[*r] = Some(l);
        }
    }
    // Z = free left vertices plus everything alternating-reachable.
    let mut z_l = BitSet::new(n);
    let mut z_r = BitSet::new(n);
    let mut queue: VecDeque<usize> = VecDeque::new();
    for (l, m) in match_l.iter().enumerate() {
        if m.is_none() {
            z_l.insert(l);
            queue.push_back(l);
        }
    }
    while let Some(l) = queue.pop_front() {
        for &r in &adj[l] {
            if Some(r) == match_l[l] {
                continue; // only non-matching edges L→R
            }
            if !z_r.contains(r) {
                z_r.insert(r);
                if let Some(l2) = match_r[r] {
                    if !z_l.contains(l2) {
                        z_l.insert(l2);
                        queue.push_back(l2);
                    }
                }
            }
        }
    }
    // Vertex cover = (L \ Z_L) ∪ (R ∩ Z_R). A node is in the antichain iff
    // neither of its copies is in the cover.
    let antichain: Vec<NodeId> = (0..n)
        .filter(|&i| z_l.contains(i) && !z_r.contains(i))
        .map(|i| nodes[i])
        .collect();
    debug_assert_eq!(antichain.len(), width, "König recovery size mismatch");
    Ok((width, antichain))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hopcroft_karp_perfect() {
        // 3x3 with a perfect matching.
        let adj = vec![vec![0, 1], vec![0], vec![2]];
        let m = hopcroft_karp(3, 3, &adj);
        assert_eq!(m.iter().flatten().count(), 3);
        assert_eq!(m[1], Some(0));
        assert_eq!(m[0], Some(1));
        assert_eq!(m[2], Some(2));
    }

    #[test]
    fn hopcroft_karp_partial() {
        // Two lefts both only liking right 0.
        let adj = vec![vec![0], vec![0]];
        let m = hopcroft_karp(2, 1, &adj);
        assert_eq!(m.iter().flatten().count(), 1);
    }

    #[test]
    fn antichain_of_chain_is_one() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let ids: Vec<_> = (0..5).map(|_| g.add_node(())).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1], ());
        }
        let (w, ac) = max_antichain(&g).unwrap();
        assert_eq!(w, 1);
        assert_eq!(ac.len(), 1);
    }

    #[test]
    fn antichain_of_independent_set_is_n() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        for _ in 0..7 {
            g.add_node(());
        }
        let (w, ac) = max_antichain(&g).unwrap();
        assert_eq!(w, 7);
        assert_eq!(ac.len(), 7);
    }

    #[test]
    fn antichain_diamond_is_two() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        let d = g.add_node(());
        g.add_edge(a, b, ());
        g.add_edge(a, c, ());
        g.add_edge(b, d, ());
        g.add_edge(c, d, ());
        let (w, ac) = max_antichain(&g).unwrap();
        assert_eq!(w, 2);
        assert_eq!(ac, vec![b, c]);
    }

    #[test]
    fn antichain_exceeds_layer_width() {
        // Staircase where the max antichain spans two layers:
        // a→b, c (isolated at layer 0), b has layer 1. Antichain {b, c}... use
        // a case where layer width underestimates: a→b→c and d→c: layers are
        // {a,d}, {b}, {c}: width 2; antichain {b, d} also 2. Construct a
        // sharper case: two chains of different length sharing the sink.
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        let d = g.add_node(());
        let e = g.add_node(());
        // chain a→b→e, chain c→d→e plus cross edge a→d.
        g.add_edge(a, b, ());
        g.add_edge(b, e, ());
        g.add_edge(c, d, ());
        g.add_edge(d, e, ());
        g.add_edge(a, d, ());
        let (w, ac) = max_antichain(&g).unwrap();
        assert_eq!(w, 2);
        for &x in &ac {
            for &y in &ac {
                if x != y {
                    let cl = transitive_closure(&g).unwrap();
                    assert!(!cl.reaches(x, y) && !cl.reaches(y, x));
                }
            }
        }
    }

    #[test]
    fn antichain_is_independent() {
        // Deterministic pseudo-random DAG; verify the recovered antichain is
        // pairwise incomparable and matches the reported width.
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let ids: Vec<_> = (0..20).map(|_| g.add_node(())).collect();
        let mut x: u64 = 42;
        let mut rnd = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for i in 0..20usize {
            for j in (i + 1)..20 {
                if rnd() % 4 == 0 {
                    g.add_edge(ids[i], ids[j], ());
                }
            }
        }
        let (w, ac) = max_antichain(&g).unwrap();
        assert_eq!(w, ac.len());
        let cl = transitive_closure(&g).unwrap();
        for &a in &ac {
            for &b in &ac {
                if a != b {
                    assert!(!cl.reaches(a, b));
                }
            }
        }
    }

    #[test]
    fn cyclic_rejected() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, ());
        g.add_edge(b, a, ());
        assert!(max_antichain(&g).is_err());
    }
}
