//! Property-based tests over the graph substrate's core invariants,
//! driven by the in-repo deterministic PRNG.

use dscweaver_graph::annotated::Dnf;
use dscweaver_graph::{
    annotated_closure, max_antichain, topo_sort, transitive_closure, DiGraph, DnfPool, NodeId,
};
use dscweaver_prng::Rng;

/// A random DAG over up to `max_n` nodes: edges always go from lower to
/// higher index, so acyclicity holds by construction.
fn random_dag(rng: &mut Rng, max_n: usize, density: f64) -> DiGraph<(), ()> {
    let n = 2 + rng.random_range(max_n - 2);
    let mut g = DiGraph::new();
    let ids: Vec<NodeId> = (0..n).map(|_| g.add_node(())).collect();
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.random_bool(density) {
                g.add_edge(ids[i], ids[j], ());
            }
        }
    }
    g
}

/// A random directed graph that may contain cycles, self-loops, and
/// parallel edges.
fn random_digraph(rng: &mut Rng, max_n: usize) -> DiGraph<(), ()> {
    let n = 2 + rng.random_range(max_n - 2);
    let mut g = DiGraph::new();
    let ids: Vec<NodeId> = (0..n).map(|_| g.add_node(())).collect();
    let m = rng.random_range(n * 3 + 1);
    for _ in 0..m {
        let i = rng.random_range(n);
        let j = rng.random_range(n);
        g.add_edge(ids[i], ids[j], ());
    }
    g
}

/// Topological order respects every edge.
#[test]
fn topo_respects_edges() {
    let mut rng = Rng::seed_from_u64(0xB003);
    for case in 0..64 {
        let g = random_dag(&mut rng, 16, 0.5);
        let order = topo_sort(&g).unwrap();
        let mut pos = vec![usize::MAX; g.node_bound()];
        for (i, &n) in order.iter().enumerate() {
            pos[n.index()] = i;
        }
        for (_, a, b, _) in g.edges() {
            assert!(pos[a.index()] < pos[b.index()], "case {case}");
        }
    }
}

/// The closure relation is transitive and contains every edge.
#[test]
fn closure_transitivity() {
    let mut rng = Rng::seed_from_u64(0xB004);
    for case in 0..64 {
        let g = random_dag(&mut rng, 10, 0.3);
        let c = transitive_closure(&g).unwrap();
        let n: Vec<NodeId> = g.node_ids().collect();
        for &a in &n {
            for &b in &n {
                for &d in &n {
                    if c.reaches(a, b) && c.reaches(b, d) {
                        assert!(c.reaches(a, d), "case {case}: {a:?}->{b:?}->{d:?}");
                    }
                }
            }
        }
        // And every edge is in the closure.
        for (_, a, b, _) in g.edges() {
            assert!(c.reaches(a, b), "case {case}");
        }
    }
}

/// Nodes strictly reachable from `src` (`src` itself only when a cycle
/// leads back to it), by a brute-force DFS over out-edges.
fn dfs_reach(g: &DiGraph<(), ()>, src: NodeId) -> Vec<bool> {
    let mut reach = vec![false; g.node_bound()];
    let mut stack: Vec<NodeId> = g.successors(src).collect();
    while let Some(x) = stack.pop() {
        if reach[x.index()] {
            continue;
        }
        reach[x.index()] = true;
        stack.extend(g.successors(x));
    }
    reach
}

/// On a DAG the closure agrees with a brute-force per-node DFS
/// reachability oracle; on a cyclic graph it fails with a node that
/// reaches itself.
#[test]
fn closure_matches_dfs_oracle_and_rejects_cycles() {
    let mut rng = Rng::seed_from_u64(0xB005);
    let (mut dags, mut cyclic) = (0, 0);
    for case in 0..96 {
        let g = if case % 2 == 0 {
            random_dag(&mut rng, 12, 0.3)
        } else {
            random_digraph(&mut rng, 12)
        };
        match transitive_closure(&g) {
            Ok(c) => {
                dags += 1;
                for src in g.node_ids() {
                    let reach = dfs_reach(&g, src);
                    for t in g.node_ids() {
                        let want = reach[t.index()];
                        assert_eq!(c.reaches(src, t), want, "case {case}: {src:?} -> {t:?}");
                    }
                }
            }
            Err(e) => {
                cyclic += 1;
                assert!(
                    dfs_reach(&g, e.on_cycle)[e.on_cycle.index()],
                    "case {case}: {e}"
                );
            }
        }
    }
    assert!(
        dags >= 48 && cyclic > 24,
        "{dags} DAGs, {cyclic} cyclic graphs"
    );
}

/// The node count of the most populous layer, each node on the layer
/// `1 + max(layer of its predecessors)` (sources on layer 0).
fn max_layer_width(g: &DiGraph<(), ()>) -> usize {
    let mut layer = vec![0usize; g.node_bound()];
    let mut width = vec![0usize; g.node_bound() + 1];
    for n in topo_sort(g).unwrap() {
        for m in g.successors(n) {
            layer[m.index()] = layer[m.index()].max(layer[n.index()] + 1);
        }
        width[layer[n.index()]] += 1;
    }
    width.into_iter().max().unwrap_or(0)
}

/// Max antichain is at least the layer width and at most n.
#[test]
fn antichain_bounds() {
    let mut rng = Rng::seed_from_u64(0xB006);
    for case in 0..48 {
        let g = random_dag(&mut rng, 10, 0.5);
        let (w, ac) = max_antichain(&g).unwrap();
        let lw = max_layer_width(&g);
        assert!(w >= lw, "case {case}: antichain {w} < layer width {lw}");
        assert!(w <= g.node_count());
        assert_eq!(ac.len(), w);
        let c = transitive_closure(&g).unwrap();
        for &a in &ac {
            for &b in &ac {
                if a != b {
                    assert!(!c.reaches(a, b), "case {case}");
                }
            }
        }
    }
}

/// The unconditional annotated closure agrees with the plain closure.
#[test]
fn annotated_matches_plain_when_unconditional() {
    let mut rng = Rng::seed_from_u64(0xB007);
    for case in 0..48 {
        let g = random_dag(&mut rng, 12, 0.5);
        let plain = transitive_closure(&g).unwrap();
        let ann = annotated_closure::<_, _, u32>(&g, &|_, _: &()| None).unwrap();
        for n in g.node_ids() {
            let plain_targets: Vec<usize> = plain.row(n).iter().collect();
            let ann_targets: Vec<usize> =
                ann.row(n).iter().map(|(t, _)| t.index()).collect();
            assert_eq!(plain_targets, ann_targets, "case {case}");
            for (_, dnf) in ann.row(n).iter() {
                assert!(dnf.is_always(), "case {case}");
            }
        }
    }
}

/// Interning is faithful: for arbitrary DNFs, pool-id equality coincides
/// exactly with structural equality, and the pool's memoized union / and /
/// compose agree with the structural operations they cache.
#[test]
fn interned_ids_agree_with_structural_equality() {
    let mut rng = Rng::seed_from_u64(0xB009);
    let random_dnf = |rng: &mut Rng| -> Dnf<u8> {
        let mut d: Dnf<u8> = Dnf::empty();
        for _ in 0..rng.random_range(5) {
            let t: Vec<u8> = (0..rng.random_range(3))
                .map(|_| rng.random_range(4) as u8)
                .collect();
            d.insert(t);
        }
        d
    };
    for case in 0..64 {
        let mut pool: DnfPool<u8> = DnfPool::new();
        let dnfs: Vec<Dnf<u8>> = (0..12).map(|_| random_dnf(&mut rng)).collect();
        let ids: Vec<_> = dnfs.iter().map(|d| pool.intern(d)).collect();
        for i in 0..dnfs.len() {
            assert_eq!(pool.dnf(ids[i]), &dnfs[i], "case {case}: resolution");
            for j in 0..dnfs.len() {
                assert_eq!(
                    ids[i] == ids[j],
                    dnfs[i] == dnfs[j],
                    "case {case}: id equality must be structural equality ({i}, {j})"
                );
            }
        }
        // Pooled operations equal their structural counterparts.
        for _ in 0..16 {
            let i = rng.random_range(dnfs.len());
            let j = rng.random_range(dnfs.len());
            let mut u = dnfs[i].clone();
            u.union_with(&dnfs[j]);
            let uid = pool.union(ids[i], ids[j]);
            assert_eq!(pool.dnf(uid), &u, "case {case}: union");

            let guard = rng.random_range(4) as u8;
            let mut c = Dnf::empty();
            dnfs[i].compose_into(Some(&guard), &mut c);
            let cid = pool.compose(ids[i], Some(&guard));
            assert_eq!(pool.dnf(cid), &c, "case {case}: compose");
        }
    }
}

/// DNF insert keeps a minimal antichain: no term is a subset of another.
#[test]
fn dnf_antichain_invariant() {
    let mut rng = Rng::seed_from_u64(0xB008);
    for case in 0..256 {
        let mut d: Dnf<u8> = Dnf::empty();
        for _ in 0..rng.random_range(12) {
            let t: Vec<u8> = (0..rng.random_range(4))
                .map(|_| rng.random_range(6) as u8)
                .collect();
            d.insert(t);
        }
        let terms = d.terms();
        for (i, a) in terms.iter().enumerate() {
            for (j, b) in terms.iter().enumerate() {
                if i != j {
                    let subset = a.iter().all(|x| b.contains(x));
                    assert!(!subset, "case {case}: {a:?} ⊆ {b:?}");
                }
            }
        }
    }
}
