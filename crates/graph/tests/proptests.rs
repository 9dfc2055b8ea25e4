//! Property-based tests over the graph substrate's core invariants,
//! driven by the in-repo deterministic PRNG.

use dscweaver_graph::annotated::Dnf;
use dscweaver_graph::{
    annotated_closure, max_antichain, topo_sort, transitive_closure, DiGraph, DnfPool, EdgeId,
    NodeId,
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

/// An independent adjacency-list model of [`DiGraph`]: per live node its
/// weight and out/in edge lists in insertion order, per live edge its
/// endpoints and weight.
#[derive(Default)]
struct Model {
    nodes: Vec<Option<u32>>,
    out: Vec<Vec<EdgeId>>,
    inc: Vec<Vec<EdgeId>>,
    edges: Vec<Option<(NodeId, NodeId, u32)>>,
}

impl Model {
    fn add_node(&mut self, w: u32) -> NodeId {
        self.nodes.push(Some(w));
        self.out.push(Vec::new());
        self.inc.push(Vec::new());
        NodeId(self.nodes.len() as u32 - 1)
    }

    fn add_edge(&mut self, a: NodeId, b: NodeId, w: u32) -> EdgeId {
        let e = EdgeId(self.edges.len() as u32);
        self.edges.push(Some((a, b, w)));
        self.out[a.index()].push(e);
        self.inc[b.index()].push(e);
        e
    }

    fn remove_edge(&mut self, e: EdgeId) -> u32 {
        let (a, b, w) = self.edges[e.index()].take().unwrap();
        self.out[a.index()].retain(|&x| x != e);
        self.inc[b.index()].retain(|&x| x != e);
        w
    }

    fn remove_node(&mut self, n: NodeId) -> u32 {
        let incident: Vec<EdgeId> =
            self.out[n.index()].iter().chain(&self.inc[n.index()]).copied().collect();
        for e in incident {
            if self.edges[e.index()].is_some() {
                self.remove_edge(e);
            }
        }
        self.nodes[n.index()].take().unwrap()
    }

    fn live_nodes(&self) -> Vec<NodeId> {
        (0..self.nodes.len())
            .filter(|&i| self.nodes[i].is_some())
            .map(|i| NodeId(i as u32))
            .collect()
    }

    fn live_edges(&self) -> Vec<EdgeId> {
        (0..self.edges.len())
            .filter(|&i| self.edges[i].is_some())
            .map(|i| EdgeId(i as u32))
            .collect()
    }

    /// The tombstone-free copy `DiGraph::compact` promises: live nodes
    /// renumbered in id order, live edges re-added in id order.
    fn compact(&self) -> Model {
        let mut m = Model::default();
        let mut map = vec![None; self.nodes.len()];
        for n in self.live_nodes() {
            map[n.index()] = Some(m.add_node(self.nodes[n.index()].unwrap()));
        }
        for e in self.live_edges() {
            let (a, b, w) = self.edges[e.index()].unwrap();
            m.add_edge(map[a.index()].unwrap(), map[b.index()].unwrap(), w);
        }
        m
    }
}

/// Asserts `g` and `m` agree on every query of the public API.
fn assert_graph_matches(g: &DiGraph<u32, u32>, m: &Model, ctx: &str) {
    let live = m.live_nodes();
    assert_eq!(g.node_bound(), m.nodes.len(), "{ctx}");
    assert_eq!(g.edge_bound(), m.edges.len(), "{ctx}");
    assert_eq!(g.node_count(), live.len(), "{ctx}");
    assert_eq!(g.edge_count(), m.live_edges().len(), "{ctx}");
    assert_eq!(g.node_ids().collect::<Vec<_>>(), live, "{ctx}");
    assert_eq!(g.edge_ids().collect::<Vec<_>>(), m.live_edges(), "{ctx}");
    let edges: Vec<(EdgeId, NodeId, NodeId, u32)> =
        g.edges().map(|(e, a, b, &w)| (e, a, b, w)).collect();
    let want: Vec<(EdgeId, NodeId, NodeId, u32)> = m
        .live_edges()
        .into_iter()
        .map(|e| {
            let (a, b, w) = m.edges[e.index()].unwrap();
            (e, a, b, w)
        })
        .collect();
    assert_eq!(edges, want, "{ctx}");
    for i in 0..m.nodes.len() {
        assert_eq!(g.contains_node(NodeId(i as u32)), m.nodes[i].is_some(), "{ctx}");
    }
    for &n in &live {
        let (out, inc) = (&m.out[n.index()], &m.inc[n.index()]);
        assert_eq!(*g.weight(n), m.nodes[n.index()].unwrap(), "{ctx}: {n:?}");
        assert_eq!(&g.out_edges(n).collect::<Vec<_>>(), out, "{ctx}: out {n:?}");
        assert_eq!(&g.in_edges(n).collect::<Vec<_>>(), inc, "{ctx}: in {n:?}");
        let succ: Vec<NodeId> = out.iter().map(|e| m.edges[e.index()].unwrap().1).collect();
        let pred: Vec<NodeId> = inc.iter().map(|e| m.edges[e.index()].unwrap().0).collect();
        assert_eq!(g.successors(n).collect::<Vec<_>>(), succ, "{ctx}: {n:?}");
        assert_eq!(g.predecessors(n).collect::<Vec<_>>(), pred, "{ctx}: {n:?}");
        assert_eq!(g.out_degree(n), out.len(), "{ctx}: {n:?}");
        assert_eq!(g.in_degree(n), inc.len(), "{ctx}: {n:?}");
        for &t in &live {
            let first = out.iter().copied().find(|e| m.edges[e.index()].unwrap().1 == t);
            assert_eq!(g.find_edge(n, t), first, "{ctx}: {n:?} -> {t:?}");
            assert_eq!(g.has_edge(n, t), first.is_some(), "{ctx}: {n:?} -> {t:?}");
        }
    }
    for e in m.live_edges() {
        let (a, b, w) = m.edges[e.index()].unwrap();
        assert_eq!(g.endpoints(e), (a, b), "{ctx}: {e:?}");
        assert_eq!(*g.edge_weight(e), w, "{ctx}: {e:?}");
    }
}

/// Random sequences of node/edge insertions (parallel edges and
/// self-loops included) and removals keep `DiGraph` equal to the
/// adjacency-list model after every step, and its `compact` and `map`
/// copies equal the model's.
#[test]
fn digraph_matches_adjacency_list_model() {
    let mut rng = Rng::seed_from_u64(0xD16A);
    for case in 0..96 {
        let mut g: DiGraph<u32, u32> = DiGraph::new();
        let mut m = Model::default();
        let mut weight = 0u32;
        for step in 0..rng.random_range(120) {
            weight += 1;
            let ctx = format!("case {case} step {step}");
            let live = m.live_nodes();
            let edges = m.live_edges();
            match rng.random_range(10) {
                0..=1 => assert_eq!(g.add_node(weight), m.add_node(weight), "{ctx}"),
                2..=5 if !live.is_empty() => {
                    let a = *rng.choose(&live).unwrap();
                    let b = match rng.random_range(4) {
                        // A self-loop, or a parallel copy of an out-edge.
                        0 => a,
                        1 => m.out[a.index()]
                            .first()
                            .map_or(a, |e| m.edges[e.index()].unwrap().1),
                        _ => *rng.choose(&live).unwrap(),
                    };
                    assert_eq!(g.add_edge(a, b, weight), m.add_edge(a, b, weight), "{ctx}");
                }
                6..=7 if !edges.is_empty() => {
                    let e = *rng.choose(&edges).unwrap();
                    assert_eq!(g.remove_edge(e), m.remove_edge(e), "{ctx}");
                }
                8 if !live.is_empty() => {
                    let n = *rng.choose(&live).unwrap();
                    assert_eq!(g.remove_node(n), m.remove_node(n), "{ctx}");
                }
                _ => {}
            }
            assert_graph_matches(&g, &m, &ctx);
        }
        let ctx = format!("case {case}");
        let (c, map) = g.compact();
        assert_graph_matches(&c, &m.compact(), &format!("{ctx}: compact"));
        let mut next = 0u32;
        for (i, slot) in m.nodes.iter().enumerate() {
            let want = slot.map(|_| {
                next += 1;
                NodeId(next - 1)
            });
            assert_eq!(map[i], want, "{ctx}: compact map");
        }
        let mapped = g.map(
            |n, &w| {
                assert_eq!(m.nodes[n.index()], Some(w), "{ctx}: map node");
                w
            },
            |e, &w| {
                assert_eq!(m.edges[e.index()].unwrap().2, w, "{ctx}: map edge");
                w
            },
        );
        assert_graph_matches(&mapped, &m, &format!("{ctx}: map"));
    }
}
