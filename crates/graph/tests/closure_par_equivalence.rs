//! Equivalence of the interned closure engine (`iclosure`) against the
//! structural `annotated_closure` reference: row-for-row identical
//! results across DAG shapes (layered, fork-join, dense-conditional) and
//! the `ALWAYS`-as-bits row invariant. Every closure builder refuses
//! cyclic inputs.

use dscweaver_graph::annotated::Dnf;
use dscweaver_graph::{
    annotated_closure, interned_closure, transitive_closure, AnnotatedClosure, DiGraph, DnfId,
    DnfPool, IRows, NodeId,
};
use dscweaver_prng::Rng;

type G = DiGraph<(), Option<u8>>;

fn guard(rng: &mut Rng, guards: u8, p: f64) -> Option<u8> {
    if rng.random_bool(p) {
        Some(rng.random_range(guards as usize) as u8)
    } else {
        None
    }
}

/// Wide layered DAG with skip edges two layers down.
fn layered(rng: &mut Rng, width: usize, depth: usize, guards: u8) -> G {
    let mut g = DiGraph::new();
    let layers: Vec<Vec<NodeId>> = (0..depth)
        .map(|_| (0..width).map(|_| g.add_node(())).collect())
        .collect();
    for d in 0..depth - 1 {
        for &a in &layers[d] {
            for &b in &layers[d + 1] {
                if rng.random_bool(0.4) {
                    g.add_edge(a, b, guard(rng, guards, 0.5));
                }
            }
            if d + 2 < depth && rng.random_bool(0.3) {
                let b = layers[d + 2][rng.random_range(width)];
                g.add_edge(a, b, guard(rng, guards, 0.9));
            }
        }
    }
    g
}

/// Entry node fanning out to parallel chains that re-join at an exit
/// node; fork edges are guarded by branch.
fn fork_join(rng: &mut Rng, width: usize, chain_len: usize, guards: u8) -> G {
    let mut g = DiGraph::new();
    let entry = g.add_node(());
    let exit = g.add_node(());
    for b in 0..width {
        let mut prev = entry;
        for i in 0..chain_len {
            let n = g.add_node(());
            let w = if i == 0 {
                Some(b as u8 % guards)
            } else {
                guard(rng, guards, 0.3)
            };
            g.add_edge(prev, n, w);
            prev = n;
        }
        g.add_edge(prev, exit, None);
    }
    g
}

/// Dense DAG (edges from lower to higher index) where almost every edge
/// carries a guard — maximal annotation churn per row.
fn dense_conditional(rng: &mut Rng, n: usize, guards: u8) -> G {
    let mut g = DiGraph::new();
    let ids: Vec<NodeId> = (0..n).map(|_| g.add_node(())).collect();
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.random_bool(0.6) {
                g.add_edge(ids[i], ids[j], guard(rng, guards, 0.9));
            }
        }
    }
    g
}

/// Arbitrary digraph guaranteed cyclic (the first two nodes always form
/// a 2-cycle).
fn cyclic(rng: &mut Rng, n: usize, guards: u8) -> G {
    let mut g = DiGraph::new();
    let ids: Vec<NodeId> = (0..n).map(|_| g.add_node(())).collect();
    g.add_edge(ids[0], ids[1], None);
    g.add_edge(ids[1], ids[0], guard(rng, guards, 0.5));
    for _ in 0..n * 3 {
        let i = rng.random_range(n);
        let j = rng.random_range(n);
        g.add_edge(ids[i], ids[j], guard(rng, guards, 0.4));
    }
    g
}

/// Every DAG shape the suite sweeps, regenerated per seed.
fn dag_shapes(seed: u64) -> Vec<(&'static str, G)> {
    let mut rng = Rng::seed_from_u64(seed);
    vec![
        ("layered", layered(&mut rng, 10, 6, 3)),
        ("fork_join", fork_join(&mut rng, 12, 5, 3)),
        ("dense_conditional", dense_conditional(&mut rng, 28, 4)),
    ]
}

/// Asserts the interned rows, resolved back to structural DNFs, match the
/// reference closure entry-for-entry on every live node.
fn assert_rows_match(g: &G, rows: &IRows, pool: &DnfPool<u8>, ann: &AnnotatedClosure<u8>, ctx: &str) {
    for n in g.node_ids() {
        let want: Vec<(usize, Dnf<u8>)> =
            ann.row(n).iter().map(|(t, d)| (t.index(), d.clone())).collect();
        let got: Vec<(usize, Dnf<u8>)> = rows
            .row(n.index())
            .iter()
            .map(|(t, id)| (t as usize, pool.dnf(id).clone()))
            .collect();
        assert_eq!(got, want, "{ctx}: node {n:?}");
    }
}

/// The interned closure resolves to exactly the structural
/// `annotated_closure` rows.
#[test]
fn interned_rows_match_structural_reference_on_every_shape() {
    for seed in [11u64, 47, 0xD5C] {
        for (shape, g) in dag_shapes(seed) {
            let ann = annotated_closure(&g, &|_, w: &Option<u8>| *w).unwrap();
            let mut pool: DnfPool<u8> = DnfPool::new();
            let (rows, stats) = interned_closure(&g, &|_, w: &Option<u8>| *w, &mut pool).unwrap();
            assert_rows_match(&g, &rows, &pool, &ann, &format!("{shape}/{seed}"));
            assert_eq!(stats.rows, g.node_count(), "{shape}/{seed}");
            assert!(stats.levels > 0, "{shape}/{seed}");
        }
    }
}

/// Cyclic inputs: every closure builder reports the cycle, the bitset
/// `transitive_closure` with a node that reaches itself.
#[test]
fn cyclic_inputs_are_refused_by_every_closure_builder() {
    for seed in [7u64, 19, 0xC1C] {
        let mut rng = Rng::seed_from_u64(seed);
        let g = cyclic(&mut rng, 12, 3);
        assert!(annotated_closure(&g, &|_, w: &Option<u8>| *w).is_err());
        let mut pool: DnfPool<u8> = DnfPool::new();
        assert!(interned_closure(&g, &|_, w: &Option<u8>| *w, &mut pool).is_err());
        let on_cycle = transitive_closure(&g).unwrap_err().on_cycle;
        let mut seen = vec![false; g.node_bound()];
        let mut stack: Vec<NodeId> = g.successors(on_cycle).collect();
        while let Some(n) = stack.pop() {
            if !std::mem::replace(&mut seen[n.index()], true) {
                stack.extend(g.successors(n));
            }
        }
        assert!(
            seen[on_cycle.index()],
            "cyclic/{seed}: {on_cycle:?} is on no cycle"
        );
    }
}

/// The row invariant: a target's `uncond` bit is set iff its structural
/// annotation is `ALWAYS`, `cond` never holds the `ALWAYS` or `EMPTY` id
/// nor an `uncond` target, and `reaches` answers exactly the structural
/// row's targets.
#[test]
fn rows_keep_always_as_bits_and_only_conditional_ids_interned() {
    for seed in [5u64, 31, 0xA11] {
        for (shape, g) in dag_shapes(seed) {
            let ann = annotated_closure(&g, &|_, w: &Option<u8>| *w).unwrap();
            let ctx = format!("{shape}/{seed}");
            let mut pool: DnfPool<u8> = DnfPool::new();
            let (rows, _) = interned_closure(&g, &|_, w: &Option<u8>| *w, &mut pool).unwrap();
            for n in g.node_ids() {
                let row = rows.row(n.index());
                for t in g.node_ids() {
                    let want = ann.row(n).get(t);
                    let always = want.is_some_and(Dnf::is_always);
                    assert_eq!(row.is_always(t.index()), always, "{ctx}: {n:?} → {t:?}");
                    assert_eq!(row.reaches(t.index()), want.is_some(), "{ctx}: {n:?} → {t:?}");
                }
                for &(t, id) in row.cond() {
                    assert!(id != DnfId::ALWAYS && id != DnfId::EMPTY, "{ctx}: {n:?}");
                    assert!(!row.is_always(t as usize), "{ctx}: {n:?} lists {t} twice");
                }
            }
        }
    }
}
