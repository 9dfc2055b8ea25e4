//! Equivalence of the interned closure engine (`iclosure`) against the
//! structural `annotated_closure` reference: row-for-row identical
//! results across thread counts {1, 2, 4, 8} and DAG shapes (layered,
//! fork-join, dense-conditional), with bitwise-stable pool numbering at
//! every thread count, and the `ALWAYS`-as-bits row invariant. Cyclic
//! inputs are refused by the interned engine and solved by the structural
//! SCC condensation.

use dscweaver_graph::annotated::Dnf;
use dscweaver_graph::{
    annotated_closure, annotated_closure_condensed, interned_closure, transitive_closure,
    AnnotatedClosure, DiGraph, DnfId, DnfPool, IRow, NodeId,
};
use dscweaver_prng::Rng;

type G = DiGraph<(), Option<u8>>;

const THREADS: [usize; 4] = [1, 2, 4, 8];

fn guard(rng: &mut Rng, guards: u8, p: f64) -> Option<u8> {
    if rng.random_bool(p) {
        Some(rng.random_range(guards as usize) as u8)
    } else {
        None
    }
}

/// Wide layered DAG (layers larger than the engine's parallel threshold)
/// with skip edges two layers down.
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
/// a 2-cycle) — exercises the SCC-condensation fallback.
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
fn assert_rows_match(g: &G, rows: &[IRow], pool: &DnfPool<u8>, ann: &AnnotatedClosure<u8>, ctx: &str) {
    for n in g.node_ids() {
        let want: Vec<(usize, Dnf<u8>)> =
            ann.row(n).iter().map(|(t, d)| (t.index(), d.clone())).collect();
        let got: Vec<(usize, Dnf<u8>)> = rows[n.index()]
            .iter()
            .map(|(t, id)| (t as usize, pool.dnf(id).clone()))
            .collect();
        assert_eq!(got, want, "{ctx}: node {n:?}");
    }
}

/// At every thread count, the interned closure resolves to exactly the
/// structural `annotated_closure` rows.
#[test]
fn interned_rows_match_structural_reference_on_every_shape() {
    for seed in [11u64, 47, 0xD5C] {
        for (shape, g) in dag_shapes(seed) {
            let ann = annotated_closure(&g, &|_, w: &Option<u8>| *w).unwrap();
            for threads in THREADS {
                let mut pool: DnfPool<u8> = DnfPool::new();
                let (rows, stats) =
                    interned_closure(&g, &|_, w: &Option<u8>| *w, &mut pool, threads).unwrap();
                assert_rows_match(&g, &rows, &pool, &ann, &format!("{shape}/{seed}/t{threads}"));
                assert_eq!(stats.rows, g.node_count(), "{shape}/{seed}/t{threads}");
                assert!(stats.levels > 0, "{shape}/{seed}/t{threads}");
            }
        }
    }
}

/// Bitwise determinism: the rows AND the pool numbering are identical at
/// every thread count — not merely structurally equivalent.
#[test]
fn rows_and_pool_numbering_identical_across_thread_counts() {
    for seed in [3u64, 29, 0xBEEF] {
        for (shape, g) in dag_shapes(seed) {
            let mut pool1: DnfPool<u8> = DnfPool::new();
            let (rows1, _) =
                interned_closure(&g, &|_, w: &Option<u8>| *w, &mut pool1, 1).unwrap();
            for threads in [2usize, 4, 8] {
                let mut pool_t: DnfPool<u8> = DnfPool::new();
                let (rows_t, _) =
                    interned_closure(&g, &|_, w: &Option<u8>| *w, &mut pool_t, threads).unwrap();
                assert_eq!(rows_t, rows1, "{shape}/{seed}/t{threads}: rows diverge");
                assert_eq!(
                    pool_t.dnf_count(),
                    pool1.dnf_count(),
                    "{shape}/{seed}/t{threads}: pool size diverges"
                );
                assert_eq!(pool_t.term_count(), pool1.term_count(), "{shape}/{seed}/t{threads}");
                // Same ids resolve to the same formulas in both pools.
                for row in &rows_t {
                    for (_, id) in row.iter() {
                        assert_eq!(pool_t.dnf(id), pool1.dnf(id), "{shape}/{seed}/t{threads}");
                    }
                }
            }
        }
    }
}

/// Cyclic inputs: both DAG-only builders report the cycle, and the
/// structural condensed fallback reaches exactly what plain reachability
/// (the bitset `transitive_closure`, which shares the condensation)
/// reaches.
#[test]
fn cyclic_inputs_agree_through_the_shared_condensation() {
    for seed in [7u64, 19, 0xC1C] {
        let mut rng = Rng::seed_from_u64(seed);
        let g = cyclic(&mut rng, 12, 3);
        assert!(annotated_closure(&g, &|_, w: &Option<u8>| *w).is_err());
        {
            let mut pool: DnfPool<u8> = DnfPool::new();
            assert!(interned_closure(&g, &|_, w: &Option<u8>| *w, &mut pool, 4).is_err());
        }
        let ann = annotated_closure_condensed(&g, &|_, w: &Option<u8>| *w);
        let plain = transitive_closure(&g);
        for n in g.node_ids() {
            let got: Vec<usize> = ann.row(n).iter().map(|(t, _)| t.index()).collect();
            let want: Vec<usize> = plain.row(n).iter().collect();
            assert_eq!(got, want, "cyclic/{seed}: node {n:?}");
        }
    }
}

/// Regression for the shared-condensation bugfix: a graph mixing a cyclic
/// component with a guarded DAG tail closes correctly through the
/// condensed builder — reachability into and out of the cycle included.
#[test]
fn mixed_cycle_and_dag_tail_close_identically() {
    let mut g: G = DiGraph::new();
    let a = g.add_node(());
    let b = g.add_node(());
    let c = g.add_node(());
    let d = g.add_node(());
    let e = g.add_node(());
    g.add_edge(a, b, None);
    g.add_edge(b, a, None); // a ⇄ b: the cyclic component
    g.add_edge(b, c, Some(1)); // guarded bridge into the DAG tail
    g.add_edge(c, d, None);
    g.add_edge(c, e, Some(2));
    g.add_edge(d, e, None);

    let ann = annotated_closure_condensed(&g, &|_, w: &Option<u8>| *w);

    // Members of the cycle reach themselves unconditionally...
    for n in [a, b] {
        let (row, _) = (ann.row(n), n);
        let self_dnf = row.iter().find(|(t, _)| *t == n).map(|(_, d)| d.clone());
        assert_eq!(self_dnf, Some(Dnf::always()), "self-reach of {n:?}");
    }
    // ...and reach the tail only under the bridge guard.
    let a_to_e = ann
        .row(a)
        .iter()
        .find(|(t, _)| *t == e)
        .map(|(_, d)| d.clone())
        .expect("a reaches e");
    let mut want = Dnf::empty();
    want.insert(vec![1u8]);
    assert_eq!(a_to_e, want, "a → e must require the bridge guard");
}

/// The row invariant: a target's `uncond` bit is set iff its structural
/// annotation is `ALWAYS`, `cond` never holds the `ALWAYS` or `EMPTY` id,
/// and `reach` is exactly `uncond` plus the `cond` targets.
#[test]
fn rows_keep_always_as_bits_and_only_conditional_ids_interned() {
    for seed in [5u64, 31, 0xA11] {
        for (shape, g) in dag_shapes(seed) {
            let ann = annotated_closure(&g, &|_, w: &Option<u8>| *w).unwrap();
            for threads in THREADS {
                let ctx = format!("{shape}/{seed}/t{threads}");
                let mut pool: DnfPool<u8> = DnfPool::new();
                let (rows, _) =
                    interned_closure(&g, &|_, w: &Option<u8>| *w, &mut pool, threads).unwrap();
                for n in g.node_ids() {
                    let row = &rows[n.index()];
                    for t in g.node_ids() {
                        let always = ann.row(n).get(t).is_some_and(Dnf::is_always);
                        let bit = row.uncond().contains(t.index());
                        assert_eq!(bit, always, "{ctx}: {n:?} → {t:?}");
                    }
                    for &(_, id) in row.cond() {
                        assert!(id != DnfId::ALWAYS && id != DnfId::EMPTY, "{ctx}: {n:?}");
                    }
                    let mut reach = row.uncond().clone();
                    for &(t, _) in row.cond() {
                        assert!(!row.uncond().contains(t as usize), "{ctx}: {n:?} lists {t} twice");
                        reach.insert(t as usize);
                    }
                    assert_eq!(&reach, row.reach(), "{ctx}: {n:?}");
                }
            }
        }
    }
}
