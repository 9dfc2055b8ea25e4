//! Interned, level-parallel condition-annotated closure (Definition 3).
//!
//! [`crate::annotated::annotated_closure`] builds structural
//! [`Dnf`](crate::annotated::Dnf) rows
//! and leaves interning to the caller — every annotation is materialized,
//! cloned through `BTreeMap` accumulators, and hashed again when the
//! minimizer pools it. This module builds the same closure **directly in
//! interned form**, split by annotation kind.
//!
//! Nearly every closure entry is `ALWAYS`: a target is reached
//! unconditionally iff some path to it carries no guard (a
//! [`Dnf`](crate::annotated::Dnf) is monotone and never merges
//! complementary guards). So an [`IRow`] keeps those targets as a bitset
//! (`uncond`), built by word-wise unions over the unconditional
//! out-edges, and interns only the remaining conditional annotations as
//! a sorted `(target, DnfId)` list (`cond`). The sweep composes
//! annotations only for targets outside `uncond`; the per-row
//! accumulator is a dense scratch array instead of an ordered map. On
//! top of that, the DAG is swept level by level (longest path to a
//! sink), and wide levels fan out to the [`crate::par`] worker pool:
//! a node's row only reads rows of strictly smaller levels, so levels
//! are natural barriers.
//!
//! Workers never lock the pool. Each worker runs against a read-only
//! snapshot ([`DnfPool::peek_compose`] / [`DnfPool::peek_union`] /
//! [`DnfPool::lookup`]) and *mints* formulas the snapshot lacks into a
//! thread-local delta pool with provisional ids. The main thread merges
//! the deltas window by window in [`crate::par::par_ranges`] order, which
//! makes the global id numbering — and therefore every produced row,
//! bit for bit — identical for every thread count, including the fully
//! sequential path.
//!
//! Cyclic inputs: [`interned_closure`] mirrors `annotated_closure` and
//! returns the [`CycleError`] untouched — the optimizer treats cycles as
//! specification conflicts, so they never reach the closure.
//!
//! ```
//! use dscweaver_graph::{interned_closure, DiGraph, DnfId, DnfPool};
//!
//! // The paper's running example: a1 → a2 →_T a3 → a4.
//! let mut g: DiGraph<(), Option<(u32, bool)>> = DiGraph::new();
//! let a1 = g.add_node(());
//! let a2 = g.add_node(());
//! let a3 = g.add_node(());
//! let a4 = g.add_node(());
//! g.add_edge(a1, a2, None);
//! g.add_edge(a2, a3, Some((a2.0, true)));
//! g.add_edge(a3, a4, None);
//!
//! let mut pool = DnfPool::new();
//! let (rows, stats) = interned_closure(&g, &|_, w: &Option<(u32, bool)>| *w, &mut pool, 1)
//!     .expect("acyclic");
//! // a1+ = {a2, a3(T@a2), a4(T@a2)}: a2 unconditionally, the rest guarded.
//! let row = &rows[a1.index()];
//! assert_eq!(row.reach().count(), 3);
//! assert!(row.uncond().contains(a2.index()));
//! assert_eq!(row.get(a2.0), Some(DnfId::ALWAYS));
//! let a4_id = row.get(a4.0).unwrap();
//! assert_eq!(pool.dnf(a4_id).terms(), &[vec![(a2.0, true)]]);
//! assert_eq!(stats.rows, 4);
//! ```

use crate::annotated::GuardFn;
use crate::bitset::BitSet;
use crate::digraph::DiGraph;
use crate::intern::{DnfId, DnfPool, SnapshotOps, TermId};
use crate::par::par_ranges;
use crate::topo::{topo_sort, CycleError};
use dscweaver_obs as obs;

/// An interned closure row: the targets reached with annotation
/// `ALWAYS` (through at least one all-unconditional path) as a bitset,
/// and every other target with its interned annotation id. With all rows
/// drawn from one pool, row equality is bitwise.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct IRow {
    uncond: BitSet,
    /// `uncond` plus the targets of `cond`.
    reach: BitSet,
    /// Sorted by target, disjoint from `uncond`, never `ALWAYS`/`EMPTY`.
    cond: Vec<(u32, DnfId)>,
}

impl IRow {
    /// The row reaching nothing, for node indices `< bound`.
    pub fn empty(bound: usize) -> IRow {
        IRow::from_parts(BitSet::new(bound), Vec::new())
    }

    /// A row from its `ALWAYS` targets and its conditional entries, which
    /// must be sorted by target, lie outside `uncond`, and carry neither
    /// the `ALWAYS` nor the `EMPTY` id.
    pub fn from_parts(uncond: BitSet, cond: Vec<(u32, DnfId)>) -> IRow {
        let mut reach = uncond.clone();
        for w in cond.windows(2) {
            assert!(w[0].0 < w[1].0, "conditional entries must be sorted");
        }
        for &(t, d) in &cond {
            assert!(!reach.contains(t as usize), "target {t} is also unconditional");
            assert!(d != DnfId::ALWAYS && d != DnfId::EMPTY, "target {t} is not conditional");
            reach.insert(t as usize);
        }
        IRow { uncond, reach, cond }
    }

    /// The targets reached with annotation `ALWAYS`.
    pub fn uncond(&self) -> &BitSet {
        &self.uncond
    }

    /// Every reached target, under any annotation.
    pub fn reach(&self) -> &BitSet {
        &self.reach
    }

    /// The conditionally reached targets with their annotation ids,
    /// sorted by target.
    pub fn cond(&self) -> &[(u32, DnfId)] {
        &self.cond
    }

    /// The annotation with which `t` is reached, if reachable.
    pub fn get(&self, t: u32) -> Option<DnfId> {
        if self.uncond.contains(t as usize) {
            return Some(DnfId::ALWAYS);
        }
        self.cond
            .binary_search_by_key(&t, |&(k, _)| k)
            .ok()
            .map(|i| self.cond[i].1)
    }

    /// Every `(target, annotation id)` entry in ascending target order,
    /// `ALWAYS` entries included.
    pub fn iter(&self) -> impl Iterator<Item = (u32, DnfId)> + '_ {
        let mut cond = self.cond.iter();
        self.reach.iter().map(move |t| {
            if self.uncond.contains(t) {
                (t as u32, DnfId::ALWAYS)
            } else {
                *cond.next().expect("reach is uncond plus the cond targets")
            }
        })
    }
}

/// Build telemetry returned by the interned closure engines.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClosureStats {
    /// Rows composed (live nodes swept).
    pub rows: usize,
    /// Topological levels the sweep was batched into.
    pub levels: usize,
    /// Distinct DNFs the build added to the pool.
    pub minted: usize,
    /// Memo hits across all union/compose operations, worker-local
    /// probes included.
    pub pool_hits: u64,
    /// Memo misses (structural computations), worker-local included.
    pub pool_misses: u64,
}

/// Sentinel for "target untouched" in the dense accumulator.
const NONE: u32 = u32::MAX;

/// Minimum level width before the sweep fans out to worker threads —
/// below this the scope setup costs more than the rows.
const PAR_LEVEL_MIN: usize = 8;

/// Reusable dense accumulator for composing one row: `acc[t]` holds the
/// running annotation id of target `t` (or an internal sentinel), and
/// `touched` remembers which slots to harvest and reset. Allocate once
/// per thread, reuse for every row.
pub struct RowScratch {
    acc: Vec<u32>,
    touched: Vec<u32>,
}

impl RowScratch {
    /// A scratch sized for node indices `< bound`.
    pub fn new(bound: usize) -> Self {
        RowScratch {
            acc: vec![NONE; bound],
            touched: Vec::new(),
        }
    }
}

/// Id-level DNF operations a row composition needs. Implemented by the
/// owning-pool path (sequential) and the read-only snapshot path (workers).
trait IdOps<G> {
    fn compose(&mut self, a: DnfId, t: Option<TermId>) -> DnfId;
    fn union(&mut self, a: DnfId, b: DnfId) -> DnfId;
}

struct MainOps<'p, G> {
    pool: &'p mut DnfPool<G>,
}

impl<G: Ord + Clone + std::hash::Hash> IdOps<G> for MainOps<'_, G> {
    #[inline]
    fn compose(&mut self, a: DnfId, t: Option<TermId>) -> DnfId {
        match t {
            None => a,
            Some(t) => self.pool.compose_term(a, t),
        }
    }

    #[inline]
    fn union(&mut self, a: DnfId, b: DnfId) -> DnfId {
        self.pool.union(a, b)
    }
}

/// Worker-side ops against a read-only pool snapshot — now the
/// first-class [`SnapshotOps`] overlay from [`crate::intern`]: formulas
/// the snapshot lacks are minted with provisional ids `>= base`, and the
/// main thread re-interns them in discovery order
/// ([`DnfPool::absorb`]), which keeps the global numbering identical to
/// the sequential sweep.
impl<G: Ord + Clone + std::hash::Hash> IdOps<G> for SnapshotOps<'_, G> {
    #[inline]
    fn compose(&mut self, a: DnfId, t: Option<TermId>) -> DnfId {
        SnapshotOps::compose(self, a, t)
    }

    #[inline]
    fn union(&mut self, a: DnfId, b: DnfId) -> DnfId {
        SnapshotOps::union(self, a, b)
    }
}

impl RowScratch {
    /// `acc[t] ∪= d` with a dense slot per target.
    #[inline]
    fn upsert<G, O: IdOps<G>>(&mut self, ops: &mut O, t: u32, d: DnfId) {
        let slot = &mut self.acc[t as usize];
        if *slot == NONE {
            *slot = d.0;
            self.touched.push(t);
        } else if *slot != d.0 {
            *slot = ops.union(DnfId(*slot), d).0;
        }
    }

    /// Harvests the accumulated entries (sorted by target) and resets the
    /// touched slots for reuse.
    fn harvest(&mut self) -> Vec<(u32, DnfId)> {
        self.touched.sort_unstable();
        let cond: Vec<(u32, DnfId)> = self
            .touched
            .iter()
            .map(|&t| (t, DnfId(self.acc[t as usize])))
            .collect();
        for &t in &self.touched {
            self.acc[t as usize] = NONE;
        }
        self.touched.clear();
        cond
    }
}

/// One out-edge as the sweep composes it: `(target index, direct-edge
/// annotation id, guard term id if conditional)`. The direct id and the
/// term are interned up front on the main thread, so the hot loop never
/// hashes a guard value.
pub type AdjEdge = (u32, DnfId, Option<TermId>);

/// Per-node out-edge views.
type Adj = Vec<Vec<AdjEdge>>;

/// Pre-interns every edge guard (deterministic node/edge order) and
/// builds the per-node adjacency view.
fn build_adj<N, E, G: Ord + Clone + std::hash::Hash>(
    g: &DiGraph<N, E>,
    guard_of: &impl GuardFn<E, G>,
    pool: &mut DnfPool<G>,
) -> Adj {
    let mut adj: Adj = vec![Vec::new(); g.node_bound()];
    for n in g.node_ids() {
        let out = &mut adj[n.index()];
        for e in g.out_edges(n) {
            let (_, m) = g.endpoints(e);
            match guard_of.guard(e, g.edge_weight(e)) {
                None => out.push((m.0, DnfPool::<G>::ALWAYS, None)),
                Some(gv) => {
                    let t = pool.intern_term(&vec![gv.clone()]);
                    let d = pool.of_guard(Some(&gv));
                    out.push((m.0, d, Some(t)));
                }
            }
        }
    }
    adj
}

/// Composes one row from an adjacency view:
/// `row(n) = ⋃_{n →g m} ({m: g} ∪ g ⊗ row_of(m))`.
///
/// The unconditional part is pure bitset work: `uncond(n)` is the union
/// of `{m} ∪ uncond(m)` over the unconditional edges. Annotations are
/// composed only for targets outside it — an unconditional edge passes
/// on `m`'s conditional entries, a conditional edge guards everything `m`
/// reaches (`compose(ALWAYS, g)` is the edge's own `{{g}}` id).
fn compose_row_ops<'r, G, O: IdOps<G>>(
    ops: &mut O,
    scratch: &mut RowScratch,
    adj: &[AdjEdge],
    row_of: impl Fn(u32) -> &'r IRow,
) -> IRow {
    debug_assert!(scratch.touched.is_empty());
    let mut uncond = BitSet::new(scratch.acc.len());
    for &(m, _, t) in adj {
        if t.is_none() {
            uncond.insert(m as usize);
            uncond.union_with(&row_of(m).uncond);
        }
    }
    for &(m, direct, t) in adj {
        let mrow = row_of(m);
        if t.is_some() {
            if !uncond.contains(m as usize) {
                scratch.upsert(ops, m, direct);
            }
            for tt in mrow.uncond.iter_difference(&uncond) {
                scratch.upsert(ops, tt as u32, direct);
            }
        }
        for &(tt, did) in &mrow.cond {
            if !uncond.contains(tt as usize) {
                let composed = ops.compose(did, t);
                scratch.upsert(ops, tt, composed);
            }
        }
    }
    IRow::from_parts(uncond, scratch.harvest())
}

/// Composes one interned row against an owning pool — the sequential
/// building block, shared with the minimizer's greedy recomputation
/// (which feeds it a filtered adjacency and an overlay `row_of`).
///
/// `row_of(m)` must already be the finished row of `m`.
pub fn compose_interned_row<'r, G, F>(
    pool: &mut DnfPool<G>,
    scratch: &mut RowScratch,
    adj: &[AdjEdge],
    row_of: F,
) -> IRow
where
    G: Ord + Clone + std::hash::Hash,
    F: Fn(u32) -> &'r IRow,
{
    let mut ops = MainOps { pool };
    compose_row_ops(&mut ops, scratch, adj, row_of)
}

/// Computes the condition-annotated closure of a **DAG** directly in
/// interned form, level-parallel over `threads` workers (`<= 1` is fully
/// sequential). Rows are indexed by node index (tombstone slots hold
/// empty rows) and are **bit-identical for every thread count** — the
/// worker deltas are merged in deterministic window order, so even the
/// pool's id numbering matches the sequential sweep.
///
/// Returns the cycle error untouched for cyclic inputs, mirroring
/// [`crate::annotated::annotated_closure`].
pub fn interned_closure<N: Sync, E: Sync, G>(
    g: &DiGraph<N, E>,
    guard_of: &(impl GuardFn<E, G> + Sync),
    pool: &mut DnfPool<G>,
    threads: usize,
) -> Result<(Vec<IRow>, ClosureStats), CycleError>
where
    G: Ord + Clone + std::hash::Hash + Send + Sync,
{
    let order = topo_sort(g)?;
    Ok(closure_by_levels(g, guard_of, pool, threads, &order))
}

/// The DAG sweep: group nodes by longest-path-to-sink level, process
/// levels ascending, fan wide levels out to the pool.
fn closure_by_levels<N: Sync, E: Sync, G>(
    g: &DiGraph<N, E>,
    guard_of: &(impl GuardFn<E, G> + Sync),
    pool: &mut DnfPool<G>,
    threads: usize,
    order: &[crate::digraph::NodeId],
) -> (Vec<IRow>, ClosureStats)
where
    G: Ord + Clone + std::hash::Hash + Send + Sync,
{
    let bound = g.node_bound();
    let dnfs_before = pool.dnf_count();
    let hits_before = pool.ops_hits();
    let misses_before = pool.ops_misses();
    let adj = build_adj(g, guard_of, pool);

    // Longest-path-to-sink levels: successors always sit on strictly
    // smaller levels, so a level only reads finished rows.
    let mut level = vec![0usize; bound];
    let mut max_level = 0usize;
    for &n in order.iter().rev() {
        let l = adj[n.index()]
            .iter()
            .map(|&(m, _, _)| level[m as usize] + 1)
            .max()
            .unwrap_or(0);
        level[n.index()] = l;
        max_level = max_level.max(l);
    }
    let mut levels: Vec<Vec<u32>> = vec![Vec::new(); max_level + 1];
    for &n in order {
        levels[level[n.index()]].push(n.0);
    }
    for nodes in &mut levels {
        nodes.sort_unstable();
    }

    // Unset until composed; only tombstone slots stay unset.
    let mut rows: Vec<Option<IRow>> = vec![None; bound];
    let mut stats = ClosureStats {
        rows: order.len(),
        levels: levels.len(),
        ..ClosureStats::default()
    };
    let mut scratch = RowScratch::new(bound);
    for (li, nodes) in levels.iter().enumerate() {
        let _span = obs::span_with("closure.level", || {
            format!("level={li} nodes={}", nodes.len())
        });
        let out = compose_level_batch(
            &adj,
            nodes,
            pool,
            &|m| rows[m as usize].as_ref().expect("successor rows sit on lower levels"),
            &mut scratch,
            threads,
            bound,
            &mut stats.pool_hits,
            &mut stats.pool_misses,
        );
        for (&n, row) in nodes.iter().zip(out) {
            rows[n as usize] = Some(row);
        }
    }

    stats.minted = pool.dnf_count() - dnfs_before;
    stats.pool_hits += pool.ops_hits() - hits_before;
    stats.pool_misses += pool.ops_misses() - misses_before;
    let rows = rows
        .into_iter()
        .map(|r| r.unwrap_or_else(|| IRow::empty(bound)))
        .collect();
    (rows, stats)
}

/// Composes the rows of one same-level batch (`nodes` sorted ascending)
/// against the finished rows `row_of`, fanning out to the worker pool
/// when the batch is wide. Rows are returned in `nodes` order. The worker
/// deltas are merged in deterministic window order, so pool numbering is
/// identical for every thread count.
#[allow(clippy::too_many_arguments)]
fn compose_level_batch<'r, G>(
    adj: &Adj,
    nodes: &[u32],
    pool: &mut DnfPool<G>,
    row_of: &(impl Fn(u32) -> &'r IRow + Sync),
    scratch: &mut RowScratch,
    threads: usize,
    bound: usize,
    worker_hits: &mut u64,
    worker_misses: &mut u64,
) -> Vec<IRow>
where
    G: Ord + Clone + std::hash::Hash + Send + Sync,
{
    if threads > 1 && nodes.len() >= PAR_LEVEL_MIN {
        let pool_snap: &DnfPool<G> = &*pool;
        let results = par_ranges(threads, nodes.len(), &|r| {
            let mut ops = SnapshotOps::new(pool_snap);
            let mut scratch = RowScratch::new(bound);
            let wrows: Vec<IRow> = r
                .map(|i| compose_row_ops(&mut ops, &mut scratch, &adj[nodes[i] as usize], row_of))
                .collect();
            (wrows, ops.into_parts())
        });
        // Deterministic merge: windows in order, each worker's mints
        // re-interned in discovery order (first occurrence wins), so
        // the numbering equals the sequential sweep's.
        let mut out: Vec<IRow> = Vec::with_capacity(nodes.len());
        for (wrows, parts) in results {
            *worker_hits += parts.hits();
            *worker_misses += parts.misses();
            let remap = pool.absorb(parts);
            for mut wrow in wrows {
                for (_, d) in &mut wrow.cond {
                    *d = remap.fix(*d);
                }
                out.push(wrow);
            }
        }
        out
    } else {
        let mut ops = MainOps { pool: &mut *pool };
        nodes
            .iter()
            .map(|&n| compose_row_ops(&mut ops, scratch, &adj[n as usize], row_of))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotated::{annotated_closure, Dnf};
    use crate::digraph::EdgeId;

    type G = (u32, bool);

    fn guard_of() -> impl Fn(EdgeId, &Option<G>) -> Option<G> + Sync {
        |_, w: &Option<G>| *w
    }

    /// Resolves interned rows to structural `(target, Dnf)` pairs.
    fn resolve(pool: &DnfPool<G>, rows: &[IRow]) -> Vec<Vec<(u32, Dnf<G>)>> {
        rows.iter()
            .map(|r| r.iter().map(|(t, d)| (t, pool.dnf(d).clone())).collect())
            .collect()
    }

    fn diamond() -> DiGraph<(), Option<G>> {
        let mut g: DiGraph<(), Option<G>> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        let d = g.add_node(());
        g.add_edge(a, b, Some((a.0, true)));
        g.add_edge(a, c, Some((a.0, false)));
        g.add_edge(b, d, None);
        g.add_edge(c, d, None);
        g
    }

    #[test]
    fn matches_structural_closure() {
        let g = diamond();
        let mut pool = DnfPool::new();
        let (rows, stats) = interned_closure(&g, &guard_of(), &mut pool, 1).unwrap();
        let structural = annotated_closure(&g, &guard_of()).unwrap();
        for (ni, srow) in structural.rows().iter().enumerate() {
            let expect: Vec<(u32, Dnf<G>)> =
                srow.iter().map(|(t, d)| (t.0, d.clone())).collect();
            let got: Vec<(u32, Dnf<G>)> = rows[ni]
                .iter()
                .map(|(t, d)| (t, pool.dnf(d).clone()))
                .collect();
            assert_eq!(got, expect, "row {ni}");
        }
        assert_eq!(stats.rows, 4);
        assert!(stats.levels >= 3);
    }

    #[test]
    fn cycle_is_reported() {
        let mut g: DiGraph<(), Option<G>> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, None);
        g.add_edge(b, a, None);
        let mut pool = DnfPool::new();
        assert!(interned_closure(&g, &guard_of(), &mut pool, 1).is_err());
    }

    #[test]
    fn rows_identical_across_thread_counts() {
        // Wide fork-join so the parallel path actually engages.
        let mut g: DiGraph<(), Option<G>> = DiGraph::new();
        let src = g.add_node(());
        let sink = g.add_node(());
        for i in 0..40u32 {
            let mid = g.add_node(());
            let guard = (i % 3 == 0).then_some((src.0, i % 2 == 0));
            g.add_edge(src, mid, guard);
            g.add_edge(mid, sink, None);
        }
        let mut pool1 = DnfPool::new();
        let (rows1, _) = interned_closure(&g, &guard_of(), &mut pool1, 1).unwrap();
        for threads in [2usize, 4, 8] {
            let mut pool_t = DnfPool::new();
            let (rows_t, _) = interned_closure(&g, &guard_of(), &mut pool_t, threads).unwrap();
            assert_eq!(rows_t, rows1, "threads={threads}");
            assert_eq!(pool_t.dnf_count(), pool1.dnf_count(), "threads={threads}");
            assert_eq!(resolve(&pool_t, &rows_t), resolve(&pool1, &rows1));
        }
    }
}
