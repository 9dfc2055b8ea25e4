//! Interned condition-annotated closure (Definition 3).
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
//! a sorted `(target, DnfId)` list (`cond`). All rows live in one
//! [`IRows`] table: one vector of `uncond` words and one arena of `cond`
//! entries, so a closure costs a few allocations, not several per row.
//! The sweep composes annotations only for targets outside `uncond`; the
//! per-row accumulator is a dense scratch array instead of an ordered
//! map. The DAG is swept level by level (longest path to a sink),
//! ascending node index within a level: a node's row only reads rows of
//! strictly smaller levels, and the fixed order fixes the pool's id
//! numbering.
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
//! let (rows, stats) = interned_closure(&g, &|_, w: &Option<(u32, bool)>| *w, &mut pool)
//!     .expect("acyclic");
//! // a1+ = {a2, a3(T@a2), a4(T@a2)}: a2 unconditionally, the rest guarded.
//! let row = rows.row(a1.index());
//! assert_eq!(row.iter().count(), 3);
//! assert!(row.is_always(a2.index()));
//! assert_eq!(row.get(a2.0), Some(DnfId::ALWAYS));
//! let a4_id = row.get(a4.0).unwrap();
//! assert_eq!(pool.dnf(a4_id).terms(), &[vec![(a2.0, true)]]);
//! assert_eq!(stats.rows, 4);
//! ```

use crate::annotated::GuardFn;
use crate::digraph::{DiGraph, NodeId};
use crate::intern::{DnfId, DnfPool, TermId};
use crate::topo::{topo_sort, CycleError};
use dscweaver_obs as obs;

/// One interned closure row, borrowed from an [`IRows`] table or a
/// [`RowScratch`]: the targets reached with annotation `ALWAYS` (through
/// at least one all-unconditional path) as bitset words, and every other
/// target with its interned annotation id. With all rows drawn from one
/// pool, row equality is bitwise.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct IRow<'a> {
    uncond: &'a [u64],
    /// Sorted by target, disjoint from `uncond`, never `ALWAYS`/`EMPTY`.
    cond: &'a [(u32, DnfId)],
}

impl<'a> IRow<'a> {
    /// True if `t` is reached with annotation `ALWAYS`.
    pub fn is_always(&self, t: usize) -> bool {
        self.uncond[t / 64] & (1 << (t % 64)) != 0
    }

    /// True if `t` is reached under any annotation.
    pub fn reaches(&self, t: usize) -> bool {
        self.is_always(t) || self.cond.binary_search_by_key(&(t as u32), |&(k, _)| k).is_ok()
    }

    /// The `ALWAYS` targets of this row that are not `ALWAYS` in `other`
    /// (a row of the same table width), ascending.
    pub fn always_not_in(&self, other: IRow<'a>) -> impl Iterator<Item = u32> + 'a {
        set_bits(self.uncond.iter().zip(other.uncond).map(|(&a, &b)| a & !b))
    }

    /// The conditionally reached targets with their annotation ids,
    /// sorted by target.
    pub fn cond(&self) -> &'a [(u32, DnfId)] {
        self.cond
    }

    /// The annotation with which `t` is reached, if reachable.
    pub fn get(&self, t: u32) -> Option<DnfId> {
        if self.is_always(t as usize) {
            return Some(DnfId::ALWAYS);
        }
        self.cond
            .binary_search_by_key(&t, |&(k, _)| k)
            .ok()
            .map(|i| self.cond[i].1)
    }

    /// Every `(target, annotation id)` entry in ascending target order,
    /// `ALWAYS` entries included.
    pub fn iter(&self) -> impl Iterator<Item = (u32, DnfId)> + 'a {
        let mut uncond = set_bits(self.uncond.iter().copied()).peekable();
        let mut cond = self.cond.iter().copied().peekable();
        std::iter::from_fn(move || match (uncond.peek(), cond.peek()) {
            (Some(&u), Some(&(c, _))) if u > c => cond.next(),
            (Some(_), _) => uncond.next().map(|u| (u, DnfId::ALWAYS)),
            (None, _) => cond.next(),
        })
    }
}

/// Set bit indices of a word sequence, ascending.
fn set_bits(words: impl Iterator<Item = u64>) -> impl Iterator<Item = u32> {
    words.enumerate().flat_map(|(wi, mut w)| {
        std::iter::from_fn(move || {
            (w != 0).then(|| {
                let t = (wi * 64) as u32 + w.trailing_zeros();
                w &= w - 1;
                t
            })
        })
    })
}

/// A table of interned closure rows for node indices `< bound`: every
/// row's `uncond` words side by side in one vector, every row's `cond`
/// entries in one arena with a per-row range. Building or dropping a
/// table costs a few allocations however many rows it holds.
#[derive(Clone, Debug)]
pub struct IRows {
    /// `u64` words per row.
    width: usize,
    words: Vec<u64>,
    cond: Vec<(u32, DnfId)>,
    /// Per row, its `cond` entries' range in the arena.
    spans: Vec<(u32, u32)>,
}

impl IRows {
    /// `rows` rows reaching nothing, over targets `< bound`.
    pub fn new(bound: usize, rows: usize) -> IRows {
        let width = bound.div_ceil(64);
        IRows {
            width,
            words: vec![0; width * rows],
            cond: Vec::new(),
            spans: vec![(0, 0); rows],
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True if the table holds no row.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Row `i`.
    pub fn row(&self, i: usize) -> IRow<'_> {
        let (a, b) = self.spans[i];
        IRow {
            uncond: &self.words[i * self.width..(i + 1) * self.width],
            cond: &self.cond[a as usize..b as usize],
        }
    }

    /// Every row, in index order.
    pub fn iter(&self) -> impl Iterator<Item = IRow<'_>> {
        (0..self.len()).map(|i| self.row(i))
    }

    /// Overwrites row `i` with `row` (of the same width). The `cond`
    /// entries reuse the row's arena range when they fit in it and move
    /// to the arena's end otherwise.
    pub fn set(&mut self, i: usize, row: IRow<'_>) {
        self.words[i * self.width..(i + 1) * self.width].copy_from_slice(row.uncond);
        let (a, b) = self.spans[i];
        let n = row.cond.len() as u32;
        let a = if n <= b - a {
            self.cond[a as usize..(a + n) as usize].copy_from_slice(row.cond);
            a
        } else {
            let end = self.cond.len() as u32;
            self.cond.extend_from_slice(row.cond);
            end
        };
        self.spans[i] = (a, a + n);
    }

    /// Appends `row` (of the same width), returning its index.
    pub fn push(&mut self, row: IRow<'_>) -> usize {
        self.words.extend_from_slice(row.uncond);
        let a = self.cond.len() as u32;
        self.cond.extend_from_slice(row.cond);
        self.spans.push((a, self.cond.len() as u32));
        self.spans.len() - 1
    }

    /// Drops every row, keeping the width and the buffers' capacity.
    pub fn clear(&mut self) {
        self.words.clear();
        self.cond.clear();
        self.spans.clear();
    }
}

impl PartialEq for IRows {
    /// Row-wise: arena slots a row no longer uses do not count.
    fn eq(&self, other: &IRows) -> bool {
        self.width == other.width && self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for IRows {}

/// Build telemetry returned by the interned closure engines.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClosureStats {
    /// Rows composed (live nodes swept).
    pub rows: usize,
    /// Topological levels the sweep was batched into.
    pub levels: usize,
    /// Distinct DNFs the build added to the pool.
    pub minted: usize,
    /// Memo hits across all union/compose operations.
    pub pool_hits: u64,
    /// Memo misses (structural computations).
    pub pool_misses: u64,
}

/// Sentinel for "target untouched" in the dense accumulator.
const NONE: u32 = u32::MAX;

/// Reusable dense accumulator for composing one row: `acc[t]` holds the
/// running annotation id of target `t` (or an internal sentinel), and
/// `touched` remembers which slots to harvest and reset. The composed
/// row itself lands in `uncond` and `cond`. Allocate once, reuse for
/// every row.
pub struct RowScratch {
    acc: Vec<u32>,
    touched: Vec<u32>,
    /// Per guard term met by the current row's conditional edges, the
    /// targets that already took that edge annotation: their slots
    /// contain it, so a repeat is absorbed without a union. Only the
    /// first `terms` entries are live; their words are zero between rows.
    absorbed: Vec<(TermId, Vec<u64>)>,
    terms: usize,
    /// The last composed row's `ALWAYS` words.
    uncond: Vec<u64>,
    /// The last composed row's conditional entries, sorted by target.
    cond: Vec<(u32, DnfId)>,
}

impl RowScratch {
    /// A scratch sized for node indices `< bound`.
    pub fn new(bound: usize) -> Self {
        RowScratch {
            acc: vec![NONE; bound],
            touched: Vec::new(),
            absorbed: Vec::new(),
            terms: 0,
            uncond: vec![0; bound.div_ceil(64)],
            cond: Vec::new(),
        }
    }

    /// The index of `term`'s absorbed-target words in this row, opening
    /// a zeroed entry on first use.
    fn absorbed_slot(&mut self, term: TermId) -> usize {
        if let Some(k) = self.absorbed[..self.terms].iter().position(|(t, _)| *t == term) {
            return k;
        }
        if self.terms == self.absorbed.len() {
            self.absorbed
                .push((term, vec![0; self.acc.len().div_ceil(64)]));
        } else {
            self.absorbed[self.terms].0 = term;
        }
        self.terms += 1;
        self.terms - 1
    }

    /// Harvests the accumulated entries into `cond` (sorted by target)
    /// and resets the touched slots for reuse.
    fn harvest(&mut self) {
        self.touched.sort_unstable();
        self.cond.clear();
        for &t in &self.touched {
            self.cond.push((t, DnfId(self.acc[t as usize])));
            self.acc[t as usize] = NONE;
        }
        self.touched.clear();
        for (_, words) in &mut self.absorbed[..self.terms] {
            words.fill(0);
        }
        self.terms = 0;
    }
}

/// `acc[t] ∪= d` with a dense slot per target.
#[inline]
fn upsert<G>(acc: &mut [u32], touched: &mut Vec<u32>, pool: &mut DnfPool<G>, t: u32, d: DnfId)
where
    G: Ord + Clone + std::hash::Hash,
{
    let slot = &mut acc[t as usize];
    if *slot == NONE {
        *slot = d.0;
        touched.push(t);
    } else if *slot != d.0 {
        *slot = pool.union(DnfId(*slot), d).0;
    }
}

/// One out-edge as the sweep composes it: `(target index, direct-edge
/// annotation id, guard term id if conditional)`. The direct id and the
/// term are interned up front, so the hot loop never hashes a guard
/// value.
pub type AdjEdge = (u32, DnfId, Option<TermId>);

/// Per-node out-edge views, as CSR rows.
struct Adj {
    start: Vec<u32>,
    edges: Vec<AdjEdge>,
}

impl Adj {
    fn of(&self, n: usize) -> &[AdjEdge] {
        &self.edges[self.start[n] as usize..self.start[n + 1] as usize]
    }
}

/// Pre-interns every edge guard (deterministic node/edge order) and
/// builds the per-node adjacency view.
fn build_adj<N, E, G: Ord + Clone + std::hash::Hash>(
    g: &DiGraph<N, E>,
    guard_of: &impl GuardFn<E, G>,
    pool: &mut DnfPool<G>,
) -> Adj {
    let mut start = Vec::with_capacity(g.node_bound() + 1);
    let mut edges = Vec::with_capacity(g.edge_count());
    start.push(0);
    for i in 0..g.node_bound() {
        let n = NodeId(i as u32);
        if g.contains_node(n) {
            for e in g.out_edges(n) {
                let (_, m) = g.endpoints(e);
                match guard_of.guard(e, g.edge_weight(e)) {
                    None => edges.push((m.0, DnfPool::<G>::ALWAYS, None)),
                    Some(gv) => {
                        let t = pool.intern_term(std::slice::from_ref(&gv));
                        let d = pool.of_guard(Some(&gv));
                        edges.push((m.0, d, Some(t)));
                    }
                }
            }
        }
        start.push(edges.len() as u32);
    }
    Adj { start, edges }
}

/// Composes one interned row from an adjacency view:
/// `row(n) = ⋃_{n →g m} ({m: g} ∪ g ⊗ row_of(m))`, into `scratch`'s
/// row buffers. Shared with the minimizer's greedy recomputation, which
/// feeds it a filtered adjacency and an overlay `row_of`.
///
/// The unconditional part is pure bitset work: `uncond(n)` is the union
/// of `{m} ∪ uncond(m)` over the unconditional edges. Annotations are
/// composed only for targets outside it — an unconditional edge passes
/// on `m`'s conditional entries, a conditional edge guards everything `m`
/// reaches (`compose(ALWAYS, g)` is the edge's own `{{g}}` id).
///
/// `row_of(m)` must already be the finished row of `m`.
pub fn compose_interned_row<'s, 'r, G, F>(
    pool: &mut DnfPool<G>,
    scratch: &'s mut RowScratch,
    adj: &[AdjEdge],
    row_of: F,
) -> IRow<'s>
where
    G: Ord + Clone + std::hash::Hash,
    F: Fn(u32) -> IRow<'r>,
{
    debug_assert!(scratch.touched.is_empty() && scratch.terms == 0);
    let mut uncond = std::mem::take(&mut scratch.uncond);
    uncond.fill(0);
    for &(m, _, t) in adj {
        if t.is_none() {
            uncond[m as usize / 64] |= 1 << (m % 64);
            for (a, &b) in uncond.iter_mut().zip(row_of(m).uncond) {
                *a |= b;
            }
        }
    }
    for &(m, direct, t) in adj {
        let mrow = row_of(m);
        if let Some(term) = t {
            // `{m} ∪ uncond(m)`, outside `uncond` and not yet given this
            // edge annotation, takes it — in ascending target order.
            let k = scratch.absorbed_slot(term);
            let RowScratch {
                acc,
                touched,
                absorbed,
                ..
            } = scratch;
            let seen = &mut absorbed[k].1;
            let (mw, mb) = (m as usize / 64, 1u64 << (m % 64));
            if uncond[mw] & mb == 0 && seen[mw] & mb == 0 {
                seen[mw] |= mb;
                upsert(acc, touched, pool, m, direct);
            }
            let words = mrow.uncond.iter().zip(&uncond).zip(seen.iter_mut());
            for (wi, ((&a, &b), c)) in words.enumerate() {
                let mut w = a & !b & !*c;
                *c |= w;
                while w != 0 {
                    let tt = (wi * 64) as u32 + w.trailing_zeros();
                    upsert(acc, touched, pool, tt, direct);
                    w &= w - 1;
                }
            }
        }
        for &(tt, did) in mrow.cond {
            if uncond[tt as usize / 64] & (1 << (tt % 64)) == 0 {
                let composed = match t {
                    None => did,
                    Some(t) => pool.compose_term(did, t),
                };
                upsert(&mut scratch.acc, &mut scratch.touched, pool, tt, composed);
            }
        }
    }
    scratch.uncond = uncond;
    scratch.harvest();
    IRow {
        uncond: &scratch.uncond,
        cond: &scratch.cond,
    }
}

/// Computes the condition-annotated closure of a **DAG** directly in
/// interned form. Rows are indexed by node index (tombstone slots hold
/// empty rows).
///
/// Returns the cycle error untouched for cyclic inputs, mirroring
/// [`crate::annotated::annotated_closure`].
pub fn interned_closure<N, E, G>(
    g: &DiGraph<N, E>,
    guard_of: &impl GuardFn<E, G>,
    pool: &mut DnfPool<G>,
) -> Result<(IRows, ClosureStats), CycleError>
where
    G: Ord + Clone + std::hash::Hash,
{
    let order = topo_sort(g)?;
    Ok(interned_closure_ordered(g, &order, guard_of, pool))
}

/// [`interned_closure`] over a topological order the caller already
/// holds: `order` must list every live node of `g` exactly once, each
/// before its successors. Rows, levels and pool numbering do not depend
/// on which such order is given.
pub fn interned_closure_ordered<N, E, G>(
    g: &DiGraph<N, E>,
    order: &[NodeId],
    guard_of: &impl GuardFn<E, G>,
    pool: &mut DnfPool<G>,
) -> (IRows, ClosureStats)
where
    G: Ord + Clone + std::hash::Hash,
{
    let bound = g.node_bound();
    let dnfs_before = pool.dnf_count();
    let hits_before = pool.ops_hits();
    let misses_before = pool.ops_misses();
    let adj = build_adj(g, guard_of, pool);

    // Longest-path-to-sink levels (`NONE` on tombstones): successors
    // always sit on strictly smaller levels, so a level only reads
    // finished rows.
    let mut level = vec![NONE; bound];
    let mut max_level = 0;
    for &n in order.iter().rev() {
        let l = adj
            .of(n.index())
            .iter()
            .map(|&(m, _, _)| level[m as usize] + 1)
            .max()
            .unwrap_or(0);
        level[n.index()] = l;
        max_level = max_level.max(l);
    }
    // The sweep order, bucketed by level with a counting sort: level `l`
    // is `sweep[start[l]..start[l + 1]]`, in ascending node index.
    let mut start = vec![0u32; max_level as usize + 2];
    for &l in level.iter().filter(|&&l| l != NONE) {
        start[l as usize + 1] += 1;
    }
    for l in 1..start.len() {
        start[l] += start[l - 1];
    }
    let mut fill = start.clone();
    let mut sweep = vec![0u32; order.len()];
    for (n, &l) in level.iter().enumerate().filter(|(_, &l)| l != NONE) {
        sweep[fill[l as usize] as usize] = n as u32;
        fill[l as usize] += 1;
    }
    let levels = start.windows(2).map(|w| &sweep[w[0] as usize..w[1] as usize]);

    // Empty until composed; only tombstone slots stay empty.
    let mut rows = IRows::new(bound, bound);
    let mut scratch = RowScratch::new(bound);
    for (li, nodes) in levels.enumerate() {
        let _span = obs::span_with("closure.level", || {
            format!("level={li} nodes={}", nodes.len())
        });
        for &n in nodes {
            let row = compose_interned_row(pool, &mut scratch, adj.of(n as usize), |m| {
                rows.row(m as usize)
            });
            rows.set(n as usize, row);
        }
    }

    let stats = ClosureStats {
        rows: order.len(),
        levels: max_level as usize + 1,
        minted: pool.dnf_count() - dnfs_before,
        pool_hits: pool.ops_hits() - hits_before,
        pool_misses: pool.ops_misses() - misses_before,
    };
    (rows, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotated::{annotated_closure, Dnf};
    use crate::digraph::EdgeId;

    type G = (u32, bool);

    fn guard_of() -> impl Fn(EdgeId, &Option<G>) -> Option<G> {
        |_, w: &Option<G>| *w
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
        let (rows, stats) = interned_closure(&g, &guard_of(), &mut pool).unwrap();
        let structural = annotated_closure(&g, &guard_of()).unwrap();
        for (ni, srow) in structural.rows().iter().enumerate() {
            let expect: Vec<(u32, Dnf<G>)> =
                srow.iter().map(|(t, d)| (t.0, d.clone())).collect();
            let got: Vec<(u32, Dnf<G>)> = rows
                .row(ni)
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
        assert!(interned_closure(&g, &guard_of(), &mut pool).is_err());
    }
}
