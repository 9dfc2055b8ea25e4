//! §4.4 — the minimal synchronization constraint set.
//!
//! Implements the paper's greedy algorithm verbatim:
//!
//! ```text
//! P* = P
//! for each partial ordering a_i → a_j in P:
//!     if P* − {a_i → a_j} is transitive equivalent to P:
//!         P* = P* − {a_i → a_j}
//! ```
//!
//! Transitive equivalence (Definitions 3–5) compares *condition-annotated*
//! closures. Two comparison modes are provided:
//!
//! * [`EquivalenceMode::Strict`] — Definition 3's note read literally:
//!   closures must reach the same nodes with *identical* annotation DNFs.
//! * [`EquivalenceMode::ExecutionAware`] — the semantics the paper's own
//!   Figure 9 / Table 2 results require (see [`crate::exec`]): an
//!   annotation `D_old` at target `t` from source `s` is covered by
//!   `D_new` iff `exec(s) ∧ exec(t) ∧ D_old ⟹ D_new`. This soundly
//!   licenses both execution-awareness (a `T`-guarded path covers an
//!   unconditional constraint into a `T`-only activity) and branch
//!   completeness (`{T}` and `{F}` paths jointly cover an unconditional
//!   constraint when `{T, F}` is the guard's whole domain).
//!
//! Removals are checked against the *current* set; because "new covers
//! old" is transitive and removal only shrinks the relation set, the final
//! `P*` is transitive-equivalent to the original `P` and locally minimal
//! (the second bullet of Definition 6) — both properties are exercised by
//! the property tests.
//!
//! Since minimal sets are not unique ("similar to the minimal set of
//! functional dependencies in database"), [`EdgeOrder`] controls which
//! constraints the loop offers for removal first; the default tries
//! cooperation constraints before the data constraints they typically
//! duplicate, matching the paper's Figure 9 labeling.
//!
//! ## Implementation
//!
//! [`minimize_generic_with`] is an optimized engine built on three ideas:
//!
//! 1. **Bitset rows, interned annotations** — a closure row
//!    ([`IRow`]) keeps its `ALWAYS` targets as an unconditional
//!    reachability bitset and every reached target as a second bitset;
//!    only the few conditional annotations are hash-consed into a
//!    [`DnfPool`] as `(target, id)` pairs. Row equality is bitset plus
//!    id-vector equality, `ALWAYS` entries compare as bitset differences,
//!    and unions/compositions/implications are memoized by id pair.
//! 2. **Bitset prefilters** — the rows' own bitsets answer reachability
//!    over the live edges (all edges, or unconditional edges only). A
//!    candidate with no alternate 2+-step path is rejected without
//!    touching annotations; a candidate with a same-guard (or unguarded)
//!    alternate that reaches its head unconditionally is accepted
//!    likewise. On fully unconditional inputs every candidate is decided
//!    here, so the generic engine matches [`minimize_unconditional_fast`]
//!    within a small constant.
//! 3. **Scoped-thread parallelism** — candidates the prefilters leave
//!    undecided are screened concurrently (their tentative tail row is
//!    composed on worker threads against a read-only snapshot, invalidated
//!    if an earlier acceptance dirtied their dependency cone), and the
//!    slow path's affected-ancestor recomputation runs in
//!    reverse-topological level batches across a `std::thread::scope`
//!    pool. The result is pinned edge-for-edge equal to the sequential
//!    reference implementation, kept as [`minimize_generic_baseline`].
//!
//! ```
//! use dscweaver_core::minimize::{minimize, EdgeOrder, EquivalenceMode};
//! use dscweaver_core::ExecConditions;
//! use dscweaver_dscl::{ConstraintSet, Origin, Relation, StateRef};
//!
//! // a → b → c plus the redundant transitive shortcut a → c.
//! let mut cs = ConstraintSet::new("triple");
//! for a in ["a", "b", "c"] {
//!     cs.add_activity(a);
//! }
//! cs.push(Relation::before(StateRef::finish("a"), StateRef::start("b"), Origin::Data));
//! cs.push(Relation::before(StateRef::finish("b"), StateRef::start("c"), Origin::Data));
//! cs.push(Relation::before(StateRef::finish("a"), StateRef::start("c"), Origin::Data));
//!
//! let exec = ExecConditions::derive(&cs);
//! let out = minimize(&cs, &exec, EquivalenceMode::ExecutionAware, &EdgeOrder::default())
//!     .expect("acyclic");
//! assert_eq!(out.removed.len(), 1); // only the shortcut goes
//! assert_eq!(out.minimal.constraint_count(), 2);
//! ```

use crate::exec::{dnf_and, implies_under, ExecConditions};
use dscweaver_dscl::sync_graph::{SyncGraph, SyncNode};
use dscweaver_dscl::{Condition, ConstraintSet, Origin, Relation, SyncEdge};
use dscweaver_graph::annotated::{Dnf, Row};
use dscweaver_graph::iclosure::{
    compose_interned_row, interned_closure, AdjEdge, IRow, RowScratch,
};
use dscweaver_graph::{
    effective_threads, find_cycle, par_map, topo_sort, BitSet, DiGraph, DnfId, DnfPool, EdgeId,
    LruCache, NodeId, TermId,
};
use dscweaver_obs as obs;
use std::collections::{BTreeMap, HashMap, HashSet};

/// How closures are compared (Definitions 4–5). Ordered from most to
/// least conservative; all three agree on the paper's Purchasing process
/// result *except* Strict, which keeps three extra edges (see
/// `repro ext_b`).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum EquivalenceMode {
    /// Annotation-exact comparison (Definition 3's "the same ...
    /// conditional annotations" read literally). Sound under any scheduler.
    Strict,
    /// Semantic comparison modulo execution conditions and guard domains —
    /// reproduces the paper's Figure 9 / Table 2. Sound whenever an
    /// activity's non-execution is decided no earlier than its guards —
    /// true of the DES scheduler and of BPEL engines. The default.
    #[default]
    ExecutionAware,
    /// Target-set-only comparison (annotations ignored). Maximally
    /// aggressive; sound **only** under full BPEL-style dead-path
    /// elimination, where a skipped activity still propagates its link
    /// statuses after *all* of its incoming links are determined, so
    /// ordering holds along any path regardless of branch conditions.
    Reachability,
}

/// The order in which the greedy loop offers constraints for removal.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EdgeOrder {
    /// Relation-list order.
    Given,
    /// Reverse relation-list order.
    ReverseGiven,
    /// Grouped by origin according to a priority list (origins not listed
    /// go last, in list order).
    ByDimension(Vec<Origin>),
}

impl Default for EdgeOrder {
    /// Cooperation first (they typically duplicate data constraints and the
    /// paper's Figure 9 keeps the data-labeled copies), then control, data,
    /// translated service constraints.
    fn default() -> Self {
        EdgeOrder::ByDimension(vec![
            Origin::Cooperation,
            Origin::Control,
            Origin::Data,
            Origin::Translated,
            Origin::Service,
            Origin::Coordinator,
            Origin::Other,
        ])
    }
}

/// Tuning knobs for the optimized minimizer.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MinimizeOptions {
    /// Worker threads for candidate screening and ancestor recomputation.
    /// `0` (the default) picks from available parallelism; `1` forces the
    /// fully sequential engine. The result is identical either way.
    pub threads: usize,
    /// Capacity of the `implies` memo: at most this many verdicts stay
    /// cached, with least-recently-used eviction past the bound
    /// ([`dscweaver_graph::LruCache`]). Verdicts are pure, so the result
    /// is identical for any limit; the bound only caps memory on
    /// adversarial inputs whose branch combinations mint exponentially
    /// many distinct annotations, and eviction degrades the hit rate
    /// gracefully instead of cutting caching off entirely. `0` means
    /// unbounded.
    pub pool_cache_limit: usize,
}

impl Default for MinimizeOptions {
    fn default() -> Self {
        MinimizeOptions {
            threads: 0,
            pool_cache_limit: DEFAULT_POOL_CACHE_LIMIT,
        }
    }
}

/// Default [`MinimizeOptions::pool_cache_limit`]: ~1M memoized verdicts.
/// Far beyond anything the paper-scale workloads produce, so eviction is
/// effectively off unless a caller dials it down.
pub const DEFAULT_POOL_CACHE_LIMIT: usize = 1 << 20;

impl MinimizeOptions {
    /// The effective thread count (resolving `0` to the machine's
    /// available parallelism, capped at 8 — the row work saturates well
    /// before that).
    pub fn effective_threads(&self) -> usize {
        effective_threads(self.threads, 8)
    }
}

/// Why minimization refused to run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum MinimizeError {
    /// The constraint graph is cyclic — the specification conflicts
    /// ("infinite synchronization sequence", §4.1). The payload names the
    /// states on one cycle.
    Conflict {
        /// Labels of the nodes on the detected cycle.
        cycle: Vec<String>,
    },
}

impl std::fmt::Display for MinimizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MinimizeError::Conflict { cycle } => {
                write!(f, "conflicting constraints form a cycle: {}", cycle.join(" -> "))
            }
        }
    }
}

impl std::error::Error for MinimizeError {}

/// Interning and memo-cache counters from one optimized-engine run.
/// All-zero for the baseline and unconditional fast paths, which use
/// neither a pool nor an `implies` cache.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct MinimizeStats {
    /// Distinct DNFs interned in the [`DnfPool`] at the end of the run.
    pub pool_dnfs: usize,
    /// Distinct conjunctive terms interned in the pool.
    pub pool_terms: usize,
    /// `implies` queries answered from the memo cache.
    pub implies_cache_hits: u64,
    /// `implies` queries computed structurally and then memoized.
    pub implies_cache_misses: u64,
    /// Memoized verdicts evicted (least-recently-used first) because the
    /// memo reached [`MinimizeOptions::pool_cache_limit`].
    pub implies_evictions: u64,
}

impl MinimizeStats {
    /// Cache hit rate over all cache-eligible `implies` queries
    /// (`hits / (hits + misses)`), or 0 when none were made.
    pub fn implies_hit_rate(&self) -> f64 {
        let total = self.implies_cache_hits + self.implies_cache_misses;
        if total == 0 {
            0.0
        } else {
            self.implies_cache_hits as f64 / total as f64
        }
    }
}

/// The outcome of minimization.
#[derive(Clone, Debug)]
pub struct MinimizeResult {
    /// The minimal constraint set `P*`.
    pub minimal: ConstraintSet,
    /// The relations removed, in removal order.
    pub removed: Vec<Relation>,
    /// How many removal candidates were examined.
    pub candidates_checked: usize,
    /// Interning/memoization telemetry (optimized engine only).
    pub stats: MinimizeStats,
}

impl MinimizeResult {
    /// Constraints kept.
    pub fn kept(&self) -> usize {
        self.minimal.constraint_count()
    }
}

/// Runs the paper's greedy minimal-set algorithm on a (desugared)
/// constraint set. For the §4.4 workflow this is applied to the ASC
/// produced by [`crate::translate::translate_services`], but any
/// conflict-free constraint set works (service nodes get unconditional
/// execution conditions).
pub fn minimize(
    cs: &ConstraintSet,
    exec: &ExecConditions,
    mode: EquivalenceMode,
    order: &EdgeOrder,
) -> Result<MinimizeResult, MinimizeError> {
    minimize_with(cs, exec, mode, order, &MinimizeOptions::default())
}

/// [`minimize`] with explicit [`MinimizeOptions`].
pub fn minimize_with(
    cs: &ConstraintSet,
    exec: &ExecConditions,
    mode: EquivalenceMode,
    order: &EdgeOrder,
    opts: &MinimizeOptions,
) -> Result<MinimizeResult, MinimizeError> {
    let _span = obs::span("minimize");
    // Fast path: with no conditional constraints, annotated closures
    // degenerate to plain reachability in every mode, and the minimal set
    // is the (unique) transitive reduction of the constraint DAG — no DNF
    // machinery needed. The property tests pin this against the generic
    // greedy algorithm.
    if cs
        .happen_befores()
        .all(|r| matches!(r, Relation::HappenBefore { cond: None, .. }))
    {
        let _span = obs::span("minimize.reduction");
        return minimize_unconditional_fast(cs, order);
    }
    minimize_generic_with(cs, exec, mode, order, opts)
}

/// The generic §4.4 greedy algorithm over condition-annotated closures
/// (optimized engine, default options).
pub fn minimize_generic(
    cs: &ConstraintSet,
    exec: &ExecConditions,
    mode: EquivalenceMode,
    order: &EdgeOrder,
) -> Result<MinimizeResult, MinimizeError> {
    minimize_generic_with(cs, exec, mode, order, &MinimizeOptions::default())
}

/// A row composed on a worker thread: the unconditional targets plus the
/// structural annotations of the conditional ones, not yet interned.
type StructRow = (BitSet, Vec<(u32, Dnf<Condition>)>);

/// Interns a structurally composed row.
fn intern_row(pool: &mut DnfPool<Condition>, (uncond, srow): StructRow) -> IRow {
    let cond = srow.into_iter().map(|(t, d)| (t, pool.intern(&d))).collect();
    IRow::from_parts(uncond, cond)
}

/// Structural row composition against a read-only snapshot — safe to run
/// on worker threads (resolves interned successor rows through `&DnfPool`,
/// never interns). `fresh` overrides `irows` for already-recomputed nodes.
/// Mirrors the interned sweep: unconditional targets by bitset unions,
/// annotations only for the targets outside them.
fn compose_structural(
    g: &DiGraph<SyncNode, SyncEdge>,
    n: NodeId,
    skip: EdgeId,
    removed: &HashSet<EdgeId>,
    pool: &DnfPool<Condition>,
    irows: &[IRow],
    fresh: &HashMap<usize, IRow>,
) -> StructRow {
    let row_of = |m: NodeId| fresh.get(&m.index()).unwrap_or(&irows[m.index()]);
    let live: Vec<(NodeId, &Option<Condition>)> = g
        .out_edges(n)
        .filter(|&e| e != skip && !removed.contains(&e))
        .map(|e| (g.endpoints(e).1, &g.edge_weight(e).cond))
        .collect();
    let mut uncond = BitSet::new(g.node_bound());
    for &(m, guard) in &live {
        if guard.is_none() {
            uncond.insert(m.index());
            uncond.union_with(row_of(m).uncond());
        }
    }
    let mut acc: BTreeMap<u32, Dnf<Condition>> = BTreeMap::new();
    for (m, guard) in live {
        let mrow = row_of(m);
        if let Some(c) = guard {
            let heads = std::iter::once(m.index()).filter(|&t| !uncond.contains(t));
            for t in heads.chain(mrow.uncond().iter_difference(&uncond)) {
                acc.entry(t as u32).or_insert_with(Dnf::empty).insert(vec![c.clone()]);
            }
        }
        for &(t, did) in mrow.cond() {
            if !uncond.contains(t as usize) {
                pool.dnf(did)
                    .compose_into(guard.as_ref(), acc.entry(t).or_insert_with(Dnf::empty));
            }
        }
    }
    (uncond, acc.into_iter().collect())
}

/// Sorts removal candidates according to `order`.
fn order_candidates(
    g: &DiGraph<SyncNode, SyncEdge>,
    sg: &SyncGraph,
    order: &EdgeOrder,
) -> Vec<(EdgeId, usize)> {
    let mut candidates: Vec<(EdgeId, usize)> = sg.constraint_edges().collect();
    match order {
        EdgeOrder::Given => {}
        EdgeOrder::ReverseGiven => candidates.reverse(),
        EdgeOrder::ByDimension(priority) => {
            let rank = |o: Origin| -> usize {
                priority.iter().position(|&p| p == o).unwrap_or(priority.len())
            };
            candidates.sort_by_key(|&(e, i)| (rank(g.edge_weight(e).origin), i));
        }
    }
    candidates
}

/// Interns every node's execution condition (service nodes: always).
fn intern_exec(
    g: &DiGraph<SyncNode, SyncEdge>,
    exec: &ExecConditions,
    pool: &mut DnfPool<Condition>,
) -> Vec<DnfId> {
    let mut exec_ids = vec![DnfPool::<Condition>::ALWAYS; g.node_bound()];
    for n in g.node_ids() {
        exec_ids[n.index()] = match g.weight(n) {
            SyncNode::State(s) => pool.intern(&exec.of(&s.activity)),
            SyncNode::Service(_) => DnfPool::<Condition>::ALWAYS,
        };
    }
    exec_ids
}

/// All mutable state of the optimized greedy loop.
struct Engine<'a> {
    g: &'a DiGraph<SyncNode, SyncEdge>,
    cs: &'a ConstraintSet,
    mode: EquivalenceMode,
    /// Worker threads for screening/recomputation.
    threads: usize,
    pool: DnfPool<Condition>,
    /// Interned annotated-closure rows, by node index.
    irows: Vec<IRow>,
    /// Interned execution condition per node (services: always).
    exec_ids: Vec<DnfId>,
    /// Direct-edge annotation id per edge index (`ALWAYS` when
    /// unconditional) — interned once so the greedy loop's row
    /// recompositions never hash a guard value.
    edge_gdnf: Vec<DnfId>,
    /// Singleton guard term per edge index (`None` when unconditional).
    edge_term: Vec<Option<TermId>>,
    /// Dense per-row accumulator reused across recompositions.
    scratch: RowScratch,
    removed: HashSet<EdgeId>,
    topo_pos: Vec<usize>,
    /// Longest-path distance to a sink on the original graph — strictly
    /// decreasing along every edge, so it stays a valid schedule under
    /// edge deletion. Nodes sharing a level never depend on each other.
    level: Vec<usize>,
    /// Memoized `context ∧ old ⟹ new` verdicts, keyed by interned ids
    /// (domains are fixed per run, so the verdict is too). Bounded to
    /// [`MinimizeOptions::pool_cache_limit`] entries with LRU eviction.
    imp_cache: LruCache<(DnfId, DnfId, DnfId), bool>,
    imp_hits: u64,
    imp_misses: u64,
    /// Nodes whose rows changed / lost an out-edge since the last
    /// screening snapshot — invalidates precomputed screening rows.
    dirty_rows: HashSet<usize>,
    dirty_tails: HashSet<usize>,
}

/// Minimum same-level batch size before ancestor recomputation fans out to
/// worker threads — below this the scope setup costs more than the rows.
const PAR_BATCH_MIN: usize = 8;

impl<'a> Engine<'a> {
    fn new(
        g: &'a DiGraph<SyncNode, SyncEdge>,
        cs: &'a ConstraintSet,
        exec: &ExecConditions,
        mode: EquivalenceMode,
        threads: usize,
        pool_cache_limit: usize,
        topo: &[NodeId],
    ) -> Engine<'a> {
        let mut pool = DnfPool::new();
        let exec_ids = intern_exec(g, exec, &mut pool);

        // The initial annotated closure, built directly in interned form
        // and level-parallel on the worker pool (bit-identical for every
        // thread count — see `dscweaver_graph::iclosure`).
        let lvl_span = obs::span("minimize.closure.levels");
        let (irows, cstats) =
            interned_closure(g, &|_, w: &SyncEdge| w.cond.clone(), &mut pool, threads)
                .expect("cycle-free graph must close");
        drop(lvl_span);
        obs::counter_add("minimize.closure.rows_composed", cstats.rows as u64);
        obs::counter_add("minimize.closure.pool_hits", cstats.pool_hits);
        obs::counter_add("minimize.closure.pool_misses", cstats.pool_misses);
        obs::counter_add("minimize.closure.minted_dnfs", cstats.minted as u64);

        let bound = g.node_bound();
        let mut topo_pos = vec![usize::MAX; bound];
        for (i, &n) in topo.iter().enumerate() {
            topo_pos[n.index()] = i;
        }
        let mut level = vec![0usize; bound];
        for &n in topo.iter().rev() {
            let l = g
                .successors(n)
                .map(|m| level[m.index()] + 1)
                .max()
                .unwrap_or(0);
            level[n.index()] = l;
        }

        // Per-edge guard tables for the greedy loop's recompositions
        // (every term/dnf below is already interned, so these are hits).
        let ebound = g.edge_bound();
        let mut edge_gdnf = vec![DnfPool::<Condition>::ALWAYS; ebound];
        let mut edge_term = vec![None; ebound];
        for e in g.edge_ids() {
            if let Some(c) = &g.edge_weight(e).cond {
                edge_term[e.index()] = Some(pool.intern_term(&vec![c.clone()]));
                edge_gdnf[e.index()] = pool.of_guard(Some(c));
            }
        }

        Engine {
            g,
            cs,
            mode,
            threads,
            pool,
            irows,
            exec_ids,
            edge_gdnf,
            edge_term,
            scratch: RowScratch::new(bound),
            removed: HashSet::new(),
            topo_pos,
            level,
            imp_cache: LruCache::new(pool_cache_limit),
            imp_hits: 0,
            imp_misses: 0,
            dirty_rows: HashSet::new(),
            dirty_tails: HashSet::new(),
        }
    }

    /// Recomputes the interned row of `n`, excluding `skip` and all
    /// removed edges. Successor rows come from `fresh` when present.
    /// Runs on the shared dense-scratch composer with the pre-interned
    /// per-edge guard tables — no maps, no guard hashing in the loop.
    fn compose_interned(
        &mut self,
        n: NodeId,
        skip: Option<EdgeId>,
        fresh: &HashMap<usize, IRow>,
    ) -> IRow {
        let g = self.g;
        let (pool, scratch, irows, removed) = (
            &mut self.pool,
            &mut self.scratch,
            &self.irows,
            &self.removed,
        );
        let (edge_gdnf, edge_term) = (&self.edge_gdnf, &self.edge_term);
        let adj: Vec<AdjEdge> = g
            .out_edges(n)
            .filter(|&e| Some(e) != skip && !removed.contains(&e))
            .map(|e| {
                let (_, m) = g.endpoints(e);
                (m.0, edge_gdnf[e.index()], edge_term[e.index()])
            })
            .collect();
        compose_interned_row(pool, scratch, &adj, |m| {
            fresh
                .get(&(m as usize))
                .unwrap_or(&irows[m as usize])
        })
    }

    /// Memoized `ctx ∧ old ⟹ new` over interned formulas. The memo is an
    /// LRU bounded to `pool_cache_limit` verdicts: past the bound the
    /// coldest entries are evicted, so memory stays bounded while the hit
    /// rate degrades gracefully under churn — same answers either way.
    fn implies(&mut self, ctx: DnfId, old: DnfId, new: DnfId) -> bool {
        if old == new || old == DnfPool::<Condition>::EMPTY || ctx == DnfPool::<Condition>::EMPTY
        {
            return true;
        }
        if let Some(&b) = self.imp_cache.get(&(ctx, old, new)) {
            self.imp_hits += 1;
            return b;
        }
        let b = implies_under(
            self.pool.dnf(ctx),
            self.pool.dnf(old),
            self.pool.dnf(new),
            &self.cs.domains,
        );
        self.imp_misses += 1;
        self.imp_cache.insert((ctx, old, new), b);
        b
    }

    /// Telemetry snapshot for [`MinimizeResult::stats`].
    fn stats(&self) -> MinimizeStats {
        MinimizeStats {
            pool_dnfs: self.pool.dnf_count(),
            pool_terms: self.pool.term_count(),
            implies_cache_hits: self.imp_hits,
            implies_cache_misses: self.imp_misses,
            implies_evictions: self.imp_cache.evictions(),
        }
    }

    /// Definition 4/5: is node `ni`'s current row covered by `new`?
    fn covered(&mut self, ni: usize, new: &IRow) -> bool {
        let old = &self.irows[ni];
        match self.mode {
            EquivalenceMode::Strict => old == new,
            EquivalenceMode::Reachability => old.reach().is_subset(new.reach()),
            EquivalenceMode::ExecutionAware => {
                // Only the targets that lost `ALWAYS` or carry a
                // conditional id can differ; every other `ALWAYS` entry
                // is kept. Ascending target order, like a full row scan.
                let always = DnfPool::<Condition>::ALWAYS;
                let mut lost = old.uncond().iter_difference(new.uncond()).peekable();
                let mut maybe_changed: Vec<(u32, DnfId)> = Vec::new();
                for &(t, old_id) in old.cond() {
                    while let Some(l) = lost.next_if(|&l| l < t as usize) {
                        maybe_changed.push((l as u32, always));
                    }
                    maybe_changed.push((t, old_id));
                }
                maybe_changed.extend(lost.map(|l| (l as u32, always)));
                for (t, old_id) in maybe_changed {
                    let new_id = new.get(t).unwrap_or(DnfPool::<Condition>::EMPTY);
                    if old_id == new_id {
                        continue;
                    }
                    let ctx = self.pool.and(self.exec_ids[ni], self.exec_ids[t as usize]);
                    if !self.implies(ctx, old_id, new_id) {
                        return false;
                    }
                }
                true
            }
        }
    }

    /// Accept prefilter: a live alternate out-edge of `u` whose guard is
    /// absent or identical to the candidate's, reaching `v` directly or
    /// through unconditional edges, replays every annotation the candidate
    /// contributed — the row of `u` (hence the whole closure) is provably
    /// unchanged, so the removal is pure redundancy.
    fn prefilter_accept(&self, cand: EdgeId, u: NodeId, v: NodeId) -> bool {
        let g = self.g;
        let guard_c = &g.edge_weight(cand).cond;
        for oe in g.out_edges(u) {
            if oe == cand || self.removed.contains(&oe) {
                continue;
            }
            let gw = &g.edge_weight(oe).cond;
            if !(gw.is_none() || gw == guard_c) {
                continue;
            }
            let (_, w) = g.endpoints(oe);
            if w == v || self.irows[w.index()].uncond().contains(v.index()) {
                return true;
            }
        }
        false
    }

    /// Reject prefilter: with no alternate path `u ⇒ v` at all, `v` drops
    /// out of `u`'s row entirely. (On a DAG no path from a sibling head
    /// can route back through the candidate edge, so the closure queried
    /// *with* the candidate still answers this exactly.)
    fn has_alternate_path(&self, cand: EdgeId, u: NodeId, v: NodeId) -> bool {
        let g = self.g;
        g.out_edges(u).any(|oe| {
            oe != cand && !self.removed.contains(&oe) && {
                let (_, w) = g.endpoints(oe);
                w == v || self.irows[w.index()].reach().contains(v.index())
            }
        })
    }

    /// True if the prefilters cannot decide `cand` against the current
    /// state — i.e. screening should precompute its tentative tail row.
    fn screen_undecided(&self, cand: EdgeId) -> bool {
        let (u, v) = self.g.endpoints(cand);
        if self.prefilter_accept(cand, u, v) {
            return false;
        }
        if !self.has_alternate_path(cand, u, v) {
            // Strict/Reachability reject outright; ExecutionAware still
            // needs the row when the lost target was never live.
            return self.mode == EquivalenceMode::ExecutionAware;
        }
        true
    }

    /// True if a screening row precomputed at the window snapshot is still
    /// valid: the tail kept all its edges and no successor row changed.
    fn precomp_valid(&self, cand: EdgeId) -> bool {
        let g = self.g;
        let (u, _) = g.endpoints(cand);
        if self.dirty_tails.contains(&u.index()) {
            return false;
        }
        g.out_edges(u).all(|oe| {
            oe == cand || self.removed.contains(&oe) || {
                let (_, m) = g.endpoints(oe);
                !self.dirty_rows.contains(&m.index())
            }
        })
    }

    /// Live-edge ancestors of `u` (inclusive), sorted so successors come
    /// before predecessors (descending topological position).
    fn affected_ancestors(&self, u: NodeId) -> Vec<NodeId> {
        let g = self.g;
        let mut seen = vec![false; g.node_bound()];
        let mut stack = vec![u];
        let mut affected = Vec::new();
        seen[u.index()] = true;
        while let Some(x) = stack.pop() {
            affected.push(x);
            for e in g.in_edges(x) {
                if self.removed.contains(&e) {
                    continue;
                }
                let (p, _) = g.endpoints(e);
                if !seen[p.index()] {
                    seen[p.index()] = true;
                    stack.push(p);
                }
            }
        }
        affected.sort_by_key(|n| std::cmp::Reverse(self.topo_pos[n.index()]));
        affected
    }

    /// Recomputes the rows of every affected ancestor with `cand` gone,
    /// fanning same-level batches out to worker threads. `new_u` is the
    /// already-computed row of the candidate's tail.
    fn recompute_rows(
        &mut self,
        affected: &[NodeId],
        u: NodeId,
        cand: EdgeId,
        new_u: IRow,
    ) -> HashMap<usize, IRow> {
        let mut fresh: HashMap<usize, IRow> = HashMap::new();
        fresh.insert(u.index(), new_u);
        let rest: Vec<NodeId> = affected.iter().copied().filter(|&n| n != u).collect();
        if self.threads > 1 && rest.len() >= PAR_BATCH_MIN {
            // Level batches, nearest-to-sinks first: a node's successors
            // always sit on strictly smaller levels, so each batch only
            // reads rows finished in earlier batches (or untouched ones).
            let mut by_level: BTreeMap<usize, Vec<NodeId>> = BTreeMap::new();
            for &n in &rest {
                by_level.entry(self.level[n.index()]).or_default().push(n);
            }
            for (_, batch) in by_level {
                if batch.len() >= 2 {
                    let (g, pool, irows, removed, fr) =
                        (self.g, &self.pool, &self.irows, &self.removed, &fresh);
                    let rows = par_map(self.threads, &batch, &|&n: &NodeId| {
                        (
                            n.index(),
                            compose_structural(g, n, cand, removed, pool, irows, fr),
                        )
                    });
                    for (ni, srow) in rows {
                        let ir = intern_row(&mut self.pool, srow);
                        fresh.insert(ni, ir);
                    }
                } else {
                    for &n in &batch {
                        let r = self.compose_interned(n, Some(cand), &fresh);
                        fresh.insert(n.index(), r);
                    }
                }
            }
        } else {
            for &n in &rest {
                let r = self.compose_interned(n, Some(cand), &fresh);
                fresh.insert(n.index(), r);
            }
        }
        fresh
    }

    /// One greedy step: decide `cand` and mutate state on acceptance.
    /// `pre` is an optional screening row (structural, snapshot-composed).
    fn try_remove(&mut self, cand: EdgeId, pre: Option<StructRow>) -> bool {
        let g = self.g;
        let (u, v) = g.endpoints(cand);
        let ui = u.index();

        if self.prefilter_accept(cand, u, v) {
            // Row of u provably unchanged — no closure maintenance needed.
            self.removed.insert(cand);
            self.dirty_tails.insert(ui);
            return true;
        }

        if !self.has_alternate_path(cand, u, v) {
            match self.mode {
                EquivalenceMode::Strict | EquivalenceMode::Reachability => return false,
                EquivalenceMode::ExecutionAware => {
                    // v is lost from u's row entirely; salvageable only if
                    // the annotation was vacuous under the execution
                    // context (e.g. a dead branch combination).
                    let old_v = self.irows[ui]
                        .get(v.0)
                        .expect("candidate edge target must be in tail row");
                    let ctx = self.pool.and(self.exec_ids[ui], self.exec_ids[v.index()]);
                    if !self.implies(ctx, old_v, DnfPool::<Condition>::EMPTY) {
                        return false;
                    }
                }
            }
        }

        // General path: the full recomposed row of u.
        let new_u: IRow = match pre {
            Some(srow) => intern_row(&mut self.pool, srow),
            None => self.compose_interned(u, Some(cand), &HashMap::new()),
        };
        if new_u == self.irows[ui] {
            self.removed.insert(cand);
            self.dirty_tails.insert(ui);
            return true;
        }
        if !self.covered(ui, &new_u) {
            return false;
        }

        // Slow path (rare): u's row weakened but stays covered — every
        // live ancestor's row must be recomputed and rechecked.
        let affected = self.affected_ancestors(u);
        let fresh = self.recompute_rows(&affected, u, cand, new_u);
        for &n in &affected {
            let ni = n.index();
            if fresh[&ni] != self.irows[ni] && !self.covered(ni, &fresh[&ni]) {
                return false;
            }
        }

        // Commit: swap the recomputed rows (bitsets included) in.
        self.removed.insert(cand);
        self.dirty_tails.insert(ui);
        for (ni, row) in fresh {
            if self.irows[ni] == row {
                continue;
            }
            self.dirty_rows.insert(ni);
            self.irows[ni] = row;
        }
        true
    }
}

/// The generic §4.4 greedy algorithm with explicit [`MinimizeOptions`] —
/// the optimized engine (interned annotations, bitset prefilters, scoped
/// worker threads). Produces edge-for-edge the same minimal set as
/// [`minimize_generic_baseline`].
pub fn minimize_generic_with(
    cs: &ConstraintSet,
    exec: &ExecConditions,
    mode: EquivalenceMode,
    order: &EdgeOrder,
    opts: &MinimizeOptions,
) -> Result<MinimizeResult, MinimizeError> {
    let _span = obs::span_with("minimize.generic", || {
        format!("relations={} threads={}", cs.relations.len(), opts.effective_threads())
    });
    let sg = SyncGraph::build(cs);
    let g = &sg.graph;
    if let Some(cycle) = find_cycle(g) {
        return Err(MinimizeError::Conflict {
            cycle: cycle.iter().map(|&n| g.weight(n).label()).collect(),
        });
    }
    let topo = topo_sort(g).expect("cycle-free graph must sort");
    let candidates = order_candidates(g, &sg, order);
    let threads = opts.effective_threads();
    let closure_span = obs::span("minimize.closure");
    let mut eng = Engine::new(g, cs, exec, mode, threads, opts.pool_cache_limit, &topo);
    drop(closure_span);

    let greedy_span = obs::span_with("minimize.greedy", || format!("candidates={}", candidates.len()));
    let mut removed_rels: Vec<usize> = Vec::new();
    let mut checked = 0usize;
    let window = if threads > 1 { (threads * 4).max(8) } else { 1 };
    let mut k = 0usize;
    while k < candidates.len() {
        let end = (k + window).min(candidates.len());

        // Screening phase: compose the tentative tail row of every
        // prefilter-undecided candidate in the window concurrently against
        // a read-only snapshot. Results are advisory — the apply phase
        // re-runs the prefilters and drops any row whose dependency cone
        // an earlier acceptance dirtied.
        let mut pre: HashMap<usize, StructRow> = HashMap::new();
        if threads > 1 && end - k > 1 {
            let undecided: Vec<(usize, EdgeId)> = (k..end)
                .map(|i| (i, candidates[i].0))
                .filter(|&(_, e)| eng.screen_undecided(e))
                .collect();
            if undecided.len() >= 2 {
                let (g, pool, irows, removed) = (eng.g, &eng.pool, &eng.irows, &eng.removed);
                let none: HashMap<usize, IRow> = HashMap::new();
                let rows = par_map(threads, &undecided, &|&(i, e): &(usize, EdgeId)| {
                    let (u, _) = g.endpoints(e);
                    (i, compose_structural(g, u, e, removed, pool, irows, &none))
                });
                pre.extend(rows);
            }
        }

        eng.dirty_rows.clear();
        eng.dirty_tails.clear();
        for i in k..end {
            let (cand, rel_idx) = candidates[i];
            checked += 1;
            let precomp = pre.remove(&i).filter(|_| eng.precomp_valid(cand));
            if eng.try_remove(cand, precomp) {
                removed_rels.push(rel_idx);
            }
        }
        k = end;
    }
    drop(greedy_span);

    let removed_set: HashSet<usize> = removed_rels.iter().copied().collect();
    let minimal = SyncGraph::subset(cs, &|i| !removed_set.contains(&i));
    let removed = removed_rels
        .iter()
        .map(|&i| cs.relations[i].clone())
        .collect();
    let stats = eng.stats();
    obs::counter_add("minimize.candidates_checked", checked as u64);
    obs::counter_add("minimize.implies_cache_hits", stats.implies_cache_hits);
    obs::counter_add("minimize.implies_cache_misses", stats.implies_cache_misses);
    obs::counter_add("minimize.implies_evictions", stats.implies_evictions);
    obs::gauge_set("minimize.pool_dnfs", stats.pool_dnfs as f64);
    obs::gauge_set("minimize.pool_terms", stats.pool_terms as f64);
    obs::gauge_set("minimize.implies_hit_rate", stats.implies_hit_rate());
    Ok(MinimizeResult {
        minimal,
        removed,
        candidates_checked: checked,
        stats,
    })
}

/// The sequential reference implementation of the §4.4 greedy algorithm —
/// structural rows, no interning, no prefilters, no threads. Kept for the
/// equivalence property tests and as the before-side of the `ext_a`
/// benchmarks; [`minimize_generic_with`] must match it edge for edge.
pub fn minimize_generic_baseline(
    cs: &ConstraintSet,
    exec: &ExecConditions,
    mode: EquivalenceMode,
    order: &EdgeOrder,
) -> Result<MinimizeResult, MinimizeError> {
    let sg = SyncGraph::build(cs);
    let g = &sg.graph;

    if let Some(cycle) = find_cycle(g) {
        return Err(MinimizeError::Conflict {
            cycle: cycle.iter().map(|&n| g.weight(n).label()).collect(),
        });
    }
    let topo = topo_sort(g).expect("cycle-free graph must sort");
    let mut topo_pos = vec![usize::MAX; g.node_bound()];
    for (i, &n) in topo.iter().enumerate() {
        topo_pos[n.index()] = i;
    }

    // Initial annotated closure.
    let mut rows: Vec<Row<Condition>> =
        dscweaver_graph::annotated_closure(g, &|_, w: &SyncEdge| w.cond.clone())
            .expect("acyclic")
            .into_rows();

    // Execution condition of a node (service nodes: always).
    let exec_of = |n: NodeId| -> Dnf<Condition> {
        match g.weight(n) {
            SyncNode::State(s) => exec.of(&s.activity),
            SyncNode::Service(_) => Dnf::always(),
        }
    };

    let candidates = order_candidates(g, &sg, order);

    let mut removed_edges: HashSet<EdgeId> = HashSet::new();
    let mut removed_rels: Vec<usize> = Vec::new();
    let mut checked = 0usize;
    // Dense scratch index: `scratch_of[n]` is the position of `n`'s
    // freshly recomputed row in `new_rows`, or `usize::MAX`. Allocated
    // once and reset per candidate (only the touched entries).
    let mut scratch_of: Vec<usize> = vec![usize::MAX; g.node_bound()];

    for (cand, rel_idx) in candidates {
        checked += 1;
        let (u, _) = g.endpoints(cand);

        // Fast path: recompute the row of the edge's tail first. Rows of
        // every other node depend on the graph only *through* u's row, so
        // if it is unchanged the whole closure is unchanged (accept
        // immediately), and if it is not even covered the removal is
        // rejected without touching the ancestors.
        let new_u = compose_without(g, u, cand, &removed_edges, &rows, &[], &scratch_of);
        if new_u == rows[u.index()] {
            // Closure untouched: the constraint was pure redundancy.
            removed_edges.insert(cand);
            removed_rels.push(rel_idx);
            continue;
        }
        if !row_covered(&rows[u.index()], &new_u, mode, &exec_of(u), &exec_of, cs) {
            continue; // load-bearing edge
        }

        // Slow path (rare): u's row weakened but stays covered — every
        // ancestor's row must be rechecked.
        let mut affected: Vec<NodeId> = Vec::new();
        {
            let mut seen = vec![false; g.node_bound()];
            let mut stack = vec![u];
            seen[u.index()] = true;
            while let Some(x) = stack.pop() {
                affected.push(x);
                for e in g.in_edges(x) {
                    if removed_edges.contains(&e) {
                        continue;
                    }
                    let (p, _) = g.endpoints(e);
                    if !seen[p.index()] {
                        seen[p.index()] = true;
                        stack.push(p);
                    }
                }
            }
        }
        // Recompute affected rows in reverse topological order (the
        // original order stays valid: we only ever delete edges).
        affected.sort_by_key(|n| std::cmp::Reverse(topo_pos[n.index()]));
        let mut new_rows: Vec<(NodeId, Row<Condition>)> = Vec::with_capacity(affected.len());
        for &n in &affected {
            let row = compose_without(g, n, cand, &removed_edges, &rows, &new_rows, &scratch_of);
            scratch_of[n.index()] = new_rows.len();
            new_rows.push((n, row));
        }
        for &n in &affected {
            scratch_of[n.index()] = usize::MAX;
        }

        // Definition 4/5 check on every affected row.
        let ok = new_rows.iter().all(|(n, new_row)| {
            row_covered(&rows[n.index()], new_row, mode, &exec_of(*n), &exec_of, cs)
        });

        if ok {
            removed_edges.insert(cand);
            removed_rels.push(rel_idx);
            for (n, row) in new_rows {
                rows[n.index()] = row;
            }
        }
    }

    let removed_set: HashSet<usize> = removed_rels.iter().copied().collect();
    let minimal = SyncGraph::subset(cs, &|i| !removed_set.contains(&i));
    let removed = removed_rels
        .iter()
        .map(|&i| cs.relations[i].clone())
        .collect();
    Ok(MinimizeResult {
        minimal,
        removed,
        candidates_checked: checked,
        stats: MinimizeStats::default(),
    })
}

/// Transitive-reduction fast path for unconditional constraint sets.
///
/// An edge `u → v` is removable iff a two-or-more-step path `u ⇒ v`
/// exists (reduction criterion — removals never change the closure, so
/// the criterion evaluated on the original closure stays valid), or iff a
/// parallel duplicate of it survives. `order` decides which duplicate of
/// a bundle is kept, exactly as in the greedy algorithm.
pub fn minimize_unconditional_fast(
    cs: &ConstraintSet,
    order: &EdgeOrder,
) -> Result<MinimizeResult, MinimizeError> {
    let sg = SyncGraph::build(cs);
    let g = &sg.graph;
    if let Some(cycle) = find_cycle(g) {
        return Err(MinimizeError::Conflict {
            cycle: cycle.iter().map(|&n| g.weight(n).label()).collect(),
        });
    }
    let closure = dscweaver_graph::transitive_closure(g);

    let candidates = order_candidates(g, &sg, order);

    // Count live constraint edges per (u, v) pair for duplicate handling.
    let mut live_per_pair: HashMap<(NodeId, NodeId), usize> = HashMap::new();
    for &(e, _) in &candidates {
        *live_per_pair.entry(g.endpoints(e)).or_insert(0) += 1;
    }

    let mut removed_rels: Vec<usize> = Vec::new();
    let mut checked = 0usize;
    for &(e, rel_idx) in &candidates {
        checked += 1;
        let (u, v) = g.endpoints(e);
        // Two-or-more-step path: some other successor of u reaches v (or
        // *is* v via a lifecycle edge — impossible here since lifecycle
        // targets are states of the same activity and v ≠ u's own state
        // chain only when the constraint is a self-loop, which the cycle
        // check excluded).
        let two_step = g.out_edges(u).any(|oe| {
            if oe == e {
                return false;
            }
            let (_, w) = g.endpoints(oe);
            w == v && !matches!(g.edge_weight(oe).kind, dscweaver_dscl::EdgeKind::Constraint(_))
                || w != v && closure.reaches(w, v)
        });
        let duplicate_left = live_per_pair[&(u, v)] > 1;
        if two_step || duplicate_left {
            removed_rels.push(rel_idx);
            *live_per_pair.get_mut(&(u, v)).expect("counted") -= 1;
        }
    }

    let removed_set: std::collections::HashSet<usize> =
        removed_rels.iter().copied().collect();
    let minimal = SyncGraph::subset(cs, &|i| !removed_set.contains(&i));
    let removed = removed_rels
        .iter()
        .map(|&i| cs.relations[i].clone())
        .collect();
    Ok(MinimizeResult {
        minimal,
        removed,
        candidates_checked: checked,
        stats: MinimizeStats::default(),
    })
}

/// Recomposes the closure row of `n` with edge `skip` (and every edge in
/// `removed`) excluded. Successor rows come from `scratch` (freshly
/// recomputed rows, located via the dense `scratch_of` index, `usize::MAX`
/// meaning absent) when present, else from the stable `rows` table —
/// successors outside the affected set are untouched by the removal.
fn compose_without(
    g: &DiGraph<SyncNode, SyncEdge>,
    n: NodeId,
    skip: EdgeId,
    removed: &HashSet<EdgeId>,
    rows: &[Row<Condition>],
    scratch: &[(NodeId, Row<Condition>)],
    scratch_of: &[usize],
) -> Row<Condition> {
    let mut row = Row::new();
    for e in g.out_edges(n) {
        if e == skip || removed.contains(&e) {
            continue;
        }
        let (_, m) = g.endpoints(e);
        let guard = g.edge_weight(e).cond.clone();
        row.add_term(m, guard.clone().map(|c| vec![c]).unwrap_or_default());
        let mrow: &Row<Condition> = match scratch_of[m.index()] {
            usize::MAX => &rows[m.index()],
            i => &scratch[i].1,
        };
        for (t, dnf) in mrow.iter() {
            row.compose_from(t, dnf, guard.as_ref());
        }
    }
    row
}

/// Is `old`'s row covered by `new` under `mode`? (`new` ⊆ `old` pointwise
/// holds by construction — removal only loses paths — so this is the whole
/// equivalence check.)
fn row_covered(
    old: &Row<Condition>,
    new: &Row<Condition>,
    mode: EquivalenceMode,
    src_exec: &Dnf<Condition>,
    exec_of: &dyn Fn(NodeId) -> Dnf<Condition>,
    cs: &ConstraintSet,
) -> bool {
    match mode {
        EquivalenceMode::Strict => old == new,
        EquivalenceMode::ExecutionAware => old.iter().all(|(t, old_dnf)| {
            let empty = Dnf::empty();
            let new_dnf = new.get(t).unwrap_or(&empty);
            let ctx = dnf_and(src_exec, &exec_of(t));
            implies_under(&ctx, old_dnf, new_dnf, &cs.domains)
        }),
        EquivalenceMode::Reachability => old.iter().all(|(t, _)| new.reaches(t)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dscweaver_dscl::StateRef;

    fn cs_with(activities: &[&str], rels: Vec<Relation>) -> ConstraintSet {
        let mut cs = ConstraintSet::new("t");
        for a in activities {
            cs.add_activity(*a);
        }
        for r in rels {
            cs.push(r);
        }
        cs
    }

    fn before(a: &str, b: &str, o: Origin) -> Relation {
        Relation::before(StateRef::finish(a), StateRef::start(b), o)
    }

    fn run(cs: &ConstraintSet, mode: EquivalenceMode) -> MinimizeResult {
        let exec = ExecConditions::derive(cs);
        minimize(cs, &exec, mode, &EdgeOrder::default()).unwrap()
    }

    /// Minimal-set relations rendered and sorted — removal-order agnostic.
    fn kept_set(r: &MinimizeResult) -> Vec<String> {
        let mut v: Vec<String> = r
            .minimal
            .happen_befores()
            .map(|x| format!("{x} ({})", x.origin()))
            .collect();
        v.sort();
        v
    }

    #[test]
    fn transitive_shortcut_removed() {
        let cs = cs_with(
            &["a", "b", "c"],
            vec![
                before("a", "b", Origin::Data),
                before("b", "c", Origin::Data),
                before("a", "c", Origin::Cooperation),
            ],
        );
        let res = run(&cs, EquivalenceMode::Strict);
        assert_eq!(res.kept(), 2);
        assert_eq!(res.removed.len(), 1);
        assert_eq!(res.removed[0].origin(), Origin::Cooperation);
    }

    #[test]
    fn duplicate_constraint_removed_by_priority() {
        // data and cooperation duplicates of the same edge: the default
        // order removes the cooperation copy (paper's Figure 9 keeps →_d).
        let cs = cs_with(
            &["a", "b"],
            vec![
                before("a", "b", Origin::Data),
                before("a", "b", Origin::Cooperation),
            ],
        );
        let res = run(&cs, EquivalenceMode::Strict);
        assert_eq!(res.kept(), 1);
        assert_eq!(res.minimal.relations[0].origin(), Origin::Data);
    }

    #[test]
    fn diamond_keeps_all_edges() {
        let cs = cs_with(
            &["a", "b", "c", "d"],
            vec![
                before("a", "b", Origin::Data),
                before("a", "c", Origin::Data),
                before("b", "d", Origin::Data),
                before("c", "d", Origin::Data),
            ],
        );
        for mode in [EquivalenceMode::Strict, EquivalenceMode::ExecutionAware] {
            let res = run(&cs, mode);
            assert_eq!(res.kept(), 4, "mode {mode:?}");
        }
    }

    #[test]
    fn strict_keeps_condition_mismatch_execution_aware_removes() {
        // g →[g=T] b, plus a → b (unconditional) where b is control
        // dependent on g=T and a → g exists:
        //   a → g →[T] b   and the direct a → b.
        // Strict: direct edge's unconditional annotation is not matched by
        // the {g=T} path → kept. ExecutionAware: b only executes when g=T →
        // removed.
        let mut cs = cs_with(
            &["a", "g", "b"],
            vec![
                before("a", "g", Origin::Data),
                Relation::before_if(
                    StateRef::finish("g"),
                    StateRef::start("b"),
                    Condition::new("g", "T"),
                    Origin::Control,
                ),
                before("a", "b", Origin::Data),
            ],
        );
        cs.add_domain("g", vec!["T".into(), "F".into()]);
        let strict = run(&cs, EquivalenceMode::Strict);
        assert_eq!(strict.kept(), 3);
        let aware = run(&cs, EquivalenceMode::ExecutionAware);
        assert_eq!(aware.kept(), 2);
        assert!(aware
            .removed
            .iter()
            .any(|r| r.to_string() == "F(a) -> S(b)"));
    }

    #[test]
    fn branch_completeness_removal() {
        // g →[T] x → j, g →[F] y → j, and a direct g → j: with domain
        // {T, F} the direct edge is covered by the two branch paths.
        let mut cs = cs_with(
            &["g", "x", "y", "j"],
            vec![
                Relation::before_if(
                    StateRef::finish("g"),
                    StateRef::start("x"),
                    Condition::new("g", "T"),
                    Origin::Control,
                ),
                Relation::before_if(
                    StateRef::finish("g"),
                    StateRef::start("y"),
                    Condition::new("g", "F"),
                    Origin::Control,
                ),
                before("x", "j", Origin::Data),
                before("y", "j", Origin::Data),
                before("g", "j", Origin::Control),
            ],
        );
        cs.add_domain("g", vec!["T".into(), "F".into()]);
        let aware = run(&cs, EquivalenceMode::ExecutionAware);
        assert_eq!(aware.kept(), 4);
        assert!(aware
            .removed
            .iter()
            .any(|r| r.to_string() == "F(g) -> S(j)"));
        // Strict mode must keep it.
        assert_eq!(run(&cs, EquivalenceMode::Strict).kept(), 5);
    }

    #[test]
    fn incomplete_domain_blocks_branch_removal() {
        let mut cs = cs_with(
            &["g", "x", "y", "j"],
            vec![
                Relation::before_if(
                    StateRef::finish("g"),
                    StateRef::start("x"),
                    Condition::new("g", "T"),
                    Origin::Control,
                ),
                Relation::before_if(
                    StateRef::finish("g"),
                    StateRef::start("y"),
                    Condition::new("g", "F"),
                    Origin::Control,
                ),
                before("x", "j", Origin::Data),
                before("y", "j", Origin::Data),
                before("g", "j", Origin::Control),
            ],
        );
        cs.add_domain("g", vec!["T".into(), "F".into(), "ERR".into()]);
        let aware = run(&cs, EquivalenceMode::ExecutionAware);
        assert_eq!(aware.kept(), 5, "a third branch value may occur");
    }

    #[test]
    fn cycle_reported_as_conflict() {
        let cs = cs_with(
            &["a", "b"],
            vec![
                before("a", "b", Origin::Data),
                before("b", "a", Origin::Cooperation),
            ],
        );
        let exec = ExecConditions::derive(&cs);
        let err = minimize(&cs, &exec, EquivalenceMode::Strict, &EdgeOrder::default())
            .unwrap_err();
        let MinimizeError::Conflict { cycle } = err;
        assert!(cycle.len() >= 3);
        // Baseline reports the same conflict.
        assert!(minimize_generic_baseline(
            &cs,
            &exec,
            EquivalenceMode::Strict,
            &EdgeOrder::default()
        )
        .is_err());
    }

    #[test]
    fn result_is_locally_minimal() {
        // Chain with many shortcuts; after minimization, re-running removes
        // nothing (Definition 6, second bullet).
        let mut rels = Vec::new();
        let names = ["a", "b", "c", "d", "e"];
        for i in 0..names.len() {
            for j in (i + 1)..names.len() {
                rels.push(before(names[i], names[j], Origin::Data));
            }
        }
        let cs = cs_with(&names, rels);
        let first = run(&cs, EquivalenceMode::ExecutionAware);
        assert_eq!(first.kept(), 4, "chain reduction");
        let second = run(&first.minimal, EquivalenceMode::ExecutionAware);
        assert!(second.removed.is_empty());
    }

    #[test]
    fn order_changes_which_duplicate_survives() {
        let cs = cs_with(
            &["a", "b"],
            vec![
                before("a", "b", Origin::Data),
                before("a", "b", Origin::Cooperation),
            ],
        );
        let exec = ExecConditions::derive(&cs);
        let given = minimize(&cs, &exec, EquivalenceMode::Strict, &EdgeOrder::Given).unwrap();
        // Given order offers the data copy first; it is removable while the
        // cooperation copy remains.
        assert_eq!(given.minimal.relations[0].origin(), Origin::Cooperation);
        let rev = minimize(
            &cs,
            &exec,
            EquivalenceMode::Strict,
            &EdgeOrder::ReverseGiven,
        )
        .unwrap();
        assert_eq!(rev.minimal.relations[0].origin(), Origin::Data);
        // Either way exactly one edge survives.
        assert_eq!(given.kept(), 1);
        assert_eq!(rev.kept(), 1);
    }

    #[test]
    fn state_granular_constraints_respected() {
        // S(a) → F(b) (overlapping lifetimes) is NOT implied by F(a) → S(b)
        // — the closure rows of S(a) differ.
        let cs = cs_with(
            &["a", "b"],
            vec![
                Relation::before(StateRef::start("a"), StateRef::finish("b"), Origin::Cooperation),
                before("a", "b", Origin::Data),
            ],
        );
        let res = run(&cs, EquivalenceMode::ExecutionAware);
        // F(a) → S(b) implies S(a) ... → S(b) → ... F(b)? S(a) reaches F(b)
        // through its own lifecycle (S→R→F of a, then F(a)→S(b)→...): so
        // S(a) → F(b) IS transitively implied and gets removed; the data
        // edge is load-bearing.
        assert_eq!(res.kept(), 1);
        assert_eq!(res.minimal.relations[0].origin(), Origin::Data);
    }

    #[test]
    fn fast_path_agrees_with_generic_on_unconditional_sets() {
        // Deterministic pseudo-random unconditional DAGs: the dispatch
        // (fast path), the optimized generic engine, and the sequential
        // baseline must keep exactly the same relations.
        let mut x: u64 = 0xD1B54A32D192ED03;
        let mut rnd = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for case in 0..20 {
            let n = 4 + (case % 5);
            let names: Vec<String> = (0..n).map(|i| format!("a{i}")).collect();
            let mut cs = ConstraintSet::new("rand");
            for a in &names {
                cs.add_activity(a.clone());
            }
            for i in 0..n {
                for j in (i + 1)..n {
                    if rnd() % 3 == 0 {
                        let origin = if rnd() % 2 == 0 {
                            Origin::Data
                        } else {
                            Origin::Cooperation
                        };
                        cs.push(Relation::before(
                            StateRef::finish(&names[i]),
                            StateRef::start(&names[j]),
                            origin,
                        ));
                    }
                }
            }
            let exec = ExecConditions::derive(&cs);
            for order in [EdgeOrder::Given, EdgeOrder::ReverseGiven, EdgeOrder::default()] {
                let fast = minimize_unconditional_fast(&cs, &order).unwrap();
                let generic =
                    minimize_generic(&cs, &exec, EquivalenceMode::Strict, &order).unwrap();
                let baseline =
                    minimize_generic_baseline(&cs, &exec, EquivalenceMode::Strict, &order)
                        .unwrap();
                assert_eq!(
                    kept_set(&fast),
                    kept_set(&generic),
                    "case {case}, order {order:?}"
                );
                assert_eq!(
                    kept_set(&generic),
                    kept_set(&baseline),
                    "case {case}, order {order:?} (baseline)"
                );
            }
        }
    }

    #[test]
    fn engine_agrees_with_baseline_on_conditional_sets() {
        // Hand-built conditional sets covering the prefilter edge cases:
        // same-guard duplicates, guarded shortcut chains, branch joins.
        let mut cs = cs_with(
            &["a", "g", "x", "y", "j", "z"],
            vec![
                before("a", "g", Origin::Data),
                Relation::before_if(
                    StateRef::finish("g"),
                    StateRef::start("x"),
                    Condition::new("g", "T"),
                    Origin::Control,
                ),
                Relation::before_if(
                    StateRef::finish("g"),
                    StateRef::start("y"),
                    Condition::new("g", "F"),
                    Origin::Control,
                ),
                before("x", "j", Origin::Data),
                before("y", "j", Origin::Data),
                before("g", "j", Origin::Control),
                before("a", "j", Origin::Cooperation),
                Relation::before_if(
                    StateRef::finish("g"),
                    StateRef::start("z"),
                    Condition::new("g", "T"),
                    Origin::Data,
                ),
                Relation::before_if(
                    StateRef::finish("g"),
                    StateRef::start("z"),
                    Condition::new("g", "T"),
                    Origin::Cooperation,
                ),
            ],
        );
        cs.add_domain("g", vec!["T".into(), "F".into()]);
        let exec = ExecConditions::derive(&cs);
        for mode in [
            EquivalenceMode::Strict,
            EquivalenceMode::ExecutionAware,
            EquivalenceMode::Reachability,
        ] {
            for order in [EdgeOrder::Given, EdgeOrder::ReverseGiven, EdgeOrder::default()] {
                for threads in [1usize, 4] {
                    let opts = MinimizeOptions {
                        threads,
                        ..Default::default()
                    };
                    let engine =
                        minimize_generic_with(&cs, &exec, mode, &order, &opts).unwrap();
                    let baseline =
                        minimize_generic_baseline(&cs, &exec, mode, &order).unwrap();
                    assert_eq!(
                        kept_set(&engine),
                        kept_set(&baseline),
                        "mode {mode:?}, order {order:?}, threads {threads}"
                    );
                    assert_eq!(engine.removed.len(), baseline.removed.len());
                }
            }
        }
    }

    #[test]
    fn fast_path_handles_lifecycle_shortcuts_and_duplicates() {
        // Constraint S(a) → F(a) is covered by a's own lifecycle.
        let mut cs = ConstraintSet::new("lc");
        cs.add_activity("a");
        cs.push(Relation::before(
            StateRef::start("a"),
            StateRef::finish("a"),
            Origin::Cooperation,
        ));
        let res = minimize_unconditional_fast(&cs, &EdgeOrder::default()).unwrap();
        assert_eq!(res.kept(), 0, "lifecycle covers it");
        // Triplicate edges: exactly one survives.
        let mut cs2 = ConstraintSet::new("dup");
        cs2.add_activity("x");
        cs2.add_activity("y");
        for _ in 0..3 {
            cs2.push(Relation::before(
                StateRef::finish("x"),
                StateRef::start("y"),
                Origin::Data,
            ));
        }
        let res2 = minimize_unconditional_fast(&cs2, &EdgeOrder::default()).unwrap();
        assert_eq!(res2.kept(), 1);
    }

    #[test]
    fn overlap_constraint_kept_when_not_implied() {
        // Only S(a) → F(b): nothing else implies it.
        let cs = cs_with(
            &["a", "b"],
            vec![Relation::before(
                StateRef::start("a"),
                StateRef::finish("b"),
                Origin::Cooperation,
            )],
        );
        let res = run(&cs, EquivalenceMode::ExecutionAware);
        assert_eq!(res.kept(), 1);
    }

    #[test]
    fn options_thread_resolution() {
        let three = MinimizeOptions {
            threads: 3,
            ..Default::default()
        };
        assert_eq!(three.effective_threads(), 3);
        assert!(MinimizeOptions::default().effective_threads() >= 1);
    }

    #[test]
    fn pool_cache_lru_eviction_preserves_results_and_counts_evictions() {
        // A capacity-1 memo churns through LRU eviction on nearly every
        // verdict; the minimal set must be unchanged and the telemetry
        // must show the evictions.
        let mut cs = cs_with(
            &["g", "x", "y", "j"],
            vec![
                Relation::before_if(
                    StateRef::finish("g"),
                    StateRef::start("x"),
                    Condition::new("g", "T"),
                    Origin::Control,
                ),
                Relation::before_if(
                    StateRef::finish("g"),
                    StateRef::start("y"),
                    Condition::new("g", "F"),
                    Origin::Control,
                ),
                before("x", "j", Origin::Data),
                before("y", "j", Origin::Data),
                before("g", "j", Origin::Control),
            ],
        );
        cs.add_domain("g", vec!["T".into(), "F".into()]);
        let exec = ExecConditions::derive(&cs);
        let order = EdgeOrder::default();
        let cached = minimize_generic_with(
            &cs,
            &exec,
            EquivalenceMode::ExecutionAware,
            &order,
            &MinimizeOptions::default(),
        )
        .unwrap();
        let evicting = minimize_generic_with(
            &cs,
            &exec,
            EquivalenceMode::ExecutionAware,
            &order,
            &MinimizeOptions {
                pool_cache_limit: 1,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(kept_set(&cached), kept_set(&evicting));
        assert!(cached.stats.pool_dnfs > 1);
        assert_eq!(cached.stats.implies_evictions, 0);
        assert!(evicting.stats.implies_evictions > 0);
        // The same verdict sequence was issued either way; eviction only
        // converts would-be hits into recomputed misses.
        assert_eq!(
            cached.stats.implies_cache_hits + cached.stats.implies_cache_misses,
            evicting.stats.implies_cache_hits + evicting.stats.implies_cache_misses,
            "same verdict sequence, different caching"
        );
        assert!(evicting.stats.implies_cache_misses >= cached.stats.implies_cache_misses);
        assert!(evicting.stats.implies_hit_rate() <= cached.stats.implies_hit_rate());
    }
}
