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
//! [`minimize_with`] runs one engine on every set, built on two ideas:
//!
//! 1. **Bitset rows, interned annotations** — a closure row
//!    ([`IRow`](dscweaver_graph::IRow)) keeps its `ALWAYS` targets as an
//!    unconditional reachability bitset; only the few conditional
//!    annotations are hash-consed into a [`DnfPool`] as sorted
//!    `(target, id)` pairs. All rows live in one flat
//!    [`IRows`] table. Row equality is word plus id-slice equality,
//!    `ALWAYS` entries compare as bitset differences, and
//!    unions/compositions/implications are memoized by id pair.
//! 2. **Bitset prefilters** — the rows answer reachability
//!    over the live edges (all edges, or unconditional edges only). A
//!    candidate with no alternate 2+-step path is rejected without
//!    touching annotations; a candidate with a same-guard (or unguarded)
//!    alternate that reaches its head unconditionally is accepted
//!    likewise. On fully unconditional inputs every candidate is decided
//!    here, so such a set costs one reachability closure and one bitset
//!    probe per candidate.
//!
//! Candidates the prefilters leave undecided recompose their tail row
//! and, only if that row weakened, every live ancestor's row, in
//! reverse-topological order on one thread, into reused staging buffers;
//! an accepted removal commits the staged rows in place. The result is pinned
//! edge-for-edge equal to the structural reference implementation, kept
//! as [`minimize_generic_baseline`].
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

use crate::exec::{dnf_and, implies_ids, implies_under, ExecConditions};
use crate::number::{Guard, IdGraph, Numbering};
use dscweaver_dscl::sync_graph::{SyncGraph, SyncNode};
use dscweaver_dscl::{Condition, ConstraintSet, Origin, Relation, SyncEdge};
use dscweaver_graph::annotated::{Dnf, Row};
use dscweaver_graph::iclosure::{
    compose_interned_row, interned_closure_ordered, AdjEdge, IRows, RowScratch,
};
use dscweaver_graph::{
    find_cycle, topo_sort, DiGraph, DnfId, DnfPool, EdgeId, LruCache, NodeId, TermId,
};
use dscweaver_obs as obs;
use std::collections::HashSet;

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

/// Options of [`minimize_with`].
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct MinimizeOptions {
    /// Ignored: the minimizer runs on one thread. Kept only so existing
    /// struct literals that set it still compile.
    pub threads: usize,
}

/// Capacity of the `implies` memo: at most this many verdicts (~1M) stay
/// cached, with least-recently-used eviction past the bound
/// ([`LruCache`]). Verdicts are pure, so the result is identical for any
/// bound; it only caps memory on adversarial inputs whose branch
/// combinations mint exponentially many distinct annotations, and
/// eviction degrades the hit rate instead of cutting caching off. Far
/// beyond anything the paper-scale workloads produce.
const IMPLIES_MEMO_LIMIT: usize = 1 << 20;

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

/// Interning and memo-cache counters from one engine run. All-zero for
/// [`minimize_generic_baseline`], which uses neither a pool nor an
/// `implies` cache.
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
    /// memo reached its bound of 2^20 verdicts.
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
    /// Interning/memoization telemetry (zero from the baseline).
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

/// [`minimize`] with explicit [`MinimizeOptions`]. Produces edge for
/// edge the same minimal set as [`minimize_generic_baseline`].
///
/// The set is numbered on entry (activities, state nodes, guards and
/// values become `u32` ids; ARCHITECTURE.md has the scheme) and the
/// engine runs on the ids; strings are touched again only to build the
/// minimal set and the removed list.
pub fn minimize_with(
    cs: &ConstraintSet,
    exec: &ExecConditions,
    mode: EquivalenceMode,
    order: &EdgeOrder,
    _opts: &MinimizeOptions,
) -> Result<MinimizeResult, MinimizeError> {
    let _span = obs::span("minimize");
    let _generic = generic_span(cs);
    let prepare = obs::span("minimize.prepare");
    let mut num = Numbering::new(cs);
    let exec = exec.to_ids(&mut num);
    generic(cs, &num, &exec, mode, order, IMPLIES_MEMO_LIMIT, prepare)
}

/// [`minimize`] on a set the weave has already numbered: `exec` holds
/// the execution condition of the activities of `num` by activity id
/// (`None`: always).
pub(crate) fn minimize_numbered(
    cs: &ConstraintSet,
    num: &Numbering,
    exec: &[Option<Dnf<Guard>>],
    mode: EquivalenceMode,
    order: &EdgeOrder,
) -> Result<MinimizeResult, MinimizeError> {
    let _span = obs::span("minimize");
    let _generic = generic_span(cs);
    let prepare = obs::span("minimize.prepare");
    generic(cs, num, exec, mode, order, IMPLIES_MEMO_LIMIT, prepare)
}

/// Puts removal candidates — `(edge, relation index)` pairs in relation
/// order — into `order`; `origin` gives a relation's origin.
fn order_candidates(
    mut candidates: Vec<(EdgeId, usize)>,
    order: &EdgeOrder,
    origin: impl Fn(usize) -> Origin,
) -> Vec<(EdgeId, usize)> {
    match order {
        EdgeOrder::Given => {}
        EdgeOrder::ReverseGiven => candidates.reverse(),
        EdgeOrder::ByDimension(priority) => {
            let rank = |o: Origin| -> usize {
                priority.iter().position(|&p| p == o).unwrap_or(priority.len())
            };
            candidates.sort_by_key(|&(_, i)| (rank(origin(i)), i));
        }
    }
    candidates
}

/// The constraint edges of a numbered graph with their relation indices,
/// in removal-candidate order.
fn id_candidates(num: &Numbering, graph: &IdGraph, order: &EdgeOrder) -> Vec<(EdgeId, usize)> {
    let candidates = graph
        .rel
        .iter()
        .enumerate()
        .map(|(k, &i)| (EdgeId((graph.lifecycle + k) as u32), i as usize))
        .collect();
    order_candidates(candidates, order, |i| num.rels[i].origin)
}

/// The conflict report for a cyclic numbered graph: the labels of one
/// cycle's nodes.
fn conflict(num: &Numbering, g: &DiGraph<(), Option<Guard>>) -> MinimizeError {
    let cycle = find_cycle(g).expect("a graph that does not sort has a cycle");
    MinimizeError::Conflict {
        cycle: cycle.iter().map(|n| num.label(n.0)).collect(),
    }
}

/// The minimal set (every relation of `cs` but the removed ones) and the
/// removed relations, in removal order.
fn output(cs: &ConstraintSet, removed: &[usize]) -> (ConstraintSet, Vec<Relation>) {
    let mut gone = vec![false; cs.relations.len()];
    for &i in removed {
        gone[i] = true;
    }
    let minimal = SyncGraph::subset(cs, &|i| !gone[i]);
    let removed = removed.iter().map(|&i| cs.relations[i].clone()).collect();
    (minimal, removed)
}

/// [`Engine::fresh_of`] for a node with no staged row.
const UNSTAGED: u32 = u32::MAX;

/// All mutable state of the greedy loop.
struct Engine<'a> {
    g: &'a DiGraph<(), Option<Guard>>,
    /// Declared domain per guard id.
    domains: &'a [Option<Vec<u32>>],
    mode: EquivalenceMode,
    pool: DnfPool<Guard>,
    /// Interned annotated-closure rows, by node index.
    rows: IRows,
    /// Rows recomputed for the current candidate, not yet committed.
    fresh: IRows,
    /// Per node index, its row's index in `fresh`, or [`UNSTAGED`].
    fresh_of: Vec<u32>,
    /// The node of each `fresh` row.
    staged: Vec<NodeId>,
    /// Interned execution condition per node (services: always).
    exec_ids: Vec<DnfId>,
    /// Direct-edge annotation id per edge index (`ALWAYS` when
    /// unconditional) — interned once so the greedy loop's row
    /// recompositions never hash a guard value.
    edge_gdnf: Vec<DnfId>,
    /// Singleton guard term per edge index (`None` when unconditional).
    edge_term: Vec<Option<TermId>>,
    /// Out-edges of node `n` as `(edge, head)` pairs in out-list order:
    /// `out[out_start[n]..out_start[n + 1]]`. The greedy loop scans these
    /// once per candidate, so they sit side by side.
    out_start: Vec<u32>,
    out: Vec<(EdgeId, NodeId)>,
    /// Dense per-row accumulator reused across recompositions.
    scratch: RowScratch,
    /// Out-edge buffer reused across recompositions.
    adj: Vec<AdjEdge>,
    /// Ancestor walk buffers: visited marks (all false between walks),
    /// the DFS stack and the ancestors found.
    seen: Vec<bool>,
    stack: Vec<NodeId>,
    affected: Vec<NodeId>,
    /// `(target, old id)` entries a coverage check must compare.
    changed: Vec<(u32, DnfId)>,
    /// Removed edges, by edge index.
    removed: Vec<bool>,
    topo_pos: Vec<usize>,
    /// Memoized `context ∧ old ⟹ new` verdicts, keyed by interned ids
    /// (domains are fixed per run, so the verdict is too). Bounded, with
    /// LRU eviction (see [`IMPLIES_MEMO_LIMIT`]).
    imp_cache: LruCache<(DnfId, DnfId, DnfId), bool>,
    imp_hits: u64,
    imp_misses: u64,
}

impl<'a> Engine<'a> {
    /// Builds the initial closure over `topo` (a topological order of
    /// `g`) into `pool`, which already holds the execution conditions.
    fn new(
        g: &'a DiGraph<(), Option<Guard>>,
        domains: &'a [Option<Vec<u32>>],
        mode: EquivalenceMode,
        mut pool: DnfPool<Guard>,
        exec_ids: Vec<DnfId>,
        memo_limit: usize,
        topo: &[NodeId],
    ) -> Engine<'a> {
        // The initial annotated closure, built directly in interned form
        // (see `dscweaver_graph::iclosure`).
        let lvl_span = obs::span("minimize.closure.levels");
        let (rows, cstats) =
            interned_closure_ordered(g, topo, &|_, w: &Option<Guard>| *w, &mut pool);
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

        // Per-edge guard tables for the greedy loop's recompositions
        // (every term/dnf below is already interned, so these are hits).
        let ebound = g.edge_bound();
        let mut out_start = Vec::with_capacity(bound + 1);
        let mut out = Vec::with_capacity(g.edge_count());
        out_start.push(0);
        for i in 0..bound {
            out.extend(g.out_edges(NodeId(i as u32)).map(|e| (e, g.endpoints(e).1)));
            out_start.push(out.len() as u32);
        }
        let mut edge_gdnf = vec![DnfPool::<Guard>::ALWAYS; ebound];
        let mut edge_term = vec![None; ebound];
        for e in g.edge_ids() {
            if let Some(c) = g.edge_weight(e) {
                edge_term[e.index()] = Some(pool.intern_term(std::slice::from_ref(c)));
                edge_gdnf[e.index()] = pool.of_guard(Some(c));
            }
        }

        Engine {
            g,
            domains,
            mode,
            pool,
            rows,
            fresh: IRows::new(bound, 0),
            fresh_of: vec![UNSTAGED; bound],
            staged: Vec::new(),
            exec_ids,
            edge_gdnf,
            edge_term,
            out_start,
            out,
            scratch: RowScratch::new(bound),
            adj: Vec::new(),
            seen: vec![false; bound],
            stack: Vec::new(),
            affected: Vec::new(),
            changed: Vec::new(),
            removed: vec![false; ebound],
            topo_pos,
            imp_cache: LruCache::new(memo_limit),
            imp_hits: 0,
            imp_misses: 0,
        }
    }

    /// Recomputes the interned row of `n` without `skip` and the removed
    /// edges, and stages it in `fresh`; successor rows come from `fresh`
    /// when staged there. Runs on the shared dense-scratch composer with
    /// the pre-interned per-edge guard tables — no maps, no guard
    /// hashing in the loop.
    fn stage(&mut self, n: NodeId, skip: EdgeId) {
        let mut adj = std::mem::take(&mut self.adj);
        adj.clear();
        adj.extend(
            self.out_of(n)
                .iter()
                .filter(|&&(e, _)| e != skip && !self.removed[e.index()])
                .map(|&(e, m)| (m.0, self.edge_gdnf[e.index()], self.edge_term[e.index()])),
        );
        let (rows, fresh, fresh_of) = (&self.rows, &self.fresh, &self.fresh_of);
        let row = compose_interned_row(&mut self.pool, &mut self.scratch, &adj, |m| {
            match fresh_of[m as usize] {
                UNSTAGED => rows.row(m as usize),
                k => fresh.row(k as usize),
            }
        });
        let k = self.fresh.push(row);
        self.fresh_of[n.index()] = k as u32;
        self.staged.push(n);
        self.adj = adj;
    }

    /// The `(edge, head)` out-edges of `n`.
    fn out_of(&self, n: NodeId) -> &[(EdgeId, NodeId)] {
        &self.out[self.out_start[n.index()] as usize..self.out_start[n.index() + 1] as usize]
    }

    /// Drops every staged row.
    fn unstage(&mut self) {
        for n in self.staged.drain(..) {
            self.fresh_of[n.index()] = UNSTAGED;
        }
        self.fresh.clear();
    }

    /// True if node `ni`'s staged row differs from its current one.
    fn changed(&self, ni: usize) -> bool {
        self.fresh.row(self.fresh_of[ni] as usize) != self.rows.row(ni)
    }

    /// Memoized `ctx ∧ old ⟹ new` over interned formulas. The memo is an
    /// LRU bounded to `memo_limit` verdicts: past the bound the
    /// coldest entries are evicted, so memory stays bounded while the hit
    /// rate degrades gracefully under churn — same answers either way.
    fn implies(&mut self, ctx: DnfId, old: DnfId, new: DnfId) -> bool {
        if old == new || old == DnfPool::<Guard>::EMPTY || ctx == DnfPool::<Guard>::EMPTY {
            return true;
        }
        if let Some(&b) = self.imp_cache.get(&(ctx, old, new)) {
            self.imp_hits += 1;
            return b;
        }
        let b = implies_ids(
            self.pool.dnf(ctx),
            self.pool.dnf(old),
            self.pool.dnf(new),
            self.domains,
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

    /// Definition 4/5: is node `ni`'s current row covered by its staged
    /// row?
    fn covered(&mut self, ni: usize) -> bool {
        let k = self.fresh_of[ni] as usize;
        let (old, new) = (self.rows.row(ni), self.fresh.row(k));
        match self.mode {
            EquivalenceMode::Strict => old == new,
            EquivalenceMode::Reachability => old.iter().all(|(t, _)| new.reaches(t as usize)),
            EquivalenceMode::ExecutionAware => {
                // Only the targets that lost `ALWAYS` or carry a
                // conditional id can differ; every other `ALWAYS` entry
                // is kept. Ascending target order, like a full row scan.
                let always = DnfPool::<Guard>::ALWAYS;
                let mut lost = old.always_not_in(new).peekable();
                let changed = &mut self.changed;
                changed.clear();
                for &(t, old_id) in old.cond() {
                    while let Some(l) = lost.next_if(|&l| l < t) {
                        changed.push((l, always));
                    }
                    changed.push((t, old_id));
                }
                changed.extend(lost.map(|l| (l, always)));
                for i in 0..self.changed.len() {
                    let (t, old_id) = self.changed[i];
                    let new_id = self.fresh.row(k).get(t).unwrap_or(DnfPool::<Guard>::EMPTY);
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
        // Equal guards intern to equal ids, and no guard to `ALWAYS`.
        let guard_c = self.edge_gdnf[cand.index()];
        self.out_of(u).iter().any(|&(oe, w)| {
            if oe == cand || self.removed[oe.index()] {
                return false;
            }
            let gw = self.edge_gdnf[oe.index()];
            if !(gw == DnfPool::<Guard>::ALWAYS || gw == guard_c) {
                return false;
            }
            w == v || self.rows.row(w.index()).is_always(v.index())
        })
    }

    /// Reject prefilter: with no alternate path `u ⇒ v` at all, `v` drops
    /// out of `u`'s row entirely. (On a DAG no path from a sibling head
    /// can route back through the candidate edge, so the closure queried
    /// *with* the candidate still answers this exactly.)
    fn has_alternate_path(&self, cand: EdgeId, u: NodeId, v: NodeId) -> bool {
        self.out_of(u).iter().any(|&(oe, w)| {
            oe != cand
                && !self.removed[oe.index()]
                && (w == v || self.rows.row(w.index()).reaches(v.index()))
        })
    }

    /// Collects the live-edge ancestors of `u` (inclusive) into
    /// `affected`, sorted so successors come before predecessors
    /// (descending topological position).
    fn affected_ancestors(&mut self, u: NodeId) {
        let g = self.g;
        let (seen, stack, affected) = (&mut self.seen, &mut self.stack, &mut self.affected);
        affected.clear();
        stack.push(u);
        seen[u.index()] = true;
        while let Some(x) = stack.pop() {
            affected.push(x);
            for e in g.in_edges(x) {
                if self.removed[e.index()] {
                    continue;
                }
                let (p, _) = g.endpoints(e);
                if !seen[p.index()] {
                    seen[p.index()] = true;
                    stack.push(p);
                }
            }
        }
        for n in affected.iter() {
            seen[n.index()] = false;
        }
        let topo_pos = &self.topo_pos;
        affected.sort_by_key(|n| std::cmp::Reverse(topo_pos[n.index()]));
    }

    /// One greedy step: decide `cand` and mutate state on acceptance.
    fn try_remove(&mut self, cand: EdgeId) -> bool {
        let g = self.g;
        let (u, v) = g.endpoints(cand);
        let ui = u.index();

        if self.prefilter_accept(cand, u, v) {
            // Row of u provably unchanged — no closure maintenance needed.
            self.removed[cand.index()] = true;
            return true;
        }

        if !self.has_alternate_path(cand, u, v) {
            match self.mode {
                EquivalenceMode::Strict | EquivalenceMode::Reachability => return false,
                EquivalenceMode::ExecutionAware => {
                    // v is lost from u's row entirely; salvageable only if
                    // the annotation was vacuous under the execution
                    // context (e.g. a dead branch combination).
                    let row = self.rows.row(ui);
                    let old_v = row.get(v.0).expect("candidate edge target must be in tail row");
                    let ctx = self.pool.and(self.exec_ids[ui], self.exec_ids[v.index()]);
                    if !self.implies(ctx, old_v, DnfPool::<Guard>::EMPTY) {
                        return false;
                    }
                }
            }
        }

        // General path: the full recomposed row of u.
        self.stage(u, cand);
        let verdict = self.decide(u, cand);
        self.unstage();
        if verdict {
            self.removed[cand.index()] = true;
        }
        verdict
    }

    /// Decides `cand` once the tail `u`'s row is staged, committing the
    /// rows it changes on acceptance.
    fn decide(&mut self, u: NodeId, cand: EdgeId) -> bool {
        let ui = u.index();
        if !self.changed(ui) {
            return true;
        }
        if !self.covered(ui) {
            return false;
        }

        // Slow path (rare): u's row weakened but stays covered — every
        // live ancestor's row must be recomputed and rechecked, then
        // committed in place.
        self.affected_ancestors(u);
        let affected = std::mem::take(&mut self.affected);
        for &n in affected.iter().filter(|&&n| n != u) {
            self.stage(n, cand);
        }
        let ok = affected
            .iter()
            .all(|&n| !self.changed(n.index()) || self.covered(n.index()));
        if ok {
            for &n in &affected {
                let k = self.fresh_of[n.index()] as usize;
                self.rows.set(n.index(), self.fresh.row(k));
            }
        }
        self.affected = affected;
        ok
    }
}

/// The `minimize.generic` span of a run over `cs`.
fn generic_span(cs: &ConstraintSet) -> obs::Span {
    obs::span_with("minimize.generic", || format!("relations={}", cs.relations.len()))
}

/// The engine, on the numbering `num` of `cs`, with an `implies` memo of
/// at most `memo_limit` verdicts. `prepare` is the open
/// `minimize.prepare` span, closed once the graph, its topological order
/// and the candidate order stand.
fn generic(
    cs: &ConstraintSet,
    num: &Numbering,
    exec: &[Option<Dnf<Guard>>],
    mode: EquivalenceMode,
    order: &EdgeOrder,
    memo_limit: usize,
    prepare: obs::Span,
) -> Result<MinimizeResult, MinimizeError> {
    let graph = num.graph();
    let g = &graph.g;
    // `topo_sort` fails exactly on a cycle; only then is the cycle
    // itself needed, for the conflict report.
    let Ok(topo) = topo_sort(g) else {
        return Err(conflict(num, g));
    };
    let candidates = id_candidates(num, &graph, order);
    // Execution conditions per node (services: always), interned in
    // activity order.
    let mut pool = DnfPool::new();
    let mut exec_ids = vec![DnfPool::<Guard>::ALWAYS; g.node_bound()];
    for (a, d) in exec.iter().enumerate().take(num.acts()) {
        if let Some(d) = d.as_ref().filter(|d| !d.is_always()) {
            exec_ids[3 * a..3 * a + 3].fill(pool.intern(d));
        }
    }
    drop(prepare);

    let closure_span = obs::span("minimize.closure");
    let mut eng = Engine::new(g, num.domains(), mode, pool, exec_ids, memo_limit, &topo);
    drop(closure_span);

    let greedy_span =
        obs::span_with("minimize.greedy", || format!("candidates={}", candidates.len()));
    let mut removed_rels: Vec<usize> = Vec::new();
    for &(cand, rel_idx) in &candidates {
        if eng.try_remove(cand) {
            removed_rels.push(rel_idx);
        }
    }
    let checked = candidates.len();
    drop(greedy_span);

    let _output = obs::span("minimize.output");
    let stats = eng.stats();
    drop(eng);
    drop(graph);
    let (minimal, removed) = output(cs, &removed_rels);
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
/// structural rows, no interning, no prefilters. Kept for the
/// equivalence property tests and as the before-side of the `ext_a`
/// benchmarks; [`minimize_with`] must match it edge for edge.
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
    let always = Dnf::always();
    let exec_of = |n: NodeId| match g.weight(n) {
        SyncNode::State(s) => exec.dnf(&s.activity),
        SyncNode::Service(_) => &always,
    };

    let candidates =
        order_candidates(sg.constraint_edges().collect(), order, |i| cs.relations[i].origin());

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
        if !row_covered(&rows[u.index()], &new_u, mode, exec_of(u), &exec_of, cs) {
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
            row_covered(&rows[n.index()], new_row, mode, exec_of(*n), &exec_of, cs)
        });

        if ok {
            removed_edges.insert(cand);
            removed_rels.push(rel_idx);
            for (n, row) in new_rows {
                rows[n.index()] = row;
            }
        }
    }

    let (minimal, removed) = output(cs, &removed_rels);
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
fn row_covered<'e>(
    old: &Row<Condition>,
    new: &Row<Condition>,
    mode: EquivalenceMode,
    src_exec: &Dnf<Condition>,
    exec_of: &dyn Fn(NodeId) -> &'e Dnf<Condition>,
    cs: &ConstraintSet,
) -> bool {
    match mode {
        EquivalenceMode::Strict => old == new,
        EquivalenceMode::ExecutionAware => old.iter().all(|(t, old_dnf)| {
            let empty = Dnf::empty();
            let new_dnf = new.get(t).unwrap_or(&empty);
            let ctx = dnf_and(src_exec, exec_of(t));
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

    const MODES: [EquivalenceMode; 3] = [
        EquivalenceMode::Strict,
        EquivalenceMode::ExecutionAware,
        EquivalenceMode::Reachability,
    ];

    fn orders() -> [EdgeOrder; 3] {
        [EdgeOrder::Given, EdgeOrder::ReverseGiven, EdgeOrder::default()]
    }

    /// Removed relations rendered, in removal order.
    fn removed_list(r: &MinimizeResult) -> Vec<String> {
        r.removed.iter().map(|x| format!("{x} ({})", x.origin())).collect()
    }

    #[test]
    fn engine_agrees_with_baseline_on_unconditional_sets() {
        // Deterministic pseudo-random unconditional DAGs: the engine and
        // the sequential baseline remove the same relations in the same
        // order, in every mode and order.
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
            for mode in MODES {
                for order in orders() {
                    let engine = minimize(&cs, &exec, mode, &order).unwrap();
                    let baseline = minimize_generic_baseline(&cs, &exec, mode, &order).unwrap();
                    let at = format!("case {case}, mode {mode:?}, order {order:?}");
                    assert_eq!(removed_list(&engine), removed_list(&baseline), "{at}");
                    assert_eq!(kept_set(&engine), kept_set(&baseline), "{at}");
                    assert_eq!(engine.candidates_checked, baseline.candidates_checked, "{at}");
                }
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
        for mode in MODES {
            for order in orders() {
                for threads in [1usize, 8] {
                    let opts = MinimizeOptions { threads };
                    let engine = minimize_with(&cs, &exec, mode, &order, &opts).unwrap();
                    let baseline = minimize_generic_baseline(&cs, &exec, mode, &order).unwrap();
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
    fn unconditional_lifecycle_shortcuts_and_duplicates_removed() {
        // Constraint S(a) → F(a) is covered by a's own lifecycle.
        let mut cs = ConstraintSet::new("lc");
        cs.add_activity("a");
        cs.push(Relation::before(
            StateRef::start("a"),
            StateRef::finish("a"),
            Origin::Cooperation,
        ));
        let res = run(&cs, EquivalenceMode::Strict);
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
        let res2 = run(&cs2, EquivalenceMode::Strict);
        assert_eq!(res2.kept(), 1);
    }

    #[test]
    fn unconditional_cycles_reported_as_pinned_conflicts() {
        // a ⇄ b, a lifecycle cycle (F(c) → S(c)) and a cycle with a DAG
        // tail hanging off it: each is reported as the same Conflict in
        // every mode, naming the pinned cycle.
        let two = cs_with(
            &["a", "b"],
            vec![
                before("a", "b", Origin::Data),
                before("b", "a", Origin::Cooperation),
            ],
        );
        let lifecycle = cs_with(&["c"], vec![before("c", "c", Origin::Data)]);
        let tail = cs_with(
            &["t", "x", "y", "z"],
            vec![
                before("x", "t", Origin::Data),
                before("x", "y", Origin::Data),
                before("y", "z", Origin::Data),
                before("z", "x", Origin::Cooperation),
            ],
        );
        let mut cycles = Vec::new();
        for cs in [two, lifecycle, tail] {
            let exec = ExecConditions::derive(&cs);
            let MinimizeError::Conflict { cycle } =
                minimize(&cs, &exec, EquivalenceMode::Strict, &EdgeOrder::default()).unwrap_err();
            for mode in MODES {
                let again = minimize(&cs, &exec, mode, &EdgeOrder::default()).unwrap_err();
                assert_eq!(
                    again,
                    MinimizeError::Conflict {
                        cycle: cycle.clone()
                    }
                );
            }
            cycles.push(cycle.join(" -> "));
        }
        assert_eq!(
            cycles,
            [
                "F(b) -> S(a) -> R(a) -> F(a) -> S(b) -> R(b) -> F(b)",
                "F(c) -> S(c) -> R(c) -> F(c)",
                "F(z) -> S(x) -> R(x) -> F(x) -> S(y) -> R(y) -> F(y) -> S(z) -> R(z) -> F(z)",
            ]
        );
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
        let (mode, order) = (EquivalenceMode::ExecutionAware, EdgeOrder::default());
        let cached = minimize(&cs, &exec, mode, &order).unwrap();
        let mut num = Numbering::new(&cs);
        let exec_ids = exec.to_ids(&mut num);
        let prepare = obs::span("minimize.prepare");
        let evicting = generic(&cs, &num, &exec_ids, mode, &order, 1, prepare).unwrap();
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
