//! Delta-aware re-weave (§4.4 under evolution): carry the interned
//! closure, the per-candidate greedy verdicts, and the [`DnfPool`] across
//! pipeline runs, and after a small specification edit recompute only
//! what the edit can actually reach.
//!
//! [`WeaveSession`] wraps a [`Weaver`] configuration with persistent
//! state. The first [`WeaveSession::weave`] call runs the full pipeline
//! while recording a memo (topo levels, pre-greedy closure rows, pool,
//! decision classes); subsequent calls diff the translated ASC against
//! the previous one ([`crate::diff`]), update the closure incrementally
//! ([`interned_closure_delta`] — cost proportional to the edit's
//! propagation cone), and re-screen only the candidates whose decision
//! inputs changed, replaying every other recorded verdict. Edits that
//! perturb the level structure, the activity/service sets, or the guard
//! domains fall back to a full rebuild — same results, full price.
//!
//! The kept/removed sets are pinned equal to a from-scratch
//! [`Weaver::run`] (property-tested across random edit bursts), and the
//! session's own artifacts — rows, pool numbering, fingerprint — are
//! bit-identical across thread counts.
//!
//! ## Replay soundness (why reusing a verdict is exact, not heuristic)
//!
//! A candidate `u → v` the prefilters leave undecided is decided by a
//! pure function of: `u`'s live out-edges (guards plus removed-so-far
//! status), the *initial* rows of `u` and its live out-neighbors (rows
//! mutate only through rare slow-path commits, which are tracked), the
//! interned execution conditions, and the guard domains. The bitset
//! prefilters are functions of the same inputs (they read the rows' own
//! reachability bitsets). A recorded
//! row-level verdict (`AcceptRowUnchanged` / `RejectNotCovered`) is
//! therefore replayed only when:
//!
//! * the candidate matches its record positionally at its tail (same
//!   structural key, same per-tail order) and no earlier decision at
//!   that tail diverged,
//! * the tail's out-edge signature did not change in the edit,
//! * neither `u` nor any live out-neighbor had its row changed — by the
//!   delta closure update or by a slow-path commit in either run,
//! * for execution-aware coverage verdicts, no execution condition
//!   changed (ids compared under the shared pool).
//!
//! Everything else — including every prefilter-decided and every
//! slow-path candidate — is re-executed against the live engine.
//! Prefilter decisions are as cheap to redo as to match, and slow-path
//! commits mutate state, so neither class is worth replaying.

use crate::dependency::DependencySet;
use crate::diff::{diff_constraint_sets, ConstraintDiff};
use crate::exec::ExecConditions;
use crate::minimize::{
    order_candidates, Decision, Engine, EquivalenceMode, MinimizeError, MinimizeOptions,
};
use crate::pipeline::{Weaver, WeaverError, WeaverOutput};
use crate::translate::TranslationReport;
use dscweaver_dscl::sync_graph::{SyncEdge, SyncGraph, SyncNode};
use dscweaver_dscl::{Condition, ConstraintSet, Origin};
use dscweaver_graph::{
    find_cycle, interned_closure, interned_closure_delta, DiGraph, DnfId, DnfPool, FxHashMap,
    IRow, NodeId,
};
use dscweaver_graph::topo_sort;
use dscweaver_obs as obs;
use std::collections::{HashMap, VecDeque};

/// Structural identity of a removal candidate: tail, head, guard,
/// dimension. Stable across rebuilds of the same activity/service sets
/// (node ids are deterministic), insensitive to relation re-indexing.
type CandKey = (u32, u32, Option<Condition>, Origin);

/// Sorted out-edge signature of one node — the unit of "did this tail's
/// edges change" between two builds.
type OutSig = Vec<(u32, Option<Condition>, Origin, bool)>;

/// Persistent minimizer state carried between weaves of one session.
#[derive(Clone)]
struct WeaveMemo {
    /// The shared hash-consing pool — append-only, so ids recorded in
    /// `rows0` stay valid across delta updates.
    pool: DnfPool<Condition>,
    /// Pre-greedy interned closure rows of the last build (slow-path
    /// overwrites undone), the input the next delta update edits.
    rows0: Vec<IRow>,
    /// Longest-path-to-sink level per node.
    levels: Vec<usize>,
    /// Interned execution condition per node.
    exec_ids: Vec<DnfId>,
    /// Per-candidate decisions of the last run, in candidate order.
    records: Vec<(CandKey, Decision)>,
    /// Nodes whose rows a slow-path commit touched in the last run.
    slow_touched: Vec<u32>,
    /// Out-edge signature per node of the last graph.
    out_sigs: Vec<OutSig>,
}

#[derive(Clone)]
struct SessionState {
    memo: WeaveMemo,
    output: WeaverOutput,
}

/// A weaver with memory: weave once, then re-weave cheap deltas. See the
/// module docs for the incremental contract.
#[derive(Clone)]
pub struct WeaveSession {
    weaver: Weaver,
    state: Option<SessionState>,
}

/// How one [`WeaveSession::weave`] call was served.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReweavePath {
    /// First successful weave of the session — full build, memo recorded.
    Initial,
    /// Incremental: delta closure update plus record replay.
    Delta,
    /// The diff could not be applied incrementally (reason attached);
    /// full rebuild, memo re-recorded.
    Fallback(String),
}

/// Telemetry for one weave through a session.
#[derive(Clone, Debug)]
pub struct ReweaveReport {
    /// Which path served the call.
    pub path: ReweavePath,
    /// ASC-level diff against the previous weave (empty on the first).
    pub diff: ConstraintDiff,
    /// Closure rows the delta wavefront recomposed (full node count on
    /// the non-incremental paths).
    pub rows_recomputed: usize,
    /// Closure rows that actually changed.
    pub rows_changed: usize,
    /// Levels the delta wavefront visited.
    pub delta_levels: usize,
    /// Total removal candidates examined.
    pub candidates_total: usize,
    /// Candidates re-executed against the live engine.
    pub candidates_rescreened: usize,
    /// Candidates whose recorded verdict was replayed.
    pub candidates_reused: usize,
    /// Order-sensitive fingerprint of the session state after this weave
    /// (initial rows, pool size, kept set). Bit-stable across thread
    /// counts and equal for a fresh weave and a re-weave of the same
    /// input; the value itself is a per-build digest with no meaning
    /// across builds of the library.
    pub fingerprint: u64,
}

impl ReweaveReport {
    fn new(path: ReweavePath, diff: ConstraintDiff) -> ReweaveReport {
        ReweaveReport {
            path,
            diff,
            rows_recomputed: 0,
            rows_changed: 0,
            delta_levels: 0,
            candidates_total: 0,
            candidates_rescreened: 0,
            candidates_reused: 0,
            fingerprint: 0,
        }
    }
}

/// Carries the pipeline front half back out of a failed delta attempt so
/// the fallback rebuild does not redo it.
struct DeltaAbort {
    reason: String,
    sc: ConstraintSet,
    exec: ExecConditions,
    asc: ConstraintSet,
    translation: TranslationReport,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(h: &mut u64, x: u64) {
    *h ^= x;
    *h = h.wrapping_mul(FNV_PRIME);
}

/// Fingerprint over the bit-stable session artifacts. A row hashes as
/// its `uncond` words then its conditional entries (`reach` is derived
/// from the two).
fn fingerprint(memo: &WeaveMemo, removed_rels: &[usize]) -> u64 {
    let mut h = FNV_OFFSET;
    fnv(&mut h, memo.rows0.len() as u64);
    for row in &memo.rows0 {
        for &w in row.uncond().words() {
            fnv(&mut h, w);
        }
        fnv(&mut h, row.cond().len() as u64);
        for &(t, d) in row.cond() {
            fnv(&mut h, (t as u64) << 32 | d.0 as u64);
        }
    }
    fnv(&mut h, memo.pool.dnf_count() as u64);
    fnv(&mut h, memo.pool.term_count() as u64);
    for &id in &memo.exec_ids {
        fnv(&mut h, id.0 as u64);
    }
    for &i in removed_rels {
        fnv(&mut h, i as u64);
    }
    h
}

/// Longest-path-to-sink levels — the same schedule `iclosure` computes.
fn levels_of(g: &DiGraph<SyncNode, SyncEdge>, topo: &[NodeId]) -> Vec<usize> {
    let mut level = vec![0usize; g.node_bound()];
    for &n in topo.iter().rev() {
        let l = g
            .successors(n)
            .map(|m| level[m.index()] + 1)
            .max()
            .unwrap_or(0);
        level[n.index()] = l;
    }
    level
}

/// Sorted out-edge signatures of every node.
fn out_sigs(g: &DiGraph<SyncNode, SyncEdge>) -> Vec<OutSig> {
    let mut sigs: Vec<OutSig> = vec![Vec::new(); g.node_bound()];
    for n in g.node_ids() {
        let sig = &mut sigs[n.index()];
        for e in g.out_edges(n) {
            let (_, m) = g.endpoints(e);
            let w = g.edge_weight(e);
            sig.push((m.0, w.cond.clone(), w.origin, w.is_lifecycle()));
        }
        sig.sort();
    }
    sigs
}

fn cand_key(g: &DiGraph<SyncNode, SyncEdge>, e: dscweaver_graph::EdgeId) -> CandKey {
    let (u, v) = g.endpoints(e);
    let w = g.edge_weight(e);
    (u.0, v.0, w.cond.clone(), w.origin)
}

fn conflict_err(g: &DiGraph<SyncNode, SyncEdge>, cycle: &[NodeId]) -> WeaverError {
    WeaverError::Conflict(MinimizeError::Conflict {
        cycle: cycle.iter().map(|&n| g.weight(n).label()).collect(),
    })
}

impl WeaveSession {
    /// A fresh session around the given pipeline configuration.
    pub fn new(weaver: Weaver) -> WeaveSession {
        WeaveSession {
            weaver,
            state: None,
        }
    }

    /// The configuration this session weaves with.
    pub fn config(&self) -> &Weaver {
        &self.weaver
    }

    /// The output of the last successful weave, if any. Failed weaves
    /// (validation errors, conflicts) leave the previous output — and the
    /// incremental state — intact.
    pub fn output(&self) -> Option<&WeaverOutput> {
        self.state.as_ref().map(|s| &s.output)
    }

    /// A shareable frozen snapshot of the session's hash-consing pool
    /// after the last successful weave (`None` before the first). The
    /// snapshot is immutable and cheap to clone across threads; the
    /// session keeps its own live pool, so later re-weaves do not
    /// invalidate handed-out snapshots.
    pub fn frozen_pool(&self) -> Option<dscweaver_graph::FrozenDnfPool<Condition>> {
        self.state
            .as_ref()
            .map(|s| s.memo.pool.clone().freeze())
    }

    /// Weaves `ds`, reusing the previous weave's state when the diff
    /// allows. Results are always identical to a fresh [`Weaver::run`];
    /// the report says which path produced them and what it cost.
    pub fn weave(&mut self, ds: &DependencySet) -> Result<ReweaveReport, WeaverError> {
        let _span = obs::span_with("reweave", || ds.name.clone());
        let (sc, exec, asc, translation) = self.weaver.prepare(ds)?;
        let threads = MinimizeOptions {
            threads: self.weaver.threads,
            ..Default::default()
        }
        .effective_threads();

        // Classify the edit against the previous ASC.
        let mut fallback_reason: Option<String> = None;
        let (path, diff) = match &self.state {
            None => (ReweavePath::Initial, ConstraintDiff::default()),
            Some(prev) => {
                let diff_span = obs::span("reweave.diff");
                let old = &prev.output.asc;
                let diff = diff_constraint_sets(old, &asc);
                drop(diff_span);
                if old.activities != asc.activities || old.services != asc.services {
                    fallback_reason = Some("activity or service set changed".into());
                } else if old.domains != asc.domains {
                    // Domains parameterize every branch-completeness
                    // verdict, so no recorded decision survives.
                    fallback_reason = Some("guard domains changed".into());
                }
                match fallback_reason.clone() {
                    Some(r) => (ReweavePath::Fallback(r), diff),
                    None => (ReweavePath::Delta, diff),
                }
            }
        };
        let mut report = ReweaveReport::new(path, diff);

        if report.path == ReweavePath::Delta {
            // Cycle check before consuming any session state: a bad edit
            // must report the same conflict as a fresh run and leave the
            // previous weave available.
            let sg = SyncGraph::build(&asc);
            if let Some(cycle) = find_cycle(&sg.graph) {
                return Err(conflict_err(&sg.graph, &cycle));
            }
            let prev = self.state.take().expect("delta path requires state");
            match Self::delta_build(
                &self.weaver,
                threads,
                ds,
                sc,
                exec,
                asc,
                translation,
                sg,
                prev.memo,
                &mut report,
            ) {
                Ok(state) => {
                    self.state = Some(state);
                    return Ok(report);
                }
                Err(abort) => {
                    obs::counter_add("reweave.fallbacks", 1);
                    report.path = ReweavePath::Fallback(abort.reason);
                    let state = Self::full_build(
                        &self.weaver,
                        threads,
                        ds,
                        abort.sc,
                        abort.exec,
                        abort.asc,
                        abort.translation,
                        &mut report,
                    )?;
                    self.state = Some(state);
                    return Ok(report);
                }
            }
        }

        if fallback_reason.is_some() {
            obs::counter_add("reweave.fallbacks", 1);
        }
        let state =
            Self::full_build(&self.weaver, threads, ds, sc, exec, asc, translation, &mut report)?;
        self.state = Some(state);
        Ok(report)
    }

    /// From-scratch build that records a fresh memo. Serves the initial
    /// weave and every fallback.
    #[allow(clippy::too_many_arguments)]
    fn full_build(
        weaver: &Weaver,
        threads: usize,
        ds: &DependencySet,
        sc: ConstraintSet,
        exec: ExecConditions,
        asc: ConstraintSet,
        translation: TranslationReport,
        report: &mut ReweaveReport,
    ) -> Result<SessionState, WeaverError> {
        let sg = SyncGraph::build(&asc);
        let g = &sg.graph;
        if let Some(cycle) = find_cycle(g) {
            return Err(conflict_err(g, &cycle));
        }
        let topo = topo_sort(g).expect("cycle-free graph must sort");
        let levels = levels_of(g, &topo);

        let mut pool = DnfPool::new();
        let closure_span = obs::span("reweave.closure");
        let (irows, cstats) =
            interned_closure(g, &|_, w: &SyncEdge| w.cond.clone(), &mut pool, threads)
                .expect("cycle-free graph must close");
        drop(closure_span);
        report.rows_recomputed = cstats.rows;
        report.rows_changed = cstats.rows;

        let eng = Engine::with_closure(
            g,
            &asc,
            &exec,
            weaver.mode,
            // Sequential greedy phase: the engine's parallel slow path is
            // result-identical but pool-numbering-dependent on thread
            // count, and the session fingerprints its pool.
            1,
            MinimizeOptions::default().pool_cache_limit,
            &topo,
            pool,
            irows,
        );
        let (removed_rels, memo) =
            Self::screen_all(eng, g, &sg, weaver, levels, out_sigs(g), None, report);

        Self::finish(ds, sc, exec, asc, translation, &sg, memo, removed_rels, report)
    }

    /// The delta path: incremental closure update plus record replay.
    /// Errors carry the front half back out so the fallback rebuild can
    /// reuse it.
    #[allow(clippy::too_many_arguments)]
    fn delta_build(
        weaver: &Weaver,
        threads: usize,
        ds: &DependencySet,
        sc: ConstraintSet,
        exec: ExecConditions,
        asc: ConstraintSet,
        translation: TranslationReport,
        sg: SyncGraph,
        memo: WeaveMemo,
        report: &mut ReweaveReport,
    ) -> Result<SessionState, Box<DeltaAbort>> {
        let abort = |reason: &str, sc, exec, asc, translation| {
            Box::new(DeltaAbort {
                reason: reason.to_string(),
                sc,
                exec,
                asc,
                translation,
            })
        };
        let g = &sg.graph;
        if g.node_bound() != memo.levels.len() {
            return Err(abort("node structure changed", sc, exec, asc, translation));
        }
        // Tails whose out-edge signature changed: the only places the
        // closure — or a candidate list — can differ.
        let sigs_span = obs::span("reweave.sigs");
        let sigs2 = out_sigs(g);
        let changed_tails: Vec<u32> = (0..g.node_bound() as u32)
            .filter(|&n| memo.out_sigs[n as usize] != sigs2[n as usize])
            .collect();
        drop(sigs_span);

        let WeaveMemo {
            mut pool,
            mut rows0,
            levels,
            exec_ids: old_exec_ids,
            records,
            slow_touched,
            out_sigs: _,
        } = memo;

        let delta_span = obs::span_with("reweave.closure.delta", || {
            format!("changed_tails={}", changed_tails.len())
        });
        let delta = interned_closure_delta(
            g,
            &|_, w: &SyncEdge| w.cond.clone(),
            &mut pool,
            threads,
            &mut rows0,
            &levels,
            &changed_tails,
        );
        drop(delta_span);
        let Some((changed_rows, dstats)) = delta else {
            return Err(abort(
                "edit perturbs the level structure",
                sc,
                exec,
                asc,
                translation,
            ));
        };
        report.rows_recomputed = dstats.recomputed;
        report.rows_changed = dstats.changed;
        report.delta_levels = dstats.levels_touched;
        obs::counter_add("reweave.delta.levels", dstats.levels_touched as u64);
        obs::counter_add("reweave.rows_recomputed", dstats.recomputed as u64);

        let topo = topo_sort(g).expect("cycle-free graph must sort");
        let engine_span = obs::span("reweave.engine");
        let eng = Engine::with_closure(
            g,
            &asc,
            &exec,
            weaver.mode,
            1,
            MinimizeOptions::default().pool_cache_limit,
            &topo,
            pool,
            rows0,
        );
        drop(engine_span);
        // Execution conditions are structural formulas interned into the
        // *shared* pool, so id equality is exact structural equality.
        let exec_dirty = eng.exec_ids != old_exec_ids;

        let mut unclean = vec![false; g.node_bound()];
        for &n in &changed_rows {
            unclean[n as usize] = true;
        }
        for &n in &slow_touched {
            unclean[n as usize] = true;
        }
        let mut tail_ok = vec![true; g.node_bound()];
        for &n in &changed_tails {
            tail_ok[n as usize] = false;
        }
        // Recorded verdicts, positionally per tail.
        let mut queues: FxHashMap<u32, VecDeque<(CandKey, Decision)>> = FxHashMap::default();
        for (key, d) in records {
            queues.entry(key.0).or_default().push_back((key, d));
        }

        let replay = ReplayCtx {
            queues,
            tail_ok,
            unclean,
            exec_dirty,
            mode: weaver.mode,
        };
        let (removed_rels, memo) =
            Self::screen_all(eng, g, &sg, weaver, levels, sigs2, Some(replay), report);
        obs::counter_add("reweave.candidates_rescreened", report.candidates_rescreened as u64);
        obs::counter_add("reweave.candidates_reused", report.candidates_reused as u64);

        Ok(Self::finish(ds, sc, exec, asc, translation, &sg, memo, removed_rels, report)
            .expect("cycle already excluded"))
    }

    /// The recording greedy loop, shared by both paths: decide every
    /// candidate (replaying where the context allows), then dismantle the
    /// engine into the next memo. `sigs` are the out-edge signatures of
    /// `g`, computed once by the caller.
    #[allow(clippy::too_many_arguments)]
    fn screen_all(
        mut eng: Engine<'_>,
        g: &DiGraph<SyncNode, SyncEdge>,
        sg: &SyncGraph,
        weaver: &Weaver,
        levels: Vec<usize>,
        sigs: Vec<OutSig>,
        mut replay: Option<ReplayCtx>,
        report: &mut ReweaveReport,
    ) -> (Vec<usize>, WeaveMemo) {
        eng.row_undo = Some(HashMap::new());
        let candidates = order_candidates(g, sg, &weaver.order);
        report.candidates_total = candidates.len();
        let screen_span =
            obs::span_with("reweave.screen", || format!("candidates={}", candidates.len()));
        let mut records: Vec<(CandKey, Decision)> = Vec::with_capacity(candidates.len());
        let mut removed_rels: Vec<usize> = Vec::new();
        for &(cand, rel_idx) in &candidates {
            let key = cand_key(g, cand);
            let decision = match &mut replay {
                Some(ctx) => ctx.decide(&mut eng, g, cand, &key, report),
                None => {
                    report.candidates_rescreened += 1;
                    eng.try_remove_classified(cand, None)
                }
            };
            if decision.removed() {
                removed_rels.push(rel_idx);
            }
            records.push((key, decision));
        }
        drop(screen_span);

        // Dismantle: undo slow-path row swaps so the memo keeps the
        // pre-greedy closure (the delta update's expected input).
        let Engine {
            pool,
            irows,
            exec_ids,
            dirty_rows,
            row_undo,
            ..
        } = eng;
        let mut rows0 = irows;
        if let Some(undo) = row_undo {
            for (ni, old) in undo {
                rows0[ni] = old;
            }
        }
        let mut slow_touched: Vec<u32> = dirty_rows.iter().map(|&i| i as u32).collect();
        slow_touched.sort_unstable();
        let memo = WeaveMemo {
            pool,
            rows0,
            levels,
            exec_ids,
            records,
            slow_touched,
            out_sigs: sigs,
        };
        (removed_rels, memo)
    }

    /// Assembles the output and the session state.
    #[allow(clippy::too_many_arguments)]
    fn finish(
        ds: &DependencySet,
        sc: ConstraintSet,
        exec: ExecConditions,
        asc: ConstraintSet,
        translation: TranslationReport,
        _sg: &SyncGraph,
        memo: WeaveMemo,
        removed_rels: Vec<usize>,
        report: &mut ReweaveReport,
    ) -> Result<SessionState, WeaverError> {
        let _span = obs::span("reweave.finish");
        report.fingerprint = fingerprint(&memo, &removed_rels);
        let mut is_removed = vec![false; asc.relations.len()];
        for &i in &removed_rels {
            is_removed[i] = true;
        }
        // The three output pieces are independent read-only clones of the
        // inputs; on large processes they dominate the post-screening cost,
        // so build them on separate threads. Clones are deterministic, so
        // this cannot perturb the bit-identical-to-fresh guarantee.
        let (minimal, removed, dependencies) = if asc.relations.len() >= 4096 {
            std::thread::scope(|s| {
                let minimal = s.spawn(|| SyncGraph::subset(&asc, &|i| !is_removed[i]));
                let removed = s.spawn(|| {
                    removed_rels
                        .iter()
                        .map(|&i| asc.relations[i].clone())
                        .collect::<Vec<_>>()
                });
                let dependencies = ds.clone();
                (minimal.join().unwrap(), removed.join().unwrap(), dependencies)
            })
        } else {
            (
                SyncGraph::subset(&asc, &|i| !is_removed[i]),
                removed_rels
                    .iter()
                    .map(|&i| asc.relations[i].clone())
                    .collect(),
                ds.clone(),
            )
        };
        let output = WeaverOutput {
            dependencies,
            sc,
            exec,
            asc,
            translation,
            minimal,
            removed,
        };
        Ok(SessionState { memo, output })
    }
}

/// Replay context for the delta path's screening loop.
struct ReplayCtx {
    queues: FxHashMap<u32, VecDeque<(CandKey, Decision)>>,
    tail_ok: Vec<bool>,
    unclean: Vec<bool>,
    exec_dirty: bool,
    mode: EquivalenceMode,
}

impl ReplayCtx {
    /// Decide one candidate: replay the recorded verdict when every
    /// soundness condition holds, else re-execute and track divergence.
    fn decide(
        &mut self,
        eng: &mut Engine<'_>,
        g: &DiGraph<SyncNode, SyncEdge>,
        cand: dscweaver_graph::EdgeId,
        key: &CandKey,
        report: &mut ReweaveReport,
    ) -> Decision {
        let (u, v) = g.endpoints(cand);
        let ui = u.index();
        let rec = self
            .queues
            .get_mut(&key.0)
            .and_then(|q| q.pop_front());
        let rec = match rec {
            Some((rkey, d)) if rkey == *key => Some(d),
            Some(_) => {
                // Positional mismatch: the tail's candidate sequence
                // changed in a way the signature diff did not flag
                // (e.g. relations reordered). Stop replaying this tail.
                self.tail_ok[ui] = false;
                None
            }
            None => None,
        };

        if let Some(d) = rec {
            if self.replayable(eng, g, cand, u, v, d) {
                if d.removed() {
                    eng.removed.insert(cand);
                    eng.dirty_tails.insert(ui);
                }
                report.candidates_reused += 1;
                return d;
            }
            report.candidates_rescreened += 1;
            let fresh = eng.try_remove_classified(cand, None);
            if fresh.removed() != d.removed() {
                // The verdict flipped: later records at this tail assumed
                // a different live-edge history.
                self.tail_ok[ui] = false;
            }
            fresh
        } else {
            report.candidates_rescreened += 1;
            eng.try_remove_classified(cand, None)
        }
    }

    /// The full eligibility check from the module docs.
    fn replayable(
        &self,
        eng: &Engine<'_>,
        g: &DiGraph<SyncNode, SyncEdge>,
        cand: dscweaver_graph::EdgeId,
        u: NodeId,
        v: NodeId,
        d: Decision,
    ) -> bool {
        let ui = u.index();
        if !self.tail_ok[ui] {
            return false;
        }
        // Only row-level verdicts are worth replaying; everything else is
        // re-executed (prefilter classes are as cheap to redo, slow-path
        // classes mutate state).
        let row_class = matches!(d, Decision::AcceptRowUnchanged | Decision::RejectNotCovered);
        if !row_class {
            return false;
        }
        // Coverage verdicts consult execution conditions only in
        // execution-aware mode; row-identity never does.
        if self.exec_dirty
            && d == Decision::RejectNotCovered
            && self.mode == EquivalenceMode::ExecutionAware
        {
            return false;
        }
        // The record applies only to the prefilter-undecided route.
        if eng.prefilter_accept(cand, u, v) || !eng.has_alternate_path(cand, u, v) {
            return false;
        }
        // Row inputs must be untouched in both runs: the tail itself and
        // every live out-neighbor.
        let clean = |ni: usize| !self.unclean[ni] && !eng.dirty_rows.contains(&ni);
        if !clean(ui) {
            return false;
        }
        g.out_edges(u).all(|oe| {
            oe == cand || eng.removed.contains(&oe) || {
                let (_, m) = g.endpoints(oe);
                clean(m.index())
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dependency::Dependency;

    fn base() -> DependencySet {
        let mut ds = DependencySet::new("evolve");
        for a in ["a", "g", "b", "c", "d"] {
            ds.add_activity(a);
        }
        ds.add_domain("g", vec!["T".into(), "F".into()]);
        ds.push(Dependency::data("a", "g"));
        ds.push(Dependency::control("g", "b", "T"));
        ds.push(Dependency::control("g", "c", "F"));
        ds.push(Dependency::data("b", "d"));
        ds.push(Dependency::data("c", "d"));
        ds.push(Dependency::data("a", "b")); // redundant under exec-awareness
        ds.push(Dependency::cooperation("a", "d")); // shortcut
        ds
    }

    fn rendered(out: &WeaverOutput) -> (String, Vec<String>) {
        let mut kept: Vec<String> = out
            .minimal
            .happen_befores()
            .map(|r| format!("{r} [{}]", r.origin()))
            .collect();
        kept.sort();
        (
            kept.join("\n"),
            out.removed.iter().map(|r| r.to_string()).collect(),
        )
    }

    fn assert_matches_fresh(session: &WeaveSession, ds: &DependencySet) {
        let fresh = session.weaver.run(ds).expect("fresh weave");
        let out = session.output().expect("session output");
        assert_eq!(rendered(out), rendered(&fresh));
    }

    #[test]
    fn initial_weave_matches_run() {
        let mut s = Weaver::new().session();
        let rep = s.weave(&base()).unwrap();
        assert_eq!(rep.path, ReweavePath::Initial);
        assert!(rep.diff.is_empty());
        assert_matches_fresh(&s, &base());
    }

    #[test]
    fn identity_reweave_is_pure_replay() {
        let mut s = Weaver::new().session();
        let rep0 = s.weave(&base()).unwrap();
        let rep1 = s.weave(&base()).unwrap();
        assert_eq!(rep1.path, ReweavePath::Delta);
        assert!(rep1.diff.is_empty());
        assert_eq!(rep1.rows_recomputed, 0);
        assert_eq!(rep1.rows_changed, 0);
        assert_eq!(rep1.fingerprint, rep0.fingerprint);
        assert_matches_fresh(&s, &base());
    }

    #[test]
    fn edit_takes_delta_path_and_matches_fresh() {
        let mut s = Weaver::new().session();
        s.weave(&base()).unwrap();
        // Level-stable edit: another redundant shortcut along a → b → d.
        let mut v2 = base();
        v2.push(Dependency::cooperation("b", "d"));
        let rep = s.weave(&v2).unwrap();
        assert_eq!(rep.path, ReweavePath::Delta, "{:?}", rep.diff);
        assert!(rep.rows_recomputed < 15, "cone should be small");
        assert_matches_fresh(&s, &v2);
        // And back to v1 (edge delete).
        let rep = s.weave(&base()).unwrap();
        assert_eq!(rep.path, ReweavePath::Delta);
        assert_matches_fresh(&s, &base());
    }

    #[test]
    fn cycle_edit_errors_and_preserves_state() {
        let mut s = Weaver::new().session();
        s.weave(&base()).unwrap();
        let fp = s.weave(&base()).unwrap().fingerprint;
        let mut bad = base();
        bad.push(Dependency::cooperation("d", "a"));
        let err = s.weave(&bad).unwrap_err();
        let fresh_err = Weaver::new().run(&bad).unwrap_err();
        assert_eq!(err.to_string(), fresh_err.to_string());
        // Session survives and still serves the last good revision.
        assert!(s.output().is_some());
        let rep = s.weave(&base()).unwrap();
        assert_eq!(rep.path, ReweavePath::Delta);
        assert_eq!(rep.fingerprint, fp);
    }

    #[test]
    fn activity_change_falls_back() {
        let mut s = Weaver::new().session();
        s.weave(&base()).unwrap();
        let mut v2 = base();
        v2.add_activity("z");
        v2.push(Dependency::data("d", "z"));
        let rep = s.weave(&v2).unwrap();
        assert!(matches!(rep.path, ReweavePath::Fallback(_)), "{:?}", rep.path);
        assert_matches_fresh(&s, &v2);
        // The rebuilt memo serves deltas again.
        let mut v3 = v2.clone();
        v3.push(Dependency::cooperation("b", "d"));
        let rep = s.weave(&v3).unwrap();
        assert_eq!(rep.path, ReweavePath::Delta);
        assert_matches_fresh(&s, &v3);
    }

    #[test]
    fn guard_flip_reweaves_and_matches() {
        let mut s = Weaver::new().session();
        s.weave(&base()).unwrap();
        // Flip the g → c guard: changes exec conditions AND an edge guard.
        let mut v2 = base();
        for d in &mut v2.deps {
            if d.from.name == "g" && d.to.name == "c" {
                d.kind = crate::dependency::DependencyKind::Control {
                    value: Some("T".into()),
                };
            }
        }
        let rep = s.weave(&v2).unwrap();
        assert_eq!(rep.path, ReweavePath::Delta, "{:?}", rep.diff);
        assert!(!rep.diff.annotation_changed.is_empty(), "{:?}", rep.diff);
        assert_matches_fresh(&s, &v2);
    }
}
