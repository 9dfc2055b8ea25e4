//! The dataflow scheduling engine: "dependencies are explicitly modeled to
//! guide activity scheduling" (§1). A discrete-event simulator executes a
//! (desugared, service-free) constraint set directly — an activity starts
//! the moment its incoming HappenBefore constraints are satisfied, with
//! dead-path elimination for conditional regions and dynamic checking of
//! Exclusive constraints (§4.2).
//!
//! Two engines produce identical traces:
//!
//! * [`simulate`] — the wavefront engine, on an integer kernel.
//!   [`ScheduleTables::derive`] reads the set and its execution
//!   conditions [`resolve`](dscweaver_core::resolve())d onto ids:
//!   activities by their sorted position, states as `3i + s`, condition
//!   values by their byte-order rank;
//!   [`PreparedSchedule::run`] keeps its state in `Vec`s and bitsets and
//!   drives readiness with a dependency-counting agenda (only activities
//!   whose watched states or guards changed are re-evaluated). The run is
//!   sequential: `SimConfig::threads` is ignored.
//! * [`simulate_rescan_baseline`] — the original string-keyed engine:
//!   every commit pass linearly rescans all activities. Kept as the
//!   measured baseline for `BENCH_scheduler.json` and as the oracle of the
//!   equivalence property tests.
//!
//! The engines agree on the trace and on `stuck`; they intentionally differ
//! on `constraint_checks` — the agenda is the point: unchanged activities
//! are not re-checked, so the wavefront engine performs strictly fewer
//! satisfaction checks on sparse processes.

use crate::trace::{EventKind, Time, Trace, TraceEvent};
use dscweaver_core::resolve::Kind;
use dscweaver_core::{resolve, ExecConditions};
use dscweaver_dscl::{ActivityState, Condition, ConstraintSet, Name, Relation, StateRef};
use dscweaver_graph::Dnf;
use dscweaver_graph::{BitSet, FxHashMap};
use dscweaver_obs as obs;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, HashSet};

/// Activity durations in virtual time units.
#[derive(Clone, Debug)]
pub struct DurationModel {
    default: Time,
    per_activity: BTreeMap<String, Time>,
}

impl DurationModel {
    /// Every activity takes `d` units (coordinators introduced by
    /// desugaring always take 0).
    pub fn constant(d: Time) -> DurationModel {
        DurationModel {
            default: d,
            per_activity: BTreeMap::new(),
        }
    }

    /// Per-activity overrides on top of a default.
    pub fn with_overrides(default: Time, per_activity: BTreeMap<String, Time>) -> DurationModel {
        DurationModel {
            default,
            per_activity,
        }
    }

    /// Sets one override.
    pub fn set(&mut self, activity: &str, d: Time) {
        self.per_activity.insert(activity.into(), d);
    }

    /// The duration of `activity`.
    pub fn of(&self, activity: &str) -> Time {
        if is_coordinator(activity) {
            return 0;
        }
        self.per_activity
            .get(activity)
            .copied()
            .unwrap_or(self.default)
    }
}

/// The zero-duration coordinators that HappenTogether desugaring adds.
fn is_coordinator(activity: &str) -> bool {
    activity.starts_with("__sync")
}

/// Simulation configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Durations.
    pub durations: DurationModel,
    /// Branch oracle: guard → value produced. Guards not listed produce
    /// the first value of their domain.
    pub oracle: BTreeMap<String, String>,
    /// Worker limit: at most this many activities run concurrently
    /// (`None` = unbounded). Skips and zero-duration coordinators do not
    /// wait for a worker. An activity holds its worker from its start to
    /// its natural finish; a completion deferred past that by a
    /// finish-side prerequisite frees the worker and keeps only its
    /// Exclusive hold.
    pub workers: Option<usize>,
    /// Ignored: the scheduler runs on the calling thread. Kept for the
    /// callers that carry one thread knob into validation and scheduling
    /// alike.
    pub threads: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            durations: DurationModel::constant(1),
            oracle: BTreeMap::new(),
            workers: None,
            threads: 0,
        }
    }
}

/// The result of a run.
#[derive(Clone, Debug)]
pub struct Schedule {
    /// The trace.
    pub trace: Trace,
    /// Number of constraint-satisfaction checks performed — the
    /// "maintenance and computation costs" the optimization reduces
    /// (§4: "redundant constraints incur unnecessary maintenance and
    /// computation costs if added to the scheduling engine").
    pub constraint_checks: u64,
    /// Activities that could never be resolved (deadlock); empty on sound
    /// schemes.
    pub stuck: Vec<String>,
}

impl Schedule {
    /// True if every activity resolved.
    pub fn completed(&self) -> bool {
        self.stuck.is_empty()
    }
}

/// Guard outcome: not decided yet.
const UNDECIDED: u32 = u32::MAX;
/// Guard outcome: the guard was skipped (dead path).
const SKIPPED: u32 = u32::MAX - 1;
/// A produced value that no condition names: it decides the guard but
/// matches nothing.
const UNMATCHED: u32 = u32::MAX - 2;

/// One HappenBefore prerequisite of the kernel: the producer state
/// (`3i + s`; a producer that is not an activity gets the ghost index
/// `n`, which never resolves) and the optional `(guard, value id)`
/// condition (a guard that is not an activity is the ghost `n` too, which
/// never decides).
#[derive(Clone, Copy, Debug)]
struct Pre {
    state: u32,
    cond: Option<(u32, u32)>,
}

/// Compressed rows: row `r` is `items[off[r]..off[r + 1]]`.
#[derive(Clone, Debug)]
struct Csr<T> {
    off: Vec<u32>,
    items: Vec<T>,
}

impl<T: Copy> Csr<T> {
    /// Builds `rows` rows from `(row, item)` pairs — a counting sort, so
    /// items keep their order within a row.
    fn grouped(rows: usize, pairs: &[(u32, T)]) -> Csr<T> {
        assert!(u32::try_from(pairs.len()).is_ok(), "row table past u32 offsets");
        let mut off = vec![0u32; rows + 1];
        for &(r, _) in pairs {
            off[r as usize + 1] += 1;
        }
        for r in 0..rows {
            off[r + 1] += off[r];
        }
        let mut items: Vec<T> = pairs.iter().map(|&(_, x)| x).collect();
        let mut next = off.clone();
        for &(r, x) in pairs {
            items[next[r as usize] as usize] = x;
            next[r as usize] += 1;
        }
        Csr { off, items }
    }

    fn row(&self, r: usize) -> &[T] {
        &self.items[self.off[r] as usize..self.off[r + 1] as usize]
    }
}

/// Builds a wake-list table: rows deduplicated and ascending.
fn wake_rows(rows: usize, mut pairs: Vec<(u32, u32)>) -> Csr<u32> {
    pairs.sort_unstable();
    pairs.dedup();
    Csr::grouped(rows, &pairs)
}

fn state_index(s: ActivityState) -> u32 {
    match s {
        ActivityState::Start => 0,
        ActivityState::Run => 1,
        ActivityState::Finish => 2,
    }
}

/// The owned, lifetime-free compile half of the scheduler: the integer
/// kernel one constraint set runs on. Activities are numbered by their
/// position in the set's sorted `activities` and states as `3i + s`
/// (`S`, `R`, `F`); condition values are interned to ids in byte order.
/// It holds the start- and finish-side prerequisite rows, the per-state
/// and per-guard agenda wake lists, the Exclusive partners, and each
/// activity's execution DNF over `(guard, value id)` pairs — all flat
/// rows, none keyed by a string.
///
/// Because nothing here borrows the constraint set, a long-lived registry
/// (the serve daemon's warm-artifact cache) can store one `ScheduleTables`
/// per cached process next to its owned `ConstraintSet`/`ExecConditions`
/// and wrap them in a [`PreparedSchedule`] per request with
/// [`PreparedSchedule::with_tables`] at zero derivation cost.
#[derive(Clone, Debug)]
pub struct ScheduleTables {
    /// Prerequisites by activity, relations order within a row.
    start: Csr<Pre>,
    finish: Csr<Pre>,
    /// Agenda wake lists: who watches state `3i + s`, and who mentions
    /// guard `i` in a prerequisite condition or its execution DNF.
    state_wake: Csr<u32>,
    guard_wake: Csr<u32>,
    /// Exclusive partners by activity.
    excl: Csr<u32>,
    /// Execution DNFs: activity `i`'s terms are `exec_off[i]..exec_off[i + 1]`
    /// in `terms`, each a conjunction of `(guard, value id)`. *Always* is
    /// the one empty term; a DNF with no terms never executes.
    exec_off: Vec<u32>,
    terms: Csr<(u32, u32)>,
    /// The interned condition values, sorted; a value's id is its index.
    values: Vec<Name>,
    /// The value id each activity produces when no oracle overrides it:
    /// its domain's first value, or `"done"` (a domain-less activity, or
    /// an empty domain).
    produced: Vec<u32>,
    /// The activity index of each `cs.domains` entry, in the map's order
    /// (`n` for a domain that names no activity).
    domain_ix: Vec<u32>,
    /// The zero-duration desugaring coordinators.
    coordinators: Vec<u32>,
}

impl ScheduleTables {
    /// Derives the integer kernel from `cs`/`exec`, resolved onto ids
    /// once. Deterministic: activities are walked in sorted order and
    /// relations in declaration order.
    pub fn derive(cs: &ConstraintSet, exec: &ExecConditions) -> Self {
        let _span = obs::span_with("scheduler.prepare", || {
            format!("activities={} relations={}", cs.activities.len(), cs.relations.len())
        });
        let ids = resolve(cs, exec);
        let n = ids.activities();
        // State ids `3i + s`, ghost included, stay below the sentinels.
        assert!(3 * (n + 1) < UNMATCHED as usize, "too many activities for u32 state ids");
        // An endpoint or guard that is no activity is the ghost `n`.
        let ix = |id: u32| if (id as usize) < n { id } else { n as u32 };
        let guard = |g: u32| ids.guard_activity(g).unwrap_or(n as u32);

        // Condition values by rank, then renumbered densely.
        let mut used: Vec<u32> = Vec::new();
        for (kind, _, _, c) in ids.relations() {
            if let (Kind::Before, Some((g, v))) = (kind, c) {
                used.push(ids.value_rank(g, v));
            }
        }
        for a in 0..n as u32 {
            used.extend(ids.exec_terms(a).flatten().map(|&(g, v)| ids.value_rank(g, v)));
        }
        used.sort_unstable();
        used.dedup();
        let local = |rank: u32| used.binary_search(&rank).map_or(UNMATCHED, |k| k as u32);
        let cond = |(g, v): (u32, u32)| (guard(g), local(ids.value_rank(g, v)));

        let mut start: Vec<(u32, Pre)> = Vec::new();
        let mut finish: Vec<(u32, Pre)> = Vec::new();
        let mut excl: Vec<(u32, u32)> = Vec::new();
        for (kind, from, to, c) in ids.relations() {
            match kind {
                Kind::Before => {
                    let i = ix(to.0);
                    if i as usize == n {
                        continue;
                    }
                    let p = Pre {
                        state: 3 * ix(from.0) + state_index(from.1),
                        cond: c.map(cond),
                    };
                    match to.1 {
                        ActivityState::Start | ActivityState::Run => start.push((i, p)),
                        ActivityState::Finish => finish.push((i, p)),
                    }
                }
                Kind::Exclusive => {
                    let (i, j) = (ix(from.0), ix(to.0));
                    if (i as usize) < n && (j as usize) < n {
                        excl.push((i, j));
                        excl.push((j, i));
                    }
                }
                Kind::Together => {}
            }
        }

        // *Always* is one empty term.
        let mut exec_off: Vec<u32> = vec![0];
        let mut terms: Vec<(u32, (u32, u32))> = Vec::new();
        let mut k = 0;
        for a in 0..n as u32 {
            if ids.is_unconditional(a) {
                k += 1;
            }
            for term in ids.exec_terms(a) {
                terms.extend(term.iter().map(|&c| (k, cond(c))));
                k += 1;
            }
            exec_off.push(k);
        }
        let terms = Csr::grouped(k as usize, &terms);

        let mut state_wake: Vec<(u32, u32)> = Vec::new();
        let mut guard_wake: Vec<(u32, u32)> = Vec::new();
        for &(i, p) in start.iter().chain(&finish) {
            if (p.state as usize) < 3 * n {
                state_wake.push((p.state, i));
            }
            if let Some((g, _)) = p.cond {
                if (g as usize) < n {
                    guard_wake.push((g, i));
                }
            }
        }
        for i in 0..n {
            let (lo, hi) = (exec_off[i] as usize, exec_off[i + 1] as usize);
            for t in lo..hi {
                for &(g, _) in terms.row(t) {
                    if (g as usize) < n {
                        guard_wake.push((g, i as u32));
                    }
                }
            }
        }

        let values: Vec<Name> = used.iter().map(|&r| ids.ranked_values()[r as usize].clone()).collect();
        let done = values
            .binary_search_by(|x| x.as_str().cmp("done"))
            .map_or(UNMATCHED, |k| k as u32);
        let mut produced = vec![done; n];
        let mut domain_ix = Vec::with_capacity(ids.declared_guards());
        for g in 0..ids.declared_guards() as u32 {
            let i = guard(g);
            if (i as usize) < n {
                let first = ids.domain(g).and_then(|d| d.first());
                produced[i as usize] = first.map_or(done, |&v| local(ids.value_rank(g, v)));
            }
            domain_ix.push(i);
        }
        let names = ids.names();
        let coordinators = (0..n as u32).filter(|&i| is_coordinator(&names[i as usize])).collect();

        ScheduleTables {
            start: Csr::grouped(n, &start),
            finish: Csr::grouped(n, &finish),
            state_wake: wake_rows(3 * n, state_wake),
            guard_wake: wake_rows(n, guard_wake),
            excl: Csr::grouped(n, &excl),
            exec_off,
            terms,
            values,
            produced,
            domain_ix,
            coordinators,
        }
    }

    /// The id of condition value `v`, or [`UNMATCHED`] if no condition
    /// names it.
    fn value_id(&self, v: &str) -> u32 {
        self.values
            .binary_search_by(|x| x.as_str().cmp(v))
            .map_or(UNMATCHED, |k| k as u32)
    }
}

/// The run half of the scheduler: a constraint set with its
/// [`ScheduleTables`], replayed across runs with different branch
/// oracles, durations and worker limits — the monitoring-replay workload,
/// where one ASC is simulated many times.
///
/// [`simulate`] is exactly `ScheduleTables::derive` +
/// [`PreparedSchedule::with_tables`] + [`PreparedSchedule::run`], so a
/// replay over cached tables is bit-identical to the one-shot path by
/// construction (and pinned by the `prepared_engines_equivalence`
/// property tests).
#[derive(Debug)]
pub struct PreparedSchedule<'a> {
    cs: &'a ConstraintSet,
    tables: &'a ScheduleTables,
    acts: Vec<&'a Name>,
}

impl<'a> PreparedSchedule<'a> {
    /// Wraps `cs` and its tables without re-deriving. The tables must come
    /// from [`ScheduleTables::derive`] on this same `cs`/`exec` pair (the
    /// execution DNFs are already compiled into them).
    pub fn with_tables(
        cs: &'a ConstraintSet,
        _exec: &'a ExecConditions,
        tables: &'a ScheduleTables,
    ) -> Self {
        let acts: Vec<&Name> = cs.activities.iter().collect();
        assert!(
            tables.produced.len() == acts.len() && tables.domain_ix.len() == cs.domains.len(),
            "schedule tables derived from another constraint set"
        );
        PreparedSchedule { cs, tables, acts }
    }

    /// One simulation run over the prepared kernel — the wavefront event
    /// loop of [`simulate`], minus the per-call derivation.
    pub fn run(&self, config: &SimConfig) -> Schedule {
        let _span = obs::span("scheduler.run");
        let mut run = Run::new(self, config);
        run.drive(config.workers);
        let stuck: Vec<String> = (0..self.acts.len())
            .filter(|&i| run.flags[i] & DONE == 0)
            .map(|i| self.acts[i].to_string())
            .collect();
        obs::counter_add("scheduler.constraint_checks", run.checks);
        obs::counter_add("scheduler.stuck_activities", stuck.len() as u64);
        obs::gauge_set("scheduler.makespan", run.trace.makespan() as f64);
        Schedule {
            trace: run.trace,
            constraint_checks: run.checks,
            stuck,
        }
    }
}

/// Per-activity run flags.
const STARTED: u8 = 1;
const RUNNING: u8 = 2;
/// Finished or skipped.
const DONE: u8 = 4;
/// Natural finish reached, deferred by a finish-side prerequisite.
const BLOCKED: u8 = 8;

/// What one agenda visit would do.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Act {
    /// Cannot act under the current state.
    None,
    /// Deferred finish is now satisfiable.
    Unblock,
    /// Start prereqs hold and the execution condition is true.
    Start,
    /// Execution condition is false and the skip's prereqs hold.
    Skip,
}

/// The mutable state of one run. Index `n` (one past the last activity)
/// is the ghost that unknown producers and guards map to: its states never
/// resolve and its outcome never decides.
struct Run<'r> {
    t: &'r ScheduleTables,
    acts: &'r [&'r Name],
    /// Per activity: produced value id and its trace text (guards only).
    produced: Vec<u32>,
    text: Vec<Option<Name>>,
    duration: Vec<Time>,
    /// Per state `3i + s`, ghost included.
    resolved: Vec<bool>,
    /// Per activity, ghost included: `UNDECIDED`, `SKIPPED` or a value id.
    outcome: Vec<u32>,
    flags: Vec<u8>,
    /// Activities holding a worker slot: started, natural finish not yet
    /// reached.
    running: usize,
    done: usize,
    /// The agenda: activities whose readiness may have changed.
    dirty: BitSet,
    /// Startable activities that found no free worker; re-armed by the
    /// next finish.
    worker_blocked: BitSet,
    /// Scheduled natural finishes `(time, seq, activity)`, min first.
    finishes: BinaryHeap<Reverse<(Time, u64, u32)>>,
    trace: Trace,
    seq: u64,
    now: Time,
    checks: u64,
}

impl<'r> Run<'r> {
    /// Resolves the oracle and the durations into per-activity arrays.
    fn new(p: &'r PreparedSchedule<'_>, config: &'r SimConfig) -> Run<'r> {
        let t = p.tables;
        let acts = p.acts.as_slice();
        let n = acts.len();
        let find = |a: &str| acts.binary_search_by(|x| x.as_str().cmp(a)).ok();

        let mut produced = t.produced.clone();
        let mut text: Vec<Option<Name>> = vec![None; n];
        for ((_, dom), &i) in p.cs.domains.iter().zip(&t.domain_ix) {
            if (i as usize) < n {
                text[i as usize] = Some(dom.first().cloned().unwrap_or_else(|| "done".into()));
            }
        }
        for (g, v) in &config.oracle {
            if let Some(i) = find(g).filter(|&i| text[i].is_some()) {
                let id = t.value_id(v);
                text[i] = Some(t.values.get(id as usize).cloned().unwrap_or_else(|| v.into()));
                produced[i] = id;
            }
        }

        let durations = &config.durations;
        let mut duration = vec![durations.default; n];
        for (a, &d) in &durations.per_activity {
            if let Some(i) = find(a) {
                duration[i] = d;
            }
        }
        for &i in &t.coordinators {
            duration[i as usize] = 0;
        }

        Run {
            t,
            acts,
            produced,
            text,
            duration,
            resolved: vec![false; 3 * (n + 1)],
            outcome: vec![UNDECIDED; n + 1],
            flags: vec![0; n],
            running: 0,
            done: 0,
            dirty: (0..n).collect(),
            worker_blocked: BitSet::new(n),
            finishes: BinaryHeap::new(),
            trace: Trace::default(),
            seq: 0,
            now: 0,
            checks: 0,
        }
    }

    /// The event loop: sweep the agenda until nothing can act at `now`,
    /// then advance to the next natural finish.
    fn drive(&mut self, workers: Option<usize>) {
        let t = self.t;
        let n = self.acts.len();
        loop {
            while !self.dirty.is_empty() {
                let mut progressed = false;
                let mut pos = 0usize;
                // Monotone sweep: agenda insertions behind `pos` wait for
                // the next sweep, mirroring the rescan engine's pass order.
                while let Some(i) = self.dirty.next_from(pos) {
                    pos = i + 1;
                    self.dirty.remove(i);
                    match self.eval(i) {
                        Act::None => {}
                        Act::Unblock => {
                            self.flags[i] &= !BLOCKED;
                            self.finish(i);
                            progressed = true;
                        }
                        Act::Start => {
                            // Exclusive: defer while a partner is running;
                            // the partner's finish re-arms us.
                            let partners = t.excl.row(i);
                            if partners.iter().any(|&j| self.flags[j as usize] & RUNNING != 0) {
                                continue;
                            }
                            // Worker limit: zero-duration activities (the
                            // desugaring coordinators) pass through freely.
                            if workers.is_some_and(|k| self.duration[i] > 0 && self.running >= k) {
                                self.worker_blocked.insert(i);
                                continue;
                            }
                            self.start(i);
                            progressed = true;
                        }
                        Act::Skip => {
                            self.skip(i);
                            progressed = true;
                        }
                    }
                }
                if !progressed {
                    break;
                }
            }

            if self.done == n {
                break;
            }
            let Some(Reverse((time, _, i))) = self.finishes.pop() else {
                break; // deadlock: nothing running, nothing ready
            };
            let i = i as usize;
            self.now = self.now.max(time);
            // The natural finish frees the worker slot, even when a
            // finish-side prerequisite defers the completion; the
            // Exclusive hold (`RUNNING`) lasts until the finish commits.
            self.running -= 1;
            if self.holds(t.finish.row(i)) {
                self.finish(i);
            } else {
                self.flags[i] |= BLOCKED;
                self.dirty.union_with(&self.worker_blocked);
                self.worker_blocked.clear();
            }
        }
    }

    /// Whether every prerequisite in `pres` holds; one check per
    /// prerequisite tested, stopping at the first that fails.
    fn holds(&mut self, pres: &[Pre]) -> bool {
        for p in pres {
            self.checks += 1;
            let ok = match p.cond {
                None => self.resolved[p.state as usize],
                Some((g, v)) => match self.outcome[g as usize] {
                    UNDECIDED => false, // guard undecided: must wait
                    o if o == v => self.resolved[p.state as usize],
                    // Guard mismatched or skipped: the constraint is waived.
                    _ => true,
                },
            };
            if !ok {
                return false;
            }
        }
        true
    }

    /// Activity `i`'s execution decision once every guard its DNF
    /// mentions has decided.
    fn exec_decided(&self, i: usize) -> Option<bool> {
        let t = self.t;
        let terms = t.exec_off[i] as usize..t.exec_off[i + 1] as usize;
        let decided = terms
            .clone()
            .all(|k| t.terms.row(k).iter().all(|&(g, _)| self.outcome[g as usize] != UNDECIDED));
        if !decided {
            return None;
        }
        Some(terms.into_iter().any(|k| {
            t.terms.row(k).iter().all(|&(g, v)| self.outcome[g as usize] == v)
        }))
    }

    /// The readiness decision for one agenda visit. Exclusive partners and
    /// the worker limit are gated by the caller.
    fn eval(&mut self, i: usize) -> Act {
        let t = self.t;
        let f = self.flags[i];
        if f & DONE != 0 || f & RUNNING != 0 && f & BLOCKED == 0 {
            return Act::None;
        }
        if f & BLOCKED != 0 {
            return if self.holds(t.finish.row(i)) { Act::Unblock } else { Act::None };
        }
        if f & STARTED != 0 || !self.holds(t.start.row(i)) {
            return Act::None;
        }
        match self.exec_decided(i) {
            None => Act::None,
            Some(true) => Act::Start,
            // Skip also waits for finish-side prerequisites (skip events
            // are ordered after everything the activity would have waited
            // for).
            Some(false) if self.holds(t.finish.row(i)) => Act::Skip,
            Some(false) => Act::None,
        }
    }

    fn event(&mut self, i: usize, kind: EventKind, value: Option<Name>) {
        self.trace.events.push(TraceEvent {
            time: self.now,
            seq: self.seq,
            activity: self.acts[i].clone(),
            kind,
            value,
        });
        self.seq += 1;
    }

    fn wake(&mut self, row: &[u32]) {
        for &j in row {
            self.dirty.insert(j as usize);
        }
    }

    fn start(&mut self, i: usize) {
        let t = self.t;
        self.flags[i] |= STARTED | RUNNING;
        self.running += 1;
        self.event(i, EventKind::Start, None);
        self.resolved[3 * i] = true;
        self.resolved[3 * i + 1] = true;
        self.finishes
            .push(Reverse((self.now + self.duration[i], self.seq, i as u32)));
        self.wake(t.state_wake.row(3 * i));
        self.wake(t.state_wake.row(3 * i + 1));
    }

    fn skip(&mut self, i: usize) {
        let t = self.t;
        self.flags[i] |= STARTED | DONE;
        self.done += 1;
        self.event(i, EventKind::Skip, None);
        for s in 3 * i..3 * i + 3 {
            self.resolved[s] = true;
            self.wake(t.state_wake.row(s));
        }
        self.outcome[i] = SKIPPED;
        self.wake(t.guard_wake.row(i));
    }

    /// Commits `i`'s finish and re-arms everything it can unblock: the
    /// finish state's and the guard's watchers, the Exclusive partners,
    /// and every activity waiting for a worker.
    fn finish(&mut self, i: usize) {
        let t = self.t;
        self.flags[i] = (self.flags[i] & !RUNNING) | DONE;
        self.done += 1;
        self.event(i, EventKind::Finish, self.text[i].clone());
        self.resolved[3 * i + 2] = true;
        self.outcome[i] = self.produced[i];
        self.wake(t.state_wake.row(3 * i + 2));
        self.wake(t.guard_wake.row(i));
        self.wake(t.excl.row(i));
        self.dirty.union_with(&self.worker_blocked);
        self.worker_blocked.clear();
    }
}

/// Runs the dataflow scheduler over `cs` — the wavefront engine.
///
/// Readiness is tracked by a dependency-counting agenda: each activity
/// leaves the agenda when an evaluation finds it unable to act, and
/// re-enters only when a state it watches changes (a prereq producer
/// resolving, a guard it mentions deciding, an exclusive partner
/// finishing, or a worker slot freeing). Sweeps commit in activity order,
/// which makes the trace bit-identical to the rescan baseline — only
/// `constraint_checks` shrinks.
///
/// The one-shot composition: derives the integer kernel and runs once.
/// Callers replaying one constraint set under many configurations keep a
/// [`ScheduleTables`] and call [`PreparedSchedule::run`] repeatedly.
pub fn simulate(cs: &ConstraintSet, exec: &ExecConditions, config: &SimConfig) -> Schedule {
    let tables = ScheduleTables::derive(cs, exec);
    PreparedSchedule::with_tables(cs, exec, &tables).run(config)
}

#[derive(Clone, Debug)]
struct Prereq {
    producer: StateRef,
    cond: Option<Condition>,
}

#[derive(Clone, Debug, PartialEq)]
enum GuardOutcome {
    Value(String),
    Skipped,
}

fn value_of_guard(g: &str, config: &SimConfig, cs: &ConstraintSet) -> String {
    config.oracle.get(g).cloned().unwrap_or_else(|| {
        cs.domains
            .get(g)
            .and_then(|d| d.first())
            .map_or_else(|| "done".to_string(), Name::to_string)
    })
}

/// Prereq satisfied under the given state? Counts one check per call.
fn prereq_satisfied(
    p: &Prereq,
    resolved: &HashMap<StateRef, (Time, u64)>,
    outcome: &HashMap<&str, GuardOutcome>,
    checks: &mut u64,
) -> bool {
    *checks += 1;
    match &p.cond {
        None => resolved.contains_key(&p.producer),
        Some(c) => match outcome.get(c.on.as_str()) {
            None => false, // guard undecided: must wait
            Some(GuardOutcome::Value(v)) if *v == c.value => resolved.contains_key(&p.producer),
            // Guard mismatched or skipped: the constraint is waived.
            Some(_) => true,
        },
    }
}

/// Exec decision: Some(true/false) once all mentioned guards resolved.
fn exec_decided(dnf: &Dnf<Condition>, outcome: &HashMap<&str, GuardOutcome>) -> Option<bool> {
    if dnf.is_always() {
        return Some(true);
    }
    let mut guards: HashSet<&str> = HashSet::new();
    for t in dnf.terms() {
        for c in t {
            guards.insert(&c.on);
        }
    }
    if !guards.iter().all(|g| outcome.contains_key(*g)) {
        return None;
    }
    let value = dnf.terms().iter().any(|term| {
        term.iter().all(|c| {
            matches!(outcome.get(c.on.as_str()), Some(GuardOutcome::Value(v)) if *v == c.value)
        })
    });
    Some(value)
}

/// The original engine: every commit pass linearly rescans all activities.
///
/// Kept (unchanged in behavior) as the measured baseline for
/// `BENCH_scheduler.json` and as the reference the wavefront engine's
/// equivalence property tests compare against. Produces the same trace and
/// `stuck` as [`simulate`]; `constraint_checks` is higher because every
/// pass re-checks activities whose inputs did not change.
pub fn simulate_rescan_baseline(
    cs: &ConstraintSet,
    exec: &ExecConditions,
    config: &SimConfig,
) -> Schedule {
    // Indexing.
    let mut start_prereqs: HashMap<&str, Vec<Prereq>> = HashMap::new();
    let mut finish_prereqs: HashMap<&str, Vec<Prereq>> = HashMap::new();
    for a in &cs.activities {
        start_prereqs.insert(a, Vec::new());
        finish_prereqs.insert(a, Vec::new());
    }
    for r in &cs.relations {
        if let Relation::HappenBefore { from, to, cond, .. } = r {
            let p = Prereq {
                producer: from.clone(),
                cond: cond.clone(),
            };
            let bucket = match to.state {
                ActivityState::Start | ActivityState::Run => &mut start_prereqs,
                ActivityState::Finish => &mut finish_prereqs,
            };
            if let Some(v) = bucket.get_mut(to.activity.as_str()) {
                v.push(p);
            }
        }
    }
    let execs: FxHashMap<&str, Dnf<Condition>> =
        cs.activities.iter().map(|a| (a.as_str(), exec.of(a))).collect();
    // Exclusive partner sets.
    let mut exclusive: HashMap<&str, Vec<&str>> = HashMap::new();
    for (x, y) in cs.exclusives() {
        exclusive
            .entry(x.activity.as_str())
            .or_default()
            .push(y.activity.as_str());
        exclusive
            .entry(y.activity.as_str())
            .or_default()
            .push(x.activity.as_str());
    }

    // Dynamic state.
    let mut resolved: HashMap<StateRef, (Time, u64)> = HashMap::new();
    let mut outcome: HashMap<&str, GuardOutcome> = HashMap::new();
    let mut started: HashSet<&str> = HashSet::new();
    let mut done: HashSet<&str> = HashSet::new(); // finished or skipped
    // Started and not finished: the Exclusive hold.
    let mut running: HashSet<&str> = HashSet::new();
    // Started, natural finish not yet reached: the worker slots in use.
    let mut busy = 0usize;
    let mut finish_blocked: HashSet<&str> = HashSet::new();
    let mut trace = Trace::default();
    let mut seq: u64 = 0;
    let mut checks: u64 = 0;
    let mut now: Time = 0;

    // Scheduled natural finishes: Reverse-ordered min-heap.
    let mut finish_queue: BinaryHeap<std::cmp::Reverse<(Time, u64, String)>> = BinaryHeap::new();

    let total = cs.activities.len();
    loop {
        // Commit phase: start, skip, or unblock whatever is ready at `now`.
        let mut progressed = true;
        while progressed {
            progressed = false;
            for a in &cs.activities {
                let a = a.as_str();
                if done.contains(a) || running.contains(a) && !finish_blocked.contains(a) {
                    continue;
                }
                if finish_blocked.contains(a) {
                    // Re-try the deferred finish.
                    let ok = finish_prereqs[a]
                        .iter()
                        .all(|p| prereq_satisfied(p, &resolved, &outcome, &mut checks));
                    if ok {
                        finish_blocked.remove(a);
                        commit_finish(
                            a, now, &mut seq, cs, config, &mut trace, &mut resolved,
                            &mut outcome, &mut running, &mut done, value_of_guard,
                        );
                        progressed = true;
                    }
                    continue;
                }
                if started.contains(a) {
                    continue;
                }
                let starts_ok = start_prereqs[a]
                    .iter()
                    .all(|p| prereq_satisfied(p, &resolved, &outcome, &mut checks));
                if !starts_ok {
                    continue;
                }
                match exec_decided(&execs[a], &outcome) {
                    None => continue,
                    Some(true) => {
                        // Exclusive: defer while a partner is running.
                        if exclusive
                            .get(a)
                            .is_some_and(|ps| ps.iter().any(|p| running.contains(p)))
                        {
                            continue;
                        }
                        // Worker limit: zero-duration activities (the
                        // desugaring coordinators) pass through freely.
                        if let Some(k) = config.workers {
                            if config.durations.of(a) > 0 && busy >= k {
                                continue;
                            }
                        }
                        started.insert(a);
                        running.insert(a);
                        busy += 1;
                        trace.events.push(TraceEvent {
                            time: now,
                            seq,
                            activity: a.into(),
                            kind: EventKind::Start,
                            value: None,
                        });
                        resolved.insert(StateRef::start(a), (now, seq));
                        resolved.insert(StateRef::run(a), (now, seq));
                        seq += 1;
                        finish_queue.push(std::cmp::Reverse((
                            now + config.durations.of(a),
                            seq,
                            a.to_string(),
                        )));
                        progressed = true;
                    }
                    Some(false) => {
                        // Skip also waits for finish-side prerequisites
                        // (skip events are ordered after everything the
                        // activity would have waited for).
                        let fin_ok = finish_prereqs[a]
                            .iter()
                            .all(|p| prereq_satisfied(p, &resolved, &outcome, &mut checks));
                        if !fin_ok {
                            continue;
                        }
                        started.insert(a);
                        done.insert(a);
                        trace.events.push(TraceEvent {
                            time: now,
                            seq,
                            activity: a.into(),
                            kind: EventKind::Skip,
                            value: None,
                        });
                        for st in ActivityState::ALL {
                            resolved.insert(
                                StateRef {
                                    activity: a.into(),
                                    state: st,
                                },
                                (now, seq),
                            );
                        }
                        outcome.insert(a, GuardOutcome::Skipped);
                        seq += 1;
                        progressed = true;
                    }
                }
            }
        }

        if done.len() == total {
            break;
        }
        // Advance to the next natural finish.
        let Some(std::cmp::Reverse((t, _, a))) = finish_queue.pop() else {
            break; // deadlock: nothing running, nothing ready
        };
        now = now.max(t);
        // The natural finish frees the worker slot; a deferred completion
        // keeps only the Exclusive hold.
        busy -= 1;
        let a_ref: &str = cs
            .activities
            .get(a.as_str())
            .map(Name::as_str)
            .expect("finish of unknown activity");
        // Finish-side prerequisites may defer the completion.
        let ok = finish_prereqs[a_ref]
            .iter()
            .all(|p| prereq_satisfied(p, &resolved, &outcome, &mut checks));
        if ok {
            commit_finish(
                a_ref, now, &mut seq, cs, config, &mut trace, &mut resolved, &mut outcome,
                &mut running, &mut done, value_of_guard,
            );
        } else {
            finish_blocked.insert(a_ref);
        }
    }

    let stuck: Vec<String> = cs
        .activities
        .iter()
        .filter(|a| !done.contains(a.as_str()))
        .map(Name::to_string)
        .collect();
    Schedule {
        trace,
        constraint_checks: checks,
        stuck,
    }
}

#[allow(clippy::too_many_arguments)]
fn commit_finish<'a>(
    a: &'a str,
    now: Time,
    seq: &mut u64,
    cs: &ConstraintSet,
    config: &SimConfig,
    trace: &mut Trace,
    resolved: &mut HashMap<StateRef, (Time, u64)>,
    outcome: &mut HashMap<&'a str, GuardOutcome>,
    running: &mut HashSet<&'a str>,
    done: &mut HashSet<&'a str>,
    value_of_guard: impl Fn(&str, &SimConfig, &ConstraintSet) -> String,
) {
    running.remove(a);
    done.insert(a);
    let value = if cs.domains.contains_key(a) {
        Some(value_of_guard(a, config, cs))
    } else {
        None
    };
    trace.events.push(TraceEvent {
        time: now,
        seq: *seq,
        activity: a.into(),
        kind: EventKind::Finish,
        value: value.as_deref().map(Name::from),
    });
    resolved.insert(StateRef::finish(a), (now, *seq));
    *seq += 1;
    outcome.insert(
        a,
        GuardOutcome::Value(value.unwrap_or_else(|| "done".to_string())),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use dscweaver_dscl::Origin;

    fn before(a: &str, b: &str) -> Relation {
        Relation::before(StateRef::finish(a), StateRef::start(b), Origin::Data)
    }

    fn run(cs: &ConstraintSet, config: &SimConfig) -> Schedule {
        let exec = ExecConditions::derive(cs);
        simulate(cs, &exec, config)
    }

    #[test]
    fn chain_executes_in_order() {
        let mut cs = ConstraintSet::new("chain");
        for a in ["a", "b", "c"] {
            cs.add_activity(a);
        }
        cs.push(before("a", "b"));
        cs.push(before("b", "c"));
        let s = run(&cs, &SimConfig::default());
        assert!(s.completed());
        assert!(s.trace.verify(&cs).is_empty());
        assert_eq!(s.trace.makespan(), 3, "three unit activities in series");
        assert_eq!(s.trace.max_concurrency(), 1);
    }

    #[test]
    fn independent_activities_run_concurrently() {
        let mut cs = ConstraintSet::new("par");
        for a in ["a", "b", "c"] {
            cs.add_activity(a);
        }
        let s = run(&cs, &SimConfig::default());
        assert_eq!(s.trace.makespan(), 1);
        assert_eq!(s.trace.max_concurrency(), 3);
    }

    #[test]
    fn branch_skips_dead_path() {
        let mut cs = ConstraintSet::new("branch");
        for a in ["g", "x", "y", "j"] {
            cs.add_activity(a);
        }
        cs.add_domain("g", vec!["T".into(), "F".into()]);
        cs.push(Relation::before_if(
            StateRef::finish("g"),
            StateRef::start("x"),
            Condition::new("g", "T"),
            Origin::Control,
        ));
        cs.push(Relation::before_if(
            StateRef::finish("g"),
            StateRef::start("y"),
            Condition::new("g", "F"),
            Origin::Control,
        ));
        cs.push(before("x", "j"));
        cs.push(before("y", "j"));

        let mut cfg = SimConfig::default();
        cfg.oracle.insert("g".into(), "T".into());
        let s = run(&cs, &cfg);
        assert!(s.completed());
        assert!(s.trace.executed("x"));
        assert!(s.trace.skipped("y"));
        assert!(s.trace.executed("j"), "join runs despite the dead path");
        assert!(s.trace.verify(&cs).is_empty());

        cfg.oracle.insert("g".into(), "F".into());
        let s2 = run(&cs, &cfg);
        assert!(s2.trace.skipped("x"));
        assert!(s2.trace.executed("y"));
        assert!(s2.trace.verify(&cs).is_empty());
    }

    #[test]
    fn skip_ordered_after_prerequisites() {
        // a → x, x conditional on g=T; on F the skip of x happens no
        // earlier than finish(a) — and therefore the join j (after x)
        // starts after a.
        let mut cs = ConstraintSet::new("skiporder");
        for a in ["g", "a", "x", "j"] {
            cs.add_activity(a);
        }
        cs.add_domain("g", vec!["T".into(), "F".into()]);
        cs.push(Relation::before_if(
            StateRef::finish("g"),
            StateRef::start("x"),
            Condition::new("g", "T"),
            Origin::Control,
        ));
        cs.push(before("a", "x"));
        cs.push(before("x", "j"));
        let mut cfg = SimConfig::default();
        cfg.oracle.insert("g".into(), "F".into());
        cfg.durations.set("a", 10);
        let s = run(&cs, &cfg);
        assert!(s.completed());
        let skip_time = s
            .trace
            .events
            .iter()
            .find(|e| e.activity == "x" && e.kind == EventKind::Skip)
            .unwrap()
            .time;
        assert!(skip_time >= 10, "skip waits for finish(a) at t=10");
        let j_start = s.trace.occurrence(&StateRef::start("j")).unwrap().0;
        assert!(j_start >= 10);
    }

    #[test]
    fn finish_side_prerequisite_defers_completion() {
        // S(a) → F(b) with a starting late: b must not finish before a
        // starts.
        let mut cs = ConstraintSet::new("overlap");
        for a in ["z", "a", "b"] {
            cs.add_activity(a);
        }
        cs.push(before("z", "a")); // delays a's start
        cs.push(Relation::before(
            StateRef::start("a"),
            StateRef::finish("b"),
            Origin::Cooperation,
        ));
        let mut cfg = SimConfig::default();
        cfg.durations.set("z", 5);
        cfg.durations.set("b", 1);
        let s = run(&cs, &cfg);
        assert!(s.completed());
        let b_fin = s.trace.occurrence(&StateRef::finish("b")).unwrap().0;
        let a_start = s.trace.occurrence(&StateRef::start("a")).unwrap().0;
        assert_eq!(a_start, 5);
        assert!(b_fin >= 5, "b finished at {b_fin}, before a started");
        assert!(s.trace.verify(&cs).is_empty());
    }

    #[test]
    fn deadlock_reports_stuck_activities() {
        let mut cs = ConstraintSet::new("dead");
        cs.add_activity("a");
        cs.add_activity("b");
        cs.push(before("a", "b"));
        cs.push(before("b", "a"));
        let s = run(&cs, &SimConfig::default());
        assert!(!s.completed());
        assert_eq!(s.stuck, vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn exclusive_serializes() {
        let mut cs = ConstraintSet::new("excl");
        cs.add_activity("p");
        cs.add_activity("q");
        cs.push(Relation::Exclusive {
            a: StateRef::run("p"),
            b: StateRef::run("q"),
            origin: Origin::Cooperation,
        });
        let mut cfg = SimConfig::default();
        cfg.durations.set("p", 5);
        cfg.durations.set("q", 5);
        let s = run(&cs, &cfg);
        assert!(s.completed());
        assert!(s.trace.verify_exclusives(&cs).is_empty());
        assert_eq!(s.trace.makespan(), 10, "serialized");
        assert_eq!(s.trace.max_concurrency(), 1);
    }

    #[test]
    fn fewer_constraints_fewer_checks() {
        // Redundant constraints cost checks: a chain plus shortcuts.
        let mut full = ConstraintSet::new("full");
        for a in ["a", "b", "c", "d"] {
            full.add_activity(a);
        }
        full.push(before("a", "b"));
        full.push(before("b", "c"));
        full.push(before("c", "d"));
        let mut redundant = full.clone();
        redundant.push(before("a", "c"));
        redundant.push(before("a", "d"));
        redundant.push(before("b", "d"));
        let s_min = run(&full, &SimConfig::default());
        let s_red = run(&redundant, &SimConfig::default());
        assert_eq!(s_min.trace.makespan(), s_red.trace.makespan());
        assert!(
            s_red.constraint_checks > s_min.constraint_checks,
            "{} vs {}",
            s_red.constraint_checks,
            s_min.constraint_checks
        );
    }

    #[test]
    fn coordinator_activities_take_zero_time() {
        let mut cs = ConstraintSet::new("ht");
        cs.add_activity("a");
        cs.add_activity("b");
        cs.push(Relation::HappenTogether {
            a: StateRef::start("a"),
            b: StateRef::start("b"),
            cond: None,
            origin: Origin::Cooperation,
        });
        cs.desugar_happen_together();
        let s = run(&cs, &SimConfig::default());
        assert!(s.completed(), "stuck: {:?}", s.stuck);
        let a_start = s.trace.occurrence(&StateRef::start("a")).unwrap().0;
        let b_start = s.trace.occurrence(&StateRef::start("b")).unwrap().0;
        assert_eq!(a_start, b_start, "barrier starts together");
    }

    #[test]
    fn wavefront_matches_rescan_and_spends_fewer_checks() {
        // A branching process with a deferred finish and an exclusive
        // pair exercises every commit kind; the engines must agree on the
        // trace byte-for-byte while the agenda engine spends fewer checks.
        let mut cs = ConstraintSet::new("equiv");
        for a in ["g", "a", "x", "y", "j", "p", "q"] {
            cs.add_activity(a);
        }
        cs.add_domain("g", vec!["T".into(), "F".into()]);
        cs.push(Relation::before_if(
            StateRef::finish("g"),
            StateRef::start("x"),
            Condition::new("g", "T"),
            Origin::Control,
        ));
        cs.push(Relation::before_if(
            StateRef::finish("g"),
            StateRef::start("y"),
            Condition::new("g", "F"),
            Origin::Control,
        ));
        cs.push(before("a", "x"));
        cs.push(before("x", "j"));
        cs.push(before("y", "j"));
        cs.push(Relation::before(
            StateRef::start("a"),
            StateRef::finish("p"),
            Origin::Cooperation,
        ));
        cs.push(Relation::Exclusive {
            a: StateRef::run("p"),
            b: StateRef::run("q"),
            origin: Origin::Cooperation,
        });
        let exec = ExecConditions::derive(&cs);
        for value in ["T", "F"] {
            let mut cfg = SimConfig::default();
            cfg.oracle.insert("g".into(), value.into());
            cfg.durations.set("a", 7);
            cfg.durations.set("p", 3);
            let base = simulate_rescan_baseline(&cs, &exec, &cfg);
            for threads in [0usize, 1, 2] {
                let mut c = cfg.clone();
                c.threads = threads;
                let wf = simulate(&cs, &exec, &c);
                assert_eq!(
                    format!("{:?}", wf.trace),
                    format!("{:?}", base.trace),
                    "trace diverged (oracle {value}, threads {threads})"
                );
                assert_eq!(wf.stuck, base.stuck);
                assert!(
                    wf.constraint_checks <= base.constraint_checks,
                    "agenda spent more checks than the rescan: {} vs {}",
                    wf.constraint_checks,
                    base.constraint_checks
                );
            }
        }
    }

    #[test]
    fn wavefront_checks_are_thread_invariant() {
        let mut cs = ConstraintSet::new("inv");
        for i in 0..20 {
            cs.add_activity(format!("a{i}"));
        }
        for i in 0..19 {
            cs.push(before(&format!("a{i}"), &format!("a{}", i + 1)));
        }
        let exec = ExecConditions::derive(&cs);
        let runs: Vec<Schedule> = [1usize, 2, 0]
            .iter()
            .map(|&threads| {
                let cfg = SimConfig {
                    threads,
                    ..Default::default()
                };
                simulate(&cs, &exec, &cfg)
            })
            .collect();
        for s in &runs[1..] {
            assert_eq!(format!("{:?}", s.trace), format!("{:?}", runs[0].trace));
            assert_eq!(s.constraint_checks, runs[0].constraint_checks);
        }
    }

    #[test]
    fn detached_tables_run_is_bit_identical() {
        // The serve registry path: derive ScheduleTables once, store them
        // detached from any borrow, and wrap them in a PreparedSchedule per
        // request. Runs must match a fresh one-shot simulate exactly.
        let mut cs = ConstraintSet::new("detached");
        for a in ["g", "x", "y", "j", "p", "q"] {
            cs.add_activity(a);
        }
        cs.add_domain("g", vec!["T".into(), "F".into()]);
        cs.push(Relation::before_if(
            StateRef::finish("g"),
            StateRef::start("x"),
            Condition::new("g", "T"),
            Origin::Control,
        ));
        cs.push(Relation::before_if(
            StateRef::finish("g"),
            StateRef::start("y"),
            Condition::new("g", "F"),
            Origin::Control,
        ));
        cs.push(before("x", "j"));
        cs.push(before("y", "j"));
        cs.push(Relation::Exclusive {
            a: StateRef::run("p"),
            b: StateRef::run("q"),
            origin: Origin::Cooperation,
        });
        let exec = ExecConditions::derive(&cs);
        let tables = ScheduleTables::derive(&cs, &exec);
        for value in ["T", "F"] {
            for threads in [1usize, 2] {
                let mut cfg = SimConfig::default();
                cfg.oracle.insert("g".into(), value.into());
                cfg.durations.set("p", 3);
                cfg.threads = threads;
                let owned = simulate(&cs, &exec, &cfg);
                let detached = PreparedSchedule::with_tables(&cs, &exec, &tables).run(&cfg);
                assert_eq!(
                    format!("{:?}", detached.trace),
                    format!("{:?}", owned.trace),
                    "trace diverged (oracle {value}, threads {threads})"
                );
                assert_eq!(detached.constraint_checks, owned.constraint_checks);
                assert_eq!(detached.stuck, owned.stuck);
            }
        }
    }
}

#[cfg(test)]
mod worker_tests {
    use super::*;
    use dscweaver_dscl::Origin;

    fn independent(n: usize) -> ConstraintSet {
        let mut cs = ConstraintSet::new("workers");
        for i in 0..n {
            cs.add_activity(format!("a{i}"));
        }
        cs
    }

    fn run_with(cs: &ConstraintSet, workers: Option<usize>) -> Schedule {
        let exec = ExecConditions::derive(cs);
        let config = SimConfig {
            workers,
            ..Default::default()
        };
        simulate(cs, &exec, &config)
    }

    #[test]
    fn single_worker_serializes() {
        let cs = independent(5);
        let s = run_with(&cs, Some(1));
        assert!(s.completed());
        assert_eq!(s.trace.max_concurrency(), 1);
        assert_eq!(s.trace.makespan(), 5);
    }

    #[test]
    fn worker_pool_caps_concurrency() {
        let cs = independent(6);
        let s = run_with(&cs, Some(2));
        assert!(s.completed());
        assert_eq!(s.trace.max_concurrency(), 2);
        assert_eq!(s.trace.makespan(), 3, "6 unit tasks on 2 workers");
        let unbounded = run_with(&cs, None);
        assert_eq!(unbounded.trace.makespan(), 1);
        assert_eq!(unbounded.trace.max_concurrency(), 6);
    }

    #[test]
    fn constraints_still_hold_under_worker_limit() {
        let mut cs = independent(4);
        cs.push(Relation::before(
            StateRef::finish("a0"),
            StateRef::start("a3"),
            Origin::Data,
        ));
        let s = run_with(&cs, Some(2));
        assert!(s.completed());
        assert!(s.trace.verify(&cs).is_empty());
    }

    #[test]
    fn coordinators_bypass_the_pool() {
        // A barrier between two activities with a single worker must not
        // deadlock: the zero-duration coordinator does not occupy it.
        let mut cs = independent(2);
        cs.push(Relation::HappenTogether {
            a: StateRef::start("a0"),
            b: StateRef::start("a1"),
            cond: None,
            origin: Origin::Cooperation,
        });
        cs.desugar_happen_together();
        let s = run_with(&cs, Some(2));
        assert!(s.completed(), "{:?}", s.stuck);
    }

    #[test]
    fn worker_limit_matches_rescan_baseline() {
        let mut cs = independent(8);
        cs.push(Relation::before(
            StateRef::finish("a0"),
            StateRef::start("a5"),
            Origin::Data,
        ));
        let exec = ExecConditions::derive(&cs);
        let config = SimConfig {
            workers: Some(3),
            ..Default::default()
        };
        let base = simulate_rescan_baseline(&cs, &exec, &config);
        let wf = simulate(&cs, &exec, &config);
        assert_eq!(format!("{:?}", wf.trace), format!("{:?}", base.trace));
    }
}
