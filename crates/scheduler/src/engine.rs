//! The dataflow scheduling engine: "dependencies are explicitly modeled to
//! guide activity scheduling" (§1). A discrete-event simulator executes a
//! (desugared, service-free) constraint set directly — an activity starts
//! the moment its incoming HappenBefore constraints are satisfied, with
//! dead-path elimination for conditional regions and dynamic checking of
//! Exclusive constraints (§4.2).
//!
//! Two engines share the event loop skeleton and produce identical traces:
//!
//! * [`simulate`] — the wavefront engine. Per-tick readiness is driven by a
//!   dependency-counting agenda (only activities whose watched states or
//!   guards changed are re-evaluated), and each agenda sweep's pure
//!   guard-evaluation batch runs on the shared worker pool
//!   (`dscweaver_graph::par_map`). The trace is bit-identical for any
//!   `SimConfig::threads` value.
//! * [`simulate_rescan_baseline`] — the original engine: every commit pass
//!   linearly rescans all activities. Kept as the measured baseline for
//!   `BENCH_scheduler.json` and the equivalence property tests.
//!
//! The engines agree on the trace and on `stuck`; they intentionally differ
//! on `constraint_checks` — the agenda is the point: unchanged activities
//! are not re-checked, so the wavefront engine performs strictly fewer
//! satisfaction checks on sparse processes.

use crate::trace::{EventKind, Time, Trace, TraceEvent};
use dscweaver_core::ExecConditions;
use dscweaver_dscl::{ActivityState, Condition, ConstraintSet, Relation, StateRef};
use dscweaver_graph::{effective_threads, par_map};
use dscweaver_obs as obs;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap, HashSet};

/// Below this agenda size a parallel evaluation batch costs more than it
/// saves; sweeps smaller than this are evaluated inline.
const PAR_EVAL_MIN: usize = 8;

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
        if activity.starts_with("__sync") {
            return 0;
        }
        self.per_activity
            .get(activity)
            .copied()
            .unwrap_or(self.default)
    }
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
    /// occupy a worker.
    pub workers: Option<usize>,
    /// Worker threads for the guard-evaluation batches of the wavefront
    /// engine: `0` = auto (one per core, capped at 8), `1` = sequential.
    /// The schedule is bit-identical regardless.
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
            .and_then(|d| d.first().cloned())
            .unwrap_or_else(|| "done".to_string())
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
fn exec_decided(a: &str, exec: &ExecConditions, outcome: &HashMap<&str, GuardOutcome>) -> Option<bool> {
    let dnf = exec.dnf(a);
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

/// What one agenda visit would do, plus the checks it spent deciding.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Act {
    /// Cannot act under the evaluated state.
    None,
    /// Deferred finish is now satisfiable.
    Unblock,
    /// Start prereqs hold and the execution condition is true.
    Start,
    /// Execution condition is false and the skip's prereqs hold.
    Skip,
}

#[derive(Clone, Copy)]
struct Eval {
    act: Act,
    checks: u64,
}

/// The pure per-activity readiness decision — exactly the evaluation the
/// rescan engine performs per visit, against an explicit state snapshot so
/// batches of it can run on the worker pool. Exclusive partners and the
/// worker limit are *not* part of this: they read `running`, which mutates
/// during a sweep, so they are gated sequentially at commit time.
#[allow(clippy::too_many_arguments)]
fn eval_activity(
    a: &str,
    i: usize,
    start_prereqs: &[Vec<Prereq>],
    finish_prereqs: &[Vec<Prereq>],
    exec: &ExecConditions,
    resolved: &HashMap<StateRef, (Time, u64)>,
    outcome: &HashMap<&str, GuardOutcome>,
    started: &HashSet<&str>,
    done: &HashSet<&str>,
    running: &HashSet<&str>,
    finish_blocked: &HashSet<&str>,
) -> Eval {
    let mut checks = 0u64;
    if done.contains(a) || running.contains(a) && !finish_blocked.contains(a) {
        return Eval { act: Act::None, checks };
    }
    if finish_blocked.contains(a) {
        let ok = finish_prereqs[i]
            .iter()
            .all(|p| prereq_satisfied(p, resolved, outcome, &mut checks));
        let act = if ok { Act::Unblock } else { Act::None };
        return Eval { act, checks };
    }
    if started.contains(a) {
        return Eval { act: Act::None, checks };
    }
    let starts_ok = start_prereqs[i]
        .iter()
        .all(|p| prereq_satisfied(p, resolved, outcome, &mut checks));
    if !starts_ok {
        return Eval { act: Act::None, checks };
    }
    match exec_decided(a, exec, outcome) {
        None => Eval { act: Act::None, checks },
        Some(true) => Eval { act: Act::Start, checks },
        Some(false) => {
            // Skip also waits for finish-side prerequisites (skip events
            // are ordered after everything the activity would have waited
            // for).
            let fin_ok = finish_prereqs[i]
                .iter()
                .all(|p| prereq_satisfied(p, resolved, outcome, &mut checks));
            let act = if fin_ok { Act::Skip } else { Act::None };
            Eval { act, checks }
        }
    }
}

/// Re-arms every dependent in `list`: back on the agenda, and marked
/// tainted so a precomputed batch eval is not reused for it.
fn wake_all(list: Option<&Vec<usize>>, dirty: &mut BTreeSet<usize>, tainted: &mut HashSet<usize>) {
    if let Some(v) = list {
        for &i in v {
            dirty.insert(i);
            tainted.insert(i);
        }
    }
}

/// The owned, lifetime-free compile half of the scheduler: the prereq
/// buckets, exclusive-partner lists and agenda wake-lists, all keyed by
/// **activity index** (position in the constraint set's sorted
/// `activities`) instead of borrowed `&str` keys.
///
/// Because nothing here borrows the constraint set, a long-lived registry
/// (the serve daemon's warm-artifact cache) can store one `ScheduleTables`
/// per cached process next to its owned `ConstraintSet`/`ExecConditions`
/// and wrap them in a [`PreparedSchedule`] per request with
/// [`PreparedSchedule::with_tables`] at zero derivation cost.
#[derive(Clone, Debug)]
pub struct ScheduleTables {
    /// Prereq buckets by activity index, relations-order within a bucket.
    start_prereqs: Vec<Vec<Prereq>>,
    finish_prereqs: Vec<Vec<Prereq>>,
    /// Who watches which state / guard (agenda wake-lists).
    dep_state: HashMap<StateRef, Vec<usize>>,
    dep_guard: HashMap<String, Vec<usize>>,
    /// Exclusive partners by activity index.
    excl_ix: Vec<Vec<usize>>,
}

impl ScheduleTables {
    /// Derives the static indexes (prereq buckets, exclusive partners,
    /// agenda wake-lists) from `cs`/`exec`. Deterministic: activities are
    /// walked in sorted order and relations in declaration order.
    pub fn derive(cs: &ConstraintSet, exec: &ExecConditions) -> Self {
        let _span = obs::span_with("scheduler.prepare", || {
            format!("activities={} relations={}", cs.activities.len(), cs.relations.len())
        });
        let acts: Vec<&str> = cs.activities.iter().map(String::as_str).collect();
        let act_ix: HashMap<&str, usize> = acts.iter().enumerate().map(|(i, a)| (*a, i)).collect();
        // Indexing.
        let mut start_prereqs: Vec<Vec<Prereq>> = vec![Vec::new(); acts.len()];
        let mut finish_prereqs: Vec<Vec<Prereq>> = vec![Vec::new(); acts.len()];
        for r in &cs.relations {
            if let Relation::HappenBefore { from, to, cond, .. } = r {
                let Some(&i) = act_ix.get(to.activity.as_str()) else {
                    continue;
                };
                let p = Prereq {
                    producer: from.clone(),
                    cond: cond.clone(),
                };
                match to.state {
                    ActivityState::Start | ActivityState::Run => start_prereqs[i].push(p),
                    ActivityState::Finish => finish_prereqs[i].push(p),
                }
            }
        }
        // Exclusive partner lists.
        let mut excl_ix: Vec<Vec<usize>> = vec![Vec::new(); acts.len()];
        for (x, y) in cs.exclusives() {
            if let (Some(&i), Some(&j)) = (
                act_ix.get(x.activity.as_str()),
                act_ix.get(y.activity.as_str()),
            ) {
                excl_ix[i].push(j);
                excl_ix[j].push(i);
            }
        }

        // Agenda bookkeeping: who watches which state / guard.
        let mut dep_state: HashMap<StateRef, Vec<usize>> = HashMap::new();
        let mut dep_guard: HashMap<String, Vec<usize>> = HashMap::new();
        for (i, a) in acts.iter().enumerate() {
            for p in start_prereqs[i].iter().chain(finish_prereqs[i].iter()) {
                dep_state.entry(p.producer.clone()).or_default().push(i);
                if let Some(c) = &p.cond {
                    dep_guard.entry(c.on.clone()).or_default().push(i);
                }
            }
            let dnf = exec.dnf(a);
            if !dnf.is_always() {
                for t in dnf.terms() {
                    for c in t {
                        dep_guard.entry(c.on.clone()).or_default().push(i);
                    }
                }
            }
        }
        ScheduleTables {
            start_prereqs,
            finish_prereqs,
            dep_state,
            dep_guard,
            excl_ix,
        }
    }
}

/// The run half of the scheduler: a constraint set with its
/// [`ScheduleTables`], replayed across runs with different branch
/// oracles, durations, worker limits and thread counts — the
/// monitoring-replay workload, where one ASC is simulated many times.
///
/// [`simulate`] is exactly `ScheduleTables::derive` +
/// [`PreparedSchedule::with_tables`] + [`PreparedSchedule::run`], so a
/// replay over cached tables is bit-identical to the one-shot path by
/// construction (and pinned by the `prepared_engines_equivalence`
/// property tests).
#[derive(Debug)]
pub struct PreparedSchedule<'a> {
    cs: &'a ConstraintSet,
    exec: &'a ExecConditions,
    tables: &'a ScheduleTables,
    acts: Vec<&'a str>,
    act_ix: HashMap<&'a str, usize>,
}

impl<'a> PreparedSchedule<'a> {
    /// Wraps `cs`/`exec` and their tables without re-deriving. The tables
    /// must come from [`ScheduleTables::derive`] on this same `cs`/`exec`
    /// pair.
    pub fn with_tables(
        cs: &'a ConstraintSet,
        exec: &'a ExecConditions,
        tables: &'a ScheduleTables,
    ) -> Self {
        let acts: Vec<&str> = cs.activities.iter().map(String::as_str).collect();
        let act_ix: HashMap<&str, usize> = acts.iter().enumerate().map(|(i, a)| (*a, i)).collect();
        PreparedSchedule {
            cs,
            exec,
            tables,
            acts,
            act_ix,
        }
    }

    /// One simulation run over the prepared indexes — the wavefront event
    /// loop of [`simulate`], minus the per-call index derivation.
    pub fn run(&self, config: &SimConfig) -> Schedule {
        let _span = obs::span("scheduler.run");
        let cs = self.cs;
        let exec = self.exec;
        let tables = self.tables;
        let start_prereqs = tables.start_prereqs.as_slice();
        let finish_prereqs = tables.finish_prereqs.as_slice();
        let acts = &self.acts;
        let act_ix = &self.act_ix;
        let dep_state = &tables.dep_state;
        let dep_guard = &tables.dep_guard;
        let excl_ix = &tables.excl_ix;
        let threads = effective_threads(config.threads, 8);

        // Dynamic state.
        let mut resolved: HashMap<StateRef, (Time, u64)> = HashMap::new();
        let mut outcome: HashMap<&str, GuardOutcome> = HashMap::new();
        let mut started: HashSet<&str> = HashSet::new();
        let mut done: HashSet<&str> = HashSet::new(); // finished or skipped
        let mut running: HashSet<&str> = HashSet::new();
        let mut finish_blocked: HashSet<&str> = HashSet::new();
        let mut trace = Trace::default();
        let mut seq: u64 = 0;
        let mut checks: u64 = 0;
        let mut now: Time = 0;

        // Scheduled natural finishes: Reverse-ordered min-heap.
        let mut finish_queue: BinaryHeap<std::cmp::Reverse<(Time, u64, String)>> = BinaryHeap::new();

        // The agenda. `dirty` holds activities whose readiness may have
        // changed; `worker_blocked` holds activities that were startable but
        // found no free worker (re-armed by the next finish); `tainted` marks
        // activities whose watched state changed after the current sweep's
        // batch evaluation, invalidating their precomputed entry.
        let mut dirty: BTreeSet<usize> = (0..acts.len()).collect();
        let mut worker_blocked: BTreeSet<usize> = BTreeSet::new();
        let mut tainted: HashSet<usize> = HashSet::new();

        let total = cs.activities.len();
        loop {
            // Commit phase: sweep the agenda until nothing can act at `now`.
            loop {
                if dirty.is_empty() {
                    break;
                }
                tainted.clear();
                // Pure readiness evaluation of the whole pending sweep, batched
                // on the worker pool. Advisory: commits below re-evaluate any
                // entry whose inputs a prior commit of this sweep changed.
                let batch: Vec<usize> = dirty.iter().copied().collect();
                let pre: HashMap<usize, Eval> = if threads > 1 && batch.len() >= PAR_EVAL_MIN {
                    par_map(threads, &batch, &|&i| {
                        (
                            i,
                            eval_activity(
                                acts[i], i, start_prereqs, finish_prereqs, exec, &resolved,
                                &outcome, &started, &done, &running, &finish_blocked,
                            ),
                        )
                    })
                    .into_iter()
                    .collect()
                } else {
                    HashMap::new()
                };
                let mut progressed = false;
                let mut pos = 0usize;
                // Monotone sweep: agenda insertions behind `pos` wait for the
                // next sweep, mirroring the rescan engine's pass order.
                while let Some(i) = dirty.range(pos..).next().copied() {
                    pos = i + 1;
                    let a = acts[i];
                    let ev = match pre.get(&i) {
                        Some(ev) if !tainted.contains(&i) => *ev,
                        _ => eval_activity(
                            a, i, start_prereqs, finish_prereqs, exec, &resolved, &outcome,
                            &started, &done, &running, &finish_blocked,
                        ),
                    };
                    checks += ev.checks;
                    match ev.act {
                        Act::None => {
                            dirty.remove(&i);
                        }
                        Act::Unblock => {
                            dirty.remove(&i);
                            finish_blocked.remove(a);
                            commit_finish(
                                a, now, &mut seq, cs, config, &mut trace, &mut resolved,
                                &mut outcome, &mut running, &mut done, value_of_guard,
                            );
                            wake_all(dep_state.get(&StateRef::finish(a)), &mut dirty, &mut tainted);
                            wake_all(dep_guard.get(a), &mut dirty, &mut tainted);
                            for &j in &excl_ix[i] {
                                dirty.insert(j);
                                tainted.insert(j);
                            }
                            for j in std::mem::take(&mut worker_blocked) {
                                dirty.insert(j);
                                tainted.insert(j);
                            }
                            progressed = true;
                        }
                        Act::Start => {
                            // Exclusive: defer while a partner is running; the
                            // partner's finish re-arms us.
                            if excl_ix[i].iter().any(|&j| running.contains(acts[j])) {
                                dirty.remove(&i);
                                continue;
                            }
                            // Worker limit: zero-duration activities (the
                            // desugaring coordinators) pass through freely.
                            if let Some(k) = config.workers {
                                if config.durations.of(a) > 0 && running.len() >= k {
                                    dirty.remove(&i);
                                    worker_blocked.insert(i);
                                    continue;
                                }
                            }
                            dirty.remove(&i);
                            started.insert(a);
                            running.insert(a);
                            trace.events.push(TraceEvent {
                                time: now,
                                seq,
                                activity: a.to_string(),
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
                            wake_all(dep_state.get(&StateRef::start(a)), &mut dirty, &mut tainted);
                            wake_all(dep_state.get(&StateRef::run(a)), &mut dirty, &mut tainted);
                            progressed = true;
                        }
                        Act::Skip => {
                            dirty.remove(&i);
                            started.insert(a);
                            done.insert(a);
                            trace.events.push(TraceEvent {
                                time: now,
                                seq,
                                activity: a.to_string(),
                                kind: EventKind::Skip,
                                value: None,
                            });
                            for st in ActivityState::ALL {
                                let sr = StateRef {
                                    activity: a.to_string(),
                                    state: st,
                                };
                                resolved.insert(sr.clone(), (now, seq));
                                wake_all(dep_state.get(&sr), &mut dirty, &mut tainted);
                            }
                            outcome.insert(a, GuardOutcome::Skipped);
                            wake_all(dep_guard.get(a), &mut dirty, &mut tainted);
                            seq += 1;
                            progressed = true;
                        }
                    }
                }
                if !progressed {
                    break;
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
            let a_ref: &str = cs
                .activities
                .get(&a)
                .map(String::as_str)
                .expect("finish of unknown activity");
            // Finish-side prerequisites may defer the completion.
            let ok = finish_prereqs[act_ix[a_ref]]
                .iter()
                .all(|p| prereq_satisfied(p, &resolved, &outcome, &mut checks));
            if ok {
                commit_finish(
                    a_ref, now, &mut seq, cs, config, &mut trace, &mut resolved, &mut outcome,
                    &mut running, &mut done, value_of_guard,
                );
                wake_all(dep_state.get(&StateRef::finish(a_ref)), &mut dirty, &mut tainted);
                wake_all(dep_guard.get(a_ref), &mut dirty, &mut tainted);
                for &j in &excl_ix[act_ix[a_ref]] {
                    dirty.insert(j);
                    tainted.insert(j);
                }
                for j in std::mem::take(&mut worker_blocked) {
                    dirty.insert(j);
                    tainted.insert(j);
                }
            } else {
                finish_blocked.insert(a_ref);
            }
        }

        let stuck: Vec<String> = cs
            .activities
            .iter()
            .filter(|a| !done.contains(a.as_str()))
            .cloned()
            .collect();
        obs::counter_add("scheduler.constraint_checks", checks);
        obs::counter_add("scheduler.stuck_activities", stuck.len() as u64);
        obs::gauge_set("scheduler.makespan", trace.makespan() as f64);
        Schedule {
            trace,
            constraint_checks: checks,
            stuck,
        }
    }
}

/// Runs the dataflow scheduler over `cs` — the wavefront engine.
///
/// Readiness is tracked by a dependency-counting agenda: each activity
/// leaves the agenda when an evaluation finds it unable to act, and
/// re-enters only when a state it watches changes (a prereq producer
/// resolving, a guard it mentions deciding, an exclusive partner
/// finishing, or a worker slot freeing). Each agenda sweep first evaluates
/// its pending activities as one pure batch on the worker pool
/// (`config.threads`; `0` = auto), then commits sequentially in activity
/// order, which makes the trace bit-identical to the rescan baseline and
/// independent of the thread count — only `constraint_checks` shrinks.
///
/// The one-shot composition: derives the static indexes and runs once.
/// Callers replaying one constraint set under many configurations keep a
/// [`ScheduleTables`] and call [`PreparedSchedule::run`] repeatedly.
pub fn simulate(cs: &ConstraintSet, exec: &ExecConditions, config: &SimConfig) -> Schedule {
    let tables = ScheduleTables::derive(cs, exec);
    PreparedSchedule::with_tables(cs, exec, &tables).run(config)
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
    let mut running: HashSet<&str> = HashSet::new();
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
                match exec_decided(a, exec, &outcome) {
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
                            if config.durations.of(a) > 0 && running.len() >= k {
                                continue;
                            }
                        }
                        started.insert(a);
                        running.insert(a);
                        trace.events.push(TraceEvent {
                            time: now,
                            seq,
                            activity: a.to_string(),
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
                            activity: a.to_string(),
                            kind: EventKind::Skip,
                            value: None,
                        });
                        for st in ActivityState::ALL {
                            resolved.insert(
                                StateRef {
                                    activity: a.to_string(),
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
        let a_ref: &str = cs
            .activities
            .get(&a)
            .map(String::as_str)
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
        .cloned()
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
        activity: a.to_string(),
        kind: EventKind::Finish,
        value: value.clone(),
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
