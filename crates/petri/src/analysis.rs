//! Design-time validation of a synchronization scheme (§4.1: "conflict
//! dependencies like infinite synchronization sequence can be detected
//! during design stage").
//!
//! Validation layers, cheapest first:
//!
//! 1. **Structural conflict check** — a cycle in the constraint graph is
//!    an unsatisfiable ("infinite") synchronization sequence; reported
//!    with the activities on the cycle.
//! 2. **Per-branch-assignment simulation** — for every assignment of
//!    branch values, run the lowered net to quiescence and check the final
//!    marking (every activity done-or-skipped, no stranded tokens). The
//!    lowered nets are conflict-free once branch modes are fixed (each
//!    place has one consumer), so a single maximal-step run per assignment
//!    is complete for deadlock/termination — this is what makes validation
//!    scale past the interleaving explosion.

use crate::lower::ModeLimit;
use crate::net::{render_marking, PlaceId};
use crate::prepared::{groups, Csr, Lanes, Names, Scratch, Tables};
use dscweaver_core::resolve::Kind;
use dscweaver_core::{resolve, ExecConditions, Resolved};
use dscweaver_dscl::{ConstraintSet, SyncGraph};
use dscweaver_graph::find_cycle;
use dscweaver_obs as obs;
use std::collections::HashMap;

/// The cacheable compile half of validation: everything derivable from
/// the constraint set alone — conflict check, the integer kernel of the
/// lowered net with the compact index of the names behind its numbers
/// (activities, guards and their domains, buffer endpoints), and the
/// guard-independence groups. Owns all of it (no borrowed lifetimes), so
/// a long-running daemon can keep one per cached process and replay
/// [`CompiledValidation::run`] per request; [`validate`] is exactly
/// `compile` + `run`, and the reports are bit-identical.
#[derive(Debug)]
pub struct CompiledValidation {
    conflict_cycle: Option<Vec<String>>,
    mode_limit: Option<ModeLimit>,
    /// `None` when a structural conflict or the mode limit stops
    /// validation before there is a kernel.
    net: Option<CompiledNet>,
}

#[derive(Debug)]
struct CompiledNet {
    tables: Tables,
    names: Names,
    /// Disjoint-footprint guard groups as indices into `names.guards`
    /// (computed when there is more than one guard; otherwise empty and
    /// never consulted).
    groups: Vec<Vec<usize>>,
}

impl CompiledValidation {
    /// Compiles the validation artifacts for a desugared, service-free
    /// constraint set: structural conflict check, then (if conflict-free
    /// and within [`MAX_MODES`](crate::lower::MAX_MODES)) the lowered
    /// net's integer kernel, emitted straight from the constraint set,
    /// and the guard groups.
    pub fn compile(cs: &ConstraintSet, exec: &ExecConditions) -> Self {
        let stopped = |conflict_cycle, mode_limit| CompiledValidation {
            conflict_cycle,
            mode_limit,
            net: None,
        };
        let ids = resolve(cs, exec);
        if !acyclic(&ids) {
            let sg = SyncGraph::build(cs);
            if let Some(cycle) = find_cycle(&sg.graph) {
                obs::instant("petri.conflict_cycle");
                let cycle = cycle.iter().map(|&n| sg.graph.weight(n).label()).collect();
                return stopped(Some(cycle), None);
            }
        }
        let lower_span = obs::span("petri.lower");
        let emitted = Tables::emit(ids);
        drop(lower_span);
        let (tables, names) = match emitted {
            Ok(emitted) => emitted,
            Err(limit) => {
                obs::instant("petri.mode_limit");
                return stopped(None, Some(limit));
            }
        };
        let groups = if names.guards.len() > 1 {
            groups(&tables, &names.guards)
        } else {
            Vec::new()
        };
        CompiledValidation {
            conflict_cycle: None,
            mode_limit: None,
            net: Some(CompiledNet {
                tables,
                names,
                groups,
            }),
        }
    }

    /// The structural conflict cycle, if compilation found one.
    pub fn conflict_cycle(&self) -> Option<&[String]> {
        self.conflict_cycle.as_deref()
    }

    /// The size of the compiled kernel: `u32` words in its flat arrays,
    /// an arc or a token entry counting as two (`0` when a conflict or
    /// the mode limit stopped compilation).
    pub fn kernel_words(&self) -> usize {
        self.net.as_ref().map_or(0, |c| c.tables.words())
    }

    /// Runs the run half — assignment enumeration — against the
    /// compiled artifacts. Bit-identical to
    /// [`validate`] with the same options.
    ///
    /// The assignments run through the lane kernel, up to 64 in one
    /// bit-sliced sweep in lexicographic index order; the lanes that fail,
    /// diverge or could put two tokens on one place re-run one by one
    /// through the scalar kernel, which writes their failures. The report
    /// is identical to [`run_scalar`](Self::run_scalar)'s.
    pub fn run(&self, opts: &ValidateOptions) -> ValidationReport {
        self.run_with(opts, true)
    }

    /// The run half with every assignment on the scalar kernel, one run
    /// each: the oracle [`run`](Self::run) is pinned to, report for
    /// report.
    pub fn run_scalar(&self, opts: &ValidateOptions) -> ValidationReport {
        self.run_with(opts, false)
    }

    fn run_with(&self, opts: &ValidateOptions, lanes: bool) -> ValidationReport {
        match &self.net {
            Some(compiled) => run_compiled(compiled, opts, lanes),
            None => ValidationReport {
                conflict_cycle: self.conflict_cycle.clone(),
                mode_limit: self.mode_limit.clone(),
                assignments_checked: 0,
                assignments_truncated: false,
                failures: Vec::new(),
                guard_groups: 0,
                factored: false,
                assignment_space: 0,
            },
        }
    }
}

/// Whether [`SyncGraph::build`]`(cs)` is acyclic, decided on the
/// resolved set's ids without building it: activity `i`'s states are
/// nodes `3i..3i + 3` chained by lifecycle edges, each service one node
/// after them, and every `HappenBefore` between declared endpoints an
/// edge. Kahn's algorithm drains the graph iff it has no cycle
/// (self-loops included), so only a conflicting set pays for the labeled
/// graph that names the cycle.
fn acyclic(ids: &Resolved) -> bool {
    let (nodes, states) = (ids.node_count(), 3 * ids.activities());
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(ids.relations().len());
    for (kind, from, to, _) in ids.relations() {
        if let (Kind::Before, Some(f), Some(t)) = (kind, ids.node(from), ids.node(to)) {
            edges.push((f, t));
        }
    }
    // The lifecycle edges `3i → 3i + 1 → 3i + 2` stay implicit.
    let succ = Csr::grouped(nodes, &edges);
    let mut indegree = vec![0u32; nodes];
    for v in (0..states).filter(|v| v % 3 != 0) {
        indegree[v] = 1;
    }
    for &(_, t) in &edges {
        indegree[t as usize] += 1;
    }
    let mut ready: Vec<u32> = (0..nodes as u32).filter(|&v| indegree[v as usize] == 0).collect();
    let mut drained = 0;
    while let Some(v) = ready.pop() {
        drained += 1;
        let next = (v as usize) < states && v % 3 != 2;
        for &w in succ.row(v as usize).iter().chain(next.then_some(&(v + 1))) {
            indegree[w as usize] -= 1;
            if indegree[w as usize] == 0 {
                ready.push(w);
            }
        }
    }
    drained == nodes
}

/// Validation options.
#[derive(Clone, Debug)]
pub struct ValidateOptions {
    /// Cap on enumerated branch assignments (beyond it, validation samples
    /// the first `max_assignments` lexicographically and reports
    /// truncation).
    pub max_assignments: usize,
    /// Step budget per simulation run.
    pub max_steps: usize,
    /// Ignored: validation runs on the calling thread, and the report is
    /// the same for every value.
    pub threads: usize,
    /// Enumerate independent guard groups separately (default `true`; see
    /// [`guard_groups`](crate::guard_groups)): each group's assignment
    /// sub-space is checked with the other guards pinned to their first
    /// domain value, turning the multiplicative product of domain sizes
    /// into a sum over groups.
    /// The ok/not-ok verdict is unchanged (disjoint footprints cannot
    /// interact), but `assignments_checked` shrinks and failures report
    /// the pinned values for out-of-group guards.
    /// [`ValidationReport::factored`] records whether the split actually
    /// happened. `false` always enumerates the full multiplicative space,
    /// keeping reports byte-stable against the unfactored enumeration.
    pub factor: bool,
}

impl Default for ValidateOptions {
    fn default() -> Self {
        ValidateOptions {
            max_assignments: 4096,
            max_steps: 1_000_000,
            threads: 0,
            factor: true,
        }
    }
}

/// One failed branch assignment.
#[derive(Clone, Debug)]
pub struct AssignmentFailure {
    /// guard → chosen value.
    pub assignment: HashMap<String, String>,
    /// Activities that never completed (nor skipped).
    pub stuck: Vec<String>,
    /// Rendered stuck marking.
    pub marking: String,
    /// True if the run exceeded the step budget (livelock) rather than
    /// deadlocking.
    pub diverged: bool,
}

/// The validation verdict.
#[derive(Clone, Debug)]
pub struct ValidationReport {
    /// A structural conflict cycle, if any (validation stops there).
    pub conflict_cycle: Option<Vec<String>>,
    /// The activity whose guard combinations exceed
    /// [`MAX_MODES`](crate::lower::MAX_MODES), if any (validation stops
    /// there, before lowering enumerates them).
    pub mode_limit: Option<ModeLimit>,
    /// Branch assignments simulated.
    pub assignments_checked: usize,
    /// True if the assignment space was larger than the cap.
    pub assignments_truncated: bool,
    /// Failures found.
    pub failures: Vec<AssignmentFailure>,
    /// Independence groups the enumeration was split into: `1` for the
    /// unfactored path (or no guards), the number of disjoint-footprint
    /// groups when [`ValidateOptions::factor`] allowed factoring, `0`
    /// when validation stopped at a structural conflict.
    pub guard_groups: usize,
    /// Whether the enumeration actually ran factored (more than one
    /// independent group with [`ValidateOptions::factor`] set) — the
    /// recorded auto-enable decision.
    pub factored: bool,
    /// The full multiplicative assignment space (product of domain
    /// sizes, saturating); `assignments_checked` is below this when the
    /// cap truncated the enumeration or factoring shrank it.
    pub assignment_space: usize,
}

impl ValidationReport {
    /// Overall verdict.
    pub fn ok(&self) -> bool {
        self.conflict_cycle.is_none() && self.mode_limit.is_none() && self.failures.is_empty()
    }
}

/// Validates a desugared, service-free constraint set.
///
/// Exactly [`CompiledValidation::compile`] followed by
/// [`CompiledValidation::run`] — split out so a daemon can cache the
/// compile half per process and pay only the run half per request.
pub fn validate(
    cs: &ConstraintSet,
    exec: &ExecConditions,
    opts: &ValidateOptions,
) -> ValidationReport {
    let _span = obs::span_with("petri.validate", || {
        format!("activities={} domains={}", cs.activities.len(), cs.domains.len())
    });
    CompiledValidation::compile(cs, exec).run(opts)
}

/// The run half over compiled artifacts: assignment enumeration (layer 2)
/// on the lane kernel (`lanes`) or the scalar one.
fn run_compiled(compiled: &CompiledNet, opts: &ValidateOptions, lanes: bool) -> ValidationReport {
    let names = &compiled.names;
    let tables = &compiled.tables;

    // Layer 2: per-assignment simulation.
    let guards = &names.guards;
    let space: usize = guards
        .iter()
        .map(|g| g.domain.len().max(1))
        .try_fold(1usize, |a, n| a.checked_mul(n))
        .unwrap_or(usize::MAX);

    // Enumeration plans: each plan is the set of guard positions that
    // vary, every other guard pinned to its first domain value. The
    // unfactored path is one plan over all guards — decoding a linear
    // index over it is exactly the original mixed-radix little-endian
    // odometer. With `factor` set, one plan per
    // disjoint-footprint group: sub-spaces sum instead of multiplying,
    // and the verdict is unchanged because disjoint groups cannot
    // influence a common place.
    let plans: Vec<Vec<usize>> = if opts.factor && guards.len() > 1 {
        compiled.groups.clone()
    } else {
        vec![(0..guards.len()).collect()]
    };

    // One branch assignment per (plan, linear index), decoded positionally
    // over the plan's guards: per guard, its value's index.
    let values = |plan: &[usize], i: usize| -> Vec<usize> {
        let mut idx = vec![0usize; guards.len()];
        let mut rest = i;
        for &g in plan {
            let len = guards[g].domain.len().max(1);
            idx[g] = rest % len;
            rest /= len;
        }
        idx
    };
    let activities = names.activities();
    // One assignment on the scalar kernel, reusing the caller's scratch.
    let run_one = |idx: &[usize], scratch: &mut Scratch| -> Option<AssignmentFailure> {
        // Each guard's `finish` prefers the mode labeled with its value;
        // guards are sorted like the activities, so their `finish`
        // transitions ascend.
        let prefer: Vec<(u32, usize)> = guards
            .iter()
            .zip(idx)
            .filter_map(|(g, &v)| Some((g.finish?, g.mode(v))))
            .collect();
        let chooser = |t: usize, enabled: &[usize]| {
            let preferred = prefer.binary_search_by_key(&(t as u32), |&(t, _)| t);
            match preferred.map(|k| prefer[k].1) {
                Ok(mi) if enabled.contains(&mi) => mi,
                _ => enabled[0],
            }
        };
        let diverged = scratch.run(tables, chooser, opts.max_steps);
        // Final: every activity done (or skipped) and nothing else marked.
        let done = |a: usize| scratch.place_total(PlaceId(3 * a as u32 + 2));
        let is_final = scratch.total() == activities.len() as u64
            && (0..activities.len()).all(|a| done(a) == 1);
        if diverged || !is_final {
            let marking = scratch.marking(tables);
            Some(AssignmentFailure {
                assignment: guards
                    .iter()
                    .zip(idx)
                    .map(|(g, &i)| (g.name.to_string(), g.domain[i].to_string()))
                    .collect(),
                stuck: (0..activities.len())
                    .filter(|&a| done(a) == 0)
                    .map(|a| activities[a].to_string())
                    .collect(),
                marking: render_marking(&marking, |p| names.place_name(p)),
                diverged,
            })
        } else {
            None
        }
    };
    let assignments_span = obs::span_with("petri.assignments", || {
        format!("plans={} space={space} lanes={lanes}", plans.len())
    });
    let mut scratch = Scratch::default();
    let mut lane_state = Lanes::default();
    let mut sweeps = 0u64;
    // Lanes re-run on the scalar kernel, by cause.
    let (mut unsafe_lanes, mut failed_lanes, mut diverged_lanes) = (0u64, 0u64, 0u64);
    let mut checked = 0usize;
    let mut truncated = false;
    let mut failures: Vec<AssignmentFailure> = Vec::new();
    for plan in &plans {
        let plan_space: usize = plan
            .iter()
            .map(|&g| guards[g].domain.len().max(1))
            .try_fold(1usize, |a, n| a.checked_mul(n))
            .unwrap_or(usize::MAX);
        // max_assignments is a total budget across plans.
        let plan_to_check = plan_space.min(opts.max_assignments.saturating_sub(checked));
        if plan_to_check < plan_space {
            truncated = true;
        }
        if lanes {
            // Chunks of 64 consecutive indices, lane `k` running index
            // `base + k`; failures come out in index order.
            for base in (0..plan_to_check).step_by(64) {
                let width = (plan_to_check - base).min(64);
                let chunk: Vec<Vec<usize>> = (base..base + width).map(|i| values(plan, i)).collect();
                lane_state.clear_preferences(tables);
                for (lane, idx) in chunk.iter().enumerate() {
                    for (g, &v) in guards.iter().zip(idx) {
                        if let Some(t) = g.finish {
                            lane_state.prefer(tables, t as usize, g.mode(v), lane);
                        }
                    }
                }
                let out = lane_state.run(tables, u64::MAX >> (64 - width), opts.max_steps);
                sweeps += out.sweeps;
                let ok = out.quiet & lane_state.final_lanes(tables, activities.len());
                unsafe_lanes += out.unsafe_.count_ones() as u64;
                failed_lanes += (out.quiet & !ok).count_ones() as u64;
                diverged_lanes += out.diverged.count_ones() as u64;
                for (lane, idx) in chunk.iter().enumerate().filter(|&(lane, _)| ok >> lane & 1 == 0) {
                    let failure = run_one(idx, &mut scratch);
                    let safe = out.unsafe_ >> lane & 1 == 0;
                    debug_assert!(failure.is_some() || !safe, "a failing lane passes its scalar run");
                    failures.extend(failure);
                }
            }
        } else {
            for i in 0..plan_to_check {
                failures.extend(run_one(&values(plan, i), &mut scratch));
            }
        }
        checked += plan_to_check;
    }
    drop(assignments_span);

    let factored = plans.len() > 1;
    obs::counter_add("petri.assignments_checked", checked as u64);
    obs::counter_add("petri.lane_sweeps", sweeps);
    obs::counter_add("petri.scalar_fallbacks", unsafe_lanes + failed_lanes + diverged_lanes);
    obs::counter_add("petri.scalar_fallbacks.unsafe", unsafe_lanes);
    obs::counter_add("petri.scalar_fallbacks.failed", failed_lanes);
    obs::counter_add("petri.scalar_fallbacks.diverged", diverged_lanes);
    obs::counter_add("petri.failures", failures.len() as u64);
    if factored {
        obs::counter_add("petri.factored_runs", 1);
    }
    obs::gauge_set("petri.guard_groups", plans.len() as f64);
    obs::gauge_set("petri.assignment_space", space as f64);
    ValidationReport {
        conflict_cycle: None,
        mode_limit: None,
        assignments_checked: checked,
        assignments_truncated: truncated,
        failures,
        guard_groups: plans.len(),
        factored,
        assignment_space: space,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prepared::tests::nested_guards;
    use dscweaver_dscl::{Condition, Origin, Relation, StateRef};

    fn exec_of(cs: &ConstraintSet) -> ExecConditions {
        ExecConditions::derive(cs)
    }

    #[test]
    fn sound_branchy_set_validates() {
        let mut cs = ConstraintSet::new("ok");
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
        cs.push(Relation::before(
            StateRef::finish("x"),
            StateRef::start("j"),
            Origin::Data,
        ));
        cs.push(Relation::before(
            StateRef::finish("y"),
            StateRef::start("j"),
            Origin::Data,
        ));
        let exec = exec_of(&cs);
        let report = validate(&cs, &exec, &ValidateOptions::default());
        assert!(report.ok(), "{report:#?}");
        assert_eq!(report.assignments_checked, 2);
    }

    #[test]
    fn compiled_validation_replays_identically() {
        // One compile, many runs: every run must equal a fresh validate().
        let mut cs = ConstraintSet::new("replay");
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
        cs.push(Relation::before(
            StateRef::finish("x"),
            StateRef::start("j"),
            Origin::Data,
        ));
        let exec = exec_of(&cs);
        let compiled = CompiledValidation::compile(&cs, &exec);
        for opts in [
            ValidateOptions::default(),
            ValidateOptions {
                factor: false,
                ..Default::default()
            },
        ] {
            let fresh = validate(&cs, &exec, &opts);
            for _ in 0..2 {
                let cached = compiled.run(&opts);
                assert_eq!(cached.ok(), fresh.ok());
                assert_eq!(cached.assignments_checked, fresh.assignments_checked);
                assert_eq!(cached.guard_groups, fresh.guard_groups);
                assert_eq!(cached.factored, fresh.factored);
                assert_eq!(cached.assignment_space, fresh.assignment_space);
                assert!(cached.failures.is_empty());
            }
        }
    }

    #[test]
    fn nested_guards_past_the_mode_limit_stop_compilation() {
        // d listens on every guard: 3^7 = 2187 modes lower, 3^8 = 6561
        // exceed MAX_MODES and stop compilation before enumerating them.
        let ok = nested_guards(7);
        assert!(validate(&ok, &exec_of(&ok), &ValidateOptions::default()).ok());
        let deep = nested_guards(8);
        let report = validate(&deep, &exec_of(&deep), &ValidateOptions::default());
        assert!(!report.ok());
        let limit = report.mode_limit.expect("the mode limit stops compilation");
        assert_eq!((limit.activity.as_str(), limit.modes), ("d", 6561));
        assert_eq!(report.assignments_checked, 0);
        assert!(report.conflict_cycle.is_none());
        let compiled = CompiledValidation::compile(&deep, &exec_of(&deep));
        assert_eq!(compiled.kernel_words(), 0);
        let replayed = compiled.run(&ValidateOptions::default());
        assert_eq!(replayed.mode_limit, Some(limit));
        assert_eq!(replayed.assignments_checked, 0);
        // Far past the limit the count saturates instead of overflowing.
        let hostile = nested_guards(64);
        let limit = validate(&hostile, &exec_of(&hostile), &ValidateOptions::default())
            .mode_limit
            .unwrap();
        assert_eq!(limit.modes, usize::MAX);
    }

    #[test]
    fn acyclic_agrees_with_find_cycle_on_the_sync_graph() {
        // Seeded small sets: lifecycle cycles (F(a) → S(a)), self-loops,
        // services (one shadowed by an activity) and undeclared endpoints.
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n) as usize
        };
        let names = ["a", "b", "c", "d", "svc", "nobody"];
        let (mut cyclic, mut acyclic_sets) = (0, 0);
        for _ in 0..3000 {
            let mut cs = ConstraintSet::new("random");
            for a in &names[..1 + next(4)] {
                cs.add_activity(*a);
            }
            cs.add_service("svc");
            if next(4) == 0 {
                cs.add_service("a");
            }
            for _ in 0..next(7) {
                let state = |k: usize| [StateRef::start, StateRef::run, StateRef::finish][k];
                let from = state(next(3))(names[next(6)]);
                let to = state(next(3))(names[next(6)]);
                cs.relations.push(Relation::before(from, to, Origin::Data));
            }
            let want = find_cycle(&SyncGraph::build(&cs).graph).is_none();
            let ids = resolve(&cs, &ExecConditions::default());
            assert_eq!(acyclic(&ids), want, "{:?}", cs.relations);
            if want {
                acyclic_sets += 1;
            } else {
                cyclic += 1;
            }
        }
        assert!(cyclic > 300 && acyclic_sets > 300, "{cyclic} cyclic, {acyclic_sets} acyclic");
    }

    #[test]
    fn conflict_cycle_detected_structurally() {
        let mut cs = ConstraintSet::new("cyc");
        cs.add_activity("a");
        cs.add_activity("b");
        cs.push(Relation::before(
            StateRef::finish("a"),
            StateRef::start("b"),
            Origin::Data,
        ));
        cs.push(Relation::before(
            StateRef::finish("b"),
            StateRef::start("a"),
            Origin::Cooperation,
        ));
        let exec = exec_of(&cs);
        let report = validate(&cs, &exec, &ValidateOptions::default());
        assert!(!report.ok());
        assert!(report.conflict_cycle.is_some());
    }

    #[test]
    fn missing_execution_knowledge_deadlocks() {
        // x waits for a conditional token but has NO execution condition
        // derivable (the conditional edge is Cooperation, not Control):
        // when g=F the token is F-colored... consumption is Any so ordering
        // holds; but exec(x)=always, so x runs on both branches — fine. A
        // real deadlock: x additionally waits on a constraint from an
        // activity that itself never resolves. Simulate by a constraint
        // from an activity that is control dependent on g=T while x is
        // unconditional AND the producer's skip cannot propagate... with
        // DPE skip propagation this cannot deadlock — which is exactly
        // what this test demonstrates: the DPE lowering is deadlock-free
        // here, while a naive lowering would hang. So instead, produce a
        // REAL failure: a conditional constraint whose guard has a
        // three-value domain but only two handled branches is still fine
        // (skip covers it)... The honest deadlock case is the structural
        // cycle (above) or an exec condition referencing a guard that is
        // never evaluated — which validation must catch:
        let mut cs = ConstraintSet::new("dead");
        cs.add_activity("x");
        // exec(x) says "ghost=T" but ghost is not an activity: the control
        // place never receives a token.
        cs.add_domain("ghost", vec!["T".into(), "F".into()]);
        cs.push(Relation::before_if(
            StateRef::finish("x"),
            StateRef::start("x"),
            Condition::new("ghost", "T"),
            Origin::Control,
        ));
        // ^ also a self-cycle; validation reports the structural conflict
        // first.
        let exec = exec_of(&cs);
        let report = validate(&cs, &exec, &ValidateOptions::default());
        assert!(!report.ok());
    }

    #[test]
    fn stuck_activity_reported_with_names() {
        // b waits on a control token from guard g whose domain is declared
        // but that never broadcasts to b because g is NOT an activity in
        // the set — the exec condition derivation sees the control
        // relation, the lowering creates the ctl place, and nothing feeds
        // it: a genuine deadlock the per-assignment runs catch.
        let mut cs = ConstraintSet::new("stuck");
        cs.add_activity("b");
        cs.add_domain("g", vec!["T".into(), "F".into()]);
        // Control relation from an undeclared guard: validation of the
        // ConstraintSet would flag it, but we force it through to show the
        // net-level diagnosis.
        cs.relations.push(Relation::before_if(
            StateRef::finish("g"),
            StateRef::start("b"),
            Condition::new("g", "T"),
            Origin::Control,
        ));
        let exec = exec_of(&cs);
        let report = validate(&cs, &exec, &ValidateOptions::default());
        assert!(!report.ok());
        assert!(report
            .failures
            .iter()
            .all(|f| f.stuck.contains(&"b".to_string())));
    }
}
