//! Shared helpers for the Petri equivalence suites: an order-stable view
//! of validation failures and the test-side reference enumeration that
//! pins `validate` to the `run_to_quiescence` oracle.

// Each suite that includes this module uses a different subset of it.
#![allow(dead_code)]

use dscweaver_core::ExecConditions;
use dscweaver_dscl::{Condition, ConstraintSet, Name, Origin, Relation, StateRef};
use dscweaver_petri::{
    assignment_chooser, lower, run_to_quiescence, AssignmentFailure, ModeLimit, ValidationReport,
};
use std::collections::HashMap;

/// Sorted `(guard, value)` pairs, stuck activities, rendered marking,
/// diverged.
pub type CanonFailure = (Vec<(String, String)>, Vec<String>, String, bool);

/// Canonical, order-stable view of a failure (the raw assignment is a
/// HashMap whose Debug order is unstable).
pub fn canon_failure(f: &AssignmentFailure) -> CanonFailure {
    let mut a: Vec<(String, String)> = f
        .assignment
        .iter()
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect();
    a.sort();
    (a, f.stuck.clone(), f.marking.clone(), f.diverged)
}

/// What the reference enumeration checked: assignments run, whether the
/// cap truncated the space, and the failures in enumeration order.
#[derive(Debug, PartialEq)]
pub struct Reference {
    pub checked: usize,
    pub truncated: bool,
    pub failures: Vec<CanonFailure>,
}

impl Reference {
    /// A `validate` report in the reference's shape (the nets these
    /// suites validate have no conflict cycle).
    pub fn of(r: &ValidationReport) -> Reference {
        assert!(r.conflict_cycle.is_none());
        Reference {
            checked: r.assignments_checked,
            truncated: r.assignments_truncated,
            failures: r.failures.iter().map(canon_failure).collect(),
        }
    }
}

/// Every field of a report but the exploration, failures canonicalized
/// in report order.
#[derive(Debug, PartialEq)]
pub struct FullReport {
    pub conflict_cycle: Option<Vec<String>>,
    pub mode_limit: Option<ModeLimit>,
    pub checked: usize,
    pub truncated: bool,
    pub failures: Vec<CanonFailure>,
    pub guard_groups: usize,
    pub factored: bool,
    pub assignment_space: usize,
}

impl FullReport {
    pub fn of(r: &ValidationReport) -> FullReport {
        FullReport {
            conflict_cycle: r.conflict_cycle.clone(),
            mode_limit: r.mode_limit.clone(),
            checked: r.assignments_checked,
            truncated: r.assignments_truncated,
            failures: r.failures.iter().map(canon_failure).collect(),
            guard_groups: r.guard_groups,
            factored: r.factored,
            assignment_space: r.assignment_space,
        }
    }
}

/// The full (unfactored) branch-assignment enumeration, written out
/// independently of `validate`: lower once, then replay the rescan oracle
/// `run_to_quiescence` per assignment in odometer order (guards in
/// `cs.domains` order, the first one fastest), at most `max_assignments`
/// of them, recording the same failure fields.
pub fn reference(cs: &ConstraintSet, exec: &ExecConditions, max_assignments: usize) -> Reference {
    let lowered = lower(cs, exec);
    let guards: Vec<(&Name, &Vec<Name>)> = cs.domains.iter().collect();
    let space: usize = guards.iter().map(|(_, d)| d.len()).product();
    let checked = space.min(max_assignments);
    let mut failures = Vec::new();
    for i in 0..checked {
        let mut rest = i;
        let values: Vec<(String, String)> = guards
            .iter()
            .map(|(g, dom)| {
                let v = dom[rest % dom.len()].to_string();
                rest /= dom.len();
                (g.to_string(), v)
            })
            .collect();
        let assignment: HashMap<String, String> = values
            .iter()
            .map(|(g, v)| (format!("finish({g})"), v.clone()))
            .collect();
        let run = run_to_quiescence(&lowered.net, assignment_chooser(&assignment), 1_000_000);
        if run.diverged || !lowered.is_final(&run.final_marking) {
            let mut values = values;
            values.sort();
            failures.push((
                values,
                lowered
                    .unfinished(&run.final_marking)
                    .into_iter()
                    .map(String::from)
                    .collect(),
                lowered.net.render_marking(&run.final_marking),
                run.diverged,
            ));
        }
    }
    Reference {
        checked,
        truncated: checked < space,
        failures,
    }
}

/// Three "ghost" guards (domains declared, control places never fed):
/// every one of the 8 branch assignments deadlocks.
pub fn ghost_guards() -> ConstraintSet {
    let mut cs = ConstraintSet::new("ghosts");
    for k in 0..3 {
        cs.add_activity(format!("b{k}"));
        cs.add_domain(format!("g{k}"), vec!["T".into(), "F".into()]);
        cs.relations.push(Relation::before_if(
            StateRef::finish(&format!("g{k}")),
            StateRef::start(&format!("b{k}")),
            Condition::new(format!("g{k}"), "T"),
            Origin::Control,
        ));
    }
    cs
}
