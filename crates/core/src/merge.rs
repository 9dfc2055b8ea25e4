//! §4.2 — DSCL representation of dependencies: merging the four dependency
//! dimensions into one synchronization constraint set.
//!
//! `P = {A → B | A →_d B ∨ A →_o B ∨ A →_s B} ∪ {→_1}`: data, cooperation
//! and service dependencies lower to unconditional HappenBefore relations,
//! control dependencies to conditional ones (the condition names the guard
//! activity — the dependency's source — and its branch value).
//!
//! State defaulting: a dependency endpoint with no explicit state
//! synchronizes on *Finish* when it is the source and *Start* when it is
//! the target (`F_i → S_j` for a data dependency, §4.1). Explicit states
//! (fine-granularity cooperation dependencies) pass through unchanged.
//!
//! Names are shared: a merge makes one [`Name`] per distinct string it
//! meets (declared activity, service, guard, domain value, and any
//! undeclared endpoint), and every declaration and relation of the merged
//! set holds that one.

use crate::dependency::{Dependency, DependencyKind, DependencySet};
use crate::number::{IdRel, Kind, Numberer, Numbering};
use dscweaver_dscl::{ActivityState, Condition, ConstraintSet, Name, Origin, Relation, StateRef};

/// The relation kind and origin a dependency lowers to, and the branch
/// value of a conditional control dependency.
fn shape(dep: &Dependency) -> (Origin, Option<&str>) {
    match &dep.kind {
        DependencyKind::Data => (Origin::Data, None),
        DependencyKind::Cooperation => (Origin::Cooperation, None),
        DependencyKind::Service => (Origin::Service, None),
        DependencyKind::Control { value } => (Origin::Control, value.as_deref()),
    }
}

/// The default states of a dependency's endpoints.
fn states(dep: &Dependency) -> (ActivityState, ActivityState) {
    (
        dep.from.state.unwrap_or(ActivityState::Finish),
        dep.to.state.unwrap_or(ActivityState::Start),
    )
}

/// Lowers one dependency to its DSCL relation.
pub fn lower(dep: &Dependency) -> Relation {
    let (fs, ts) = states(dep);
    let from = StateRef {
        activity: Name::from(&dep.from.name),
        state: fs,
    };
    let to = StateRef {
        activity: Name::from(&dep.to.name),
        state: ts,
    };
    match shape(dep) {
        (Origin::Control, Some(v)) => {
            let cond = Condition {
                on: from.activity.clone(),
                value: Name::from(v),
            };
            Relation::before_if(from, to, cond, Origin::Control)
        }
        (origin, _) => Relation::before(from, to, origin),
    }
}

/// Merges a full dependency set into the synchronization constraint set
/// `SC = {A, S, P}` of Definition 1. Node declarations and guard domains
/// carry over; the relation list preserves the dependency order so Table-1
/// and Figure-7 reports line up.
pub fn merge(ds: &DependencySet) -> ConstraintSet {
    merge_numbered(ds).0
}

/// [`merge`] and the [`Numbering`] of the merged set, in one pass: each
/// name is made once, together with its id.
pub(crate) fn merge_numbered(ds: &DependencySet) -> (ConstraintSet, Numbering) {
    let mut b = Numberer::with_capacity(ds.activities.len() + ds.services.len(), ds.deps.len());
    let mut cs = ConstraintSet::new(ds.name.clone());
    cs.activities = ds
        .activities
        .iter()
        .map(|a| b.activity(a, || Name::from(a)).clone())
        .collect();
    cs.services = ds
        .services
        .iter()
        .map(|s| b.service(s, || Name::from(s)).clone())
        .collect();
    cs.domains = ds
        .domains
        .iter()
        .map(|(g, dom)| {
            let (id, guard) = b.domain(g, || Name::from(g));
            let guard = guard.clone();
            let vals = dom
                .iter()
                .map(|v| b.domain_value(id, v, || Name::from(v)).clone())
                .collect();
            (guard, vals)
        })
        .collect();
    cs.relations = Vec::with_capacity(ds.deps.len());
    for dep in &ds.deps {
        let (fs, ts) = states(dep);
        let (f, fname) = b.endpoint(&dep.from.name, || Name::from(&dep.from.name));
        let from = StateRef {
            activity: fname.clone(),
            state: fs,
        };
        let (t, tname) = b.endpoint(&dep.to.name, || Name::from(&dep.to.name));
        let to = StateRef {
            activity: tname.clone(),
            state: ts,
        };
        let (origin, value) = shape(dep);
        let (rel, cond) = match value {
            Some(v) => {
                let on = &from.activity;
                let (id, known) = b.condition(&dep.from.name, || on.clone(), v, || Name::from(v));
                if !known {
                    b.problem();
                }
                let (on, value) = b.condition_names(id);
                let cond = Condition {
                    on: on.clone(),
                    value: value.clone(),
                };
                (Relation::before_if(from, to, cond, origin), Some(id))
            }
            None => (Relation::before(from, to, origin), None),
        };
        b.push(IdRel {
            kind: Kind::Before,
            from: (f, fs),
            to: (t, ts),
            cond,
            origin,
        });
        cs.relations.push(rel);
    }
    (cs, b.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dscweaver_dscl::StateRef;

    #[test]
    fn data_lowers_to_finish_start() {
        let r = lower(&Dependency::data("a", "b"));
        assert_eq!(r.to_string(), "F(a) -> S(b)");
        assert_eq!(r.origin(), Origin::Data);
    }

    #[test]
    fn control_carries_condition() {
        let r = lower(&Dependency::control("if_au", "x", "T"));
        assert_eq!(r.to_string(), "F(if_au) ->[if_au=T] S(x)");
        assert_eq!(r.origin(), Origin::Control);
    }

    #[test]
    fn unconditional_control() {
        let r = lower(&Dependency::control_unconditional("if_au", "reply"));
        assert_eq!(r.to_string(), "F(if_au) -> S(reply)");
        assert_eq!(r.origin(), Origin::Control);
    }

    #[test]
    fn explicit_states_pass_through() {
        let r = lower(&Dependency::cooperation_states(
            StateRef::start("collectSurvey"),
            StateRef::finish("closeOrder"),
        ));
        assert_eq!(r.to_string(), "S(collectSurvey) -> F(closeOrder)");
    }

    #[test]
    fn merge_preserves_declarations_and_order() {
        let mut ds = DependencySet::new("m");
        ds.add_activity("a");
        ds.add_activity("b");
        ds.add_activity("if_x");
        ds.add_service("Svc");
        ds.add_domain("if_x", vec!["T".into(), "F".into()]);
        ds.push(Dependency::data("a", "b"));
        ds.push(Dependency::service("a", "Svc"));
        ds.push(Dependency::control("if_x", "b", "T"));
        let cs = merge(&ds);
        assert!(cs.validate().is_empty(), "{:?}", cs.validate());
        assert_eq!(cs.constraint_count(), 3);
        assert_eq!(cs.relations[0].origin(), Origin::Data);
        assert_eq!(cs.relations[1].origin(), Origin::Service);
        assert_eq!(cs.relations[2].origin(), Origin::Control);
        assert_eq!(cs.domains["if_x"], vec!["T", "F"]);
    }

    #[test]
    fn merge_shares_one_name_per_string() {
        let mut ds = DependencySet::new("m");
        for a in ["a", "b", "if_x"] {
            ds.add_activity(a);
        }
        ds.add_domain("if_x", vec!["T".into(), "F".into()]);
        ds.push(Dependency::data("a", "b"));
        ds.push(Dependency::control("if_x", "b", "T"));
        ds.push(Dependency::data("b", "ghost"));
        ds.push(Dependency::data("ghost", "a"));
        let cs = merge(&ds);
        let declared = |s: &str| cs.activities.get(s).unwrap();
        let ends: Vec<&StateRef> = cs
            .relations
            .iter()
            .flat_map(|r| match r {
                Relation::HappenBefore { from, to, .. } => [from, to],
                _ => unreachable!("merge emits HappenBefore only"),
            })
            .collect();
        for end in &ends[..4] {
            assert!(Name::ptr_eq(&end.activity, declared(&end.activity)));
        }
        // An undeclared name is one allocation within the merge.
        assert!(Name::ptr_eq(&ends[5].activity, &ends[6].activity));
        let Relation::HappenBefore { cond: Some(c), .. } = &cs.relations[1] else {
            panic!("conditional");
        };
        let (guard, dom) = cs.domains.get_key_value("if_x").unwrap();
        assert!(Name::ptr_eq(&c.on, guard) && Name::ptr_eq(&c.on, declared("if_x")));
        assert!(Name::ptr_eq(&c.value, &dom[0]));
    }
}
