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
use dscweaver_dscl::{ActivityState, Condition, ConstraintSet, Name, Origin, Relation, StateRef};
use dscweaver_graph::FxHashMap;

/// The names of one merge, by string.
#[derive(Default)]
struct Names<'a>(FxHashMap<&'a str, Name>);

impl<'a> Names<'a> {
    /// The shared name for `s`, made on first mention.
    fn get(&mut self, s: &'a str) -> Name {
        self.0.entry(s).or_insert_with(|| Name::from(s)).clone()
    }
}

/// Lowers one dependency to its DSCL relation.
pub fn lower(dep: &Dependency) -> Relation {
    lower_in(dep, &mut Names::default())
}

/// [`lower`], taking every name from `names`.
fn lower_in<'a>(dep: &'a Dependency, names: &mut Names<'a>) -> Relation {
    let from = StateRef {
        activity: names.get(&dep.from.name),
        state: dep.from.state.unwrap_or(ActivityState::Finish),
    };
    let to = StateRef {
        activity: names.get(&dep.to.name),
        state: dep.to.state.unwrap_or(ActivityState::Start),
    };
    match &dep.kind {
        DependencyKind::Data => Relation::before(from, to, Origin::Data),
        DependencyKind::Cooperation => Relation::before(from, to, Origin::Cooperation),
        DependencyKind::Service => Relation::before(from, to, Origin::Service),
        DependencyKind::Control { value: Some(v) } => {
            let cond = Condition {
                on: from.activity.clone(),
                value: names.get(v),
            };
            Relation::before_if(from, to, cond, Origin::Control)
        }
        DependencyKind::Control { value: None } => Relation::before(from, to, Origin::Control),
    }
}

/// Merges a full dependency set into the synchronization constraint set
/// `SC = {A, S, P}` of Definition 1. Node declarations and guard domains
/// carry over; the relation list preserves the dependency order so Table-1
/// and Figure-7 reports line up.
pub fn merge(ds: &DependencySet) -> ConstraintSet {
    let mut names = Names::default();
    names
        .0
        .reserve(ds.activities.len() + ds.services.len() + 2 * ds.domains.len());
    let mut cs = ConstraintSet::new(ds.name.clone());
    cs.activities = ds.activities.iter().map(|a| names.get(a)).collect();
    cs.services = ds.services.iter().map(|s| names.get(s)).collect();
    cs.domains = ds
        .domains
        .iter()
        .map(|(g, dom)| (names.get(g), dom.iter().map(|v| names.get(v)).collect()))
        .collect();
    cs.relations = ds
        .deps
        .iter()
        .map(|dep| lower_in(dep, &mut names))
        .collect();
    cs
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
