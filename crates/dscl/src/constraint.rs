//! The synchronization constraint set — the paper's Definition 1:
//! `SC = {A, S, P}` with internal activities `A`, external services `S` and
//! (conditional) HappenBefore constraints `P`.

use crate::name::Name;
use crate::relation::{Origin, Relation};
use crate::state::{ActivityState, StateRef};
use std::collections::{BTreeMap, BTreeSet};

/// A synchronization constraint set (Definition 1). When `services` is
/// empty and every relation mentions only internal activities this is the
/// *activity* synchronization constraint set `ASC = {A, P}` of §4.3.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ConstraintSet {
    /// A label for reports (usually the process name).
    pub name: String,
    /// `A`: internal activities.
    pub activities: BTreeSet<Name>,
    /// `S`: external service nodes, already split per port / dummy callback
    /// port in the paper's §3.3 naming (`Purchase_1`, `Purchase_d`, ...).
    pub services: BTreeSet<Name>,
    /// `P` (plus not-yet-desugared sugar and runtime-checked exclusives).
    pub relations: Vec<Relation>,
    /// Branch-value domains: guard activity → every case label it can
    /// produce. Needed for branch-complete reasoning during optimization
    /// (a `T` path plus an `F` path jointly cover an unconditional
    /// constraint when `{T, F}` is the full domain).
    pub domains: BTreeMap<Name, Vec<Name>>,
}

/// Problems found by [`ConstraintSet::validate`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ConstraintError {
    /// A relation endpoint names an undeclared activity/service.
    UnknownNode {
        /// The undeclared name.
        name: String,
        /// The offending relation, displayed.
        relation: String,
    },
    /// A condition references an activity with no declared domain.
    UnknownGuard {
        /// The guard activity.
        guard: String,
        /// The offending relation, displayed.
        relation: String,
    },
    /// A condition uses a value outside the guard's domain.
    BadConditionValue {
        /// The guard activity.
        guard: String,
        /// The out-of-domain value.
        value: String,
    },
    /// An activity was declared both internal and external.
    AmbiguousNode(String),
}

impl std::fmt::Display for ConstraintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConstraintError::UnknownNode { name, relation } => {
                write!(f, "relation '{relation}' references undeclared node '{name}'")
            }
            ConstraintError::UnknownGuard { guard, relation } => {
                write!(f, "relation '{relation}' is conditioned on '{guard}' which has no declared domain")
            }
            ConstraintError::BadConditionValue { guard, value } => {
                write!(f, "condition value '{value}' is outside the domain of '{guard}'")
            }
            ConstraintError::AmbiguousNode(n) => {
                write!(f, "'{n}' is declared both as an activity and as a service")
            }
        }
    }
}

impl std::error::Error for ConstraintError {}

impl ConstraintSet {
    /// An empty set with a name.
    pub fn new(name: impl Into<String>) -> Self {
        ConstraintSet {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Declares an internal activity.
    pub fn add_activity(&mut self, name: impl Into<Name>) {
        self.activities.insert(name.into());
    }

    /// Declares an external service node.
    pub fn add_service(&mut self, name: impl Into<Name>) {
        self.services.insert(name.into());
    }

    /// Declares a guard's branch-value domain.
    pub fn add_domain(&mut self, guard: impl Into<Name>, values: Vec<Name>) {
        self.domains.insert(guard.into(), values);
    }

    /// Appends a relation.
    pub fn push(&mut self, r: Relation) {
        self.relations.push(r);
    }

    /// True if `name` is a declared internal activity.
    pub fn is_internal(&self, name: &str) -> bool {
        self.activities.contains(name)
    }

    /// True if `name` is a declared external service node.
    pub fn is_external(&self, name: &str) -> bool {
        self.services.contains(name)
    }

    /// All HappenBefore relations (the set `P` proper).
    pub fn happen_befores(&self) -> impl Iterator<Item = &Relation> {
        self.relations.iter().filter(|r| r.is_happen_before())
    }

    /// All Exclusive relations (runtime-checked, §4.2).
    pub fn exclusives(&self) -> impl Iterator<Item = (&StateRef, &StateRef)> {
        self.relations.iter().filter_map(|r| match r {
            Relation::Exclusive { a, b, .. } => Some((a, b)),
            _ => None,
        })
    }

    /// Count of HappenBefore constraints — the number Table 2 reports.
    pub fn constraint_count(&self) -> usize {
        self.happen_befores().count()
    }

    /// Counts HappenBefore constraints per origin dimension.
    pub fn counts_by_origin(&self) -> BTreeMap<Origin, usize> {
        let mut out = BTreeMap::new();
        for r in self.happen_befores() {
            *out.entry(r.origin()).or_insert(0) += 1;
        }
        out
    }

    /// Structural validation.
    pub fn validate(&self) -> Vec<ConstraintError> {
        let mut errors = Vec::new();
        for a in &self.activities {
            if self.services.contains(a) {
                errors.push(ConstraintError::AmbiguousNode(a.to_string()));
            }
        }
        for r in &self.relations {
            for name in r.activities() {
                if !self.is_internal(name) && !self.is_external(name) {
                    errors.push(ConstraintError::UnknownNode {
                        name: name.to_string(),
                        relation: r.to_string(),
                    });
                }
            }
            let cond = match r {
                Relation::HappenBefore { cond, .. } | Relation::HappenTogether { cond, .. } => {
                    cond.as_ref()
                }
                Relation::Exclusive { .. } => None,
            };
            if let Some(c) = cond {
                match self.domains.get(&c.on) {
                    None => errors.push(ConstraintError::UnknownGuard {
                        guard: c.on.to_string(),
                        relation: r.to_string(),
                    }),
                    Some(dom) if !dom.contains(&c.value) => {
                        errors.push(ConstraintError::BadConditionValue {
                            guard: c.on.to_string(),
                            value: c.value.to_string(),
                        })
                    }
                    _ => {}
                }
            }
        }
        errors
    }

    /// Desugars every HappenTogether relation into HappenBefore relations
    /// through a fresh zero-duration *coordinator* activity (§4.2 calls ↔ a
    /// "syntax sugar ... simulated by introducing a coordinating activity").
    ///
    /// For `X(a) ↔ Y(b)` with coordinator `k`:
    /// * every existing constraint **into** a `Start` end is redirected to
    ///   `S(k)` (the coordinator inherits the prerequisites), and
    ///   `F(k) → S(x)` forces the ends to begin together;
    /// * a `Finish` end instead contributes `F(x) → S(k)` and its outgoing
    ///   constraints are redirected to leave from `F(k)`.
    ///
    /// Under the scheduler this makes the paired states commit atomically
    /// once the coordinator fires. Conditions on the sugar carry over to the
    /// generated relations.
    pub fn desugar_happen_together(&mut self) -> usize {
        let mut count = 0;
        while let Some(pos) = self
            .relations
            .iter()
            .position(|r| matches!(r, Relation::HappenTogether { .. }))
        {
            let Relation::HappenTogether { a, b, cond, .. } = self.relations.remove(pos) else {
                unreachable!("position matched HappenTogether");
            };
            count += 1;
            let k = Name::from(format!("__sync{count}_{}_{}", a.activity, b.activity));
            self.add_activity(k.clone());
            for end in [&a, &b] {
                match end.state {
                    ActivityState::Start | ActivityState::Run => {
                        // Redirect prerequisites of the end into the
                        // coordinator, then gate the end on the coordinator.
                        for r in &mut self.relations {
                            if let Relation::HappenBefore { to, .. } = r {
                                if *to == *end {
                                    *to = StateRef::start(k.clone());
                                }
                            }
                        }
                        self.relations.push(Relation::HappenBefore {
                            from: StateRef::finish(k.clone()),
                            to: end.clone(),
                            cond: cond.clone(),
                            origin: Origin::Coordinator,
                        });
                    }
                    ActivityState::Finish => {
                        // The coordinator observes the finish; downstream
                        // constraints leave from the coordinator instead.
                        for r in &mut self.relations {
                            if let Relation::HappenBefore { from, .. } = r {
                                if *from == *end {
                                    *from = StateRef::finish(k.clone());
                                }
                            }
                        }
                        self.relations.push(Relation::HappenBefore {
                            from: end.clone(),
                            to: StateRef::start(k.clone()),
                            cond: cond.clone(),
                            origin: Origin::Coordinator,
                        });
                    }
                }
            }
        }
        count
    }

    /// Renders the set in DSCL text syntax (re-parsable by
    /// [`crate::parser::parse_constraints`]).
    pub fn to_dscl(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("constraints {} {{\n", self.name));
        if !self.activities.is_empty() {
            let list: Vec<&str> = self.activities.iter().map(Name::as_str).collect();
            out.push_str(&format!("  activities {};\n", list.join(", ")));
        }
        if !self.services.is_empty() {
            let list: Vec<&str> = self.services.iter().map(Name::as_str).collect();
            out.push_str(&format!("  services {};\n", list.join(", ")));
        }
        for (guard, values) in &self.domains {
            out.push_str(&format!("  domain {guard} {{ {} }}\n", values.join(", ")));
        }
        for r in &self.relations {
            let origin = r.origin();
            if origin == Origin::Other {
                out.push_str(&format!("  {r};\n"));
            } else {
                out.push_str(&format!("  {origin}: {r};\n"));
            }
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::Condition;

    fn base() -> ConstraintSet {
        let mut cs = ConstraintSet::new("t");
        for a in ["a", "b", "c", "if_x"] {
            cs.add_activity(a);
        }
        cs.add_domain("if_x", vec!["T".into(), "F".into()]);
        cs
    }

    #[test]
    fn validate_ok_and_counts() {
        let mut cs = base();
        cs.push(Relation::before(
            StateRef::finish("a"),
            StateRef::start("b"),
            Origin::Data,
        ));
        cs.push(Relation::before_if(
            StateRef::finish("if_x"),
            StateRef::start("c"),
            Condition::new("if_x", "T"),
            Origin::Control,
        ));
        assert!(cs.validate().is_empty());
        assert_eq!(cs.constraint_count(), 2);
        let counts = cs.counts_by_origin();
        assert_eq!(counts[&Origin::Data], 1);
        assert_eq!(counts[&Origin::Control], 1);
    }

    #[test]
    fn validate_catches_unknown_node_and_guard() {
        let mut cs = base();
        cs.push(Relation::before(
            StateRef::finish("a"),
            StateRef::start("ghost"),
            Origin::Data,
        ));
        cs.push(Relation::before_if(
            StateRef::finish("a"),
            StateRef::start("b"),
            Condition::new("mystery", "T"),
            Origin::Control,
        ));
        cs.push(Relation::before_if(
            StateRef::finish("a"),
            StateRef::start("b"),
            Condition::new("if_x", "MAYBE"),
            Origin::Control,
        ));
        let errs = cs.validate();
        assert!(errs.iter().any(|e| matches!(e, ConstraintError::UnknownNode { .. })));
        assert!(errs.iter().any(|e| matches!(e, ConstraintError::UnknownGuard { .. })));
        assert!(errs
            .iter()
            .any(|e| matches!(e, ConstraintError::BadConditionValue { .. })));
    }

    #[test]
    fn ambiguous_node_detected() {
        let mut cs = base();
        cs.add_service("a");
        assert!(cs
            .validate()
            .iter()
            .any(|e| matches!(e, ConstraintError::AmbiguousNode(_))));
    }

    #[test]
    fn desugar_start_start_barrier() {
        let mut cs = base();
        // prereq: F(c) -> S(a); sugar: S(a) <-> S(b)
        cs.push(Relation::before(
            StateRef::finish("c"),
            StateRef::start("a"),
            Origin::Data,
        ));
        cs.push(Relation::HappenTogether {
            a: StateRef::start("a"),
            b: StateRef::start("b"),
            cond: None,
            origin: Origin::Cooperation,
        });
        assert_eq!(cs.desugar_happen_together(), 1);
        assert!(cs
            .relations
            .iter()
            .all(|r| !matches!(r, Relation::HappenTogether { .. })));
        // Coordinator exists and inherited the prerequisite.
        let k = cs
            .activities
            .iter()
            .find(|a| a.starts_with("__sync"))
            .unwrap()
            .clone();
        let redirected = cs.relations.iter().any(|r| {
            matches!(r, Relation::HappenBefore { from, to, .. }
                if from == &StateRef::finish("c") && to == &StateRef::start(k.clone()))
        });
        assert!(redirected, "{:#?}", cs.relations);
        // Both ends gated on the coordinator.
        for end in ["a", "b"] {
            assert!(cs.relations.iter().any(|r| {
                matches!(r, Relation::HappenBefore { from, to, .. }
                    if from == &StateRef::finish(k.clone()) && to == &StateRef::start(end))
            }));
        }
    }

    #[test]
    fn desugar_finish_end_redirects_downstream() {
        let mut cs = base();
        cs.push(Relation::before(
            StateRef::finish("a"),
            StateRef::start("c"),
            Origin::Data,
        ));
        cs.push(Relation::HappenTogether {
            a: StateRef::finish("a"),
            b: StateRef::finish("b"),
            cond: None,
            origin: Origin::Cooperation,
        });
        cs.desugar_happen_together();
        let k = cs
            .activities
            .iter()
            .find(|a| a.starts_with("__sync"))
            .unwrap()
            .clone();
        // F(a) -> S(k) and F(b) -> S(k) exist; F(a) -> S(c) now leaves from k.
        for end in ["a", "b"] {
            assert!(cs.relations.iter().any(|r| {
                matches!(r, Relation::HappenBefore { from, to, .. }
                    if from == &StateRef::finish(end) && to == &StateRef::start(k.clone()))
            }));
        }
        assert!(cs.relations.iter().any(|r| {
            matches!(r, Relation::HappenBefore { from, to, .. }
                if from == &StateRef::finish(k.clone()) && to == &StateRef::start("c"))
        }));
    }

    #[test]
    fn dscl_rendering_mentions_everything() {
        let mut cs = base();
        cs.add_service("Purchase_1");
        cs.push(Relation::before(
            StateRef::finish("a"),
            StateRef::start("Purchase_1"),
            Origin::Service,
        ));
        let text = cs.to_dscl();
        assert!(text.contains("activities a, b, c, if_x;"));
        assert!(text.contains("services Purchase_1;"));
        assert!(text.contains("domain if_x { T, F }"));
        assert!(text.contains("service: F(a) -> S(Purchase_1);"));
    }
}
