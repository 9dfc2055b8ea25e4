//! Workflow patterns (van der Aalst et al., the paper's reference \[1\])
//! expressed in DSCL.
//!
//! §4.1 claims: "DSCL can describe a wide variety of synchronization
//! behavior, like sequence, parallel split, synchronization, interleave
//! parallel routing, and milestone". This module delivers those
//! constructors (plus exclusive choice / simple merge, which fall out of
//! conditional HappenBefore), so the claim is a tested API rather than a
//! sentence. Each function *appends* the relations realizing one pattern
//! instance to a [`ConstraintSet`]; activities must already be declared.

use crate::constraint::ConstraintSet;
use crate::relation::{Origin, Relation};
use crate::state::{Condition, StateRef};

/// WCP-1 **Sequence**: `a` then `b`.
pub fn sequence(cs: &mut ConstraintSet, a: &str, b: &str) {
    cs.push(Relation::before(
        StateRef::finish(a),
        StateRef::start(b),
        Origin::Other,
    ));
}

/// WCP-2 **Parallel split**: after `a`, all `branches` may run
/// concurrently.
pub fn parallel_split(cs: &mut ConstraintSet, a: &str, branches: &[&str]) {
    for b in branches {
        cs.push(Relation::before(
            StateRef::finish(a),
            StateRef::start(*b),
            Origin::Other,
        ));
    }
}

/// WCP-3 **Synchronization**: `join` starts only after every branch
/// finishes.
pub fn synchronization(cs: &mut ConstraintSet, branches: &[&str], join: &str) {
    for b in branches {
        cs.push(Relation::before(
            StateRef::finish(*b),
            StateRef::start(join),
            Origin::Other,
        ));
    }
}

/// WCP-4 **Exclusive choice**: after guard `g`, exactly one case runs,
/// selected by `g`'s branch value. Declares `g`'s domain from the case
/// labels.
pub fn exclusive_choice(cs: &mut ConstraintSet, g: &str, cases: &[(&str, &str)]) {
    cs.add_domain(
        g,
        cases.iter().map(|&(label, _)| label.into()).collect(),
    );
    for (label, target) in cases {
        cs.push(Relation::before_if(
            StateRef::finish(g),
            StateRef::start(*target),
            Condition::new(g, *label),
            Origin::Control,
        ));
    }
}

/// WCP-5 **Simple merge**: `join` follows whichever of the alternative
/// `cases` ran (the others are dead paths). The constraints are
/// unconditional — dead-path elimination resolves the non-taken sides —
/// so the merge neither blocks nor fires twice.
pub fn simple_merge(cs: &mut ConstraintSet, cases: &[&str], join: &str) {
    for c in cases {
        cs.push(Relation::before(
            StateRef::finish(*c),
            StateRef::start(join),
            Origin::Other,
        ));
    }
}

/// WCP-17 **Interleaved parallel routing**: the activities run in *some*
/// order, never concurrently, with no order fixed in advance — exactly
/// DSCL's Exclusive relation over every pair (§4.2's runtime-checked
/// dimension).
pub fn interleaved_parallel_routing(cs: &mut ConstraintSet, activities: &[&str]) {
    for (i, a) in activities.iter().enumerate() {
        for b in &activities[i + 1..] {
            cs.push(Relation::Exclusive {
                a: StateRef::run(*a),
                b: StateRef::run(*b),
                origin: Origin::Cooperation,
            });
        }
    }
}

/// WCP-18 **Milestone**: `b` may only *start* while `a` is still running —
/// i.e. `b` starts after `a` starts and before `a` finishes. The second
/// half is a fine-granularity constraint only state-level relations can
/// express (`S(b) → F(a)`).
pub fn milestone(cs: &mut ConstraintSet, a: &str, b: &str) {
    cs.push(Relation::before(
        StateRef::start(a),
        StateRef::start(b),
        Origin::Cooperation,
    ));
    cs.push(Relation::before(
        StateRef::start(b),
        StateRef::finish(a),
        Origin::Cooperation,
    ));
}

/// **Barrier** (start-together), realized by HappenTogether sugar.
pub fn barrier(cs: &mut ConstraintSet, a: &str, b: &str) {
    cs.push(Relation::HappenTogether {
        a: StateRef::start(a),
        b: StateRef::start(b),
        cond: None,
        origin: Origin::Cooperation,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base(acts: &[&str]) -> ConstraintSet {
        let mut cs = ConstraintSet::new("patterns");
        for a in acts {
            cs.add_activity(*a);
        }
        cs
    }

    #[test]
    fn split_then_synchronize() {
        let mut cs = base(&["a", "x", "y", "z", "j"]);
        parallel_split(&mut cs, "a", &["x", "y", "z"]);
        synchronization(&mut cs, &["x", "y", "z"], "j");
        assert_eq!(cs.constraint_count(), 6);
        assert!(cs.validate().is_empty());
    }

    #[test]
    fn exclusive_choice_declares_domain() {
        let mut cs = base(&["g", "yes", "no", "maybe"]);
        exclusive_choice(
            &mut cs,
            "g",
            &[("Y", "yes"), ("N", "no"), ("M", "maybe")],
        );
        assert_eq!(cs.domains["g"], vec!["Y", "N", "M"]);
        assert_eq!(cs.constraint_count(), 3);
        assert!(cs.validate().is_empty());
    }

    #[test]
    fn interleaving_is_pairwise_exclusive() {
        let mut cs = base(&["p", "q", "r"]);
        interleaved_parallel_routing(&mut cs, &["p", "q", "r"]);
        assert_eq!(cs.exclusives().count(), 3);
        assert_eq!(cs.constraint_count(), 0, "no static ordering imposed");
    }

    #[test]
    fn milestone_uses_state_granularity() {
        let mut cs = base(&["session", "act"]);
        milestone(&mut cs, "session", "act");
        let strs: Vec<String> = cs.happen_befores().map(|r| r.to_string()).collect();
        assert!(strs.contains(&"S(session) -> S(act)".to_string()));
        assert!(strs.contains(&"S(act) -> F(session)".to_string()));
    }

    #[test]
    fn barrier_desugars() {
        let mut cs = base(&["a", "b"]);
        barrier(&mut cs, "a", "b");
        assert_eq!(cs.desugar_happen_together(), 1);
        assert!(cs.validate().is_empty());
        assert!(cs.activities.iter().any(|a| a.starts_with("__sync")));
    }

    #[test]
    fn sequence_and_merge() {
        let mut cs = base(&["g", "a", "b", "j", "end"]);
        exclusive_choice(&mut cs, "g", &[("T", "a"), ("F", "b")]);
        simple_merge(&mut cs, &["a", "b"], "j");
        sequence(&mut cs, "j", "end");
        assert!(cs.validate().is_empty());
        assert_eq!(cs.constraint_count(), 5);
    }
}
