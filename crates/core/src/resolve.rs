//! One constraint set on integer ids, for the executors.
//!
//! Petri validation and the scheduler both compile a `(constraint set,
//! execution conditions)` pair into integer kernels. [`resolve`] is the
//! one name step they share: it numbers the set through one transient
//! name map, by the weave's numbering rules (activities in sorted
//! order, then services, then undeclared names by first mention; guards
//! in domain key order, values by first occurrence), translates the
//! execution conditions' DNFs onto those ids, and ranks guard and value
//! names in byte order — the order the kernels' listened guards, color
//! ids and value ids follow. Consumers read ids only; strings come back
//! out of [`Resolved::names`] and friends for rendered output.

use crate::exec::{ExecConditions, ExecIds};
pub use crate::number::Kind;
use crate::number::{Numberer, Numbering};
use dscweaver_dscl::{ActivityState, ConstraintSet, Name};

/// A relation endpoint on ids: the name id and the state.
pub type End = (u32, ActivityState);

/// A branch condition on ids: `(guard id, value id)`.
pub type Cond = (u32, u32);

/// A constraint set and its execution conditions on one numbering (see
/// the module docs).
#[derive(Debug)]
pub struct Resolved {
    num: Numbering,
    exec: ExecIds,
    /// Per guard id, its name's rank among the guard names.
    guard_rank: Vec<u32>,
    /// Guard `g`'s value ranks are `value_rank[value_at[g]..]`, by value id.
    value_at: Vec<u32>,
    value_rank: Vec<u32>,
    /// The distinct value names, ascending; a value's rank is its index.
    ranked: Vec<Name>,
}

/// Numbers `cs`, translates `exec` onto its ids and ranks its guard and
/// value names. The translation is the identity when `cs` declares the
/// activities `exec` was derived on, as a weave's SC, ASC and minimal
/// set all do.
pub fn resolve(cs: &ConstraintSet, exec: &ExecConditions) -> Resolved {
    let mut b = Numberer::of_set(cs);
    let exec = exec.translate(&mut b);
    let num = b.finish();

    let guards = num.guard_count();
    let mut order: Vec<u32> = (0..guards as u32).collect();
    order.sort_unstable_by(|&x, &y| num.guard_name(x).cmp(num.guard_name(y)));
    let mut guard_rank = vec![0; guards];
    for (r, &g) in order.iter().enumerate() {
        guard_rank[g as usize] = r as u32;
    }

    let mut value_at = Vec::with_capacity(guards + 1);
    let mut flat: Vec<&Name> = Vec::new();
    for g in 0..guards as u32 {
        value_at.push(flat.len() as u32);
        flat.extend(num.values(g));
    }
    value_at.push(flat.len() as u32);
    let mut by_name: Vec<u32> = (0..flat.len() as u32).collect();
    by_name.sort_unstable_by(|&x, &y| flat[x as usize].cmp(flat[y as usize]));
    let mut value_rank = vec![0; flat.len()];
    let mut ranked: Vec<Name> = Vec::new();
    for &i in &by_name {
        let v = flat[i as usize];
        if ranked.last() != Some(v) {
            ranked.push(v.clone());
        }
        value_rank[i as usize] = ranked.len() as u32 - 1;
    }

    Resolved {
        num,
        exec,
        guard_rank,
        value_at,
        value_rank,
        ranked,
    }
}

impl Resolved {
    /// Declared activities: name ids `0..activities()`, in name order.
    pub fn activities(&self) -> usize {
        self.num.acts()
    }

    /// Every name by id: the activities, the services, then the
    /// undeclared names relations mention.
    pub fn names(&self) -> &[Name] {
        self.num.names()
    }

    /// The name table, moved out.
    pub fn into_names(self) -> Vec<Name> {
        self.num.into_names()
    }

    /// Nodes of the synchronization graph: `3i + s` for activity `i`'s
    /// states, then one per declared service.
    pub fn node_count(&self) -> usize {
        self.num.node_count()
    }

    /// The synchronization-graph node of an endpoint (`None`: an
    /// undeclared name). A name declared both as an activity and as a
    /// service is the activity.
    pub fn node(&self, end: End) -> Option<u32> {
        self.num.node(end)
    }

    /// Every relation in relation order: kind, endpoints, condition.
    pub fn relations(&self) -> impl ExactSizeIterator<Item = (Kind, End, End, Option<Cond>)> + '_ {
        self.num.rels.iter().map(|r| (r.kind, r.from, r.to, r.cond))
    }

    /// Guards numbered: the declared ones first.
    pub fn guards(&self) -> usize {
        self.num.guard_count()
    }

    /// Guards with a declared domain: ids `0..declared_guards()`, in
    /// domain key order.
    pub fn declared_guards(&self) -> usize {
        self.num.declared_guards()
    }

    /// A guard's name.
    pub fn guard_name(&self, g: u32) -> &Name {
        self.num.guard_name(g)
    }

    /// The activity id of a guard that is a declared activity.
    pub fn guard_activity(&self, g: u32) -> Option<u32> {
        self.num.guard_activity(g)
    }

    /// A guard's rank among the guard names in byte order.
    pub fn guard_rank(&self, g: u32) -> u32 {
        self.guard_rank[g as usize]
    }

    /// A guard's declared domain as value ids, in declaration order
    /// (duplicates kept); `None` for an undeclared guard.
    pub fn domain(&self, g: u32) -> Option<&[u32]> {
        self.num.domains()[g as usize].as_deref()
    }

    /// The name of value `v` of guard `g`.
    pub fn value_name(&self, g: u32, v: u32) -> &Name {
        &self.num.values(g)[v as usize]
    }

    /// The rank of value `v` of guard `g` in [`Resolved::ranked_values`].
    pub fn value_rank(&self, g: u32, v: u32) -> u32 {
        self.value_rank[(self.value_at[g as usize] + v) as usize]
    }

    /// Every distinct value name, in byte order; equal names of
    /// different guards share one rank.
    pub fn ranked_values(&self) -> &[Name] {
        &self.ranked
    }

    /// Activity `a`'s execution condition as DNF terms of conditions;
    /// no term at all means *always*.
    pub fn exec_terms(&self, a: u32) -> impl Iterator<Item = &[Cond]> {
        self.exec.of(a as usize)
    }

    /// True if activity `a` executes unconditionally.
    pub fn is_unconditional(&self, a: u32) -> bool {
        self.exec.is_always(a as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dscweaver_dscl::{Condition, Origin, Relation, StateRef};

    #[test]
    fn translates_exec_and_ranks_names() {
        let mut cs = ConstraintSet::new("r");
        for a in ["g", "x", "y"] {
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
        let exec = ExecConditions::derive(&cs);
        let ids = resolve(&cs, &exec);
        assert_eq!(ids.activities(), 3);
        assert!(ids.is_unconditional(0));
        let x: Vec<&[Cond]> = ids.exec_terms(1).collect();
        assert_eq!(x, vec![&[(0, 0)][..]]);
        assert_eq!(ids.ranked_values(), ["F", "T"]);
        assert_eq!((ids.value_rank(0, 0), ids.value_rank(0, 1)), (1, 0));
        assert_eq!(ids.guard_activity(0), Some(0));

        // A set without the control relations still gets `exec`'s
        // conditions; a guard it does not know is numbered after its own.
        let mut bare = ConstraintSet::new("bare");
        for a in ["x", "y"] {
            bare.add_activity(a);
        }
        let ids = resolve(&bare, &exec);
        assert_eq!(ids.guards(), 1);
        assert_eq!(ids.declared_guards(), 0);
        assert_eq!(ids.guard_activity(0), None);
        let y: Vec<&[Cond]> = ids.exec_terms(1).collect();
        assert_eq!(y, vec![&[(0, 1)][..]]);
        assert_eq!(ids.value_name(0, 1), "F");
    }
}
