//! Execution conditions and semantic implication of guard DNFs.
//!
//! The paper's Definition 4 compares condition-annotated closures, and its
//! Figure 9 / Table 2 results rely on two pieces of reasoning the text
//! leaves implicit:
//!
//! 1. **Execution-awareness** — `recClient_po → invPurchase_po` is removed
//!    although the remaining path runs through `if_au = T`: that is sound
//!    precisely because `invPurchase_po` *executes only when* `if_au = T`
//!    (its control dependency), so the conditional path covers every
//!    execution in which the constraint matters.
//! 2. **Branch completeness** — `if_au → replyClient_oi` is removed because
//!    a `T` path and an `F` path both exist and `{T, F}` exhausts `if_au`'s
//!    domain.
//!
//! This module makes both precise. [`ExecConditions`] derives, for every
//! activity, the DNF of branch conditions under which it executes at all
//! (from the control-dependency relations, transitively). [`implies_under`]
//! decides `exec ∧ old ⟹ new` by enumerating assignments of the involved
//! guards over their declared domains — which subsumes absorption *and*
//! resolution/branch-completeness without any ad-hoc rewriting.

use crate::number::{Guard, Kind, Numbering};
use dscweaver_dscl::{Condition, ConstraintSet, Name, Origin};
use dscweaver_graph::annotated::Dnf;
use dscweaver_graph::FxHashMap;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::LazyLock;

/// Per-activity execution conditions, derived from control dependencies.
///
/// Derived **before** optimization and carried alongside the constraint set
/// from then on: the optimizer may remove control *constraints* (monitoring
/// obligations) without changing the fact of when an activity executes.
#[derive(Clone, Debug, Default)]
pub struct ExecConditions {
    /// The conditional activities only; every other name executes always.
    map: FxHashMap<Name, Dnf<Condition>>,
}

impl ExecConditions {
    /// Derives execution conditions from `cs`'s Control-origin relations:
    /// `exec(b) = ⋁ over control parents (g, v) of (exec(g) ⊗ {g=v})`,
    /// activities without control parents executing unconditionally.
    /// Cycles through control dependencies (loop bodies) conservatively
    /// yield *always* — using a weaker assumption can only make the
    /// optimizer keep more constraints, never remove a needed one.
    pub fn derive(cs: &ConstraintSet) -> ExecConditions {
        let num = Numbering::new(cs);
        ExecConditions::from_ids(&num, &derive_ids(&num))
    }

    /// The string form of [`derive_ids`]' result: one entry per
    /// conditional name.
    pub(crate) fn from_ids(num: &Numbering, exec: &[Option<Dnf<Guard>>]) -> ExecConditions {
        let mut map = FxHashMap::default();
        for (id, d) in exec.iter().enumerate() {
            let Some(d) = d.as_ref().filter(|d| !d.is_always()) else {
                continue;
            };
            let mut out = Dnf::empty();
            for term in d.terms() {
                out.insert(term.iter().map(|&c| num.condition(c)).collect());
            }
            map.insert(num.name(id as u32).clone(), out);
        }
        ExecConditions { map }
    }

    /// The execution condition of every conditional activity of `num`,
    /// on its ids, by activity id (`None`: always). Guards `num` does
    /// not know yet are numbered.
    pub(crate) fn to_ids<'a>(&'a self, num: &mut Numbering<'a>) -> Vec<Option<Dnf<Guard>>> {
        let mut out = vec![None; num.acts()];
        for (name, d) in &self.map {
            let Some(id) = num.activity(name) else {
                continue;
            };
            let mut ids = Dnf::empty();
            for term in d.terms() {
                ids.insert(term.iter().map(|c| num.guard(c)).collect());
            }
            out[id as usize] = Some(ids);
        }
        out
    }

    /// The execution condition of `activity` (*always* if unknown).
    pub fn of(&self, activity: &str) -> Dnf<Condition> {
        self.dnf(activity).clone()
    }

    /// [`ExecConditions::of`], borrowed instead of cloned.
    pub fn dnf(&self, activity: &str) -> &Dnf<Condition> {
        static ALWAYS: LazyLock<Dnf<Condition>> = LazyLock::new(Dnf::always);
        self.map.get(activity).unwrap_or(&ALWAYS)
    }

    /// True if `activity` executes unconditionally.
    pub fn is_unconditional(&self, activity: &str) -> bool {
        self.dnf(activity).is_always()
    }
}

/// Execution conditions on the ids of `num`, by name id: the DNF of every
/// activity and of every name their control parents reach (`None` for
/// the names no derivation visits).
///
/// Activities are visited in id order and control parents in relation
/// order, depth first; a name met again while its own derivation is open
/// (a control cycle) counts as *always* there.
pub(crate) fn derive_ids(num: &Numbering) -> Vec<Option<Dnf<Guard>>> {
    // Control parents per target name, as CSR rows in relation order.
    let names = num.name_count();
    let mut start = vec![0u32; names + 1];
    for r in &num.rels {
        if r.kind == Kind::Before && r.origin == Origin::Control {
            start[r.to.0 as usize + 1] += 1;
        }
    }
    for i in 0..names {
        start[i + 1] += start[i];
    }
    let mut fill = start.clone();
    let mut parents = vec![(0u32, None); start[names] as usize];
    for r in &num.rels {
        if r.kind == Kind::Before && r.origin == Origin::Control {
            let slot = &mut fill[r.to.0 as usize];
            parents[*slot as usize] = (r.from.0, r.cond);
            *slot += 1;
        }
    }

    struct Walk<'p> {
        start: &'p [u32],
        parents: &'p [(u32, Option<Guard>)],
        memo: Vec<Option<Dnf<Guard>>>,
        visiting: Vec<bool>,
    }
    impl Walk<'_> {
        /// Fills `memo[a]`, composing each parent's DNF in place from its
        /// memo slot; a parent whose derivation is still open counts as
        /// *always*.
        fn compute(&mut self, a: usize) {
            if self.memo[a].is_some() {
                return;
            }
            self.visiting[a] = true;
            let mut acc = Dnf::empty();
            for i in self.start[a] as usize..self.start[a + 1] as usize {
                let (g, cond) = self.parents[i];
                let g = g as usize;
                if !self.visiting[g] {
                    self.compute(g);
                }
                match &self.memo[g] {
                    Some(d) => {
                        d.compose_into(cond.as_ref(), &mut acc);
                    }
                    // An open parent (a control cycle): conservative.
                    None => {
                        acc.insert(cond.into_iter().collect());
                    }
                }
            }
            self.visiting[a] = false;
            self.memo[a] = Some(if acc.is_empty() { Dnf::always() } else { acc });
        }
    }

    let mut walk = Walk {
        start: &start,
        parents: &parents,
        memo: vec![None; names],
        visiting: vec![false; names],
    };
    for a in 0..num.acts() {
        walk.compute(a);
    }
    walk.memo
}

/// Conjunction of two DNFs (cross product of terms, minimized).
pub fn dnf_and(a: &Dnf<Condition>, b: &Dnf<Condition>) -> Dnf<Condition> {
    let mut out = Dnf::empty();
    for ta in a.terms() {
        for tb in b.terms() {
            let mut t = ta.clone();
            t.extend(tb.iter().cloned());
            out.insert(t);
        }
    }
    out
}

/// Decides `context ∧ old ⟹ new` semantically, enumerating assignments of
/// every guard mentioned in the three DNFs over its domain.
///
/// Guards missing from `domains` get a synthetic domain: the values seen in
/// the formulas plus one fresh "anything else" value — sound, because all
/// conditions on that guard are false under the fresh value.
///
/// Returns `false` (conservative: not implied) if the assignment space
/// exceeds `2^16` — never observed on realistic processes, where at most a
/// handful of guards interact.
pub fn implies_under(
    context: &Dnf<Condition>,
    old: &Dnf<Condition>,
    new: &Dnf<Condition>,
    domains: &BTreeMap<Name, Vec<Name>>,
) -> bool {
    implies_by(
        [context, old, new],
        |c| (c.on.as_str(), c.value.as_str()),
        |g| domains.get(g).map(|dom| dom.iter().map(Name::as_str).collect()),
        "\u{1}other",
    )
}

/// [`implies_under`] on the ids of a [`Numbering`]: `domains` is indexed
/// by guard id.
pub(crate) fn implies_ids(
    context: &Dnf<Guard>,
    old: &Dnf<Guard>,
    new: &Dnf<Guard>,
    domains: &[Option<Vec<u32>>],
) -> bool {
    implies_by(
        [context, old, new],
        |&c| c,
        |g| domains[g as usize].clone(),
        u32::MAX,
    )
}

/// The enumeration behind [`implies_under`]: `split` takes a condition
/// apart into guard and value, `domain` gives a declared guard's values,
/// and `other` is a value no condition uses.
fn implies_by<'d, C: Ord + Clone, K: Ord + Copy, V: Ord + Copy>(
    [context, old, new]: [&'d Dnf<C>; 3],
    split: impl Fn(&'d C) -> (K, V),
    domain: impl Fn(K) -> Option<Vec<V>>,
    other: V,
) -> bool {
    // Collect involved guards.
    let mut guards: BTreeMap<K, BTreeSet<V>> = BTreeMap::new();
    for d in [context, old, new] {
        for term in d.terms() {
            for c in term {
                let (g, v) = split(c);
                guards.entry(g).or_default().insert(v);
            }
        }
    }
    if guards.is_empty() {
        // Propositional: truth independent of assignment.
        let c = context.terms().iter().any(|t| t.is_empty());
        let o = old.terms().iter().any(|t| t.is_empty());
        let n = new.terms().iter().any(|t| t.is_empty());
        return !(c && o) || n;
    }

    let guard_values: Vec<(K, Vec<V>)> = guards
        .iter()
        .map(|(&g, seen)| {
            let vals = domain(g).unwrap_or_else(|| {
                let mut v: Vec<V> = seen.iter().copied().collect();
                v.push(other);
                v
            });
            (g, vals)
        })
        .collect();

    let space: usize = guard_values
        .iter()
        .map(|(_, v)| v.len().max(1))
        .try_fold(1usize, |acc, n| acc.checked_mul(n))
        .unwrap_or(usize::MAX);
    if space > 1 << 16 {
        return false;
    }

    // Evaluates a DNF under the assignment (a handful of guards at most,
    // so lookup is a linear scan).
    let eval = |d: &'d Dnf<C>, assignment: &[(K, V)]| {
        d.terms().iter().any(|term| {
            term.iter().all(|c| {
                let (g, v) = split(c);
                assignment
                    .iter()
                    .find(|&&(ag, _)| ag == g)
                    .is_some_and(|&(_, av)| av == v)
            })
        })
    };

    // Odometer enumeration over one in-place assignment vector — each
    // step rewrites only the positions that ticked, instead of
    // re-collecting a fresh map per assignment.
    let mut idx = vec![0usize; guard_values.len()];
    let mut assignment: Vec<(K, V)> = guard_values
        .iter()
        .map(|(g, vals)| (*g, vals[0]))
        .collect();
    loop {
        if eval(context, &assignment) && eval(old, &assignment) && !eval(new, &assignment) {
            return false;
        }
        // Increment.
        let mut pos = 0;
        loop {
            if pos == idx.len() {
                return true;
            }
            idx[pos] += 1;
            if idx[pos] < guard_values[pos].1.len() {
                assignment[pos].1 = guard_values[pos].1[idx[pos]];
                break;
            }
            idx[pos] = 0;
            assignment[pos].1 = guard_values[pos].1[0];
            pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dscweaver_dscl::{Origin, Relation, StateRef};

    fn cond(g: &str, v: &str) -> Condition {
        Condition::new(g, v)
    }

    fn purchasing_like() -> ConstraintSet {
        let mut cs = ConstraintSet::new("t");
        for a in ["if_au", "invPurchase_po", "set_oi", "reply", "nested_if", "deep"] {
            cs.add_activity(a);
        }
        cs.add_domain("if_au", vec!["T".into(), "F".into()]);
        cs.add_domain("nested_if", vec!["T".into(), "F".into()]);
        cs.push(Relation::before_if(
            StateRef::finish("if_au"),
            StateRef::start("invPurchase_po"),
            cond("if_au", "T"),
            Origin::Control,
        ));
        cs.push(Relation::before_if(
            StateRef::finish("if_au"),
            StateRef::start("set_oi"),
            cond("if_au", "F"),
            Origin::Control,
        ));
        cs.push(Relation::before(
            StateRef::finish("if_au"),
            StateRef::start("reply"),
            Origin::Control,
        ));
        cs.push(Relation::before_if(
            StateRef::finish("if_au"),
            StateRef::start("nested_if"),
            cond("if_au", "T"),
            Origin::Control,
        ));
        cs.push(Relation::before_if(
            StateRef::finish("nested_if"),
            StateRef::start("deep"),
            cond("nested_if", "F"),
            Origin::Control,
        ));
        cs
    }

    #[test]
    fn exec_conditions_derived() {
        let cs = purchasing_like();
        let exec = ExecConditions::derive(&cs);
        assert!(exec.is_unconditional("if_au"));
        assert!(exec.is_unconditional("reply"), "unconditional control dep");
        assert_eq!(
            exec.of("invPurchase_po").terms(),
            &[vec![cond("if_au", "T")]]
        );
        assert_eq!(exec.of("set_oi").terms(), &[vec![cond("if_au", "F")]]);
        // Nested: deep executes iff if_au=T ∧ nested_if=F.
        assert_eq!(
            exec.of("deep").terms(),
            &[vec![cond("if_au", "T"), cond("nested_if", "F")]]
        );
        // Unknown activity defaults to always.
        assert!(exec.is_unconditional("ghost"));
    }

    #[test]
    fn exec_cycle_is_conservative() {
        let mut cs = ConstraintSet::new("c");
        cs.add_activity("a");
        cs.add_activity("b");
        cs.add_domain("a", vec!["T".into(), "F".into()]);
        cs.add_domain("b", vec!["T".into(), "F".into()]);
        cs.push(Relation::before_if(
            StateRef::finish("a"),
            StateRef::start("b"),
            cond("a", "T"),
            Origin::Control,
        ));
        cs.push(Relation::before_if(
            StateRef::finish("b"),
            StateRef::start("a"),
            cond("b", "T"),
            Origin::Control,
        ));
        let exec = ExecConditions::derive(&cs);
        // The cycle collapses to `always` somewhere; derivation terminates
        // and stays sound (weaker assumptions only).
        let _ = exec.of("a");
        let _ = exec.of("b");
    }

    #[test]
    fn implies_execution_awareness() {
        // old = always, new = {if_au=T}, context = exec(invPurchase_po) =
        // {if_au=T}: implied — the paper's recClient_po → invPurchase_po
        // removal.
        let domains: BTreeMap<Name, Vec<Name>> =
            [("if_au".into(), vec!["T".into(), "F".into()])].into();
        let ctx = Dnf::term(vec![cond("if_au", "T")]);
        let old = Dnf::always();
        let new = Dnf::term(vec![cond("if_au", "T")]);
        assert!(implies_under(&ctx, &old, &new, &domains));
        // Without the execution context it is NOT implied.
        assert!(!implies_under(&Dnf::always(), &old, &new, &domains));
    }

    #[test]
    fn implies_branch_completeness() {
        // old = always; new = {if_au=T} ∨ {if_au=F} with domain {T,F}:
        // implied — the paper's if_au → replyClient_oi removal.
        let domains: BTreeMap<Name, Vec<Name>> =
            [("if_au".into(), vec!["T".into(), "F".into()])].into();
        let mut new = Dnf::term(vec![cond("if_au", "T")]);
        new.insert(vec![cond("if_au", "F")]);
        assert!(implies_under(&Dnf::always(), &Dnf::always(), &new, &domains));
        // With a three-valued domain {T, F, E} it is not.
        let domains3: BTreeMap<Name, Vec<Name>> = [(
            "if_au".into(),
            vec!["T".into(), "F".into(), "E".into()],
        )]
        .into();
        assert!(!implies_under(&Dnf::always(), &Dnf::always(), &new, &domains3));
    }

    #[test]
    fn implies_undeclared_guard_gets_other_value() {
        // Guard without a domain: {g=T} ∨ {g=F} must NOT cover always,
        // because g could take a third, unseen value.
        let domains = BTreeMap::new();
        let mut new = Dnf::term(vec![cond("g", "T")]);
        new.insert(vec![cond("g", "F")]);
        assert!(!implies_under(&Dnf::always(), &Dnf::always(), &new, &domains));
        // But {g=T} still covers {g=T}.
        let t = Dnf::term(vec![cond("g", "T")]);
        assert!(implies_under(&Dnf::always(), &t, &t, &domains));
    }

    #[test]
    fn implies_propositional_base_cases() {
        let domains = BTreeMap::new();
        let always: Dnf<Condition> = Dnf::always();
        let never: Dnf<Condition> = Dnf::empty();
        assert!(implies_under(&always, &never, &never, &domains));
        assert!(implies_under(&always, &always, &always, &domains));
        assert!(!implies_under(&always, &always, &never, &domains));
        assert!(implies_under(&never, &always, &never, &domains), "false context");
    }

    #[test]
    fn dnf_and_distributes() {
        let a = {
            let mut d = Dnf::term(vec![cond("x", "T")]);
            d.insert(vec![cond("y", "T")]);
            d
        };
        let b = Dnf::term(vec![cond("z", "F")]);
        let both = dnf_and(&a, &b);
        assert_eq!(both.terms().len(), 2);
        assert!(both
            .terms()
            .iter()
            .all(|t| t.contains(&cond("z", "F"))));
    }

    #[test]
    fn multi_guard_interaction() {
        // context: {a=T}; old: {b=T}; new: {a=T, b=T} — implied.
        let domains: BTreeMap<Name, Vec<Name>> = [
            ("a".into(), vec!["T".into(), "F".into()]),
            ("b".into(), vec!["T".into(), "F".into()]),
        ]
        .into();
        let ctx = Dnf::term(vec![cond("a", "T")]);
        let old = Dnf::term(vec![cond("b", "T")]);
        let new = Dnf::term(vec![cond("a", "T"), cond("b", "T")]);
        assert!(implies_under(&ctx, &old, &new, &domains));
        assert!(!implies_under(&Dnf::always(), &old, &new, &domains));
    }
}
