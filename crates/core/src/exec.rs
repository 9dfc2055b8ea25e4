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

use crate::number::{Guard, Kind, Numberer, Numbering};
use dscweaver_dscl::{Condition, ConstraintSet, Name, Origin};
use dscweaver_graph::annotated::Dnf;
use dscweaver_graph::FxHashMap;
use std::collections::{BTreeMap, BTreeSet};

/// Per-activity execution conditions, derived from control dependencies.
///
/// Derived **before** optimization and carried alongside the constraint set
/// from then on: the optimizer may remove control *constraints* (monitoring
/// obligations) without changing the fact of when an activity executes.
///
/// Stored on ids, flat: the conditional activities (sorted), each one's
/// DNF as a row of `(guard, value)` id terms — activities with the same
/// condition share one row — and the guard and value names behind those
/// ids. Every activity not listed executes always.
/// [`resolve`](crate::resolve::resolve) translates the rows onto the ids
/// of the set a consumer runs; [`ExecConditions::of`] builds one DNF on
/// names on demand.
#[derive(Clone, Debug, Default)]
pub struct ExecConditions {
    /// The conditional activities (and the undeclared names a derivation
    /// visits), sorted.
    acts: Vec<Name>,
    /// Per conditional activity, its row.
    row_of: Vec<u32>,
    /// The rows: row `k`'s terms are `terms[rows[k]..rows[k + 1]]`, term
    /// `t`'s conditions `conds[terms[t]..terms[t + 1]]`.
    rows: Rows,
    /// Guard names by guard id.
    guards: Vec<Name>,
    /// Guard `g`'s values are `values[value_at[g]..value_at[g + 1]]`.
    value_at: Vec<u32>,
    values: Vec<Name>,
}

/// DNFs of `(guard, value)` id terms, stored flat: row `k`'s terms are
/// `at[k]..at[k + 1]`, term `t`'s conditions `conds[terms[t]..terms[t + 1]]`.
#[derive(Clone, Debug, Default)]
pub(crate) struct Rows {
    at: Vec<u32>,
    terms: Vec<u32>,
    conds: Vec<Guard>,
}

impl Rows {
    /// Appends a row; `terms` yields each term's conditions.
    fn push<'t>(&mut self, terms: impl Iterator<Item = &'t [Guard]>) {
        if self.at.is_empty() {
            self.at.push(0);
            self.terms.push(0);
        }
        for term in terms {
            self.conds.extend_from_slice(term);
            self.terms.push(self.conds.len() as u32);
        }
        self.at.push(self.terms.len() as u32 - 1);
    }

    /// Rows so far.
    fn len(&self) -> usize {
        self.at.len().saturating_sub(1)
    }

    /// Row `k`'s terms.
    fn row(&self, k: u32) -> impl Iterator<Item = &[Guard]> {
        (self.at[k as usize] as usize..self.at[k as usize + 1] as usize)
            .map(|t| &self.conds[self.terms[t] as usize..self.terms[t + 1] as usize])
    }

    /// Row `k` as a DNF.
    fn dnf(&self, k: u32) -> Dnf<Guard> {
        let mut d = Dnf::empty();
        for t in self.row(k) {
            d.insert(t.to_vec());
        }
        d
    }
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
        ExecConditions::pack(&num, &derive_ids(&num))
    }

    /// Packs [`derive_ids`]' result on `num`'s ids: one entry per
    /// conditional name, in name order, and one row per DNF they use.
    pub(crate) fn pack(num: &Numbering, exec: &ExecDnfs) -> ExecConditions {
        let mut out = ExecConditions::default();
        let conditional = |id: u32| !matches!(exec.of[id as usize], NONE | ALWAYS);
        let mut names: Vec<u32> = (0..exec.of.len() as u32).filter(|&id| conditional(id)).collect();
        if names.is_empty() {
            return out;
        }
        // Activity ids already ascend with names; undeclared names a
        // derivation visits follow in mention order.
        if names.last().is_some_and(|&id| id as usize >= num.acts()) {
            names.sort_by(|&x, &y| num.name(x).cmp(num.name(y)));
        }
        let mut row = vec![NONE; exec.dnfs.len()];
        for id in names {
            let k = exec.of[id as usize] as usize;
            if row[k] == NONE {
                row[k] = out.rows.len() as u32;
                out.rows.push(exec.dnfs[k].terms().iter().map(Vec::as_slice));
            }
            out.acts.push(num.name(id).clone());
            out.row_of.push(row[k]);
        }
        out.value_at.push(0);
        for g in 0..num.guard_count() as u32 {
            out.guards.push(num.guard_name(g).clone());
            out.values.extend_from_slice(num.values(g));
            out.value_at.push(out.values.len() as u32);
        }
        out
    }

    /// The execution condition of `activity` (*always* if unknown).
    pub fn of(&self, activity: &str) -> Dnf<Condition> {
        let Some(k) = self.position(activity) else {
            return Dnf::always();
        };
        let mut out = Dnf::empty();
        for term in self.rows.row(self.row_of[k]) {
            out.insert(term.iter().map(|&c| self.condition(c)).collect());
        }
        out
    }

    /// True if `activity` executes unconditionally.
    pub fn is_unconditional(&self, activity: &str) -> bool {
        self.position(activity).is_none()
    }

    /// The entry of a conditional activity.
    fn position(&self, activity: &str) -> Option<usize> {
        self.acts.binary_search_by(|a| a.as_str().cmp(activity)).ok()
    }

    /// The condition behind one of this table's guards.
    fn condition(&self, (g, v): Guard) -> Condition {
        Condition {
            on: self.guards[g as usize].clone(),
            value: self.values[(self.value_at[g as usize] + v) as usize].clone(),
        }
    }

    /// Translates the rows onto the ids of `b`, numbering the guards and
    /// values `b` does not know yet. Only the rows of activities `b`
    /// declares are translated, in activity order; a conditional activity
    /// the set does not declare is dropped.
    pub(crate) fn translate<'a>(&'a self, b: &mut Numberer<'a>) -> ExecIds {
        let acts = b.numbering().acts();
        let mut out = ExecIds {
            of: vec![NONE; acts],
            rows: Rows::default(),
        };
        let mut row = vec![NONE; self.rows.len()];
        let mut guard_map = vec![NONE; self.guards.len()];
        let mut value_map = vec![NONE; self.values.len()];
        let mut conds: Vec<Guard> = Vec::new();
        let mut terms: Vec<u32> = Vec::new();
        for (a, &k) in self.acts.iter().zip(&self.row_of) {
            let Some(id) = b.activity_id(a) else {
                continue;
            };
            if row[k as usize] == NONE {
                conds.clear();
                terms.clear();
                for term in self.rows.row(k) {
                    for &(g, v) in term {
                        let flat = (self.value_at[g as usize] + v) as usize;
                        if value_map[flat] == NONE {
                            let guard = &self.guards[g as usize];
                            let value = &self.values[flat];
                            let ((cg, cv), _) = b.condition(guard, || guard.clone(), value, || value.clone());
                            guard_map[g as usize] = cg;
                            value_map[flat] = cv;
                        }
                        conds.push((guard_map[g as usize], value_map[flat]));
                    }
                    terms.push(conds.len() as u32);
                }
                row[k as usize] = out.rows.len() as u32;
                let mut from = 0;
                out.rows.push(terms.iter().map(|&to| {
                    let t = &conds[from as usize..to as usize];
                    from = to;
                    t
                }));
            }
            out.of[id as usize] = row[k as usize];
        }
        out
    }
}

/// No row: the name executes always (or was never visited).
const NONE: u32 = u32::MAX;

/// The row of *always* in [`ExecDnfs::dnfs`].
const ALWAYS: u32 = 0;

/// Execution conditions on a numbering's ids, as [`derive_ids`] computes
/// them: per name id, the index of its DNF in `dnfs` (`dnfs[0]` is
/// *always*; `NONE` for a name no derivation visits).
#[derive(Debug)]
pub(crate) struct ExecDnfs {
    pub of: Vec<u32>,
    pub dnfs: Vec<Dnf<Guard>>,
}

impl ExecDnfs {
    /// The DNF of name `id`, `None` for *always*.
    pub fn get(&self, id: usize) -> Option<&Dnf<Guard>> {
        match self.of.get(id).copied() {
            None | Some(NONE | ALWAYS) => None,
            Some(k) => Some(&self.dnfs[k as usize]),
        }
    }
}

/// Execution conditions translated onto a set's ids
/// ([`ExecConditions::translate`]): per activity id, its row (`NONE`:
/// always).
#[derive(Clone, Debug, Default)]
pub(crate) struct ExecIds {
    of: Vec<u32>,
    rows: Rows,
}

impl ExecIds {
    /// Activity `a`'s terms (none: always).
    pub fn of(&self, a: usize) -> impl Iterator<Item = &[Guard]> {
        let k = self.of[a];
        let rows = (k != NONE).then_some(k).map(|k| self.rows.row(k));
        rows.into_iter().flatten()
    }

    /// True if activity `a` executes always.
    pub fn is_always(&self, a: usize) -> bool {
        self.of[a] == NONE
    }

    /// The DNFs by activity id, each row built once.
    pub fn dnfs(&self) -> ExecDnfs {
        let mut dnfs = vec![Dnf::always()];
        dnfs.extend((0..self.rows.len() as u32).map(|k| self.rows.dnf(k)));
        let of = self.of.iter().map(|&k| if k == NONE { ALWAYS } else { k + 1 }).collect();
        ExecDnfs { of, dnfs }
    }
}

/// Execution conditions on the ids of `num`, by name id: the DNF of every
/// activity and of every name their control parents reach (see
/// [`ExecDnfs`]).
///
/// Activities are visited in id order and control parents in relation
/// order, depth first; a name met again while its own derivation is open
/// (a control cycle) counts as *always* there. A name whose one control
/// parent's condition and guard repeat another's takes that name's DNF
/// without composing it again.
pub(crate) fn derive_ids(num: &Numbering) -> ExecDnfs {
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
        memo: Vec<u32>,
        visiting: Vec<bool>,
        dnfs: Vec<Dnf<Guard>>,
        /// `(parent's DNF, condition)` → DNF, for names with one control
        /// parent (`NONE`: the parent's derivation was open).
        step: FxHashMap<(u32, Option<Guard>), u32>,
    }
    impl Walk<'_> {
        /// Fills `memo[a]`, after every parent's; a parent whose
        /// derivation is still open counts as *always*.
        fn compute(&mut self, a: usize) {
            if self.memo[a] != NONE {
                return;
            }
            self.visiting[a] = true;
            let ps = self.start[a] as usize..self.start[a + 1] as usize;
            for i in ps.clone() {
                let g = self.parents[i].0 as usize;
                if !self.visiting[g] {
                    self.compute(g);
                }
            }
            // An open parent (a control cycle) has no memo yet.
            let memo = |walk: &Self, g: u32| if walk.visiting[g as usize] { NONE } else { walk.memo[g as usize] };
            let key = (ps.len() == 1).then(|| {
                let (g, cond) = self.parents[ps.start];
                (memo(self, g), cond)
            });
            let known = key.and_then(|key| self.step.get(&key).copied());
            let k = match (ps.is_empty(), known) {
                (true, _) => ALWAYS,
                (false, Some(k)) => k,
                (false, None) => {
                    let mut acc = Dnf::empty();
                    for i in ps {
                        let (g, cond) = self.parents[i];
                        match memo(self, g) {
                            NONE => {
                                acc.insert(cond.into_iter().collect());
                            }
                            k => {
                                self.dnfs[k as usize].compose_into(cond.as_ref(), &mut acc);
                            }
                        }
                    }
                    let k = if acc.is_always() {
                        ALWAYS
                    } else {
                        self.dnfs.push(acc);
                        self.dnfs.len() as u32 - 1
                    };
                    if let Some(key) = key {
                        self.step.insert(key, k);
                    }
                    k
                }
            };
            self.visiting[a] = false;
            self.memo[a] = k;
        }
    }

    let mut walk = Walk {
        start: &start,
        parents: &parents,
        memo: vec![NONE; names],
        visiting: vec![false; names],
        dnfs: vec![Dnf::always()],
        step: FxHashMap::default(),
    };
    for a in 0..num.acts() {
        walk.compute(a);
    }
    ExecDnfs {
        of: walk.memo,
        dnfs: walk.dnfs,
    }
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
