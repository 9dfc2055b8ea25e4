//! Diffing constraint sets and pipeline outputs — the tooling face of the
//! paper's adaptability claim (§1: with dependencies as first-class
//! citizens, adding or deleting a constraint is a set edit, and its global
//! effect on the synchronization scheme is *computable*).
//!
//! The diff runs on ids. Both sets are numbered the way the weave
//! numbers a set; old activity ids map to new ones by a
//! merge-walk of the two sorted activity tables, other names, guards and
//! values by name, and every relation becomes an integer key. An edit
//! leaves the relation lists positionally identical outside a small
//! window, so the common prefix and suffix are trimmed and only the
//! window's keys are looked up in the other set. Strings are rendered
//! only for the entries that end up in the diff. A re-weave session keeps
//! its last ASC numbering, so it numbers only the new set.

use crate::number::{End, Guard, Kind, Numbering};
use crate::pipeline::WeaverOutput;
use dscweaver_dscl::ConstraintSet;
use dscweaver_graph::FxHashMap;

/// The difference between two constraint sets: HappenBefore relations
/// compared structurally (endpoints, condition; provenance ignored), plus
/// Exclusive pairs, annotation-only edge changes, and guard-domain edits.
/// The extra axes separate edits that change the synchronization graph
/// from those that change only dynamic checking or guard semantics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ConstraintDiff {
    /// Relations only in the new set (rendered).
    pub added: Vec<String>,
    /// Relations only in the old set (rendered).
    pub removed: Vec<String>,
    /// Activities only in the new set.
    pub added_activities: Vec<String>,
    /// Activities only in the old set.
    pub removed_activities: Vec<String>,
    /// Exclusive pairs only in the new set (rendered `a >< b`). Exclusive
    /// relations add no edges to the synchronization graph — they are
    /// checked dynamically — so these never affect the closure.
    pub exclusive_added: Vec<String>,
    /// Exclusive pairs only in the old set.
    pub exclusive_removed: Vec<String>,
    /// Endpoint pairs present in *both* sets whose branch-condition
    /// multiset differs (rendered `from -> to: [old conds] => [new
    /// conds]`). These edits are already counted in `added`/`removed`
    /// key-wise; this view groups them as guard edits on a surviving
    /// edge.
    pub annotation_changed: Vec<String>,
    /// Guard variables whose declared domain differs (rendered
    /// `var: [old] => [new]`). Domains never alter the closure rows, but
    /// they change the minimizer's branch-completeness verdicts.
    pub domain_changed: Vec<String>,
}

impl ConstraintDiff {
    /// True if the sets coincide on every compared axis.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty()
            && self.removed.is_empty()
            && self.added_activities.is_empty()
            && self.removed_activities.is_empty()
            && self.exclusive_added.is_empty()
            && self.exclusive_removed.is_empty()
            && self.domain_changed.is_empty()
    }
}

impl std::fmt::Display for ConstraintDiff {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for a in &self.added_activities {
            writeln!(f, "+ activity {a}")?;
        }
        for a in &self.removed_activities {
            writeln!(f, "- activity {a}")?;
        }
        for r in &self.added {
            writeln!(f, "+ {r}")?;
        }
        for r in &self.removed {
            writeln!(f, "- {r}")?;
        }
        for r in &self.exclusive_added {
            writeln!(f, "+ {r}")?;
        }
        for r in &self.exclusive_removed {
            writeln!(f, "- {r}")?;
        }
        for r in &self.annotation_changed {
            writeln!(f, "~ {r}")?;
        }
        for d in &self.domain_changed {
            writeln!(f, "~ domain {d}")?;
        }
        Ok(())
    }
}

/// A relation's structural key on ids, ignoring provenance.
type Key = (Kind, End, End, Option<Guard>);

/// Ids past every id of the new set, for what only the old set names.
const FRESH: u32 = u32::MAX / 2;

/// The ids of the old numbering on the new one's: equal names, guards
/// and values get the new ids, the rest fresh ones that match nothing.
struct IdMap {
    names: Vec<u32>,
    guards: Vec<u32>,
    /// Guard `g`'s values by old value id.
    values: Vec<Vec<u32>>,
    /// Activities only in the old set, and only in the new one, as ids
    /// of their own numbering, ascending.
    removed_acts: Vec<u32>,
    added_acts: Vec<u32>,
}

impl IdMap {
    fn new(old: &Numbering, new: &Numbering) -> IdMap {
        let mut names = vec![u32::MAX; old.name_count()];
        let (mut removed_acts, mut added_acts) = (Vec::new(), Vec::new());
        let (oa, na) = (old.acts() as u32, new.acts() as u32);
        let (mut i, mut j) = (0, 0);
        while i < oa || j < na {
            let ord = match (i < oa, j < na) {
                (true, true) => old.name(i).cmp(new.name(j)),
                (true, false) => std::cmp::Ordering::Less,
                _ => std::cmp::Ordering::Greater,
            };
            match ord {
                std::cmp::Ordering::Equal => {
                    names[i as usize] = j;
                    i += 1;
                    j += 1;
                }
                std::cmp::Ordering::Less => {
                    removed_acts.push(i);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    added_acts.push(j);
                    j += 1;
                }
            }
        }
        // Names the walk left: a removed activity, a service or an
        // undeclared name, looked up among the new set's other names.
        let mut others: Option<FxHashMap<&str, u32>> = None;
        for id in 0..old.name_count() as u32 {
            if names[id as usize] != u32::MAX {
                continue;
            }
            let name = old.name(id).as_str();
            let activity = (id >= oa)
                .then(|| new.names()[..na as usize].binary_search_by(|n| n.as_str().cmp(name)).ok())
                .flatten();
            let found = activity.map(|j| j as u32).or_else(|| {
                let others = others.get_or_insert_with(|| {
                    (na..new.name_count() as u32)
                        .map(|k| (new.name(k).as_str(), k))
                        .collect()
                });
                others.get(name).copied()
            });
            names[id as usize] = found.unwrap_or(FRESH + id);
        }
        let mut guards = Vec::with_capacity(old.guard_count());
        let mut values = Vec::with_capacity(old.guard_count());
        for g in 0..old.guard_count() as u32 {
            let name = old.guard_name(g);
            let ng = (0..new.guard_count() as u32).find(|&k| new.guard_name(k) == name);
            guards.push(ng.unwrap_or(FRESH + g));
            values.push(
                old.values(g)
                    .iter()
                    .enumerate()
                    .map(|(v, value)| {
                        let found = ng.and_then(|ng| new.values(ng).iter().position(|x| x == value));
                        found.map_or(FRESH + v as u32, |k| k as u32)
                    })
                    .collect(),
            );
        }
        IdMap {
            names,
            guards,
            values,
            removed_acts,
            added_acts,
        }
    }

    fn end(&self, (id, state): End) -> End {
        (self.names[id as usize], state)
    }

    fn cond(&self, (g, v): Guard) -> Guard {
        (self.guards[g as usize], self.values[g as usize][v as usize])
    }
}

/// Renders a HappenBefore relation of `num`.
fn render_hb(num: &Numbering, from: End, to: End, cond: Option<Guard>) -> String {
    let (from, to) = (num.end_ref(from), num.end_ref(to));
    match cond {
        Some(c) => format!("{from} ->[{}] {to}", num.condition(c)),
        None => format!("{from} -> {to}"),
    }
}

/// Renders an Exclusive pair of `num`, its endpoints in string order.
fn render_exclusive(num: &Numbering, a: End, b: End) -> String {
    let (a, b) = (num.end_ref(a).to_string(), num.end_ref(b).to_string());
    if a <= b {
        format!("{a} >< {b}")
    } else {
        format!("{b} >< {a}")
    }
}

/// A relation condition as the annotation view prints it (`""`:
/// unconditional).
fn render_cond(num: &Numbering, cond: Option<Guard>) -> String {
    cond.map(|c| num.condition(c).to_string()).unwrap_or_default()
}

/// Computes the diff `old → new`.
pub fn diff_constraint_sets(old: &ConstraintSet, new: &ConstraintSet) -> ConstraintDiff {
    diff_numbered(&Numbering::new(old), &Numbering::new(new))
}

/// [`diff_constraint_sets`] on the numberings of the two sets.
pub(crate) fn diff_numbered(old: &Numbering, new: &Numbering) -> ConstraintDiff {
    let map = IdMap::new(old, new);
    let key = |r: &crate::number::IdRel| -> Key { (r.kind, r.from, r.to, r.cond) };
    let old_keys: Vec<Key> = old
        .rels
        .iter()
        .map(|r| (r.kind, map.end(r.from), map.end(r.to), r.cond.map(|c| map.cond(c))))
        .collect();
    let new_keys: Vec<Key> = new.rels.iter().map(key).collect();

    // The changed window: everything outside it matches positionally.
    let (o, n) = (&old_keys, &new_keys);
    let mut lo = 0;
    while lo < o.len().min(n.len()) && o[lo] == n[lo] {
        lo += 1;
    }
    let (mut oe, mut ne) = (o.len(), n.len());
    while oe > lo && ne > lo && o[oe - 1] == n[ne - 1] {
        oe -= 1;
        ne -= 1;
    }
    let hb = |k: &Key| k.0 == Kind::Before;
    // The HappenBefore keys only one side holds, as a relation index
    // carrying each, and the endpoint pairs whose condition multiset may
    // differ. A small window holds every difference; a large one
    // (scattered edits, unrelated sets, a reordering) counts every key
    // in one hash pass.
    let small = (oe - lo) + (ne - lo) <= 64;
    let (old_win, new_win) = if small {
        (lo..oe, lo..ne)
    } else {
        (0..o.len(), 0..n.len())
    };
    let (added_at, removed_at, mut touched) = if small {
        // Window keys the other side lacks anywhere.
        let missing = |keys: &[Key], win: std::ops::Range<usize>, other: &[Key]| {
            let mut cands: Vec<(Key, usize)> = win.filter(|&i| hb(&keys[i])).map(|i| (keys[i], i)).collect();
            cands.sort_unstable();
            cands.dedup_by_key(|c| c.0);
            let mut present = vec![false; cands.len()];
            for k in other.iter().filter(|k| hb(k)) {
                if let Ok(p) = cands.binary_search_by(|c| c.0.cmp(k)) {
                    present[p] = true;
                }
            }
            let absent = cands.into_iter().zip(present).filter_map(|(c, p)| (!p).then_some(c.1));
            absent.collect::<Vec<usize>>()
        };
        let touched: Vec<(End, End)> = old_win
            .clone()
            .filter(|&i| hb(&o[i]))
            .map(|i| (o[i].1, o[i].2))
            .chain(new_win.clone().filter(|&i| hb(&n[i])).map(|i| (n[i].1, n[i].2)))
            .collect();
        (missing(n, new_win.clone(), o), missing(o, old_win.clone(), n), touched)
    } else {
        // Per key: `(count in old, count in new, an old index, a new index)`.
        let mut counts: FxHashMap<Key, (u32, u32, usize, usize)> = FxHashMap::default();
        counts.reserve(o.len());
        for (i, k) in o.iter().enumerate().filter(|(_, k)| hb(k)) {
            counts.entry(*k).or_insert((0, 0, i, 0)).0 += 1;
        }
        for (i, k) in n.iter().enumerate().filter(|(_, k)| hb(k)) {
            let c = counts.entry(*k).or_insert((0, 0, 0, i));
            if c.1 == 0 {
                c.3 = i;
            }
            c.1 += 1;
        }
        let (mut added, mut removed, mut touched) = (Vec::new(), Vec::new(), Vec::new());
        // A changed condition multiset shows as a changed count of one of
        // its pair's keys.
        for (k, &(oc, nc, oi, ni)) in &counts {
            if oc != nc {
                touched.push((k.1, k.2));
                if oc == 0 {
                    added.push(ni);
                }
                if nc == 0 {
                    removed.push(oi);
                }
            }
        }
        (added, removed, touched)
    };
    let mut added: Vec<String> = added_at
        .into_iter()
        .map(|i| {
            let r = &new.rels[i];
            render_hb(new, r.from, r.to, r.cond)
        })
        .collect();
    let mut removed: Vec<String> = removed_at
        .into_iter()
        .map(|i| {
            let r = &old.rels[i];
            render_hb(old, r.from, r.to, r.cond)
        })
        .collect();
    added.sort();
    removed.sort();

    // Exclusive pairs: compared only when the window holds one (outside
    // it they match positionally), as unordered endpoint pairs.
    let has_excl = old_win.clone().any(|i| o[i].0 == Kind::Exclusive)
        || new_win.clone().any(|i| n[i].0 == Kind::Exclusive);
    let (exclusive_added, exclusive_removed) = if has_excl {
        let pairs = |keys: &[Key]| {
            let mut v: Vec<((End, End), usize)> = keys
                .iter()
                .enumerate()
                .filter(|(_, k)| k.0 == Kind::Exclusive)
                .map(|(i, k)| ((k.1.min(k.2), k.1.max(k.2)), i))
                .collect();
            v.sort_unstable();
            v.dedup_by_key(|p| p.0);
            v
        };
        let (op, np) = (pairs(o), pairs(n));
        let only = |a: &[((End, End), usize)], b: &[((End, End), usize)], num: &Numbering, rels: &[crate::number::IdRel]| {
            let mut out: Vec<String> = a
                .iter()
                .filter(|p| b.binary_search_by(|q| q.0.cmp(&p.0)).is_err())
                .map(|&(_, i)| render_exclusive(num, rels[i].from, rels[i].to))
                .collect();
            out.sort();
            out
        };
        (only(&np, &op, new, &new.rels), only(&op, &np, old, &old.rels))
    } else {
        (Vec::new(), Vec::new())
    };

    // Annotation view: the touched endpoint pairs, with the condition
    // multisets both sides hold on them.
    touched.sort_unstable();
    touched.dedup();
    let conds = |keys: &[Key]| {
        let mut v: Vec<(usize, Option<Guard>, usize)> = keys
            .iter()
            .enumerate()
            .filter(|(_, k)| hb(k))
            .filter_map(|(i, k)| Some((touched.binary_search(&(k.1, k.2)).ok()?, k.3, i)))
            .collect();
        v.sort_unstable();
        v
    };
    let (oc, nc) = (conds(o), conds(n));
    fn group(v: &[(usize, Option<Guard>, usize)], p: usize) -> &[(usize, Option<Guard>, usize)] {
        let lo = v.partition_point(|c| c.0 < p);
        let hi = v.partition_point(|c| c.0 <= p);
        &v[lo..hi]
    }
    let mut annotation_changed: Vec<String> = Vec::new();
    for (p, &(from, to)) in touched.iter().enumerate() {
        let (oc, nc) = (group(&oc, p), group(&nc, p));
        // Present in both sets and with differing condition multisets.
        if oc.is_empty() || nc.is_empty() || oc.iter().map(|c| c.1).eq(nc.iter().map(|c| c.1)) {
            continue;
        }
        let fmt = |side: &[(usize, Option<Guard>, usize)], num: &Numbering| {
            let mut v: Vec<String> = side.iter().map(|c| render_cond(num, num.rels[c.2].cond)).collect();
            v.sort();
            v.join(", ")
        };
        annotation_changed.push(format!(
            "{} -> {}: [{}] => [{}]",
            new.end_ref(from),
            new.end_ref(to),
            fmt(oc, old),
            fmt(nc, new)
        ));
    }
    annotation_changed.sort();

    // Guard-domain edits: the old set's domains in key order, then the
    // domains only the new set declares.
    let mut domain_changed = Vec::new();
    let render_dom = |num: &Numbering, g: Option<u32>| {
        g.and_then(|g| Some((g, num.domains()[g as usize].as_ref()?)))
            .map(|(g, dom)| {
                let vals: Vec<&str> = dom.iter().map(|&v| num.values(g)[v as usize].as_str()).collect();
                vals.join(", ")
            })
            .unwrap_or_default()
    };
    let declared_new = |g: u32| (g < new.declared_guards() as u32).then_some(g);
    let mut matched = vec![false; new.declared_guards()];
    for g in 0..old.declared_guards() as u32 {
        let ng = declared_new(map.guards[g as usize]);
        let old_dom = old.domains()[g as usize].as_deref().unwrap_or_default();
        let same = ng.is_some_and(|ng| {
            matched[ng as usize] = true;
            let new_dom = new.domains()[ng as usize].as_deref().unwrap_or_default();
            old_dom.len() == new_dom.len()
                && old_dom.iter().zip(new_dom).all(|(&v, &w)| map.values[g as usize][v as usize] == w)
        });
        if !same {
            domain_changed.push(format!(
                "{}: [{}] => [{}]",
                old.guard_name(g),
                render_dom(old, Some(g)),
                render_dom(new, ng)
            ));
        }
    }
    for g in (0..new.declared_guards() as u32).filter(|&g| !matched[g as usize]) {
        domain_changed.push(format!("{}: [] => [{}]", new.guard_name(g), render_dom(new, Some(g))));
    }

    ConstraintDiff {
        added,
        removed,
        added_activities: map.added_acts.iter().map(|&a| new.name(a).to_string()).collect(),
        removed_activities: map.removed_acts.iter().map(|&a| old.name(a).to_string()).collect(),
        exclusive_added,
        exclusive_removed,
        annotation_changed,
        domain_changed,
    }
}

/// Diffs two pipeline runs at the minimal-set level: the scheme-level
/// impact of a specification edit.
pub fn diff_outputs(old: &WeaverOutput, new: &WeaverOutput) -> ConstraintDiff {
    diff_constraint_sets(&old.minimal, &new.minimal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dependency::{Dependency, DependencySet};
    use crate::pipeline::Weaver;

    fn base() -> DependencySet {
        let mut ds = DependencySet::new("d");
        for a in ["a", "b", "c"] {
            ds.add_activity(a);
        }
        ds.push(Dependency::data("a", "b"));
        ds.push(Dependency::data("b", "c"));
        ds
    }

    #[test]
    fn identical_sets_empty_diff() {
        let out = Weaver::new().run(&base()).unwrap();
        let d = diff_outputs(&out, &out);
        assert!(d.is_empty());
        assert_eq!(d.to_string(), "");
    }

    #[test]
    fn added_constraint_shows_up() {
        let out1 = Weaver::new().run(&base()).unwrap();
        let mut ds2 = base();
        ds2.add_activity("d");
        ds2.push(Dependency::cooperation("c", "d"));
        let out2 = Weaver::new().run(&ds2).unwrap();
        let d = diff_outputs(&out1, &out2);
        assert_eq!(d.added, vec!["F(c) -> S(d)"]);
        assert_eq!(d.added_activities, vec!["d"]);
        assert!(d.removed.is_empty());
        assert!(d.to_string().contains("+ F(c) -> S(d)"));
    }

    #[test]
    fn edit_with_ripple_effects() {
        // Adding a shortcut-making constraint can *remove* another from the
        // minimal scheme: a→b→c plus new direct path pieces.
        let mut ds1 = base();
        ds1.push(Dependency::cooperation("a", "c")); // redundant, optimized away
        let out1 = Weaver::new().run(&ds1).unwrap();
        // Drop b entirely: a→c becomes load-bearing.
        let mut ds2 = DependencySet::new("d");
        for a in ["a", "c"] {
            ds2.add_activity(a);
        }
        ds2.push(Dependency::cooperation("a", "c"));
        let out2 = Weaver::new().run(&ds2).unwrap();
        let d = diff_outputs(&out1, &out2);
        assert!(d.added.contains(&"F(a) -> S(c)".to_string()));
        assert!(d.removed.contains(&"F(a) -> S(b)".to_string()));
        assert_eq!(d.removed_activities, vec!["b"]);
    }

    #[test]
    fn exclusive_and_domain_changes_are_screen_only() {
        use dscweaver_dscl::{Origin, Relation, StateRef};
        let mut a = ConstraintSet::new("a");
        for x in ["x", "y"] {
            a.add_activity(x);
        }
        a.domains.insert("g".into(), vec!["T".into(), "F".into()]);
        let mut b = a.clone();
        b.push(Relation::Exclusive {
            a: StateRef::start("x"),
            b: StateRef::start("y"),
            origin: Origin::Other,
        });
        b.domains.insert("g".into(), vec!["T".into(), "F".into(), "U".into()]);
        let d = diff_constraint_sets(&a, &b);
        assert!(!d.is_empty());
        // No HappenBefore edge and no activity changed.
        assert!(d.added.is_empty() && d.removed.is_empty());
        assert!(d.added_activities.is_empty() && d.removed_activities.is_empty());
        assert_eq!(d.exclusive_added, vec!["S(x) >< S(y)"]);
        assert_eq!(d.domain_changed, vec!["g: [T, F] => [T, F, U]"]);
        assert!(d.to_string().contains("+ S(x) >< S(y)"), "{d}");
        assert!(d.to_string().contains("~ domain g"), "{d}");
        // Reverse direction reports the removal.
        let rd = diff_constraint_sets(&b, &a);
        assert_eq!(rd.exclusive_removed, vec!["S(x) >< S(y)"]);
    }

    #[test]
    fn annotation_only_edit_is_classified() {
        use dscweaver_dscl::{Condition, Origin, Relation, StateRef};
        let mut a = ConstraintSet::new("a");
        for x in ["g", "b"] {
            a.add_activity(x);
        }
        a.push(Relation::HappenBefore {
            from: StateRef::finish("g"),
            to: StateRef::start("b"),
            cond: Some(Condition::new("g", "T")),
            origin: Origin::Control,
        });
        let mut b = a.clone();
        if let Relation::HappenBefore { cond, .. } = &mut b.relations[0] {
            *cond = Some(Condition::new("g", "F"));
        }
        let d = diff_constraint_sets(&a, &b);
        // The guard edit shows up key-wise (added + removed) AND as an
        // annotation-only change on the surviving endpoint pair.
        assert_eq!(d.added.len(), 1);
        assert_eq!(d.removed.len(), 1);
        assert_eq!(d.annotation_changed.len(), 1, "{d:?}");
        assert!(d.annotation_changed[0].contains("F(g) -> S(b)"), "{d:?}");
        assert!(d.added_activities.is_empty() && d.removed_activities.is_empty());
    }

    #[test]
    fn provenance_is_ignored() {
        use dscweaver_dscl::{Origin, Relation, StateRef};
        let mut a = ConstraintSet::new("a");
        a.add_activity("x");
        a.add_activity("y");
        a.push(Relation::before(
            StateRef::finish("x"),
            StateRef::start("y"),
            Origin::Data,
        ));
        let mut b = a.clone();
        b.relations[0] = Relation::before(
            StateRef::finish("x"),
            StateRef::start("y"),
            Origin::Cooperation,
        );
        assert!(diff_constraint_sets(&a, &b).is_empty());
    }
}
