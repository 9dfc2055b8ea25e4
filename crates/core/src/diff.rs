//! Diffing constraint sets and pipeline outputs — the tooling face of the
//! paper's adaptability claim (§1: with dependencies as first-class
//! citizens, adding or deleting a constraint is a set edit, and its global
//! effect on the synchronization scheme is *computable*).

use crate::pipeline::WeaverOutput;
use dscweaver_dscl::{Condition, ConstraintSet, Relation, StateRef};
use dscweaver_graph::FxHashMap;
use std::collections::{BTreeMap, BTreeSet};

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
    /// they change branch-completeness verdicts during screening.
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

    /// True if the edit changes the synchronization graph itself —
    /// HappenBefore edges (including pure guard edits) or the activity
    /// set — and therefore the condition-annotated closure.
    pub fn closure_relevant(&self) -> bool {
        !self.added.is_empty()
            || !self.removed.is_empty()
            || !self.added_activities.is_empty()
            || !self.removed_activities.is_empty()
    }

    /// True if the edit leaves the closure untouched but still changes
    /// what screening or dynamic checking sees: Exclusive pairs or guard
    /// domains.
    pub fn screen_only(&self) -> bool {
        !self.is_empty() && !self.closure_relevant()
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

/// Structural key of a HappenBefore relation, ignoring provenance —
/// borrowed, so building the comparison sets allocates nothing. Rendering
/// happens only for keys that end up in the diff.
type HbKey<'a> = (&'a StateRef, &'a StateRef, Option<&'a Condition>);

fn render_hb((from, to, cond): &HbKey<'_>) -> String {
    match cond {
        Some(c) => format!("{from} ->[{c}] {to}"),
        None => format!("{from} -> {to}"),
    }
}

/// Structural key of an Exclusive relation, order- and
/// provenance-insensitive.
fn exclusive_key(r: &Relation) -> Option<String> {
    match r {
        Relation::Exclusive { a, b, .. } => {
            let (a, b) = (a.to_string(), b.to_string());
            Some(if a <= b {
                format!("{a} >< {b}")
            } else {
                format!("{b} >< {a}")
            })
        }
        _ => None,
    }
}

/// Renders one annotation-changed entry (`from -> to: [old] => [new]`,
/// condition lists string-sorted, `""` = unconditional).
fn render_annotation(
    pair: (&StateRef, &StateRef),
    old_conds: &[Option<&Condition>],
    new_conds: &[Option<&Condition>],
) -> String {
    let fmt = |conds: &[Option<&Condition>]| {
        let mut v: Vec<String> = conds
            .iter()
            .map(|c| c.map(|c| c.to_string()).unwrap_or_default())
            .collect();
        v.sort();
        v.join(", ")
    };
    format!(
        "{} -> {}: [{}] => [{}]",
        pair.0,
        pair.1,
        fmt(old_conds),
        fmt(new_conds)
    )
}

/// Guard-domain edits, rendered `var: [old] => [new]`.
fn domain_diff(old: &ConstraintSet, new: &ConstraintSet) -> Vec<String> {
    old.domains
        .iter()
        .map(|(var, vals)| (var, Some(vals), new.domains.get(var)))
        .chain(
            new.domains
                .iter()
                .filter(|(var, _)| !old.domains.contains_key(*var))
                .map(|(var, vals)| (var, None, Some(vals))),
        )
        .filter(|(_, old_vals, new_vals)| old_vals != new_vals)
        .map(|(var, old_vals, new_vals)| {
            let fmt = |v: Option<&Vec<String>>| v.map(|v| v.join(", ")).unwrap_or_default();
            format!("{var}: [{}] => [{}]", fmt(old_vals), fmt(new_vals))
        })
        .collect()
}

/// Computes the diff `old → new`.
pub fn diff_constraint_sets(old: &ConstraintSet, new: &ConstraintSet) -> ConstraintDiff {
    // Fast path for a session re-weave: an edit burst leaves
    // the relation lists positionally identical outside a small window, so
    // trim the common prefix and suffix (plain `PartialEq`, no ordering
    // structure) and diff only the window against the full sets. Falls
    // back to the symmetric full diff when the window is large — e.g. the
    // sets come from unrelated processes or everything was reordered.
    let (o, n) = (&old.relations, &new.relations);
    let mut lo = 0;
    while lo < o.len().min(n.len()) && o[lo] == n[lo] {
        lo += 1;
    }
    let (mut oe, mut ne) = (o.len(), n.len());
    while oe > lo && ne > lo && o[oe - 1] == n[ne - 1] {
        oe -= 1;
        ne -= 1;
    }
    if (oe - lo) + (ne - lo) <= 64 {
        return diff_windowed(old, new, &o[lo..oe], &n[lo..ne]);
    }
    diff_full(old, new)
}

/// HappenBefore keys of a changed window's relations.
fn window_keys(mid: &[Relation]) -> BTreeSet<HbKey<'_>> {
    mid.iter()
        .filter_map(|r| match r {
            Relation::HappenBefore { from, to, cond, .. } => Some((from, to, cond.as_ref())),
            _ => None,
        })
        .collect()
}

/// Drops every candidate key that appears anywhere in `other` (a window
/// key can have a positional twin elsewhere in the set).
fn subtract_present<'a>(cands: &mut BTreeSet<HbKey<'a>>, other: &'a ConstraintSet) {
    for r in &other.relations {
        if cands.is_empty() {
            break;
        }
        if let Relation::HappenBefore { from, to, cond, .. } = r {
            cands.remove(&(from, to, cond.as_ref()));
        }
    }
}

/// Condition multisets of `cs` for the given endpoint pairs only.
#[allow(clippy::type_complexity)]
fn collect_conds<'a>(
    cs: &'a ConstraintSet,
    touched: &BTreeSet<(&'a StateRef, &'a StateRef)>,
) -> BTreeMap<(&'a StateRef, &'a StateRef), Vec<Option<&'a Condition>>> {
    let mut map: BTreeMap<(&StateRef, &StateRef), Vec<Option<&Condition>>> =
        touched.iter().map(|&p| (p, Vec::new())).collect();
    for r in &cs.relations {
        if let Relation::HappenBefore { from, to, cond, .. } = r {
            if let Some(v) = map.get_mut(&(from, to)) {
                v.push(cond.as_ref());
            }
        }
    }
    for v in map.values_mut() {
        v.sort();
    }
    map
}

/// Diff restricted to a small changed window: every difference involves a
/// relation in `mid_old`/`mid_new`, so candidates come from the windows
/// and only membership checks touch the full sets (single linear scans).
fn diff_windowed<'a>(
    old: &'a ConstraintSet,
    new: &'a ConstraintSet,
    mid_old: &'a [Relation],
    mid_new: &'a [Relation],
) -> ConstraintDiff {
    let mut added_keys = window_keys(mid_new);
    subtract_present(&mut added_keys, old);
    let mut removed_keys = window_keys(mid_old);
    subtract_present(&mut removed_keys, new);
    let mut added: Vec<String> = added_keys.iter().map(render_hb).collect();
    let mut removed: Vec<String> = removed_keys.iter().map(render_hb).collect();
    added.sort();
    removed.sort();

    // Exclusive pairs never appear in the synthetic edit bursts and are
    // rare in general; when the window touches one, compare the (small)
    // full Exclusive sets the way the full diff does.
    let window_has_excl = mid_old
        .iter()
        .chain(mid_new)
        .any(|r| matches!(r, Relation::Exclusive { .. }));
    let (exclusive_added, exclusive_removed) = if window_has_excl {
        let old_excl: BTreeSet<String> = old.relations.iter().filter_map(exclusive_key).collect();
        let new_excl: BTreeSet<String> = new.relations.iter().filter_map(exclusive_key).collect();
        (
            new_excl.difference(&old_excl).cloned().collect(),
            old_excl.difference(&new_excl).cloned().collect(),
        )
    } else {
        (Vec::new(), Vec::new())
    };

    // Annotation view: only endpoint pairs named in the window can have a
    // changed condition multiset; collect their conditions from both full
    // sets in one scan each.
    let touched: BTreeSet<(&StateRef, &StateRef)> = mid_old
        .iter()
        .chain(mid_new)
        .filter_map(|r| match r {
            Relation::HappenBefore { from, to, .. } => Some((from, to)),
            _ => None,
        })
        .collect();
    let old_pairs = collect_conds(old, &touched);
    let new_pairs = collect_conds(new, &touched);
    let mut annotation_changed: Vec<String> = touched
        .iter()
        .filter_map(|pair| {
            let old_conds = &old_pairs[pair];
            let new_conds = &new_pairs[pair];
            // Present in both sets (the full diff only reports pairs that
            // survive the edit) and with differing condition multisets.
            (!old_conds.is_empty() && !new_conds.is_empty() && old_conds != new_conds)
                .then(|| render_annotation(*pair, old_conds, new_conds))
        })
        .collect();
    annotation_changed.sort();

    ConstraintDiff {
        added,
        removed,
        added_activities: new.activities.difference(&old.activities).cloned().collect(),
        removed_activities: old.activities.difference(&new.activities).cloned().collect(),
        exclusive_added,
        exclusive_removed,
        annotation_changed,
        domain_changed: domain_diff(old, new),
    }
}

/// The symmetric full diff: one hash-counting pass per set (borrowed
/// keys, no ordering structure), strings rendered only for entries that
/// differ. Linear in the set sizes regardless of how the edit is shaped,
/// so scattered multi-site bursts cost the same as a single insertion.
fn diff_full(old: &ConstraintSet, new: &ConstraintSet) -> ConstraintDiff {
    // Per-key multiset counts `(in old, in new)`.
    let mut counts: FxHashMap<HbKey<'_>, (u32, u32)> = FxHashMap::default();
    for r in &old.relations {
        if let Relation::HappenBefore { from, to, cond, .. } = r {
            counts.entry((from, to, cond.as_ref())).or_default().0 += 1;
        }
    }
    for r in &new.relations {
        if let Relation::HappenBefore { from, to, cond, .. } = r {
            counts.entry((from, to, cond.as_ref())).or_default().1 += 1;
        }
    }
    let mut added: Vec<String> = Vec::new();
    let mut removed: Vec<String> = Vec::new();
    // A changed pair condition-multiset always shows as a changed count on
    // one of its keys, so the touched pairs fall out of the same pass.
    let mut touched: BTreeSet<(&StateRef, &StateRef)> = BTreeSet::new();
    for (key, &(o, n)) in &counts {
        if o == n {
            continue;
        }
        touched.insert((key.0, key.1));
        if o == 0 {
            added.push(render_hb(key));
        }
        if n == 0 {
            removed.push(render_hb(key));
        }
    }
    added.sort();
    removed.sort();
    let has_excl = old
        .relations
        .iter()
        .chain(&new.relations)
        .any(|r| matches!(r, Relation::Exclusive { .. }));
    let (old_excl, new_excl): (BTreeSet<String>, BTreeSet<String>) = if has_excl {
        (
            old.relations.iter().filter_map(exclusive_key).collect(),
            new.relations.iter().filter_map(exclusive_key).collect(),
        )
    } else {
        Default::default()
    };
    let old_pairs = collect_conds(old, &touched);
    let new_pairs = collect_conds(new, &touched);
    let mut annotation_changed: Vec<String> = touched
        .iter()
        .filter_map(|pair| {
            let old_conds = &old_pairs[pair];
            let new_conds = &new_pairs[pair];
            (!old_conds.is_empty() && !new_conds.is_empty() && old_conds != new_conds)
                .then(|| render_annotation(*pair, old_conds, new_conds))
        })
        .collect();
    annotation_changed.sort();
    ConstraintDiff {
        added,
        removed,
        added_activities: new
            .activities
            .difference(&old.activities)
            .cloned()
            .collect(),
        removed_activities: old
            .activities
            .difference(&new.activities)
            .cloned()
            .collect(),
        exclusive_added: new_excl.difference(&old_excl).cloned().collect(),
        exclusive_removed: old_excl.difference(&new_excl).cloned().collect(),
        annotation_changed,
        domain_changed: domain_diff(old, new),
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
        assert!(d.screen_only());
        assert!(!d.closure_relevant());
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
        assert!(d.closure_relevant());
        assert!(!d.screen_only());
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
