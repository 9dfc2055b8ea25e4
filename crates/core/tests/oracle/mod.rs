//! String oracles for the integer weave (test-only): the execution
//! conditions, the §4.3 translation, the `Weaver::run` composition and
//! the constraint-set diff as they ran on strings, name by name, before
//! the weave was numbered.
//! The minimal set comes from `minimize_generic_baseline`, the
//! structural string reference.
//!
//! Shared by `tests/minimize_equivalence.rs` and
//! `crates/workloads/tests/reweave_equivalence.rs` through `#[path]`.

// Each suite that includes this module uses a different subset of it.
#![allow(dead_code)]

use dscweaver_core::{
    merge, minimize_generic_baseline, minimize_with, translate_services, DependencySet, EdgeOrder,
    EquivalenceMode, ExecConditions, MinimizeError, MinimizeOptions, TranslationReport, Weaver,
    WeaverError,
};
use dscweaver_dscl::sync_graph::{SyncGraph, SyncNode};
use dscweaver_dscl::{Condition, ConstraintError, ConstraintSet, Name, Origin, Relation, StateRef};
use dscweaver_graph::{Dnf, FxHasher, NodeId};
use std::collections::{BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Every equivalence mode.
pub const MODES: [EquivalenceMode; 3] = [
    EquivalenceMode::Strict,
    EquivalenceMode::ExecutionAware,
    EquivalenceMode::Reachability,
];

/// Every removal order.
pub fn orders() -> [EdgeOrder; 3] {
    [
        EdgeOrder::Given,
        EdgeOrder::ReverseGiven,
        EdgeOrder::default(),
    ]
}

/// Execution conditions derived on strings: `exec(b) = ⋁ over control
/// parents (g, v) of exec(g) ⊗ {g=v}`, depth first from every activity
/// in declaration order, a name met again on its own derivation path
/// counting as *always*. Every name the derivation visits has an entry.
pub fn exec_conditions(cs: &ConstraintSet) -> HashMap<String, Dnf<Condition>> {
    let mut parents: HashMap<&str, Vec<(&str, Option<&Condition>)>> = HashMap::new();
    for r in &cs.relations {
        if let Relation::HappenBefore {
            from,
            to,
            cond,
            origin: Origin::Control,
        } = r
        {
            parents
                .entry(to.activity.as_str())
                .or_default()
                .push((from.activity.as_str(), cond.as_ref()));
        }
    }

    fn compute<'a>(
        act: &'a str,
        parents: &HashMap<&'a str, Vec<(&'a str, Option<&'a Condition>)>>,
        memo: &mut HashMap<&'a str, Dnf<Condition>>,
        visiting: &mut BTreeSet<&'a str>,
    ) -> Dnf<Condition> {
        if let Some(d) = memo.get(act) {
            return d.clone();
        }
        if !visiting.insert(act) {
            return Dnf::always();
        }
        let result = match parents.get(act) {
            None => Dnf::always(),
            Some(ps) => {
                let mut acc: Dnf<Condition> = Dnf::empty();
                for (g, cond) in ps {
                    let parent_exec = compute(g, parents, memo, visiting);
                    parent_exec.compose_into(*cond, &mut acc);
                }
                if acc.is_empty() {
                    Dnf::always()
                } else {
                    acc
                }
            }
        };
        visiting.remove(act);
        memo.insert(act, result.clone());
        result
    }

    let mut memo = HashMap::new();
    let mut visiting = BTreeSet::new();
    for a in &cs.activities {
        compute(a.as_str(), &parents, &mut memo, &mut visiting);
    }
    memo.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
}

/// The §4.3 translation on the string synchronization graph.
pub fn translate(cs: &ConstraintSet) -> (ConstraintSet, TranslationReport) {
    if cs.services.is_empty() {
        return (cs.clone(), TranslationReport::default());
    }
    let sg = SyncGraph::build(cs);
    let mut report = TranslationReport::default();
    let is_external = |n: NodeId| matches!(sg.graph.weight(n), SyncNode::Service(_));
    let state = |n: NodeId| match sg.graph.weight(n) {
        SyncNode::State(s) => s.clone(),
        SyncNode::Service(_) => unreachable!("internal node"),
    };

    // Rule 1: chain exits.
    let mut bridges: BTreeSet<(StateRef, StateRef, Option<Condition>)> = BTreeSet::new();
    for e in sg.graph.edge_ids() {
        let (u, first_ext) = sg.graph.endpoints(e);
        if is_external(u) || !is_external(first_ext) {
            continue;
        }
        let cond_in = sg.graph.edge_weight(e).cond.clone();
        let from_ref = state(u);
        let mut frontier = vec![first_ext];
        let mut seen: BTreeSet<NodeId> = frontier.iter().copied().collect();
        while let Some(x) = frontier.pop() {
            for oe in sg.graph.out_edges(x) {
                let (_, t) = sg.graph.endpoints(oe);
                let ow = sg.graph.edge_weight(oe);
                if is_external(t) {
                    if seen.insert(t) {
                        frontier.push(t);
                    }
                    if let Some(c) = &ow.cond {
                        report.warnings.push(format!(
                            "condition '{c}' on external edge inside a service chain is ignored"
                        ));
                    }
                } else {
                    let cond = match (&cond_in, &ow.cond) {
                        (None, c) => c.clone(),
                        (Some(c), None) => Some(c.clone()),
                        (Some(c1), Some(c2)) => {
                            if c1 != c2 {
                                report.warnings.push(format!(
                                    "conflicting conditions '{c1}' and '{c2}' on a service \
                                     chain from {from_ref}; keeping '{c1}'"
                                ));
                            }
                            Some(c1.clone())
                        }
                    };
                    bridges.insert((from_ref.clone(), state(t), cond));
                }
            }
        }
    }

    // Rule 2: invoker pull-back.
    for (_, sj) in sg.service_nodes() {
        let invokers: Vec<Name> = sg
            .graph
            .predecessors(sj)
            .filter_map(|p| match sg.graph.weight(p) {
                SyncNode::State(s) => Some(s.activity.clone()),
                SyncNode::Service(_) => None,
            })
            .collect();
        if invokers.is_empty() {
            continue;
        }
        for e in sg.graph.in_edges(sj).collect::<Vec<_>>() {
            let (w, _) = sg.graph.endpoints(e);
            let entering = sg.graph.edge_weight(e).cond.clone();
            if let SyncNode::State(s) = sg.graph.weight(w) {
                if invokers.contains(&s.activity) {
                    continue;
                }
            }
            let mut ancestors: Vec<(StateRef, Option<Condition>)> = Vec::new();
            match sg.graph.weight(w) {
                SyncNode::State(s) => ancestors.push((s.clone(), entering)),
                SyncNode::Service(_) => {
                    let mut frontier = vec![w];
                    let mut seen: BTreeSet<NodeId> = frontier.iter().copied().collect();
                    while let Some(x) = frontier.pop() {
                        for ie in sg.graph.in_edges(x) {
                            let (p, _) = sg.graph.endpoints(ie);
                            match sg.graph.weight(p) {
                                SyncNode::State(s) => ancestors
                                    .push((s.clone(), sg.graph.edge_weight(ie).cond.clone())),
                                SyncNode::Service(_) => {
                                    if seen.insert(p) {
                                        frontier.push(p);
                                    }
                                }
                            }
                        }
                    }
                }
            }
            for (anc, cond) in ancestors {
                for inv in &invokers {
                    if *inv != anc.activity {
                        bridges.insert((anc.clone(), StateRef::start(inv.clone()), cond.clone()));
                    }
                }
            }
        }
    }

    // Dead ends.
    for (name, n) in sg.service_nodes() {
        let mut frontier = vec![n];
        let mut seen: BTreeSet<NodeId> = frontier.iter().copied().collect();
        let mut found = false;
        while let Some(x) = frontier.pop() {
            for t in sg.graph.successors(x) {
                if !is_external(t) {
                    found = true;
                } else if seen.insert(t) {
                    frontier.push(t);
                }
            }
        }
        if !found {
            report.dead_ends.push(name.to_string());
        }
    }
    report.dead_ends.sort();

    // Assembly.
    let mut out = ConstraintSet::new(cs.name.clone());
    out.activities = cs.activities.clone();
    out.domains = cs.domains.clone();
    let mut existing: BTreeSet<(StateRef, StateRef, Option<Condition>)> = BTreeSet::new();
    for r in &cs.relations {
        if r.activities().iter().any(|a| cs.is_external(a)) {
            report.dropped += 1;
            continue;
        }
        if let Relation::HappenBefore { from, to, cond, .. } = r {
            existing.insert((from.clone(), to.clone(), cond.clone()));
        }
        out.push(r.clone());
    }
    for (from, to, cond) in bridges {
        if existing.contains(&(from.clone(), to.clone(), cond.clone())) {
            continue;
        }
        let rel = Relation::HappenBefore {
            from,
            to,
            cond,
            origin: Origin::Translated,
        };
        report.bridges.push(rel.clone());
        out.push(rel);
    }
    (out, report)
}

/// What the string composition produces.
pub struct Woven {
    pub sc: ConstraintSet,
    pub exec: HashMap<String, Dnf<Condition>>,
    pub asc: ConstraintSet,
    pub translation: TranslationReport,
    pub minimal: ConstraintSet,
    pub removed: Vec<Relation>,
    pub fingerprint: u64,
}

/// Why the string composition failed.
#[derive(Debug, PartialEq)]
pub enum Failure {
    Validation(Vec<ConstraintError>),
    Conflict(MinimizeError),
}

/// The `Weaver::run` composition on strings: merge, validate, desugar,
/// string execution conditions and translation, then the structural
/// baseline minimizer. The baseline takes the library's
/// `ExecConditions`; [`assert_weave_matches`] pins those to
/// [`exec_conditions`] name by name.
pub fn weave(
    ds: &DependencySet,
    mode: EquivalenceMode,
    order: &EdgeOrder,
) -> Result<Woven, Failure> {
    let mut sc = merge(ds);
    let errors = sc.validate();
    if !errors.is_empty() {
        return Err(Failure::Validation(errors));
    }
    sc.desugar_happen_together();
    let exec = exec_conditions(&sc);
    let (asc, translation) = translate(&sc);
    let res = minimize_generic_baseline(&asc, &ExecConditions::derive(&sc), mode, order)
        .map_err(Failure::Conflict)?;
    let mut h = FxHasher::default();
    asc.relations.hash(&mut h);
    res.removed.hash(&mut h);
    Ok(Woven {
        sc,
        exec,
        asc,
        translation,
        minimal: res.minimal,
        removed: res.removed,
        fingerprint: h.finish(),
    })
}

/// The names whose execution conditions a comparison checks: every
/// declared activity and service, every relation endpoint, and a name
/// nothing declares.
fn probe_names(cs: &ConstraintSet) -> BTreeSet<String> {
    let mut names: BTreeSet<String> = cs.activities.iter().map(Name::to_string).collect();
    names.extend(cs.services.iter().map(Name::to_string));
    for r in &cs.relations {
        names.extend(r.activities().iter().map(|a| a.to_string()));
    }
    names.insert("__undeclared__".into());
    names
}

/// `exec` answers like the string map for every probe name of `cs`.
pub fn assert_exec_matches(cs: &ConstraintSet, exec: &ExecConditions, what: &str) {
    let want = exec_conditions(cs);
    for name in probe_names(cs) {
        let expect = want.get(&name).cloned().unwrap_or_else(Dnf::always);
        assert_eq!(exec.of(&name), expect, "{what}: exec({name})");
    }
}

/// The library's translation equals the string translation.
pub fn assert_translation_matches(cs: &ConstraintSet, what: &str) {
    let (asc, rep) = translate_services(cs);
    let (want_asc, want) = translate(cs);
    assert_eq!(asc, want_asc, "{what}: ASC");
    assert_eq!(rep.bridges, want.bridges, "{what}: bridges");
    assert_eq!(rep.dropped, want.dropped, "{what}: dropped");
    assert_eq!(rep.dead_ends, want.dead_ends, "{what}: dead ends");
    assert_eq!(rep.warnings, want.warnings, "{what}: warnings");
}

/// On a (desugared) constraint set: execution conditions and
/// translation match their string oracles, and `minimize_with` on the
/// translated set matches the baseline — minimal set, removed relations
/// in order, or the conflict report — in every mode and order.
pub fn assert_set_matches(cs: &ConstraintSet, what: &str) {
    let exec = ExecConditions::derive(cs);
    assert_exec_matches(cs, &exec, what);
    assert_translation_matches(cs, what);
    let (asc, _) = translate(cs);
    for mode in MODES {
        for order in orders() {
            let got = minimize_with(&asc, &exec, mode, &order, &MinimizeOptions::default());
            let want = minimize_generic_baseline(&asc, &exec, mode, &order);
            match (got, want) {
                (Ok(got), Ok(want)) => {
                    assert_eq!(
                        got.removed, want.removed,
                        "{what} {mode:?} {order:?}: removed"
                    );
                    assert_eq!(
                        got.minimal, want.minimal,
                        "{what} {mode:?} {order:?}: minimal"
                    );
                }
                (Err(got), Err(want)) => {
                    assert_eq!(got, want, "{what} {mode:?} {order:?}: conflict")
                }
                (got, want) => panic!(
                    "{what} {mode:?} {order:?}: engine {:?} vs baseline {:?}",
                    got.map(|r| r.removed.len()),
                    want.map(|r| r.removed.len())
                ),
            }
        }
    }
}

/// `Weaver::run` matches the string composition on `ds` under `mode`
/// and `order`: every stage, the fingerprint, or the error.
pub fn assert_weave_matches(ds: &DependencySet, mode: EquivalenceMode, order: &EdgeOrder) {
    let what = format!("{} {mode:?} {order:?}", ds.name);
    let weaver = Weaver {
        mode,
        order: order.clone(),
        ..Weaver::default()
    };
    match (weaver.run(ds), weave(ds, mode, order)) {
        (Ok(got), Ok(want)) => {
            assert_eq!(*got.sc, want.sc, "{what}: SC");
            assert_exec_matches(&want.sc, &got.exec, &what);
            for name in probe_names(&want.sc) {
                let expect = want.exec.get(&name).cloned().unwrap_or_else(Dnf::always);
                assert_eq!(got.exec.of(&name), expect, "{what}: woven exec({name})");
            }
            assert_eq!(*got.asc, want.asc, "{what}: ASC");
            if want.sc.services.is_empty() {
                assert!(Arc::ptr_eq(&got.sc, &got.asc), "{what}: ASC shares the SC");
            }
            assert_eq!(got.translation.bridges, want.translation.bridges, "{what}");
            assert_eq!(got.translation.dropped, want.translation.dropped, "{what}");
            assert_eq!(
                got.translation.dead_ends, want.translation.dead_ends,
                "{what}"
            );
            assert_eq!(
                got.translation.warnings, want.translation.warnings,
                "{what}"
            );
            assert_eq!(got.minimal, want.minimal, "{what}: minimal");
            assert_eq!(got.removed, want.removed, "{what}: removed");
            assert_eq!(got.fingerprint(), want.fingerprint, "{what}: fingerprint");
        }
        (Err(WeaverError::Validation(got)), Err(Failure::Validation(want))) => {
            assert_eq!(got, want, "{what}: validation errors")
        }
        (Err(WeaverError::Conflict(got)), Err(Failure::Conflict(want))) => {
            assert_eq!(got, want, "{what}: conflict")
        }
        (got, want) => panic!(
            "{what}: weave {:?} vs string composition {:?}",
            got.map(|o| o.removed.len()),
            want.map(|w| w.removed.len())
        ),
    }
}

/// [`assert_weave_matches`] in every mode and order.
pub fn assert_weave_matches_everywhere(ds: &DependencySet) {
    for mode in MODES {
        for order in orders() {
            assert_weave_matches(ds, mode, &order);
        }
    }
}

/// The constraint-set diff as it ran on strings before it was numbered:
/// the pin of `dscweaver_core::diff_constraint_sets`, field for field.
pub mod diff {
    use dscweaver_core::ConstraintDiff;
    use dscweaver_dscl::{Condition, ConstraintSet, Name, Relation, StateRef};
    use dscweaver_graph::FxHashMap;
    use std::collections::{BTreeMap, BTreeSet};

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
                let fmt = |v: Option<&Vec<Name>>| v.map(|v| v.join(", ")).unwrap_or_default();
                format!("{var}: [{}] => [{}]", fmt(old_vals), fmt(new_vals))
            })
            .collect()
    }

    /// The diff `old → new`, on strings.
    pub fn diff(old: &ConstraintSet, new: &ConstraintSet) -> ConstraintDiff {
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
            added_activities: new.activities.difference(&old.activities).map(Name::to_string).collect(),
            removed_activities: old.activities.difference(&new.activities).map(Name::to_string).collect(),
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
                .map(Name::to_string)
                .collect(),
            removed_activities: old
                .activities
                .difference(&new.activities)
                .map(Name::to_string)
                .collect(),
            exclusive_added: new_excl.difference(&old_excl).cloned().collect(),
            exclusive_removed: old_excl.difference(&new_excl).cloned().collect(),
            annotation_changed,
            domain_changed: domain_diff(old, new),
        }
    }
}
