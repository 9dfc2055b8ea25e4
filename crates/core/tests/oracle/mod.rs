//! String oracles for the integer weave (test-only): the execution
//! conditions, the §4.3 translation and the `Weaver::run` composition as
//! they ran on strings, name by name, before the weave was numbered.
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
        assert_eq!(exec.dnf(&name), &expect, "{what}: exec({name})");
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
                assert_eq!(got.exec.dnf(&name), &expect, "{what}: woven exec({name})");
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
