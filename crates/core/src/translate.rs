//! §4.3 — service dependency translation.
//!
//! Service dependencies mention external service nodes (`Purchase_1`,
//! `Ship_d`, ...), but activity scheduling only orders *internal*
//! activities. Two rules realize the paper's Figure 8:
//!
//! 1. **Chain exit** — for every transitive path `a → e_1 → ... → e_k → b`
//!    whose interior consists of external nodes only, add `a → b`
//!    (`invCredit_po → recCredit_au` through `Credit → Credit_d`).
//! 2. **Invoker pull-back** — a constraint *into* a service port `s_j`
//!    that is invoked by an internal activity `a_j` can only be guaranteed
//!    by the process ordering the *send*: for every constraint `w → s_j`
//!    (with `w` not itself the invoker), bridge every closest internal
//!    ancestor of `w` to `S(a_j)`. This is how the paper's
//!    `Purchase_1 →_s Purchase_2` becomes
//!    `invPurchase_po → invPurchase_si` — the state-aware *Purchase*
//!    service requires sequential arrival at its two ports, and with
//!    ordered message delivery, sequencing the invocations enforces it.
//!
//! External chains with no internal offspring and no invoked ports (the
//! paper's `Production_1`/`Production_2`) are simply dropped — they cannot
//! affect scheduling inside the process. The result is the *activity
//! synchronization constraint set* `ASC = {A, P}`.

use crate::number::{Guard, Numbering};
use dscweaver_dscl::{ConstraintSet, Origin, Relation};
use dscweaver_graph::{FxHashSet, NodeId};

/// What the translation did, for reporting.
#[derive(Clone, Debug, Default)]
pub struct TranslationReport {
    /// The bridging constraints added (Figure 8's bold edges).
    pub bridges: Vec<Relation>,
    /// How many service-node-touching relations were dropped.
    pub dropped: usize,
    /// Service nodes whose chains had no internal offspring and were
    /// removed without a bridge.
    pub dead_ends: Vec<String>,
    /// Non-fatal oddities (e.g. two different conditions met on one
    /// external path; the entering condition wins).
    pub warnings: Vec<String>,
}

/// Translates `cs` into an ASC: external nodes spliced out, bridging
/// constraints added. HappenTogether sugar must be desugared first.
pub fn translate_services(cs: &ConstraintSet) -> (ConstraintSet, TranslationReport) {
    // No external services ⇒ no service chains to splice, no relations to
    // drop, no bridges: the ASC is the SC verbatim, and numbering the set
    // would buy nothing.
    if cs.services.is_empty() {
        return (cs.clone(), TranslationReport::default());
    }
    translate_numbered(cs, &Numbering::new(cs))
}

/// [`translate_services`] on the numbering `num` of `cs`: the service
/// chains are walked on node ids, and the bridges share `cs`'s names.
pub(crate) fn translate_numbered(
    cs: &ConstraintSet,
    num: &Numbering,
) -> (ConstraintSet, TranslationReport) {
    let g = num.graph().g;
    let mut report = TranslationReport::default();
    let is_external = |n: NodeId| !num.is_state(n.0);
    let services = || (0..g.node_bound() as u32).map(NodeId).filter(|&n| is_external(n));

    // For each internal → external edge, walk the external-only chain
    // forward and bridge to every internal node the chain exits into.
    let mut bridges: Vec<(u32, u32, Option<Guard>)> = Vec::new();
    let mut seen: FxHashSet<NodeId> = FxHashSet::default();
    for e in g.edge_ids() {
        let (u, first_ext) = g.endpoints(e);
        if is_external(u) || !is_external(first_ext) {
            continue;
        }
        let cond_in = *g.edge_weight(e);
        // Forward walk over external nodes only.
        seen.clear();
        seen.insert(first_ext);
        let mut frontier = vec![first_ext];
        while let Some(x) = frontier.pop() {
            for oe in g.out_edges(x) {
                let (_, t) = g.endpoints(oe);
                let ow = *g.edge_weight(oe);
                if is_external(t) {
                    if seen.insert(t) {
                        frontier.push(t);
                    }
                    if let Some(c) = ow {
                        report.warnings.push(format!(
                            "condition '{}' on external edge inside a service chain is ignored",
                            num.condition(c)
                        ));
                    }
                } else {
                    // Exits the chain into an internal node: bridge.
                    let cond = match (cond_in, ow) {
                        (None, c) => c,
                        (Some(c1), Some(c2)) if c1 != c2 => {
                            report.warnings.push(format!(
                                "conflicting conditions '{}' and '{}' on a service \
                                 chain from {}; keeping '{}'",
                                num.condition(c1),
                                num.condition(c2),
                                num.label(u.0),
                                num.condition(c1)
                            ));
                            Some(c1)
                        }
                        (Some(c1), _) => Some(c1),
                    };
                    bridges.push((u.0, t.0, cond));
                }
            }
        }
    }

    // Rule 2: invoker pull-back. For each service node s_j with internal
    // invokers, every *other* constraint into s_j transfers to the
    // invokers: closest internal ancestors of the constraint's source must
    // precede the invoking activity's Start.
    for sj in services() {
        // Internal invokers of s_j (activity ids): internal nodes with a
        // direct edge to it.
        let invokers: Vec<u32> = g
            .predecessors(sj)
            .filter(|&p| !is_external(p))
            .map(|p| p.0 / 3)
            .collect();
        if invokers.is_empty() {
            continue;
        }
        for e in g.in_edges(sj) {
            let (w, _) = g.endpoints(e);
            // Skip the invoker edges themselves.
            if !is_external(w) && invokers.contains(&(w.0 / 3)) {
                continue;
            }
            // Closest internal ancestors of w (w itself if internal;
            // otherwise backward through external nodes).
            let mut ancestors: Vec<(u32, Option<Guard>)> = Vec::new();
            if !is_external(w) {
                ancestors.push((w.0, *g.edge_weight(e)));
            } else {
                seen.clear();
                seen.insert(w);
                let mut frontier = vec![w];
                while let Some(x) = frontier.pop() {
                    for ie in g.in_edges(x) {
                        let (p, _) = g.endpoints(ie);
                        if !is_external(p) {
                            ancestors.push((p.0, *g.edge_weight(ie)));
                        } else if seen.insert(p) {
                            frontier.push(p);
                        }
                    }
                }
            }
            for (anc, cond) in ancestors {
                for &inv in &invokers {
                    if inv == anc / 3 {
                        continue; // no self-ordering
                    }
                    bridges.push((anc, 3 * inv, cond));
                }
            }
        }
    }

    // External nodes whose chains never reach an internal node.
    for n in services() {
        seen.clear();
        seen.insert(n);
        let mut frontier = vec![n];
        let mut found = false;
        while let Some(x) = frontier.pop() {
            for t in g.successors(x) {
                if !is_external(t) {
                    found = true;
                } else if seen.insert(t) {
                    frontier.push(t);
                }
            }
        }
        if !found {
            report.dead_ends.push(num.label(n.0));
        }
    }
    report.dead_ends.sort();

    // Bridges in `(StateRef, StateRef, Option<Condition>)` order: state
    // node ids already sort like their references (activity ids are in
    // name order), conditions compare by their names.
    let cond_key = |c: Option<Guard>| c.map(|c| num.condition_key(c));
    bridges.sort_by(|a, b| {
        (a.0, a.1)
            .cmp(&(b.0, b.1))
            .then_with(|| cond_key(a.2).cmp(&cond_key(b.2)))
    });
    bridges.dedup();

    // Assemble the ASC: keep relations not touching service nodes, add the
    // bridges (skipping bridges that duplicate an existing identical
    // relation — the minimizer would drop them anyway, but Figure 8 draws
    // each edge once).
    let mut out = ConstraintSet::new(cs.name.clone());
    out.activities = cs.activities.clone();
    out.domains = cs.domains.clone();
    let mut existing: FxHashSet<(u32, u32, Option<Guard>)> = FxHashSet::default();
    for (r, ir) in cs.relations.iter().zip(&num.rels) {
        if num.is_external(ir.from.0) || num.is_external(ir.to.0) {
            report.dropped += 1;
            continue;
        }
        let ends = (num.node(ir.from), num.node(ir.to));
        if let (true, (Some(f), Some(t))) = (r.is_happen_before(), ends) {
            existing.insert((f, t, ir.cond));
        }
        out.push(r.clone());
    }
    for (from, to, cond) in bridges {
        if existing.contains(&(from, to, cond)) {
            continue;
        }
        let rel = Relation::HappenBefore {
            from: num.state_ref(from),
            to: num.state_ref(to),
            cond: cond.map(|c| num.condition(c)),
            origin: Origin::Translated,
        };
        report.bridges.push(rel.clone());
        out.push(rel);
    }
    (out, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dscweaver_dscl::{Condition, StateRef};

    /// The paper's §4.3 example: a1 → a2 → ws1_1 → ws1_d → a3 → a4
    /// translates to a1 → a2 → a3 → a4.
    #[test]
    fn paper_section43_example() {
        let mut cs = ConstraintSet::new("t");
        for a in ["a1", "a2", "a3", "a4"] {
            cs.add_activity(a);
        }
        cs.add_service("ws1_1");
        cs.add_service("ws1_d");
        cs.push(Relation::before(
            StateRef::finish("a1"),
            StateRef::start("a2"),
            Origin::Data,
        ));
        cs.push(Relation::before(
            StateRef::finish("a2"),
            StateRef::start("ws1_1"),
            Origin::Service,
        ));
        cs.push(Relation::before(
            StateRef::start("ws1_1"),
            StateRef::start("ws1_d"),
            Origin::Service,
        ));
        cs.push(Relation::before(
            StateRef::start("ws1_d"),
            StateRef::start("a3"),
            Origin::Service,
        ));
        cs.push(Relation::before(
            StateRef::finish("a3"),
            StateRef::start("a4"),
            Origin::Data,
        ));
        let (asc, report) = translate_services(&cs);
        assert!(asc.services.is_empty());
        assert_eq!(report.dropped, 3);
        assert_eq!(report.bridges.len(), 1);
        assert_eq!(report.bridges[0].to_string(), "F(a2) -> S(a3)");
        assert_eq!(asc.constraint_count(), 3); // a1→a2, a3→a4, bridge
        assert!(asc.validate().is_empty());
    }

    /// Purchase_1 →s Purchase_2 becomes invPurchase_po → invPurchase_si
    /// (Figure 8's highlighted translation).
    #[test]
    fn port_ordering_translates_to_invocations() {
        let mut cs = ConstraintSet::new("t");
        cs.add_activity("invPurchase_po");
        cs.add_activity("invPurchase_si");
        cs.add_service("Purchase_1");
        cs.add_service("Purchase_2");
        cs.push(Relation::before(
            StateRef::finish("invPurchase_po"),
            StateRef::start("Purchase_1"),
            Origin::Service,
        ));
        cs.push(Relation::before(
            StateRef::finish("invPurchase_si"),
            StateRef::start("Purchase_2"),
            Origin::Service,
        ));
        cs.push(Relation::before(
            StateRef::start("Purchase_1"),
            StateRef::start("Purchase_2"),
            Origin::Service,
        ));
        let (asc, report) = translate_services(&cs);
        // Rule 2 (invoker pull-back): Purchase_1 →_s Purchase_2 with
        // invokers invPurchase_po / invPurchase_si yields
        // invPurchase_po → invPurchase_si — the paper's Figure 8 bold edge.
        assert_eq!(report.bridges.len(), 1);
        assert_eq!(
            report.bridges[0].to_string(),
            "F(invPurchase_po) -> S(invPurchase_si)"
        );
        assert_eq!(report.dead_ends, vec!["Purchase_1", "Purchase_2"]);
        assert_eq!(asc.constraint_count(), 1);
    }

    /// With the callback port present, each invocation bridges to the
    /// callback receive (rule 1), alongside the rule-2 port ordering.
    #[test]
    fn callback_bridges() {
        let mut cs = ConstraintSet::new("t");
        for a in ["invPurchase_po", "invPurchase_si", "recPurchase_oi"] {
            cs.add_activity(a);
        }
        for s in ["Purchase_1", "Purchase_2", "Purchase_d"] {
            cs.add_service(s);
        }
        for (f, t) in [
            ("invPurchase_po", "Purchase_1"),
            ("invPurchase_si", "Purchase_2"),
            ("Purchase_1", "Purchase_d"),
            ("Purchase_2", "Purchase_d"),
            ("Purchase_1", "Purchase_2"),
        ] {
            cs.push(Relation::before(
                StateRef::finish(f),
                StateRef::start(t),
                Origin::Service,
            ));
        }
        cs.push(Relation::before(
            StateRef::start("Purchase_d"),
            StateRef::start("recPurchase_oi"),
            Origin::Service,
        ));
        let (asc, report) = translate_services(&cs);
        let bridge_strs: Vec<String> =
            report.bridges.iter().map(|r| r.to_string()).collect();
        assert!(bridge_strs.contains(&"F(invPurchase_po) -> S(recPurchase_oi)".to_string()));
        assert!(bridge_strs.contains(&"F(invPurchase_si) -> S(recPurchase_oi)".to_string()));
        assert!(bridge_strs.contains(&"F(invPurchase_po) -> S(invPurchase_si)".to_string()));
        assert_eq!(asc.constraint_count(), 3);
        assert!(report.dead_ends.is_empty());
    }

    #[test]
    fn conditions_propagate_from_entering_edge() {
        let mut cs = ConstraintSet::new("t");
        cs.add_activity("g");
        cs.add_activity("a");
        cs.add_activity("b");
        cs.add_service("Svc");
        cs.add_domain("g", vec!["T".into(), "F".into()]);
        cs.push(Relation::before_if(
            StateRef::finish("a"),
            StateRef::start("Svc"),
            Condition::new("g", "T"),
            Origin::Service,
        ));
        cs.push(Relation::before(
            StateRef::start("Svc"),
            StateRef::start("b"),
            Origin::Service,
        ));
        let (asc, report) = translate_services(&cs);
        assert_eq!(report.bridges.len(), 1);
        assert_eq!(report.bridges[0].to_string(), "F(a) ->[g=T] S(b)");
        assert!(asc.validate().is_empty());
    }

    #[test]
    fn duplicate_bridges_not_added_twice() {
        // Two parallel chains a → Svc1 → b and a → Svc2 → b produce one
        // bridge.
        let mut cs = ConstraintSet::new("t");
        cs.add_activity("a");
        cs.add_activity("b");
        cs.add_service("Svc1");
        cs.add_service("Svc2");
        for s in ["Svc1", "Svc2"] {
            cs.push(Relation::before(
                StateRef::finish("a"),
                StateRef::start(s),
                Origin::Service,
            ));
            cs.push(Relation::before(
                StateRef::start(s),
                StateRef::start("b"),
                Origin::Service,
            ));
        }
        let (asc, report) = translate_services(&cs);
        assert_eq!(report.bridges.len(), 1);
        assert_eq!(asc.constraint_count(), 1);
    }

    #[test]
    fn bridge_matching_existing_relation_skipped() {
        let mut cs = ConstraintSet::new("t");
        cs.add_activity("a");
        cs.add_activity("b");
        cs.add_service("Svc");
        cs.push(Relation::before(
            StateRef::finish("a"),
            StateRef::start("b"),
            Origin::Data,
        ));
        cs.push(Relation::before(
            StateRef::finish("a"),
            StateRef::start("Svc"),
            Origin::Service,
        ));
        cs.push(Relation::before(
            StateRef::start("Svc"),
            StateRef::start("b"),
            Origin::Service,
        ));
        let (asc, report) = translate_services(&cs);
        assert!(report.bridges.is_empty(), "identical data dep already present");
        assert_eq!(asc.constraint_count(), 1);
    }

    #[test]
    fn internal_only_relations_untouched() {
        let mut cs = ConstraintSet::new("t");
        cs.add_activity("a");
        cs.add_activity("b");
        cs.push(Relation::before(
            StateRef::finish("a"),
            StateRef::start("b"),
            Origin::Cooperation,
        ));
        let (asc, report) = translate_services(&cs);
        assert_eq!(asc.constraint_count(), 1);
        assert_eq!(report.dropped, 0);
        assert_eq!(asc.relations[0].origin(), Origin::Cooperation);
    }
}
