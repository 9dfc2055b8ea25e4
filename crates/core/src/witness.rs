//! Removal witnesses: for every constraint the optimizer removed, a
//! concrete justification — the surviving path that covers it, with the
//! branch conditions along the way.
//!
//! This is the maintainability story of §1/§2 made operational: where
//! sequencing constructs "obfuscate the sources of dependencies", the
//! dependency pipeline can answer *why is this ordering still guaranteed?*
//! for every edge it dropped.

use crate::exec::ExecConditions;
use dscweaver_dscl::sync_graph::SyncGraph;
use dscweaver_dscl::{Condition, ConstraintSet, Relation};
use dscweaver_graph::shortest_path;

/// Why one removed constraint is still guaranteed.
#[derive(Clone, Debug)]
pub struct RemovalWitness {
    /// The removed relation.
    pub relation: Relation,
    /// Node labels of one surviving path realizing the ordering (state
    /// granularity, lifecycle steps included).
    pub path: Vec<String>,
    /// Branch conditions encountered along that path.
    pub conditions: Vec<Condition>,
    /// The target's execution condition, when it is what licenses a
    /// conditional path covering an unconditional constraint.
    pub target_exec: Option<String>,
    /// True when no single path covers the constraint — coverage is split
    /// across branch values (branch completeness); `path` then shows one
    /// representative branch.
    pub branch_split: bool,
}

impl std::fmt::Display for RemovalWitness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}  ⇒ covered via {}", self.relation, self.path.join(" -> "))?;
        if !self.conditions.is_empty() {
            let cs: Vec<String> = self.conditions.iter().map(|c| c.to_string()).collect();
            write!(f, "  [under {}]", cs.join(" ∧ "))?;
        }
        if let Some(e) = &self.target_exec {
            write!(f, "  (target executes only when {e})")?;
        }
        if self.branch_split {
            write!(f, "  (one branch shown; every branch value has its own path)")?;
        }
        Ok(())
    }
}

/// Builds a witness for each removed relation against the surviving
/// (minimal) constraint set.
pub fn explain_removals(
    minimal: &ConstraintSet,
    removed: &[Relation],
    exec: &ExecConditions,
) -> Vec<RemovalWitness> {
    let sg = SyncGraph::build(minimal);
    removed
        .iter()
        .filter_map(|r| {
            let Relation::HappenBefore { from, to, .. } = r else {
                return None;
            };
            let (s, t) = (sg.resolve(from)?, sg.resolve(to)?);
            let path = shortest_path(&sg.graph, s, t)?;
            // Collect edge conditions along the path.
            let mut conditions = Vec::new();
            for w in path.windows(2) {
                if let Some(e) = sg.graph.find_edge(w[0], w[1]) {
                    if let Some(c) = &sg.graph.edge_weight(e).cond {
                        conditions.push(c.clone());
                    }
                }
            }
            let labels: Vec<String> =
                path.iter().map(|&n| sg.graph.weight(n).label()).collect();
            let target_dnf = exec.of(&to.activity);
            let target_exec = (!target_dnf.is_always() && !conditions.is_empty()).then(|| {
                target_dnf
                    .terms()
                    .iter()
                    .map(|t| {
                        t.iter()
                            .map(|c| c.to_string())
                            .collect::<Vec<_>>()
                            .join(" ∧ ")
                    })
                    .collect::<Vec<_>>()
                    .join(" ∨ ")
            });
            // Branch split: the path is conditional but the target runs
            // unconditionally — the other branch values must have their
            // own covering paths (that is what the optimizer proved).
            let branch_split =
                !conditions.is_empty() && exec.is_unconditional(&to.activity);
            Some(RemovalWitness {
                relation: r.clone(),
                path: labels,
                conditions,
                target_exec,
                branch_split,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dependency::{Dependency, DependencySet};
    use crate::pipeline::Weaver;

    fn purchasing_like() -> DependencySet {
        // a → g →[T] x → j, g →[F] y → j, plus redundant a → x (exec-aware)
        // and g → j (branch complete).
        let mut ds = DependencySet::new("w");
        for a in ["a", "g", "x", "y", "j"] {
            ds.add_activity(a);
        }
        ds.add_domain("g", vec!["T".into(), "F".into()]);
        ds.push(Dependency::data("a", "g"));
        ds.push(Dependency::control("g", "x", "T"));
        ds.push(Dependency::control("g", "y", "F"));
        ds.push(Dependency::data("x", "j"));
        ds.push(Dependency::data("y", "j"));
        ds.push(Dependency::data("a", "x")); // exec-aware redundant
        ds.push(Dependency::control_unconditional("g", "j")); // branch complete
        ds
    }

    #[test]
    fn witnesses_for_every_removal() {
        let out = Weaver::new().run(&purchasing_like()).unwrap();
        assert_eq!(out.removed.len(), 2);
        let witnesses = explain_removals(&out.minimal, &out.removed, &out.exec);
        assert_eq!(witnesses.len(), 2);
        for w in &witnesses {
            assert!(w.path.len() >= 2, "{w}");
            let expected = format!("F({})", w.relation.activities()[0]);
            assert_eq!(w.path.first(), Some(&expected));
        }
    }

    #[test]
    fn exec_aware_witness_names_the_execution_condition() {
        let out = Weaver::new().run(&purchasing_like()).unwrap();
        let witnesses = explain_removals(&out.minimal, &out.removed, &out.exec);
        let w = witnesses
            .iter()
            .find(|w| w.relation.to_string() == "F(a) -> S(x)")
            .expect("a → x was removed");
        assert_eq!(w.conditions, vec![Condition::new("g", "T")]);
        assert_eq!(w.target_exec.as_deref(), Some("g=T"));
        assert!(!w.branch_split);
        let text = w.to_string();
        assert!(text.contains("target executes only when g=T"), "{text}");
    }

    #[test]
    fn branch_complete_witness_flags_the_split() {
        let out = Weaver::new().run(&purchasing_like()).unwrap();
        let witnesses = explain_removals(&out.minimal, &out.removed, &out.exec);
        let w = witnesses
            .iter()
            .find(|w| w.relation.to_string() == "F(g) -> S(j)")
            .expect("g → j was removed");
        assert!(w.branch_split, "{w}");
        assert!(!w.conditions.is_empty());
    }

    #[test]
    fn purchasing_removals_all_witnessed() {
        let out = Weaver::new()
            .run(&dscweaver_model_free_purchasing())
            .unwrap();
        let witnesses = explain_removals(&out.minimal, &out.removed, &out.exec);
        // Every removed internal-to-internal constraint gets a witness;
        // original service relations (dropped by translation, not by
        // minimization) are not in `removed` at all.
        assert_eq!(witnesses.len(), out.removed.len());
    }

    /// A local copy of Table 1 (the workloads crate depends on core, so we
    /// cannot import it here).
    fn dscweaver_model_free_purchasing() -> DependencySet {
        let mut ds = DependencySet::new("Purchasing");
        for a in [
            "recClient_po", "invCredit_po", "recCredit_au", "if_au",
            "invPurchase_po", "invPurchase_si", "recPurchase_oi", "invShip_po",
            "recShip_si", "recShip_ss", "invProduction_po", "invProduction_ss",
            "set_oi", "replyClient_oi",
        ] {
            ds.add_activity(a);
        }
        for s in [
            "Credit", "Credit_d", "Purchase_1", "Purchase_2", "Purchase_d",
            "Ship", "Ship_d", "Production_1", "Production_2",
        ] {
            ds.add_service(s);
        }
        ds.add_domain("if_au", vec!["T".into(), "F".into()]);
        for (f, t) in [
            ("recClient_po", "invCredit_po"), ("recCredit_au", "if_au"),
            ("recClient_po", "invPurchase_po"), ("recClient_po", "invShip_po"),
            ("recClient_po", "invProduction_po"), ("recShip_si", "invPurchase_si"),
            ("recShip_ss", "invProduction_ss"), ("set_oi", "replyClient_oi"),
            ("recPurchase_oi", "replyClient_oi"),
        ] {
            ds.push(Dependency::data(f, t));
        }
        for t in [
            "invPurchase_po", "invPurchase_si", "recPurchase_oi", "invShip_po",
            "recShip_si", "recShip_ss", "invProduction_po", "invProduction_ss",
        ] {
            ds.push(Dependency::control("if_au", t, "T"));
        }
        ds.push(Dependency::control("if_au", "set_oi", "F"));
        ds.push(Dependency::control_unconditional("if_au", "replyClient_oi"));
        for f in [
            "recPurchase_oi", "invShip_po", "recShip_si", "recShip_ss",
            "invProduction_po", "invProduction_ss",
        ] {
            ds.push(Dependency::cooperation(f, "replyClient_oi"));
        }
        for (f, t) in [
            ("invCredit_po", "Credit"), ("Credit", "Credit_d"),
            ("Credit_d", "recCredit_au"), ("invPurchase_po", "Purchase_1"),
            ("invPurchase_si", "Purchase_2"), ("Purchase_d", "recPurchase_oi"),
            ("Purchase_1", "Purchase_d"), ("Purchase_2", "Purchase_d"),
            ("Purchase_1", "Purchase_2"), ("invShip_po", "Ship"),
            ("Ship", "Ship_d"), ("Ship_d", "recShip_si"),
            ("Ship_d", "recShip_ss"), ("invProduction_po", "Production_1"),
            ("invProduction_ss", "Production_2"),
        ] {
            ds.push(Dependency::service(f, t));
        }
        ds
    }
}
