//! The paper's running example: the **Purchasing process** (§2, Figure 1),
//! borrowed from the BPEL 1.0 specification and extended with a conditional
//! branch.
//!
//! This module provides both forms the paper works with:
//!
//! * [`purchasing_process`] — the sequencing-construct implementation
//!   (Figure 2), used as the imperative baseline and as input to PDG
//!   extraction;
//! * [`purchasing_dependencies`] — the explicit four-dimension dependency
//!   set, transcribed from Table 1 (9 data + 10 control + 6 cooperation +
//!   15 service = 40 dependencies).

use dscweaver_core::{Dependency, DependencySet};
use dscweaver_model::{parse_process, Process};
use dscweaver_wscl::{derive_service_dependencies, Conversation, ServiceBinding};

/// The 14 internal activities in Figure-1 order.
pub const ACTIVITIES: [&str; 14] = [
    "recClient_po",
    "invCredit_po",
    "recCredit_au",
    "if_au",
    "invPurchase_po",
    "invPurchase_si",
    "recPurchase_oi",
    "invShip_po",
    "recShip_si",
    "recShip_ss",
    "invProduction_po",
    "invProduction_ss",
    "set_oi",
    "replyClient_oi",
];

/// The 9 external service nodes in §3.3 naming (per-port, `_d` = the dummy
/// callback port of an asynchronous service).
pub const SERVICE_NODES: [&str; 9] = [
    "Credit",
    "Credit_d",
    "Purchase_1",
    "Purchase_2",
    "Purchase_d",
    "Ship",
    "Ship_d",
    "Production_1",
    "Production_2",
];

/// The Figure-2 sequencing-construct implementation, in the model DSL.
pub const PURCHASING_DSL: &str = r#"
process Purchasing {
  var po, au, si, ss, oi;
  service Credit     { ports 1 async }
  service Purchase   { ports 2 async }
  service Ship       { ports 1 async }
  service Production { ports 2 async }

  sequence {
    receive recClient_po from Client writes po;
    invoke invCredit_po on Credit port 1 reads po;
    receive recCredit_au from Credit writes au;
    switch if_au reads au {
      case T {
        flow {
          sequence {
            invoke invPurchase_po on Purchase port 1 reads po;
            invoke invPurchase_si on Purchase port 2 reads si;
            receive recPurchase_oi from Purchase writes oi;
          }
          sequence {
            invoke invShip_po on Ship port 1 reads po;
            receive recShip_si from Ship writes si;
            receive recShip_ss from Ship writes ss;
          }
          sequence {
            invoke invProduction_po on Production port 1 reads po;
            invoke invProduction_ss on Production port 2 reads ss;
          }
          link l_si from recShip_si to invPurchase_si;
          link l_ss from recShip_ss to invProduction_ss;
        }
      }
      case F {
        assign set_oi writes oi;
      }
    }
    reply replyClient_oi to Client reads oi;
  }
}
"#;

/// Parses the Figure-2 implementation.
pub fn purchasing_process() -> Process {
    let p = parse_process(PURCHASING_DSL).expect("built-in process must parse");
    debug_assert!(p.validate().is_empty(), "{:?}", p.validate());
    p
}

/// Builds Table 1 exactly: the full four-dimension dependency set of the
/// Purchasing process.
pub fn purchasing_dependencies() -> DependencySet {
    let mut ds = DependencySet::new("Purchasing");
    for a in ACTIVITIES {
        ds.add_activity(a);
    }
    for s in SERVICE_NODES {
        ds.add_service(s);
    }
    ds.add_domain("if_au", vec!["T".into(), "F".into()]);

    // Data dependencies (9).
    for (f, t) in [
        ("recClient_po", "invCredit_po"),
        ("recCredit_au", "if_au"),
        ("recClient_po", "invPurchase_po"),
        ("recClient_po", "invShip_po"),
        ("recClient_po", "invProduction_po"),
        ("recShip_si", "invPurchase_si"),
        ("recShip_ss", "invProduction_ss"),
        ("set_oi", "replyClient_oi"),
        ("recPurchase_oi", "replyClient_oi"),
    ] {
        ds.push(Dependency::data(f, t));
    }

    // Control dependencies (10): 8 on the T branch, 1 on the F branch, and
    // the unconditional if_au → replyClient_oi entry of Table 1.
    for t in [
        "invPurchase_po",
        "invPurchase_si",
        "recPurchase_oi",
        "invShip_po",
        "recShip_si",
        "recShip_ss",
        "invProduction_po",
        "invProduction_ss",
    ] {
        ds.push(Dependency::control("if_au", t, "T"));
    }
    ds.push(Dependency::control("if_au", "set_oi", "F"));
    ds.push(Dependency::control_unconditional("if_au", "replyClient_oi"));

    // Cooperation dependencies (6): the invoice goes back to the client
    // only after ShipSubprocess and ProductionSubprocess finish.
    for f in [
        "recPurchase_oi",
        "invShip_po",
        "recShip_si",
        "recShip_ss",
        "invProduction_po",
        "invProduction_ss",
    ] {
        ds.push(Dependency::cooperation(f, "replyClient_oi"));
    }

    // Service dependencies (15).
    for (f, t) in [
        ("invCredit_po", "Credit"),
        ("Credit", "Credit_d"),
        ("Credit_d", "recCredit_au"),
        ("invPurchase_po", "Purchase_1"),
        ("invPurchase_si", "Purchase_2"),
        ("Purchase_d", "recPurchase_oi"),
        ("Purchase_1", "Purchase_d"),
        ("Purchase_2", "Purchase_d"),
        ("Purchase_1", "Purchase_2"),
        ("invShip_po", "Ship"),
        ("Ship", "Ship_d"),
        ("Ship_d", "recShip_si"),
        ("Ship_d", "recShip_ss"),
        ("invProduction_po", "Production_1"),
        ("invProduction_ss", "Production_2"),
    ] {
        ds.push(Dependency::service(f, t));
    }

    ds
}

/// The four WSCL conversations of the Purchasing process's partner
/// services, with their activity bindings. Together with PDG extraction
/// over [`purchasing_process`] and the analyst-supplied cooperation
/// dependencies, these regenerate Table 1 from first principles (see
/// [`purchasing_dependencies_extracted`]).
pub fn purchasing_conversations() -> Vec<(Conversation, ServiceBinding)> {
    vec![
        (
            Conversation::new("Credit")
                .receive("auth", "AuthRequest")
                .send("result", "AuthResult")
                .transition("auth", "result"),
            ServiceBinding::new()
                .invoke("auth", "invCredit_po")
                .receive("result", "recCredit_au"),
        ),
        (
            // The state-aware service of §2: "It requires a sequential
            // invocation at its two ports so that it does not receive a
            // shipping invoice without receiving the corresponding purchase
            // order information."
            Conversation::new("Purchase")
                .receive("port1", "PurchaseOrder")
                .receive("port2", "ShippingInvoice")
                .send("callback", "OrderInvoice")
                .transition("port1", "port2")
                .transition("port1", "callback")
                .transition("port2", "callback"),
            ServiceBinding::new()
                .invoke("port1", "invPurchase_po")
                .invoke("port2", "invPurchase_si")
                .receive("callback", "recPurchase_oi"),
        ),
        (
            Conversation::new("Ship")
                .receive("port", "PurchaseOrder")
                .send("si", "ShippingInvoice")
                .send("ss", "ShippingSchedule")
                .transition("port", "si")
                .transition("port", "ss"),
            ServiceBinding::new()
                .invoke("port", "invShip_po")
                .receive("si", "recShip_si")
                .receive("ss", "recShip_ss"),
        ),
        (
            Conversation::new("Production")
                .receive("port1", "PurchaseOrder")
                .receive("port2", "ShippingSchedule"),
            ServiceBinding::new()
                .invoke("port1", "invProduction_po")
                .invoke("port2", "invProduction_ss"),
        ),
    ]
}

/// The analyst-supplied cooperation dependencies (§3.3: "the invoice
/// should be sent back to the client after both ShipSubprocess and
/// ProductionSubprocess finish").
pub fn purchasing_cooperation() -> Vec<Dependency> {
    [
        "recPurchase_oi",
        "invShip_po",
        "recShip_si",
        "recShip_ss",
        "invProduction_po",
        "invProduction_ss",
    ]
    .iter()
    .map(|f| Dependency::cooperation(f, "replyClient_oi"))
    .collect()
}

/// Regenerates the Purchasing dependency set *from first principles*:
/// data + control via PDG extraction over the Figure-2 implementation,
/// service via the WSCL conversations, cooperation from the analyst list.
///
/// The result matches [`purchasing_dependencies`] (Table 1) except for one
/// entry: Table 1's unconditional `if_au → replyClient_oi`, which is not a
/// true control dependency (`replyClient_oi` post-dominates the branch —
/// the paper's own §3.1 makes this point about Figure 4's `a7`) and is
/// therefore not extracted.
pub fn purchasing_dependencies_extracted() -> DependencySet {
    let process = purchasing_process();
    let mut ds = dscweaver_pdg::extract(
        &process,
        dscweaver_pdg::ExtractOptions {
            data: true,
            control: true,
            services_from_decls: false,
        },
    );
    for (conv, binding) in purchasing_conversations() {
        let (deps, nodes) =
            derive_service_dependencies(&conv, &binding).expect("built-in WSCL must be valid");
        for n in nodes {
            ds.add_service(n);
        }
        for d in deps {
            ds.push(d);
        }
    }
    for d in purchasing_cooperation() {
        ds.push(d);
    }
    ds
}

/// The six bridging constraints Figure 8 draws in bold, as
/// `(from, to)` activity pairs.
pub const EXPECTED_BRIDGES: [(&str, &str); 6] = [
    ("invCredit_po", "recCredit_au"),
    ("invPurchase_po", "invPurchase_si"),
    ("invPurchase_po", "recPurchase_oi"),
    ("invPurchase_si", "recPurchase_oi"),
    ("invShip_po", "recShip_si"),
    ("invShip_po", "recShip_ss"),
];

/// The 17 constraints of the paper's Figure 9 (minimal set), as
/// `(from, to, condition-value)` activity triples.
pub const EXPECTED_MINIMAL: [(&str, &str, Option<&str>); 17] = [
    // data (6)
    ("recClient_po", "invCredit_po", None),
    ("recCredit_au", "if_au", None),
    ("recShip_si", "invPurchase_si", None),
    ("recShip_ss", "invProduction_ss", None),
    ("set_oi", "replyClient_oi", None),
    ("recPurchase_oi", "replyClient_oi", None),
    // control (4)
    ("if_au", "invPurchase_po", Some("T")),
    ("if_au", "invShip_po", Some("T")),
    ("if_au", "invProduction_po", Some("T")),
    ("if_au", "set_oi", Some("F")),
    // cooperation (2)
    ("invProduction_po", "replyClient_oi", None),
    ("invProduction_ss", "replyClient_oi", None),
    // translated service (5)
    ("invCredit_po", "recCredit_au", None),
    ("invPurchase_po", "invPurchase_si", None),
    ("invPurchase_si", "recPurchase_oi", None),
    ("invShip_po", "recShip_si", None),
    ("invShip_po", "recShip_ss", None),
];

#[cfg(test)]
mod tests {
    use super::*;
    use dscweaver_core::Weaver;

    #[test]
    fn table1_counts_match_paper() {
        let ds = purchasing_dependencies();
        let counts = ds.counts();
        assert_eq!(counts["data"], 9);
        assert_eq!(counts["control"], 10);
        assert_eq!(counts["cooperative"], 6);
        assert_eq!(counts["service"], 15);
        assert_eq!(ds.deps.len(), 40);
        assert_eq!(ds.activities.len(), 14);
        assert_eq!(ds.services.len(), 9);
    }

    /// The full-circle check: extraction from the Figure-2 implementation
    /// plus WSCL plus the analyst's cooperation list regenerates Table 1
    /// (minus its one non-extractable unconditional control entry).
    #[test]
    fn extraction_regenerates_table1() {
        let extracted = purchasing_dependencies_extracted();
        let canonical = purchasing_dependencies();
        let to_set = |ds: &DependencySet| -> std::collections::BTreeSet<String> {
            ds.deps.iter().map(|d| d.to_string()).collect()
        };
        let ext = to_set(&extracted);
        let canon = to_set(&canonical);
        let missing: Vec<&String> = canon.difference(&ext).collect();
        assert_eq!(
            missing,
            vec!["if_au -> replyClient_oi"],
            "only Table 1's analyst-added unconditional entry is not extracted"
        );
        assert!(ext.is_subset(&canon), "no spurious extractions: {:?}",
            ext.difference(&canon).collect::<Vec<_>>());
        assert_eq!(extracted.services, canonical.services);
        assert_eq!(extracted.domains["if_au"], vec!["F", "T"]);
    }

    #[test]
    fn process_parses_and_validates() {
        let p = purchasing_process();
        assert_eq!(p.activities().len(), 14);
        assert!(p.validate().is_empty());
        assert_eq!(p.root.links().len(), 2);
    }

    #[test]
    fn pipeline_reproduces_figure8_bridges() {
        let out = Weaver::new().run(&purchasing_dependencies()).unwrap();
        let mut bridges: Vec<(String, String)> = out
            .translation
            .bridges
            .iter()
            .map(|r| {
                let acts = r.activities();
                (acts[0].to_string(), acts[1].to_string())
            })
            .collect();
        bridges.sort();
        let mut expected: Vec<(String, String)> = EXPECTED_BRIDGES
            .iter()
            .map(|&(f, t)| (f.to_string(), t.to_string()))
            .collect();
        expected.sort();
        assert_eq!(bridges, expected);
        assert_eq!(
            out.translation.dead_ends,
            vec!["Production_1", "Production_2"],
            "Production ports have no internal offspring (§4.3)"
        );
        // ASC = 9 data + 10 control + 6 coop + 6 bridges = 31.
        assert_eq!(out.asc.constraint_count(), 31);
    }

    #[test]
    fn pipeline_reproduces_table2_and_figure9() {
        let out = Weaver::new().run(&purchasing_dependencies()).unwrap();
        assert_eq!(out.sc.constraint_count(), 40, "Table 1 total");
        assert_eq!(
            out.minimal.constraint_count(),
            17,
            "Figure 9 minimal set:\n{}",
            out.minimal.to_dscl()
        );
        assert_eq!(out.total_removed(), 23, "Table 2's headline number");

        // Exact edge set of Figure 9.
        let mut got: Vec<(String, String, Option<String>)> = out
            .minimal
            .happen_befores()
            .map(|r| match r {
                dscweaver_dscl::Relation::HappenBefore { from, to, cond, .. } => (
                    from.activity.to_string(),
                    to.activity.to_string(),
                    cond.as_ref().map(|c| c.value.to_string()),
                ),
                _ => unreachable!(),
            })
            .collect();
        got.sort();
        let mut expected: Vec<(String, String, Option<String>)> = EXPECTED_MINIMAL
            .iter()
            .map(|&(f, t, c)| (f.to_string(), t.to_string(), c.map(String::from)))
            .collect();
        expected.sort();
        assert_eq!(got, expected);
    }
}
