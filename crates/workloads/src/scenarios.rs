//! Additional realistic scenarios beyond the paper's two running
//! examples, exercising the features the Purchasing process does not:
//! multi-valued branch domains, `Exclusive` runtime constraints (§4.2's
//! transactional cooperation), fine-granularity `HappenTogether` sugar,
//! and deeper service meshes.

use dscweaver_core::{Dependency, DependencySet};
use dscweaver_dscl::{Origin, Relation, StateRef};
use dscweaver_model::{parse_process, Process};

/// A loan-origination process with a **three-valued** decision:
/// `approve` / `review` / `reject`. Exercises multi-valued guard domains —
/// branch-completeness reasoning must require all *three* paths before
/// removing an unconditional constraint.
pub const LOAN_DSL: &str = r#"
process LoanOrigination {
  var app, score, decision, terms, letter;
  service Bureau   { ports 1 async }
  service Pricing  { ports 1 async }
  service Archive  { ports 1 async }

  sequence {
    receive recApp from Client writes app;
    invoke invBureau on Bureau port 1 reads app;
    receive recScore from Bureau writes score;
    switch if_decision reads score {
      case APPROVE {
        sequence {
          invoke invPricing on Pricing port 1 reads app;
          receive recTerms from Pricing writes terms;
          assign draftOffer reads terms writes letter;
        }
      }
      case REVIEW {
        assign queueManual reads app writes letter;
      }
      case REJECT {
        assign draftRejection writes letter;
      }
    }
    flow {
      reply replyClient to Client reads letter;
      invoke invArchive on Archive port 1 reads letter;
    }
  }
}
"#;

/// Parses the loan process.
pub fn loan_process() -> Process {
    let p = parse_process(LOAN_DSL).expect("built-in process must parse");
    debug_assert!(p.validate().is_empty(), "{:?}", p.validate());
    p
}

/// The loan process's full dependency set (extracted + one cooperation
/// rule: archive only after the reply went out, for audit ordering).
pub fn loan_dependencies() -> DependencySet {
    let mut ds = dscweaver_pdg::extract(&loan_process(), dscweaver_pdg::ExtractOptions::default());
    ds.push(Dependency::cooperation("replyClient", "invArchive"));
    ds
}

/// A quote-aggregation process **written naively as a sequence** — the
/// §1 pathology in its purest form: the three quote requests exchange no
/// data and carry no business ordering, yet the imperative implementation
/// serializes them. The dependency approach discovers the parallelism by
/// itself; the Ext-D bench measures the resulting makespan gap (~3× at
/// high service latency).
pub const QUOTES_DSL: &str = r#"
process QuoteAggregation {
  var req, qa, qb, qc, best;
  service CarrierA { ports 1 async }
  service CarrierB { ports 1 async }
  service CarrierC { ports 1 async }

  sequence {
    receive recReq from Client writes req;
    invoke invA on CarrierA port 1 reads req;
    receive recA from CarrierA writes qa;
    invoke invB on CarrierB port 1 reads req;
    receive recB from CarrierB writes qb;
    invoke invC on CarrierC port 1 reads req;
    receive recC from CarrierC writes qc;
    assign pickBest reads qa, qb, qc writes best;
    reply replyQuote to Client reads best;
  }
}
"#;

/// Parses the quote-aggregation process.
pub fn quotes_process() -> Process {
    let p = parse_process(QUOTES_DSL).expect("built-in process must parse");
    debug_assert!(p.validate().is_empty(), "{:?}", p.validate());
    p
}

/// The quote process's dependency set (pure extraction — there are no
/// cooperation constraints; that is the point).
pub fn quotes_dependencies() -> DependencySet {
    dscweaver_pdg::extract(&quotes_process(), dscweaver_pdg::ExtractOptions::default())
}

/// A month-end settlement process where two postings touch the same
/// ledger: they carry an **Exclusive** constraint (§4.2: "two concurrent
/// activities access shared data in a backend database ... must be
/// scheduled in a mutual exclusive way"), plus a HappenTogether pair —
/// the statements to the two counterparties must go out together.
pub fn settlement_constraints() -> dscweaver_dscl::ConstraintSet {
    let mut cs = dscweaver_dscl::ConstraintSet::new("Settlement");
    for a in [
        "recTrigger",
        "postFees",
        "postInterest",
        "reconcile",
        "stmtA",
        "stmtB",
        "close",
    ] {
        cs.add_activity(a);
    }
    let before = |f: &str, t: &str| {
        Relation::before(StateRef::finish(f), StateRef::start(t), Origin::Data)
    };
    cs.push(before("recTrigger", "postFees"));
    cs.push(before("recTrigger", "postInterest"));
    cs.push(before("postFees", "reconcile"));
    cs.push(before("postInterest", "reconcile"));
    cs.push(before("reconcile", "stmtA"));
    cs.push(before("reconcile", "stmtB"));
    cs.push(before("stmtA", "close"));
    cs.push(before("stmtB", "close"));
    // Shared-ledger postings must not run concurrently.
    cs.push(Relation::Exclusive {
        a: StateRef::run("postFees"),
        b: StateRef::run("postInterest"),
        origin: Origin::Cooperation,
    });
    // Statements go out together.
    cs.push(Relation::HappenTogether {
        a: StateRef::start("stmtA"),
        b: StateRef::start("stmtB"),
        cond: None,
        origin: Origin::Cooperation,
    });
    cs
}

#[cfg(test)]
mod tests {
    use super::*;
    use dscweaver_core::{EquivalenceMode, ExecConditions, Weaver};
    use dscweaver_scheduler::{simulate, SimConfig};

    #[test]
    fn loan_three_valued_domain_extracted() {
        let ds = loan_dependencies();
        assert_eq!(
            ds.domains["if_decision"],
            vec!["APPROVE", "REJECT", "REVIEW"]
        );
        // Three control regions.
        let controls = ds.of_dimension("control");
        assert!(controls.len() >= 5, "{controls:?}");
    }

    #[test]
    fn loan_pipeline_and_execution_all_branches() {
        let ds = loan_dependencies();
        let out = Weaver::new().run(&ds).unwrap();
        assert!(out.minimal.validate().is_empty());
        // Petri validation enumerates all three branch values.
        let report = dscweaver_petri::validate(
            &out.minimal,
            &out.exec,
            &dscweaver_petri::ValidateOptions::default(),
        );
        assert!(report.ok(), "{report:#?}");
        assert_eq!(report.assignments_checked, 3);
        for branch in ["APPROVE", "REVIEW", "REJECT"] {
            let mut sim = SimConfig::default();
            sim.oracle.insert("if_decision".into(), branch.into());
            let s = simulate(&out.minimal, &out.exec, &sim);
            assert!(s.completed(), "{branch}: {:?}", s.stuck);
            assert!(s.trace.verify(&out.asc).is_empty(), "{branch}");
            assert!(s.trace.executed("replyClient"));
            assert_eq!(s.trace.executed("invPricing"), branch == "APPROVE");
        }
    }

    #[test]
    fn three_valued_branch_completeness() {
        // An unconditional edge if_decision → replyClient would only be
        // removable because all THREE case paths reach the reply.
        let mut ds = loan_dependencies();
        ds.push(Dependency::control_unconditional("if_decision", "replyClient"));
        let out = Weaver::new().run(&ds).unwrap();
        let kept = out
            .minimal
            .happen_befores()
            .any(|r| r.to_string() == "F(if_decision) -> S(replyClient)");
        assert!(!kept, "covered by APPROVE+REVIEW+REJECT paths");
        // With a fourth value declared in the domain, it must be kept.
        let mut ds4 = loan_dependencies();
        ds4.domains
            .get_mut("if_decision")
            .unwrap()
            .push("ESCALATE".into());
        ds4.push(Dependency::control_unconditional("if_decision", "replyClient"));
        let out4 = Weaver::new().run(&ds4).unwrap();
        let kept4 = out4
            .minimal
            .happen_befores()
            .any(|r| r.to_string() == "F(if_decision) -> S(replyClient)");
        assert!(kept4, "a fourth branch value may occur");
    }

    #[test]
    fn quotes_parallelize_under_dependencies() {
        let ds = quotes_dependencies();
        // No ordering among the three invoke/receive pairs.
        let out = Weaver::new().run(&ds).unwrap();
        let mut sim = SimConfig::default();
        for r in ["recA", "recB", "recC"] {
            sim.durations.set(r, 50);
        }
        let opt = simulate(&out.minimal, &out.exec, &sim);
        assert!(opt.completed());
        let (_, base) = {
            let cs = dscweaver_scheduler::structural_constraints(&quotes_process()).unwrap();
            let exec = ExecConditions::derive(&cs);
            (cs.clone(), simulate(&cs, &exec, &sim))
        };
        assert!(
            opt.trace.makespan() * 2 < base.trace.makespan(),
            "optimized {} vs sequential {}",
            opt.trace.makespan(),
            base.trace.makespan()
        );
        assert_eq!(opt.trace.max_concurrency(), 3);
        assert_eq!(base.trace.max_concurrency(), 1);
        assert!(opt.trace.verify(&out.asc).is_empty());
    }

    #[test]
    fn settlement_exclusive_and_barrier() {
        let mut cs = settlement_constraints();
        cs.desugar_happen_together();
        assert!(cs.validate().is_empty(), "{:?}", cs.validate());
        let exec = ExecConditions::derive(&cs);
        let res = dscweaver_core::minimize(
            &cs,
            &exec,
            EquivalenceMode::ExecutionAware,
            &dscweaver_core::EdgeOrder::default(),
        )
        .unwrap();
        let mut sim = SimConfig::default();
        sim.durations.set("postFees", 5);
        sim.durations.set("postInterest", 5);
        let s = simulate(&res.minimal, &exec, &sim);
        assert!(s.completed(), "{:?}", s.stuck);
        // Exclusive serialization observed.
        assert!(s.trace.verify_exclusives(&cs).is_empty());
        let fees = s.trace.occurrence(&StateRef::start("postFees")).unwrap().0;
        let interest = s
            .trace
            .occurrence(&StateRef::start("postInterest"))
            .unwrap()
            .0;
        assert_ne!(fees, interest, "ledger postings serialized");
        // Barrier: the statements start together.
        let a = s.trace.occurrence(&StateRef::start("stmtA")).unwrap().0;
        let b = s.trace.occurrence(&StateRef::start("stmtB")).unwrap().0;
        assert_eq!(a, b, "HappenTogether barrier");
        // And the full original constraints hold.
        assert!(s.trace.verify(&cs).is_empty());
    }
}
