//! End-to-end integration tests on the paper's running example: the full
//! DSCWeaver vertical over the Purchasing process, checked against every
//! number the paper reports.

use dscweaver::core::{EdgeOrder, EquivalenceMode, Weaver};
use dscweaver::petri::{validate, ValidateOptions};
use dscweaver::scheduler::{DurationModel, SimConfig};
use dscweaver::vertical::{baseline_schedule, weave, weave_dependencies, VerticalInput};
use dscweaver::workloads::purchasing::{EXPECTED_MINIMAL, PURCHASING_DSL};
use dscweaver::workloads::{
    purchasing_conversations, purchasing_cooperation, purchasing_dependencies,
    purchasing_process,
};
use std::collections::BTreeMap;

/// Realistic-ish virtual durations: local steps fast, service callbacks
/// slow (the receive waits out the remote latency).
fn purchasing_sim(branch: &str) -> SimConfig {
    let mut durations: BTreeMap<String, u64> = BTreeMap::new();
    for (a, d) in [
        ("recClient_po", 1),
        ("invCredit_po", 2),
        ("recCredit_au", 40), // Credit service latency
        ("if_au", 1),
        ("invPurchase_po", 2),
        ("invPurchase_si", 2),
        ("recPurchase_oi", 60), // Purchase service latency
        ("invShip_po", 2),
        ("recShip_si", 50), // Ship service latency
        ("recShip_ss", 20),
        ("invProduction_po", 2),
        ("invProduction_ss", 2),
        ("set_oi", 1),
        ("replyClient_oi", 2),
    ] {
        durations.insert(a.into(), d);
    }
    let mut cfg = SimConfig {
        durations: DurationModel::with_overrides(1, durations),
        oracle: BTreeMap::new(),
        workers: None,
        threads: 0,
    };
    cfg.oracle.insert("if_au".into(), branch.into());
    cfg
}

#[test]
fn vertical_from_first_principles() {
    // Extraction path: process + WSCL + cooperation, then the full
    // vertical. (The extracted set lacks Table 1's analyst-added
    // unconditional control entry, so the minimal set here is the same 17
    // minus nothing — that entry is removed by optimization anyway.)
    let process = purchasing_process();
    let conversations = purchasing_conversations();
    let cooperation = purchasing_cooperation();
    let out = weave(&VerticalInput {
        process: &process,
        conversations: &conversations,
        cooperation: &cooperation,
        weaver: Weaver::new(),
        sim: purchasing_sim("T"),
    })
    .unwrap();
    assert!(out.ok(), "{}", out.report());
    assert_eq!(out.weaver.sc.constraint_count(), 39, "Table 1 minus 1");
    assert_eq!(out.weaver.minimal.constraint_count(), 17, "Figure 9");
    assert!(out.validation.ok());
    assert!(out.schedule.completed());
    assert!(out.violations.is_empty());
    assert!(out.bpel.contains("<link name=\"l0\"/>"));
}

#[test]
fn canonical_table1_vertical_both_branches() {
    let process = purchasing_process();
    let ds = purchasing_dependencies();
    for branch in ["T", "F"] {
        let out = weave_dependencies(&process, &ds, &Weaver::new(), &purchasing_sim(branch))
            .unwrap();
        assert!(out.ok(), "branch {branch}: {}", out.report());
        assert_eq!(out.weaver.total_removed(), 23, "Table 2");
        if branch == "F" {
            // Dead path: the whole T-side is skipped, the invoice is the
            // failure notice.
            assert!(out.schedule.trace.skipped("invPurchase_po"));
            assert!(out.schedule.trace.skipped("recShip_ss"));
            assert!(out.schedule.trace.executed("set_oi"));
        } else {
            assert!(out.schedule.trace.skipped("set_oi"));
            assert!(out.schedule.trace.executed("recPurchase_oi"));
        }
        assert!(out.schedule.trace.executed("replyClient_oi"));
    }
}

#[test]
fn optimized_schedule_beats_figure2_baseline() {
    // The paper's over-specification claim, §2: the sequencing between
    // invProduction_po and invProduction_ss is required by no dependency.
    // The structural baseline serializes each flow branch; the optimized
    // dataflow schedule lets invProduction_ss wait only on recShip_ss.
    let process = purchasing_process();
    let sim = purchasing_sim("T");
    let (baseline_cs, baseline) = baseline_schedule(&process, &sim).unwrap();
    assert!(baseline.completed(), "stuck: {:?}", baseline.stuck);

    let ds = purchasing_dependencies();
    let out = weave_dependencies(&process, &ds, &Weaver::new(), &sim).unwrap();
    assert!(out.ok());

    let opt = &out.schedule.trace;
    let base = &baseline.trace;
    assert!(
        opt.makespan() <= base.makespan(),
        "optimized {} vs baseline {}",
        opt.makespan(),
        base.makespan()
    );
    assert!(
        opt.max_concurrency() >= base.max_concurrency(),
        "optimized {} vs baseline {}",
        opt.max_concurrency(),
        base.max_concurrency()
    );
    // Both traces satisfy the full dependency constraints.
    assert!(base.verify(&out.weaver.asc).is_empty(),
        "the baseline over-specifies but must not violate the dependencies");
    // The baseline carries strictly more constraints than the minimal set.
    assert!(baseline_cs.constraint_count() > out.weaver.minimal.constraint_count());
    // And strictly more monitoring work.
    assert!(baseline.constraint_checks > out.schedule.constraint_checks);
}

#[test]
fn minimal_set_monitoring_cost_vs_unoptimized() {
    // Running the SAME dataflow engine with the full (pre-minimization)
    // ASC vs the minimal set: identical makespan, fewer checks.
    let ds = purchasing_dependencies();
    let out = Weaver::new().run(&ds).unwrap();
    let sim = purchasing_sim("T");
    let full = dscweaver::scheduler::simulate(&out.asc, &out.exec, &sim);
    let minimal = dscweaver::scheduler::simulate(&out.minimal, &out.exec, &sim);
    assert!(full.completed() && minimal.completed());
    assert_eq!(full.trace.makespan(), minimal.trace.makespan());
    assert!(
        minimal.constraint_checks < full.constraint_checks,
        "minimal {} vs full {}",
        minimal.constraint_checks,
        full.constraint_checks
    );
    // Both traces satisfy the full ASC.
    assert!(minimal.trace.verify(&out.asc).is_empty());
    assert!(full.trace.verify(&out.asc).is_empty());
}

#[test]
fn petri_validation_of_all_stages() {
    let ds = purchasing_dependencies();
    let out = Weaver::new().run(&ds).unwrap();
    for (name, cs) in [("ASC", &*out.asc), ("minimal", &out.minimal)] {
        let report = validate(cs, &out.exec, &ValidateOptions::default());
        assert!(report.ok(), "{name}: {report:#?}");
        assert_eq!(report.assignments_checked, 2, "{name}: T and F");
    }
}

#[test]
fn seeded_conflict_is_caught_by_validation() {
    // Add a contradictory cooperation dependency: reply before receiving
    // the order. The optimizer reports the cycle.
    let mut ds = purchasing_dependencies();
    ds.push(dscweaver::core::Dependency::cooperation(
        "replyClient_oi",
        "recClient_po",
    ));
    let err = Weaver::new().run(&ds).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("cycle"), "{msg}");
    assert!(msg.contains("replyClient_oi"), "{msg}");
}

#[test]
fn bpel_round_trip_carries_minimal_scheme() {
    let process = purchasing_process();
    let ds = purchasing_dependencies();
    let out = Weaver::new().run(&ds).unwrap();
    let xml = dscweaver::bpel::emit_string(&process, &out.minimal);
    let back = dscweaver::bpel::parse_bpel(&xml).unwrap();
    assert_eq!(back.activities, out.minimal.activities);
    let strip = |cs: &dscweaver::dscl::ConstraintSet| -> Vec<String> {
        let mut v: Vec<String> = cs.happen_befores().map(|r| r.to_string()).collect();
        v.sort();
        v
    };
    assert_eq!(strip(&back), strip(&out.minimal));
}

#[test]
fn figure9_minimal_edges_are_stable_across_orders() {
    // The minimal set is not unique in general, but its SIZE is stable
    // across removal orders on this process, and the default order
    // reproduces Figure 9 exactly.
    let ds = purchasing_dependencies();
    for order in [EdgeOrder::Given, EdgeOrder::ReverseGiven, EdgeOrder::default()] {
        let weaver = Weaver {
            mode: EquivalenceMode::ExecutionAware,
            order,
            ..Weaver::default()
        };
        let out = weaver.run(&ds).unwrap();
        assert_eq!(out.minimal.constraint_count(), 17, "order changed the size");
    }
}

#[test]
fn strict_mode_keeps_the_three_guard_protected_edges() {
    // Under the literal (annotation-exact) reading of Definition 3, the
    // three recClient_po data edges into the branch and the unconditional
    // if_au → replyClient_oi entry survive: 17 + 3 + 1 = 21... measured:
    let ds = purchasing_dependencies();
    let strict = Weaver {
        mode: EquivalenceMode::Strict,
        ..Weaver::default()
    }
    .run(&ds)
    .unwrap();
    let aware = Weaver::new().run(&ds).unwrap();
    assert!(strict.minimal.constraint_count() > aware.minimal.constraint_count());
    assert_eq!(strict.minimal.constraint_count(), 21);
}

#[test]
fn structure_recovery_on_minimal_set() {
    // The Purchasing minimal set has cross-branch links and conditional
    // edges: not fully series-parallel, but recovery must preserve all 14
    // activities and express the remainder as links.
    let ds = purchasing_dependencies();
    let out = Weaver::new().run(&ds).unwrap();
    let process = purchasing_process();
    let rec = dscweaver::bpel::recover_structure(&out.minimal, Some(&process));
    let mut names: Vec<String> = rec
        .root
        .activities()
        .iter()
        .map(|a| a.name.clone())
        .collect();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), 14, "every activity exactly once");
    assert!(!rec.fully_structured);
    assert!(!rec.links.is_empty());
}

#[test]
fn figure_renderings_cover_all_edges() {
    use dscweaver::dscl::SyncGraph;
    let ds = purchasing_dependencies();
    let out = Weaver::new().run(&ds).unwrap();
    // Figure 7 (merged SC).
    let mut sc = (*out.sc).clone();
    sc.desugar_happen_together();
    let fig7 = SyncGraph::build(&sc).render();
    assert_eq!(fig7.lines().count(), 40);
    assert!(fig7.contains("F(invPurchase_po) -> Purchase_1  (service)"));
    // Figure 8 (ASC with bold/translated edges).
    let fig8 = SyncGraph::build(&out.asc).render();
    assert_eq!(fig8.lines().count(), 31);
    assert!(fig8.contains("F(invPurchase_po) -> S(invPurchase_si)  (translated)"));
    // Figure 9 (minimal).
    let fig9 = SyncGraph::build(&out.minimal).render();
    assert_eq!(fig9.lines().count(), 17);
    for (f, t, _) in EXPECTED_MINIMAL {
        assert!(
            fig9.contains(&format!("({f})")) && fig9.contains(&format!("({t})")),
            "missing {f}->{t}"
        );
    }
    // Figures 1–2 renderings parse back.
    let p = purchasing_process();
    let fig2 = dscweaver::model::render_constructs(&p);
    assert_eq!(dscweaver::model::parse_process(&fig2).unwrap(), p);
    let fig1 = dscweaver::model::render_flowchart(&p);
    assert!(fig1.contains("◇ if_au"));
    let _ = PURCHASING_DSL;
}
