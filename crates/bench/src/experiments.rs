//! The experiment implementations, one function per paper table/figure
//! plus the extended sweeps. Each returns its report as a `String` so the
//! `repro` binary can print and EXPERIMENTS.md can quote them.

use dscweaver_core::{EdgeOrder, EquivalenceMode, Weaver};
use dscweaver_dscl::SyncGraph;
use dscweaver_model::{parse_process, render_constructs, render_flowchart};
use dscweaver_petri::ValidateOptions;
use dscweaver_scheduler::{simulate, structural_constraints, DurationModel, SimConfig};
use dscweaver_workloads::{
    fork_join, layered, purchasing_dependencies, purchasing_process, service_mesh,
    LayeredParams,
};
use std::collections::BTreeMap;
use std::time::Instant;

/// The Figure-3 toy process of §3.1 (a1 branches on `flag`; a7 joins).
pub const FIGURE3_DSL: &str = "process Figure3 { var flag, x, y, z;
  sequence {
    assign a0 writes flag, x;
    switch a1 reads flag {
      case T { sequence { assign a2 reads x writes y; assign a3 reads y writes z; } }
      case F { sequence { assign a4 reads x writes y; assign a5 reads y; assign a6 writes z; } }
    }
    assign a7 reads z;
  }
}";

/// Figure 1: the Purchasing process flowchart.
pub fn fig1() -> String {
    format!(
        "Figure 1. The Purchasing process flowchart\n\n{}",
        render_flowchart(&purchasing_process())
    )
}

/// Figure 2: the sequencing-construct implementation.
pub fn fig2() -> String {
    format!(
        "Figure 2. The Purchasing process implemented in sequencing constructs\n\n{}",
        render_constructs(&purchasing_process())
    )
}

/// Figures 3–4: the toy spec and its extracted data/control dependency
/// graph.
pub fn fig3_4() -> String {
    let p = parse_process(FIGURE3_DSL).expect("built-in");
    let mut out = format!("Figure 3. A process specification\n\n{}", render_constructs(&p));
    out.push_str("\nFigure 4. Data and control dependency graph\n");
    for d in dscweaver_pdg::data_dependencies(&p) {
        out.push_str(&format!("  {d}   (dotted: data)\n"));
    }
    for d in dscweaver_pdg::control_dependencies(&p) {
        out.push_str(&format!("  {d}   (solid: control)\n"));
    }
    out
}

/// Figure 5: the data+control dependency graph of the Purchasing process,
/// extracted from the Figure-2 implementation.
pub fn fig5() -> String {
    let p = purchasing_process();
    let mut out = String::from(
        "Figure 5. Data and control dependency graph for the Purchasing process\n",
    );
    for d in dscweaver_pdg::data_dependencies(&p) {
        out.push_str(&format!("  {d}\n"));
    }
    for d in dscweaver_pdg::control_dependencies(&p) {
        out.push_str(&format!("  {d}\n"));
    }
    out
}

/// Figure 6: the Deployment process.
pub fn fig6() -> String {
    let p = dscweaver_workloads::deployment_process();
    let mut out = format!(
        "Figure 6. Deployment process\n\n{}",
        render_flowchart(&p)
    );
    out.push_str("\ncooperation dependencies (analyst-supplied):\n");
    for d in dscweaver_workloads::deployment::deployment_cooperation() {
        out.push_str(&format!("  {d}\n"));
    }
    out
}

/// Table 1: the full four-dimension dependency listing.
pub fn table1() -> String {
    purchasing_dependencies().render_table1()
}

/// Figure 7: the merged synchronization constraint set SC.
pub fn fig7() -> String {
    let out = Weaver::new().run(&purchasing_dependencies()).expect("sound");
    format!(
        "Figure 7. Synchronization constraints for the Purchasing process ({} edges)\n\n{}\n",
        out.sc.constraint_count(),
        SyncGraph::build(&out.sc).render()
    )
}

/// Figure 8: service dependency translation (ASC; bridges listed first).
pub fn fig8() -> String {
    let out = Weaver::new().run(&purchasing_dependencies()).expect("sound");
    let mut s = format!(
        "Figure 8. Dependency translation on service dependencies ({} edges)\n\nbold (translated) edges:\n",
        out.asc.constraint_count()
    );
    for b in &out.translation.bridges {
        s.push_str(&format!("  {b}\n"));
    }
    s.push_str(&format!(
        "dead-end service chains removed: {:?}\n\nfull ASC:\n{}\n",
        out.translation.dead_ends,
        SyncGraph::build(&out.asc).render()
    ));
    s
}

/// Figure 9: the minimal synchronization constraint set.
pub fn fig9() -> String {
    let out = Weaver::new().run(&purchasing_dependencies()).expect("sound");
    format!(
        "Figure 9. Minimal synchronization constraints ({} edges)\n\n{}\n",
        out.minimal.constraint_count(),
        SyncGraph::build(&out.minimal).render()
    )
}

/// Table 2: constraint counts before/after optimization.
pub fn table2() -> String {
    let out = Weaver::new().run(&purchasing_dependencies()).expect("sound");
    out.render_table2()
}

/// Ext-A: reduction ratio and optimization wall time vs process size.
pub fn ext_a() -> String {
    let mut out = String::from(
        "Ext-A. Minimization scaling (layered processes, redundancy = 50% of edges)\n",
    );
    out.push_str(&format!(
        "{:<10}{:>10}{:>10}{:>10}{:>12}{:>12}\n",
        "acts", "deps", "minimal", "removed", "reduction%", "time_ms"
    ));
    for (width, depth) in [(4, 5), (6, 10), (8, 15), (10, 25), (12, 40)] {
        let ds = layered(&LayeredParams {
            width,
            depth,
            density: 0.25,
            redundant: width * depth / 2,
            guards: 2,
            seed: 7,
        });
        let t0 = Instant::now();
        let res = Weaver::new().run(&ds).expect("sound");
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let before = res.sc.constraint_count();
        let after = res.minimal.constraint_count();
        out.push_str(&format!(
            "{:<10}{:>10}{:>10}{:>10}{:>11.1}%{:>12.1}\n",
            ds.activities.len(),
            before,
            after,
            before - after,
            100.0 * (before - after) as f64 / before as f64,
            ms
        ));
    }
    out
}

/// Ext-B: minimal-set ablation — equivalence modes × removal orders on the
/// Purchasing process and a guarded synthetic workload.
pub fn ext_b() -> String {
    let mut out =
        String::from("Ext-B. Ablation: equivalence mode x removal order (minimal-set size)\n");
    let workloads: Vec<(&str, dscweaver_core::DependencySet)> = vec![
        ("purchasing", purchasing_dependencies()),
        (
            "layered+guards",
            layered(&LayeredParams {
                width: 5,
                depth: 8,
                density: 0.35,
                redundant: 20,
                guards: 3,
                seed: 11,
            }),
        ),
    ];
    out.push_str(&format!(
        "{:<16}{:>14}{:>16}{:>14}{:>12}\n",
        "workload", "mode", "order", "minimal", "time_us"
    ));
    for (name, ds) in &workloads {
        for mode in [
            EquivalenceMode::Strict,
            EquivalenceMode::ExecutionAware,
            EquivalenceMode::Reachability,
        ] {
            for (oname, order) in [
                ("given", EdgeOrder::Given),
                ("reverse", EdgeOrder::ReverseGiven),
                ("coop-first", EdgeOrder::default()),
            ] {
                let weaver = Weaver {
                    mode,
                    order: order.clone(),
                    ..Weaver::default()
                };
                let t0 = Instant::now();
                let res = weaver.run(ds).expect("sound");
                let us = t0.elapsed().as_secs_f64() * 1e6;
                out.push_str(&format!(
                    "{:<16}{:>14}{:>16}{:>14}{:>12.0}\n",
                    name,
                    format!("{mode:?}"),
                    oname,
                    res.minimal.constraint_count(),
                    us
                ));
            }
        }
    }
    out
}

/// Ext-C: Petri-net validation cost and verdicts.
pub fn ext_c() -> String {
    let mut out = String::from("Ext-C. Petri-net validation (per-branch-assignment simulation)\n");
    out.push_str(&format!(
        "{:<22}{:>8}{:>12}{:>10}{:>10}{:>12}\n",
        "workload", "acts", "assignments", "verdict", "failures", "time_ms"
    ));
    let mut cases: Vec<(String, dscweaver_core::DependencySet)> = vec![
        ("purchasing".into(), purchasing_dependencies()),
        ("mesh-20".into(), service_mesh(20, 5)),
    ];
    for guards in [1usize, 4, 8] {
        cases.push((
            format!("layered-g{guards}"),
            layered(&LayeredParams {
                width: 4,
                depth: 6,
                density: 0.3,
                redundant: 8,
                guards,
                seed: 3,
            }),
        ));
    }
    for (name, ds) in &cases {
        let res = Weaver::new().run(ds).expect("sound");
        let t0 = Instant::now();
        let report = dscweaver_petri::validate(&res.minimal, &res.exec, &ValidateOptions::default());
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        out.push_str(&format!(
            "{:<22}{:>8}{:>12}{:>10}{:>10}{:>12.1}\n",
            name,
            ds.activities.len(),
            report.assignments_checked,
            if report.ok() { "OK" } else { "FAIL" },
            report.failures.len(),
            ms
        ));
    }
    // Seeded-conflict verdicts.
    let mut broken = purchasing_dependencies();
    broken.push(dscweaver_core::Dependency::cooperation(
        "replyClient_oi",
        "recClient_po",
    ));
    let verdict = match Weaver::new().run(&broken) {
        Err(e) => format!("rejected: {e}"),
        Ok(_) => "MISSED".into(),
    };
    out.push_str(&format!("\nseeded cycle in purchasing: {verdict}\n"));
    out
}

/// The simulation configuration used throughout Ext-D.
pub fn ext_d_sim(branch: &str) -> SimConfig {
    let mut durations: BTreeMap<String, u64> = BTreeMap::new();
    for (a, d) in [
        ("recCredit_au", 40u64),
        ("recPurchase_oi", 60),
        ("recShip_si", 50),
        ("recShip_ss", 20),
    ] {
        durations.insert(a.into(), d);
    }
    SimConfig {
        durations: DurationModel::with_overrides(2, durations),
        oracle: [("if_au".to_string(), branch.to_string())].into(),
        workers: None,
        threads: 0,
    }
}

/// Ext-D: execution comparison — Figure-2 constructs vs full ASC vs
/// minimal set on the same engine.
pub fn ext_d() -> String {
    let process = purchasing_process();
    let ds = purchasing_dependencies();
    let res = Weaver::new().run(&ds).expect("sound");
    let sim = ext_d_sim("T");

    let mut out = String::from(
        "Ext-D. Execution on the dataflow engine (Purchasing, authorized branch)\n",
    );
    out.push_str(&format!(
        "{:<26}{:>12}{:>10}{:>14}{:>14}\n",
        "scheme", "constraints", "makespan", "concurrency", "checks"
    ));

    let structural = structural_constraints(&process).expect("no loops");
    let exec_structural = dscweaver_core::ExecConditions::derive(&structural);
    let rows: Vec<(&str, &dscweaver_dscl::ConstraintSet, &dscweaver_core::ExecConditions)> = vec![
        ("Figure-2 constructs", &structural, &exec_structural),
        ("full ASC (unoptimized)", &res.asc, &res.exec),
        ("minimal P*", &res.minimal, &res.exec),
    ];
    for (name, cs, exec) in rows {
        let schedule = simulate(cs, exec, &sim);
        assert!(schedule.completed(), "{name} stuck: {:?}", schedule.stuck);
        let violations = schedule.trace.verify(&res.asc);
        assert!(violations.is_empty(), "{name}: {violations:?}");
        out.push_str(&format!(
            "{:<26}{:>12}{:>10}{:>14}{:>14}\n",
            name,
            cs.constraint_count(),
            schedule.trace.makespan(),
            schedule.trace.max_concurrency(),
            schedule.constraint_checks
        ));
    }

    // Potential concurrency: the exact maximum antichain of each
    // activity-level precedence graph — the "opportunities for concurrent
    // execution" the paper claims the minimal set preserves and the
    // constructs baseline narrows. (On the Purchasing process the
    // *measured* makespans coincide because the Purchase-service chain is
    // the critical path either way; the structural difference is in the
    // schedulable width.)
    out.push_str("\nPotential concurrency (max antichain of the T-branch precedence DAG):\n");
    for (name, cs) in [
        ("Figure-2 constructs", &structural),
        ("minimal P*", &res.minimal),
    ] {
        let sg = dscweaver_dscl::SyncGraph::build(cs);
        let (width, _) =
            dscweaver_graph::max_antichain(&sg.graph).expect("constraint DAGs are acyclic");
        out.push_str(&format!("  {name:<26}{width:>4} states-wide\n"));
    }

    // Makespan sweep on the naive quote-aggregation process (three
    // independent service calls written as a sequence): here the
    // over-specification sits squarely on the critical path and the
    // dependency approach recovers the parallelism.
    out.push_str("\nService-latency sweep on QuoteAggregation (makespan):\n");
    out.push_str(&format!(
        "{:<12}{:>14}{:>12}{:>10}\n",
        "latency", "constructs", "minimal", "speedup"
    ));
    let quotes = dscweaver_workloads::quotes_process();
    let quotes_deps = dscweaver_workloads::quotes_dependencies();
    let qres = Weaver::new().run(&quotes_deps).expect("sound");
    let qstructural = structural_constraints(&quotes).expect("no loops");
    let qexec = dscweaver_core::ExecConditions::derive(&qstructural);
    for latency in [5u64, 20, 50, 100, 200] {
        let mut durations: BTreeMap<String, u64> = BTreeMap::new();
        for a in ["recA", "recB", "recC"] {
            durations.insert(a.into(), latency);
        }
        let sim = SimConfig {
            durations: DurationModel::with_overrides(2, durations),
            oracle: BTreeMap::new(),
            workers: None,
            threads: 0,
        };
        let s_base = simulate(&qstructural, &qexec, &sim);
        let s_min = simulate(&qres.minimal, &qres.exec, &sim);
        out.push_str(&format!(
            "{:<12}{:>14}{:>12}{:>9.2}x\n",
            latency,
            s_base.trace.makespan(),
            s_min.trace.makespan(),
            s_base.trace.makespan() as f64 / s_min.trace.makespan() as f64
        ));
    }

    // Synthetic fork-join: monitoring-cost scaling with redundancy.
    out.push_str("\nMonitoring cost vs injected redundancy (fork-join 6x6):\n");
    out.push_str(&format!(
        "{:<12}{:>10}{:>10}{:>16}{:>16}\n",
        "redundant", "full", "minimal", "checks(full)", "checks(min)"
    ));
    for redundant in [0usize, 10, 25, 50, 100] {
        let ds = fork_join(6, 6, redundant, 13);
        let res = Weaver::new().run(&ds).expect("sound");
        let sim = SimConfig::default();
        let full = simulate(&res.asc, &res.exec, &sim);
        let min = simulate(&res.minimal, &res.exec, &sim);
        assert_eq!(full.trace.makespan(), min.trace.makespan());
        out.push_str(&format!(
            "{:<12}{:>10}{:>10}{:>16}{:>16}\n",
            redundant,
            res.asc.constraint_count(),
            res.minimal.constraint_count(),
            full.constraint_checks,
            min.constraint_checks
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_figures_regenerate() {
        assert!(fig1().contains("◇ if_au"));
        assert!(fig2().contains("switch if_au"));
        let f34 = fig3_4();
        assert!(f34.contains("a1 ->T a2"));
        assert!(!f34.contains("a7 ->"), "a7 is not a source of control deps");
        let f5 = fig5();
        assert!(f5.contains("recShip_si ->d invPurchase_si"));
        assert!(f5.contains("if_au ->T invShip_po"));
        assert!(fig6().contains("invDeploy_midConfig ->o invDeploy_appConfig"));
    }

    #[test]
    fn paper_tables_regenerate() {
        let t1 = table1();
        assert!(t1.contains("total: 40"));
        let t2 = table2();
        assert!(t2.contains("(23 removed)"), "{t2}");
        assert!(fig7().contains("40 edges"));
        assert!(fig8().contains("31 edges"));
        assert!(fig9().contains("17 edges"));
    }

    #[test]
    fn extended_experiments_run() {
        let a = ext_a();
        assert!(a.lines().count() >= 7, "{a}");
        let b = ext_b();
        assert!(b.contains("purchasing"));
        let c = ext_c();
        assert!(c.contains("rejected"));
        let d = ext_d();
        assert!(d.contains("minimal P*"));
    }
}
