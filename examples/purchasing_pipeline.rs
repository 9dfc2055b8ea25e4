//! The full DSCWeaver vertical on the Purchasing process (§2, Figure 1):
//! extraction → merge → translation → minimization → Petri validation →
//! execution → BPEL generation — with every intermediate artifact printed.
//!
//! ```sh
//! cargo run --example purchasing_pipeline
//! ```

use dscweaver::core::Weaver;
use dscweaver::dscl::SyncGraph;
use dscweaver::scheduler::{DurationModel, SimConfig};
use dscweaver::vertical::{baseline_schedule, weave, VerticalInput};
use dscweaver::workloads::{
    purchasing_conversations, purchasing_cooperation, purchasing_process,
};
use std::collections::BTreeMap;

fn sim(branch: &str) -> SimConfig {
    let mut durations: BTreeMap<String, u64> = BTreeMap::new();
    // Service callbacks dominate: the receive waits out the remote latency.
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

fn main() {
    let process = purchasing_process();

    println!("=== Figure 1: the Purchasing process flowchart ===");
    println!("{}", dscweaver::model::render_flowchart(&process));

    println!("=== Figure 2: the sequencing-construct implementation ===");
    println!("{}", dscweaver::model::render_constructs(&process));

    // Specification: extract data/control from the implementation, service
    // dependencies from the WSCL conversations, cooperation from the
    // analyst.
    let conversations = purchasing_conversations();
    let cooperation = purchasing_cooperation();
    let out = weave(&VerticalInput {
        process: &process,
        conversations: &conversations,
        cooperation: &cooperation,
        weaver: Weaver::new(),
        sim: sim("T"),
    })
    .expect("the Purchasing process is sound");

    println!("=== Table 1 (extracted) ===");
    println!("{}", out.dependencies.render_table1());

    println!("=== Figure 7: merged synchronization constraints (SC) ===");
    println!("{}\n", SyncGraph::build(&out.weaver.sc).render());

    println!("=== Figure 8: after service dependency translation (ASC) ===");
    for b in &out.weaver.translation.bridges {
        println!("  bold: {b}");
    }
    println!(
        "  dropped {} service relations; dead-end ports: {:?}\n",
        out.weaver.translation.dropped, out.weaver.translation.dead_ends
    );
    println!("{}\n", SyncGraph::build(&out.weaver.asc).render());

    println!("=== Figure 9: minimal synchronization constraints ===");
    println!("{}\n", SyncGraph::build(&out.weaver.minimal).render());

    println!("=== Table 2 ===");
    println!("{}", out.weaver.render_table2());

    println!("=== Vertical report ===");
    println!("{}", out.report());

    // Baseline comparison: the Figure-2 constructs on the same engine.
    let (baseline_cs, baseline) =
        baseline_schedule(&process, &sim("T")).expect("no loops in Purchasing");
    println!("=== Figure-2 baseline vs optimized dataflow (authorized branch) ===");
    println!(
        "constructs: {:>3} constraints | makespan {:>4} | peak concurrency {} | {:>5} checks",
        baseline_cs.constraint_count(),
        baseline.trace.makespan(),
        baseline.trace.max_concurrency(),
        baseline.constraint_checks,
    );
    println!(
        "minimal P*: {:>3} constraints | makespan {:>4} | peak concurrency {} | {:>5} checks",
        out.weaver.minimal.constraint_count(),
        out.schedule.trace.makespan(),
        out.schedule.trace.max_concurrency(),
        out.schedule.constraint_checks,
    );

    println!("\n=== Generated BPEL (excerpt) ===");
    for line in out.bpel.lines().take(25) {
        println!("{line}");
    }
    println!("  ... ({} lines total)", out.bpel.lines().count());
}
