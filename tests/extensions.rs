//! Integration tests for the extension features: loop unrolling through
//! the full pipeline, worker-limited scheduling, structured BPEL
//! emission, DSCL workflow patterns end-to-end, and DOT exports.

use dscweaver::core::{ExecConditions, Weaver};
use dscweaver::dscl::{patterns, ConstraintSet};
use dscweaver::model::{parse_process, unroll_whiles};
use dscweaver::petri::{validate, ValidateOptions};
use dscweaver::scheduler::{simulate, SimConfig};
use dscweaver::workloads::{purchasing_dependencies, purchasing_process};

#[test]
fn unrolled_loop_through_full_vertical() {
    let p = parse_process(
        "process Retry { var po, ok;
          service Pay { ports 1 async }
          sequence {
            receive recOrder from Client writes po;
            while tryAgain reads ok {
              sequence {
                invoke invPay on Pay port 1 reads po;
                receive recPay from Pay writes ok;
              }
            }
            reply done to Client reads ok;
          } }",
    )
    .unwrap();
    let u = unroll_whiles(&p, 3);
    assert_eq!(u.loops_expanded, 1);
    assert!(u.process.validate().is_empty());

    // Service dependencies need per-iteration *correlation*: each unrolled
    // invoke/receive pair is its own conversation instance. The naive
    // declaration-derived plumbing would wire every invoke to every
    // receive of the Pay service (and create a spurious cycle across
    // iterations — the classic BPEL correlation-set problem), so we state
    // the correlated callback orderings explicitly as direct service
    // dependencies between the paired activities.
    let mut ds = dscweaver::pdg::extract(
        &u.process,
        dscweaver::pdg::ExtractOptions {
            data: true,
            control: true,
            services_from_decls: false,
        },
    );
    for (inv, rec) in [
        ("invPay", "recPay"),
        ("invPay#1_1", "recPay#1_1"),
        ("invPay#1_2", "recPay#1_2"),
    ] {
        ds.push(dscweaver::core::Dependency::service(inv, rec));
    }
    let out = Weaver::new().run(&ds).unwrap();
    assert!(out.minimal.validate().is_empty());

    // Petri validation explores every retry depth (2^4 condition
    // assignments over the four unrolled guard evaluations).
    let report = validate(&out.minimal, &out.exec, &ValidateOptions::default());
    assert!(report.ok(), "{report:#?}");
    assert_eq!(report.assignments_checked, 16);

    // Execute with "retry twice, then stop": tryAgain=T, #1_1=T, #1_2=F.
    let mut sim = SimConfig::default();
    sim.oracle.insert("tryAgain".into(), "T".into());
    sim.oracle.insert("tryAgain#1_1".into(), "T".into());
    sim.oracle.insert("tryAgain#1_2".into(), "F".into());
    sim.oracle.insert("tryAgain#1_3".into(), "F".into());
    let s = simulate(&out.minimal, &out.exec, &sim);
    assert!(s.completed(), "stuck: {:?}", s.stuck);
    assert!(s.trace.executed("invPay"));
    assert!(s.trace.executed("invPay#1_1"));
    assert!(s.trace.skipped("invPay#1_2"), "third iteration not taken");
    assert!(s.trace.executed("done"));
    assert!(s.trace.verify(&out.asc).is_empty());
}

#[test]
fn worker_limited_purchasing() {
    let ds = purchasing_dependencies();
    let out = Weaver::new().run(&ds).unwrap();
    let mut base = SimConfig::default();
    base.oracle.insert("if_au".into(), "T".into());
    let unbounded = simulate(&out.minimal, &out.exec, &base);

    let mut limited = base.clone();
    limited.workers = Some(1);
    let serial = simulate(&out.minimal, &out.exec, &limited);
    assert!(serial.completed());
    assert_eq!(serial.trace.max_concurrency(), 1);
    assert!(serial.trace.makespan() >= unbounded.trace.makespan());
    // Constraints still hold under resource pressure.
    assert!(serial.trace.verify(&out.asc).is_empty());

    let mut two = base.clone();
    two.workers = Some(2);
    let duo = simulate(&out.minimal, &out.exec, &two);
    assert!(duo.completed());
    assert!(duo.trace.max_concurrency() <= 2);
    assert!(duo.trace.verify(&out.asc).is_empty());
}

#[test]
fn structured_bpel_for_purchasing() {
    let process = purchasing_process();
    let ds = purchasing_dependencies();
    let out = Weaver::new().run(&ds).unwrap();
    let xml = dscweaver::bpel::emit_structured_string(&process, &out.minimal);
    // The minimal set is not fully series-parallel (conditional edges +
    // cross-branch sync), so links remain, but structure emerges: at least
    // one nested sequence.
    assert!(xml.contains("<sequence>"), "{xml}");
    assert!(xml.contains("<links>"));
    // All 14 activities present.
    for a in dscweaver::workloads::purchasing::ACTIVITIES {
        assert!(xml.contains(&format!("name=\"{a}\"")), "missing {a}");
    }
}

#[test]
fn workflow_patterns_compose_and_execute() {
    // Build a process purely from patterns: split → sync → choice → merge,
    // with an interleaving pair and a milestone.
    let mut cs = ConstraintSet::new("patterns");
    for a in [
        "start", "x", "y", "join", "gate", "fast", "slow", "merge", "audit1", "audit2",
        "session", "ping",
    ] {
        cs.add_activity(a);
    }
    patterns::parallel_split(&mut cs, "start", &["x", "y"]);
    patterns::synchronization(&mut cs, &["x", "y"], "join");
    patterns::sequence(&mut cs, "join", "gate");
    patterns::exclusive_choice(&mut cs, "gate", &[("FAST", "fast"), ("SLOW", "slow")]);
    patterns::simple_merge(&mut cs, &["fast", "slow"], "merge");
    patterns::interleaved_parallel_routing(&mut cs, &["audit1", "audit2"]);
    patterns::milestone(&mut cs, "session", "ping");
    assert!(cs.validate().is_empty(), "{:?}", cs.validate());

    let exec = ExecConditions::derive(&cs);
    let report = validate(&cs, &exec, &ValidateOptions::default());
    assert!(report.ok(), "{report:#?}");

    for value in ["FAST", "SLOW"] {
        let mut sim = SimConfig::default();
        sim.oracle.insert("gate".into(), value.into());
        sim.durations.set("session", 10);
        let s = simulate(&cs, &exec, &sim);
        assert!(s.completed(), "{value}: {:?}", s.stuck);
        assert!(s.trace.verify(&cs).is_empty());
        assert!(s.trace.verify_exclusives(&cs).is_empty());
        assert_eq!(s.trace.executed("fast"), value == "FAST");
        assert_eq!(s.trace.skipped("slow"), value == "FAST");
        // Milestone: ping starts within session's lifetime.
        let ping = s.trace.occurrence(&dscweaver::dscl::StateRef::start("ping")).unwrap().0;
        let s_start = s.trace.occurrence(&dscweaver::dscl::StateRef::start("session")).unwrap().0;
        let s_fin = s.trace.occurrence(&dscweaver::dscl::StateRef::finish("session")).unwrap().0;
        assert!(s_start <= ping && ping <= s_fin);
    }
}

#[test]
fn dot_exports_render() {
    let ds = purchasing_dependencies();
    let out = Weaver::new().run(&ds).unwrap();
    let dot = dscweaver::dscl::SyncGraph::build(&out.minimal).to_dot("fig9");
    assert!(dot.starts_with("digraph \"fig9\""));
    assert!(dot.contains("F(if_au)"));
    let lowered = dscweaver::petri::lower(&out.minimal, &out.exec);
    let net_dot = lowered.net.to_dot("purchasing_net");
    assert!(net_dot.contains("shape=ellipse"));
    assert!(net_dot.contains("todo(recClient_po)"));
    let stats = lowered.net.stats();
    assert!(stats.places >= 14 * 3);
    assert_eq!(stats.initial_tokens, 14);
}
