//! Process evolution (§1): "there is no easy way to add or delete a
//! constraint in a process [coded with sequencing constructs] without
//! over-specifying necessary constraints or invalidating existing ones."
//!
//! With dependencies as first-class citizens, evolution is a set edit:
//! push or retain dependencies, re-weave, and the scheme — including its
//! BPEL realization — follows. This example walks the Purchasing process
//! through three revisions with a [`WeaveSession`], which weaves each
//! revision and reports its diff against the previous one. A plain
//! [`Weaver::run`] of every revision is timed alongside; the session's
//! output equals it, since the session runs the same weave.
//!
//! ```sh
//! cargo run --example evolving_process
//! ```

use dscweaver::core::{Dependency, WeaveSession, Weaver};
use dscweaver::scheduler::{simulate, SimConfig};
use dscweaver::workloads::{purchasing_dependencies, purchasing_process};
use std::time::Instant;

fn summarize(label: &str, out: &dscweaver::core::WeaverOutput) {
    let sim = SimConfig {
        oracle: [("if_au".to_string(), "T".to_string())].into(),
        ..Default::default()
    };
    let schedule = simulate(&out.minimal, &out.exec, &sim);
    println!(
        "{label:<34} deps {:>2} -> minimal {:>2} | makespan {:>2} | peak concurrency {}",
        out.sc.constraint_count(),
        out.minimal.constraint_count(),
        schedule.trace.makespan(),
        schedule.trace.max_concurrency(),
    );
}

/// Weaves one revision through the session (timed) and from scratch
/// (timed), prints the comparison, and returns the fresh output.
fn reweave(
    session: &mut WeaveSession,
    label: &str,
    ds: &dscweaver::core::DependencySet,
) -> dscweaver::core::WeaverOutput {
    let weaver = Weaver::new();
    let t0 = Instant::now();
    let fresh = weaver.run(ds).expect("revision weaves");
    let fresh_ms = t0.elapsed().as_secs_f64() * 1e3;

    let t0 = Instant::now();
    let rep = session.weave(ds).expect("session weaves");
    let session_ms = t0.elapsed().as_secs_f64() * 1e3;

    summarize(label, &fresh);
    println!(
        "  {:<32} fresh {fresh_ms:.2} ms | session {session_ms:.2} ms | path {:?} | diff +{} -{}",
        "",
        rep.path,
        rep.diff.added.len(),
        rep.diff.removed.len()
    );

    // The session's scheme is always identical to the fresh weave's.
    let render = |o: &dscweaver::core::WeaverOutput| {
        let mut v: Vec<String> = o.minimal.happen_befores().map(|r| r.to_string()).collect();
        v.sort();
        v
    };
    assert_eq!(render(session.output().expect("output")), render(&fresh));
    fresh
}

fn main() {
    let process = purchasing_process();
    let mut session = Weaver::new().session();

    // Revision 1: the paper's Table 1.
    let v1 = purchasing_dependencies();
    let out1 = reweave(&mut session, "v1 (paper's Table 1)", &v1);

    // Revision 2: a new business rule arrives — production may only begin
    // after the credit card settles a second authorization hold, i.e.
    // invProduction_po must wait for recPurchase_oi. One line:
    let mut v2 = v1.clone();
    v2.push(Dependency::cooperation("recPurchase_oi", "invProduction_po"));
    let out2 = reweave(&mut session, "v2 (+production gating rule)", &v2);
    assert!(out2
        .minimal
        .happen_befores()
        .any(|r| r.to_string() == "F(recPurchase_oi) -> S(invProduction_po)"));

    // Revision 3: the Purchase service upgrades to stateless ports — its
    // WSCL no longer requires sequential invocation. Drop that one service
    // dependency; the optimizer finds the extra concurrency by itself.
    let mut v3 = v1.clone();
    v3.deps
        .retain(|d| !(d.from.name == "Purchase_1" && d.to.name == "Purchase_2"));
    let out3 = reweave(&mut session, "v3 (stateless Purchase ports)", &v3);
    assert!(
        !out3
            .minimal
            .happen_befores()
            .any(|r| r.to_string() == "F(invPurchase_po) -> S(invPurchase_si)"),
        "the port-order bridge disappears with the requirement"
    );

    // In every revision, the generated BPEL tracks the scheme exactly.
    for (label, out) in [("v1", &out1), ("v2", &out2), ("v3", &out3)] {
        let xml = dscweaver::bpel::emit_string(&process, &out.minimal);
        let back = dscweaver::bpel::parse_bpel(&xml).expect("round-trip");
        assert_eq!(back.constraint_count(), out.minimal.constraint_count());
        println!(
            "{label}: BPEL regenerated with {} links",
            back.constraint_count()
        );
    }

    // And a bad edit is rejected with a pinpointed conflict — leaving the
    // session's last good revision (v3) intact and re-weavable:
    let mut bad = v3.clone();
    bad.push(Dependency::cooperation("replyClient_oi", "invShip_po"));
    match session.weave(&bad) {
        Err(e) => println!("\nbad revision rejected:\n  {e}"),
        Ok(_) => unreachable!("cycle expected"),
    }
    let rep = session.weave(&v3).expect("session state survived the bad edit");
    println!(
        "after rejection, v3 re-weaves via {:?} (diff empty: {})",
        rep.path,
        rep.diff.is_empty()
    );
}
