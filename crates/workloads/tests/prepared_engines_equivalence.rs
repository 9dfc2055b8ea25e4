//! Property tests for the compile → run engines: validation's lane
//! kernel and its scalar fallback reused across many consecutive
//! assignment runs, and one `ScheduleTables` replayed through
//! `PreparedSchedule` (varying branch oracles, assignment windows and
//! thread counts), must produce results byte-identical to their
//! references, and factored validation must agree with the full
//! enumeration's verdict while checking strictly fewer assignments on
//! guard-independent workloads.
//!
//! The `lanes_*` tests pin `CompiledValidation::run` (up to 64
//! assignments per bit-sliced sweep) to `run_scalar` (one scalar run per
//! assignment) field for field. Every lowered net is 1-safe, so the
//! lane kernel's unsafe fallback is pinned on raw colored nets by the
//! petri crate's `lanes_replay_the_scalar_run_on_random_colored_nets`.

mod common;

use common::{reference, FullReport, Reference};
use dscweaver_core::{merge, translate_services, ExecConditions, Weaver};
use dscweaver_dscl::{Condition, ConstraintSet, Origin, Relation, StateRef};
use dscweaver_petri::{guard_groups, validate, CompiledValidation, ValidateOptions};
use dscweaver_scheduler::{simulate, PreparedSchedule, Schedule, ScheduleTables, SimConfig};
use dscweaver_workloads::{
    dense_conditional, disjoint_conditional, layered, DenseConditionalParams,
    DisjointConditionalParams, LayeredParams,
};

fn trace_key(s: &Schedule) -> String {
    format!("{:?} stuck={:?} checks={}", s.trace, s.stuck, s.constraint_checks)
}

/// `validate` (lanes, with one reused scratch state for the fallback) and
/// the scalar enumeration must stay bit-identical to the reference
/// enumeration over the rescan oracle for every thread count and for
/// truncating assignment windows.
#[test]
fn validate_sessions_are_thread_and_window_invariant() {
    let ds = dense_conditional(&DenseConditionalParams {
        guards: 5,
        chain_len: 3,
        redundant: 16,
        seed: 17,
    });
    let out = Weaver::new().run(&ds).unwrap();
    // The same net plus one activity waiting on a ghost guard's control
    // token: every assignment fails, and each failure's rendered marking
    // records which activities its branches ran or skipped, so scratch
    // state leaking from one run into the next shows up against the
    // oracle.
    let add_stuck = |cs: &ConstraintSet| {
        let mut cs = cs.clone();
        cs.add_activity("stuck");
        cs.add_domain("ghost", vec!["T".into(), "F".into()]);
        cs.relations.push(Relation::before_if(
            StateRef::finish("ghost"),
            StateRef::start("stuck"),
            Condition::new("ghost", "T"),
            Origin::Control,
        ));
        cs
    };
    let stuck = add_stuck(&out.minimal);
    let stuck_exec = ExecConditions::derive(&add_stuck(&out.sc));
    for (cs, exec, space) in [(&out.minimal, &out.exec, 32), (&stuck, &stuck_exec, 64)] {
        let compiled = CompiledValidation::compile(cs, exec);
        for max_assignments in [4096usize, 20, 7] {
            let reference = reference(cs, exec, max_assignments);
            assert_eq!(reference.checked, max_assignments.min(space));
            for threads in [1usize, 2, 0] {
                let opts = ValidateOptions {
                    threads,
                    max_assignments,
                    // The ghost guard is independent of the rest;
                    // pin the full enumeration the reference walks.
                    factor: false,
                    ..Default::default()
                };
                let got = validate(cs, exec, &opts);
                assert_eq!(
                    Reference::of(&got),
                    reference,
                    "space {space} threads {threads} window {max_assignments}"
                );
                assert_eq!(
                    Reference::of(&compiled.run_scalar(&opts)),
                    reference,
                    "space {space} threads {threads} window {max_assignments} scalar"
                );
            }
        }
    }
}

/// `cs` plus one activity waiting on a ghost guard's control token:
/// every assignment fails, and each failure's rendered marking records
/// which activities its branches ran or skipped.
fn add_stuck(cs: &ConstraintSet) -> ConstraintSet {
    let mut cs = cs.clone();
    cs.add_activity("stuck");
    cs.add_domain("ghost", vec!["T".into(), "F".into()]);
    cs.relations.push(Relation::before_if(
        StateRef::finish("ghost"),
        StateRef::start("stuck"),
        Condition::new("ghost", "T"),
        Origin::Control,
    ));
    cs
}

/// Asserts the lane kernel's report equals the scalar enumeration's field
/// for field, over one compiled set, and returns it.
fn assert_lanes_match_scalar(
    compiled: &CompiledValidation,
    opts: &ValidateOptions,
    what: &str,
) -> FullReport {
    let lanes = FullReport::of(&compiled.run(opts));
    assert_eq!(lanes, FullReport::of(&compiled.run_scalar(opts)), "{what}");
    lanes
}

/// The minimal set and execution conditions of a woven dependency set.
fn woven(ds: &dscweaver_core::DependencySet) -> (ConstraintSet, ExecConditions) {
    let out = Weaver::new().run(ds).unwrap();
    (out.minimal, out.exec)
}

#[test]
fn lanes_match_the_scalar_oracle_on_seeded_workloads() {
    let mut sets = Vec::new();
    for seed in [3u64, 17, 91] {
        let ds = dense_conditional(&DenseConditionalParams {
            guards: 5,
            chain_len: 3,
            redundant: 16,
            seed,
        });
        sets.push((format!("dense_conditional seed {seed}"), woven(&ds)));
    }
    for seed in [3u64, 42] {
        let ds = layered(&LayeredParams {
            width: 5,
            depth: 8,
            density: 0.3,
            redundant: 30,
            guards: 3,
            seed,
        });
        sets.push((format!("layered seed {seed}"), woven(&ds)));
    }
    for (what, (cs, exec)) in sets {
        let stuck = add_stuck(&cs);
        for (cs, failing) in [(&cs, false), (&stuck, true)] {
            let compiled = CompiledValidation::compile(cs, &exec);
            for factor in [true, false] {
                let opts = ValidateOptions { factor, ..Default::default() };
                let what = format!("{what} stuck={failing} factor={factor}");
                let report = assert_lanes_match_scalar(&compiled, &opts, &what);
                assert!(report.checked > 1, "{what}");
                assert_eq!(report.failures.is_empty(), !failing, "{what}");
            }
        }
    }
}

/// `k` nested binary guards `g0 … g{k-1}` (each runs only when the
/// previous one chose `T`) and an activity `d` under the innermost.
fn nested_guards(k: usize) -> ConstraintSet {
    let mut cs = ConstraintSet::new("nested");
    cs.add_activity("d");
    for i in 0..k {
        let g = format!("g{i}");
        cs.add_activity(&g);
        cs.add_domain(&g, vec!["T".into(), "F".into()]);
        let next = if i + 1 < k { format!("g{}", i + 1) } else { "d".into() };
        cs.push(Relation::before_if(
            StateRef::finish(&g),
            StateRef::start(&next),
            Condition::new(&g, "T"),
            Origin::Control,
        ));
    }
    cs
}

#[test]
fn lanes_match_the_scalar_oracle_on_nested_guards() {
    for k in 1..=7 {
        let cs = nested_guards(k);
        let exec = ExecConditions::derive(&cs);
        let stuck = add_stuck(&cs);
        let stuck_exec = ExecConditions::derive(&stuck);
        for (cs, exec, failing) in [(&cs, &exec, false), (&stuck, &stuck_exec, true)] {
            let compiled = CompiledValidation::compile(cs, exec);
            let opts = ValidateOptions { factor: false, ..Default::default() };
            let what = format!("nested_guards({k}) stuck={failing}");
            let report = assert_lanes_match_scalar(&compiled, &opts, &what);
            assert_eq!(report.checked, 1 << (k + failing as usize), "{what}");
            assert_eq!(report.failures.len(), report.checked * failing as usize, "{what}");
        }
    }
}

/// Every lane fails and re-runs on the scalar kernel.
#[test]
fn lanes_match_the_scalar_oracle_when_every_lane_fails() {
    let cs = stuck_everywhere();
    let exec = ExecConditions::derive(&cs);
    let compiled = CompiledValidation::compile(&cs, &exec);
    for factor in [true, false] {
        let opts = ValidateOptions { factor, ..Default::default() };
        let report = assert_lanes_match_scalar(&compiled, &opts, &format!("factor={factor}"));
        assert_eq!(report.failures.len(), report.checked);
        assert!(report.failures.iter().all(|f| !f.3), "deadlocks, not divergence");
    }
}

/// Budgets around the runs' lengths: per lane, some assignments finish
/// within the budget and others run out of it (`diverged`).
#[test]
fn lanes_match_the_scalar_oracle_under_a_small_step_budget() {
    let (cs, exec) = woven(&dense_conditional(&DenseConditionalParams {
        guards: 5,
        chain_len: 6,
        redundant: 16,
        seed: 7,
    }));
    let compiled = CompiledValidation::compile(&cs, &exec);
    let mut mixed = 0;
    for max_steps in [0usize, 1, 5, 20, 40, 60, 80, 100, 120, 150, 200, 1_000_000] {
        let opts = ValidateOptions { max_steps, factor: false, ..Default::default() };
        let report = assert_lanes_match_scalar(&compiled, &opts, &format!("max_steps {max_steps}"));
        let diverged = report.failures.iter().filter(|f| f.3).count();
        assert_eq!(diverged, report.failures.len(), "max_steps {max_steps}: only divergence fails");
        mixed += (diverged > 0 && diverged < report.checked) as usize;
        if max_steps < 5 {
            assert_eq!(diverged, report.checked);
        }
        if max_steps == 1_000_000 {
            assert_eq!(diverged, 0);
        }
    }
    assert!(mixed > 0, "no budget split the assignments");
}

/// A 512-assignment space runs in eight 64-lane chunks; with a failing
/// ghost guard, 1024 in sixteen. Caps cut it inside the first chunk, at
/// its end and one past it.
#[test]
fn lanes_match_the_scalar_oracle_across_chunks_and_caps() {
    let (cs, exec) = woven(&dense_conditional(&DenseConditionalParams {
        guards: 9,
        chain_len: 12,
        redundant: 96,
        seed: 11,
    }));
    let stuck = add_stuck(&cs);
    let compiled = CompiledValidation::compile(&cs, &exec);
    let opts = ValidateOptions { factor: false, ..Default::default() };
    let report = assert_lanes_match_scalar(&compiled, &opts, "dense_g9_l12");
    assert_eq!((report.checked, report.failures.len()), (512, 0));
    let compiled = CompiledValidation::compile(&stuck, &exec);
    for factor in [false, true] {
        let opts = ValidateOptions { factor, ..Default::default() };
        let what = format!("dense_g9_l12 + stuck, factor={factor}");
        let full = assert_lanes_match_scalar(&compiled, &opts, &what);
        assert_eq!(full.checked == 1024, !factor, "{what}");
        assert_eq!(full.failures.len(), full.checked, "{what}");
        for max_assignments in [7usize, 20, 63, 64, 65] {
            let opts = ValidateOptions { max_assignments, factor, ..Default::default() };
            let what = format!("{what}, cap {max_assignments}");
            let report = assert_lanes_match_scalar(&compiled, &opts, &what);
            assert_eq!(report.checked, max_assignments.min(full.checked), "{what}");
            assert_eq!(report.truncated, max_assignments < full.checked, "{what}");
            assert_eq!(report.failures[..], full.failures[..report.failures.len()], "{what}");
        }
    }
}

/// A set whose every assignment deadlocks with tokens in every kind of
/// place: `g` finishes (`done(g)`) and feeds `x`'s buffer and control
/// place, `x` waits forever on a ghost guard's control place (`todo(x)`,
/// `c(F(g)->S(x))`, `ctl(g->x)`), and `y` starts but waits for `S(x)`
/// (`run(y)`).
fn stuck_everywhere() -> ConstraintSet {
    let mut cs = ConstraintSet::new("stuck_everywhere");
    for a in ["g", "x", "y"] {
        cs.add_activity(a);
    }
    cs.add_domain("g", vec!["T".into(), "F".into()]);
    cs.add_domain("ghost", vec!["T".into(), "F".into()]);
    for g in ["g", "ghost"] {
        cs.relations.push(Relation::before_if(
            StateRef::finish(g),
            StateRef::start("x"),
            Condition::new(g, "T"),
            Origin::Control,
        ));
    }
    cs.push(Relation::before(StateRef::start("x"), StateRef::finish("y"), Origin::Data));
    cs
}

/// Failures name their stuck activities and render their markings from
/// the compiled name index exactly as the reference does from the
/// lowered net.
#[test]
fn failure_names_match_the_reference_in_every_place_kind() {
    let cs = stuck_everywhere();
    let exec = ExecConditions::derive(&cs);
    let got = validate(&cs, &exec, &ValidateOptions { factor: false, ..Default::default() });
    let reference = reference(&cs, &exec, 4096);
    assert_eq!(Reference::of(&got), reference);
    assert_eq!(reference.failures.len(), 4, "every assignment deadlocks");
    for (_, stuck, marking, _) in &reference.failures {
        assert_eq!(stuck, &["x".to_string(), "y".to_string()]);
        for place in ["todo(x)[", "run(y)[", "done(g)[", "c(F(g)->S(x))[", "ctl(g->x)["] {
            assert!(marking.contains(place), "{place} missing from {marking}");
        }
    }
}

/// Factored validation on a guard-independent workload: same verdict as
/// the full enumeration, strictly fewer assignments, and thread-invariant.
#[test]
fn factored_validation_agrees_with_full_enumeration() {
    let ds = disjoint_conditional(&DisjointConditionalParams {
        groups: 2,
        guards_per_group: 3,
        chain_len: 2,
        redundant: 6,
        seed: 5,
    });
    let out = Weaver::new().run(&ds).unwrap();
    let groups = guard_groups(&out.minimal, &out.exec);
    assert_eq!(groups.len(), 2, "two provably disjoint islands: {groups:?}");
    assert!(groups.iter().all(|g| g.len() == 3));

    let full = validate(
        &out.minimal,
        &out.exec,
        &ValidateOptions {
            factor: false,
            ..Default::default()
        },
    );
    assert!(full.ok(), "failures: {:?}", full.failures);
    assert_eq!(full.assignments_checked, 64); // 2^6
    assert_eq!(full.guard_groups, 1);
    assert!(!full.factored);

    let mut first = None;
    for threads in [1usize, 2, 0] {
        let factored = validate(
            &out.minimal,
            &out.exec,
            &ValidateOptions {
                threads,
                ..Default::default()
            },
        );
        assert_eq!(factored.ok(), full.ok());
        assert_eq!(factored.guard_groups, 2);
        assert_eq!(factored.assignments_checked, 16); // 2 · 2^3
        assert_eq!(factored.assignment_space, 64);
        assert!(factored.assignments_checked < full.assignments_checked);
        let canon = Reference::of(&factored);
        if let Some(f) = &first {
            assert_eq!(&canon, f, "factored report not thread-invariant");
        } else {
            first = Some(canon);
        }
    }
}

/// One `ScheduleTables` replayed through `PreparedSchedule` across
/// oracles, worker limits and thread counts (3 × 3 × 2 consecutive runs)
/// must match a fresh `simulate` per configuration exactly, checks
/// included.
#[test]
fn prepared_schedule_reuse_matches_fresh_simulate() {
    let ds = dense_conditional(&DenseConditionalParams {
        guards: 4,
        chain_len: 4,
        redundant: 10,
        seed: 6,
    });
    let mut sc = merge(&ds);
    sc.desugar_happen_together();
    let exec = ExecConditions::derive(&sc);
    let (cs, _) = translate_services(&sc);
    let tables = ScheduleTables::derive(&cs, &exec);
    let session = PreparedSchedule::with_tables(&cs, &exec, &tables);
    for bits in [0u32, 5, 15] {
        for workers in [None, Some(2), Some(4)] {
            for threads in [1usize, 2] {
                let mut config = SimConfig::default();
                for k in 0..4 {
                    let v = if bits & (1 << k) != 0 { "T" } else { "F" };
                    config.oracle.insert(format!("g_{k}"), v.to_string());
                }
                config.workers = workers;
                config.threads = threads;
                let fresh = simulate(&cs, &exec, &config);
                let replay = session.run(&config);
                assert_eq!(
                    trace_key(&replay),
                    trace_key(&fresh),
                    "bits {bits:04b} workers {workers:?} threads {threads}"
                );
                assert!(fresh.completed(), "stuck: {:?}", fresh.stuck);
            }
        }
    }
}
