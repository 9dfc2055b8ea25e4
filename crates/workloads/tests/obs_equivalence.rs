//! Recording must be a pure observer: every engine in the vertical
//! (optimizer, Petri validation, DES scheduler) has to produce
//! bit-identical results with the recorder on and off, across the
//! thread counts of the engines that fan out. This is the contract that lets the instrumentation stay
//! compiled into the engines permanently.

use dscweaver_core::Weaver;
use dscweaver_obs as obs;
use dscweaver_petri::{validate, AssignmentFailure, ValidateOptions, ValidationReport};
use dscweaver_scheduler::{simulate, Schedule, SimConfig};
use dscweaver_workloads::{
    dense_conditional, disjoint_conditional, DenseConditionalParams, DisjointConditionalParams,
};

fn canon_failure(f: &AssignmentFailure) -> (Vec<(String, String)>, Vec<String>, String, bool) {
    let mut a: Vec<(String, String)> = f
        .assignment
        .iter()
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect();
    a.sort();
    (a, f.stuck.clone(), f.marking.clone(), f.diverged)
}

fn canon_report(r: &ValidationReport) -> String {
    format!(
        "{:?} {} {} {} {} {} {:?}",
        r.conflict_cycle,
        r.assignments_checked,
        r.assignments_truncated,
        r.guard_groups,
        r.assignment_space,
        r.factored,
        r.failures.iter().map(canon_failure).collect::<Vec<_>>()
    )
}

fn canon_schedule(s: &Schedule) -> String {
    format!("{:?} stuck={:?} checks={}", s.trace, s.stuck, s.constraint_checks)
}

#[test]
fn optimizer_results_are_identical_with_recording_on_and_off() {
    let _serial = obs::test_lock();
    let ds = dense_conditional(&DenseConditionalParams {
        guards: 4,
        chain_len: 3,
        redundant: 12,
        seed: 7,
    });
    let weaver = Weaver::new();
    let off = weaver.run(&ds).unwrap();
    let (on, trace) = obs::record_with(|| weaver.run(&ds).unwrap());
    assert!(!trace.is_empty(), "nothing was recorded");
    assert_eq!(format!("{:?}", off.minimal), format!("{:?}", on.minimal));
    assert_eq!(format!("{:?}", off.removed), format!("{:?}", on.removed));
    assert_eq!(format!("{:?}", off.sc), format!("{:?}", on.sc));
}

#[test]
fn validation_reports_are_identical_with_recording_on_and_off() {
    let _serial = obs::test_lock();
    let ds = disjoint_conditional(&DisjointConditionalParams {
        groups: 2,
        guards_per_group: 3,
        chain_len: 2,
        redundant: 6,
        seed: 5,
    });
    let out = Weaver::new().run(&ds).unwrap();
    for threads in [1usize, 2, 0] {
        let opts = ValidateOptions {
            threads,
            ..Default::default()
        };
        let off = validate(&out.minimal, &out.exec, &opts);
        let (on, trace) = obs::record_with(|| validate(&out.minimal, &out.exec, &opts));
        assert!(!trace.is_empty(), "threads {threads}: nothing was recorded");
        assert_eq!(canon_report(&off), canon_report(&on), "threads {threads}");
    }
}

#[test]
fn schedules_are_identical_with_recording_on_and_off() {
    let _serial = obs::test_lock();
    let ds = dense_conditional(&DenseConditionalParams {
        guards: 4,
        chain_len: 4,
        redundant: 10,
        seed: 6,
    });
    let out = Weaver::new().run(&ds).unwrap();
    for threads in [1usize, 2] {
        let cfg = SimConfig {
            threads,
            ..Default::default()
        };
        let off = simulate(&out.minimal, &out.exec, &cfg);
        let (on, trace) = obs::record_with(|| simulate(&out.minimal, &out.exec, &cfg));
        assert!(!trace.is_empty(), "threads {threads}: nothing was recorded");
        assert_eq!(canon_schedule(&off), canon_schedule(&on), "threads {threads}");
    }
}
