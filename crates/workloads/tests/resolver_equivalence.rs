//! Property tests for `dscweaver_core::resolve`, the one name step of
//! Petri validation and the scheduler: the executors must not depend on
//! where a set's execution conditions come from. Each set is compiled
//! and run under the weave's own `exec`, under `ExecConditions::derive`
//! of the set (or of the SC it was woven from), and under the `exec` of a
//! superset whose extra activity and guard sort first — so every
//! activity and guard id of the superset differs from the set's and the
//! translation onto the set's ids is not the identity. Petri reports,
//! kernel sizes, guard groups, scheduler traces, `stuck` lists and
//! `constraint_checks` must be identical under all of them.

mod common;

use common::FullReport;
use dscweaver_core::{ExecConditions, Weaver};
use dscweaver_dscl::{Condition, ConstraintSet, Origin, Relation, StateRef};
use dscweaver_petri::{guard_groups, CompiledValidation, ValidateOptions};
use dscweaver_scheduler::{simulate_rescan_baseline, PreparedSchedule, ScheduleTables, SimConfig};
use dscweaver_workloads::{
    dense_conditional, layered, purchasing_dependencies, service_mesh, DenseConditionalParams,
    LayeredParams,
};
use std::collections::BTreeMap;

/// `cs` plus an activity under a new guard, both named to sort before
/// every other name; the execution conditions of `cs`'s activities do
/// not change.
fn superset(cs: &ConstraintSet) -> ConstraintSet {
    let mut s = cs.clone();
    s.add_activity("aaa_extra");
    s.add_activity("aaa_gate");
    s.add_domain("aaa_gate", vec!["zz".into(), "T".into()]);
    s.push(Relation::before_if(
        StateRef::finish("aaa_gate"),
        StateRef::start("aaa_extra"),
        Condition::new("aaa_gate", "zz"),
        Origin::Control,
    ));
    s
}

/// Everything the executors report for `cs` under `exec`.
#[derive(Debug, PartialEq)]
struct Observed {
    kernel_words: usize,
    factored: FullReport,
    unfactored: FullReport,
    groups: Option<Vec<Vec<String>>>,
    schedules: Vec<String>,
}

fn observe(cs: &ConstraintSet, exec: &ExecConditions) -> Observed {
    let compiled = CompiledValidation::compile(cs, exec);
    let factored = FullReport::of(&compiled.run(&ValidateOptions::default()));
    let unfactored = FullReport::of(&compiled.run(&ValidateOptions {
        factor: false,
        ..Default::default()
    }));
    let groups = (factored.mode_limit.is_none() && factored.conflict_cycle.is_none())
        .then(|| guard_groups(cs, exec));
    // The first domain value of every guard (the default), the last one,
    // and the default under one worker.
    let last: BTreeMap<String, String> = cs
        .domains
        .iter()
        .filter_map(|(g, d)| Some((g.to_string(), d.last()?.to_string())))
        .collect();
    let configs = [
        SimConfig::default(),
        SimConfig {
            oracle: last,
            ..Default::default()
        },
        SimConfig {
            workers: Some(1),
            ..Default::default()
        },
    ];
    let tables = ScheduleTables::derive(cs, exec);
    let prepared = PreparedSchedule::with_tables(cs, exec, &tables);
    let schedules = configs
        .iter()
        .flat_map(|config| {
            let s = prepared.run(config);
            let rescan = simulate_rescan_baseline(cs, exec, config);
            [
                format!(
                    "{:?} stuck={:?} checks={}",
                    s.trace, s.stuck, s.constraint_checks
                ),
                format!("rescan {:?} stuck={:?}", rescan.trace, rescan.stuck),
            ]
        })
        .collect();
    Observed {
        kernel_words: compiled.kernel_words(),
        factored,
        unfactored,
        groups,
        schedules,
    }
}

/// Asserts every `exec` yields what the first one does on `cs`.
fn assert_exec_independent(cs: &ConstraintSet, execs: &[(&str, &ExecConditions)], what: &str) {
    let (first, exec) = execs[0];
    let want = observe(cs, exec);
    assert!(
        want.kernel_words > 0
            || want.factored.conflict_cycle.is_some()
            || want.factored.mode_limit.is_some()
    );
    for &(name, exec) in &execs[1..] {
        assert_eq!(observe(cs, exec), want, "{what}: {name} against {first}");
    }
}

/// The SC, ASC and minimal set of a weave of `ds`.
fn check_weave(ds: &dscweaver_core::DependencySet, what: &str) {
    let out = Weaver::new().run(ds).expect("weaves");
    let derived = ExecConditions::derive(&out.sc);
    let sup = ExecConditions::derive(&superset(&out.sc));
    for (set, cs) in [
        ("sc", &*out.sc),
        ("asc", &*out.asc),
        ("minimal", &out.minimal),
    ] {
        let own = ExecConditions::derive(cs);
        let mut execs = vec![
            ("weave", &out.exec),
            ("derive(sc)", &derived),
            ("superset", &sup),
        ];
        if set != "minimal" {
            // The minimal set lost control relations; its own derivation
            // is a different (weaker) condition.
            execs.push(("derive(cs)", &own));
        }
        assert_exec_independent(cs, &execs, &format!("{what} {set}"));
    }
}

#[test]
fn executors_ignore_where_exec_comes_from_on_seeded_workloads() {
    for seed in [3u64, 42] {
        let params = LayeredParams {
            width: 5,
            depth: 8,
            density: 0.3,
            redundant: 30,
            guards: 3,
            seed,
        };
        check_weave(&layered(&params), &format!("layered seed {seed}"));
        let params = DenseConditionalParams {
            guards: 4,
            chain_len: 3,
            redundant: 12,
            seed,
        };
        check_weave(
            &dense_conditional(&params),
            &format!("dense_conditional seed {seed}"),
        );
        check_weave(&service_mesh(3, seed), &format!("service_mesh seed {seed}"));
    }
    check_weave(&purchasing_dependencies(), "purchasing");
}

#[test]
fn executors_ignore_where_exec_comes_from_on_edge_cases() {
    let base = || {
        let mut cs = ConstraintSet::new("edges");
        for a in ["g", "x", "y", "z"] {
            cs.add_activity(a);
        }
        cs.add_domain("g", vec!["T".into(), "F".into()]);
        cs.push(Relation::before_if(
            StateRef::finish("g"),
            StateRef::start("x"),
            Condition::new("g", "T"),
            Origin::Control,
        ));
        cs.push(Relation::before_if(
            StateRef::finish("g"),
            StateRef::start("y"),
            Condition::new("g", "F"),
            Origin::Control,
        ));
        cs.push(Relation::before(
            StateRef::finish("x"),
            StateRef::start("z"),
            Origin::Data,
        ));
        cs.push(Relation::before(
            StateRef::finish("y"),
            StateRef::start("z"),
            Origin::Data,
        ));
        cs
    };
    let mut cases = Vec::new();
    let mut cs = base();
    cs.push(Relation::before(
        StateRef::finish("ghost"),
        StateRef::start("z"),
        Origin::Data,
    ));
    cs.push(Relation::before(
        StateRef::run("z"),
        StateRef::finish("elsewhere"),
        Origin::Data,
    ));
    cases.push(("undeclared endpoints", cs));
    let mut cs = base();
    cs.push(Relation::before_if(
        StateRef::finish("g"),
        StateRef::start("z"),
        Condition::new("g", "MAYBE"),
        Origin::Control,
    ));
    cases.push(("undeclared guard value", cs));
    let mut cs = base();
    cs.push(Relation::Exclusive {
        a: StateRef::run("x"),
        b: StateRef::run("z"),
        origin: Origin::Cooperation,
    });
    cases.push(("exclusive pair", cs));
    for (what, cs) in &cases {
        let own = ExecConditions::derive(cs);
        let sup = ExecConditions::derive(&superset(cs));
        let base_exec = ExecConditions::derive(&base());
        let mut execs = vec![("derive(cs)", &own), ("superset", &sup)];
        if *what != "undeclared guard value" {
            // Only the extra control relation changes exec conditions.
            execs.push(("derive(base)", &base_exec));
        }
        assert_exec_independent(cs, &execs, what);
    }
}
