//! Property tests for the wavefront DES scheduler: on seeded workloads the
//! agenda engine must produce byte-identical traces for any thread count,
//! reproduce the legacy rescan engine's trace exactly, and never spend
//! more constraint checks than the rescan it replaces. The `kernel_edges`
//! module pins the integer kernel's edge cases to the rescan oracle.

use dscweaver_core::{merge, translate_services, ExecConditions};
use dscweaver_prng::Rng;
use dscweaver_scheduler::{simulate, simulate_rescan_baseline, Schedule, SimConfig};
use dscweaver_workloads::{
    dense_conditional, fork_join, layered, DenseConditionalParams, LayeredParams,
};

/// Prepares an executable (desugared, service-free) constraint set from a
/// dependency set, the same front half the vertical pipeline runs.
fn prepare(ds: &dscweaver_core::DependencySet) -> (dscweaver_dscl::ConstraintSet, ExecConditions) {
    let mut sc = merge(ds);
    sc.desugar_happen_together();
    let exec = ExecConditions::derive(&sc);
    let (asc, _) = translate_services(&sc);
    (asc, exec)
}

fn trace_key(s: &Schedule) -> String {
    format!("{:?} stuck={:?}", s.trace, s.stuck)
}

#[test]
fn wavefront_trace_is_thread_invariant_and_matches_rescan() {
    let mut rng = Rng::seed_from_u64(4242);
    let mut cases: Vec<(String, dscweaver_core::DependencySet)> = Vec::new();
    for seed in [1u64, 23, 77] {
        cases.push((
            format!("layered_{seed}"),
            layered(&LayeredParams {
                width: 5,
                depth: 8,
                density: 0.35,
                redundant: 30,
                guards: 2,
                seed,
            }),
        ));
        cases.push((
            format!("dense_{seed}"),
            dense_conditional(&DenseConditionalParams {
                guards: 4,
                chain_len: 3,
                redundant: 12,
                seed,
            }),
        ));
        cases.push((format!("forkjoin_{seed}"), fork_join(4, 5, 15, seed)));
    }
    for (name, ds) in &cases {
        let (cs, exec) = prepare(ds);
        // Randomized durations and a worker cap exercise the non-monotone
        // commit gates (exclusive partners, worker slots).
        let mut config = SimConfig::default();
        for a in &cs.activities {
            config.durations.set(a, 1 + rng.random_range(9) as u64);
        }
        config.workers = Some(3);
        let base = simulate_rescan_baseline(&cs, &exec, &config);
        assert!(base.completed(), "{name}: rescan stuck {:?}", base.stuck);
        let mut first: Option<Schedule> = None;
        for threads in [1usize, 2, 0] {
            let mut c = config.clone();
            c.threads = threads;
            let wf = simulate(&cs, &exec, &c);
            assert_eq!(
                trace_key(&wf),
                trace_key(&base),
                "{name}: wavefront trace diverged from rescan (threads {threads})"
            );
            assert!(
                wf.constraint_checks <= base.constraint_checks,
                "{name}: agenda spent more checks ({} > {})",
                wf.constraint_checks,
                base.constraint_checks
            );
            if let Some(f) = &first {
                assert_eq!(
                    wf.constraint_checks, f.constraint_checks,
                    "{name}: checks not thread-invariant"
                );
            } else {
                first = Some(wf);
            }
        }
        // The executed trace still satisfies the full constraint set.
        assert!(base.trace.verify(&cs).is_empty(), "{name}");
    }
}

#[test]
fn wavefront_handles_branch_oracles_identically() {
    let ds = dense_conditional(&DenseConditionalParams {
        guards: 4,
        chain_len: 4,
        redundant: 10,
        seed: 6,
    });
    let (cs, exec) = prepare(&ds);
    // Sweep all 16 oracle combinations: dead paths skip, live paths run,
    // and both engines must agree everywhere.
    for bits in 0u32..16 {
        let mut config = SimConfig::default();
        for k in 0..4 {
            let v = if bits & (1 << k) != 0 { "T" } else { "F" };
            config.oracle.insert(format!("g_{k}"), v.to_string());
        }
        let base = simulate_rescan_baseline(&cs, &exec, &config);
        let wf = simulate(&cs, &exec, &config);
        assert_eq!(trace_key(&wf), trace_key(&base), "oracle bits {bits:04b}");
        assert!(base.completed(), "bits {bits:04b} stuck {:?}", base.stuck);
        assert!(base.trace.verify(&cs).is_empty());
    }
}

#[test]
fn wavefront_agrees_with_rescan_on_deadlock_reporting() {
    use dscweaver_dscl::{ConstraintSet, Origin, Relation, StateRef};
    let mut cs = ConstraintSet::new("cycle");
    for a in ["a", "b", "c"] {
        cs.add_activity(a);
    }
    cs.push(Relation::before(
        StateRef::finish("a"),
        StateRef::start("b"),
        Origin::Data,
    ));
    cs.push(Relation::before(
        StateRef::finish("b"),
        StateRef::start("a"),
        Origin::Data,
    ));
    let exec = ExecConditions::derive(&cs);
    let config = SimConfig::default();
    let base = simulate_rescan_baseline(&cs, &exec, &config);
    let wf = simulate(&cs, &exec, &config);
    assert!(!base.completed());
    assert_eq!(wf.stuck, base.stuck);
    assert_eq!(trace_key(&wf), trace_key(&base));
}

mod kernel_edges {
    //! The integer kernel's edge cases, each pinned to the string-keyed
    //! rescan oracle: oracle values outside a guard's domain and oracle
    //! keys naming no guard, conditions on a domain-less activity (its
    //! outcome is `done`), ghost guards (a domain with no activity) and
    //! empty domains, Exclusive partners under a worker cap, Finish-side
    //! prerequisites, HappenTogether coordinators and per-activity
    //! duration overrides.

    use super::trace_key;
    use dscweaver_core::ExecConditions;
    use dscweaver_dscl::{ActivityState, Condition, ConstraintSet, Origin, Relation, StateRef};
    use dscweaver_prng::Rng;
    use dscweaver_scheduler::{
        simulate, simulate_rescan_baseline, EventKind, PreparedSchedule, Schedule, ScheduleTables,
        SimConfig,
    };

    const GUARDS: [&str; 2] = ["g0", "g1"];

    fn state(rng: &mut Rng, a: &str) -> StateRef {
        let st = [ActivityState::Start, ActivityState::Run, ActivityState::Finish];
        StateRef {
            activity: a.into(),
            state: st[rng.random_range(3)],
        }
    }

    /// A seeded constraint set over guards `g0`/`g1` (domain `T`/`F`), an
    /// empty-domain activity `e`, a domain-less activity `d`, the ghost
    /// guard `ghost` (a domain, no activity) and 5–12 plain activities.
    /// Relations point forward in declaration order, so most runs
    /// complete; conditions draw on every guard kind and on values
    /// outside the domains.
    pub fn edge_set(seed: u64) -> (ConstraintSet, ExecConditions) {
        let mut rng = Rng::seed_from_u64(seed);
        let mut cs = ConstraintSet::new(format!("edges_{seed}"));
        let mut order: Vec<String> = GUARDS.iter().map(|g| g.to_string()).collect();
        order.push("d".into());
        order.push("e".into());
        for k in 0..5 + rng.random_range(8) {
            order.push(format!("a{k:02}"));
        }
        for a in &order {
            cs.add_activity(a.clone());
        }
        for g in GUARDS {
            cs.add_domain(g, vec!["T".into(), "F".into()]);
        }
        cs.add_domain("e", Vec::new());
        cs.add_domain("ghost", vec!["T".into(), "F".into()]);
        let conds: [(&str, &str); 12] = [
            ("g0", "T"),
            ("g0", "F"),
            ("g0", "T"),
            ("g1", "T"),
            ("g1", "F"),
            ("g1", "X"),
            ("d", "done"),
            ("d", "T"),
            ("e", "done"),
            ("e", "T"),
            ("g1", "F"),
            ("ghost", "T"),
        ];
        let n = order.len();
        for _ in 0..n + rng.random_range(2 * n) {
            let i = rng.random_range(n - 1);
            let j = i + 1 + rng.random_range(n - 1 - i);
            let from = state(&mut rng, &order[i]);
            let to = state(&mut rng, &order[j]);
            let r = if rng.random_bool(0.25) {
                let (g, v) = conds[rng.random_range(conds.len())];
                Relation::before_if(from, to, Condition::new(g, v), Origin::Data)
            } else {
                Relation::before(from, to, Origin::Data)
            };
            cs.push(r);
        }
        // Control dependencies give the plain activities execution
        // conditions (the ghost guard's never decides: stuck).
        for a in &order[4..] {
            if rng.random_bool(0.4) {
                let (g, v) = conds[rng.random_range(conds.len())];
                cs.push(Relation::before_if(
                    StateRef::finish(g),
                    StateRef::start(a.clone()),
                    Condition::new(g, v),
                    Origin::Control,
                ));
            }
        }
        for _ in 0..rng.random_range(3) {
            let (i, j) = (4 + rng.random_range(n - 4), 4 + rng.random_range(n - 4));
            if i != j {
                cs.push(Relation::Exclusive {
                    a: StateRef::run(order[i].clone()),
                    b: StateRef::run(order[j].clone()),
                    origin: Origin::Cooperation,
                });
            }
        }
        for _ in 0..rng.random_range(3) {
            let (i, j) = (4 + rng.random_range(n - 4), 4 + rng.random_range(n - 4));
            if i != j {
                cs.push(Relation::HappenTogether {
                    a: StateRef::start(order[i].clone()),
                    b: StateRef::start(order[j].clone()),
                    cond: None,
                    origin: Origin::Cooperation,
                });
            }
        }
        cs.desugar_happen_together();
        let exec = ExecConditions::derive(&cs);
        (cs, exec)
    }

    /// A seeded run configuration: duration overrides (zero included),
    /// an optional worker cap, and an oracle that may set a guard outside
    /// its domain and names keys that are no guard of the set.
    pub fn edge_config(seed: u64, cs: &ConstraintSet) -> SimConfig {
        let mut rng = Rng::seed_from_u64(seed ^ 0x5eed);
        let mut config = SimConfig::default();
        for a in &cs.activities {
            if rng.random_bool(0.5) {
                config.durations.set(a, rng.random_range(6) as u64);
            }
        }
        config.workers = [None, None, Some(2), Some(3)][rng.random_range(4)];
        for g in GUARDS {
            if rng.random_bool(0.7) {
                let v = ["T", "F", "X"][rng.random_range(3)];
                config.oracle.insert(g.into(), v.into());
            }
        }
        for key in ["d", "ghost", "nosuch"] {
            if rng.random_bool(0.5) {
                config.oracle.insert(key.into(), "T".into());
            }
        }
        config
    }

    fn check(cs: &ConstraintSet, exec: &ExecConditions, config: &SimConfig) -> Schedule {
        let base = simulate_rescan_baseline(cs, exec, config);
        let wf = simulate(cs, exec, config);
        let tables = ScheduleTables::derive(cs, exec);
        let replay = PreparedSchedule::with_tables(cs, exec, &tables).run(config);
        assert_eq!(trace_key(&wf), trace_key(&base), "{}: diverged from rescan", cs.name);
        assert_eq!(trace_key(&replay), trace_key(&wf), "{}: replay diverged", cs.name);
        assert_eq!(replay.constraint_checks, wf.constraint_checks, "{}", cs.name);
        wf
    }

    #[test]
    fn seeded_edge_sets_match_rescan() {
        let (mut stuck, mut completed, mut outside) = (0, 0, 0);
        for seed in 0..96u64 {
            let (cs, exec) = edge_set(seed);
            let config = edge_config(seed, &cs);
            let s = check(&cs, &exec, &config);
            if s.completed() {
                completed += 1;
            } else {
                stuck += 1;
            }
            if s.trace.events.iter().any(|e| e.value.as_deref() == Some("X")) {
                outside += 1;
            }
        }
        // The seeds reach both outcomes and the out-of-domain oracle.
        assert!(stuck > 0 && completed > 0, "stuck {stuck}, completed {completed}");
        assert!(outside > 0);
    }

    fn guard_branch(cs: &mut ConstraintSet, g: &str, v: &str, a: &str) {
        cs.push(Relation::before_if(
            StateRef::finish(g),
            StateRef::start(a),
            Condition::new(g, v),
            Origin::Control,
        ));
    }

    #[test]
    fn guard_kinds_decide_as_in_the_rescan() {
        let mut cs = ConstraintSet::new("guard_kinds");
        for a in ["d", "e", "g", "x_done", "x_dt", "x_e", "x_ghost", "x_gt", "x_gf"] {
            cs.add_activity(a);
        }
        cs.add_domain("g", vec!["T".into(), "F".into()]);
        cs.add_domain("e", Vec::new());
        cs.add_domain("ghost", vec!["T".into()]);
        guard_branch(&mut cs, "d", "done", "x_done");
        guard_branch(&mut cs, "d", "T", "x_dt");
        guard_branch(&mut cs, "e", "done", "x_e");
        guard_branch(&mut cs, "ghost", "T", "x_ghost");
        guard_branch(&mut cs, "g", "T", "x_gt");
        guard_branch(&mut cs, "g", "F", "x_gf");
        let exec = ExecConditions::derive(&cs);

        let mut config = SimConfig::default();
        config.oracle.insert("g".into(), "X".into());
        config.oracle.insert("nosuch".into(), "T".into());
        config.oracle.insert("d".into(), "T".into());
        let s = check(&cs, &exec, &config);
        // A domain-less activity produces `done` (the oracle cannot change
        // that); an empty domain produces `done` too, on the trace.
        assert!(s.trace.executed("x_done"));
        assert!(s.trace.skipped("x_dt"));
        assert!(s.trace.executed("x_e"));
        let value = |a: &str| {
            let e = s.trace.events.iter().find(|e| e.activity == a && e.kind == EventKind::Finish);
            e.and_then(|e| e.value.clone())
        };
        assert_eq!(value("d"), None);
        assert_eq!(value("e"), Some("done".into()));
        // An oracle value outside the domain stays in the trace and
        // matches no condition.
        assert_eq!(value("g"), Some("X".into()));
        assert!(s.trace.skipped("x_gt") && s.trace.skipped("x_gf"));
        // The ghost guard never decides.
        assert_eq!(s.stuck, vec!["x_ghost".to_string()]);
    }

    #[test]
    fn exclusives_under_a_worker_cap_and_blocked_finishes() {
        let mut cs = ConstraintSet::new("excl_cap");
        for a in ["p", "q", "r", "s", "z"] {
            cs.add_activity(a);
        }
        for (x, y) in [("p", "q"), ("q", "r")] {
            cs.push(Relation::Exclusive {
                a: StateRef::run(x),
                b: StateRef::run(y),
                origin: Origin::Cooperation,
            });
        }
        // S(z) → F(s) and F(z) → F(p): s and p reach their natural finish
        // first and wait on the finish-blocked path.
        cs.push(Relation::before(StateRef::finish("r"), StateRef::start("z"), Origin::Data));
        cs.push(Relation::before(StateRef::start("z"), StateRef::finish("s"), Origin::Data));
        cs.push(Relation::before(StateRef::finish("z"), StateRef::finish("p"), Origin::Data));
        let exec = ExecConditions::derive(&cs);
        for workers in [None, Some(1), Some(2), Some(3)] {
            let mut config = SimConfig {
                workers,
                ..Default::default()
            };
            config.durations.set("r", 4);
            config.durations.set("z", 3);
            let s = check(&cs, &exec, &config);
            // Finish-blocked p (and s) give their workers back at their
            // natural finish, so z gets one under every cap.
            assert!(s.completed(), "workers {workers:?}: {:?}", s.stuck);
            assert!(s.trace.verify(&cs).is_empty());
            assert!(s.trace.verify_exclusives(&cs).is_empty());
            // p's natural finish (t=1) waited for F(z).
            let p_fin = s.trace.occurrence(&StateRef::finish("p")).unwrap().0;
            assert!(p_fin >= s.trace.occurrence(&StateRef::finish("z")).unwrap().0);
        }
    }

    /// Without Exclusive relations readiness is monotone and every worker
    /// comes back at a natural finish, so a set that completes uncapped
    /// completes under every cap, in both engines (`check` pins them to
    /// each other). Exclusive holds are the documented exception: a cap
    /// can change which partner starts first.
    #[test]
    fn sets_that_complete_uncapped_complete_under_every_cap() {
        // Capped runs in which some completion was deferred past its
        // natural finish.
        let mut deferred = 0;
        for seed in 0..96u64 {
            let (mut cs, _) = edge_set(seed);
            cs.relations.retain(|r| !matches!(r, Relation::Exclusive { .. }));
            let exec = ExecConditions::derive(&cs);
            let mut config = edge_config(seed, &cs);
            // Long runs make finish-side prerequisites defer completions.
            for a in cs.activities.clone() {
                if !a.starts_with("__sync") && seed % 2 == 0 {
                    config.durations.set(&a, 1 + (a.len() as u64 * seed) % 5);
                }
            }
            config.workers = None;
            if !check(&cs, &exec, &config).completed() {
                continue;
            }
            for cap in 1..=3 {
                config.workers = Some(cap);
                let s = check(&cs, &exec, &config);
                assert!(s.completed(), "edge set {seed} cap {cap}: {:?}", s.stuck);
                assert!(s.trace.verify(&cs).is_empty(), "edge set {seed} cap {cap}");
                let started = |a: &str| s.trace.occurrence(&StateRef::start(a)).map(|o| o.0);
                deferred += s.trace.events.iter().any(|e| {
                    let natural = started(&e.activity).map(|t| t + config.durations.of(&e.activity));
                    e.kind == EventKind::Finish && natural.is_some_and(|t| e.time > t)
                }) as usize;
            }
        }
        assert!(deferred > 30, "only {deferred} capped runs deferred a finish");
    }

    #[test]
    fn coordinators_and_duration_overrides() {
        let mut cs = ConstraintSet::new("coordinators");
        for a in ["a", "b", "c", "d"] {
            cs.add_activity(a);
        }
        cs.push(Relation::before(StateRef::finish("a"), StateRef::start("b"), Origin::Data));
        for (x, y) in [("b", "c"), ("c", "d")] {
            cs.push(Relation::HappenTogether {
                a: StateRef::start(x),
                b: StateRef::start(y),
                cond: None,
                origin: Origin::Cooperation,
            });
        }
        cs.desugar_happen_together();
        assert!(cs.activities.iter().any(|a| a.starts_with("__sync")));
        let exec = ExecConditions::derive(&cs);
        for workers in [None, Some(1)] {
            let mut config = SimConfig {
                workers,
                ..Default::default()
            };
            config.durations.set("a", 5);
            config.durations.set("c", 0);
            // An override on a coordinator is ignored: it takes 0.
            for a in cs.activities.clone() {
                if a.starts_with("__sync") {
                    config.durations.set(&a, 9);
                }
            }
            let s = check(&cs, &exec, &config);
            assert!(s.completed(), "{:?}", s.stuck);
            if workers.is_none() {
                let at = |a: &str| s.trace.occurrence(&StateRef::start(a)).unwrap().0;
                assert_eq!([at("b"), at("c"), at("d")], [5, 5, 5]);
            }
        }
    }

    #[test]
    fn constraint_checks_match_recorded_values() {
        // Recorded from the string-keyed wavefront engine this kernel
        // replaced: the agenda must spend exactly the same checks. Edge
        // set 6 runs under a cap of 3 with a finish-blocked activity,
        // whose worker frees at its natural finish so that `a05` starts
        // a tick earlier: its count is the kernel's own.
        let recorded: [(u64, u64); 6] = [(1, 62), (2, 71), (5, 54), (6, 85), (9, 47), (11, 83)];
        for (seed, checks) in recorded {
            let (cs, exec) = edge_set(seed);
            let s = simulate(&cs, &exec, &edge_config(seed, &cs));
            assert_eq!(s.constraint_checks, checks, "edge set {seed}");
        }
    }
}
