//! The optimized minimizer (interned annotations + bitset prefilters)
//! must be **edge-for-edge identical** to the structural reference
//! implementation — same removals, in the same order — for every
//! equivalence mode and removal order, on arbitrary layered workloads
//! with conditional constraints and unconditional fork-join ones. The
//! minimizer runs on one
//! thread; the suites still sweep the ignored `threads` option over
//! {1, 8} to pin that it cannot change the result.

use dscweaver::core::{
    merge, minimize_generic_baseline, minimize_with, translate_services, EdgeOrder,
    EquivalenceMode, ExecConditions, MinimizeOptions,
};
use dscweaver::dscl::{Condition, ConstraintSet, Origin, Relation, StateRef};
use dscweaver::workloads::{
    dense_conditional, fork_join, layered, purchasing_dependencies, service_mesh,
    settlement_constraints, DenseConditionalParams, LayeredParams,
};
use dscweaver_prng::Rng;

#[path = "../crates/core/tests/oracle/mod.rs"]
mod oracle;

fn prepared(ds: &dscweaver::core::DependencySet) -> (ConstraintSet, ExecConditions) {
    let mut sc = merge(ds);
    sc.desugar_happen_together();
    let exec = ExecConditions::derive(&sc);
    let (asc, _) = translate_services(&sc);
    (asc, exec)
}

fn removed_list(r: &dscweaver::core::MinimizeResult) -> Vec<String> {
    r.removed.iter().map(|x| x.to_string()).collect()
}

const MODES: [EquivalenceMode; 3] = [
    EquivalenceMode::Strict,
    EquivalenceMode::ExecutionAware,
    EquivalenceMode::Reachability,
];

fn orders() -> [EdgeOrder; 3] {
    [EdgeOrder::Given, EdgeOrder::ReverseGiven, EdgeOrder::default()]
}

/// Engine ≡ baseline on layered DAGs with conditional (guarded) edges,
/// across every mode × order × `threads` setting.
#[test]
fn engine_matches_baseline_on_conditional_layered() {
    let mut rng = Rng::seed_from_u64(0xE001);
    for case in 0..16 {
        let ds = layered(&LayeredParams {
            width: 2 + rng.random_range(4),
            depth: 2 + rng.random_range(4),
            density: 0.4,
            redundant: rng.random_range(15),
            guards: 1 + rng.random_range(2), // always conditional
            seed: rng.next_u64(),
        });
        let (asc, exec) = prepared(&ds);
        for mode in MODES {
            for order in orders() {
                let base = minimize_generic_baseline(&asc, &exec, mode, &order).unwrap();
                for threads in [1usize, 8] {
                    let opts = MinimizeOptions { threads };
                    let eng = minimize_with(&asc, &exec, mode, &order, &opts).unwrap();
                    assert_eq!(
                        removed_list(&eng),
                        removed_list(&base),
                        "case {case}: removal sequence diverged \
                         (mode {mode:?}, order {order:?}, threads {threads})"
                    );
                    assert_eq!(eng.kept(), base.kept(), "case {case}");
                    assert_eq!(
                        eng.candidates_checked, base.candidates_checked,
                        "case {case}: engines examined different candidate counts"
                    );
                }
            }
        }
    }
}

/// Engine ≡ baseline on fork-join skeletons with injected redundancy
/// (unconditional inputs — the prefilters must decide every candidate and
/// still agree with the structural reference), across every mode × order.
#[test]
fn engine_matches_baseline_on_fork_join() {
    let mut rng = Rng::seed_from_u64(0xE002);
    for case in 0..16 {
        let width = 1 + rng.random_range(5);
        let chain = 1 + rng.random_range(5);
        let ds = fork_join(width, chain, rng.random_range(20), rng.next_u64());
        let (asc, exec) = prepared(&ds);
        let unconditional = |r: &Relation| matches!(r, Relation::HappenBefore { cond: None, .. });
        assert!(asc.happen_befores().all(unconditional), "case {case}");
        for mode in MODES {
            for order in orders() {
                let base = minimize_generic_baseline(&asc, &exec, mode, &order).unwrap();
                let opts = MinimizeOptions::default();
                let eng = minimize_with(&asc, &exec, mode, &order, &opts).unwrap();
                let at = format!("case {case} (mode {mode:?}, order {order:?})");
                assert_eq!(removed_list(&eng), removed_list(&base), "{at}");
                assert_eq!(eng.kept(), base.kept(), "{at}");
                assert_eq!(eng.candidates_checked, base.candidates_checked, "{at}");
            }
        }
    }
}

/// The ignored `threads` option never changes the result, and repeated
/// runs agree.
#[test]
fn thread_count_is_invisible_across_repeats() {
    let ds = layered(&LayeredParams {
        width: 5,
        depth: 8,
        density: 0.35,
        redundant: 30,
        guards: 3,
        seed: 0xBEEF,
    });
    let (asc, exec) = prepared(&ds);
    let order = EdgeOrder::default();
    let reference = minimize_with(
        &asc,
        &exec,
        EquivalenceMode::ExecutionAware,
        &order,
        &MinimizeOptions { threads: 1 },
    )
    .unwrap();
    for _ in 0..5 {
        for threads in [1usize, 8] {
            let run = minimize_with(
                &asc,
                &exec,
                EquivalenceMode::ExecutionAware,
                &order,
                &MinimizeOptions { threads },
            )
            .unwrap();
            assert_eq!(removed_list(&run), removed_list(&reference), "threads {threads}");
        }
    }
}

/// The merged, desugared set of `ds` — what execution conditions,
/// translation and minimization take.
fn merged(ds: &dscweaver::core::DependencySet) -> ConstraintSet {
    let mut sc = merge(ds);
    sc.desugar_happen_together();
    sc
}

/// Execution conditions, translation and `minimize_with` match their
/// string oracles (see `oracle`) on seeded layered, dense-conditional
/// and fork-join sets, in every mode and order.
#[test]
fn numbered_stages_match_string_oracles_on_seeded_workloads() {
    let mut rng = Rng::seed_from_u64(0xE003);
    for case in 0..6 {
        let ds = layered(&LayeredParams {
            width: 2 + rng.random_range(4),
            depth: 3 + rng.random_range(5),
            density: 0.35,
            redundant: rng.random_range(20),
            guards: rng.random_range(4),
            seed: rng.next_u64(),
        });
        oracle::assert_set_matches(&merged(&ds), &format!("layered case {case}"));
    }
    for seed in [3u64, 19] {
        let ds = dense_conditional(&DenseConditionalParams {
            guards: 3,
            chain_len: 3,
            redundant: 10,
            seed,
        });
        oracle::assert_set_matches(&merged(&ds), &format!("dense seed {seed}"));
    }
    for seed in [7u64, 8] {
        let ds = fork_join(3, 3, 8, seed);
        oracle::assert_set_matches(&merged(&ds), &format!("fork-join seed {seed}"));
    }
}

/// Service sets go through the numbered §4.3 translation: Purchasing's
/// port orderings and callbacks, and a service mesh.
#[test]
fn numbered_stages_match_string_oracles_with_services() {
    oracle::assert_set_matches(&merged(&purchasing_dependencies()), "purchasing");
    for seed in [1u64, 2] {
        oracle::assert_set_matches(&merged(&service_mesh(4, seed)), "service mesh");
    }
}

/// HappenTogether sugar desugars into coordinator activities (with and
/// without a condition on the sugar) before the set is numbered.
#[test]
fn coordinator_activities_match_string_oracles() {
    let mut cs = settlement_constraints();
    cs.desugar_happen_together();
    oracle::assert_set_matches(&cs, "settlement");

    let mut cs = settlement_constraints();
    cs.add_activity("gate");
    cs.add_domain("gate", vec!["Y".into(), "N".into()]);
    cs.push(Relation::before(
        StateRef::finish("recTrigger"),
        StateRef::start("gate"),
        Origin::Data,
    ));
    cs.push(Relation::before_if(
        StateRef::finish("gate"),
        StateRef::start("postFees"),
        Condition::new("gate", "Y"),
        Origin::Control,
    ));
    cs.push(Relation::HappenTogether {
        a: StateRef::finish("postFees"),
        b: StateRef::finish("postInterest"),
        cond: Some(Condition::new("gate", "Y")),
        origin: Origin::Cooperation,
    });
    cs.desugar_happen_together();
    assert!(cs.activities.iter().any(|a| a.starts_with("__sync2")));
    oracle::assert_set_matches(&cs, "conditional settlement");
}

/// Sets `validate` rejects still number: undeclared names are left out
/// of the graph, undeclared guards get the synthetic domain, and values
/// outside a declared domain never hold.
#[test]
fn undeclared_names_guards_and_values_match_string_oracles() {
    let mut cs = ConstraintSet::new("loose");
    for a in ["a", "g", "h", "b", "c", "d"] {
        cs.add_activity(a);
    }
    cs.add_domain("g", vec!["T".into(), "F".into()]);
    let before = |f: &str, t: &str, o: Origin| {
        Relation::before(StateRef::finish(f), StateRef::start(t), o)
    };
    let when = |f: &str, t: &str, g: &str, v: &str| {
        Relation::before_if(
            StateRef::finish(f),
            StateRef::start(t),
            Condition::new(g, v),
            Origin::Control,
        )
    };
    cs.push(before("a", "g", Origin::Data));
    cs.push(before("a", "h", Origin::Data));
    cs.push(when("g", "b", "g", "T"));
    cs.push(when("g", "c", "g", "MAYBE")); // outside g's domain
    cs.push(when("h", "c", "h", "T")); // h has no domain
    cs.push(when("h", "d", "h", "F"));
    cs.push(before("b", "d", Origin::Data));
    cs.push(before("c", "d", Origin::Data));
    cs.push(before("a", "d", Origin::Cooperation));
    cs.push(before("a", "c", Origin::Cooperation));
    cs.push(before("ghost", "b", Origin::Data)); // undeclared source
    cs.push(when("ghost", "a", "ghost", "T")); // undeclared control parent
    cs.push(when("b", "ghost", "g", "T"));
    assert!(!cs.validate().is_empty());
    oracle::assert_set_matches(&cs, "loose");
}

/// Cyclic sets report the same conflict cycle, labels included.
#[test]
fn cyclic_sets_report_the_same_conflict() {
    let mut cs = ConstraintSet::new("cyc");
    for a in ["a", "b", "c", "g"] {
        cs.add_activity(a);
    }
    cs.add_service("Svc");
    cs.add_domain("g", vec!["T".into(), "F".into()]);
    cs.push(Relation::before(StateRef::finish("a"), StateRef::start("b"), Origin::Data));
    cs.push(Relation::before_if(
        StateRef::finish("g"),
        StateRef::start("c"),
        Condition::new("g", "T"),
        Origin::Control,
    ));
    cs.push(Relation::before(StateRef::finish("b"), StateRef::start("c"), Origin::Data));
    cs.push(Relation::before(StateRef::start("c"), StateRef::start("Svc"), Origin::Service));
    cs.push(Relation::before(StateRef::start("Svc"), StateRef::start("a"), Origin::Service));
    cs.push(Relation::before(StateRef::finish("c"), StateRef::start("a"), Origin::Cooperation));
    oracle::assert_set_matches(&cs, "cycle");
}
