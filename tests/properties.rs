//! Property-based, cross-crate invariants: for arbitrary generated
//! workloads, the optimizer + validator + scheduler must uphold the
//! paper's contracts. Cases are generated with the in-repo deterministic
//! PRNG (`dscweaver-prng`) — every failure reproduces from the printed
//! case index.

use dscweaver::core::{minimize, EdgeOrder, EquivalenceMode, Weaver};
use dscweaver::dscl::SyncGraph;
use dscweaver::graph::transitive_closure;
use dscweaver::petri::{validate, ValidateOptions};
use dscweaver::scheduler::{simulate, SimConfig};
use dscweaver::workloads::{fork_join, layered, service_mesh, LayeredParams};
use dscweaver_prng::Rng;

/// A random layered workload; mirrors the old proptest strategy's ranges.
fn random_layered(rng: &mut Rng) -> dscweaver::core::DependencySet {
    layered(&LayeredParams {
        width: 2 + rng.random_range(3),
        depth: 2 + rng.random_range(3),
        density: 0.5,
        redundant: rng.random_range(12),
        guards: rng.random_range(3),
        seed: rng.next_u64(),
    })
}

/// The pipeline's minimal set is transitive-equivalent to the ASC:
/// the plain reachability over internal activities is identical, and
/// re-minimizing removes nothing (local minimality, Definition 6).
#[test]
fn minimal_set_invariants() {
    let mut rng = Rng::seed_from_u64(0xA001);
    for case in 0..48 {
        let ds = random_layered(&mut rng);
        let out = Weaver::new().run(&ds).unwrap();
        // Local minimality.
        let again = minimize(
            &out.minimal,
            &out.exec,
            EquivalenceMode::ExecutionAware,
            &EdgeOrder::default(),
        )
        .unwrap();
        assert!(
            again.removed.is_empty(),
            "case {case}: re-removal: {:?}",
            again.removed
        );

        // Reachability preservation (weaker than the full annotated check,
        // but independently computed here as an oracle).
        let g_full = SyncGraph::build(&out.asc);
        let g_min = SyncGraph::build(&out.minimal);
        let c_full = transitive_closure(&g_full.graph).unwrap();
        let c_min = transitive_closure(&g_min.graph).unwrap();
        // Node ids coincide: both graphs are built from the same activity
        // set in the same order.
        assert_eq!(g_full.graph.node_count(), g_min.graph.node_count());
        for n in g_full.graph.node_ids() {
            let full_row: Vec<usize> = c_full.row(n).iter().collect();
            let min_row: Vec<usize> = c_min.row(n).iter().collect();
            assert_eq!(full_row, min_row, "case {case}: closure changed at {n:?}");
        }
    }
}

/// Scheduling with the minimal set satisfies every constraint of the
/// full ASC, across all branch assignments.
#[test]
fn minimal_schedule_satisfies_full_asc() {
    let mut rng = Rng::seed_from_u64(0xA002);
    for case in 0..48 {
        let ds = random_layered(&mut rng);
        let flip = rng.random_bool(0.5);
        let out = Weaver::new().run(&ds).unwrap();
        let mut sim = SimConfig::default();
        for g in out.asc.domains.keys() {
            sim.oracle
                .insert(g.to_string(), if flip { "T".into() } else { "F".into() });
        }
        let sched = simulate(&out.minimal, &out.exec, &sim);
        assert!(sched.completed(), "case {case}: stuck: {:?}", sched.stuck);
        let violations = sched.trace.verify(&out.asc);
        assert!(violations.is_empty(), "case {case}: {violations:?}");
        // And the makespans of minimal vs full agree.
        let full = simulate(&out.asc, &out.exec, &sim);
        assert_eq!(full.trace.makespan(), sched.trace.makespan(), "case {case}");
        assert!(sched.constraint_checks <= full.constraint_checks);
    }
}

/// Petri validation passes on optimizer output and the scheduler's
/// completion agrees with the net's quiescence verdict.
#[test]
fn petri_agrees_with_scheduler() {
    let mut rng = Rng::seed_from_u64(0xA003);
    for case in 0..32 {
        let ds = random_layered(&mut rng);
        let out = Weaver::new().run(&ds).unwrap();
        let report = validate(&out.minimal, &out.exec, &ValidateOptions::default());
        assert!(report.ok(), "case {case}: {report:#?}");
    }
}

/// Strict ⊇ ExecutionAware ⊇ Reachability: more permissive modes never
/// keep more constraints.
#[test]
fn mode_monotonicity() {
    let mut rng = Rng::seed_from_u64(0xA004);
    for case in 0..32 {
        let ds = random_layered(&mut rng);
        let count = |mode: EquivalenceMode| {
            Weaver {
                mode,
                order: EdgeOrder::default(),
                ..Weaver::default()
            }
            .run(&ds)
            .unwrap()
            .minimal
            .constraint_count()
        };
        let strict = count(EquivalenceMode::Strict);
        let aware = count(EquivalenceMode::ExecutionAware);
        let reach = count(EquivalenceMode::Reachability);
        assert!(strict >= aware, "case {case}: strict {strict} < aware {aware}");
        assert!(aware >= reach, "case {case}: aware {aware} < reach {reach}");
    }
}

/// Service translation drops every service node and preserves the
/// closure projected onto internal activities.
#[test]
fn translation_preserves_internal_reachability() {
    let mut rng = Rng::seed_from_u64(0xA005);
    for case in 0..24 {
        let n = 1 + rng.random_range(11);
        let ds = service_mesh(n, rng.next_u64());
        let out = Weaver::new().run(&ds).unwrap();
        assert!(out.asc.services.is_empty());
        // Internal-to-internal reachability of SC ⊆ ASC (the translation
        // may only realize, never lose, orderings between internal
        // activities).
        let mut sc = (*out.sc).clone();
        sc.desugar_happen_together();
        let g_sc = SyncGraph::build(&sc);
        let g_asc = SyncGraph::build(&out.asc);
        let c_sc = transitive_closure(&g_sc.graph).unwrap();
        let c_asc = transitive_closure(&g_asc.graph).unwrap();
        use dscweaver::dscl::ActivityState;
        for a in &out.asc.activities {
            for b in &out.asc.activities {
                let (sa, sb) = (
                    g_sc.state_node(a, ActivityState::Finish).unwrap(),
                    g_sc.state_node(b, ActivityState::Start).unwrap(),
                );
                let (ta, tb) = (
                    g_asc.state_node(a, ActivityState::Finish).unwrap(),
                    g_asc.state_node(b, ActivityState::Start).unwrap(),
                );
                if c_sc.reaches(sa, sb) {
                    assert!(
                        c_asc.reaches(ta, tb),
                        "case {case}: SC orders {a} -> {b} but ASC does not"
                    );
                }
            }
        }
    }
}

/// Fork-join: the skeleton always survives, injected redundancy always
/// goes, regardless of parameters.
#[test]
fn fork_join_reduction_exact() {
    let mut rng = Rng::seed_from_u64(0xA006);
    for case in 0..48 {
        let width = 1 + rng.random_range(5);
        let chain = 1 + rng.random_range(5);
        let redundant = rng.random_range(15);
        let ds = fork_join(width, chain, redundant, rng.next_u64());
        let out = Weaver::new().run(&ds).unwrap();
        assert_eq!(
            out.minimal.constraint_count(),
            width * (chain + 1),
            "case {case}"
        );
        assert!(out.total_removed() >= redundant, "case {case}");
    }
}

/// Every pipeline stage's constraint set round-trips through the DSCL
/// text syntax.
#[test]
fn dscl_round_trip_all_stages() {
    let mut rng = Rng::seed_from_u64(0xA007);
    for case in 0..32 {
        let ds = random_layered(&mut rng);
        let out = Weaver::new().run(&ds).unwrap();
        let mut sc = (*out.sc).clone();
        sc.desugar_happen_together();
        for cs in [&sc, &out.asc, &out.minimal] {
            let text = cs.to_dscl();
            let back = dscweaver::dscl::parse_constraints(&text).unwrap();
            assert_eq!(&back, cs, "case {case}");
        }
    }
}
