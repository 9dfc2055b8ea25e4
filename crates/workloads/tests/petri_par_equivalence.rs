//! Property tests pinning the parallel Petri validation paths
//! bit-identical to their oracles, on seeded workloads:
//!
//! * `validate` (the lane kernel) and `CompiledValidation::run_scalar`
//!   (one scalar run per assignment) with `threads ∈ {1, 2, auto}` must
//!   produce the same report as the test-side reference enumeration over
//!   the `run_to_quiescence` oracle, with failures in
//!   assignment-lexicographic order;
//! * `run_to_quiescence_wavefront` must replay `run_to_quiescence`'s
//!   firing sequence exactly, on lowered nets and on seeded raw colored
//!   nets.

mod common;

use common::{ghost_guards, reference, Reference};
use dscweaver_core::{ExecConditions, Weaver};
use dscweaver_dscl::{ConstraintSet, Name};
use dscweaver_petri::{
    assignment_chooser, lower, run_to_quiescence, run_to_quiescence_wavefront, validate, ArcIn,
    ArcOut, Color, ColorFilter, CompiledValidation, Mode, Net, PlaceId, ValidateOptions,
};
use dscweaver_prng::Rng;
use dscweaver_workloads::{dense_conditional, DenseConditionalParams};
use std::collections::HashMap;

/// The three 5-guard `dense_conditional` nets the report-level tests use.
fn dense5() -> Vec<(u64, ConstraintSet, ExecConditions)> {
    [3u64, 17, 91]
        .into_iter()
        .map(|seed| {
            let ds = dense_conditional(&DenseConditionalParams {
                guards: 5,
                chain_len: 3,
                redundant: 16,
                seed,
            });
            let out = Weaver::new().run(&ds).unwrap();
            (seed, out.minimal, out.exec)
        })
        .collect()
}

#[test]
fn validate_report_is_thread_invariant_on_clean_workloads() {
    for (seed, cs, exec) in dense5() {
        let reference = reference(&cs, &exec, 4096);
        assert!(reference.failures.is_empty(), "seed {seed}: {:?}", reference.failures);
        assert_eq!(reference.checked, 32);
        let compiled = CompiledValidation::compile(&cs, &exec);
        for threads in [1usize, 2, 0] {
            let opts = ValidateOptions {
                threads,
                ..Default::default()
            };
            let par = validate(&cs, &exec, &opts);
            assert_eq!(Reference::of(&par), reference, "seed {seed} threads {threads}");
            let scalar = compiled.run_scalar(&opts);
            assert_eq!(Reference::of(&scalar), reference, "seed {seed} threads {threads} scalar");
        }
    }
}

/// Three ghost guards make every branch assignment fail — 8 failures,
/// all re-run from the lanes on the scalar kernel, whose order must be
/// exactly assignment-lexicographic for any thread count.
#[test]
fn failure_merge_order_is_lexicographic_and_thread_invariant() {
    let cs = ghost_guards();
    let exec = ExecConditions::derive(&cs);
    let reference = reference(&cs, &exec, 4096);
    assert_eq!(reference.checked, 8);
    assert_eq!(reference.failures.len(), 8, "every assignment deadlocks");
    let compiled = CompiledValidation::compile(&cs, &exec);
    for threads in [1usize, 2, 0] {
        let opts = ValidateOptions {
            threads,
            // Pin the full 2^3 enumeration: the three ghost guards are
            // provably independent, so factoring would shrink it.
            factor: false,
            ..Default::default()
        };
        let got = validate(&cs, &exec, &opts);
        assert_eq!(Reference::of(&got), reference, "threads {threads}");
        assert_eq!(Reference::of(&compiled.run_scalar(&opts)), reference, "threads {threads} scalar");
    }
}

/// Asserts the wavefront replays the rescan oracle's run exactly.
fn assert_replays_oracle(net: &Net, assignment: &HashMap<String, String>, what: &str) {
    let a = run_to_quiescence(net, assignment_chooser(assignment), 1_000_000);
    let b = run_to_quiescence_wavefront(net, assignment_chooser(assignment), 1_000_000);
    assert_eq!(a.diverged, b.diverged, "{what}");
    assert_eq!(a.trace, b.trace, "firing sequence diverged ({what})");
    assert_eq!(a.final_marking, b.final_marking, "{what}");
}

#[test]
fn wavefront_quiescence_replays_rescan_firing_sequence() {
    let mut rng = Rng::seed_from_u64(77);
    for seed in [2u64, 13, 40] {
        let ds = dense_conditional(&DenseConditionalParams {
            guards: 4,
            chain_len: 4,
            redundant: 10,
            seed,
        });
        let out = Weaver::new().run(&ds).unwrap();
        let net = lower(&out.minimal, &out.exec).net;
        // A handful of random branch assignments per net.
        for _ in 0..5 {
            let assignment: HashMap<String, String> = (0..4)
                .map(|k| {
                    let v = if rng.random_bool(0.5) { "T" } else { "F" };
                    (format!("finish(g_{k})"), v.to_string())
                })
                .collect();
            assert_replays_oracle(&net, &assignment, &format!("seed {seed}"));
        }
    }
    // Every branch assignment of the nets the report-level tests validate:
    // 32 per 5-guard dense net, 8 (all failing) for the ghost guards.
    let ghosts = ghost_guards();
    let ghost_exec = ExecConditions::derive(&ghosts);
    let nets = dense5()
        .into_iter()
        .map(|(seed, cs, exec)| (format!("dense seed {seed}"), cs, exec))
        .chain([("ghosts".to_string(), ghosts, ghost_exec)]);
    for (what, cs, exec) in nets {
        let net = lower(&cs, &exec).net;
        let guards: Vec<&Name> = cs.domains.keys().collect();
        for bits in 0u32..1 << guards.len() {
            let assignment: HashMap<String, String> = guards
                .iter()
                .enumerate()
                .map(|(k, g)| {
                    let v = if bits & (1 << k) != 0 { "F" } else { "T" };
                    (format!("finish({g})"), v.to_string())
                })
                .collect();
            assert_replays_oracle(&net, &assignment, &format!("{what} bits {bits:b}"));
        }
    }
}

/// A small random colored net: multi-mode transitions, input places
/// shared between arcs and transitions, `Any`/`Eq`/`OneOf` filters, and
/// colors whose byte order differs from their first use ("•" sorts after
/// every ASCII color).
fn random_net(rng: &mut Rng) -> Net {
    const COLORS: [&str; 6] = ["•", "skip", "T", "F", "done", "a"];
    let color = |rng: &mut Rng| Color::of(COLORS[rng.random_range(COLORS.len())]);
    let mut net = Net::default();
    let places = 2 + rng.random_range(5);
    for p in 0..places {
        net.add_place(format!("p{p}"));
    }
    for t in 0..1 + rng.random_range(6) {
        let modes = (0..1 + rng.random_range(3))
            .map(|m| Mode {
                label: format!("m{m}"),
                inputs: (0..1 + rng.random_range(3))
                    .map(|_| ArcIn {
                        place: PlaceId(rng.random_range(places) as u32),
                        filter: match rng.random_range(3) {
                            0 => ColorFilter::Any,
                            1 => ColorFilter::Eq(color(rng)),
                            _ => ColorFilter::OneOf((0..1 + rng.random_range(3)).map(|_| color(rng)).collect()),
                        },
                    })
                    .collect(),
                outputs: (0..rng.random_range(3))
                    .map(|_| ArcOut {
                        place: PlaceId(rng.random_range(places) as u32),
                        color: color(rng),
                    })
                    .collect(),
            })
            .collect();
        net.add_transition(format!("t{t}"), modes);
    }
    for _ in 0..rng.random_range(10) {
        let p = PlaceId(rng.random_range(places) as u32);
        net.initial.add(p, color(rng));
    }
    net
}

#[test]
fn wavefront_replays_rescan_on_random_colored_nets() {
    let mut rng = Rng::seed_from_u64(0x5eed);
    for case in 0..1000 {
        let net = random_net(&mut rng);
        let max_steps = [3usize, 25, 200][case % 3];
        // A stateful chooser: the engines must consult it at the same
        // points in the same order to pick the same modes.
        let chooser = || {
            let mut calls = 0usize;
            move |_: &Net, _, enabled: &[usize]| {
                calls += 1;
                enabled[calls % enabled.len()]
            }
        };
        let a = run_to_quiescence(&net, chooser(), max_steps);
        let b = run_to_quiescence_wavefront(&net, chooser(), max_steps);
        assert_eq!(a.trace, b.trace, "case {case}: {net:?}");
        assert_eq!(a.final_marking, b.final_marking, "case {case}");
        assert_eq!(a.diverged, b.diverged, "case {case}");
    }
}
