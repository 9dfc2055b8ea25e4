//! The optimized minimizer (interned annotations + bitset prefilters)
//! must be **edge-for-edge identical** to the structural reference
//! implementation — same removals, in the same order — for every
//! equivalence mode and removal order, on arbitrary layered / fork-join
//! workloads with conditional constraints. The minimizer runs on one
//! thread; the suites still sweep the ignored `threads` option over
//! {1, 8} to pin that it cannot change the result.

use dscweaver::core::{
    merge, minimize_generic_baseline, minimize_generic_with, minimize_unconditional_fast,
    translate_services, EdgeOrder, EquivalenceMode, ExecConditions, MinimizeOptions,
};
use dscweaver::dscl::ConstraintSet;
use dscweaver::workloads::{fork_join, layered, LayeredParams};
use dscweaver_prng::Rng;

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
                    let opts = MinimizeOptions {
                        threads,
                        ..Default::default()
                    };
                    let eng = minimize_generic_with(&asc, &exec, mode, &order, &opts).unwrap();
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
/// still agree with the structural reference AND the transitive-reduction
/// fast path).
#[test]
fn engine_matches_baseline_and_fast_path_on_fork_join() {
    let mut rng = Rng::seed_from_u64(0xE002);
    for case in 0..16 {
        let width = 1 + rng.random_range(5);
        let chain = 1 + rng.random_range(5);
        let ds = fork_join(width, chain, rng.random_range(20), rng.next_u64());
        let (asc, exec) = prepared(&ds);
        for order in orders() {
            let base =
                minimize_generic_baseline(&asc, &exec, EquivalenceMode::Strict, &order).unwrap();
            let eng = minimize_generic_with(
                &asc,
                &exec,
                EquivalenceMode::Strict,
                &order,
                &MinimizeOptions::default(),
            )
            .unwrap();
            assert_eq!(removed_list(&eng), removed_list(&base), "case {case}");
            // Same minimal set as the dedicated transitive-reduction path.
            let fast = minimize_unconditional_fast(&asc, &order).unwrap();
            let kept = |r: &dscweaver::core::MinimizeResult| {
                let mut v: Vec<String> =
                    r.minimal.happen_befores().map(|x| x.to_string()).collect();
                v.sort();
                v
            };
            assert_eq!(kept(&eng), kept(&fast), "case {case} vs fast path");
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
    let reference = minimize_generic_with(
        &asc,
        &exec,
        EquivalenceMode::ExecutionAware,
        &order,
        &MinimizeOptions {
            threads: 1,
            ..Default::default()
        },
    )
    .unwrap();
    for _ in 0..5 {
        for threads in [1usize, 8] {
            let run = minimize_generic_with(
                &asc,
                &exec,
                EquivalenceMode::ExecutionAware,
                &order,
                &MinimizeOptions {
                    threads,
                    ..Default::default()
                },
            )
            .unwrap();
            assert_eq!(removed_list(&run), removed_list(&reference), "threads {threads}");
        }
    }
}
