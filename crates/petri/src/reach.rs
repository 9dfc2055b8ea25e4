//! The deterministic maximal-step simulator for the conflict-free nets
//! the DSCL lowering produces.
//!
//! It comes in two flavors sharing one result type: the simple
//! full-rescan loop ([`run_to_quiescence`]), kept as the oracle, and the
//! production one ([`run_to_quiescence_wavefront`]) — a dirty-transition
//! worklist over an integer kernel of the net that skips the `O(T)` sweep
//! rescans. The pair is pinned bit-identical (trace for trace, marking
//! for marking) by the `par_equivalence` property tests.

use crate::net::{Marking, Net, TransitionId};
use std::collections::HashMap;

/// Outcome of a deterministic maximal-step run.
#[derive(Clone, Debug)]
pub struct Run {
    /// The quiescent final marking.
    pub final_marking: Marking,
    /// Transitions fired, in firing order, with the mode label.
    pub trace: Vec<(TransitionId, String)>,
    /// True if the step budget ran out before quiescence (livelock/cycle).
    pub diverged: bool,
}

/// Runs the net to quiescence, repeatedly firing any enabled transition.
///
/// `choose_mode` resolves nondeterministic *choices* (a transition with
/// several enabled modes — the lowering's branch environments): it
/// receives the transition and the enabled mode indices and picks one.
/// For the conflict-free nets the DSCL lowering produces, the final
/// marking is independent of firing order once modes are fixed
/// (confluence), which the tests exercise.
///
/// The full-rescan oracle for the wavefront loop behind
/// [`run_to_quiescence_wavefront`], which validation runs on its emitted
/// kernel.
pub fn run_to_quiescence(
    net: &Net,
    mut choose_mode: impl FnMut(&Net, TransitionId, &[usize]) -> usize,
    max_steps: usize,
) -> Run {
    let mut m = net.initial.clone();
    let mut trace = Vec::new();
    let mut steps = 0;
    // Remember branch decisions so a transition choosing mode X keeps
    // choosing X if it ever fires again (loop bodies).
    let mut decided: HashMap<TransitionId, usize> = HashMap::new();
    loop {
        if steps >= max_steps {
            return Run {
                final_marking: m,
                trace,
                diverged: true,
            };
        }
        let mut progressed = false;
        for t in net.transition_ids() {
            let enabled: Vec<usize> = (0..net.transitions[t.0 as usize].modes.len())
                .filter(|&mi| !net.enabled_bindings(&m, t, mi).is_empty())
                .collect();
            if enabled.is_empty() {
                continue;
            }
            let mode = match decided.get(&t) {
                Some(&mi) if enabled.contains(&mi) => mi,
                _ => {
                    let mi = if enabled.len() == 1 {
                        enabled[0]
                    } else {
                        choose_mode(net, t, &enabled)
                    };
                    decided.insert(t, mi);
                    mi
                }
            };
            let binding = net.enabled_bindings(&m, t, mode).remove(0);
            m = net.fire(&m, t, mode, &binding);
            trace.push((t, net.transitions[t.0 as usize].modes[mode].label.clone()));
            progressed = true;
            steps += 1;
        }
        if !progressed {
            return Run {
                final_marking: m,
                trace,
                diverged: false,
            };
        }
    }
}

/// [`run_to_quiescence`] without the `O(T)` sweep rescans: a
/// dirty-transition worklist over an integer kernel of the net.
///
/// The rescan loop re-checks every transition each sweep, but a transition
/// found disabled can only become enabled again when a later firing adds
/// tokens to one of its input places (firing never *removes* enabledness
/// prerequisites from others — extra tokens never disable a mode). So the
/// worklist keeps exactly the transitions that might be enabled: all of
/// them initially, minus checked-and-disabled ones, plus the consumers of
/// every place a firing produced into. Scanning the worklist in ascending
/// id order with a sweep position (consumers behind the scan wait for the
/// next sweep, consumers ahead join the current one) replays the rescan's
/// firing sequence *exactly* — same trace, same sticky mode decisions,
/// same divergence cutoff — which the `par_equivalence` property tests
/// pin. On the lowered nets, where each firing enables O(out-degree)
/// transitions, this turns quadratic sweeps into near-linear work.
///
/// The kernel runs on interned color ids and a dense per-place marking:
/// a mode's binding is one allocation-free depth-first search that finds
/// `enabled_bindings(..)[0]` (the lexicographically first binding,
/// because id order is color order) without cloning the marking or any
/// color, and a firing is recorded as a `(transition, mode)` pair. Only
/// this wrapper turns the pairs into mode labels and the final counts
/// into a [`Marking`].
///
/// This one-shot call is for caller-supplied nets: it interns `net` into
/// the kernel and runs once. Validation never builds a net — its
/// [`CompiledValidation`](crate::CompiledValidation) emits the kernel
/// straight from the constraint set, keeps it, and runs it up to 64
/// assignments per bit-sliced lane sweep, with one scalar scratch state
/// for the lanes that fall back.
pub fn run_to_quiescence_wavefront(
    net: &Net,
    mut choose_mode: impl FnMut(&Net, TransitionId, &[usize]) -> usize,
    max_steps: usize,
) -> Run {
    let tables = crate::prepared::Tables::derive(net);
    let mut scratch = crate::prepared::Scratch::default();
    let chooser = |t: usize, enabled: &[usize]| choose_mode(net, TransitionId(t as u32), enabled);
    let diverged = scratch.run(&tables, chooser, max_steps);
    scratch.to_run(net, &tables, diverged)
}

/// Picks the mode whose label matches the assignment, for branch
/// transitions named in `assignment` (transition name → mode label);
/// first enabled mode otherwise.
pub fn assignment_chooser<'a>(
    assignment: &'a HashMap<String, String>,
) -> impl FnMut(&Net, TransitionId, &[usize]) -> usize + 'a {
    move |net: &Net, t: TransitionId, enabled: &[usize]| {
        let tr = &net.transitions[t.0 as usize];
        if let Some(want) = assignment.get(&tr.name) {
            if let Some(&mi) = enabled.iter().find(|&&mi| tr.modes[mi].label == *want) {
                return mi;
            }
        }
        enabled[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{ArcIn, ArcOut, Color, ColorFilter, Mode, Net};

    fn chain(n: usize) -> Net {
        let mut net = Net::default();
        let places: Vec<_> = (0..=n).map(|i| net.add_place(format!("p{i}"))).collect();
        for i in 0..n {
            net.add_transition(
                format!("t{i}"),
                vec![Mode {
                    label: "go".into(),
                    inputs: vec![ArcIn {
                        place: places[i],
                        filter: ColorFilter::Any,
                    }],
                    outputs: vec![ArcOut {
                        place: places[i + 1],
                        color: Color::unit(),
                    }],
                }],
            );
        }
        net.initial.add(places[0], Color::unit());
        net
    }

    #[test]
    fn quiescent_run_on_chain() {
        let net = chain(4);
        let run = run_to_quiescence(&net, |_, _, e| e[0], 1000);
        assert!(!run.diverged);
        assert_eq!(run.trace.len(), 4);
        assert_eq!(run.final_marking.grand_total(), 1);
    }

    #[test]
    fn deadlock_found() {
        // A transition that needs a color that never arrives: the run
        // quiesces at once, the token stranded where it started.
        let mut net = Net::default();
        let p = net.add_place("p");
        let q = net.add_place("q");
        net.add_transition(
            "starved",
            vec![Mode {
                label: "x".into(),
                inputs: vec![ArcIn {
                    place: p,
                    filter: ColorFilter::Eq(Color::of("T")),
                }],
                outputs: vec![ArcOut {
                    place: q,
                    color: Color::unit(),
                }],
            }],
        );
        net.initial.add(p, Color::of("F"));
        let run = run_to_quiescence(&net, |_, _, e| e[0], 100);
        assert!(!run.diverged);
        assert!(run.trace.is_empty(), "the transition is dead");
        assert_eq!(run.final_marking.count(p, &Color::of("F")), 1);
        assert_eq!(run.final_marking.grand_total(), 1);
    }

    #[test]
    fn divergence_detected() {
        // A self-feeding loop never quiesces.
        let mut net = Net::default();
        let p = net.add_place("p");
        net.add_transition(
            "loop",
            vec![Mode {
                label: "again".into(),
                inputs: vec![ArcIn {
                    place: p,
                    filter: ColorFilter::Any,
                }],
                outputs: vec![ArcOut {
                    place: p,
                    color: Color::unit(),
                }],
            }],
        );
        net.initial.add(p, Color::unit());
        let run = run_to_quiescence(&net, |_, _, e| e[0], 50);
        assert!(run.diverged);
    }

    #[test]
    fn assignment_chooser_picks_labeled_mode() {
        let mut net = Net::default();
        let p = net.add_place("run");
        let out = net.add_place("out");
        net.add_transition(
            "branch",
            vec!["T", "F"]
                .into_iter()
                .map(|v| Mode {
                    label: v.into(),
                    inputs: vec![ArcIn {
                        place: p,
                        filter: ColorFilter::Any,
                    }],
                    outputs: vec![ArcOut {
                        place: out,
                        color: Color::of(v),
                    }],
                })
                .collect(),
        );
        net.initial.add(p, Color::unit());
        let assignment: HashMap<String, String> =
            [("branch".to_string(), "F".to_string())].into();
        let run = run_to_quiescence(&net, assignment_chooser(&assignment), 10);
        assert_eq!(run.trace, vec![(TransitionId(0), "F".to_string())]);
        assert_eq!(run.final_marking.count(crate::net::PlaceId(1), &Color::of("F")), 1);
    }
}
