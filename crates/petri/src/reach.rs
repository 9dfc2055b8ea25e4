//! Reachability analysis: bounded interleaving exploration for small nets,
//! and a deterministic maximal-step simulator for the conflict-free nets
//! the DSCL lowering produces.
//!
//! Both analyses come in two flavors sharing one result type: the simple
//! full-rescan/FIFO implementations ([`run_to_quiescence`], [`explore`]),
//! kept as the oracles, and the production ones
//! ([`run_to_quiescence_wavefront`], [`explore_with`]) — a
//! dirty-transition worklist over an integer kernel of the net that
//! skips the `O(T)` sweep rescans, and a
//! frontier-layered BFS whose per-marking expansion fans out on the shared
//! [`dscweaver_graph::par`] pool. Each pair is pinned bit-identical (trace
//! for trace, marking for marking) by the `par_equivalence` property
//! tests.

use crate::net::{Marking, Net, TransitionId};
use dscweaver_graph::par_map;
use std::collections::{HashMap, HashSet, VecDeque};

/// Result of bounded reachability exploration.
#[derive(Clone, Debug)]
pub struct Reachability {
    /// Distinct markings visited.
    pub states: usize,
    /// True if the exploration hit the state limit before exhausting the
    /// space (analyses are then lower bounds).
    pub truncated: bool,
    /// Markings with no enabled transition.
    pub terminal: Vec<Marking>,
    /// Transitions that fired at least once somewhere.
    pub fired: HashSet<TransitionId>,
    /// Largest token count observed in any single place (boundedness
    /// witness).
    pub max_place_tokens: u32,
}

/// Explores the reachability graph breadth-first up to `max_states`
/// distinct markings.
///
/// The sequential oracle for [`explore_with`], which validation runs.
pub fn explore(net: &Net, max_states: usize) -> Reachability {
    let mut seen: HashSet<Marking> = HashSet::new();
    let mut queue: VecDeque<Marking> = VecDeque::new();
    let mut terminal = Vec::new();
    let mut fired = HashSet::new();
    let mut truncated = false;
    let mut max_place_tokens = 0;

    seen.insert(net.initial.clone());
    queue.push_back(net.initial.clone());

    while let Some(m) = queue.pop_front() {
        for p in m.marked_places() {
            max_place_tokens = max_place_tokens.max(m.total(p));
        }
        let mut any = false;
        for t in net.transition_ids() {
            for mode in 0..net.transitions[t.0 as usize].modes.len() {
                for binding in net.enabled_bindings(&m, t, mode) {
                    any = true;
                    fired.insert(t);
                    let next = net.fire(&m, t, mode, &binding);
                    if !seen.contains(&next) {
                        if seen.len() >= max_states {
                            truncated = true;
                            continue;
                        }
                        seen.insert(next.clone());
                        queue.push_back(next);
                    }
                }
            }
        }
        if !any {
            terminal.push(m);
        }
    }
    Reachability {
        states: seen.len(),
        truncated,
        terminal,
        fired,
        max_place_tokens,
    }
}

/// What expanding one marking yields — computed purely, so a whole BFS
/// layer can expand on worker threads.
struct Expansion {
    /// Largest single-place token count in the expanded marking.
    peak: u32,
    /// Successor markings with the firing transition, in the exact
    /// deterministic order the sequential loop generates them (transition
    /// id, then mode, then binding order).
    succs: Vec<(TransitionId, Marking)>,
}

fn expand(net: &Net, m: &Marking) -> Expansion {
    let mut peak = 0;
    for p in m.marked_places() {
        peak = peak.max(m.total(p));
    }
    let mut succs = Vec::new();
    for t in net.transition_ids() {
        for mode in 0..net.transitions[t.0 as usize].modes.len() {
            for binding in net.enabled_bindings(m, t, mode) {
                succs.push((t, net.fire(m, t, mode, &binding)));
            }
        }
    }
    Expansion { peak, succs }
}

/// [`explore`] with the per-marking expansion of each BFS frontier layer
/// fanned out over `threads` scoped workers (`0` = auto, `1` =
/// sequential). A FIFO queue visits markings in layer order, so expanding
/// a whole layer concurrently and merging the expansions *in frontier
/// order* replays the sequential seen-set insertion order exactly — the
/// result (including the `truncated` flag and terminal-marking order) is
/// bit-identical for any thread count.
pub fn explore_with(net: &Net, max_states: usize, threads: usize) -> Reachability {
    let threads = dscweaver_graph::effective_threads(threads, 8);
    let mut seen: HashSet<Marking> = HashSet::new();
    let mut terminal = Vec::new();
    let mut fired = HashSet::new();
    let mut truncated = false;
    let mut max_place_tokens = 0;

    seen.insert(net.initial.clone());
    let mut frontier: Vec<Marking> = vec![net.initial.clone()];

    while !frontier.is_empty() {
        let expansions = par_map(threads, &frontier, &|m: &Marking| expand(net, m));
        let mut next_frontier = Vec::new();
        for (m, exp) in frontier.iter().zip(expansions) {
            max_place_tokens = max_place_tokens.max(exp.peak);
            if exp.succs.is_empty() {
                terminal.push(m.clone());
                continue;
            }
            for (t, next) in exp.succs {
                fired.insert(t);
                if !seen.contains(&next) {
                    if seen.len() >= max_states {
                        truncated = true;
                        continue;
                    }
                    seen.insert(next.clone());
                    next_frontier.push(next);
                }
            }
        }
        frontier = next_frontier;
    }
    Reachability {
        states: seen.len(),
        truncated,
        terminal,
        fired,
        max_place_tokens,
    }
}

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
    fn chain_reachability() {
        let net = chain(5);
        let r = explore(&net, 1000);
        assert_eq!(r.states, 6);
        assert!(!r.truncated);
        assert_eq!(r.terminal.len(), 1);
        assert_eq!(r.fired.len(), 5);
        assert_eq!(r.max_place_tokens, 1);
    }

    #[test]
    fn truncation_reported() {
        let net = chain(50);
        let r = explore(&net, 10);
        assert!(r.truncated);
        assert!(r.states <= 10);
    }

    #[test]
    fn deadlock_found() {
        // A transition that needs a color that never arrives.
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
        let r = explore(&net, 100);
        assert_eq!(r.terminal.len(), 1);
        assert!(r.fired.is_empty(), "the transition is dead");
        assert_eq!(r.terminal[0].count(PlaceOf(0), &Color::of("F")), 1);
        #[allow(non_snake_case)]
        fn PlaceOf(i: u32) -> crate::net::PlaceId {
            crate::net::PlaceId(i)
        }
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
