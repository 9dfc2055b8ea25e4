//! Lowering a DSCL constraint set to a colored Petri net (§4.1: "The
//! synchronization scheme described in DSCL can be mapped to Petri Nets
//! for validation").
//!
//! [`lower`] builds the named net: the oracle validation is pinned to
//! and the source of DOT renderings and statistics.
//! Validation itself never builds it — it emits the same net's integer
//! kernel straight from the constraint set, with the numbering below.
//!
//! ## Structure per internal activity `a`
//!
//! * places `todo(a)` (one initial token), `run(a)`, `done(a)`;
//! * transitions `start(a)`: `todo → run`, `finish(a)`: `run → done`;
//! * a `skip(a)` transition implementing **dead-path elimination**: when
//!   `a`'s execution condition is false under the branch outcome, `skip`
//!   consumes the same prerequisites `start` would have and emits
//!   `"skip"`-colored tokens downstream, so activities after a dead branch
//!   neither deadlock nor lose their ordering guarantees.
//!
//! ## Constraints
//!
//! Each HappenBefore constraint `X(a) → Y(b)` becomes a buffer place from
//! the producing transition (`start(a)` for `S`/`R` sources, `finish(a)`
//! for `F`) to the consuming one. Consumption filters are `Any`: ordering
//! is what the constraint means; *whether* `b` runs is decided by the
//! control machinery below (this is why the optimizer may safely remove
//! redundant control constraints — execution conditions are process
//! semantics, carried separately from the monitored constraint set).
//!
//! ## Control (the colored part)
//!
//! A guard activity `g` (one with a declared branch domain) finishes in
//! one *mode per branch value*, producing `v`-colored tokens — the exact
//! move from place/transition nets \[13\] to colored nets \[10\] the paper
//! describes. For every activity `b` whose execution condition mentions
//! `g`, a broadcast place `ctl(g→b)` carries the outcome; `start(b)` has
//! one mode per guard-value combination satisfying `exec(b)`, `skip(b)`
//! one per falsifying combination (a skipped guard broadcasts the pseudo
//! value `"skip"`, which falsifies every condition on it).

use crate::net::{ArcIn, ArcOut, Color, ColorFilter, Mode, Net, PlaceId, TransitionId};
use dscweaver_core::ExecConditions;
use dscweaver_dscl::{ActivityState, ConstraintSet, Name, Relation};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Where the pieces of a lowered activity live.
#[derive(Clone, Debug)]
pub struct ActivityNodes {
    /// The `todo` place (1 initial token).
    pub todo: PlaceId,
    /// The `run` place.
    pub run: PlaceId,
    /// The `done` place (holds `"done"` or `"skip"` at the end).
    pub done: PlaceId,
    /// `start` transition.
    pub start: TransitionId,
    /// `finish` transition.
    pub finish: TransitionId,
    /// `skip` transition, if the activity is conditional.
    pub skip: Option<TransitionId>,
}

/// The lowered net plus its index.
#[derive(Clone, Debug)]
pub struct LoweredNet {
    /// The net (initial marking set).
    pub net: Net,
    /// Per-activity node index.
    pub activities: BTreeMap<String, ActivityNodes>,
    /// Constraint buffer places, labeled by the relation they encode.
    pub constraint_places: Vec<(PlaceId, String)>,
}

impl LoweredNet {
    /// True if `marking` is the expected final marking: every activity
    /// `done` (really done or skipped) and nothing else marked.
    pub fn is_final(&self, marking: &crate::net::Marking) -> bool {
        let expected = self.activities.len() as u32;
        if marking.grand_total() != expected {
            return false;
        }
        self.activities
            .values()
            .all(|n| marking.total(n.done) == 1)
    }

    /// Activities whose `done` place is unmarked in `marking`.
    pub fn unfinished(&self, marking: &crate::net::Marking) -> Vec<&str> {
        self.activities
            .iter()
            .filter(|(_, n)| marking.total(n.done) == 0)
            .map(|(a, _)| a.as_str())
            .collect()
    }
}

/// The pseudo branch value a skipped guard broadcasts.
pub const SKIP: &str = "skip";

/// The most firing modes [`lower`] enumerates for one activity. An
/// activity listening on guards `g₁…gₖ` gets `∏ (|dom(gᵢ)| + 1)` `start`
/// and `skip` modes together, so deeply nested branches grow it
/// exponentially; past this bound lowering stops instead.
pub const MAX_MODES: usize = 4096;

/// An activity whose guard combinations need more than [`MAX_MODES`]
/// firing modes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModeLimit {
    /// The activity.
    pub activity: String,
    /// Its mode count (saturating).
    pub modes: usize,
}

/// Lowers a desugared, service-free constraint set. Panics on an
/// activity past [`MAX_MODES`] (see [`try_lower`]) and (debug) on
/// HappenTogether sugar; Exclusive relations contribute nothing (they
/// are runtime-checked by the scheduler, §4.2).
pub fn lower(cs: &ConstraintSet, exec: &ExecConditions) -> LoweredNet {
    try_lower(cs, exec).unwrap_or_else(|l| panic!("{} needs {} modes", l.activity, l.modes))
}

/// [`lower`], or the first activity (in name order) whose mode count
/// exceeds [`MAX_MODES`] — counted before any mode is enumerated.
pub fn try_lower(cs: &ConstraintSet, exec: &ExecConditions) -> Result<LoweredNet, ModeLimit> {
    let mut net = Net::default();
    let mut activities: BTreeMap<String, ActivityNodes> = BTreeMap::new();
    let index: HashMap<&str, usize> = cs
        .activities
        .iter()
        .enumerate()
        .map(|(i, a)| (a.as_str(), i))
        .collect();

    // Pass 1: per-activity places.
    let slots: Vec<[PlaceId; 3]> = cs
        .activities
        .iter()
        .map(|a| {
            let todo = net.add_place(format!("todo({a})"));
            net.initial.add(todo, Color::unit());
            [todo, net.add_place(format!("run({a})")), net.add_place(format!("done({a})"))]
        })
        .collect();

    /// How one activity is wired to the others.
    #[derive(Default)]
    struct Wiring {
        /// Constraint buffers consumed (`ins`) and produced (`outs`) by
        /// `start` (`[0]`) and by `finish` (`[1]`).
        ins: [Vec<PlaceId>; 2],
        outs: [Vec<PlaceId>; 2],
        /// Control broadcast places this activity *feeds* (it is a guard).
        broadcasts: Vec<PlaceId>,
        /// Control places this activity *listens on*, by guard.
        listens: Vec<(String, PlaceId)>,
    }
    let mut wiring: Vec<Wiring> = cs.activities.iter().map(|_| Wiring::default()).collect();

    // Pass 2: constraint buffer places, wired to the producing and
    // consuming transitions in one pass. `Start` and `Run` states attach
    // to the start transition (the state is reached at/while starting);
    // `Finish` to the finish transition.
    let end = |s: ActivityState| matches!(s, ActivityState::Finish) as usize;
    let mut constraint_places = Vec::new();
    for r in &cs.relations {
        match r {
            Relation::HappenBefore { from, to, .. } => {
                let p = net.add_place(format!("c({from}->{to})"));
                constraint_places.push((p, r.to_string()));
                if let Some(&i) = index.get(from.activity.as_str()) {
                    wiring[i].outs[end(from.state)].push(p);
                }
                if let Some(&i) = index.get(to.activity.as_str()) {
                    wiring[i].ins[end(to.state)].push(p);
                }
            }
            Relation::HappenTogether { .. } => {
                debug_assert!(false, "desugar before lowering");
            }
            Relation::Exclusive { .. } => {}
        }
    }

    // Pass 3: control broadcast places. guards(b) = guard activities in
    // exec(b)'s terms; b's modes are counted before pass 4 enumerates them.
    for (b, wb) in cs.activities.iter().zip(0..) {
        let dnf = exec.of(b);
        let mut gs: BTreeSet<&str> = BTreeSet::new();
        for term in dnf.terms() {
            for c in term {
                gs.insert(&c.on);
            }
        }
        let modes = gs
            .iter()
            .map(|g| cs.domains.get(*g).map_or(0, Vec::len) + 1)
            .fold(1usize, usize::saturating_mul);
        if modes > MAX_MODES {
            return Err(ModeLimit {
                activity: b.to_string(),
                modes,
            });
        }
        for g in gs {
            let p = net.add_place(format!("ctl({g}->{b})"));
            if let Some(&i) = index.get(g) {
                wiring[i].broadcasts.push(p);
            }
            wiring[wb].listens.push((g.to_string(), p));
        }
    }

    // Pass 4: transitions.
    for ((a, w), &[todo, run, done]) in cs.activities.iter().zip(&wiring).zip(&slots) {
        let ([incoming, incoming_finish], [out_start, out_finish]) = (&w.ins, &w.outs);
        let (broadcasts, listens) = (&w.broadcasts, &w.listens);

        // Enumerate guard-value assignments over the listened guards
        // (domain ∪ {skip}).
        let guard_domains: Vec<(String, Vec<String>)> = listens
            .iter()
            .map(|(g, _)| {
                let mut dom: Vec<String> =
                    cs.domains.get(g.as_str()).into_iter().flatten().map(Name::to_string).collect();
                dom.push(SKIP.to_string());
                (g.clone(), dom)
            })
            .collect();
        let mut assignments: Vec<Vec<String>> = vec![Vec::new()];
        for (_, dom) in &guard_domains {
            assignments = assignments
                .into_iter()
                .flat_map(|base| {
                    dom.iter().map(move |v| {
                        let mut a = base.clone();
                        a.push(v.clone());
                        a
                    })
                })
                .collect::<Vec<_>>();
        }
        let exec_dnf = exec.of(a);
        let satisfied = |assign: &[String]| -> bool {
            exec_dnf.terms().iter().any(|term| {
                term.iter().all(|c| {
                    guard_domains
                        .iter()
                        .position(|(g, _)| *g == c.on)
                        .map(|i| assign[i] == c.value)
                        .unwrap_or(false)
                })
            })
        };

        let base_start_inputs = |assign: &[String]| -> Vec<ArcIn> {
            let mut inputs = vec![ArcIn {
                place: todo,
                filter: ColorFilter::Any,
            }];
            for p in incoming {
                inputs.push(ArcIn {
                    place: *p,
                    filter: ColorFilter::Any,
                });
            }
            for ((_, p), v) in listens.iter().zip(assign) {
                inputs.push(ArcIn {
                    place: *p,
                    filter: ColorFilter::Eq(Color::of(v)),
                });
            }
            inputs
        };

        // start(a): one mode per satisfying assignment (a single
        // unconstrained mode when unconditional).
        let mut start_modes: Vec<Mode> = assignments
            .iter()
            .filter(|a| listens.is_empty() || satisfied(a))
            .map(|assign| Mode {
                label: if listens.is_empty() {
                    "start".into()
                } else {
                    format!("start[{}]", assign.join(","))
                },
                inputs: base_start_inputs(assign),
                outputs: vec![ArcOut {
                    place: run,
                    color: Color::unit(),
                }]
                .into_iter()
                .chain(out_start.iter().map(|&p| ArcOut {
                    place: p,
                    color: Color::of("done"),
                }))
                .collect(),
            })
            .collect();
        // A filtered collect over-allocates; a cached net keeps exact sizes.
        start_modes.shrink_to_fit();
        let start = net.add_transition(format!("start({a})"), start_modes);

        // finish(a): one mode per branch value for guards, else one mode.
        let finish_values: Vec<String> = cs.domains.get(a).map_or_else(
            || vec!["done".to_string()],
            |d| d.iter().map(Name::to_string).collect(),
        );
        let finish_modes: Vec<Mode> = finish_values
            .iter()
            .map(|v| Mode {
                label: v.clone(),
                inputs: vec![ArcIn {
                    place: run,
                    filter: ColorFilter::Any,
                }]
                .into_iter()
                .chain(incoming_finish.iter().map(|&p| ArcIn {
                    place: p,
                    filter: ColorFilter::Any,
                }))
                .collect(),
                outputs: std::iter::once(ArcOut {
                    place: done,
                    color: Color::of("done"),
                })
                .chain(out_finish.iter().map(|&p| ArcOut {
                    place: p,
                    color: Color::of(v),
                }))
                .chain(broadcasts.iter().map(|&p| ArcOut {
                    place: p,
                    color: Color::of(v),
                }))
                .collect(),
            })
            .collect();
        let finish = net.add_transition(format!("finish({a})"), finish_modes);

        // skip(a): one mode per falsifying assignment. Consumes everything
        // start+finish would (prerequisites still order the skip event),
        // emits "skip" downstream.
        let skip = if listens.is_empty() {
            None
        } else {
            let mut skip_modes: Vec<Mode> = assignments
                .iter()
                .filter(|a| !satisfied(a))
                .map(|assign| Mode {
                    label: format!("skip[{}]", assign.join(",")),
                    inputs: base_start_inputs(assign)
                        .into_iter()
                        .chain(incoming_finish.iter().map(|&p| ArcIn {
                            place: p,
                            filter: ColorFilter::Any,
                        }))
                        .collect(),
                    outputs: std::iter::once(ArcOut {
                        place: done,
                        color: Color::of(SKIP),
                    })
                    .chain(
                        out_start
                            .iter()
                            .chain(out_finish.iter())
                            .map(|&p| ArcOut {
                                place: p,
                                color: Color::of(SKIP),
                            }),
                    )
                    .chain(broadcasts.iter().map(|&p| ArcOut {
                        place: p,
                        color: Color::of(SKIP),
                    }))
                    .collect(),
                })
                .collect();
            skip_modes.shrink_to_fit();
            Some(net.add_transition(format!("skip({a})"), skip_modes))
        };

        activities.insert(
            a.to_string(),
            ActivityNodes {
                todo,
                run,
                done,
                start,
                finish,
                skip,
            },
        );
    }

    Ok(LoweredNet {
        net,
        activities,
        constraint_places,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reach::{assignment_chooser, run_to_quiescence};
    use dscweaver_dscl::{Condition, Origin, StateRef};
    use std::collections::HashMap;

    fn lowered(cs: &ConstraintSet) -> LoweredNet {
        let exec = ExecConditions::derive(cs);
        lower(cs, &exec)
    }

    #[test]
    fn unconditional_chain_runs_to_completion() {
        let mut cs = ConstraintSet::new("chain");
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
            StateRef::start("c"),
            Origin::Data,
        ));
        let l = lowered(&cs);
        let run = run_to_quiescence(&l.net, |_, _, e| e[0], 1000);
        assert!(!run.diverged);
        assert!(l.is_final(&run.final_marking), "{}", l.net.render_marking(&run.final_marking));
        // Ordering: start(b) fires after finish(a).
        let pos = |name: &str| {
            run.trace
                .iter()
                .position(|(t, _)| l.net.transition_name(*t) == name)
                .unwrap_or_else(|| panic!("{name} did not fire"))
        };
        assert!(pos("finish(a)") < pos("start(b)"));
        assert!(pos("finish(b)") < pos("start(c)"));
    }

    fn branchy() -> ConstraintSet {
        // g branches; x on T, y on F; join j unconditional with data deps
        // from both.
        let mut cs = ConstraintSet::new("branchy");
        for a in ["g", "x", "y", "j"] {
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
            StateRef::start("j"),
            Origin::Data,
        ));
        cs.push(Relation::before(
            StateRef::finish("y"),
            StateRef::start("j"),
            Origin::Data,
        ));
        cs
    }

    #[test]
    fn dead_path_elimination_lets_the_join_fire() {
        let l = lowered(&branchy());
        for (value, runs, skips) in [("T", "x", "y"), ("F", "y", "x")] {
            let assignment: HashMap<String, String> =
                [("finish(g)".to_string(), value.to_string())].into();
            let run = run_to_quiescence(&l.net, assignment_chooser(&assignment), 1000);
            assert!(!run.diverged);
            assert!(
                l.is_final(&run.final_marking),
                "branch {value}: {}",
                l.net.render_marking(&run.final_marking)
            );
            let fired: Vec<&str> = run
                .trace
                .iter()
                .map(|(t, _)| l.net.transition_name(*t))
                .collect();
            assert!(fired.contains(&format!("start({runs})").as_str()));
            assert!(fired.contains(&format!("skip({skips})").as_str()));
            assert!(fired.contains(&"start(j)"), "join runs on both branches");
            // done(skipped) holds a skip token.
            let skipped = &l.activities[skips];
            assert_eq!(
                run.final_marking.count(skipped.done, &Color::of(SKIP)),
                1
            );
        }
    }

    #[test]
    fn skip_waits_for_prerequisites() {
        // a → x (data) where x is conditional on g=T: on the F branch,
        // skip(x) must still wait for finish(a) — skip events are ordered.
        let mut cs = branchy();
        cs.add_activity("a");
        cs.push(Relation::before(
            StateRef::finish("a"),
            StateRef::start("x"),
            Origin::Data,
        ));
        let l = lowered(&cs);
        let assignment: HashMap<String, String> =
            [("finish(g)".to_string(), "F".to_string())].into();
        let run = run_to_quiescence(&l.net, assignment_chooser(&assignment), 1000);
        assert!(l.is_final(&run.final_marking));
        let pos = |name: &str| {
            run.trace
                .iter()
                .position(|(t, _)| l.net.transition_name(*t) == name)
                .unwrap_or_else(|| panic!("{name} did not fire"))
        };
        assert!(pos("finish(a)") < pos("skip(x)"));
    }

    #[test]
    fn nested_guards_cascade_skips() {
        // outer=F skips inner guard g2, which must broadcast "skip" so its
        // own dependent d skips as well.
        let mut cs = ConstraintSet::new("nested");
        for a in ["g1", "g2", "d"] {
            cs.add_activity(a);
        }
        cs.add_domain("g1", vec!["T".into(), "F".into()]);
        cs.add_domain("g2", vec!["T".into(), "F".into()]);
        cs.push(Relation::before_if(
            StateRef::finish("g1"),
            StateRef::start("g2"),
            Condition::new("g1", "T"),
            Origin::Control,
        ));
        cs.push(Relation::before_if(
            StateRef::finish("g2"),
            StateRef::start("d"),
            Condition::new("g2", "T"),
            Origin::Control,
        ));
        let l = lowered(&cs);
        let assignment: HashMap<String, String> =
            [("finish(g1)".to_string(), "F".to_string())].into();
        let run = run_to_quiescence(&l.net, assignment_chooser(&assignment), 1000);
        assert!(
            l.is_final(&run.final_marking),
            "{}",
            l.net.render_marking(&run.final_marking)
        );
        assert_eq!(
            run.final_marking.count(l.activities["d"].done, &Color::of(SKIP)),
            1
        );
    }

    #[test]
    fn overlap_constraint_orders_states() {
        // S(a) → F(b): b cannot finish before a starts.
        let mut cs = ConstraintSet::new("overlap");
        cs.add_activity("a");
        cs.add_activity("b");
        cs.push(Relation::before(
            StateRef::start("a"),
            StateRef::finish("b"),
            Origin::Cooperation,
        ));
        let l = lowered(&cs);
        let run = run_to_quiescence(&l.net, |_, _, e| e[0], 100);
        assert!(l.is_final(&run.final_marking));
        let pos = |name: &str| {
            run.trace
                .iter()
                .position(|(t, _)| l.net.transition_name(*t) == name)
                .unwrap()
        };
        assert!(pos("start(a)") < pos("finish(b)"));
    }
}
