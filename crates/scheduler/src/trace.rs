//! Execution traces and post-hoc constraint verification.
//!
//! The central correctness claim of the optimization (§4.4) is that
//! scheduling with only the minimal set `P*` still satisfies every
//! constraint of the original `P`. The verifier checks exactly that: given
//! any trace, does every HappenBefore relation of a (possibly much larger)
//! constraint set hold?

use dscweaver_dscl::{ActivityState, ConstraintSet, Name, Relation, StateRef};

/// Virtual time.
pub type Time = u64;

/// What happened to an activity.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EventKind {
    /// The activity started.
    Start,
    /// The activity finished, with its branch value if it is a guard.
    Finish,
    /// The activity was skipped (dead path).
    Skip,
}

/// One trace event. Events at equal times carry a sequence number giving
/// the engine's commit order.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Virtual time.
    pub time: Time,
    /// Commit order within equal times.
    pub seq: u64,
    /// The activity (shared with the simulated set's declaration).
    pub activity: Name,
    /// What happened.
    pub kind: EventKind,
    /// Branch value produced (guards only, on Finish).
    pub value: Option<Name>,
}

/// A completed run.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Events in commit order.
    pub events: Vec<TraceEvent>,
}

/// A violated constraint.
#[derive(Clone, Debug)]
pub struct Violation {
    /// The relation that failed.
    pub relation: String,
    /// Why.
    pub reason: String,
}

impl Trace {
    /// `(time, seq)` of a state's occurrence: `Start` events resolve
    /// `S` and `R`, `Finish` resolves `F`. A skipped activity resolves all
    /// three states at its skip event (dead-path semantics: the skip *is*
    /// the resolution).
    pub fn occurrence(&self, s: &StateRef) -> Option<(Time, u64)> {
        self.occurrence_of(&s.activity, s.state)
    }

    /// [`Trace::occurrence`] without the `StateRef`: callers that resolve
    /// many states of borrowed activity names (conformance checking, the
    /// streaming monitor's oracle) avoid cloning a `String` per lookup.
    pub fn occurrence_of(&self, activity: &str, state: ActivityState) -> Option<(Time, u64)> {
        self.events.iter().find_map(|e| {
            if e.activity != activity {
                return None;
            }
            let hit = matches!(
                (e.kind, state),
                (EventKind::Start, ActivityState::Start | ActivityState::Run)
                    | (EventKind::Finish, ActivityState::Finish)
                    | (EventKind::Skip, _)
            );
            hit.then_some((e.time, e.seq))
        })
    }

    /// True if the activity ran (started) rather than being skipped.
    pub fn executed(&self, activity: &str) -> bool {
        self.events
            .iter()
            .any(|e| e.activity == activity && e.kind == EventKind::Start)
    }

    /// True if the activity was skipped.
    pub fn skipped(&self, activity: &str) -> bool {
        self.events
            .iter()
            .any(|e| e.activity == activity && e.kind == EventKind::Skip)
    }

    /// The branch value a guard produced, if it finished.
    pub fn value_of(&self, guard: &str) -> Option<&str> {
        self.events.iter().find_map(|e| {
            (e.activity == guard && e.kind == EventKind::Finish)
                .then_some(e.value.as_deref())
                .flatten()
        })
    }

    /// Total makespan (time of the last event).
    pub fn makespan(&self) -> Time {
        self.events.iter().map(|e| e.time).max().unwrap_or(0)
    }

    /// Peak number of simultaneously running activities.
    pub fn max_concurrency(&self) -> usize {
        // Sweep start/finish events in (time, seq) order.
        let mut points: Vec<(Time, u64, i64)> = self
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Start => Some((e.time, e.seq, 1)),
                EventKind::Finish => Some((e.time, e.seq, -1)),
                EventKind::Skip => None,
            })
            .collect();
        points.sort();
        let mut cur = 0i64;
        let mut best = 0i64;
        for (_, _, d) in points {
            cur += d;
            best = best.max(cur);
        }
        best as usize
    }

    /// Verifies every HappenBefore constraint of `cs` against this trace.
    ///
    /// * A conditional constraint is enforced only when its guard produced
    ///   the required value.
    /// * A constraint is vacuous if either endpoint activity was skipped —
    ///   ordering obligations bind *executions*; skip ordering is a
    ///   scheduler-internal matter (see `EquivalenceMode::Reachability`).
    /// * An endpoint that never occurred at all (neither ran nor skipped)
    ///   is itself a violation of completeness.
    pub fn verify(&self, cs: &ConstraintSet) -> Vec<Violation> {
        let mut violations = Vec::new();
        // Completeness: every activity resolved.
        for a in &cs.activities {
            if !self.executed(a) && !self.skipped(a) {
                violations.push(Violation {
                    relation: format!("completeness({a})"),
                    reason: format!("activity '{a}' neither executed nor skipped"),
                });
            }
        }
        for r in cs.happen_befores() {
            let Relation::HappenBefore { from, to, cond, .. } = r else {
                unreachable!("filtered to HappenBefore");
            };
            if let Some(c) = cond {
                match self.value_of(&c.on) {
                    Some(v) if v == c.value => {}
                    _ => continue, // guard mismatched or skipped: not enforced
                }
            }
            if self.skipped(&from.activity) || self.skipped(&to.activity) {
                continue;
            }
            let (Some(tf), Some(tt)) = (self.occurrence(from), self.occurrence(to)) else {
                continue; // completeness already reported
            };
            if tf > tt {
                violations.push(Violation {
                    relation: r.to_string(),
                    reason: format!(
                        "{from} at t={},#{} but {to} at t={},#{}",
                        tf.0, tf.1, tt.0, tt.1
                    ),
                });
            }
        }
        violations
    }

    /// Verifies Exclusive relations: the two activities' run intervals must
    /// not overlap.
    pub fn verify_exclusives(&self, cs: &ConstraintSet) -> Vec<Violation> {
        let mut out = Vec::new();
        let interval = |a: &str| -> Option<(Time, Time)> {
            let start = self
                .events
                .iter()
                .find(|e| e.activity == a && e.kind == EventKind::Start)?
                .time;
            let finish = self
                .events
                .iter()
                .find(|e| e.activity == a && e.kind == EventKind::Finish)?
                .time;
            Some((start, finish))
        };
        for (x, y) in cs.exclusives() {
            if let (Some((s1, f1)), Some((s2, f2))) =
                (interval(&x.activity), interval(&y.activity))
            {
                // Overlap of open intervals.
                if s1 < f2 && s2 < f1 {
                    out.push(Violation {
                        relation: format!("{x} >< {y}"),
                        reason: format!("intervals [{s1},{f1}) and [{s2},{f2}) overlap"),
                    });
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dscweaver_dscl::{Condition, Origin};

    fn ev(time: Time, seq: u64, activity: &str, kind: EventKind, value: Option<&str>) -> TraceEvent {
        TraceEvent {
            time,
            seq,
            activity: activity.into(),
            kind,
            value: value.map(Name::from),
        }
    }

    fn cs_ab() -> ConstraintSet {
        let mut cs = ConstraintSet::new("t");
        cs.add_activity("a");
        cs.add_activity("b");
        cs.push(Relation::before(
            StateRef::finish("a"),
            StateRef::start("b"),
            Origin::Data,
        ));
        cs
    }

    #[test]
    fn ordered_trace_verifies() {
        let t = Trace {
            events: vec![
                ev(0, 0, "a", EventKind::Start, None),
                ev(5, 1, "a", EventKind::Finish, None),
                ev(5, 2, "b", EventKind::Start, None),
                ev(9, 3, "b", EventKind::Finish, None),
            ],
        };
        assert!(t.verify(&cs_ab()).is_empty());
        assert_eq!(t.makespan(), 9);
        assert_eq!(t.max_concurrency(), 1);
    }

    #[test]
    fn reversed_trace_violates() {
        let t = Trace {
            events: vec![
                ev(0, 0, "b", EventKind::Start, None),
                ev(1, 1, "a", EventKind::Start, None),
                ev(2, 2, "a", EventKind::Finish, None),
                ev(3, 3, "b", EventKind::Finish, None),
            ],
        };
        let v = t.verify(&cs_ab());
        assert_eq!(v.len(), 1);
        assert!(v[0].relation.contains("F(a) -> S(b)"));
    }

    #[test]
    fn missing_activity_is_incomplete() {
        let t = Trace {
            events: vec![
                ev(0, 0, "a", EventKind::Start, None),
                ev(1, 1, "a", EventKind::Finish, None),
            ],
        };
        let v = t.verify(&cs_ab());
        assert!(v.iter().any(|x| x.relation.contains("completeness(b)")));
    }

    #[test]
    fn skipped_endpoint_waives_constraint() {
        let t = Trace {
            events: vec![
                ev(0, 0, "b", EventKind::Start, None),
                ev(1, 1, "b", EventKind::Finish, None),
                ev(2, 2, "a", EventKind::Skip, None),
            ],
        };
        assert!(t.verify(&cs_ab()).is_empty());
    }

    #[test]
    fn conditional_constraint_only_when_guard_matches() {
        let mut cs = ConstraintSet::new("t");
        for a in ["g", "x"] {
            cs.add_activity(a);
        }
        cs.add_domain("g", vec!["T".into(), "F".into()]);
        cs.push(Relation::before_if(
            StateRef::finish("g"),
            StateRef::start("x"),
            Condition::new("g", "T"),
            Origin::Control,
        ));
        // g produced F: x starting before g's finish is fine.
        let t = Trace {
            events: vec![
                ev(0, 0, "x", EventKind::Start, None),
                ev(1, 1, "g", EventKind::Start, None),
                ev(2, 2, "g", EventKind::Finish, Some("F")),
                ev(3, 3, "x", EventKind::Finish, None),
            ],
        };
        assert!(t.verify(&cs).is_empty());
        // g produced T: now it is a violation.
        let t2 = Trace {
            events: vec![
                ev(0, 0, "x", EventKind::Start, None),
                ev(1, 1, "g", EventKind::Start, None),
                ev(2, 2, "g", EventKind::Finish, Some("T")),
                ev(3, 3, "x", EventKind::Finish, None),
            ],
        };
        assert_eq!(t2.verify(&cs).len(), 1);
    }

    #[test]
    fn tie_broken_by_seq() {
        // Same virtual time, commit order decides.
        let t = Trace {
            events: vec![
                ev(0, 0, "a", EventKind::Start, None),
                ev(3, 1, "a", EventKind::Finish, None),
                ev(3, 2, "b", EventKind::Start, None),
                ev(3, 3, "b", EventKind::Finish, None),
            ],
        };
        assert!(t.verify(&cs_ab()).is_empty());
        let t2 = Trace {
            events: vec![
                ev(3, 0, "b", EventKind::Start, None),
                ev(0, 1, "a", EventKind::Start, None),
                ev(3, 2, "a", EventKind::Finish, None),
                ev(3, 3, "b", EventKind::Finish, None),
            ],
        };
        assert_eq!(t2.verify(&cs_ab()).len(), 1, "seq 2 after seq 0");
    }

    #[test]
    fn exclusive_overlap_detected() {
        let mut cs = ConstraintSet::new("t");
        cs.add_activity("p");
        cs.add_activity("q");
        cs.push(Relation::Exclusive {
            a: StateRef::run("p"),
            b: StateRef::run("q"),
            origin: Origin::Cooperation,
        });
        let overlapping = Trace {
            events: vec![
                ev(0, 0, "p", EventKind::Start, None),
                ev(1, 1, "q", EventKind::Start, None),
                ev(2, 2, "p", EventKind::Finish, None),
                ev(3, 3, "q", EventKind::Finish, None),
            ],
        };
        assert_eq!(overlapping.verify_exclusives(&cs).len(), 1);
        let serial = Trace {
            events: vec![
                ev(0, 0, "p", EventKind::Start, None),
                ev(2, 1, "p", EventKind::Finish, None),
                ev(2, 2, "q", EventKind::Start, None),
                ev(3, 3, "q", EventKind::Finish, None),
            ],
        };
        assert!(serial.verify_exclusives(&cs).is_empty());
    }

    #[test]
    fn concurrency_metric() {
        let t = Trace {
            events: vec![
                ev(0, 0, "a", EventKind::Start, None),
                ev(0, 1, "b", EventKind::Start, None),
                ev(0, 2, "c", EventKind::Start, None),
                ev(5, 3, "a", EventKind::Finish, None),
                ev(5, 4, "b", EventKind::Finish, None),
                ev(5, 5, "c", EventKind::Finish, None),
            ],
        };
        assert_eq!(t.max_concurrency(), 3);
    }
}
