//! Activity life-cycle states and state references.
//!
//! DSCL (§4.1) "treats the life cycle of an activity as a sequence of
//! states, start (S), run (R), and finish (F), and synchronizes an activity
//! with others depending on its current state". Constraints therefore bind
//! *states*, not whole activities — that is what lets the language express
//! overlapping-lifetime constraints such as
//! `S(collectSurvey) → F(closeOrder)` (§3.2).

use crate::name::Name;

/// One of the three life-cycle states of an activity.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum ActivityState {
    /// The activity starts (is scheduled).
    Start,
    /// The activity is running.
    Run,
    /// The activity finishes.
    Finish,
}

impl ActivityState {
    /// The single-letter DSCL spelling.
    pub fn letter(self) -> char {
        match self {
            ActivityState::Start => 'S',
            ActivityState::Run => 'R',
            ActivityState::Finish => 'F',
        }
    }

    /// Parses the single-letter spelling.
    pub fn from_letter(c: char) -> Option<ActivityState> {
        match c {
            'S' => Some(ActivityState::Start),
            'R' => Some(ActivityState::Run),
            'F' => Some(ActivityState::Finish),
            _ => None,
        }
    }

    /// All states in life-cycle order.
    pub const ALL: [ActivityState; 3] = [
        ActivityState::Start,
        ActivityState::Run,
        ActivityState::Finish,
    ];
}

impl std::fmt::Display for ActivityState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.letter())
    }
}

/// A reference to one state of one activity, e.g. `F(invCredit_po)`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct StateRef {
    /// The activity name.
    pub activity: Name,
    /// Which life-cycle state.
    pub state: ActivityState,
}

impl StateRef {
    /// `S(activity)`.
    pub fn start(activity: impl Into<Name>) -> Self {
        StateRef {
            activity: activity.into(),
            state: ActivityState::Start,
        }
    }

    /// `R(activity)`.
    pub fn run(activity: impl Into<Name>) -> Self {
        StateRef {
            activity: activity.into(),
            state: ActivityState::Run,
        }
    }

    /// `F(activity)`.
    pub fn finish(activity: impl Into<Name>) -> Self {
        StateRef {
            activity: activity.into(),
            state: ActivityState::Finish,
        }
    }
}

impl std::fmt::Display for StateRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}({})", self.state, self.activity)
    }
}

/// A branch condition: the paper's `→_c` subscript, naming the guard
/// activity and the branch value it must have produced (e.g. `if_au = T`).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Condition {
    /// The guard (branch-evaluating) activity.
    pub on: Name,
    /// The required branch value (case label: `"T"`, `"F"`, ...).
    pub value: Name,
}

impl Condition {
    /// `on = value`.
    pub fn new(on: impl Into<Name>, value: impl Into<Name>) -> Self {
        Condition {
            on: on.into(),
            value: value.into(),
        }
    }
}

impl std::fmt::Display for Condition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}={}", self.on, self.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn letters_round_trip() {
        for s in ActivityState::ALL {
            assert_eq!(ActivityState::from_letter(s.letter()), Some(s));
        }
        assert_eq!(ActivityState::from_letter('X'), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(StateRef::finish("a").to_string(), "F(a)");
        assert_eq!(StateRef::start("b").to_string(), "S(b)");
        assert_eq!(StateRef::run("c").to_string(), "R(c)");
        assert_eq!(Condition::new("if_au", "T").to_string(), "if_au=T");
    }

    #[test]
    fn ordering_is_lifecycle_order() {
        assert!(ActivityState::Start < ActivityState::Run);
        assert!(ActivityState::Run < ActivityState::Finish);
    }
}
