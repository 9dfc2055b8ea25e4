//! Colored Petri nets (Jensen \[10\], the paper's §4.1 validation target).
//!
//! Tokens carry a [`Color`]; transitions fire in *modes*, each mode naming
//! the colored tokens it consumes (with per-arc color filters) and the
//! colored tokens it produces. Plain (Murata \[13\]) nets are the special
//! case of one unit color and single-mode transitions. The color extension
//! is exactly what the paper needs for control dependencies: a branch
//! activity's finish transition has one mode per branch value, producing
//! differently-colored tokens that conditional arcs filter on.

use std::collections::BTreeMap;
use std::fmt;

/// A token color. The lowering uses `"done"`, `"skip"` and branch-value
/// colors (`"T"`, `"F"`, ...).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Color(pub String);

impl Color {
    /// The unit color of uncolored nets.
    pub fn unit() -> Color {
        Color("•".into())
    }

    /// Convenience constructor.
    pub fn of(s: &str) -> Color {
        Color(s.into())
    }
}

impl fmt::Display for Color {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Place identifier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PlaceId(pub u32);

/// Transition identifier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TransitionId(pub u32);

/// What colors an input arc accepts.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ColorFilter {
    /// Any token.
    Any,
    /// Exactly this color.
    Eq(Color),
    /// One of these colors.
    OneOf(Vec<Color>),
}

impl ColorFilter {
    /// Does `c` pass the filter?
    pub fn accepts(&self, c: &Color) -> bool {
        match self {
            ColorFilter::Any => true,
            ColorFilter::Eq(x) => x == c,
            ColorFilter::OneOf(xs) => xs.contains(c),
        }
    }
}

/// An input arc of a mode.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ArcIn {
    /// The place consumed from.
    pub place: PlaceId,
    /// Accepted colors.
    pub filter: ColorFilter,
}

/// An output arc of a mode.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ArcOut {
    /// The place produced into.
    pub place: PlaceId,
    /// The produced color.
    pub color: Color,
}

/// One firing mode of a transition.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Mode {
    /// Display label (e.g. the branch value).
    pub label: String,
    /// Tokens consumed.
    pub inputs: Vec<ArcIn>,
    /// Tokens produced.
    pub outputs: Vec<ArcOut>,
}

/// A transition with its modes.
#[derive(Clone, Debug)]
pub struct Transition {
    /// Display name.
    pub name: String,
    /// Firing modes (≥ 1 for a useful transition).
    pub modes: Vec<Mode>,
}

/// A place.
#[derive(Clone, Debug)]
pub struct Place {
    /// Display name.
    pub name: String,
}

/// A colored Petri net plus its initial marking.
#[derive(Clone, Debug, Default)]
pub struct Net {
    /// Places.
    pub places: Vec<Place>,
    /// Transitions.
    pub transitions: Vec<Transition>,
    /// Initial marking.
    pub initial: Marking,
}

/// A marking: per place, a multiset of colors. Canonical (sorted), so
/// equal markings compare equal.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct Marking {
    tokens: BTreeMap<PlaceId, BTreeMap<Color, u32>>,
}

impl Marking {
    /// Empty marking.
    pub fn new() -> Marking {
        Marking::default()
    }

    /// Number of `color` tokens in `place`.
    pub fn count(&self, place: PlaceId, color: &Color) -> u32 {
        self.tokens
            .get(&place)
            .and_then(|m| m.get(color))
            .copied()
            .unwrap_or(0)
    }

    /// Total tokens in `place`.
    pub fn total(&self, place: PlaceId) -> u32 {
        self.tokens
            .get(&place)
            .map(|m| m.values().sum())
            .unwrap_or(0)
    }

    /// Total tokens anywhere.
    pub fn grand_total(&self) -> u32 {
        self.tokens
            .values()
            .map(|m| m.values().sum::<u32>())
            .sum()
    }

    /// Adds a token.
    pub fn add(&mut self, place: PlaceId, color: Color) {
        *self
            .tokens
            .entry(place)
            .or_default()
            .entry(color)
            .or_insert(0) += 1;
    }

    /// Removes one token of `color`; panics if absent (the caller must
    /// check enabledness first).
    pub fn remove(&mut self, place: PlaceId, color: &Color) {
        let per_place = self.tokens.get_mut(&place).expect("no tokens in place");
        let n = per_place.get_mut(color).expect("no token of that color");
        *n -= 1;
        if *n == 0 {
            per_place.remove(color);
            if per_place.is_empty() {
                self.tokens.remove(&place);
            }
        }
    }

    /// Colors present in `place`, ascending.
    pub fn colors(&self, place: PlaceId) -> Vec<&Color> {
        self.tokens
            .get(&place)
            .map(|m| m.keys().collect())
            .unwrap_or_default()
    }

    /// Non-empty places.
    pub fn marked_places(&self) -> impl Iterator<Item = PlaceId> + '_ {
        self.tokens.keys().copied()
    }
}

impl Net {
    /// Adds a place, returning its id.
    pub fn add_place(&mut self, name: impl Into<String>) -> PlaceId {
        let id = PlaceId(self.places.len() as u32);
        self.places.push(Place { name: name.into() });
        id
    }

    /// Adds a transition with modes, returning its id.
    pub fn add_transition(&mut self, name: impl Into<String>, modes: Vec<Mode>) -> TransitionId {
        let id = TransitionId(self.transitions.len() as u32);
        self.transitions.push(Transition {
            name: name.into(),
            modes,
        });
        id
    }

    /// Place name.
    pub fn place_name(&self, p: PlaceId) -> &str {
        &self.places[p.0 as usize].name
    }

    /// Transition name.
    pub fn transition_name(&self, t: TransitionId) -> &str {
        &self.transitions[t.0 as usize].name
    }

    /// A binding of a mode: which concrete color each input arc consumes.
    /// Returns every distinct binding enabled under `m` (deduplicated).
    pub fn enabled_bindings(
        &self,
        marking: &Marking,
        t: TransitionId,
        mode_idx: usize,
    ) -> Vec<Vec<Color>> {
        let mode = &self.transitions[t.0 as usize].modes[mode_idx];
        // Backtracking over arcs; a scratch marking tracks consumption so
        // two arcs on the same place cannot double-spend one token.
        fn go(
            mode: &Mode,
            idx: usize,
            scratch: &mut Marking,
            chosen: &mut Vec<Color>,
            out: &mut Vec<Vec<Color>>,
        ) {
            if idx == mode.inputs.len() {
                out.push(chosen.clone());
                return;
            }
            let arc = &mode.inputs[idx];
            let colors: Vec<Color> = scratch
                .colors(arc.place)
                .into_iter()
                .filter(|c| arc.filter.accepts(c))
                .cloned()
                .collect();
            for c in colors {
                scratch.remove(arc.place, &c);
                chosen.push(c.clone());
                go(mode, idx + 1, scratch, chosen, out);
                chosen.pop();
                scratch.add(arc.place, c);
            }
        }
        let mut out = Vec::new();
        let mut scratch = marking.clone();
        go(mode, 0, &mut scratch, &mut Vec::new(), &mut out);
        out.sort();
        out.dedup();
        out
    }

    /// Fires `t` in `mode_idx` with the given binding, returning the new
    /// marking. The binding must come from [`Net::enabled_bindings`].
    pub fn fire(
        &self,
        marking: &Marking,
        t: TransitionId,
        mode_idx: usize,
        binding: &[Color],
    ) -> Marking {
        let mut next = marking.clone();
        self.fire_in_place(&mut next, t, mode_idx, binding);
        next
    }

    /// [`Net::fire`] mutating `marking` directly — for long simulation runs
    /// where cloning the whole marking per firing dominates.
    pub fn fire_in_place(
        &self,
        marking: &mut Marking,
        t: TransitionId,
        mode_idx: usize,
        binding: &[Color],
    ) {
        let mode = &self.transitions[t.0 as usize].modes[mode_idx];
        assert_eq!(binding.len(), mode.inputs.len(), "binding arity mismatch");
        for (arc, color) in mode.inputs.iter().zip(binding) {
            marking.remove(arc.place, color);
        }
        for arc in &mode.outputs {
            marking.add(arc.place, arc.color.clone());
        }
    }

    /// All transition ids.
    pub fn transition_ids(&self) -> impl Iterator<Item = TransitionId> {
        (0..self.transitions.len() as u32).map(TransitionId)
    }

    /// Renders a marking with place names for diagnostics.
    pub fn render_marking(&self, m: &Marking) -> String {
        render_marking(m, |p| self.place_name(p).to_string())
    }
}

/// [`Net::render_marking`] with the place names supplied by `name`.
pub(crate) fn render_marking(m: &Marking, name: impl Fn(PlaceId) -> String) -> String {
    let mut parts = Vec::new();
    for p in m.marked_places() {
        let colors: Vec<String> = m
            .colors(p)
            .iter()
            .map(|c| format!("{}×{}", m.count(p, c), c))
            .collect();
        parts.push(format!("{}[{}]", name(p), colors.join(",")));
    }
    parts.join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// True if some mode of `t` has a binding under `marking`.
    fn enabled(net: &Net, marking: &Marking, t: TransitionId) -> bool {
        (0..net.transitions[t.0 as usize].modes.len())
            .any(|m| !net.enabled_bindings(marking, t, m).is_empty())
    }

    /// p1 --t--> p2 with unit tokens.
    fn simple() -> (Net, PlaceId, PlaceId, TransitionId) {
        let mut net = Net::default();
        let p1 = net.add_place("p1");
        let p2 = net.add_place("p2");
        let t = net.add_transition(
            "t",
            vec![Mode {
                label: "fire".into(),
                inputs: vec![ArcIn {
                    place: p1,
                    filter: ColorFilter::Any,
                }],
                outputs: vec![ArcOut {
                    place: p2,
                    color: Color::unit(),
                }],
            }],
        );
        net.initial.add(p1, Color::unit());
        (net, p1, p2, t)
    }

    #[test]
    fn fire_moves_token() {
        let (net, p1, p2, t) = simple();
        assert!(enabled(&net, &net.initial, t));
        let bindings = net.enabled_bindings(&net.initial, t, 0);
        assert_eq!(bindings.len(), 1);
        let m2 = net.fire(&net.initial, t, 0, &bindings[0]);
        assert_eq!(m2.total(p1), 0);
        assert_eq!(m2.total(p2), 1);
        assert!(!enabled(&net, &m2, t));
    }

    #[test]
    fn color_filter_blocks() {
        let mut net = Net::default();
        let p = net.add_place("p");
        let q = net.add_place("q");
        let t = net.add_transition(
            "t",
            vec![Mode {
                label: "onlyT".into(),
                inputs: vec![ArcIn {
                    place: p,
                    filter: ColorFilter::Eq(Color::of("T")),
                }],
                outputs: vec![ArcOut {
                    place: q,
                    color: Color::of("done"),
                }],
            }],
        );
        net.initial.add(p, Color::of("F"));
        assert!(!enabled(&net, &net.initial, t));
        net.initial.add(p, Color::of("T"));
        assert!(enabled(&net, &net.initial, t));
        let b = net.enabled_bindings(&net.initial, t, 0);
        assert_eq!(b, vec![vec![Color::of("T")]]);
    }

    #[test]
    fn two_arcs_same_place_no_double_spend() {
        let mut net = Net::default();
        let p = net.add_place("p");
        let q = net.add_place("q");
        let t = net.add_transition(
            "t",
            vec![Mode {
                label: "two".into(),
                inputs: vec![
                    ArcIn {
                        place: p,
                        filter: ColorFilter::Any,
                    },
                    ArcIn {
                        place: p,
                        filter: ColorFilter::Any,
                    },
                ],
                outputs: vec![ArcOut {
                    place: q,
                    color: Color::unit(),
                }],
            }],
        );
        net.initial.add(p, Color::unit());
        assert!(!enabled(&net, &net.initial, t), "one token, two arcs");
        net.initial.add(p, Color::unit());
        assert!(enabled(&net, &net.initial, t));
    }

    #[test]
    fn multiple_modes() {
        let mut net = Net::default();
        let p = net.add_place("run");
        let out = net.add_place("out");
        let t = net.add_transition(
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
        assert!(!net.enabled_bindings(&net.initial, t, 0).is_empty());
        assert!(!net.enabled_bindings(&net.initial, t, 1).is_empty());
        let m_t = net.fire(&net.initial, t, 0, &[Color::unit()]);
        assert_eq!(m_t.count(out, &Color::of("T")), 1);
        let m_f = net.fire(&net.initial, t, 1, &[Color::unit()]);
        assert_eq!(m_f.count(out, &Color::of("F")), 1);
    }

    #[test]
    fn marking_accounting() {
        let mut m = Marking::new();
        let p = PlaceId(0);
        m.add(p, Color::of("a"));
        m.add(p, Color::of("a"));
        m.add(p, Color::of("b"));
        assert_eq!(m.count(p, &Color::of("a")), 2);
        assert_eq!(m.total(p), 3);
        assert_eq!(m.grand_total(), 3);
        m.remove(p, &Color::of("a"));
        assert_eq!(m.count(p, &Color::of("a")), 1);
        m.remove(p, &Color::of("a"));
        m.remove(p, &Color::of("b"));
        assert_eq!(m.grand_total(), 0);
        assert_eq!(m, Marking::new(), "empty places canonicalize away");
    }

    #[test]
    fn one_of_filter() {
        let f = ColorFilter::OneOf(vec![Color::of("T"), Color::of("skip")]);
        assert!(f.accepts(&Color::of("T")));
        assert!(f.accepts(&Color::of("skip")));
        assert!(!f.accepts(&Color::of("F")));
    }
}

/// Summary statistics of a net.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NetStats {
    /// Number of places.
    pub places: usize,
    /// Number of transitions.
    pub transitions: usize,
    /// Total firing modes across all transitions.
    pub modes: usize,
    /// Total arcs (inputs + outputs across all modes).
    pub arcs: usize,
    /// Tokens in the initial marking.
    pub initial_tokens: u32,
}

impl Net {
    /// Computes summary statistics.
    pub fn stats(&self) -> NetStats {
        let modes = self.transitions.iter().map(|t| t.modes.len()).sum();
        let arcs = self
            .transitions
            .iter()
            .flat_map(|t| &t.modes)
            .map(|m| m.inputs.len() + m.outputs.len())
            .sum();
        NetStats {
            places: self.places.len(),
            transitions: self.transitions.len(),
            modes,
            arcs,
            initial_tokens: self.initial.grand_total(),
        }
    }

    /// Renders the net in Graphviz DOT syntax: places as circles (marked
    /// places show their initial tokens), transitions as boxes; arcs are
    /// the union over modes (mode labels and color filters annotate the
    /// edges).
    pub fn to_dot(&self, name: &str) -> String {
        let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
        let mut out = format!("digraph \"{}\" {{\n  rankdir=LR;\n", esc(name));
        out.push_str("  node [fontsize=10];\n  edge [fontsize=8];\n");
        for (i, p) in self.places.iter().enumerate() {
            let tokens = self.initial.total(PlaceId(i as u32));
            let label = if tokens > 0 {
                format!("{}\\n●×{}", esc(&p.name), tokens)
            } else {
                esc(&p.name)
            };
            out.push_str(&format!("  p{i} [shape=ellipse, label=\"{label}\"];\n"));
        }
        for (i, t) in self.transitions.iter().enumerate() {
            out.push_str(&format!(
                "  t{i} [shape=box, style=filled, fillcolor=\"#dddddd\", label=\"{}\"];\n",
                esc(&t.name)
            ));
        }
        // Deduplicated arcs across modes.
        let mut seen = std::collections::BTreeSet::new();
        for (ti, t) in self.transitions.iter().enumerate() {
            for m in &t.modes {
                for arc in &m.inputs {
                    let label = match &arc.filter {
                        ColorFilter::Any => String::new(),
                        ColorFilter::Eq(c) => c.to_string(),
                        ColorFilter::OneOf(cs) => cs
                            .iter()
                            .map(|c| c.to_string())
                            .collect::<Vec<_>>()
                            .join("|"),
                    };
                    if seen.insert((arc.place.0, ti as u32, label.clone(), true)) {
                        let attr = if label.is_empty() {
                            String::new()
                        } else {
                            format!(" [label=\"{}\"]", esc(&label))
                        };
                        out.push_str(&format!("  p{} -> t{}{};\n", arc.place.0, ti, attr));
                    }
                }
                for arc in &m.outputs {
                    let label = arc.color.to_string();
                    if seen.insert((arc.place.0, ti as u32, label.clone(), false)) {
                        let attr = if label == "•" {
                            String::new()
                        } else {
                            format!(" [label=\"{}\"]", esc(&label))
                        };
                        out.push_str(&format!("  t{} -> p{}{};\n", ti, arc.place.0, attr));
                    }
                }
            }
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod dot_tests {
    use super::*;

    #[test]
    fn stats_and_dot() {
        let mut net = Net::default();
        let p = net.add_place("todo(a)");
        let q = net.add_place("done(a)");
        net.add_transition(
            "finish(a)",
            vec![
                Mode {
                    label: "T".into(),
                    inputs: vec![ArcIn {
                        place: p,
                        filter: ColorFilter::Eq(Color::of("T")),
                    }],
                    outputs: vec![ArcOut {
                        place: q,
                        color: Color::of("T"),
                    }],
                },
                Mode {
                    label: "F".into(),
                    inputs: vec![ArcIn {
                        place: p,
                        filter: ColorFilter::Any,
                    }],
                    outputs: vec![ArcOut {
                        place: q,
                        color: Color::of("F"),
                    }],
                },
            ],
        );
        net.initial.add(p, Color::of("T"));
        let stats = net.stats();
        assert_eq!(stats.places, 2);
        assert_eq!(stats.transitions, 1);
        assert_eq!(stats.modes, 2);
        assert_eq!(stats.arcs, 4);
        assert_eq!(stats.initial_tokens, 1);

        let dot = net.to_dot("n");
        assert!(dot.contains("p0 [shape=ellipse"));
        assert!(dot.contains("●×1"), "initial marking shown");
        assert!(dot.contains("t0 [shape=box"));
        assert!(dot.contains("p0 -> t0 [label=\"T\"];"), "{dot}");
        assert!(dot.contains("t0 -> p1 [label=\"T\"];"));
        assert!(dot.contains("t0 -> p1 [label=\"F\"];"));
    }
}
