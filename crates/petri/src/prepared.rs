//! The wavefront simulator's compile and run halves, plus
//! guard-independence analysis over the lowered net's place footprints.
//!
//! [`Tables`] compiles a net into an integer kernel: every color is
//! interned to a dense `u32` id in ascending [`Color`] order (so id order
//! is byte order), color filters become `Any | Eq(id) | OneOf(ids)`, and
//! modes, arcs and the place → consuming-transitions index are flat
//! offset (CSR) arrays. [`Scratch`] is one worker's reusable run state:
//! a per-place `(color id, count)` marking reset from the compiled
//! initial marking, the sticky mode decisions, a word-bitset dirty
//! worklist and the enabled-mode, binding and trace buffers — after the
//! first run, a run allocates nothing.
//!
//! Validation replays the *same* net once per branch assignment, so
//! [`CompiledValidation`](crate::CompiledValidation) owns one `Tables` and
//! each pool worker one `Scratch`, and checks finality on the dense
//! counts; [`run_to_quiescence_wavefront`](crate::run_to_quiescence_wavefront)
//! derives both for a single run and converts the `(transition, mode)`
//! trace and the marking back to the public [`Run`]. [`Scratch::run`] is
//! the only wavefront loop, pinned trace for trace to the
//! [`run_to_quiescence`](crate::run_to_quiescence) oracle by the
//! `par_equivalence` property tests.
//!
//! [`guard_groups`] adds the independence analysis on top: the forward
//! place-closure reachable from each guard's `finish` outputs is the set
//! of places whose tokens can ever depend on that guard's value; guards
//! with disjoint closures cannot interact, so validation may enumerate
//! each group's assignments separately (multiplicative → additive).

use crate::lower::LoweredNet;
use crate::net::{Color, ColorFilter, Marking, Net, PlaceId, TransitionId};
use crate::reach::Run;
use dscweaver_dscl::ConstraintSet;
use dscweaver_graph::BitSet;
use std::collections::{BTreeMap, HashMap};

/// Rows of `T` in one flat array: row `i` is `items[at[i]..at[i + 1]]`.
#[derive(Debug)]
struct Csr<T> {
    at: Vec<u32>,
    items: Vec<T>,
}

impl<T> Csr<T> {
    fn new() -> Self {
        Csr {
            at: vec![0],
            items: Vec::new(),
        }
    }

    /// Closes the row being pushed.
    fn end_row(&mut self) {
        self.at.push(self.items.len() as u32);
    }

    fn row(&self, i: usize) -> &[T] {
        &self.items[self.at[i] as usize..self.at[i + 1] as usize]
    }

    /// Drops the growth slack, for tables that stay cached.
    fn shrink_to_fit(&mut self) {
        self.at.shrink_to_fit();
        self.items.shrink_to_fit();
    }
}

/// An input arc's color filter over interned color ids.
#[derive(Clone, Copy, Debug)]
enum Filter {
    Any,
    Eq(u32),
    /// Row `i` of `Tables::one_of`.
    OneOf(u32),
}

/// A net compiled to the wavefront's integer kernel. Modes are numbered
/// globally, transition by transition.
#[derive(Debug)]
pub(crate) struct Tables {
    /// Every color of the net, ascending; a color's id is its index.
    colors: Vec<Color>,
    /// Transition `t`'s modes are `first_mode[t]..first_mode[t + 1]`.
    first_mode: Vec<u32>,
    /// Per mode, its input arcs as `(place, filter)`.
    ins: Csr<(u32, Filter)>,
    /// The id lists of the `OneOf` filters.
    one_of: Csr<u32>,
    /// Per mode, its output arcs as `(place, color id)`.
    outs: Csr<(u32, u32)>,
    /// Per place, the transitions with an input arc on it, ascending.
    consumers: Csr<u32>,
    /// Per place, its initial `(color id, count)` tokens, ascending.
    initial: Csr<(u32, u32)>,
}

impl Tables {
    /// Compiles `net` into the kernel's tables.
    pub(crate) fn derive(net: &Net) -> Self {
        // Colors get provisional ids in first-use order here, and are
        // renumbered into ascending `Color` order at the end.
        let mut provisional: BTreeMap<&Color, u32> = BTreeMap::new();
        let mut id = |c| {
            let next = provisional.len() as u32;
            *provisional.entry(c).or_insert(next)
        };
        let mut t = Tables {
            first_mode: vec![0],
            ins: Csr::new(),
            one_of: Csr::new(),
            outs: Csr::new(),
            consumers: Csr::new(),
            initial: Csr::new(),
            colors: Vec::new(),
        };
        let mut consumers: Vec<Vec<u32>> = vec![Vec::new(); net.places.len()];
        for (ti, tr) in net.transitions.iter().enumerate() {
            for mode in &tr.modes {
                for arc in &mode.inputs {
                    let filter = match &arc.filter {
                        ColorFilter::Any => Filter::Any,
                        ColorFilter::Eq(c) => Filter::Eq(id(c)),
                        ColorFilter::OneOf(cs) => {
                            t.one_of.items.extend(cs.iter().map(&mut id));
                            t.one_of.end_row();
                            Filter::OneOf(t.one_of.at.len() as u32 - 2)
                        }
                    };
                    t.ins.items.push((arc.place.0, filter));
                    let list = &mut consumers[arc.place.0 as usize];
                    if list.last() != Some(&(ti as u32)) {
                        list.push(ti as u32);
                    }
                }
                t.ins.end_row();
                t.outs.items.extend(mode.outputs.iter().map(|a| (a.place.0, id(&a.color))));
                t.outs.end_row();
            }
            t.first_mode.push(t.ins.at.len() as u32 - 1);
        }
        let mut marked = net.initial.marked_places().peekable();
        for (p, list) in consumers.into_iter().enumerate() {
            t.consumers.items.extend(list);
            t.consumers.end_row();
            if let Some(place) = marked.next_if(|m| m.0 as usize == p) {
                let tokens = net.initial.colors(place).into_iter();
                t.initial.items.extend(tokens.map(|c| (id(c), net.initial.count(place, c))));
            }
            t.initial.end_row();
        }
        // Renumber: a color's final id is its rank in `Color` order.
        let mut rank = vec![0; provisional.len()];
        for (r, &i) in provisional.values().enumerate() {
            rank[i as usize] = r as u32;
        }
        for (_, filter) in &mut t.ins.items {
            if let Filter::Eq(c) = filter {
                *c = rank[*c as usize];
            }
        }
        let ids = t.one_of.items.iter_mut();
        let ids = ids.chain(t.outs.items.iter_mut().map(|(_, c)| c));
        for c in ids.chain(t.initial.items.iter_mut().map(|(c, _)| c)) {
            *c = rank[*c as usize];
        }
        t.colors = provisional.into_keys().cloned().collect();
        t.first_mode.shrink_to_fit();
        t.ins.shrink_to_fit();
        t.one_of.shrink_to_fit();
        t.outs.shrink_to_fit();
        t.consumers.shrink_to_fit();
        t.initial.shrink_to_fit();
        t
    }

    fn accepts(&self, filter: Filter, color: u32) -> bool {
        match filter {
            Filter::Any => true,
            Filter::Eq(c) => c == color,
            Filter::OneOf(row) => self.one_of.row(row as usize).contains(&color),
        }
    }

    /// The global modes of transition `t`.
    fn modes(&self, t: usize) -> std::ops::Range<usize> {
        self.first_mode[t] as usize..self.first_mode[t + 1] as usize
    }
}

/// `Scratch::decided` for a transition that has not chosen a mode yet.
const UNDECIDED: u32 = u32::MAX;

/// One worker's reusable run state: each [`run`](Scratch::run) resets it,
/// so its buffers are recycled across runs instead of reallocated.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// Per place, `(color id, count)` ascending by id. A count may fall
    /// to zero; the entry then stays until the next reset.
    tokens: Vec<Vec<(u32, u32)>>,
    /// Tokens anywhere.
    total: u64,
    /// Per transition, its sticky mode choice, or [`UNDECIDED`].
    decided: Vec<u32>,
    /// Bitset of the transitions that may be enabled.
    dirty: Vec<u64>,
    /// The enabled modes (transition-local) of the visited transition.
    enabled: Vec<usize>,
    /// Per input arc of the last binding, the token slot it drew from.
    binding: Vec<u32>,
    /// `(transition, transition-local mode)` per firing, in order.
    trace: Vec<(u32, u32)>,
}

impl Scratch {
    /// Runs `net` to quiescence from its initial marking — the wavefront
    /// loop documented on
    /// [`run_to_quiescence_wavefront`](crate::run_to_quiescence_wavefront)
    /// — and returns whether the step budget ran out. `tables` must come
    /// from [`Tables::derive`] on this same net.
    pub(crate) fn run(
        &mut self,
        net: &Net,
        tables: &Tables,
        mut choose_mode: impl FnMut(&Net, TransitionId, &[usize]) -> usize,
        max_steps: usize,
    ) -> bool {
        self.reset(tables);
        let mut steps = 0;
        loop {
            // Budget check sits between sweeps, exactly like the rescan's.
            if steps >= max_steps {
                return true;
            }
            let mut pos = 0;
            let mut progressed = false;
            while let Some(t) = self.next_dirty(pos) {
                pos = t + 1;
                let modes = tables.modes(t);
                self.enabled.clear();
                for m in modes.clone() {
                    if self.bind(tables, m) {
                        self.unbind(tables, m);
                        self.enabled.push(m - modes.start);
                    }
                }
                if self.enabled.is_empty() {
                    self.dirty[t / 64] &= !(1 << (t % 64));
                    continue;
                }
                let mi = match self.decided[t] as usize {
                    mi if self.enabled.contains(&mi) => mi,
                    _ => {
                        let mi = if self.enabled.len() == 1 {
                            self.enabled[0]
                        } else {
                            choose_mode(net, TransitionId(t as u32), &self.enabled)
                        };
                        self.decided[t] = mi as u32;
                        mi
                    }
                };
                let m = modes.start + mi;
                let bound = m < modes.end && self.bind(tables, m);
                assert!(bound, "chosen mode is enabled");
                // `bind` consumed the inputs; produce the outputs.
                self.total -= tables.ins.row(m).len() as u64;
                for &(p, c) in tables.outs.row(m) {
                    self.add(p as usize, c);
                    // Only consumers of the produced tokens can have
                    // gained enabledness. The fired transition itself
                    // stays dirty — the next sweep re-checks it, as the
                    // rescan would.
                    for &u in tables.consumers.row(p as usize) {
                        self.dirty[u as usize / 64] |= 1 << (u % 64);
                    }
                }
                self.trace.push((t as u32, mi as u32));
                progressed = true;
                steps += 1;
            }
            if !progressed {
                return false;
            }
        }
    }

    /// Resets the marking to the net's initial one and every transition
    /// to undecided and dirty.
    fn reset(&mut self, tables: &Tables) {
        let transitions = tables.first_mode.len() - 1;
        self.tokens.resize_with(tables.initial.at.len() - 1, Vec::new);
        for (p, list) in self.tokens.iter_mut().enumerate() {
            list.clear();
            list.extend_from_slice(tables.initial.row(p));
        }
        self.total = tables.initial.items.iter().map(|&(_, n)| n as u64).sum();
        self.decided.clear();
        self.decided.resize(transitions, UNDECIDED);
        self.dirty.clear();
        self.dirty.resize(transitions.div_ceil(64), !0);
        if !transitions.is_multiple_of(64) {
            self.dirty[transitions / 64] = (1 << (transitions % 64)) - 1;
        }
        self.trace.clear();
    }

    /// The first dirty transition at or after `from`.
    fn next_dirty(&self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        let mut bits = *self.dirty.get(w)? & (!0 << (from % 64));
        while bits == 0 {
            w += 1;
            bits = *self.dirty.get(w)?;
        }
        Some(w * 64 + bits.trailing_zeros() as usize)
    }

    /// Draws the lexicographically first binding of mode `m` — the one
    /// `Net::enabled_bindings(..)[0]` returns — by a depth-first search
    /// over its input arcs, each trying its place's accepting colors in
    /// ascending id (= color) order and taking the token out of the
    /// marking, so two arcs on one place cannot spend one token twice.
    /// On success the tokens stay consumed and `binding` holds the slot
    /// each arc drew from; on failure the marking is unchanged.
    fn bind(&mut self, tables: &Tables, m: usize) -> bool {
        let arcs = tables.ins.row(m);
        self.binding.clear();
        let mut from = 0;
        while let Some(&(p, filter)) = arcs.get(self.binding.len()) {
            let list = &mut self.tokens[p as usize];
            match (from..list.len()).find(|&k| list[k].1 > 0 && tables.accepts(filter, list[k].0)) {
                Some(k) => {
                    list[k].1 -= 1;
                    self.binding.push(k as u32);
                    from = 0;
                }
                None => {
                    // Backtrack: the previous arc returns its token and
                    // tries its next color.
                    let Some(k) = self.binding.pop() else {
                        return false;
                    };
                    let (p, _) = arcs[self.binding.len()];
                    self.tokens[p as usize][k as usize].1 += 1;
                    from = k as usize + 1;
                }
            }
        }
        true
    }

    /// Returns the tokens the last successful `bind` of mode `m` took.
    fn unbind(&mut self, tables: &Tables, m: usize) {
        for (&(p, _), &k) in tables.ins.row(m).iter().zip(&self.binding) {
            self.tokens[p as usize][k as usize].1 += 1;
        }
    }

    fn add(&mut self, place: usize, color: u32) {
        let list = &mut self.tokens[place];
        match list.binary_search_by_key(&color, |&(c, _)| c) {
            Ok(k) => list[k].1 += 1,
            Err(k) => list.insert(k, (color, 1)),
        }
        self.total += 1;
    }

    /// Tokens anywhere in the last run's final marking.
    pub(crate) fn total(&self) -> u64 {
        self.total
    }

    /// Tokens in `place` in the last run's final marking.
    pub(crate) fn place_total(&self, place: PlaceId) -> u64 {
        self.tokens[place.0 as usize].iter().map(|&(_, n)| n as u64).sum()
    }

    /// The last run's final marking as a [`Marking`].
    pub(crate) fn marking(&self, tables: &Tables) -> Marking {
        let mut marking = Marking::new();
        for (p, list) in self.tokens.iter().enumerate() {
            for &(c, n) in list {
                for _ in 0..n {
                    marking.add(PlaceId(p as u32), tables.colors[c as usize].clone());
                }
            }
        }
        marking
    }

    /// The last run as the public [`Run`], with mode labels.
    pub(crate) fn to_run(&self, net: &Net, tables: &Tables, diverged: bool) -> Run {
        let label = |t: u32, mi: u32| &net.transitions[t as usize].modes[mi as usize].label;
        Run {
            final_marking: self.marking(tables),
            trace: self.trace.iter().map(|&(t, mi)| (TransitionId(t), label(t, mi).clone())).collect(),
            diverged,
        }
    }
}

/// Partitions the guards of `cs` into independence groups by downstream
/// place footprint.
///
/// A guard's *footprint* is the forward place-closure seeded from the
/// output places of its `finish` transition's modes (the only transition
/// whose mode choice depends on the guard's value — see
/// [`assignment_chooser`](crate::assignment_chooser)): any place a token
/// can reach from there, following "a transition consuming from a
/// footprint place adds all its output places". Guards whose footprints
/// are disjoint cannot influence a common place, so the stuck/final
/// verdict of a run factorizes over the groups and validation may
/// enumerate each group's assignment sub-space separately with the other
/// guards pinned.
///
/// Guards with no lowered activity (ghost guards: a domain whose name is
/// not an activity) have empty footprints and form singleton groups.
/// Groups are returned ordered by their first guard in `cs.domains`
/// iteration order (sorted — `domains` is a `BTreeMap`), with the guards
/// inside each group in the same order: the output is deterministic.
pub fn guard_groups(lowered: &LoweredNet, cs: &ConstraintSet) -> Vec<Vec<String>> {
    groups(lowered, &Tables::derive(&lowered.net), cs)
}

/// [`guard_groups`] over the net's already compiled `tables`.
pub(crate) fn groups(lowered: &LoweredNet, tables: &Tables, cs: &ConstraintSet) -> Vec<Vec<String>> {
    let guards: Vec<&String> = cs.domains.keys().collect();
    if guards.is_empty() {
        return Vec::new();
    }
    let footprints: Vec<BitSet> = guards
        .iter()
        .map(|g| {
            // Forward closure: every output place of a transition that
            // consumes from the footprint joins it.
            let mut fp = BitSet::new(lowered.net.places.len());
            let mut todo: Vec<u32> = Vec::new();
            let produce = |t: usize, fp: &mut BitSet, todo: &mut Vec<u32>| {
                for m in tables.modes(t) {
                    for &(p, _) in tables.outs.row(m) {
                        if !fp.contains(p as usize) {
                            fp.insert(p as usize);
                            todo.push(p);
                        }
                    }
                }
            };
            if let Some(nodes) = lowered.activities.get(g.as_str()) {
                produce(nodes.finish.0 as usize, &mut fp, &mut todo);
            }
            while let Some(p) = todo.pop() {
                for &t in tables.consumers.row(p as usize) {
                    produce(t as usize, &mut fp, &mut todo);
                }
            }
            fp
        })
        .collect();

    // Union-find over guards; overlapping footprints merge.
    let mut parent: Vec<usize> = (0..guards.len()).collect();
    fn find(parent: &mut Vec<usize>, mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    for i in 0..guards.len() {
        for j in (i + 1)..guards.len() {
            if footprints[i].intersects(&footprints[j]) {
                let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                if ri != rj {
                    let (lo, hi) = (ri.min(rj), ri.max(rj));
                    parent[hi] = lo;
                }
            }
        }
    }

    // Collect groups keyed by root, emitted in first-member order.
    let mut groups: Vec<Vec<String>> = Vec::new();
    let mut root_to_group: HashMap<usize, usize> = HashMap::new();
    for (i, g) in guards.iter().enumerate() {
        let r = find(&mut parent, i);
        let gi = *root_to_group.entry(r).or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[gi].push((*g).clone());
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;
    use crate::net::{ArcIn, ArcOut, Mode};
    use crate::reach::{assignment_chooser, run_to_quiescence};
    use dscweaver_core::ExecConditions;
    use dscweaver_dscl::{Condition, Origin, Relation, StateRef};
    use std::collections::HashMap;

    /// Two independent guarded diamonds (g1 → x1/y1 → j1, g2 → x2/y2 → j2)
    /// sharing no places, plus one unguarded straggler.
    fn two_islands() -> ConstraintSet {
        let mut cs = ConstraintSet::new("islands");
        for a in ["g1", "x1", "y1", "j1", "g2", "x2", "y2", "j2", "solo"] {
            cs.add_activity(a);
        }
        for g in ["g1", "g2"] {
            cs.add_domain(g, vec!["T".into(), "F".into()]);
        }
        for (g, x, y, j) in [("g1", "x1", "y1", "j1"), ("g2", "x2", "y2", "j2")] {
            cs.push(Relation::before_if(
                StateRef::finish(g),
                StateRef::start(x),
                Condition::new(g, "T"),
                Origin::Control,
            ));
            cs.push(Relation::before_if(
                StateRef::finish(g),
                StateRef::start(y),
                Condition::new(g, "F"),
                Origin::Control,
            ));
            cs.push(Relation::before(
                StateRef::finish(x),
                StateRef::start(j),
                Origin::Data,
            ));
            cs.push(Relation::before(
                StateRef::finish(y),
                StateRef::start(j),
                Origin::Data,
            ));
        }
        cs
    }

    #[test]
    fn disjoint_diamonds_form_two_groups() {
        let cs = two_islands();
        let exec = ExecConditions::derive(&cs);
        let lowered = lower(&cs, &exec);
        let groups = guard_groups(&lowered, &cs);
        assert_eq!(groups, vec![vec!["g1".to_string()], vec!["g2".to_string()]]);
    }

    #[test]
    fn shared_join_merges_groups() {
        // Same two diamonds, but both joins feed one final sink: footprints
        // meet at the sink's places, so the guards collapse to one group.
        let mut cs = two_islands();
        cs.add_activity("sink");
        for j in ["j1", "j2"] {
            cs.push(Relation::before(
                StateRef::finish(j),
                StateRef::start("sink"),
                Origin::Data,
            ));
        }
        let exec = ExecConditions::derive(&cs);
        let lowered = lower(&cs, &exec);
        let groups = guard_groups(&lowered, &cs);
        assert_eq!(groups, vec![vec!["g1".to_string(), "g2".to_string()]]);
    }

    #[test]
    fn ghost_guard_is_a_singleton_group() {
        let mut cs = ConstraintSet::new("ghostly");
        cs.add_activity("a");
        cs.add_domain("ghost", vec!["T".into(), "F".into()]);
        let exec = ExecConditions::derive(&cs);
        let lowered = lower(&cs, &exec);
        let groups = guard_groups(&lowered, &cs);
        assert_eq!(groups, vec![vec!["ghost".to_string()]]);
    }

    /// The kernel's binding of mode `mi` of `t` in the net's initial
    /// marking, as colors.
    fn kernel_binding(net: &Net, t: TransitionId, mi: usize) -> Option<Vec<Color>> {
        let tables = Tables::derive(net);
        let mut scratch = Scratch::default();
        scratch.reset(&tables);
        let m = tables.modes(t.0 as usize).start + mi;
        if !scratch.bind(&tables, m) {
            return None;
        }
        let colors = tables.ins.row(m).iter().zip(&scratch.binding).map(|(&(p, _), &k)| {
            let (c, _) = scratch.tokens[p as usize][k as usize];
            tables.colors[c as usize].clone()
        });
        Some(colors.collect())
    }

    /// A one-transition net whose single mode has `inputs`, from `tokens`.
    fn one_mode(inputs: Vec<(u32, ColorFilter)>, tokens: &[(u32, &str)]) -> Net {
        let mut net = Net::default();
        for p in 0..3 {
            net.add_place(format!("p{p}"));
        }
        net.add_transition(
            "t",
            vec![Mode {
                label: "go".into(),
                inputs: inputs
                    .into_iter()
                    .map(|(p, filter)| ArcIn {
                        place: PlaceId(p),
                        filter,
                    })
                    .collect(),
                outputs: vec![ArcOut {
                    place: PlaceId(2),
                    color: Color::unit(),
                }],
            }],
        );
        for &(p, c) in tokens {
            net.initial.add(PlaceId(p), Color::of(c));
        }
        net
    }

    #[test]
    fn kernel_binding_is_the_first_enabled_binding() {
        let t = TransitionId(0);
        let any = || ColorFilter::Any;
        let eq = |c: &str| ColorFilter::Eq(Color::of(c));
        let one_of = |cs: &[&str]| ColorFilter::OneOf(cs.iter().map(|c| Color::of(c)).collect());
        let cases = [
            // Two arcs on one place: the first arc's smallest color is
            // the only `a`, which the second arc needs, so the search
            // backtracks to `b`.
            (
                one_mode(vec![(0, any()), (0, eq("a"))], &[(0, "a"), (0, "b"), (0, "b")]),
                Some(vec!["b", "a"]),
            ),
            // Two arcs sharing one token: disabled.
            (one_mode(vec![(0, any()), (0, any())], &[(0, "a")]), None),
            // `OneOf` filters on two places.
            (
                one_mode(
                    vec![(0, one_of(&["T", "skip"])), (1, one_of(&["b", "c"]))],
                    &[(0, "skip"), (0, "T"), (0, "F"), (1, "a"), (1, "c")],
                ),
                Some(vec!["T", "c"]),
            ),
            (
                one_mode(vec![(0, one_of(&["T", "skip"]))], &[(0, "F"), (1, "T")]),
                None,
            ),
            // "•" was created first but sorts after every ASCII color.
            (
                one_mode(vec![(0, any()), (1, eq("•"))], &[(0, "•"), (0, "Z"), (1, "•")]),
                Some(vec!["Z", "•"]),
            ),
        ];
        for (net, want) in cases {
            let want: Option<Vec<Color>> = want.map(|w| w.iter().map(|c| Color::of(c)).collect());
            assert_eq!(net.enabled_bindings(&net.initial, t, 0).first(), want.as_ref());
            assert_eq!(kernel_binding(&net, t, 0), want);
        }
    }

    #[test]
    fn session_replays_wavefront_bit_identically() {
        // One scratch reused across runs must replay the rescan oracle.
        let cs = two_islands();
        let exec = ExecConditions::derive(&cs);
        let lowered = lower(&cs, &exec);
        let tables = Tables::derive(&lowered.net);
        let mut scratch = Scratch::default();
        for (v1, v2) in [("T", "T"), ("T", "F"), ("F", "T"), ("F", "F"), ("T", "T")] {
            let assignment: HashMap<String, String> = [
                ("finish(g1)".to_string(), v1.to_string()),
                ("finish(g2)".to_string(), v2.to_string()),
            ]
            .into();
            let oracle =
                run_to_quiescence(&lowered.net, assignment_chooser(&assignment), 1_000_000);
            let diverged = scratch.run(
                &lowered.net,
                &tables,
                assignment_chooser(&assignment),
                1_000_000,
            );
            let reused = scratch.to_run(&lowered.net, &tables, diverged);
            assert_eq!(oracle.trace, reused.trace);
            assert_eq!(oracle.final_marking, reused.final_marking);
            assert_eq!(oracle.diverged, reused.diverged);
        }
    }
}
