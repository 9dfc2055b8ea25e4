//! The wavefront simulator's compile and run halves, plus
//! guard-independence analysis over the kernel's place footprints.
//!
//! [`Tables`] is the integer kernel: every color is a dense `u32` id in
//! ascending [`Color`] order (so id order is byte order), color filters
//! are `Any | Eq(id) | OneOf(ids)`, and modes, arcs and the place →
//! consuming-transitions index are flat offset (CSR) arrays. It comes
//! from one of two compilers. [`Tables::emit`] writes the kernel of a
//! constraint set's lowering from the set and its execution conditions
//! [`resolve`](dscweaver_core::resolve())d onto ids — activities,
//! relations, listened guards and their values are ids, guard order and
//! color ids come from the resolver's byte-order ranks, and no string is
//! hashed — in the numbering of [`try_lower`](crate::try_lower) without
//! its string net, and returns [`Names`], the compact index that names
//! activities and places on the rare path that prints them.
//! [`Tables::derive`] interns a caller-supplied [`Net`]; `emit` is pinned
//! to `derive` over the lowered net field for field.
//!
//! [`Scratch`] is one worker's reusable run state: a per-place
//! `(color id, count)` marking reset from the compiled initial marking,
//! the sticky mode decisions, a word-bitset dirty worklist and the
//! enabled-mode, binding and trace buffers — after the first run, a run
//! allocates nothing. Its mode chooser sees transition and mode indices
//! only.
//!
//! Validation replays the *same* kernel once per branch assignment, so
//! [`CompiledValidation`](crate::CompiledValidation) owns one emitted
//! `Tables` with its `Names`, runs up to 64 assignments per sweep of the
//! lane kernel ([`Lanes`], the scalar run bit-sliced) and re-runs the
//! lanes that fall back on one `Scratch`;
//! [`run_to_quiescence_wavefront`](crate::run_to_quiescence_wavefront)
//! derives the tables of a raw net for a single run and converts the
//! `(transition, mode)` trace and the marking back to the public [`Run`].
//! [`Scratch::run`] is the only wavefront loop, pinned trace for trace to
//! the [`run_to_quiescence`](crate::run_to_quiescence) oracle by the
//! `par_equivalence` property tests.
//!
//! [`guard_groups`] adds the independence analysis on top: the forward
//! place-closure reachable from each guard's `finish` outputs is the set
//! of places whose tokens can ever depend on that guard's value; guards
//! with disjoint closures cannot interact, so validation may enumerate
//! each group's assignments separately (multiplicative → additive).

use crate::lower::{ModeLimit, MAX_MODES, SKIP};
use crate::net::{Color, ColorFilter, Marking, Net, PlaceId, TransitionId};
use crate::reach::Run;
use dscweaver_core::resolve::Kind;
use dscweaver_core::{resolve, ExecConditions, Resolved};
use dscweaver_dscl::{ActivityState, ConstraintSet, Name};
use std::collections::{BTreeMap, HashMap};

mod lanes;
pub(crate) use lanes::Lanes;

/// Rows of `T` in one flat array: row `i` is `items[at[i]..at[i + 1]]`.
#[derive(Debug)]
#[cfg_attr(test, derive(PartialEq))]
pub(crate) struct Csr<T> {
    at: Vec<u32>,
    items: Vec<T>,
}

impl Csr<u32> {
    /// `rows` rows, row `r` holding the items of the `(r, item)` pairs in
    /// their order in `pairs` — a counting sort.
    pub(crate) fn grouped(rows: usize, pairs: &[(u32, u32)]) -> Self {
        let mut at = vec![0; rows + 1];
        for &(r, _) in pairs {
            at[r as usize + 1] += 1;
        }
        for r in 0..rows {
            at[r + 1] += at[r];
        }
        let mut items = vec![0; pairs.len()];
        let mut next = at.clone();
        for &(r, item) in pairs {
            items[next[r as usize] as usize] = item;
            next[r as usize] += 1;
        }
        Csr { at, items }
    }
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

    pub(crate) fn row(&self, i: usize) -> &[T] {
        &self.items[self.at[i] as usize..self.at[i + 1] as usize]
    }

    /// Drops the growth slack, for tables that stay cached.
    fn shrink_to_fit(&mut self) {
        self.at.shrink_to_fit();
        self.items.shrink_to_fit();
    }

    /// `u32` words in the arrays, counting an item as `words_per_item`.
    fn words(&self, words_per_item: usize) -> usize {
        self.at.len() + words_per_item * self.items.len()
    }
}

/// An input arc's color filter over interned color ids.
#[derive(Clone, Copy, Debug)]
#[cfg_attr(test, derive(PartialEq))]
enum Filter {
    Any,
    Eq(u32),
    /// Row `i` of `Tables::one_of`.
    OneOf(u32),
}

/// A net compiled to the wavefront's integer kernel. Modes are numbered
/// globally, transition by transition.
#[derive(Debug)]
#[cfg_attr(test, derive(PartialEq))]
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

/// The unit color's text ([`Color::unit`]).
const UNIT: &str = "•";

/// Where a constraint buffer or control place attaches to an activity in
/// [`Tables::emit`]; the order is the order the wires are consumed in.
const IN_START: u32 = 0;
const IN_FINISH: u32 = 1;
const OUT_START: u32 = 2;
const OUT_FINISH: u32 = 3;
const BROADCAST: u32 = 4;

impl Tables {
    fn empty() -> Self {
        Tables {
            colors: Vec::new(),
            first_mode: vec![0],
            ins: Csr::new(),
            one_of: Csr::new(),
            outs: Csr::new(),
            consumers: Csr::new(),
            initial: Csr::new(),
        }
    }

    /// Compiles `net` into the kernel's tables.
    pub(crate) fn derive(net: &Net) -> Self {
        // Colors get provisional ids in first-use order here, and are
        // renumbered into ascending `Color` order at the end.
        let mut provisional: BTreeMap<&Color, u32> = BTreeMap::new();
        let mut id = |c| {
            let next = provisional.len() as u32;
            *provisional.entry(c).or_insert(next)
        };
        let mut t = Tables::empty();
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
        t.renumber(&rank);
        t.colors = provisional.into_keys().cloned().collect();
        t.shrink_to_fit();
        t
    }

    /// Emits the kernel `Tables::derive(&lower(cs, exec).net)` compiles,
    /// from the set and execution conditions [`resolve`](resolve())d onto ids,
    /// without building the string net, plus the [`Names`] behind its
    /// numbers — or the first activity past [`MAX_MODES`], counted before
    /// any mode is enumerated, exactly as [`try_lower`](crate::try_lower)
    /// reports it.
    ///
    /// The numbering is `try_lower`'s: activity `i`'s `todo`, `run` and
    /// `done` are places `3i`, `3i + 1`, `3i + 2`; the constraint buffers
    /// follow in relation order, then the `ctl(g→b)` places listener by
    /// listener, guards in name order. Each activity's transitions are
    /// `start`, `finish` and, when it listens on a guard, `skip`; `start`
    /// and `skip` modes walk the listened guards' `domain + [skip]`
    /// values with the first guard slowest. A color's provisional id is
    /// its position among the value names and `•`, `done` and `skip` in
    /// byte order, and its final id its rank among the colors an arc or
    /// the initial marking actually uses.
    pub(crate) fn emit(ids: Resolved) -> Result<(Tables, Names), ModeLimit> {
        let n = ids.activities() as u32;
        let mut names = Names {
            acts: n as usize,
            ..Names::default()
        };
        // `(5 · activity + attachment, place)` per wire.
        let mut wires: Vec<(u32, u32)> = Vec::new();
        let mut place = 3 * n;
        let activity = |id: u32| (id < n).then_some(id);

        // Constraint buffers, in relation order.
        let end = |s| matches!(s, ActivityState::Finish) as u32;
        for (kind, from, to, _) in ids.relations() {
            match kind {
                Kind::Before => {
                    if let Some(i) = activity(from.0) {
                        wires.push((5 * i + OUT_START + end(from.1), place));
                    }
                    if let Some(i) = activity(to.0) {
                        wires.push((5 * i + IN_START + end(to.1), place));
                    }
                    names.buffers.push([from, to]);
                    place += 1;
                }
                Kind::Together => debug_assert!(false, "desugar before lowering"),
                Kind::Exclusive => {}
            }
        }

        // Control places, listener by listener. Every mode count is
        // checked here, before any mode is enumerated.
        let ctl0 = place;
        let dom_len = |g: u32| ids.domain(g).map_or(0, <[u32]>::len);
        // Activity `b` listens on controls `listeners[b]..listeners[b + 1]`.
        let mut listeners: Vec<usize> = vec![0];
        // Per control place, its guard.
        let mut listened: Vec<u32> = Vec::new();
        let mut gs: Vec<u32> = Vec::new();
        for b in 0..n {
            gs.clear();
            gs.extend(ids.exec_terms(b).flatten().map(|&(g, _)| g));
            gs.sort_unstable_by_key(|&g| ids.guard_rank(g));
            gs.dedup();
            let modes = gs.iter().map(|&g| dom_len(g) + 1).fold(1usize, usize::saturating_mul);
            if modes > MAX_MODES {
                return Err(ModeLimit {
                    activity: ids.names()[b as usize].to_string(),
                    modes,
                });
            }
            for &g in &gs {
                if let Some(i) = ids.guard_activity(g) {
                    wires.push((5 * i + BROADCAST, place));
                }
                names.controls.push((g, b));
                listened.push(g);
                place += 1;
            }
            listeners.push(listened.len());
        }

        // Row `5i + k` holds activity `i`'s `k` places, ascending.
        let wiring = Csr::grouped(5 * n as usize, &wires);

        // Each activity's own declared guard, if it is one.
        let mut own: Vec<Option<u32>> = vec![None; n as usize];
        for g in 0..ids.declared_guards() as u32 {
            if let Some(i) = ids.guard_activity(g) {
                own[i as usize] = Some(g);
            }
        }

        // Colors: the value names and the lowering's own colors in byte
        // order, numbered by rank among the colors an arc or the initial
        // marking uses — known before any mode is written. Every activity
        // marks `•` and writes `done` on finishing; every assignment of a
        // listener's guards is a `start` or a `skip` mode, so each value of
        // a listened guard, `skip` included, meets an `Eq` arc; a guard's
        // own values leave its `finish` only through a wire.
        let mut palette: Vec<&str> = ids.ranked_values().iter().map(Name::as_str).collect();
        palette.extend([UNIT, "done", SKIP]);
        palette.sort_unstable();
        palette.dedup();
        let color = |c: &str| palette.binary_search(&c).expect("a palette color");
        let value_color: Vec<usize> = ids.ranked_values().iter().map(|v| color(v)).collect();
        let color_of = |g: u32, v: u32| value_color[ids.value_rank(g, v) as usize];
        let mut used = vec![false; palette.len()];
        if n > 0 {
            used[color(UNIT)] = true;
            used[color("done")] = true;
        }
        used[color(SKIP)] |= !listened.is_empty();
        let mut mark = |g: u32| {
            for &v in ids.domain(g).into_iter().flatten() {
                used[color_of(g, v)] = true;
            }
        };
        listened.iter().for_each(|&g| mark(g));
        for (i, g) in own.iter().enumerate() {
            let wired = |k: u32| !wiring.row(5 * i + k as usize).is_empty();
            if let (Some(g), true) = (g, wired(OUT_FINISH) || wired(BROADCAST)) {
                mark(*g);
            }
        }
        let mut rank = vec![u32::MAX; palette.len()];
        let mut colors = Vec::new();
        for (c, _) in used.iter().enumerate().filter(|(_, &u)| u) {
            rank[c] = colors.len() as u32;
            colors.push(Color::of(palette[c]));
        }
        let value = |g: u32, v: u32| rank[color_of(g, v)];
        let (unit, done, skip) = (rank[color(UNIT)], rank[color("done")], rank[color(SKIP)]);

        // Transitions, activity by activity.
        let mut t = Tables::empty();
        let mut finish_of: Vec<u32> = Vec::with_capacity(n as usize);
        // Per listened guard, `(offset, len)` of its value ids in `values`.
        let (mut radix, mut values) = (Vec::new(), Vec::new());
        // The execution condition's terms as `conds[term_at[k]..term_at[k + 1]]`,
        // each condition a `(listened guard, value id)` pair.
        let (mut term_at, mut conds) = (Vec::new(), Vec::new());
        let (mut digits, mut sat, mut fin) = (Vec::new(), Vec::new(), Vec::new());
        for i in 0..n as usize {
            let (todo, run, done_p) = (3 * i as u32, 3 * i as u32 + 1, 3 * i as u32 + 2);
            let wired = |k: u32| wiring.row(5 * i + k as usize).iter().copied();
            let ls = listeners[i]..listeners[i + 1];
            let guards = &listened[ls.clone()];
            radix.clear();
            values.clear();
            for &g in guards {
                radix.push((values.len(), dom_len(g) + 1));
                values.extend(ids.domain(g).into_iter().flatten().map(|&v| value(g, v)));
                values.push(skip);
            }
            term_at.clear();
            conds.clear();
            if !guards.is_empty() {
                term_at.push(0);
                for term in ids.exec_terms(i as u32) {
                    for &(g, v) in term {
                        let j = guards.iter().position(|&x| x == g).expect("a listened guard");
                        conds.push((j, value(g, v)));
                    }
                    term_at.push(conds.len());
                }
            }
            let satisfied = |digits: &[usize]| {
                term_at.windows(2).any(|w| {
                    let value = |j: usize| values[radix[j].0 + digits[j]];
                    conds[w[0]..w[1]].iter().all(|&(j, v)| value(j) == v)
                })
            };
            // Input arcs `start` and `skip` share: `todo`, the start-side
            // buffers, then one `Eq` arc per listened guard.
            let start_ins = |digits: &[usize], ins: &mut Vec<(u32, Filter)>| {
                ins.push((todo, Filter::Any));
                ins.extend(wired(IN_START).map(|p| (p, Filter::Any)));
                for (j, &(at, _)) in radix.iter().enumerate() {
                    let ctl = ctl0 + (ls.start + j) as u32;
                    ins.push((ctl, Filter::Eq(values[at + digits[j]])));
                }
            };
            let assignments: usize = radix.iter().map(|r| r.1).product();
            let advance = |digits: &mut Vec<usize>| {
                for j in (0..digits.len()).rev() {
                    digits[j] += 1;
                    if digits[j] < radix[j].1 {
                        return;
                    }
                    digits[j] = 0;
                }
            };

            // start(a): one mode per satisfying assignment (the single
            // assignment of no guards when unconditional).
            digits.clear();
            digits.resize(radix.len(), 0);
            sat.clear();
            for _ in 0..assignments {
                let ok = guards.is_empty() || satisfied(&digits);
                sat.push(ok);
                if ok {
                    start_ins(&digits, &mut t.ins.items);
                    t.ins.end_row();
                    t.outs.items.push((run, unit));
                    t.outs.items.extend(wired(OUT_START).map(|p| (p, done)));
                    t.outs.end_row();
                }
                advance(&mut digits);
            }
            t.first_mode.push(t.ins.at.len() as u32 - 1);

            // finish(a): one mode per branch value for guards, else one.
            finish_of.push(t.first_mode.len() as u32 - 1);
            fin.clear();
            match own[i] {
                Some(g) => fin.extend(ids.domain(g).into_iter().flatten().map(|&v| value(g, v))),
                None => fin.push(done),
            }
            for &v in &fin {
                t.ins.items.push((run, Filter::Any));
                t.ins.items.extend(wired(IN_FINISH).map(|p| (p, Filter::Any)));
                t.ins.end_row();
                t.outs.items.push((done_p, done));
                let outs = wired(OUT_FINISH).chain(wired(BROADCAST));
                t.outs.items.extend(outs.map(|p| (p, v)));
                t.outs.end_row();
            }
            t.first_mode.push(t.ins.at.len() as u32 - 1);

            // skip(a): one mode per falsifying assignment.
            if !guards.is_empty() {
                digits.iter_mut().for_each(|d| *d = 0);
                for &ok in &sat {
                    if !ok {
                        start_ins(&digits, &mut t.ins.items);
                        t.ins.items.extend(wired(IN_FINISH).map(|p| (p, Filter::Any)));
                        t.ins.end_row();
                        t.outs.items.push((done_p, skip));
                        let outs = wired(OUT_START).chain(wired(OUT_FINISH)).chain(wired(BROADCAST));
                        t.outs.items.extend(outs.map(|p| (p, skip)));
                        t.outs.end_row();
                    }
                    advance(&mut digits);
                }
                t.first_mode.push(t.ins.at.len() as u32 - 1);
            }
        }

        // Per place, the transitions consuming from it, ascending.
        let places = place as usize;
        let mut last = vec![u32::MAX; places];
        let mut consumed: Vec<(u32, u32)> = Vec::with_capacity(t.ins.items.len());
        for tr in 0..t.first_mode.len() - 1 {
            for m in t.modes(tr) {
                for &(p, _) in t.ins.row(m) {
                    if std::mem::replace(&mut last[p as usize], tr as u32) != tr as u32 {
                        consumed.push((p, tr as u32));
                    }
                }
            }
        }
        t.consumers = Csr::grouped(places, &consumed);
        for p in 0..places as u32 {
            if p < 3 * n && p % 3 == 0 {
                t.initial.items.push((unit, 1));
            }
            t.initial.end_row();
        }

        debug_assert!(
            t.outs.items.iter().all(|&(_, c)| (c as usize) < colors.len()),
            "an arc writes a color counted unused"
        );
        t.colors = colors;
        t.shrink_to_fit();

        names.guards = (0..ids.declared_guards() as u32)
            .map(|g| Guard {
                name: ids.guard_name(g).clone(),
                domain: ids.domain(g).into_iter().flatten().map(|&v| ids.value_name(g, v).clone()).collect(),
                finish: ids.guard_activity(g).map(|i| finish_of[i as usize]),
            })
            .collect();
        names.guard_names = (0..ids.guards() as u32).map(|g| ids.guard_name(g).clone()).collect();
        names.names = ids.into_names();
        Ok((t, names))
    }

    /// Rewrites every color id `c` to `rank[c]`.
    fn renumber(&mut self, rank: &[u32]) {
        for (_, filter) in &mut self.ins.items {
            if let Filter::Eq(c) = filter {
                *c = rank[*c as usize];
            }
        }
        let ids = self.one_of.items.iter_mut();
        let ids = ids.chain(self.outs.items.iter_mut().map(|(_, c)| c));
        for c in ids.chain(self.initial.items.iter_mut().map(|(c, _)| c)) {
            *c = rank[*c as usize];
        }
    }

    fn shrink_to_fit(&mut self) {
        self.colors.shrink_to_fit();
        self.first_mode.shrink_to_fit();
        self.ins.shrink_to_fit();
        self.one_of.shrink_to_fit();
        self.outs.shrink_to_fit();
        self.consumers.shrink_to_fit();
        self.initial.shrink_to_fit();
    }

    /// `u32` words in the flat arrays, an arc or a token entry counting
    /// as two.
    pub(crate) fn words(&self) -> usize {
        self.first_mode.len()
            + self.ins.words(2)
            + self.one_of.words(1)
            + self.outs.words(2)
            + self.consumers.words(1)
            + self.initial.words(2)
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

    /// Places in the kernel.
    fn places(&self) -> usize {
        self.consumers.at.len() - 1
    }
}

/// A guard of the compiled constraint set.
#[derive(Debug)]
pub(crate) struct Guard {
    /// The guard's name.
    pub(crate) name: Name,
    /// Its branch values, in declaration order.
    pub(crate) domain: Vec<Name>,
    /// Its `finish` transition, when the guard is an activity.
    pub(crate) finish: Option<u32>,
}

impl Guard {
    /// The `finish` mode the lowering labels with value `domain[v]`.
    pub(crate) fn mode(&self, v: usize) -> usize {
        self.domain.iter().position(|d| *d == self.domain[v]).unwrap_or(v)
    }
}

/// The names behind an emitted kernel's numbers, materialized only on the
/// rare path: a failing run's stuck list and rendered marking.
#[derive(Debug, Default)]
pub(crate) struct Names {
    /// The resolved set's names by id: `cs.activities`, sorted, first —
    /// activity `i` owns places `3i` (`todo`), `3i + 1` (`run`) and
    /// `3i + 2` (`done`) — then services and undeclared names.
    names: Vec<Name>,
    /// Activities: name ids `0..acts`.
    acts: usize,
    /// The resolved set's guard names by guard id.
    guard_names: Vec<Name>,
    /// Per constraint buffer, its relation's endpoints.
    buffers: Vec<[(u32, ActivityState); 2]>,
    /// Per control place, its guard id and listening activity.
    controls: Vec<(u32, u32)>,
    /// The guards, in `cs.domains` (sorted) order.
    pub(crate) guards: Vec<Guard>,
}

impl Names {
    /// The activities, sorted; activity `i`'s `done` place is `3i + 2`.
    pub(crate) fn activities(&self) -> &[Name] {
        &self.names[..self.acts]
    }

    /// Place `p`'s name in the lowered net.
    pub(crate) fn place_name(&self, p: PlaceId) -> String {
        let p = p.0 as usize;
        let n = self.acts;
        if p < 3 * n {
            let kind = ["todo", "run", "done"][p % 3];
            return format!("{kind}({})", self.names[p / 3]);
        }
        let name = |id: u32| &self.names[id as usize];
        match self.buffers.get(p - 3 * n) {
            Some(&[(f, fs), (t, ts)]) => format!("c({fs}({})->{ts}({}))", name(f), name(t)),
            None => {
                let (g, b) = self.controls[p - 3 * n - self.buffers.len()];
                format!("ctl({}->{})", self.guard_names[g as usize], name(b))
            }
        }
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
    /// Runs the kernel to quiescence from its initial marking — the
    /// wavefront loop documented on
    /// [`run_to_quiescence_wavefront`](crate::run_to_quiescence_wavefront)
    /// — and returns whether the step budget ran out. `choose_mode`
    /// receives a transition with several enabled modes and their
    /// transition-local indices, and picks one.
    pub(crate) fn run(
        &mut self,
        tables: &Tables,
        mut choose_mode: impl FnMut(usize, &[usize]) -> usize,
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
            while let Some(t) = next_dirty(&self.dirty, pos) {
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
                            choose_mode(t, &self.enabled)
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
        all_dirty(&mut self.dirty, tables);
        self.trace.clear();
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

/// Sets every transition of `tables` in the bitset `dirty`.
fn all_dirty(dirty: &mut Vec<u64>, tables: &Tables) {
    let transitions = tables.first_mode.len() - 1;
    dirty.clear();
    dirty.resize(transitions.div_ceil(64), !0);
    if !transitions.is_multiple_of(64) {
        dirty[transitions / 64] = (1 << (transitions % 64)) - 1;
    }
}

/// The first transition in the bitset `dirty` at or after `from`.
fn next_dirty(dirty: &[u64], from: usize) -> Option<usize> {
    let mut w = from / 64;
    let mut bits = *dirty.get(w)? & (!0 << (from % 64));
    while bits == 0 {
        w += 1;
        bits = *dirty.get(w)?;
    }
    Some(w * 64 + bits.trailing_zeros() as usize)
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
///
/// Panics, like [`lower`](crate::lower()), on an activity past
/// [`MAX_MODES`].
pub fn guard_groups(cs: &ConstraintSet, exec: &ExecConditions) -> Vec<Vec<String>> {
    let (tables, names) = Tables::emit(resolve(cs, exec))
        .unwrap_or_else(|l| panic!("{} needs {} modes", l.activity, l.modes));
    let name = |i: usize| names.guards[i].name.to_string();
    let groups = groups(&tables, &names.guards);
    groups.into_iter().map(|g| g.into_iter().map(name).collect()).collect()
}

/// [`guard_groups`] over an emitted kernel, as indices into `guards`.
///
/// One forward search per guard, in order, over places not yet claimed:
/// a search claims the unclaimed places it reaches, and at a place an
/// earlier guard claimed it merges with that guard instead of going on —
/// everything downstream of a claimed place lies in the claimer's group's
/// footprints already. Every place is expanded once, and two guards end
/// up merged exactly when a chain of footprint overlaps links them.
pub(crate) fn groups(tables: &Tables, guards: &[Guard]) -> Vec<Vec<usize>> {
    let mut parent: Vec<usize> = (0..guards.len()).collect();
    fn find(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    let mut owner = vec![usize::MAX; tables.places()];
    // The guard whose search last produced each transition: producing it
    // again in the same search finds every output claimed already.
    let mut produced = vec![usize::MAX; tables.first_mode.len() - 1];
    let mut todo: Vec<u32> = Vec::new();
    for (i, g) in guards.iter().enumerate() {
        let mut produce = |t: usize, todo: &mut Vec<u32>| {
            if std::mem::replace(&mut produced[t], i) == i {
                return;
            }
            for m in tables.modes(t) {
                for &(p, _) in tables.outs.row(m) {
                    match owner[p as usize] {
                        usize::MAX => {
                            owner[p as usize] = i;
                            todo.push(p);
                        }
                        j if j != i => {
                            let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                            parent[ri.max(rj)] = ri.min(rj);
                        }
                        _ => {}
                    }
                }
            }
        };
        if let Some(finish) = g.finish {
            produce(finish as usize, &mut todo);
        }
        while let Some(p) = todo.pop() {
            for &t in tables.consumers.row(p as usize) {
                produce(t as usize, &mut todo);
            }
        }
    }

    // Collect groups keyed by root, emitted in first-member order.
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut root_to_group: HashMap<usize, usize> = HashMap::new();
    for i in 0..guards.len() {
        let r = find(&mut parent, i);
        let gi = *root_to_group.entry(r).or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[gi].push(i);
    }
    groups
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::lower::{lower, try_lower};
    use crate::net::{ArcIn, ArcOut, Mode};
    use crate::reach::{assignment_chooser, run_to_quiescence};
    use dscweaver_core::Weaver;
    use dscweaver_dscl::{Condition, Origin, Relation, StateRef};
    use dscweaver_workloads::{
        dense_conditional, disjoint_conditional, layered, purchasing_dependencies,
        DenseConditionalParams, DisjointConditionalParams, LayeredParams,
    };

    /// `k` nested binary guards `g0 … g{k-1}` (each runs only when the
    /// previous one chose `T`) and an activity `d` under the innermost.
    pub(crate) fn nested_guards(k: usize) -> ConstraintSet {
        let mut cs = ConstraintSet::new("nested");
        cs.add_activity("d");
        for i in 0..k {
            let g = format!("g{i}");
            cs.add_activity(&g);
            cs.add_domain(&g, vec!["T".into(), "F".into()]);
            let next = if i + 1 < k { format!("g{}", i + 1) } else { "d".into() };
            cs.push(Relation::before_if(
                StateRef::finish(&g),
                StateRef::start(&next),
                Condition::new(&g, "T"),
                Origin::Control,
            ));
        }
        cs
    }

    /// Asserts `emit` writes the kernel `derive` compiles from the lowered
    /// net, field for field, and that its names are the net's place and
    /// activity names.
    fn assert_emits_the_oracle(cs: &ConstraintSet, exec: &ExecConditions, what: &str) {
        let lowered = lower(cs, exec);
        let (emitted, names) = Tables::emit(resolve(cs, exec)).unwrap();
        assert!(emitted == Tables::derive(&lowered.net), "{what}: kernel differs");
        for (p, place) in lowered.net.places.iter().enumerate() {
            assert_eq!(
                names.place_name(PlaceId(p as u32)),
                place.name,
                "{what}: place {p}"
            );
        }
        let want: Vec<&str> = lowered.activities.keys().map(String::as_str).collect();
        let got: Vec<&str> = names.activities().iter().map(|a| &**a).collect();
        assert_eq!(got, want, "{what}: activities");
        for g in &names.guards {
            let finish = lowered.activities.get(g.name.as_str()).map(|a| a.finish.0);
            assert_eq!(g.finish, finish, "{what}: finish of {}", g.name);
        }
    }

    #[test]
    fn emitted_kernel_equals_the_derived_oracle_on_seeded_workloads() {
        let mut sets = vec![("purchasing".to_string(), purchasing_dependencies())];
        for seed in [3, 42] {
            let params = LayeredParams {
                width: 5,
                depth: 8,
                density: 0.3,
                redundant: 30,
                guards: 3,
                seed,
            };
            sets.push((format!("layered seed {seed}"), layered(&params)));
            let params = DenseConditionalParams {
                guards: 5,
                chain_len: 3,
                redundant: 16,
                seed,
            };
            sets.push((format!("dense_conditional seed {seed}"), dense_conditional(&params)));
            let params = DisjointConditionalParams {
                groups: 2,
                guards_per_group: 3,
                chain_len: 2,
                redundant: 6,
                seed,
            };
            sets.push((format!("disjoint_conditional seed {seed}"), disjoint_conditional(&params)));
        }
        for (what, ds) in sets {
            let out = Weaver::new().run(&ds).unwrap();
            assert_emits_the_oracle(&out.minimal, &out.exec, &format!("{what} minimal"));
            assert_emits_the_oracle(&out.sc, &out.exec, &format!("{what} sc"));
        }
    }

    #[test]
    fn emitted_kernel_equals_the_derived_oracle_on_edge_cases() {
        // `x` listens on a ghost guard (a domain with no activity); `quiet`
        // is a guard nobody listens on and whose values reach no arc;
        // relations name undeclared activities; `Exclusive` lowers to
        // nothing.
        let mut cs = ConstraintSet::new("edges");
        for a in ["g", "quiet", "x", "y"] {
            cs.add_activity(a);
        }
        cs.add_domain("g", vec!["T".into(), "F".into(), "M".into()]);
        cs.add_domain("ghost", vec!["on".into(), "off".into()]);
        cs.add_domain("quiet", vec!["never1".into(), "never2".into()]);
        let control = |g: &str, v: &str, to: &str| {
            let cond = Condition::new(g, v);
            Relation::before_if(StateRef::finish(g), StateRef::start(to), cond, Origin::Control)
        };
        cs.relations.push(control("g", "T", "x"));
        cs.relations.push(control("ghost", "on", "x"));
        cs.relations.push(control("g", "M", "y"));
        cs.push(Relation::before(StateRef::start("x"), StateRef::finish("y"), Origin::Data));
        cs.push(Relation::before(StateRef::finish("nobody"), StateRef::start("y"), Origin::Data));
        cs.push(Relation::before(StateRef::run("y"), StateRef::finish("elsewhere"), Origin::Data));
        cs.push(Relation::Exclusive {
            a: StateRef::run("x"),
            b: StateRef::run("y"),
            origin: Origin::Cooperation,
        });
        let exec = ExecConditions::derive(&cs);
        assert_emits_the_oracle(&cs, &exec, "edge cases");
        let (tables, _) = Tables::emit(resolve(&cs, &exec)).unwrap();
        assert!(!tables.colors.contains(&Color::of("never1")));
        assert!(tables.colors.contains(&Color::of("on")));

        let nested = nested_guards(7);
        let exec = ExecConditions::derive(&nested);
        assert_emits_the_oracle(&nested, &exec, "nested_guards(7)");
        let (tables, _) = Tables::emit(resolve(&nested, &exec)).unwrap();
        assert_eq!(tables.modes(0).len() + tables.modes(2).len(), 2187, "start(d) + skip(d)");
    }

    #[test]
    fn emit_stops_at_the_mode_limit_like_try_lower() {
        for k in [8, 64] {
            let cs = nested_guards(k);
            let exec = ExecConditions::derive(&cs);
            let want = try_lower(&cs, &exec).unwrap_err();
            assert_eq!(Tables::emit(resolve(&cs, &exec)).unwrap_err(), want, "nested_guards({k})");
        }
    }

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
        let groups = guard_groups(&cs, &exec);
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
        let groups = guard_groups(&cs, &exec);
        assert_eq!(groups, vec![vec!["g1".to_string(), "g2".to_string()]]);
    }

    #[test]
    fn ghost_guard_is_a_singleton_group() {
        let mut cs = ConstraintSet::new("ghostly");
        cs.add_activity("a");
        cs.add_domain("ghost", vec!["T".into(), "F".into()]);
        let exec = ExecConditions::derive(&cs);
        let groups = guard_groups(&cs, &exec);
        assert_eq!(groups, vec![vec!["ghost".to_string()]]);
    }

    /// The groups of guards whose footprints (each computed whole) chain
    /// together by pairwise overlap, in first-member order.
    fn pairwise_groups(tables: &Tables, guards: &[Guard]) -> Vec<Vec<usize>> {
        let footprints: Vec<Vec<bool>> = guards
            .iter()
            .map(|g| {
                let mut fp = vec![false; tables.places()];
                let mut fired: Vec<usize> = g.finish.iter().map(|&t| t as usize).collect();
                while let Some(t) = fired.pop() {
                    for m in tables.modes(t) {
                        for &(p, _) in tables.outs.row(m) {
                            if !std::mem::replace(&mut fp[p as usize], true) {
                                fired.extend(tables.consumers.row(p as usize).iter().map(|&u| u as usize));
                            }
                        }
                    }
                }
                fp
            })
            .collect();
        let mut label: Vec<usize> = (0..guards.len()).collect();
        let overlap = |i: usize, j: usize| footprints[i].iter().zip(&footprints[j]).any(|(a, b)| *a && *b);
        let mut changed = true;
        while changed {
            changed = false;
            for i in 0..guards.len() {
                for j in 0..guards.len() {
                    if label[j] > label[i] && overlap(i, j) {
                        label[j] = label[i];
                        changed = true;
                    }
                }
            }
        }
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for i in 0..guards.len() {
            match groups.iter_mut().find(|g| label[g[0]] == label[i]) {
                Some(g) => g.push(i),
                None => groups.push(vec![i]),
            }
        }
        groups
    }

    #[test]
    fn claimed_place_search_groups_like_pairwise_overlap() {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n) as u32
        };
        let mut merged = 0;
        for _ in 0..2000 {
            // A random net: 14 places, 10 transitions of 1–2 modes with
            // 1–2 input and 0–2 output arcs; 5 guards, some without a
            // `finish`.
            let mut net = Net::default();
            for p in 0..14 {
                net.add_place(format!("p{p}"));
            }
            for t in 0..10 {
                let modes = (0..1 + next(2))
                    .map(|_| Mode {
                        label: "m".into(),
                        inputs: (0..1 + next(2))
                            .map(|_| ArcIn { place: PlaceId(next(14)), filter: ColorFilter::Any })
                            .collect(),
                        outputs: (0..next(3))
                            .map(|_| ArcOut { place: PlaceId(next(14)), color: Color::unit() })
                            .collect(),
                    })
                    .collect();
                net.add_transition(format!("t{t}"), modes);
            }
            let tables = Tables::derive(&net);
            let guards: Vec<Guard> = (0..5)
                .map(|g| Guard {
                    name: format!("g{g}").into(),
                    domain: vec!["T".into()],
                    finish: (next(5) > 0).then(|| next(10)),
                })
                .collect();
            let want = pairwise_groups(&tables, &guards);
            assert_eq!(groups(&tables, &guards), want);
            merged += (want.len() < 5) as usize;
        }
        assert!(merged > 500, "only {merged} nets merged guards");
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
            let mut chooser = assignment_chooser(&assignment);
            let chooser = |t: usize, e: &[usize]| chooser(&lowered.net, TransitionId(t as u32), e);
            let diverged = scratch.run(&tables, chooser, 1_000_000);
            let reused = scratch.to_run(&lowered.net, &tables, diverged);
            assert_eq!(oracle.trace, reused.trace);
            assert_eq!(oracle.final_marking, reused.final_marking);
            assert_eq!(oracle.diverged, reused.diverged);
        }
    }
}
