//! The lane kernel: [`Scratch::run`](super::Scratch::run) bit-sliced
//! over up to 64 runs of one kernel.
//!
//! Validation replays one kernel per branch assignment, and the runs
//! differ only in the modes the guards' `finish` transitions prefer. In a
//! 1-safe run — no place ever holds two tokens — a marking is a set of
//! (place, color) pairs, so [`Lanes`] keeps one `u64` per place (its
//! occupancy) and one per (place, color) pair, bit `k` standing for run
//! `k` (lane `k`). One sweep visits the transitions in the scalar's order
//! and fires each in every lane where it is enabled:
//!
//! * a mode's enabled mask is the AND of its input arcs' masks: an `Any`
//!   arc reads its place's occupancy, an `Eq(c)` arc the (place, c) mask
//!   and a `OneOf` arc the OR of its accepted colors' masks;
//! * the sticky per-transition choice is one lane mask per mode. Lanes
//!   whose sticky mode is not enabled take their preferred mode if it is
//!   enabled, else the first enabled one — validation's scalar chooser,
//!   per mask;
//! * each lane counts its own firings in a bit-sliced counter, and the
//!   `max_steps` check between sweeps applies per lane.
//!
//! A transition that is not dirty in a lane's own run is disabled there,
//! so visiting the union of the lanes' dirty sets fires exactly what each
//! lane's run fires, in the same order: every lane replays `Scratch::run`
//! firing for firing.
//!
//! The kernel never renders a marking. A lane leaves it as *unsafe* when
//! its run needs more than one token in a place, and the caller re-runs
//! it through `Scratch::run`:
//!
//! * every lane, when the initial marking starts a place with two tokens;
//! * a lane in which a firing would put a second token on an occupied
//!   place;
//! * a lane that picks a mode with two input arcs on one place. Such a
//!   mode needs two tokens there, so the scalar run never finds it
//!   enabled, while the AND does wherever the place is marked. The lane
//!   picks it only where the scalar chooser would have picked another
//!   mode (or none), and firing finds the place already emptied by the
//!   mode's earlier arc; any other pick is the scalar's.

use super::{all_dirty, next_dirty, Filter, Tables};

/// How the lanes of one [`Lanes::run`] ended, as lane masks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct LaneOutcome {
    /// Ran to quiescence within the step budget.
    pub(crate) quiet: u64,
    /// Ran out of step budget.
    pub(crate) diverged: u64,
    /// Needed two tokens in one place.
    pub(crate) unsafe_: u64,
    /// Sweeps the run took.
    pub(crate) sweeps: u64,
}

/// One worker's reusable lane state, recycled across runs like
/// [`Scratch`](super::Scratch).
#[derive(Debug, Default)]
pub(crate) struct Lanes {
    /// Per place its occupancy mask, then per (place, color) its mask at
    /// [`slot`]`(p, c)`.
    words: Vec<u64>,
    /// Per mode, the lanes whose sticky choice for its transition is it.
    decided: Vec<u64>,
    /// Per mode, the lanes that prefer it.
    prefer: Vec<u64>,
    /// Per mode of the visited transition, the lanes it is enabled in.
    enabled: Vec<u64>,
    /// Bitset of the transitions that may be enabled in some lane.
    dirty: Vec<u64>,
    /// Bit-sliced firing counts: bit `k` of `steps[b]` is bit `b` of
    /// lane `k`'s count.
    steps: Vec<u64>,
}

/// The word of color `c` at place `p` in [`Lanes::words`].
fn slot(tables: &Tables, p: u32, c: u32) -> usize {
    tables.places() + p as usize * tables.colors.len() + c as usize
}

impl Lanes {
    /// Clears every lane's preferred modes.
    pub(crate) fn clear_preferences(&mut self, tables: &Tables) {
        self.prefer.clear();
        self.prefer.resize(tables.ins.at.len() - 1, 0);
    }

    /// Makes `lane` prefer transition `t`'s local mode `mi`, when `t` has
    /// one — the mode the scalar chooser picks whenever it is enabled.
    pub(crate) fn prefer(&mut self, tables: &Tables, t: usize, mi: usize, lane: usize) {
        let modes = tables.modes(t);
        if mi < modes.len() {
            self.prefer[modes.start + mi] |= 1 << lane;
        }
    }

    /// Runs the `live` lanes of the kernel to quiescence from its initial
    /// marking, each exactly as [`Scratch::run`](super::Scratch::run)
    /// with its preferred modes would, and reports how each ended.
    pub(crate) fn run(&mut self, tables: &Tables, mut live: u64, max_steps: usize) -> LaneOutcome {
        let mut out = LaneOutcome::default();
        if !self.reset(tables, live) {
            out.unsafe_ = live;
            return out;
        }
        loop {
            // Budget check between sweeps, per lane, as in the scalar run.
            let over = live & self.at_least(max_steps);
            out.diverged |= over;
            live &= !over;
            if live == 0 {
                return out;
            }
            out.sweeps += 1;
            let mut progressed = 0;
            let mut pos = 0;
            while let Some(t) = next_dirty(&self.dirty, pos) {
                pos = t + 1;
                let modes = tables.modes(t);
                let (mut any, mut sticky) = (0, 0);
                self.enabled.clear();
                for m in modes.clone() {
                    let mut e = live;
                    for &(p, filter) in tables.ins.row(m) {
                        if e == 0 {
                            break;
                        }
                        e &= self.read(tables, p, filter);
                    }
                    self.enabled.push(e);
                    any |= e;
                    sticky |= e & self.decided[m];
                }
                if any == 0 {
                    self.dirty[t / 64] &= !(1 << (t % 64));
                    continue;
                }
                // Lanes without an enabled sticky mode choose anew: their
                // preferred mode if enabled, else the first enabled one.
                let fresh = any & !sticky;
                let mut first = fresh;
                for (mi, m) in modes.clone().enumerate() {
                    first &= !(self.enabled[mi] & self.prefer[m]);
                }
                for (mi, m) in modes.enumerate() {
                    let e = self.enabled[mi];
                    let chosen = e & (fresh & self.prefer[m] | first);
                    first &= !e;
                    let fire = e & self.decided[m] | chosen;
                    self.decided[m] = self.decided[m] & !fresh | chosen;
                    if fire != 0 {
                        out.unsafe_ |= self.fire(tables, m, fire);
                        live &= !out.unsafe_;
                        self.count(fire);
                        progressed |= fire;
                    }
                }
            }
            let quiet = live & !progressed;
            out.quiet |= quiet;
            live &= !quiet;
        }
    }

    /// Resets every lane in `live` to the initial marking, every
    /// transition to undecided and dirty, and every count to zero —
    /// unless the initial marking starts a place with two tokens, which
    /// `false` reports.
    fn reset(&mut self, tables: &Tables, live: u64) -> bool {
        let places = tables.places();
        self.words.clear();
        self.words.resize(places * (1 + tables.colors.len()), 0);
        for p in 0..places {
            match *tables.initial.row(p) {
                [] => {}
                [(c, 1)] => {
                    self.words[p] = live;
                    self.words[slot(tables, p as u32, c)] = live;
                }
                _ => return false,
            }
        }
        self.decided.clear();
        self.decided.resize(tables.ins.at.len() - 1, 0);
        all_dirty(&mut self.dirty, tables);
        self.steps.clear();
        self.steps.resize(64, 0);
        true
    }

    /// The lanes in which the arc `(p, filter)` finds its token.
    fn read(&self, tables: &Tables, p: u32, filter: Filter) -> u64 {
        match filter {
            Filter::Any => self.words[p as usize],
            Filter::Eq(c) => self.words[slot(tables, p, c)],
            Filter::OneOf(row) => {
                let colors = tables.one_of.row(row as usize).iter();
                colors.fold(0, |acc, &c| acc | self.words[slot(tables, p, c)])
            }
        }
    }

    /// Fires mode `m` in the lanes `fire` and returns those of them the
    /// one-token-per-place marking cannot follow: where an earlier arc of
    /// the mode already took the token an arc needs, or where an output
    /// lands on an occupied place.
    fn fire(&mut self, tables: &Tables, m: usize, fire: u64) -> u64 {
        let mut clash = 0;
        // Each lane holds one token per input place: take it, whatever
        // its color.
        for &(p, _) in tables.ins.row(m) {
            clash |= fire & !self.words[p as usize];
            self.words[p as usize] &= !fire;
            let colors = slot(tables, p, 0)..slot(tables, p + 1, 0);
            for w in &mut self.words[colors] {
                *w &= !fire;
            }
        }
        for &(p, c) in tables.outs.row(m) {
            clash |= self.words[p as usize] & fire;
            self.words[p as usize] |= fire;
            self.words[slot(tables, p, c)] |= fire;
            for &u in tables.consumers.row(p as usize) {
                self.dirty[u as usize / 64] |= 1 << (u % 64);
            }
        }
        clash
    }

    /// Adds one to the counts of the lanes in `lanes`.
    fn count(&mut self, lanes: u64) {
        let mut carry = lanes;
        for plane in &mut self.steps {
            let next = *plane & carry;
            *plane ^= carry;
            carry = next;
            if carry == 0 {
                return;
            }
        }
    }

    /// The lanes whose count is at least `k`.
    fn at_least(&self, k: usize) -> u64 {
        let (mut above, mut equal) = (0, !0);
        for (b, &plane) in self.steps.iter().enumerate().rev() {
            if (k as u64 >> b) & 1 == 1 {
                equal &= plane;
            } else {
                above |= equal & plane;
                equal &= !plane;
            }
        }
        above | equal
    }

    /// The lanes whose last run ended in the lowering's final marking:
    /// every activity's `done` place (`3a + 2`, `a < activities`) marked
    /// and nothing else.
    pub(crate) fn final_lanes(&self, tables: &Tables, activities: usize) -> u64 {
        (0..tables.places()).fold(!0, |acc, p| {
            let done = p < 3 * activities && p % 3 == 2;
            acc & if done { self.words[p] } else { !self.words[p] }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::Scratch;
    use super::*;
    use crate::net::{ArcIn, ArcOut, Color, ColorFilter, Mode, Net, PlaceId};

    /// A seeded xorshift stream of `0..n` draws.
    fn rng(mut state: u64) -> impl FnMut(usize) -> usize {
        move |n| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        }
    }

    /// A small random colored net: multi-mode transitions, `Any`/`Eq`/
    /// `OneOf` filters, arcs sharing a place, modes without inputs, and an
    /// initial marking that sometimes starts a place with two tokens.
    fn random_net(next: &mut impl FnMut(usize) -> usize) -> Net {
        const COLORS: [&str; 4] = ["•", "T", "F", "skip"];
        let color = |next: &mut dyn FnMut(usize) -> usize| Color::of(COLORS[next(COLORS.len())]);
        let mut net = Net::default();
        let places = 2 + next(6);
        for p in 0..places {
            net.add_place(format!("p{p}"));
        }
        for t in 0..1 + next(7) {
            let modes = (0..1 + next(3))
                .map(|m| Mode {
                    label: format!("m{m}"),
                    inputs: (0..[0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2][next(16)])
                        .map(|_| ArcIn {
                            place: PlaceId(next(places) as u32),
                            filter: match next(4) {
                                0 | 1 => ColorFilter::Any,
                                2 => ColorFilter::Eq(color(next)),
                                _ => ColorFilter::OneOf(
                                    (0..1 + next(2)).map(|_| color(next)).collect(),
                                ),
                            },
                        })
                        .collect(),
                    outputs: (0..next(3))
                        .map(|_| ArcOut {
                            place: PlaceId(next(places) as u32),
                            color: color(next),
                        })
                        .collect(),
                })
                .collect();
            net.add_transition(format!("t{t}"), modes);
        }
        for p in 0..places {
            if next(2) == 0 {
                net.initial.add(PlaceId(p as u32), color(next));
            }
        }
        if next(8) == 0 {
            net.initial.add(PlaceId(next(places) as u32), color(next));
        }
        net
    }

    /// Every lane that stays in the kernel ends exactly as its scalar run
    /// under the same preferences: quiescent with the same marking, or
    /// out of budget in both. Lanes that leave it as unsafe are the
    /// scalar fallback's.
    #[test]
    fn lanes_replay_the_scalar_run_on_random_colored_nets() {
        let mut next = rng(0x1a4e_5eed);
        let mut scratch = Scratch::default();
        let mut lanes = Lanes::default();
        let (mut quiet, mut diverged, mut unsafe_, mut chose) = (0, 0, 0, 0);
        for case in 0..1500 {
            let net = random_net(&mut next);
            let tables = Tables::derive(&net);
            let transitions = tables.first_mode.len() - 1;
            let width = 1 + next(64);
            // Per lane, per transition: a preferred local mode (possibly
            // past the last one) or none.
            let prefs: Vec<Vec<Option<usize>>> = (0..width)
                .map(|_| {
                    (0..transitions)
                        .map(|_| (next(2) == 0).then(|| next(4)))
                        .collect()
                })
                .collect();
            lanes.clear_preferences(&tables);
            for (lane, pref) in prefs.iter().enumerate() {
                for (t, mi) in pref.iter().enumerate() {
                    if let &Some(mi) = mi {
                        lanes.prefer(&tables, t, mi, lane);
                    }
                }
            }
            let max_steps = [0usize, 3, 25, 200][case % 4];
            let out = lanes.run(&tables, u64::MAX >> (64 - width), max_steps);
            assert_eq!(out.quiet & out.diverged, 0);
            assert_eq!((out.quiet | out.diverged) & out.unsafe_, 0);
            assert_eq!(
                out.quiet | out.diverged | out.unsafe_,
                u64::MAX >> (64 - width),
                "case {case}"
            );
            for (lane, pref) in prefs.iter().enumerate() {
                let bit = 1u64 << lane;
                let mut calls = 0;
                let chooser = |t: usize, enabled: &[usize]| {
                    calls += 1;
                    match pref[t] {
                        Some(mi) if enabled.contains(&mi) => mi,
                        _ => enabled[0],
                    }
                };
                let scalar_diverged = scratch.run(&tables, chooser, max_steps);
                chose += (calls > 0) as usize;
                if out.unsafe_ & bit != 0 {
                    unsafe_ += 1;
                    continue;
                }
                assert_eq!(
                    out.diverged & bit != 0,
                    scalar_diverged,
                    "case {case} lane {lane}: {net:?}"
                );
                if scalar_diverged {
                    diverged += 1;
                    continue;
                }
                quiet += 1;
                let mut want: Vec<(usize, u32)> = Vec::new();
                for (p, list) in scratch.tokens.iter().enumerate() {
                    for &(c, n) in list {
                        assert!(
                            n <= 1,
                            "case {case} lane {lane}: a safe lane held {n} tokens"
                        );
                        if n == 1 {
                            want.push((p, c));
                        }
                    }
                }
                let mut got: Vec<(usize, u32)> = Vec::new();
                for p in 0..tables.places() {
                    let occupied = lanes.words[p] & bit != 0;
                    for c in 0..tables.colors.len() as u32 {
                        if lanes.words[slot(&tables, p as u32, c)] & bit != 0 {
                            assert!(occupied, "case {case} lane {lane}: a color of empty p{p}");
                            got.push((p, c));
                        }
                    }
                }
                assert_eq!(got, want, "case {case} lane {lane}: {net:?}");
            }
        }
        assert!(
            quiet > 10_000 && diverged > 1_000 && unsafe_ > 1_000,
            "{quiet} quiet, {diverged} diverged, {unsafe_} unsafe"
        );
        assert!(chose > 5_000, "only {chose} runs chose between modes");
    }
}
