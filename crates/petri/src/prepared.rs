//! The wavefront simulator's compile and run halves, plus
//! guard-independence analysis over the lowered net's place footprints.
//!
//! [`Tables`] holds what the wavefront derives from a net — the place →
//! consuming-transitions index and the per-mode distinct-input-places
//! flags — and [`Scratch`] one worker's reusable marking, decided-mode map
//! and dirty worklist. Validation replays the *same* net once per branch
//! assignment, so [`CompiledValidation`](crate::CompiledValidation) owns
//! one `Tables` and each pool worker one `Scratch`;
//! [`run_to_quiescence_wavefront`](crate::run_to_quiescence_wavefront)
//! derives both for a single run. [`Scratch::run`] is the only wavefront
//! loop, pinned trace for trace to the
//! [`run_to_quiescence`](crate::run_to_quiescence) oracle by the
//! `par_equivalence` property tests.
//!
//! [`guard_groups`] adds the independence analysis on top: the forward
//! place-closure reachable from each guard's `finish` outputs is the set
//! of places whose tokens can ever depend on that guard's value; guards
//! with disjoint closures cannot interact, so validation may enumerate
//! each group's assignments separately (multiplicative → additive).

use crate::lower::LoweredNet;
use crate::net::{Marking, Net, TransitionId};
use crate::reach::{first_binding, Run};
use dscweaver_dscl::ConstraintSet;
use dscweaver_graph::BitSet;
use std::collections::{BTreeSet, HashMap};

/// The wavefront simulator's derived tables for one net.
#[derive(Debug)]
pub(crate) struct Tables {
    /// `consumers[p]` = transitions with an input arc on place `p` in any
    /// mode, ascending.
    consumers: Vec<Vec<u32>>,
    /// `distinct[t][mode]` = no two input arcs of the mode share a place
    /// (licenses the clone-free `first_binding` fast path).
    distinct: Vec<Vec<bool>>,
}

impl Tables {
    /// Derives the consumer and distinct-input-place tables from a net.
    pub(crate) fn derive(net: &Net) -> Self {
        let mut consumers: Vec<Vec<u32>> = vec![Vec::new(); net.places.len()];
        let mut distinct: Vec<Vec<bool>> = Vec::with_capacity(net.transitions.len());
        for (ti, tr) in net.transitions.iter().enumerate() {
            let mut ins: BTreeSet<u32> = BTreeSet::new();
            let mut per_mode = Vec::with_capacity(tr.modes.len());
            for mode in &tr.modes {
                let mut places: Vec<u32> = mode.inputs.iter().map(|a| a.place.0).collect();
                for &p in &places {
                    ins.insert(p);
                }
                places.sort_unstable();
                places.dedup();
                per_mode.push(places.len() == mode.inputs.len());
            }
            distinct.push(per_mode);
            for p in ins {
                consumers[p as usize].push(ti as u32);
            }
        }
        Tables {
            consumers,
            distinct,
        }
    }
}

/// One worker's reusable simulation state: each [`run`](Scratch::run)
/// resets it, so the marking, the decided-mode map and the dirty worklist
/// are recycled across runs instead of reallocated.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    marking: Marking,
    decided: HashMap<TransitionId, usize>,
    dirty: BTreeSet<u32>,
}

impl Scratch {
    /// Runs `net` to quiescence from its initial marking — the wavefront
    /// loop documented on
    /// [`run_to_quiescence_wavefront`](crate::run_to_quiescence_wavefront).
    /// `tables` must come from [`Tables::derive`] on this same net.
    pub(crate) fn run(
        &mut self,
        net: &Net,
        tables: &Tables,
        mut choose_mode: impl FnMut(&Net, TransitionId, &[usize]) -> usize,
        max_steps: usize,
    ) -> Run {
        self.marking.clone_from(&net.initial);
        self.decided.clear();
        self.dirty.clear();
        self.dirty.extend(0..net.transitions.len() as u32);
        let mut trace = Vec::new();
        let mut steps = 0;
        loop {
            // Budget check sits between sweeps, exactly like the rescan's.
            if steps >= max_steps {
                return Run {
                    final_marking: self.marking.clone(),
                    trace,
                    diverged: true,
                };
            }
            let mut pos = 0u32;
            let mut progressed = false;
            while let Some(t) = self.dirty.range(pos..).next().copied() {
                let tid = TransitionId(t);
                let enabled: Vec<usize> = (0..net.transitions[t as usize].modes.len())
                    .filter(|&mi| {
                        first_binding(net, &self.marking, tid, mi, tables.distinct[t as usize][mi])
                            .is_some()
                    })
                    .collect();
                pos = t + 1;
                if enabled.is_empty() {
                    self.dirty.remove(&t);
                    continue;
                }
                let mode = match self.decided.get(&tid) {
                    Some(&mi) if enabled.contains(&mi) => mi,
                    _ => {
                        let mi = if enabled.len() == 1 {
                            enabled[0]
                        } else {
                            choose_mode(net, tid, &enabled)
                        };
                        self.decided.insert(tid, mi);
                        mi
                    }
                };
                let binding =
                    first_binding(net, &self.marking, tid, mode, tables.distinct[t as usize][mode])
                        .expect("chosen mode is enabled");
                net.fire_in_place(&mut self.marking, tid, mode, &binding);
                trace.push((tid, net.transitions[t as usize].modes[mode].label.clone()));
                progressed = true;
                steps += 1;
                // Only consumers of the produced tokens can have gained
                // enabledness. The fired transition itself stays dirty —
                // the next sweep re-checks it, as the rescan would.
                for arc in &net.transitions[t as usize].modes[mode].outputs {
                    for &c in &tables.consumers[arc.place.0 as usize] {
                        self.dirty.insert(c);
                    }
                }
            }
            if !progressed {
                return Run {
                    final_marking: self.marking.clone(),
                    trace,
                    diverged: false,
                };
            }
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
    let guards: Vec<&String> = cs.domains.keys().collect();
    if guards.is_empty() {
        return Vec::new();
    }
    let net = &lowered.net;
    let n_places = net.places.len();

    // Per-transition deduped input/output place lists over all modes.
    let mut tin: Vec<Vec<u32>> = Vec::with_capacity(net.transitions.len());
    let mut tout: Vec<Vec<u32>> = Vec::with_capacity(net.transitions.len());
    for tr in &net.transitions {
        let mut ins: Vec<u32> = tr
            .modes
            .iter()
            .flat_map(|m| m.inputs.iter().map(|a| a.place.0))
            .collect();
        let mut outs: Vec<u32> = tr
            .modes
            .iter()
            .flat_map(|m| m.outputs.iter().map(|a| a.place.0))
            .collect();
        ins.sort_unstable();
        ins.dedup();
        outs.sort_unstable();
        outs.dedup();
        tin.push(ins);
        tout.push(outs);
    }

    let footprints: Vec<BitSet> = guards
        .iter()
        .map(|g| {
            let mut fp = BitSet::new(n_places);
            if let Some(nodes) = lowered.activities.get(g.as_str()) {
                for mode in &net.transitions[nodes.finish.0 as usize].modes {
                    for arc in &mode.outputs {
                        fp.insert(arc.place.0 as usize);
                    }
                }
            }
            // Forward closure: saturate "consumes from footprint ⇒
            // produces into footprint". Lowered nets are shallow DAG-ish,
            // so the fixpoint converges in a few passes.
            let mut changed = true;
            while changed {
                changed = false;
                for t in 0..net.transitions.len() {
                    if tin[t].iter().any(|&p| fp.contains(p as usize))
                        && tout[t].iter().any(|&p| !fp.contains(p as usize))
                    {
                        for &p in &tout[t] {
                            fp.insert(p as usize);
                        }
                        changed = true;
                    }
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
            let reused = scratch.run(
                &lowered.net,
                &tables,
                assignment_chooser(&assignment),
                1_000_000,
            );
            assert_eq!(oracle.trace, reused.trace);
            assert_eq!(oracle.final_marking, reused.final_marking);
            assert_eq!(oracle.diverged, reused.diverged);
        }
    }
}
