//! Edit-burst workloads for the re-weave experiments: apply
//! a burst of small random edits to a dependency set, the way an analyst
//! evolves a live process specification.
//!
//! Two profiles:
//!
//! * [`EditProfile::LevelStable`] — inserts and deletes *shortcut*
//!   cooperation dependencies (a direct `x → z` alongside an existing
//!   `x → y → z` data chain). Such edits provably never change a node's
//!   longest-path-to-sink level and never create a cycle, so every
//!   revision weaves — this is the profile the `evolve` benchmark suite
//!   and the `weave_offline` benchmark workload time.
//! * [`EditProfile::Mixed`] — adds guard flips (exercising the
//!   execution-condition machinery) and unconstrained random inserts,
//!   which may perturb levels or create cycles — exercising the error
//!   paths. Used by the equivalence property tests.
//!
//! All edits are deterministic in the supplied RNG.

use dscweaver_core::{Dependency, DependencyKind, DependencySet};
use dscweaver_prng::Rng;

/// Which kinds of edits a burst may contain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EditProfile {
    /// Shortcut inserts/deletes only — never perturbs topo levels.
    LevelStable,
    /// Shortcuts plus guard flips and unconstrained inserts.
    Mixed,
}

/// Applies a burst of `size` random edits to `ds` in place, returning a
/// human-readable description of each applied edit. Deterministic in
/// `rng`; an edit kind that finds no applicable site falls back to a
/// shortcut insert so a burst always applies `size` edits when the set
/// has any data chain at all.
pub fn edit_burst(
    ds: &mut DependencySet,
    rng: &mut Rng,
    size: usize,
    profile: EditProfile,
) -> Vec<String> {
    let mut log = Vec::new();
    for _ in 0..size {
        let op = match profile {
            EditProfile::LevelStable => rng.random_range(2),
            EditProfile::Mixed => rng.random_range(4),
        };
        let applied = match op {
            0 => insert_shortcut(ds, rng),
            1 => delete_shortcut(ds, rng),
            2 => flip_guard(ds, rng),
            _ => insert_random(ds, rng),
        };
        match applied.or_else(|| insert_shortcut(ds, rng)) {
            Some(desc) => log.push(desc),
            None => break, // no data chains left to edit
        }
    }
    log
}

/// Ordered `(x, y)` pairs of the data dependencies — the chain material
/// every level-stable edit is built over. Data edges are never deleted
/// by any profile, so a shortcut's covering chain persists across bursts.
fn data_pairs(ds: &DependencySet) -> Vec<(String, String)> {
    ds.deps
        .iter()
        .filter(|d| d.kind.dimension() == "data")
        .map(|d| (d.from.name.clone(), d.to.name.clone()))
        .collect()
}

fn has_coop(ds: &DependencySet, x: &str, z: &str) -> bool {
    ds.deps.iter().any(|d| {
        d.kind.dimension() == "cooperative" && d.from.name == x && d.to.name == z
    })
}

/// Inserts a cooperation shortcut `x → z` along an existing data chain
/// `x → y → z`. The chain gives `F(x)` a path of length ≥ 3 to `S(z)` in
/// the synchronization graph, so the direct edge (length 1) can never be
/// a level maximizer — levels are untouched.
fn insert_shortcut(ds: &mut DependencySet, rng: &mut Rng) -> Option<String> {
    let pairs = data_pairs(ds);
    for _ in 0..50 {
        let (x, y) = rng.choose(&pairs)?.clone();
        let nexts: Vec<&(String, String)> = pairs.iter().filter(|(f, _)| *f == y).collect();
        let Some((_, z)) = rng.choose(&nexts) else {
            continue;
        };
        if x == *z || has_coop(ds, &x, z) {
            continue;
        }
        let z = z.clone();
        ds.push(Dependency::cooperation(&x, &z));
        return Some(format!("+ coop {x} -> {z}"));
    }
    None
}

/// Deletes a cooperation dependency that is a shortcut over a live data
/// chain — the symmetric level-stable edit (the chain keeps every level
/// pinned after the direct edge goes away).
fn delete_shortcut(ds: &mut DependencySet, rng: &mut Rng) -> Option<String> {
    let pairs = data_pairs(ds);
    let covered = |x: &str, z: &str| {
        pairs
            .iter()
            .filter(|(f, _)| f == x)
            .any(|(_, y)| pairs.iter().any(|(f2, t2)| f2 == y && t2 == z))
    };
    let victims: Vec<usize> = ds
        .deps
        .iter()
        .enumerate()
        .filter(|(_, d)| {
            d.kind.dimension() == "cooperative" && covered(&d.from.name, &d.to.name)
        })
        .map(|(i, _)| i)
        .collect();
    let &i = rng.choose(&victims)?;
    let d = ds.deps.remove(i);
    Some(format!("- coop {} -> {}", d.from.name, d.to.name))
}

/// Flips a control dependency's guard value to another element of its
/// variable's domain. Edge structure (and thus levels) unchanged; guard
/// annotations and execution conditions change.
fn flip_guard(ds: &mut DependencySet, rng: &mut Rng) -> Option<String> {
    let sites: Vec<usize> = ds
        .deps
        .iter()
        .enumerate()
        .filter(|(_, d)| {
            matches!(&d.kind, DependencyKind::Control { value: Some(_) })
                && ds.domains.get(&d.from.name).is_some_and(|dom| dom.len() > 1)
        })
        .map(|(i, _)| i)
        .collect();
    let &i = rng.choose(&sites)?;
    let var = ds.deps[i].from.name.clone();
    let dom = ds.domains[&var].clone();
    let DependencyKind::Control { value: Some(old) } = ds.deps[i].kind.clone() else {
        unreachable!("site filter");
    };
    let others: Vec<&String> = dom.iter().filter(|v| **v != old).collect();
    let new = (*rng.choose(&others)?).clone();
    let to = ds.deps[i].to.name.clone();
    ds.deps[i].kind = DependencyKind::Control {
        value: Some(new.clone()),
    };
    Some(format!("~ guard {var} -> {to}: {old} => {new}"))
}

/// Inserts a cooperation dependency between two arbitrary distinct
/// activities — may perturb levels or even introduce a cycle, which is
/// exactly what the error-path property tests want to provoke.
fn insert_random(ds: &mut DependencySet, rng: &mut Rng) -> Option<String> {
    let acts: Vec<&String> = ds.activities.iter().collect();
    if acts.len() < 2 {
        return None;
    }
    for _ in 0..20 {
        let a = *rng.choose(&acts)?;
        let b = *rng.choose(&acts)?;
        if a == b || has_coop(ds, a, b) {
            continue;
        }
        let (a, b) = (a.clone(), b.clone());
        ds.push(Dependency::cooperation(&a, &b));
        return Some(format!("+ coop(random) {a} -> {b}"));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{layered, LayeredParams};

    #[test]
    fn bursts_are_deterministic_and_sized() {
        let params = LayeredParams::default();
        let mk = || {
            let mut ds = layered(&params);
            let mut rng = Rng::seed_from_u64(7);
            let log = edit_burst(&mut ds, &mut rng, 6, EditProfile::LevelStable);
            (ds, log)
        };
        let (ds1, log1) = mk();
        let (ds2, log2) = mk();
        assert_eq!(log1.len(), 6);
        assert_eq!(log1, log2);
        assert_eq!(ds1.deps.len(), ds2.deps.len());
    }

    #[test]
    fn level_stable_bursts_stay_on_the_delta_path() {
        let mut ds = layered(&LayeredParams::default());
        let mut session = dscweaver_core::Weaver::new().session();
        session.weave(&ds).unwrap();
        let mut rng = Rng::seed_from_u64(11);
        for _ in 0..4 {
            edit_burst(&mut ds, &mut rng, 2, EditProfile::LevelStable);
            let rep = session.weave(&ds).unwrap();
            assert_eq!(
                rep.path,
                dscweaver_core::ReweavePath::Delta,
                "{:?}",
                rep.diff
            );
        }
    }

    #[test]
    fn mixed_bursts_include_guard_flips() {
        let mut ds = layered(&LayeredParams {
            guards: 3,
            ..LayeredParams::default()
        });
        let mut rng = Rng::seed_from_u64(3);
        let mut logs = Vec::new();
        for _ in 0..10 {
            logs.extend(edit_burst(&mut ds, &mut rng, 4, EditProfile::Mixed));
        }
        assert!(logs.iter().any(|l| l.starts_with("~ guard")), "{logs:?}");
    }
}
