//! Synthetic workload generators for the scaling and ablation experiments
//! (Ext-A/B/C/D in DESIGN.md). The paper evaluates only on the 14-activity
//! Purchasing process; these generators provide the parameter sweeps a
//! real evaluation needs.
//!
//! All generators are deterministic in their seed.

use dscweaver_core::{Dependency, DependencySet};
use dscweaver_prng::Rng;

/// Parameters for the layered-process generator.
#[derive(Clone, Debug)]
pub struct LayeredParams {
    /// Activities per layer.
    pub width: usize,
    /// Number of layers.
    pub depth: usize,
    /// Probability of a data edge between adjacent-layer activities.
    pub density: f64,
    /// Number of *redundant* (transitively implied) extra constraints to
    /// inject — the knob for measuring optimizer reduction.
    pub redundant: usize,
    /// Number of conditional guards to sprinkle in (each guard splits the
    /// activities below it into a T-region).
    pub guards: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for LayeredParams {
    fn default() -> Self {
        LayeredParams {
            width: 4,
            depth: 5,
            density: 0.4,
            redundant: 10,
            guards: 1,
            seed: 42,
        }
    }
}

/// Generates a layered DAG process: `width × depth` activities, data
/// dependencies between adjacent layers (each non-first-layer activity
/// gets at least one predecessor, so the graph is connected), optional
/// control guards, plus `redundant` injected transitively-implied
/// cooperation constraints.
///
/// Returns the dependency set; the injected-redundant count is recoverable
/// from `counts()["cooperative"]`.
pub fn layered(params: &LayeredParams) -> DependencySet {
    let mut rng = Rng::seed_from_u64(params.seed);
    let mut ds = DependencySet::new(format!(
        "layered_w{}_d{}_s{}",
        params.width, params.depth, params.seed
    ));
    let name = |layer: usize, i: usize| format!("a_{layer}_{i}");
    for layer in 0..params.depth {
        for i in 0..params.width {
            ds.add_activity(name(layer, i));
        }
    }

    // Adjacent-layer data dependencies.
    for layer in 1..params.depth {
        for i in 0..params.width {
            let mut any = false;
            for j in 0..params.width {
                if rng.random_bool(params.density) {
                    ds.push(Dependency::data(&name(layer - 1, j), &name(layer, i)));
                    any = true;
                }
            }
            if !any {
                let j = rng.random_range(params.width);
                ds.push(Dependency::data(&name(layer - 1, j), &name(layer, i)));
            }
        }
    }

    // Guards: activity g_k sits on layer k (inserted as an extra activity);
    // everything on deeper layers in its "column region" becomes control
    // dependent on g_k = T.
    for k in 0..params.guards.min(params.depth.saturating_sub(1)) {
        let g = format!("guard_{k}");
        ds.add_activity(g.clone());
        ds.add_domain(g.clone(), vec!["T".into(), "F".into()]);
        // The guard reads from one activity on its layer and guards one
        // column below it.
        ds.push(Dependency::data(&name(k, 0), &g));
        for layer in (k + 1)..params.depth {
            ds.push(Dependency::control(&g, &name(layer, 0), "T"));
        }
    }

    // Redundant constraints: pick a random transitive pair (u above v with
    // a path) and add a cooperation edge. With layered data edges, any
    // (layer_a, i) → (layer_b, j) with layer_b > layer_a is *likely*
    // transitive; to guarantee redundancy we add chains along existing
    // edges: pick an existing dependency pair (x → y) and an existing
    // (y → z), then add x → z.
    let pairs: Vec<(String, String)> = ds
        .deps
        .iter()
        .filter(|d| d.kind.dimension() == "data")
        .map(|d| (d.from.name.clone(), d.to.name.clone()))
        .collect();
    let mut added = 0;
    let mut attempts = 0;
    while added < params.redundant && attempts < params.redundant * 50 {
        attempts += 1;
        let Some((x, y)) = rng.choose(&pairs).cloned() else {
            break;
        };
        let nexts: Vec<&(String, String)> =
            pairs.iter().filter(|(f, _)| *f == y).collect();
        let Some((_, z)) = rng.choose(&nexts) else {
            continue;
        };
        ds.push(Dependency::cooperation(&x, z));
        added += 1;
    }
    ds
}

/// A fork-join process: one source fans out to `width` parallel chains of
/// `chain_len` activities which join into one sink; `redundant` extra
/// source→sink / shortcut constraints are injected.
pub fn fork_join(width: usize, chain_len: usize, redundant: usize, seed: u64) -> DependencySet {
    let mut rng = Rng::seed_from_u64(seed);
    let mut ds = DependencySet::new(format!("forkjoin_w{width}_l{chain_len}_s{seed}"));
    ds.add_activity("source");
    ds.add_activity("sink");
    for w in 0..width {
        let mut prev = "source".to_string();
        for l in 0..chain_len {
            let n = format!("c_{w}_{l}");
            ds.add_activity(n.clone());
            ds.push(Dependency::data(&prev, &n));
            prev = n;
        }
        ds.push(Dependency::data(&prev, "sink"));
    }
    for _ in 0..redundant {
        let w = rng.random_range(width);
        let a = rng.random_range(chain_len);
        let b = rng.random_range(chain_len);
        let (lo, hi) = (a.min(b), a.max(b));
        if lo == hi {
            ds.push(Dependency::cooperation(&format!("c_{w}_{lo}"), "sink"));
        } else {
            ds.push(Dependency::cooperation(
                &format!("c_{w}_{lo}"),
                &format!("c_{w}_{hi}"),
            ));
        }
    }
    ds
}

/// Parameters for the dense-conditional-core generator.
#[derive(Clone, Debug)]
pub struct DenseConditionalParams {
    /// Independent binary guards; the validator's branch-assignment
    /// fan-out enumerates `2^guards` live assignments (clamped to ≥ 1).
    pub guards: usize,
    /// Depth of each guarded slow-path chain.
    pub chain_len: usize,
    /// Injected transitively-implied shortcut constraints (within-chain
    /// and chain→join), the minimizer-reduction knob.
    pub redundant: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DenseConditionalParams {
    fn default() -> Self {
        DenseConditionalParams {
            guards: 9,
            chain_len: 6,
            redundant: 64,
            seed: 11,
        }
    }
}

/// Generates a dense-conditional-core process: an entry activity fans out
/// to `guards` independent binary guards, each guarding a deep slow-path
/// chain (every chain element control-depends on its guard's `T` branch),
/// all chains joining into one sink. With the default 9 guards the
/// validator enumerates `2^9 = 512` live branch assignments — the
/// workload behind `BENCH_petri.json`.
pub fn dense_conditional(params: &DenseConditionalParams) -> DependencySet {
    let guards = params.guards.max(1);
    let mut rng = Rng::seed_from_u64(params.seed);
    let mut ds = DependencySet::new(format!(
        "dense_g{}_l{}_s{}",
        guards, params.chain_len, params.seed
    ));
    ds.add_activity("entry");
    ds.add_activity("join");
    let chain = |k: usize, l: usize| format!("s_{k}_{l}");
    for k in 0..guards {
        let g = format!("g_{k}");
        ds.add_activity(g.clone());
        ds.add_domain(g.clone(), vec!["T".into(), "F".into()]);
        ds.push(Dependency::data("entry", &g));
        let mut prev = g.clone();
        for l in 0..params.chain_len {
            let n = chain(k, l);
            ds.add_activity(n.clone());
            ds.push(Dependency::data(&prev, &n));
            ds.push(Dependency::control(&g, &n, "T"));
            prev = n;
        }
        // Skipped chains waive the join's data prereq (dead-path
        // elimination), so the join always runs.
        ds.push(Dependency::data(&prev, "join"));
    }
    // Redundant shortcuts: within a chain (implied by the data chain) or
    // from a chain element to the join (implied via the chain tail).
    for _ in 0..params.redundant {
        if params.chain_len == 0 {
            break;
        }
        let k = rng.random_range(guards);
        let a = rng.random_range(params.chain_len);
        let b = rng.random_range(params.chain_len);
        let (lo, hi) = (a.min(b), a.max(b));
        if lo == hi {
            ds.push(Dependency::cooperation(&chain(k, lo), "join"));
        } else {
            ds.push(Dependency::cooperation(&chain(k, lo), &chain(k, hi)));
        }
    }
    ds
}

/// Parameters for the disjoint-islands generator.
#[derive(Clone, Debug)]
pub struct DisjointConditionalParams {
    /// Number of mutually independent islands (guard groups).
    pub groups: usize,
    /// Binary guards per island; guards inside one island share a join,
    /// so they form one footprint group.
    pub guards_per_group: usize,
    /// Depth of each guarded slow-path chain.
    pub chain_len: usize,
    /// Injected transitively-implied shortcut constraints, kept inside one
    /// island so the groups stay provably disjoint.
    pub redundant: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DisjointConditionalParams {
    fn default() -> Self {
        DisjointConditionalParams {
            groups: 2,
            guards_per_group: 2,
            chain_len: 3,
            redundant: 8,
            seed: 11,
        }
    }
}

/// Generates `groups` mutually independent conditional islands: each
/// island has `guards_per_group` binary guards whose guarded chains all
/// join at a per-island sink, and nothing downstream connects the islands
/// (they only share the upstream `entry`, which no guard's footprint
/// reaches). The lowered net's guard-independence analysis
/// (`dscweaver_petri::guard_groups`) therefore yields exactly `groups`
/// groups of `guards_per_group` guards each, and factored validation
/// checks `groups · 2^guards_per_group` assignments instead of the full
/// `2^(groups · guards_per_group)` product.
pub fn disjoint_conditional(params: &DisjointConditionalParams) -> DependencySet {
    let groups = params.groups.max(1);
    let gpg = params.guards_per_group.max(1);
    let mut rng = Rng::seed_from_u64(params.seed);
    let mut ds = DependencySet::new(format!(
        "disjoint_{}x{}_l{}_s{}",
        groups, gpg, params.chain_len, params.seed
    ));
    ds.add_activity("entry");
    let chain = |i: usize, k: usize, l: usize| format!("d_{i}_{k}_{l}");
    for i in 0..groups {
        let join = format!("join_{i}");
        ds.add_activity(join.clone());
        for k in 0..gpg {
            let g = format!("g_{i}_{k}");
            ds.add_activity(g.clone());
            ds.add_domain(g.clone(), vec!["T".into(), "F".into()]);
            ds.push(Dependency::data("entry", &g));
            let mut prev = g.clone();
            for l in 0..params.chain_len {
                let n = chain(i, k, l);
                ds.add_activity(n.clone());
                ds.push(Dependency::data(&prev, &n));
                ds.push(Dependency::control(&g, &n, "T"));
                prev = n;
            }
            // Skipped chains waive the join's data prereq (dead-path
            // elimination), so every island's join always runs.
            ds.push(Dependency::data(&prev, &join));
        }
    }
    for _ in 0..params.redundant {
        if params.chain_len == 0 {
            break;
        }
        let i = rng.random_range(groups);
        let k = rng.random_range(gpg);
        let a = rng.random_range(params.chain_len);
        let b = rng.random_range(params.chain_len);
        let (lo, hi) = (a.min(b), a.max(b));
        if lo == hi {
            ds.push(Dependency::cooperation(&chain(i, k, lo), &format!("join_{i}")));
        } else {
            ds.push(Dependency::cooperation(&chain(i, k, lo), &chain(i, k, hi)));
        }
    }
    ds
}

/// A service-mesh workload: `n_services` asynchronous services, each with
/// an invoke/receive pair in the process chained by data dependencies, and
/// the full WSCL-style plumbing (`inv → S`, `S → S_d`, `S_d → rec`).
/// Exercises service-dependency translation at scale.
pub fn service_mesh(n_services: usize, seed: u64) -> DependencySet {
    let mut rng = Rng::seed_from_u64(seed);
    let mut ds = DependencySet::new(format!("mesh_{n_services}_s{seed}"));
    ds.add_activity("start");
    let mut receives = vec!["start".to_string()];
    for s in 0..n_services {
        let svc = format!("Svc{s}");
        let inv = format!("inv_{s}");
        let rec = format!("rec_{s}");
        ds.add_activity(inv.clone());
        ds.add_activity(rec.clone());
        ds.add_service(svc.clone());
        ds.add_service(format!("{svc}_d"));
        // The invoke consumes data from a random earlier receive.
        let src = receives[rng.random_range(receives.len())].clone();
        ds.push(Dependency::data(&src, &inv));
        ds.push(Dependency::service(&inv, &svc));
        ds.push(Dependency::service(&svc, &format!("{svc}_d")));
        ds.push(Dependency::service(&format!("{svc}_d"), &rec));
        receives.push(rec);
    }
    ds.add_activity("end");
    for r in receives.iter().skip(1) {
        ds.push(Dependency::cooperation(r, "end"));
    }
    ds
}

#[cfg(test)]
mod tests {
    use super::*;
    use dscweaver_core::{EquivalenceMode, ExecConditions, Weaver};

    #[test]
    fn layered_is_deterministic_and_connected() {
        let a = layered(&LayeredParams::default());
        let b = layered(&LayeredParams::default());
        assert_eq!(a, b);
        // Every non-first-layer activity has an incoming data dep.
        for layer in 1..5 {
            for i in 0..4 {
                let n = format!("a_{layer}_{i}");
                assert!(
                    a.deps.iter().any(|d| d.to.name == n),
                    "{n} has no predecessor"
                );
            }
        }
    }

    #[test]
    fn layered_pipeline_removes_injected_redundancy() {
        let params = LayeredParams {
            redundant: 15,
            ..Default::default()
        };
        let ds = layered(&params);
        let out = Weaver::new().run(&ds).unwrap();
        // All injected x→z shortcuts are transitive (x→y→z exists), so at
        // least `redundant` constraints must go.
        assert!(
            out.total_removed() >= 15,
            "removed {} < 15",
            out.total_removed()
        );
    }

    #[test]
    fn fork_join_reduction() {
        let ds = fork_join(4, 5, 10, 7);
        let out = Weaver::new().run(&ds).unwrap();
        assert!(out.total_removed() >= 10);
        // The skeleton (4 chains × 6 edges) must survive.
        assert_eq!(out.minimal.constraint_count(), 4 * 6);
    }

    #[test]
    fn service_mesh_translates_cleanly() {
        let ds = service_mesh(10, 3);
        let out = Weaver::new().run(&ds).unwrap();
        assert!(out.asc.services.is_empty());
        // Each service contributes one bridge inv → rec.
        assert_eq!(out.translation.bridges.len(), 10);
        assert!(out.minimal.validate().is_empty());
    }

    #[test]
    fn dense_conditional_is_deterministic_with_512_assignments() {
        let a = dense_conditional(&DenseConditionalParams::default());
        let b = dense_conditional(&DenseConditionalParams::default());
        assert_eq!(a, b);
        let cs = dscweaver_core::merge(&a);
        let space: usize = cs.domains.values().map(|d| d.len().max(1)).product();
        assert!(space >= 512, "assignment space {space} < 512");
    }

    #[test]
    fn dense_conditional_small_validates_per_assignment() {
        // Tier-1-sized instance: 4 guards → 16 assignments, all of which
        // must terminate cleanly on the minimized scheme.
        let ds = dense_conditional(&DenseConditionalParams {
            guards: 4,
            chain_len: 3,
            redundant: 12,
            ..Default::default()
        });
        let out = Weaver::new().run(&ds).unwrap();
        assert!(out.total_removed() >= 12, "removed {}", out.total_removed());
        let report = dscweaver_petri::validate(
            &out.minimal,
            &out.exec,
            &dscweaver_petri::ValidateOptions::default(),
        );
        assert!(report.ok(), "failures: {:?}", report.failures);
        assert_eq!(report.assignments_checked, 16);
    }

    #[test]
    fn disjoint_conditional_factors_multiplicative_to_additive() {
        // Two islands of two guards each: the full space is 2^4 = 16, the
        // factored enumeration is 2 · 2^2 = 8 — with the same verdict.
        let ds = disjoint_conditional(&DisjointConditionalParams::default());
        let out = Weaver::new().run(&ds).unwrap();
        assert!(out.total_removed() >= 8, "removed {}", out.total_removed());
        let full = dscweaver_petri::validate(
            &out.minimal,
            &out.exec,
            &dscweaver_petri::ValidateOptions {
                factor: false,
                ..Default::default()
            },
        );
        assert!(full.ok(), "failures: {:?}", full.failures);
        assert_eq!(full.assignments_checked, 16);
        assert_eq!(full.guard_groups, 1);
        assert!(!full.factored);
        assert_eq!(full.assignment_space, 16);
        let factored = dscweaver_petri::validate(
            &out.minimal,
            &out.exec,
            &dscweaver_petri::ValidateOptions::default(),
        );
        assert!(factored.ok(), "failures: {:?}", factored.failures);
        assert_eq!(factored.guard_groups, 2);
        assert_eq!(factored.assignments_checked, 8);
        assert_eq!(factored.assignment_space, 16);
    }

    #[test]
    fn guards_create_conditional_constraints() {
        let ds = layered(&LayeredParams {
            guards: 2,
            ..Default::default()
        });
        let exec = ExecConditions::derive(&dscweaver_core::merge(&ds));
        assert!(!exec.is_unconditional("a_1_0"));
        let out = Weaver::new().run(&ds).unwrap();
        assert!(out.minimal.validate().is_empty());
        // Strict mode keeps at least as many constraints.
        let strict = Weaver {
            mode: EquivalenceMode::Strict,
            ..Weaver::default()
        }
        .run(&ds)
        .unwrap();
        assert!(strict.minimal.constraint_count() >= out.minimal.constraint_count());
    }
}
