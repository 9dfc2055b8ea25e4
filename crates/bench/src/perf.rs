//! Minimizer timing: shared case definitions and the machine-readable
//! `BENCH_minimize.json` artifact written by `repro bench-json`.
//!
//! Each case times [`dscweaver_core::minimize_generic_with`] (interned
//! annotations, bitset prefilters — this repo's optimized engine) after
//! checking once that its minimal set equals the one
//! [`dscweaver_core::minimize_generic_baseline`] (the structural
//! reference) computes on the same prepared input.

use crate::harness::{black_box, median, percentiles_ms, phases_json, sample, BenchOpts};
use dscweaver_core::{
    merge, minimize_generic_baseline, minimize_generic_with, translate_services, EdgeOrder,
    EquivalenceMode, ExecConditions, MinimizeOptions,
};
use dscweaver_dscl::sync_graph::SyncGraph;
use dscweaver_dscl::ConstraintSet;
use dscweaver_obs as obs;
use dscweaver_workloads::{fork_join, layered, purchasing_dependencies, LayeredParams};
use std::time::Duration;

/// One comparison input: a workload plus the minimizer configuration to
/// run it under.
pub struct MinimizeCase {
    /// Stable case name (used in bench ids and the JSON artifact).
    pub name: String,
    /// Closure-comparison mode.
    pub mode: EquivalenceMode,
    /// Removal-candidate order.
    pub order: EdgeOrder,
    kind: CaseKind,
}

enum CaseKind {
    Purchasing,
    Layered(LayeredParams),
    ForkJoin {
        width: usize,
        chain_len: usize,
        redundant: usize,
        seed: u64,
    },
}

impl MinimizeCase {
    /// Materializes the workload and runs the pipeline front half
    /// (merge → execution conditions → service translation), returning the
    /// ASC the minimizer takes. Deterministic per case.
    pub fn prepare(&self) -> (ConstraintSet, ExecConditions) {
        let ds = match &self.kind {
            CaseKind::Purchasing => purchasing_dependencies(),
            CaseKind::Layered(p) => layered(p),
            CaseKind::ForkJoin {
                width,
                chain_len,
                redundant,
                seed,
            } => fork_join(*width, *chain_len, *redundant, *seed),
        };
        let mut sc = merge(&ds);
        sc.desugar_happen_together();
        let exec = ExecConditions::derive(&sc);
        let (asc, _) = translate_services(&sc);
        (asc, exec)
    }
}

/// The comparison suite. `small_only` drops the n=2000 scaling case —
/// use it for iterating benches and for the tier-1 smoke run; the full
/// suite backs the committed `BENCH_minimize.json`.
pub fn minimize_cases(small_only: bool) -> Vec<MinimizeCase> {
    let mut cases = vec![
        MinimizeCase {
            name: "purchasing_n14".into(),
            mode: EquivalenceMode::ExecutionAware,
            order: EdgeOrder::default(),
            kind: CaseKind::Purchasing,
        },
        MinimizeCase {
            name: "layered_n62".into(),
            mode: EquivalenceMode::ExecutionAware,
            order: EdgeOrder::default(),
            kind: CaseKind::Layered(LayeredParams {
                width: 6,
                depth: 10,
                density: 0.3,
                redundant: 60,
                guards: 2,
                seed: 17,
            }),
        },
        MinimizeCase {
            name: "fork_join_n82".into(),
            mode: EquivalenceMode::Strict,
            order: EdgeOrder::default(),
            kind: CaseKind::ForkJoin {
                width: 8,
                chain_len: 10,
                redundant: 80,
                seed: 5,
            },
        },
        MinimizeCase {
            name: "layered_n403".into(),
            mode: EquivalenceMode::ExecutionAware,
            order: EdgeOrder::default(),
            kind: CaseKind::Layered(LayeredParams {
                width: 8,
                depth: 50,
                density: 0.25,
                redundant: 400,
                guards: 3,
                seed: 23,
            }),
        },
    ];
    if !small_only {
        // The acceptance-criterion case: 2000 activities, injected
        // redundancy sized so the input holds at least twice the
        // constraints the minimal set keeps.
        cases.push(MinimizeCase {
            name: "layered_n2003".into(),
            mode: EquivalenceMode::ExecutionAware,
            order: EdgeOrder::default(),
            kind: CaseKind::Layered(LayeredParams {
                width: 20,
                depth: 100,
                density: 0.25,
                redundant: 12_000,
                guards: 3,
                seed: 29,
            }),
        });
    }
    cases
}

/// One row of the JSON artifact.
struct CaseReport {
    name: String,
    n_activities: usize,
    constraints_in: usize,
    constraints_kept: usize,
    removed: usize,
    redundancy: f64,
    mode: String,
    order: String,
    new_seq_ms: f64,
    p50_ms: f64,
    p99_ms: f64,
    closure_seq_ms: f64,
    greedy_ms: f64,
    unattributed_ms: f64,
    closure_floor_ms: f64,
    pool_dnfs: usize,
    pool_terms: usize,
    implies_hit_rate: f64,
    implies_evictions: u64,
    phases: String,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Total milliseconds recorded under phase `name` in a trace (0 when the
/// phase never ran).
fn phase_ms(snapshot: &obs::TraceSnapshot, name: &str) -> f64 {
    snapshot.phase_totals_ms().get(name).copied().unwrap_or(0.0)
}

fn json_f(v: f64) -> String {
    // Stable short float rendering for the artifact.
    format!("{v:.3}")
}

/// Runs the minimize suite and renders `BENCH_minimize.json` plus the
/// merged trace of the per-case instrumented runs (one optimized-engine
/// run per case recorded through `dscweaver-obs`; the timed samples stay
/// untraced so the recorder cannot skew them).
///
/// `opts.smoke` restricts to the small cases with one sample each — it
/// exists so the tier-1 test suite can exercise the whole measurement
/// path (prepare → agreement check → timing → JSON rendering) in
/// seconds; its timings are not meaningful.
pub fn bench_minimize_json(opts: &BenchOpts) -> (String, obs::TraceSnapshot) {
    let (smoke, threads) = (opts.smoke, opts.threads);
    let samples = if smoke { 1 } else { 5 };
    let mut reports: Vec<CaseReport> = Vec::new();
    let mut suite_trace = obs::TraceSnapshot::default();
    let opts = MinimizeOptions::default();
    for case in minimize_cases(smoke) {
        let (asc, exec) = case.prepare();
        if smoke && asc.constraint_count() > 500 {
            // Smoke mode exists to run inside the (unoptimized) test
            // suite in seconds — the path check doesn't need mid-size
            // inputs.
            continue;
        }

        // The structural baseline runs once, as the equality check; it is
        // not timed (one sample takes ~90 s at n=2003).
        let res_base =
            minimize_generic_baseline(&asc, &exec, case.mode, &case.order).expect("acyclic");
        let res_new =
            minimize_generic_with(&asc, &exec, case.mode, &case.order, &opts).expect("acyclic");
        let kept = |r: &dscweaver_core::MinimizeResult| {
            let mut v: Vec<String> = r.minimal.happen_befores().map(|x| x.to_string()).collect();
            v.sort();
            v
        };
        assert_eq!(
            kept(&res_base),
            kept(&res_new),
            "engines disagree on case {}",
            case.name
        );

        let seq_samples = sample(samples, || {
            black_box(
                minimize_generic_with(&asc, &exec, case.mode, &case.order, &opts).unwrap(),
            )
        });
        let t_seq = median(&seq_samples);
        let (p50_ms, p99_ms) = percentiles_ms(&seq_samples);

        // One traced run outside the timed samples backs the closure
        // time, the per-case phase breakdown and the suite trace.
        let (_, case_trace) = obs::record_with(|| {
            black_box(minimize_generic_with(&asc, &exec, case.mode, &case.order, &opts).unwrap())
        });
        let closure_seq_ms = phase_ms(&case_trace, "minimize.closure");
        let greedy_ms = phase_ms(&case_trace, "minimize.greedy");
        // `minimize.generic` minus its child phases: the time no phase
        // accounts for.
        let unattributed_ms = phase_ms(&case_trace, "minimize.generic")
            - ["minimize.prepare", "minimize.closure", "minimize.greedy", "minimize.output"]
                .iter()
                .map(|p| phase_ms(&case_trace, p))
                .sum::<f64>();
        // The closure layer's floor: plain bitset reachability of the
        // same sync graph, no annotations.
        let sync = SyncGraph::build(&asc);
        let t_floor = median(&sample(samples, || {
            let closure = dscweaver_graph::transitive_closure(&sync.graph);
            black_box(closure.expect("the ASC minimized, so it is acyclic"))
        }));

        let kept_n = res_new.kept();
        reports.push(CaseReport {
            name: case.name,
            n_activities: asc.activities.len(),
            constraints_in: asc.constraint_count(),
            constraints_kept: kept_n,
            removed: res_new.removed.len(),
            redundancy: asc.constraint_count() as f64 / kept_n.max(1) as f64,
            mode: format!("{:?}", case.mode),
            order: match &case.order {
                EdgeOrder::Given => "given".into(),
                EdgeOrder::ReverseGiven => "reverse_given".into(),
                EdgeOrder::ByDimension(_) => "by_dimension".into(),
            },
            new_seq_ms: ms(t_seq),
            p50_ms,
            p99_ms,
            closure_seq_ms,
            greedy_ms,
            unattributed_ms,
            closure_floor_ms: ms(t_floor),
            pool_dnfs: res_new.stats.pool_dnfs,
            pool_terms: res_new.stats.pool_terms,
            implies_hit_rate: res_new.stats.implies_hit_rate(),
            implies_evictions: res_new.stats.implies_evictions,
            phases: phases_json(&case_trace, "      "),
        });
        suite_trace.merge(case_trace);
    }

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"artifact\": \"BENCH_minimize\",\n");
    out.push_str("  \"description\": \"minimize_generic (interned + bitset-prefiltered, one thread) per case, with its minimal set verified equal to the structural baseline's before timing; closure_seq_ms and greedy_ms are the traced closure build and greedy loop, unattributed_ms is minimize.generic minus its four phases (prepare, closure, greedy, output), and closure_floor_ms is plain bitset reachability of the same graph\",\n");
    out.push_str(&format!("  \"smoke\": {smoke},\n"));
    out.push_str(&format!("  \"threads\": {threads},\n"));
    out.push_str("  \"cases\": [\n");
    for (i, r) in reports.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": \"{}\",\n", r.name));
        out.push_str(&format!("      \"n_activities\": {},\n", r.n_activities));
        out.push_str(&format!("      \"constraints_in\": {},\n", r.constraints_in));
        out.push_str(&format!(
            "      \"constraints_kept\": {},\n",
            r.constraints_kept
        ));
        out.push_str(&format!("      \"removed\": {},\n", r.removed));
        out.push_str(&format!(
            "      \"redundancy\": {},\n",
            json_f(r.redundancy)
        ));
        out.push_str(&format!("      \"mode\": \"{}\",\n", r.mode));
        out.push_str(&format!("      \"order\": \"{}\",\n", r.order));
        out.push_str(&format!("      \"new_seq_ms\": {},\n", json_f(r.new_seq_ms)));
        out.push_str(&format!("      \"p50_ms\": {},\n", json_f(r.p50_ms)));
        out.push_str(&format!("      \"p99_ms\": {},\n", json_f(r.p99_ms)));
        out.push_str(&format!(
            "      \"closure_seq_ms\": {},\n",
            json_f(r.closure_seq_ms)
        ));
        out.push_str(&format!("      \"greedy_ms\": {},\n", json_f(r.greedy_ms)));
        out.push_str(&format!(
            "      \"unattributed_ms\": {},\n",
            json_f(r.unattributed_ms)
        ));
        out.push_str(&format!(
            "      \"closure_floor_ms\": {},\n",
            json_f(r.closure_floor_ms)
        ));
        out.push_str(&format!("      \"pool_dnfs\": {},\n", r.pool_dnfs));
        out.push_str(&format!("      \"pool_terms\": {},\n", r.pool_terms));
        out.push_str(&format!(
            "      \"implies_hit_rate\": {},\n",
            json_f(r.implies_hit_rate)
        ));
        out.push_str(&format!(
            "      \"implies_evictions\": {},\n",
            r.implies_evictions
        ));
        out.push_str(&format!("      \"phases\": {}\n", r.phases));
        out.push_str(if i + 1 == reports.len() { "    }\n" } else { "    },\n" });
    }
    out.push_str("  ]\n}\n");
    (out, suite_trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_prepare_deterministically() {
        for case in minimize_cases(true) {
            let (a, _) = case.prepare();
            let (b, _) = case.prepare();
            assert_eq!(a, b, "case {} not deterministic", case.name);
            assert!(a.constraint_count() > 0);
        }
    }

    #[test]
    fn small_only_drops_the_scaling_case() {
        let small = minimize_cases(true);
        let full = minimize_cases(false);
        assert_eq!(full.len(), small.len() + 1);
        assert!(full.last().unwrap().name.contains("2003"));
    }
}
