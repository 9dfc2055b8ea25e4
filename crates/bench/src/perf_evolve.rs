//! Session re-weave vs its floor under edit bursts: the machine-readable
//! `BENCH_evolve.json` artifact written by `repro bench-json --suite
//! evolve`.
//!
//! Each row applies one level-stable edit burst (shortcut cooperation
//! inserts/deletes, see `dscweaver_workloads::evolve`) to a layered
//! process, then times (a) a from-scratch `Weaver::run` of the edited
//! revision — the floor — and (b) a `WeaveSession::weave` of the same
//! revision on a session that already holds the base revision, which is
//! that weave plus the ASC diff. The session output is asserted identical
//! to the fresh weave before anything is timed.

use crate::harness::{black_box, median, percentiles_ms, phases_json, sample, BenchOpts};
use dscweaver_core::{DependencySet, Weaver, WeaverOutput};
use dscweaver_obs as obs;
use dscweaver_prng::Rng;
use dscweaver_workloads::{edit_burst, layered, EditProfile, LayeredParams};
use std::time::{Duration, Instant};

/// One evolve-benchmark input: a base process plus the burst sizes to
/// sweep.
pub struct EvolveCase {
    /// Stable case name (used in the JSON artifact).
    pub name: String,
    /// Base-process generator parameters.
    pub params: LayeredParams,
    /// Edit-burst sizes to sweep.
    pub bursts: Vec<usize>,
}

/// The evolve suite. Smoke keeps one small case with two burst sizes so
/// the tier-1 tests can exercise the whole path in seconds; the full
/// suite sweeps burst sizes on the mid and scaling cases (the same
/// layered parameters the minimize suite uses).
pub fn evolve_cases(smoke: bool) -> Vec<EvolveCase> {
    if smoke {
        return vec![EvolveCase {
            name: "evolve_n62".into(),
            params: LayeredParams {
                width: 4,
                depth: 15,
                density: 0.3,
                redundant: 60,
                guards: 2,
                seed: 17,
            },
            bursts: vec![1, 2],
        }];
    }
    vec![
        EvolveCase {
            name: "evolve_n403".into(),
            params: LayeredParams {
                width: 8,
                depth: 50,
                density: 0.25,
                redundant: 400,
                guards: 3,
                seed: 23,
            },
            bursts: vec![1, 2, 4, 8, 16],
        },
        EvolveCase {
            name: "evolve_n2003".into(),
            params: LayeredParams {
                width: 20,
                depth: 100,
                density: 0.25,
                redundant: 12_000,
                guards: 3,
                seed: 29,
            },
            bursts: vec![1, 2, 4, 8, 16],
        },
    ]
}

struct BurstReport {
    case: String,
    burst: usize,
    n_activities: usize,
    asc_constraints: usize,
    edits: Vec<String>,
    fresh_ms: f64,
    reweave_ms: f64,
    reweave_p50_ms: f64,
    reweave_p99_ms: f64,
    phases: String,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn json_f(v: f64) -> String {
    format!("{v:.3}")
}

fn rendered(out: &WeaverOutput) -> (Vec<String>, Vec<String>) {
    let mut kept: Vec<String> = out.minimal.happen_befores().map(|r| r.to_string()).collect();
    kept.sort();
    (kept, out.removed.iter().map(|r| r.to_string()).collect())
}

/// Runs the evolve suite and renders `BENCH_evolve.json` plus the merged
/// trace of one instrumented re-weave per burst (the timed samples stay
/// untraced so the recorder cannot skew them).
pub fn bench_evolve_json(opts: &BenchOpts) -> (String, obs::TraceSnapshot) {
    let (smoke, threads) = (opts.smoke, opts.threads);
    let samples_fresh = if smoke { 1 } else { 5 };
    let samples_reweave = if smoke { 1 } else { 7 };
    let mut reports: Vec<BurstReport> = Vec::new();
    let mut suite_trace = obs::TraceSnapshot::default();
    for case in evolve_cases(smoke) {
        let base = layered(&case.params);
        let weaver = Weaver {
            threads,
            ..Weaver::default()
        };
        // One session holding the base revision, re-cloned per timed
        // sample so every measurement starts from identical state.
        let mut warm = weaver.session();
        warm.weave(&base).expect("base revision weaves");

        for &burst in &case.bursts {
            // Deterministic revision for this (case, burst) pair.
            let mut rev: DependencySet = base.clone();
            let mut rng = Rng::seed_from_u64(case.params.seed.wrapping_mul(1000) + burst as u64);
            let edits = edit_burst(&mut rev, &mut rng, burst, EditProfile::LevelStable);

            // Correctness gate before any timing: the re-weave must agree
            // with a from-scratch weave.
            let fresh_out = weaver.run(&rev).expect("edited revision weaves");
            let mut probe = warm.clone();
            probe.weave(&rev).expect("re-weave");
            assert_eq!(
                rendered(probe.output().expect("session output")),
                rendered(&fresh_out),
                "{}/burst {burst}: re-weave output differs from fresh",
                case.name
            );

            // Interleave fresh and re-weave samples so background machine
            // load hits both sides alike. The session is cloned outside
            // the timer: the measurement is the re-weave, not the state
            // snapshot.
            let mut fresh_samples = Vec::with_capacity(samples_fresh);
            let mut reweave_samples = Vec::with_capacity(samples_reweave);
            for i in 0..samples_fresh.max(samples_reweave) {
                if i < samples_fresh {
                    fresh_samples.push(sample(1, || {
                        black_box(weaver.run(&rev).expect("fresh weave"))
                    })[0]);
                }
                if i < samples_reweave {
                    let mut s = warm.clone();
                    let t0 = Instant::now();
                    black_box(s.weave(&rev).expect("re-weave"));
                    reweave_samples.push(t0.elapsed());
                }
            }
            fresh_samples.sort();
            let t_fresh = median(&fresh_samples);
            reweave_samples.sort();
            let t_reweave = median(&reweave_samples);
            let (reweave_p50_ms, reweave_p99_ms) = percentiles_ms(&reweave_samples);

            // One traced re-weave for the phase breakdown.
            let (_, case_trace) = obs::record_with(|| {
                let mut s = warm.clone();
                black_box(s.weave(&rev).expect("re-weave"))
            });

            let asc_constraints = fresh_out.asc.constraint_count();
            reports.push(BurstReport {
                case: case.name.clone(),
                burst,
                n_activities: fresh_out.asc.activities.len(),
                asc_constraints,
                edits,
                fresh_ms: ms(t_fresh),
                reweave_ms: ms(t_reweave),
                reweave_p50_ms,
                reweave_p99_ms,
                phases: phases_json(&case_trace, "      "),
            });
            suite_trace.merge(case_trace);
        }
    }

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"artifact\": \"BENCH_evolve\",\n");
    out.push_str("  \"description\": \"WeaveSession re-weave vs its floor, a fresh Weaver::run of the same revision, per edit-burst size; outputs verified identical before timing\",\n");
    out.push_str(&format!("  \"smoke\": {smoke},\n"));
    out.push_str(&format!("  \"threads\": {threads},\n"));
    out.push_str("  \"cases\": [\n");
    for (i, r) in reports.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"case\": \"{}\",\n", r.case));
        out.push_str(&format!("      \"burst\": {},\n", r.burst));
        out.push_str(&format!("      \"n_activities\": {},\n", r.n_activities));
        out.push_str(&format!(
            "      \"asc_constraints\": {},\n",
            r.asc_constraints
        ));
        out.push_str(&format!("      \"edits\": {},\n", r.edits.len()));
        out.push_str(&format!("      \"fresh_ms\": {},\n", json_f(r.fresh_ms)));
        out.push_str(&format!("      \"reweave_ms\": {},\n", json_f(r.reweave_ms)));
        out.push_str(&format!(
            "      \"reweave_p50_ms\": {},\n",
            json_f(r.reweave_p50_ms)
        ));
        out.push_str(&format!(
            "      \"reweave_p99_ms\": {},\n",
            json_f(r.reweave_p99_ms)
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
    fn smoke_suite_is_small() {
        let cases = evolve_cases(true);
        assert_eq!(cases.len(), 1);
        assert!(cases[0].bursts.iter().all(|&b| b <= 2));
        let full = evolve_cases(false);
        assert!(full.iter().any(|c| c.name.contains("2003")));
    }
}
