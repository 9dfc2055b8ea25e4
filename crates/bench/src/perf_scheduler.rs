//! Old-vs-new DES scheduler comparison: the legacy per-tick linear rescan
//! versus the dependency-counting wavefront on its integer kernel,
//! rendered as the machine-readable `BENCH_scheduler.json` artifact
//! written by `repro bench-json --suite scheduler`.
//!
//! Traces are asserted byte-identical across engines before any timing is
//! taken; the constraint-check counters of both engines are reported (the
//! wavefront's are strictly lower — that is the optimization), and the
//! wavefront's time is also given per trace event, the floor a run cannot
//! go below.
//!
//! A further section measures the prepared session: K oracle variants
//! replayed through one [`ScheduleTables`] (indexes derived once) versus
//! a fresh `simulate` — which rebuilds the prereq/dependency indexes —
//! per run.

use crate::harness::{black_box, median, percentiles_ms, phases_json, sample, BenchOpts};
use dscweaver_core::{merge, translate_services, ExecConditions};
use dscweaver_dscl::{ConstraintSet, Name};
use dscweaver_obs as obs;
use dscweaver_scheduler::{
    simulate, simulate_rescan_baseline, PreparedSchedule, ScheduleTables, SimConfig,
};
use dscweaver_workloads::{
    dense_conditional, fork_join, layered, DenseConditionalParams, LayeredParams,
};
use std::time::Duration;

/// One comparison input for the scheduler bench.
pub struct SchedulerCase {
    /// Stable case name (used in the JSON artifact).
    pub name: String,
    kind: CaseKind,
}

enum CaseKind {
    Dense(DenseConditionalParams),
    Layered(LayeredParams),
    ForkJoin {
        width: usize,
        chain_len: usize,
        redundant: usize,
        seed: u64,
    },
}

impl SchedulerCase {
    /// Materializes the workload and runs the pipeline front half,
    /// returning the executable ASC (pre-minimization, so the engine sees
    /// the full redundant constraint load the rescan pays for).
    pub fn prepare(&self) -> (ConstraintSet, ExecConditions) {
        let ds = match &self.kind {
            CaseKind::Dense(p) => dense_conditional(p),
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

/// The comparison suite. `small_only` keeps the sub-second cases for the
/// tier-1 smoke run; the full suite adds the large layered process behind
/// the committed `BENCH_scheduler.json`.
pub fn scheduler_cases(small_only: bool) -> Vec<SchedulerCase> {
    let mut cases = vec![
        SchedulerCase {
            name: "dense_g4_l3".into(),
            kind: CaseKind::Dense(DenseConditionalParams {
                guards: 4,
                chain_len: 3,
                redundant: 12,
                seed: 11,
            }),
        },
        SchedulerCase {
            name: "fork_join_n122".into(),
            kind: CaseKind::ForkJoin {
                width: 12,
                chain_len: 10,
                redundant: 120,
                seed: 13,
            },
        },
    ];
    if !small_only {
        cases.push(SchedulerCase {
            name: "dense_g9_l12".into(),
            kind: CaseKind::Dense(DenseConditionalParams {
                guards: 9,
                chain_len: 12,
                redundant: 96,
                seed: 11,
            }),
        });
        cases.push(SchedulerCase {
            name: "layered_n1003".into(),
            kind: CaseKind::Layered(LayeredParams {
                width: 10,
                depth: 100,
                density: 0.25,
                redundant: 3_000,
                guards: 3,
                seed: 19,
            }),
        });
    }
    cases
}

struct CaseReport {
    name: String,
    n_activities: usize,
    constraints: usize,
    checks_rescan: u64,
    checks_wavefront: u64,
    events: usize,
    baseline_ms: f64,
    new_seq_ms: f64,
    ns_per_event: f64,
    p50_ms: f64,
    p99_ms: f64,
    speedup_seq: f64,
    replay_runs: usize,
    fresh_replays_ms: f64,
    session_replays_ms: f64,
    session_speedup: f64,
    phases: String,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn json_f(v: f64) -> String {
    format!("{v:.3}")
}

/// Runs the scheduler comparison suite and renders `BENCH_scheduler.json`
/// plus the merged trace of the per-case instrumented runs (one
/// `simulate` per case recorded through `dscweaver-obs`; the timed
/// samples stay untraced so the recorder cannot skew them). The scheduler
/// runs on one thread, so `opts.threads` does not apply.
///
/// `opts.smoke` restricts to the small cases with one sample each so the
/// tier-1 test suite can exercise the full measurement path in seconds;
/// its timings are not meaningful.
pub fn bench_scheduler_json(opts: &BenchOpts) -> (String, obs::TraceSnapshot) {
    let smoke = opts.smoke;
    let samples_new = if smoke { 1 } else { 5 };
    let samples_base = if smoke { 1 } else { 3 };
    let mut reports: Vec<CaseReport> = Vec::new();
    let mut suite_trace = obs::TraceSnapshot::default();
    for case in scheduler_cases(smoke) {
        let (asc, exec) = case.prepare();
        let config = SimConfig::default();

        let s_base = simulate_rescan_baseline(&asc, &exec, &config);
        let s_seq = simulate(&asc, &exec, &config);
        assert!(s_base.completed(), "case {}: stuck", case.name);
        let key = |s: &dscweaver_scheduler::Schedule| format!("{:?} {:?}", s.trace, s.stuck);
        assert_eq!(key(&s_base), key(&s_seq), "case {}", case.name);
        assert!(
            s_seq.constraint_checks <= s_base.constraint_checks,
            "case {}: agenda spent more checks",
            case.name
        );

        let t_base = median(&sample(samples_base, || {
            black_box(simulate_rescan_baseline(&asc, &exec, &config))
        }));
        let seq_samples = sample(samples_new, || black_box(simulate(&asc, &exec, &config)));
        let t_seq = median(&seq_samples);
        let (p50_ms, p99_ms) = percentiles_ms(&seq_samples);
        let events = s_seq.trace.events.len();

        // One traced run, outside the timed samples, for the per-phase
        // breakdown and the suite trace.
        let (_, case_trace) = obs::record_with(|| black_box(simulate(&asc, &exec, &config)));

        // Amortized prepared-session constant: K oracle variants (bit
        // patterns over up to three guard domains; identical configs on
        // guard-free workloads) replayed through one `ScheduleTables`
        // versus a fresh `simulate` — which re-derives the
        // prereq/dependency indexes — per run. Traces are asserted
        // identical before timing.
        let doms: Vec<(&Name, &Vec<Name>)> = asc
            .domains
            .iter()
            .filter(|(_, dom)| !dom.is_empty())
            .take(3)
            .collect();
        let oracles: Vec<SimConfig> = (0..8u32)
            .map(|bits| {
                let mut cfg = SimConfig::default();
                for (k, (g, dom)) in doms.iter().enumerate() {
                    let d = if bits & (1 << k) != 0 { 1 % dom.len() } else { 0 };
                    cfg.oracle.insert(g.to_string(), dom[d].to_string());
                }
                cfg
            })
            .collect();
        let tables = ScheduleTables::derive(&asc, &exec);
        let session = PreparedSchedule::with_tables(&asc, &exec, &tables);
        for cfg in &oracles {
            let fresh = simulate(&asc, &exec, cfg);
            let replay = session.run(cfg);
            assert_eq!(key(&fresh), key(&replay), "case {}: replay diverged", case.name);
            assert_eq!(
                fresh.constraint_checks, replay.constraint_checks,
                "case {}: replay checks diverged",
                case.name
            );
        }
        // The run alone, over the cached tables, per trace event.
        let t_run = median(&sample(samples_new, || black_box(session.run(&config))));
        let t_fresh_runs = median(&sample(samples_new, || {
            for cfg in &oracles {
                black_box(simulate(&asc, &exec, cfg));
            }
        }));
        let t_session_runs = median(&sample(samples_new, || {
            let tables = ScheduleTables::derive(&asc, &exec);
            let session = PreparedSchedule::with_tables(&asc, &exec, &tables);
            for cfg in &oracles {
                black_box(session.run(cfg));
            }
        }));

        reports.push(CaseReport {
            name: case.name,
            n_activities: asc.activities.len(),
            constraints: asc.constraint_count(),
            checks_rescan: s_base.constraint_checks,
            checks_wavefront: s_seq.constraint_checks,
            events,
            baseline_ms: ms(t_base),
            new_seq_ms: ms(t_seq),
            ns_per_event: t_run.as_nanos() as f64 / events.max(1) as f64,
            p50_ms,
            p99_ms,
            speedup_seq: t_base.as_secs_f64() / t_seq.as_secs_f64().max(1e-12),
            replay_runs: oracles.len(),
            fresh_replays_ms: ms(t_fresh_runs),
            session_replays_ms: ms(t_session_runs),
            session_speedup: t_fresh_runs.as_secs_f64() / t_session_runs.as_secs_f64().max(1e-12),
            phases: phases_json(&case_trace, "      "),
        });
        suite_trace.merge(case_trace);
    }

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"artifact\": \"BENCH_scheduler\",\n");
    out.push_str("  \"description\": \"DES execution of the full ASC: legacy per-tick linear rescan vs the dependency-counting wavefront on its integer kernel (one thread), with its time per trace event, plus the amortized prepared-session replay constant across oracle variants; traces asserted byte-identical before timing\",\n");
    out.push_str(&format!("  \"smoke\": {smoke},\n"));
    out.push_str("  \"cases\": [\n");
    for (i, r) in reports.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": \"{}\",\n", r.name));
        out.push_str(&format!("      \"n_activities\": {},\n", r.n_activities));
        out.push_str(&format!("      \"constraints\": {},\n", r.constraints));
        out.push_str(&format!(
            "      \"checks_rescan\": {},\n",
            r.checks_rescan
        ));
        out.push_str(&format!(
            "      \"checks_wavefront\": {},\n",
            r.checks_wavefront
        ));
        out.push_str(&format!("      \"events\": {},\n", r.events));
        out.push_str(&format!(
            "      \"baseline_ms\": {},\n",
            json_f(r.baseline_ms)
        ));
        out.push_str(&format!("      \"new_seq_ms\": {},\n", json_f(r.new_seq_ms)));
        out.push_str(&format!("      \"ns_per_event\": {:.1},\n", r.ns_per_event));
        out.push_str(&format!("      \"p50_ms\": {},\n", json_f(r.p50_ms)));
        out.push_str(&format!("      \"p99_ms\": {},\n", json_f(r.p99_ms)));
        out.push_str(&format!(
            "      \"speedup_seq\": {},\n",
            json_f(r.speedup_seq)
        ));
        out.push_str(&format!("      \"replay_runs\": {},\n", r.replay_runs));
        out.push_str(&format!(
            "      \"fresh_replays_ms\": {},\n",
            json_f(r.fresh_replays_ms)
        ));
        out.push_str(&format!(
            "      \"session_replays_ms\": {},\n",
            json_f(r.session_replays_ms)
        ));
        out.push_str(&format!(
            "      \"session_speedup\": {},\n",
            json_f(r.session_speedup)
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
        for case in scheduler_cases(true) {
            let (a, _) = case.prepare();
            let (b, _) = case.prepare();
            assert_eq!(a, b, "case {} not deterministic", case.name);
            assert!(a.constraint_count() > 0);
        }
    }

    #[test]
    fn full_suite_scales_past_a_thousand_activities() {
        let full = scheduler_cases(false);
        let big = full.iter().find(|c| c.name == "layered_n1003").unwrap();
        let (asc, _) = big.prepare();
        assert!(asc.activities.len() >= 1000);
    }
}
