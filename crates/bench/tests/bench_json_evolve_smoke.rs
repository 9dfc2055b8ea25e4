//! Tier-1 smoke run of the `repro bench-json --suite evolve` measurement
//! path: weaves the small case, applies level-stable edit bursts, runs
//! the session re-weave against a fresh weave (equivalence asserted
//! inside `bench_evolve_json`), and checks the rendered artifact is
//! well-formed. Timings in this mode are
//! meaningless (debug build, one sample) and are not asserted on.

use dscweaver_bench::harness::BenchOpts;
use dscweaver_bench::perf_evolve::{bench_evolve_json, evolve_cases};

#[test]
fn bench_json_evolve_smoke_runs_and_renders() {
    let _serial = dscweaver_obs::test_lock();
    let (json, trace) = bench_evolve_json(&BenchOpts {
        smoke: true,
        threads: 2,
    });
    assert!(json.starts_with("{\n"));
    assert!(json.ends_with("}\n"));
    assert!(json.contains("\"artifact\": \"BENCH_evolve\""));
    assert!(json.contains("\"smoke\": true"));
    assert!(json.contains("\"case\": \"evolve_n62\""));
    // Every burst row carries the full field set, exactly once per row.
    let rows = json.matches("\"case\":").count();
    assert_eq!(rows, 2, "smoke sweeps burst sizes 1 and 2: {json}");
    for field in [
        "\"burst\":",
        "\"n_activities\":",
        "\"asc_constraints\":",
        "\"edits\":",
        "\"fresh_ms\":",
        "\"reweave_ms\":",
        "\"reweave_p50_ms\":",
        "\"reweave_p99_ms\":",
        "\"unattributed_ms\":",
        "\"phases\":",
    ] {
        assert_eq!(json.matches(field).count(), rows, "field {field}");
    }
    // The traced re-weave recorded its spans.
    assert!(!trace.is_empty());
    assert!(trace.phase_totals_ms().contains_key("reweave"), "{:?}", trace.phase_totals_ms());
    // Balanced braces/brackets — cheap well-formedness check without a
    // JSON parser dependency (no string values contain braces).
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches('[').count(), json.matches(']').count());
}

#[test]
fn full_suite_sweeps_bursts_on_the_scaling_case() {
    let full = evolve_cases(false);
    let big = full.iter().find(|c| c.name == "evolve_n2003").unwrap();
    assert_eq!(big.bursts, vec![1, 2, 4, 8, 16]);
}
