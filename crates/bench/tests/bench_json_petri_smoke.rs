//! Tier-1 smoke run of the `repro bench-json --suite petri` measurement
//! path: prepares the small dense-conditional cases, runs the lane
//! validator and the scalar oracle, asserts the reports agree (done
//! inside `bench_petri_json`), and checks the rendered artifact is
//! well-formed.
//! Timings in this mode are meaningless (debug build, one sample) and are
//! not asserted on.

use dscweaver_bench::harness::BenchOpts;
use dscweaver_bench::perf_petri::{bench_petri_json, petri_cases};

#[test]
fn bench_petri_json_smoke_runs_and_renders() {
    let _serial = dscweaver_obs::test_lock();
    let (json, trace) = bench_petri_json(&BenchOpts {
        smoke: true,
        threads: 2,
    });
    assert!(json.starts_with("{\n"));
    assert!(json.ends_with("}\n"));
    assert!(json.contains("\"artifact\": \"BENCH_petri\""));
    assert!(json.contains("\"smoke\": true"));
    assert!(json.contains("\"name\": \"dense_g4_l3\""));
    // The assignment fan-out is gone, and so are its columns.
    assert!(!json.contains("_par"), "{json}");
    assert!(!json.contains("\"threads\""), "{json}");
    // Every emitted case has the full field set, exactly once per case.
    let cases = json.matches("\"name\":").count();
    assert!(cases >= 2, "expected at least two smoke cases, got {cases}");
    for field in [
        "\"n_activities\":",
        "\"assignments\":",
        "\"failures\":",
        "\"new_seq_ms\":",
        "\"scalar_ms\":",
        "\"scalar_fallbacks\":",
        "\"kernel_words\":",
        "\"compile_ms\":",
        "\"compile_floor_ms\":",
        "\"phases\":",
    ] {
        assert_eq!(json.matches(field).count(), cases, "field {field}");
    }
    // The compile half sits at or above its floor in every case.
    let values = |field: &str| -> Vec<f64> {
        json.split(field)
            .skip(1)
            .map(|rest| rest.split(',').next().unwrap().trim().parse().unwrap())
            .collect()
    };
    let (compile, floor) = (values("\"compile_ms\":"), values("\"compile_floor_ms\":"));
    assert_eq!(compile.len(), cases);
    for (c, f) in compile.iter().zip(&floor) {
        assert!(f <= c, "floor {f} ms above compile {c} ms");
    }
    // Lowered nets are 1-safe: only failing assignments leave the lanes.
    assert_eq!(values("\"scalar_fallbacks\":"), values("\"failures\":"));
    // The per-phase breakdown covers the validator's span taxonomy, and
    // the suite trace carries the merged instrumented runs.
    assert!(json.contains("\"petri.validate\":"), "{json}");
    assert!(json.contains("\"petri.assignments\":"), "{json}");
    assert!(!trace.is_empty());
    assert!(trace.phase_totals_ms().contains_key("petri.lower"));
    // The factored-enumeration section on guard-independent workloads:
    // every entry reports both the full and the strictly smaller factored
    // assignment counts (the measurement path asserts matching verdicts).
    let factored = json.matches("\"workload\":").count();
    assert!(factored >= 1, "expected a factored smoke case");
    for field in [
        "\"guards\":",
        "\"guard_groups\":",
        "\"assignment_space\":",
        "\"full_assignments\":",
        "\"factored_assignments\":",
        "\"full_ms\":",
        "\"factored_ms\":",
        "\"factored_speedup\":",
    ] {
        assert_eq!(json.matches(field).count(), factored, "field {field}");
    }
    // Balanced braces/brackets — cheap well-formedness check without a
    // JSON parser dependency (no string values contain braces).
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches('[').count(), json.matches(']').count());
}

#[test]
fn full_suite_contains_the_512_assignment_case() {
    let full = petri_cases(false);
    let big = full.iter().find(|c| c.name == "dense_g9_l12").unwrap();
    assert!(1usize << big.params.guards >= 512);
    assert!(big.params.chain_len >= 8, "slow paths must be deep");
}
