//! Tier-1 smoke run of the `repro bench-json` measurement path: prepares
//! the small cases, checks the optimized minimizer against the structural
//! baseline (done inside `bench_minimize_json`), and checks the
//! rendered artifact is well-formed. Timings in this mode are meaningless
//! (debug build, one sample) and are not asserted on.

use dscweaver_bench::harness::BenchOpts;
use dscweaver_bench::perf::{bench_minimize_json, minimize_cases};

#[test]
fn bench_json_smoke_runs_and_renders() {
    let _serial = dscweaver_obs::test_lock();
    let (json, trace) = bench_minimize_json(&BenchOpts {
        smoke: true,
        threads: 2,
    });
    assert!(json.starts_with("{\n"));
    assert!(json.ends_with("}\n"));
    assert!(json.contains("\"artifact\": \"BENCH_minimize\""));
    assert!(json.contains("\"smoke\": true"));
    assert!(json.contains("\"name\": \"purchasing_n14\""));
    // Every emitted case has the full field set, exactly once per case.
    let cases = json.matches("\"name\":").count();
    assert!(cases >= 2, "expected at least two smoke cases, got {cases}");
    for field in [
        "\"new_seq_ms\":",
        "\"p50_ms\":",
        "\"p99_ms\":",
        "\"closure_seq_ms\":",
        "\"greedy_ms\":",
        "\"unattributed_ms\":",
        "\"closure_floor_ms\":",
        "\"constraints_in\":",
        "\"redundancy\":",
        "\"pool_dnfs\":",
        "\"pool_terms\":",
        "\"implies_hit_rate\":",
        "\"implies_evictions\":",
        "\"phases\":",
    ] {
        assert_eq!(json.matches(field).count(), cases, "field {field}");
    }
    // The per-phase breakdown covers the minimizer's span taxonomy, and
    // the suite trace carries the merged instrumented runs.
    assert!(json.contains("\"minimize.generic\":"), "{json}");
    assert!(json.contains("\"minimize.greedy\":"), "{json}");
    assert!(json.contains("\"minimize.prepare\":"), "{json}");
    assert!(json.contains("\"minimize.output\":"), "{json}");
    assert!(!trace.is_empty());
    assert!(trace.phase_totals_ms().contains_key("minimize.closure"));
    // Balanced braces/brackets — cheap well-formedness check without a
    // JSON parser dependency (no string values contain braces).
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches('[').count(), json.matches(']').count());
    // No parallel or baseline-timing columns are left.
    for gone in ["new_par_ms", "speedup", "closure_par_ms", "baseline_ms"] {
        assert!(!json.contains(gone), "{gone} still emitted");
    }
}

#[test]
fn full_suite_contains_the_acceptance_case() {
    let full = minimize_cases(false);
    let big = full.iter().find(|c| c.name == "layered_n2003").unwrap();
    let (asc, _) = big.prepare();
    assert!(asc.activities.len() >= 2000);
    // Redundancy floor for the acceptance criterion: at least 2× the
    // skeleton. (The generator injects transitively-implied shortcuts, so
    // constraint_count / kept ≥ 2 once 10k shortcuts land.)
    assert!(asc.constraint_count() >= 2 * 10_000);
}
