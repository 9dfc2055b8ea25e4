//! Tier-1 smoke run of the `repro bench-json --suite scheduler`
//! measurement path: prepares the small cases, runs the rescan and
//! wavefront engines, asserts trace agreement (done inside
//! `bench_scheduler_json`), and checks the rendered artifact is
//! well-formed. Timings in this mode are meaningless (debug build, one
//! sample) and are not asserted on.

use dscweaver_bench::harness::BenchOpts;
use dscweaver_bench::perf_scheduler::{bench_scheduler_json, scheduler_cases};

#[test]
fn bench_scheduler_json_smoke_runs_and_renders() {
    let _serial = dscweaver_obs::test_lock();
    let (json, trace) = bench_scheduler_json(&BenchOpts {
        smoke: true,
        threads: 2,
    });
    assert!(json.starts_with("{\n"));
    assert!(json.ends_with("}\n"));
    assert!(json.contains("\"artifact\": \"BENCH_scheduler\""));
    assert!(json.contains("\"smoke\": true"));
    assert!(json.contains("\"name\": \"dense_g4_l3\""));
    assert!(json.contains("\"checks_wavefront\""));
    // The guard-evaluation fan-out is gone, and so are its columns.
    assert!(!json.contains("_par"), "{json}");
    // Every emitted case has the full field set, exactly once per case.
    let cases = json.matches("\"name\":").count();
    assert!(cases >= 2, "expected at least two smoke cases, got {cases}");
    for field in [
        "\"n_activities\":",
        "\"constraints\":",
        "\"checks_rescan\":",
        "\"checks_wavefront\":",
        "\"events\":",
        "\"baseline_ms\":",
        "\"new_seq_ms\":",
        "\"ns_per_event\":",
        "\"speedup_seq\":",
        "\"replay_runs\":",
        "\"fresh_replays_ms\":",
        "\"session_replays_ms\":",
        "\"session_speedup\":",
        "\"phases\":",
    ] {
        assert_eq!(json.matches(field).count(), cases, "field {field}");
    }
    // The per-phase breakdown covers the scheduler's span taxonomy, and
    // the suite trace carries the merged instrumented runs.
    assert!(json.contains("\"scheduler.run\":"), "{json}");
    assert!(!trace.is_empty());
    assert!(trace.phase_totals_ms().contains_key("scheduler.prepare"));
    // Balanced braces/brackets — cheap well-formedness check without a
    // JSON parser dependency (no string values contain braces).
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches('[').count(), json.matches(']').count());
}

#[test]
fn full_suite_scales_past_a_thousand_activities() {
    let full = scheduler_cases(false);
    assert!(full.iter().any(|c| c.name == "layered_n1003"));
    assert!(full.iter().any(|c| c.name == "dense_g9_l12"));
}

/// The strict CLI contract of `repro bench-json`, shared by all suites:
/// unknown flags and malformed values exit 2 before any measurement, and
/// an unwritable `--out` exits 1.
mod cli {
    use std::process::Command;

    fn repro() -> Command {
        Command::new(env!("CARGO_BIN_EXE_repro"))
    }

    #[test]
    fn unknown_argument_exits_2() {
        let out = repro()
            .args(["bench-json", "--suite", "petri", "--smkoe"])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2));
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unknown argument"), "{err}");
    }

    #[test]
    fn bad_suite_exits_2() {
        let out = repro()
            .args(["bench-json", "--suite", "nonsense"])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2));
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("--suite requires"), "{err}");
    }

    #[test]
    fn out_with_suite_all_exits_2() {
        let out = repro()
            .args(["bench-json", "--suite", "all", "--smoke", "--out", "x.json"])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2));
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("--out needs a single suite"), "{err}");
    }

    #[test]
    fn unwritable_out_exits_1() {
        let out = repro()
            .args([
                "bench-json",
                "--suite",
                "scheduler",
                "--smoke",
                "--out",
                "/nonexistent-dir/x.json",
            ])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1));
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("cannot write"), "{err}");
    }

    #[test]
    fn smoke_artifact_written_to_out_path() {
        let dir = std::env::temp_dir().join("dscweaver_bench_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_petri_smoke.json");
        let out = repro()
            .args(["bench-json", "--suite", "petri", "--smoke", "--threads", "2"])
            .arg("--out")
            .arg(&path)
            .output()
            .unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let written = std::fs::read_to_string(&path).unwrap();
        assert!(written.contains("\"artifact\": \"BENCH_petri\""));
        let _ = std::fs::remove_file(&path);
    }
}
