//! Smoke test of the benchmark: every workload `BENCHMARK.json` declares
//! runs with `--smoke`, passes its correctness gates, prints exactly the
//! declared metrics (finite, with the declared unit), and its traced
//! ledger accounts for the end-to-end mean.

use dscweaver_obs::json::{self, Json};
use std::collections::BTreeMap;
use std::process::{Command, Output};

fn spec() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(spec: &'a Json, key: &str) -> &'a [Json] {
    spec.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
}

fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("entry without {key}"))
}

fn dscbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dscbench"))
        .args(args)
        .output()
        .expect("dscbench runs")
}

/// Runs one workload and returns its result line's metrics as
/// `name → (value, unit)`.
fn run(workload: &str, trace: &str) -> BTreeMap<String, (f64, String)> {
    let trace_out = format!("{}/{workload}.json", env!("CARGO_TARGET_TMPDIR"));
    let out = dscbench(&[
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "1",
        "--trace",
        trace,
        "--smoke",
        "--trace-out",
        &trace_out,
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} (trace {trace}) failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let result =
        json::parse(stdout.lines().last().expect("a result line")).expect("the result line parses");
    assert_eq!(
        result.get("correct").and_then(Json::as_bool),
        Some(true),
        "{workload}"
    );
    assert!(
        result
            .get("attempted")
            .and_then(Json::as_num)
            .unwrap_or(0.0)
            >= 1.0,
        "{workload}"
    );
    assert_eq!(
        result.get("failed").and_then(Json::as_num),
        Some(0.0),
        "{workload}"
    );
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("{workload}: no metrics object");
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let value = m
                .get("value")
                .and_then(Json::as_num)
                .expect("numeric value");
            let unit = m
                .get("unit")
                .and_then(Json::as_str)
                .expect("unit")
                .to_string();
            (name.clone(), (value, unit))
        })
        .collect()
}

#[test]
fn every_workload_prints_the_declared_metrics_and_its_ledger_adds_up() {
    let spec = spec();
    for workload in list(&spec, "workloads").iter().map(|w| field(w, "name")) {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let printed = run(workload, trace);
            let declared: BTreeMap<&str, &str> = list(&spec, key)
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit")))
                .collect();
            let names: Vec<&str> = printed.keys().map(String::as_str).collect();
            assert_eq!(
                names,
                declared.keys().copied().collect::<Vec<_>>(),
                "{workload} {key}"
            );
            for (name, (value, unit)) in &printed {
                assert!(value.is_finite(), "{workload}: {name} = {value}");
                assert_eq!(unit, declared[name.as_str()], "{workload}: unit of {name}");
            }
            if trace == "0" && workload != "weave_offline" {
                // Little's law: one closed-loop connection keeps at most
                // one request in flight, less the client's own time
                // between requests. On cold_mixed the compile requests
                // the client interleaves take an unbounded share of it.
                let in_flight = printed["throughput"].0 * printed["latency_p50_us"].0 / 1e6;
                let least = if workload == "cold_mixed" { 0.0 } else { 0.3 };
                assert!(
                    in_flight > least && in_flight < 1.1,
                    "{workload}: {in_flight} requests in flight"
                );
            }
            if trace == "1" {
                // Layer means (per request) plus the unattributed rest
                // make up the end-to-end mean.
                let e2e = printed["e2e.mean_us"].0;
                let layers: f64 = printed
                    .iter()
                    .filter(|(name, _)| name.ends_with(".share") && !name.starts_with("floor."))
                    .map(|(_, (share, _))| share * e2e)
                    .sum();
                let total = layers + printed["unattributed_us"].0;
                assert!(
                    (total - e2e).abs() <= 0.01 * e2e,
                    "{workload}: {total} vs {e2e}"
                );
            }
        }
    }
}

#[test]
fn the_binary_knows_exactly_the_declared_workloads() {
    let out = dscbench(&["--workload", "no_such_workload", "--seed", "1"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "a refused run prints no result");
    let usage = String::from_utf8_lossy(&out.stderr);
    let listed = usage
        .split("--workload <")
        .nth(1)
        .and_then(|s| s.split('>').next())
        .expect("usage lists workloads");
    let spec = spec();
    let declared: Vec<&str> = list(&spec, "workloads")
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    assert_eq!(listed.split('|').collect::<Vec<_>>(), declared);
}
