//! Regression differ for `BENCH_*.json` artifacts: `repro perf-diff
//! old.json new.json`.
//!
//! Compares two runs of the *same* suite (the top-level `"artifact"`
//! fields must match) field by field. Rows inside every top-level array
//! of objects (`cases`, `passes`, `fleets`, `factored`, ...) are keyed by
//! their workload-describing fields — strings, booleans and
//! integer-valued counts — so a row is matched to its counterpart even
//! when the arrays are reordered or grow. Only key fields that both
//! artifacts carry in a section count, so dropping or adding a column
//! keeps rows matched; rows whose identity is not unique on either side
//! are reported unmatched, never paired by guess. Within a matched row, every
//! numeric `*_ms` / `*_us` field plus every entry of a nested `"phases"`
//! object is compared as a new/old ratio. Timings below a configurable
//! noise floor are skipped (micro-cases jitter wildly and would drown
//! real regressions), and fields present on only one side (schema
//! evolution, e.g. newly added percentile columns) are reported but never
//! fail the diff.
//!
//! The CLI exit code is the contract: `0` when no compared field
//! regresses past the threshold, `1` when at least one does, `2` on
//! usage or parse errors — so CI can gate merges on
//! `repro perf-diff baseline.json fresh.json`.

use dscweaver_obs::json::{parse, Json};
use std::collections::{BTreeMap, BTreeSet};

/// Tuning knobs for a diff run.
#[derive(Clone, Copy, Debug)]
pub struct DiffOpts {
    /// A field regresses when `new / old` exceeds this ratio
    /// (default 1.25 — 25% slower).
    pub threshold: f64,
    /// Noise floor in milliseconds: a comparison is skipped unless at
    /// least one side is at or above this (default 0.05 ms). `*_us`
    /// fields are converted before the floor is applied.
    pub min_ms: f64,
}

impl Default for DiffOpts {
    fn default() -> Self {
        DiffOpts { threshold: 1.25, min_ms: 0.05 }
    }
}

/// One compared timing field in one matched row.
#[derive(Clone, Debug)]
pub struct FieldDiff {
    /// Top-level array the row lives in (`cases`, `passes`, ...).
    pub section: String,
    /// Human-readable row identity (the joined identity fields).
    pub row: String,
    /// Field name; nested phase entries render as `phases.<name>`.
    pub field: String,
    /// Old value in the field's native unit.
    pub old: f64,
    /// New value in the field's native unit.
    pub new: f64,
    /// `new / old` (old clamped away from zero).
    pub ratio: f64,
    /// True when `ratio` exceeds the threshold.
    pub regressed: bool,
}

/// The full outcome of one artifact-vs-artifact diff.
#[derive(Clone, Debug, Default)]
pub struct DiffReport {
    /// The shared `"artifact"` name.
    pub artifact: String,
    /// Every compared field, in (section, row, field) order.
    pub fields: Vec<FieldDiff>,
    /// Comparisons skipped because both sides sat under the noise floor.
    pub skipped: usize,
    /// Rows present only in the old artifact (section, row identity).
    pub only_old: Vec<(String, String)>,
    /// Rows present only in the new artifact (section, row identity).
    pub only_new: Vec<(String, String)>,
    /// Timing fields present on only one side of a matched row
    /// (section, row, field, which side) — schema drift, never a failure.
    pub lopsided: Vec<(String, String, String, &'static str)>,
}

impl DiffReport {
    /// All fields that regressed past the threshold, worst first.
    pub fn regressions(&self) -> Vec<&FieldDiff> {
        let mut v: Vec<&FieldDiff> = self.fields.iter().filter(|f| f.regressed).collect();
        v.sort_by(|a, b| b.ratio.total_cmp(&a.ratio));
        v
    }
}

/// True for fields carrying wall-time in a known unit.
fn is_timing(name: &str) -> bool {
    name.ends_with("_ms") || name.ends_with("_us")
}

/// True for numeric fields derived from timing — excluded from row
/// identity because they differ run to run.
fn is_run_dependent(name: &str) -> bool {
    is_timing(name)
        || name.ends_with("_per_sec")
        || name.ends_with("per_event")
        || name.ends_with("_rate")
        || name.contains("speedup")
        || name.ends_with("bytes_per_instance")
}

/// Milliseconds-per-unit for a timing field (for the noise floor).
fn unit_to_ms(name: &str) -> f64 {
    if name.ends_with("_us") {
        1e-3
    } else {
        1.0
    }
}

/// The workload-describing fields of one row: every string/bool field
/// plus every integer-valued number that is not run-dependent, in key
/// order.
fn key_fields(row: &Json) -> Vec<(&str, String)> {
    let Json::Obj(pairs) = row else {
        return Vec::new();
    };
    pairs
        .iter()
        .filter_map(|(k, v)| match v {
            Json::Str(s) => Some((k.as_str(), s.clone())),
            Json::Bool(b) => Some((k.as_str(), b.to_string())),
            Json::Num(n) if n.fract() == 0.0 && !is_run_dependent(k) => {
                Some((k.as_str(), n.to_string()))
            }
            _ => None,
        })
        .collect()
}

/// Names of the key fields any row of a section carries.
fn key_names<'a>(rows: &[&'a Json]) -> BTreeSet<&'a str> {
    rows.iter()
        .flat_map(|r| key_fields(r).into_iter().map(|(k, _)| k))
        .collect()
}

/// The identity of one row: its key fields restricted to `names`.
fn row_key(row: &Json, names: &BTreeSet<&str>) -> String {
    key_fields(row)
        .into_iter()
        .filter(|(k, _)| names.contains(k))
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Rows keyed by identity; an identity shared by several rows maps to
/// all of them, so the caller can refuse to pair it.
fn by_key<'a>(rows: &[&'a Json], names: &BTreeSet<&str>) -> BTreeMap<String, Vec<&'a Json>> {
    let mut out: BTreeMap<String, Vec<&Json>> = BTreeMap::new();
    for r in rows {
        out.entry(row_key(r, names)).or_default().push(*r);
    }
    out
}

/// Timing fields of one row, flattened: direct `*_ms`/`*_us` numbers
/// plus `phases.<name>` entries from a nested `"phases"` object (phase
/// breakdowns are milliseconds by construction).
fn timings(row: &Json) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let Json::Obj(pairs) = row else {
        return out;
    };
    for (k, v) in pairs {
        match v {
            Json::Num(n) if is_timing(k) => {
                out.insert(k.clone(), *n);
            }
            Json::Obj(inner) if k == "phases" => {
                for (pk, pv) in inner {
                    if let Json::Num(n) = pv {
                        out.insert(format!("phases.{pk}_ms"), *n);
                    }
                }
            }
            _ => {}
        }
    }
    out
}

/// Every top-level section worth diffing: arrays of objects keep their
/// name; a top-level `"phases"` object becomes a one-row pseudo-section.
fn sections(doc: &Json) -> Vec<(String, Vec<&Json>)> {
    let Json::Obj(pairs) = doc else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for (k, v) in pairs {
        match v {
            Json::Arr(items) if items.iter().any(|i| matches!(i, Json::Obj(_))) => {
                out.push((k.clone(), items.iter().collect()));
            }
            Json::Obj(_) if k == "phases" => {
                out.push(("(top)".to_string(), vec![v]));
            }
            _ => {}
        }
    }
    out
}

/// Diffs two artifact documents. Errors (as strings) on parse failures
/// or when the two files come from different suites.
pub fn diff(old_text: &str, new_text: &str, opts: &DiffOpts) -> Result<DiffReport, String> {
    let old = parse(old_text).map_err(|e| format!("old artifact: {e}"))?;
    let new = parse(new_text).map_err(|e| format!("new artifact: {e}"))?;
    let name_of = |doc: &Json, side: &str| -> Result<String, String> {
        doc.get("artifact")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("{side} artifact: missing top-level \"artifact\" field"))
    };
    let old_name = name_of(&old, "old")?;
    let new_name = name_of(&new, "new")?;
    if old_name != new_name {
        return Err(format!(
            "artifact mismatch: old is \"{old_name}\", new is \"{new_name}\" — \
             perf-diff compares two runs of the same suite"
        ));
    }

    let mut report = DiffReport { artifact: old_name, ..DiffReport::default() };
    let old_sections = sections(&old);
    let mut new_sections: BTreeMap<String, Vec<&Json>> = sections(&new).into_iter().collect();

    for (section, old_rows) in old_sections {
        let Some(new_rows) = new_sections.remove(&section) else {
            let names = key_names(&old_rows);
            for r in &old_rows {
                report.only_old.push((section.clone(), row_key(r, &names)));
            }
            continue;
        };
        let names: BTreeSet<&str> = key_names(&old_rows)
            .intersection(&key_names(&new_rows))
            .copied()
            .collect();
        let mut new_by_key = by_key(&new_rows, &names);
        for (key, old_group) in by_key(&old_rows, &names) {
            let new_group = new_by_key.remove(&key).unwrap_or_default();
            let (&[old_row], &[new_row]) = (old_group.as_slice(), new_group.as_slice()) else {
                // Missing on one side, or not unique: report, never guess.
                for _ in &old_group {
                    report.only_old.push((section.clone(), key.clone()));
                }
                for _ in &new_group {
                    report.only_new.push((section.clone(), key.clone()));
                }
                continue;
            };
            let old_t = timings(old_row);
            let mut new_t = timings(new_row);
            for (field, old_v) in old_t {
                let Some(new_v) = new_t.remove(&field) else {
                    report
                        .lopsided
                        .push((section.clone(), key.clone(), field, "old-only"));
                    continue;
                };
                let to_ms = unit_to_ms(&field);
                if old_v * to_ms < opts.min_ms && new_v * to_ms < opts.min_ms {
                    report.skipped += 1;
                    continue;
                }
                let ratio = new_v / old_v.max(1e-12);
                report.fields.push(FieldDiff {
                    section: section.clone(),
                    row: key.clone(),
                    field,
                    old: old_v,
                    new: new_v,
                    ratio,
                    regressed: ratio > opts.threshold,
                });
            }
            for field in new_t.into_keys() {
                report
                    .lopsided
                    .push((section.clone(), key.clone(), field, "new-only"));
            }
        }
        for (key, rows) in new_by_key {
            for _ in rows {
                report.only_new.push((section.clone(), key.clone()));
            }
        }
    }
    for (section, rows) in new_sections {
        let names = key_names(&rows);
        for r in &rows {
            report.only_new.push((section.clone(), row_key(r, &names)));
        }
    }
    Ok(report)
}

/// Renders the per-case ratio table plus the verdict line. The last line
/// always starts with `perf-diff:` and states pass/fail, the threshold
/// and the counts, so logs stay greppable.
pub fn render(report: &DiffReport, opts: &DiffOpts) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "artifact {}: {} fields compared, {} under the {:.3} ms noise floor\n",
        report.artifact,
        report.fields.len(),
        report.skipped,
        opts.min_ms
    ));
    let w_field = report
        .fields
        .iter()
        .map(|f| f.field.len())
        .max()
        .unwrap_or(5)
        .max(5);
    let mut last_row = String::new();
    for f in &report.fields {
        let row_id = format!("[{}] {}", f.section, f.row);
        if row_id != last_row {
            out.push_str(&format!("\n{row_id}\n"));
            last_row = row_id;
        }
        let flag = if f.regressed {
            "  <-- REGRESSION"
        } else if f.ratio < 1.0 / opts.threshold {
            "  (improved)"
        } else {
            ""
        };
        out.push_str(&format!(
            "  {:<w_field$}  {:>12.3} -> {:>12.3}  x{:.3}{flag}\n",
            f.field, f.old, f.new, f.ratio
        ));
    }
    for (section, row) in &report.only_old {
        out.push_str(&format!("\nrow only in old [{section}]: {row}\n"));
    }
    for (section, row) in &report.only_new {
        out.push_str(&format!("\nrow only in new [{section}]: {row}\n"));
    }
    for (section, row, field, side) in &report.lopsided {
        out.push_str(&format!("\nfield {field} is {side} in [{section}] {row}\n"));
    }
    let regressions = report.regressions();
    if let Some(worst) = regressions.first() {
        out.push_str(&format!(
            "\nperf-diff: FAIL — {} field(s) regressed past x{:.2} \
             (worst: [{}] {} {} x{:.3})\n",
            regressions.len(),
            opts.threshold,
            worst.section,
            worst.row,
            worst.field,
            worst.ratio
        ));
    } else {
        out.push_str(&format!(
            "\nperf-diff: OK — no field regressed past x{:.2}\n",
            opts.threshold
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifact(name: &str, cases: &str) -> String {
        format!("{{\n  \"artifact\": \"{name}\",\n  \"cases\": [\n{cases}\n  ]\n}}\n")
    }

    #[test]
    fn mismatched_artifacts_are_an_error() {
        let a = artifact("BENCH_a", r#"{"name": "x", "run_ms": 1.0}"#);
        let b = artifact("BENCH_b", r#"{"name": "x", "run_ms": 1.0}"#);
        let err = diff(&a, &b, &DiffOpts::default()).unwrap_err();
        assert!(err.contains("mismatch"), "{err}");
        assert!(diff("{nope", &b, &DiffOpts::default()).is_err());
    }

    #[test]
    fn detects_a_regression_and_an_identical_run_is_clean() {
        let old = artifact("BENCH_t", r#"{"name": "x", "n": 5, "run_ms": 10.0}"#);
        let new = artifact("BENCH_t", r#"{"name": "x", "n": 5, "run_ms": 20.0}"#);
        let opts = DiffOpts::default();
        let r = diff(&old, &new, &opts).unwrap();
        assert_eq!(r.regressions().len(), 1);
        assert!((r.regressions()[0].ratio - 2.0).abs() < 1e-9);
        assert!(render(&r, &opts).contains("FAIL"));

        let clean = diff(&old, &old, &opts).unwrap();
        assert!(clean.regressions().is_empty());
        assert_eq!(clean.fields.len(), 1);
        assert!(render(&clean, &opts).contains("perf-diff: OK"));
    }

    #[test]
    fn noise_floor_skips_micro_timings_in_native_units() {
        // 20 us -> 40 us: a 2x blow-up, but both sides sit under the
        // 0.05 ms default floor once converted from their native unit.
        let old = artifact("BENCH_t", r#"{"name": "x", "lat_us": 20.0, "run_ms": 10.0}"#);
        let new = artifact("BENCH_t", r#"{"name": "x", "lat_us": 40.0, "run_ms": 10.0}"#);
        let r = diff(&old, &new, &DiffOpts::default()).unwrap();
        assert_eq!(r.skipped, 1);
        assert!(r.regressions().is_empty());
        // Dropping the floor exposes it.
        let r = diff(&old, &new, &DiffOpts { min_ms: 0.0, ..DiffOpts::default() }).unwrap();
        assert_eq!(r.regressions().len(), 1);
        assert_eq!(r.regressions()[0].field, "lat_us");
    }

    #[test]
    fn nested_phases_are_compared_and_schema_drift_is_not_a_failure() {
        let old = artifact(
            "BENCH_t",
            r#"{"name": "x", "run_ms": 10.0, "phases": {"weave.optimize": 4.0}}"#,
        );
        let new = artifact(
            "BENCH_t",
            r#"{"name": "x", "run_ms": 10.0, "p99_ms": 12.0, "phases": {"weave.optimize": 9.0}}"#,
        );
        let r = diff(&old, &new, &DiffOpts::default()).unwrap();
        let regs = r.regressions();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].field, "phases.weave.optimize_ms");
        // The p99_ms column added by the newer artifact is reported as
        // lopsided, never as a regression.
        assert_eq!(r.lopsided.len(), 1);
        assert_eq!(r.lopsided[0].3, "new-only");
    }

    #[test]
    fn rows_are_matched_by_identity_not_position() {
        let old = artifact(
            "BENCH_t",
            r#"{"name": "a", "run_ms": 10.0},
{"name": "b", "run_ms": 10.0}"#,
        );
        let new = artifact(
            "BENCH_t",
            r#"{"name": "b", "run_ms": 10.0},
{"name": "a", "run_ms": 50.0},
{"name": "c", "run_ms": 1.0}"#,
        );
        let r = diff(&old, &new, &DiffOpts::default()).unwrap();
        let regs = r.regressions();
        assert_eq!(regs.len(), 1);
        assert!(regs[0].row.contains("name=a"));
        assert_eq!(r.only_new, vec![("cases".to_string(), "name=c".to_string())]);
        assert!(r.only_old.is_empty());
    }

    #[test]
    fn dropped_integer_column_still_matches_and_flags_the_regression() {
        // The column is part of the old row's identity but absent from the
        // new one: the rows must still pair on the shared key fields.
        let old = artifact(
            "BENCH_t",
            r#"{"name": "x", "prepared_runs": 16, "new_seq_ms": 1.0}"#,
        );
        let new = artifact("BENCH_t", r#"{"name": "x", "new_seq_ms": 9.0}"#);
        let r = diff(&old, &new, &DiffOpts::default()).unwrap();
        assert!(r.only_old.is_empty() && r.only_new.is_empty(), "{r:?}");
        let regs = r.regressions();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].field, "new_seq_ms");
        assert!(render(&r, &DiffOpts::default()).contains("FAIL"));
    }

    #[test]
    fn duplicate_identities_are_reported_not_paired() {
        // Once `n` is gone from the new side, the two old rows share the
        // identity `name=x`: neither may be paired with the new row.
        let old = artifact(
            "BENCH_t",
            r#"{"name": "x", "n": 1, "run_ms": 1.0},
{"name": "x", "n": 2, "run_ms": 50.0},
{"name": "y", "n": 3, "run_ms": 1.0}"#,
        );
        let new = artifact(
            "BENCH_t",
            r#"{"name": "x", "run_ms": 1.0},
{"name": "y", "run_ms": 1.0}"#,
        );
        let r = diff(&old, &new, &DiffOpts::default()).unwrap();
        let x = ("cases".to_string(), "name=x".to_string());
        assert_eq!(r.only_old, vec![x.clone(), x.clone()]);
        assert_eq!(r.only_new, vec![x]);
        assert_eq!(r.fields.len(), 1);
        assert_eq!(r.fields[0].row, "name=y");
    }

    #[test]
    fn committed_artifacts_self_diff_clean() {
        // The real committed artifacts must parse, self-match on every
        // row and report zero regressions against themselves.
        for name in ["minimize", "petri", "scheduler", "evolve", "monitor", "serve"] {
            let path = format!("{}/../../BENCH_{name}.json", env!("CARGO_MANIFEST_DIR"));
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                panic!("cannot read {path}: {e}");
            });
            let r = diff(&text, &text, &DiffOpts::default())
                .unwrap_or_else(|e| panic!("BENCH_{name}: {e}"));
            assert!(r.regressions().is_empty(), "BENCH_{name} self-diff regressed");
            assert!(!r.fields.is_empty(), "BENCH_{name} produced no comparisons");
            assert!(r.only_old.is_empty() && r.only_new.is_empty(),
                "BENCH_{name} rows failed to self-match: {:?} {:?}", r.only_old, r.only_new);
        }
    }
}
