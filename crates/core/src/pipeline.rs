//! The DSCWeaver specification-and-optimization pipeline (§1, §4):
//! dependencies → merge (§4.2) → desugar → conflict check → service
//! translation (§4.3) → minimal set (§4.4), with per-stage artifacts kept
//! for reporting (Figures 7–9, Table 2). Petri-net validation and BPEL
//! generation — the execution half of the vertical solution — live in the
//! `dscweaver-petri` and `dscweaver-bpel` crates and are composed by the
//! root `dscweaver` facade.

use crate::dependency::DependencySet;
use crate::exec::{derive_ids, ExecConditions};
use crate::merge::merge_numbered;
use crate::minimize::{
    minimize_numbered, EdgeOrder, EquivalenceMode, MinimizeError, MinimizeResult,
};
use crate::number::Numbering;
use crate::translate::{translate_numbered, TranslationReport};
use dscweaver_dscl::{ConstraintError, ConstraintSet, Origin, Relation};
use dscweaver_graph::FxHasher;
use dscweaver_obs as obs;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Pipeline configuration.
#[derive(Clone, Debug, Default)]
pub struct Weaver {
    /// Closure-comparison mode for minimization.
    pub mode: EquivalenceMode,
    /// Removal-candidate ordering.
    pub order: EdgeOrder,
    /// Ignored: the weave runs on one thread. Kept only so existing
    /// struct literals that set it still compile.
    pub threads: usize,
}

/// Pipeline failure.
#[derive(Clone, Debug)]
pub enum WeaverError {
    /// The merged constraint set fails structural validation.
    Validation(Vec<ConstraintError>),
    /// Conflicting constraints (a synchronization cycle).
    Conflict(MinimizeError),
}

impl std::fmt::Display for WeaverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WeaverError::Validation(errs) => {
                writeln!(f, "constraint set failed validation:")?;
                for e in errs {
                    writeln!(f, "  - {e}")?;
                }
                Ok(())
            }
            WeaverError::Conflict(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for WeaverError {}

/// Every artifact the pipeline produces.
#[derive(Clone, Debug)]
pub struct WeaverOutput {
    /// The merged synchronization constraint set `SC` (Figure 7).
    pub sc: Arc<ConstraintSet>,
    /// Execution conditions derived from `SC`'s control dependencies —
    /// needed by the scheduler (dead-path elimination) and the Petri-net
    /// lowering, and carried unchanged through optimization.
    pub exec: ExecConditions,
    /// The activity synchronization constraint set `ASC` after service
    /// translation (Figure 8). Without services it is the SC itself: the
    /// two fields share one set.
    pub asc: Arc<ConstraintSet>,
    /// What translation did (bridges = Figure 8's bold edges).
    pub translation: TranslationReport,
    /// The minimal constraint set `P*` (Figure 9).
    pub minimal: ConstraintSet,
    /// Constraints removed by minimization.
    pub removed: Vec<Relation>,
}

impl Weaver {
    /// A pipeline with the paper-reproducing defaults
    /// (execution-aware equivalence, cooperation-first removal order).
    pub fn new() -> Weaver {
        Weaver::default()
    }

    /// Opens a re-weave session around this configuration: each
    /// [`crate::reweave::WeaveSession::weave`] call runs the full pipeline
    /// and diffs the result against the session's previous weave.
    pub fn session(&self) -> crate::reweave::WeaveSession {
        crate::reweave::WeaveSession::new(self.clone())
    }

    /// Runs the full specification-and-optimization pipeline.
    ///
    /// The merge numbers the set as it builds it, and execution
    /// conditions, translation and minimization run on that numbering;
    /// the output sets share the merged set's names. The execution
    /// conditions keep the numbering's ids. [`merge`](crate::merge::merge)
    /// lowers every dependency
    /// to a HappenBefore relation, so there is no HappenTogether sugar to
    /// desugar. A merged set that fails [`ConstraintSet::validate`] is
    /// reported with validate's error list.
    pub fn run(&self, ds: &DependencySet) -> Result<WeaverOutput, WeaverError> {
        self.run_numbered(ds).map(|(out, _)| out)
    }

    /// [`Weaver::run`], also returning the numbering of the output's ASC.
    pub(crate) fn run_numbered(
        &self,
        ds: &DependencySet,
    ) -> Result<(WeaverOutput, Numbering), WeaverError> {
        let _span = obs::span("weaver.run");
        let merge_span = obs::span_with("weaver.merge", || {
            format!("dependencies={}", ds.deps.len())
        });
        let (sc, num) = merge_numbered(ds);
        if num.has_problems() {
            return Err(WeaverError::Validation(sc.validate()));
        }
        drop(merge_span);
        let (exec, exec_dnfs) = {
            let _span = obs::span("weaver.exec_conditions");
            let dnfs = derive_ids(&num);
            (ExecConditions::pack(&num, &dnfs), dnfs)
        };
        // Without services the ASC is the SC itself and shares its
        // numbering; translation drops the services, so a translated ASC
        // is numbered afresh (activities and guards keep their ids).
        let (asc, translation) = {
            let _span = obs::span("weaver.translate");
            if sc.services.is_empty() {
                (None, TranslationReport::default())
            } else {
                let (asc, report) = translate_numbered(&sc, &num);
                (Some(asc), report)
            }
        };
        let asc_num = match &asc {
            Some(asc) => Numbering::new(asc),
            None => num,
        };
        let MinimizeResult {
            minimal, removed, ..
        } = minimize_numbered(
            asc.as_ref().unwrap_or(&sc),
            &asc_num,
            &exec_dnfs,
            self.mode,
            &self.order,
        )
        .map_err(WeaverError::Conflict)?;
        let sc = Arc::new(sc);
        let asc = asc.map_or_else(|| Arc::clone(&sc), Arc::new);
        let out = WeaverOutput {
            sc,
            exec,
            asc,
            translation,
            minimal,
            removed,
        };
        Ok((out, asc_num))
    }
}

impl WeaverOutput {
    /// A deterministic digest of the ASC relations and the removed
    /// relations, which together fix the minimal set. Equal for equal
    /// weaves; the value is a per-build digest with no meaning across
    /// builds of the library.
    pub fn fingerprint(&self) -> u64 {
        let mut h = FxHasher::default();
        self.asc.relations.hash(&mut h);
        self.removed.hash(&mut h);
        h.finish()
    }

    /// Total constraints removed relative to the original merged set —
    /// the headline number of Table 2 ("23 constraints removed").
    pub fn total_removed(&self) -> usize {
        self.sc.constraint_count() - self.minimal.constraint_count()
    }

    /// A witness per removed constraint: the surviving path that covers
    /// it (see [`crate::witness`]).
    pub fn explain_removals(&self) -> Vec<crate::witness::RemovalWitness> {
        crate::witness::explain_removals(&self.minimal, &self.removed, &self.exec)
    }

    /// Renders the paper's Table 2: constraint counts per dimension before
    /// (the merged SC of Table 1) and after optimization.
    pub fn render_table2(&self) -> String {
        let before = self.sc.counts_by_origin();
        let after = self.minimal.counts_by_origin();
        let mut out = String::new();
        out.push_str(&format!(
            "Table 2. Constraints before and after dependency inference ({})\n",
            self.sc.name
        ));
        out.push_str(&format!("{:-<52}\n", ""));
        out.push_str(&format!("{:<14}{:>10}{:>10}\n", "dimension", "before", "after"));
        let dims = [
            Origin::Data,
            Origin::Control,
            Origin::Cooperation,
            Origin::Service,
            Origin::Translated,
            Origin::Coordinator,
            Origin::Other,
        ];
        for o in dims {
            let b = before.get(&o).copied().unwrap_or(0);
            let a = after.get(&o).copied().unwrap_or(0);
            if b == 0 && a == 0 {
                continue;
            }
            out.push_str(&format!("{:<14}{:>10}{:>10}\n", o.to_string(), b, a));
        }
        out.push_str(&format!("{:-<52}\n", ""));
        out.push_str(&format!(
            "{:<14}{:>10}{:>10}   ({} removed)\n",
            "total",
            self.sc.constraint_count(),
            self.minimal.constraint_count(),
            self.total_removed()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dependency::Dependency;

    fn small_ds() -> DependencySet {
        let mut ds = DependencySet::new("Small");
        for a in ["a", "g", "b", "rec"] {
            ds.add_activity(a);
        }
        ds.add_service("Svc");
        ds.add_service("Svc_d");
        ds.add_domain("g", vec!["T".into(), "F".into()]);
        ds.push(Dependency::data("a", "g"));
        ds.push(Dependency::control("g", "b", "T"));
        ds.push(Dependency::data("a", "b")); // redundant under exec-awareness
        ds.push(Dependency::service("b", "Svc"));
        ds.push(Dependency::service("Svc", "Svc_d"));
        ds.push(Dependency::service("Svc_d", "rec"));
        ds.push(Dependency::cooperation("b", "rec")); // dup of the bridge
        ds
    }

    #[test]
    fn full_pipeline_stages() {
        let out = Weaver::new().run(&small_ds()).unwrap();
        assert_eq!(out.sc.constraint_count(), 7);
        // Translation drops 3 service relations, adds 1 bridge (b → rec)
        // ... which duplicates the cooperation dep, so the bridge is
        // skipped and the cooperation relation remains.
        assert_eq!(out.asc.constraint_count(), 4);
        // Execution-aware minimization keeps a → b: removing it would leave
        // only the T-guarded path a → g →[T] b, but `rec` (downstream of b)
        // executes unconditionally, so the ordering a-before-rec would be
        // lost in g=F runs unless the scheduler totally orders skip events
        // (see EquivalenceMode::Reachability).
        assert_eq!(out.minimal.constraint_count(), 4);
        assert_eq!(out.total_removed(), 3);
        assert!(out.minimal.validate().is_empty());
    }

    #[test]
    fn reachability_mode_removes_more() {
        let weaver = Weaver {
            mode: EquivalenceMode::Reachability,
            ..Weaver::default()
        };
        let out = weaver.run(&small_ds()).unwrap();
        // Under full dead-path elimination, a → b is covered by the guarded
        // path (skip events propagate in order).
        assert_eq!(out.minimal.constraint_count(), 3);
    }

    #[test]
    fn table2_rendering() {
        let out = Weaver::new().run(&small_ds()).unwrap();
        let t2 = out.render_table2();
        assert!(t2.contains("before"));
        assert!(t2.contains("(3 removed)"), "{t2}");
        assert!(t2.contains("service"), "{t2}");
    }

    #[test]
    fn validation_failure_reported() {
        let mut ds = DependencySet::new("bad");
        ds.add_activity("a");
        ds.push(Dependency::data("a", "ghost"));
        let err = Weaver::new().run(&ds).unwrap_err();
        assert!(matches!(err, WeaverError::Validation(_)));
        assert!(err.to_string().contains("ghost"));
    }

    #[test]
    fn conflict_reported() {
        let mut ds = DependencySet::new("cyc");
        ds.add_activity("a");
        ds.add_activity("b");
        ds.push(Dependency::data("a", "b"));
        ds.push(Dependency::cooperation("b", "a"));
        let err = Weaver::new().run(&ds).unwrap_err();
        assert!(matches!(err, WeaverError::Conflict(_)));
    }

    #[test]
    fn strict_mode_keeps_more() {
        let weaver_strict = Weaver {
            mode: EquivalenceMode::Strict,
            ..Weaver::default()
        };
        let strict = weaver_strict.run(&small_ds()).unwrap();
        let aware = Weaver::new().run(&small_ds()).unwrap();
        assert!(strict.minimal.constraint_count() >= aware.minimal.constraint_count());
    }
}
