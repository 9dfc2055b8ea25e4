//! Re-weave under evolution (§1: adding or deleting a constraint is a set
//! edit, then a re-weave).
//!
//! A [`WeaveSession`] is a [`Weaver`] plus the output of its last
//! successful weave and that weave's ASC numbering. Every
//! [`WeaveSession::weave`] call runs [`Weaver::run`] on the revision and
//! diffs the new ASC against the previous one on ids ([`crate::diff`]),
//! so the session's results are those of a fresh weave by construction.

use crate::dependency::DependencySet;
use crate::diff::{diff_numbered, ConstraintDiff};
use crate::number::Numbering;
use crate::pipeline::{Weaver, WeaverError, WeaverOutput};
use dscweaver_obs as obs;

/// A weaver that remembers its last successful output, so each revision
/// is reported together with its diff against the previous one.
#[derive(Clone)]
pub struct WeaveSession {
    weaver: Weaver,
    output: Option<WeaverOutput>,
    /// The numbering of `output`'s ASC.
    asc: Numbering,
}

/// How one [`WeaveSession::weave`] call relates to the session's history.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReweavePath {
    /// First successful weave of the session.
    Initial,
    /// Woven after an earlier successful weave; the report's diff is
    /// against that weave's ASC.
    Delta,
}

/// What one weave through a session produced.
#[derive(Clone, Debug)]
pub struct ReweaveReport {
    /// Whether an earlier successful weave preceded this one.
    pub path: ReweavePath,
    /// ASC-level diff against the previous weave (empty on the first).
    pub diff: ConstraintDiff,
    /// [`WeaverOutput::fingerprint`] of this weave's output.
    pub fingerprint: u64,
}

impl WeaveSession {
    /// A fresh session around the given pipeline configuration.
    pub fn new(weaver: Weaver) -> WeaveSession {
        WeaveSession {
            weaver,
            output: None,
            asc: Numbering::default(),
        }
    }

    /// The configuration this session weaves with.
    pub fn config(&self) -> &Weaver {
        &self.weaver
    }

    /// The output of the last successful weave, if any. Failed weaves
    /// (validation errors, conflicts) leave the previous output intact.
    pub fn output(&self) -> Option<&WeaverOutput> {
        self.output.as_ref()
    }

    /// Weaves `ds` from scratch and diffs its ASC against the previous
    /// successful weave. A failure returns the same error as
    /// [`Weaver::run`] and keeps the previous output.
    pub fn weave(&mut self, ds: &DependencySet) -> Result<ReweaveReport, WeaverError> {
        let _span = obs::span_with("reweave", || ds.name.clone());
        let (output, asc) = self.weaver.run_numbered(ds)?;
        let (path, diff) = match &self.output {
            None => (ReweavePath::Initial, ConstraintDiff::default()),
            Some(_) => {
                let _span = obs::span("reweave.diff");
                (ReweavePath::Delta, diff_numbered(&self.asc, &asc))
            }
        };
        let fingerprint = output.fingerprint();
        self.output = Some(output);
        self.asc = asc;
        Ok(ReweaveReport {
            path,
            diff,
            fingerprint,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dependency::Dependency;

    fn base() -> DependencySet {
        let mut ds = DependencySet::new("evolve");
        for a in ["a", "g", "b", "c", "d"] {
            ds.add_activity(a);
        }
        ds.add_domain("g", vec!["T".into(), "F".into()]);
        ds.push(Dependency::data("a", "g"));
        ds.push(Dependency::control("g", "b", "T"));
        ds.push(Dependency::control("g", "c", "F"));
        ds.push(Dependency::data("b", "d"));
        ds.push(Dependency::data("c", "d"));
        ds.push(Dependency::data("a", "b")); // redundant under exec-awareness
        ds.push(Dependency::cooperation("a", "d")); // shortcut
        ds
    }

    fn rendered(out: &WeaverOutput) -> (String, Vec<String>) {
        let mut kept: Vec<String> = out
            .minimal
            .happen_befores()
            .map(|r| format!("{r} [{}]", r.origin()))
            .collect();
        kept.sort();
        (
            kept.join("\n"),
            out.removed.iter().map(|r| r.to_string()).collect(),
        )
    }

    fn assert_matches_fresh(session: &WeaveSession, ds: &DependencySet) {
        let fresh = session.weaver.run(ds).expect("fresh weave");
        let out = session.output().expect("session output");
        assert_eq!(rendered(out), rendered(&fresh));
    }

    #[test]
    fn initial_weave_matches_run() {
        let mut s = Weaver::new().session();
        let rep = s.weave(&base()).unwrap();
        assert_eq!(rep.path, ReweavePath::Initial);
        assert!(rep.diff.is_empty());
        assert_matches_fresh(&s, &base());
    }

    #[test]
    fn identity_reweave_is_pure_replay() {
        let mut s = Weaver::new().session();
        let rep0 = s.weave(&base()).unwrap();
        let rep1 = s.weave(&base()).unwrap();
        assert_eq!(rep1.path, ReweavePath::Delta);
        assert!(rep1.diff.is_empty());
        assert_eq!(rep1.fingerprint, rep0.fingerprint);
        assert_matches_fresh(&s, &base());
    }

    #[test]
    fn edit_takes_delta_path_and_matches_fresh() {
        let mut s = Weaver::new().session();
        s.weave(&base()).unwrap();
        let mut v2 = base();
        v2.push(Dependency::cooperation("b", "d"));
        let rep = s.weave(&v2).unwrap();
        assert_eq!(rep.path, ReweavePath::Delta, "{:?}", rep.diff);
        assert_matches_fresh(&s, &v2);
        // And back to v1 (edge delete).
        let rep = s.weave(&base()).unwrap();
        assert_eq!(rep.path, ReweavePath::Delta);
        assert_matches_fresh(&s, &base());
    }

    #[test]
    fn cycle_edit_errors_and_preserves_state() {
        let mut s = Weaver::new().session();
        s.weave(&base()).unwrap();
        let fp = s.weave(&base()).unwrap().fingerprint;
        let mut bad = base();
        bad.push(Dependency::cooperation("d", "a"));
        let err = s.weave(&bad).unwrap_err();
        let fresh_err = Weaver::new().run(&bad).unwrap_err();
        assert_eq!(err.to_string(), fresh_err.to_string());
        // Session survives and still serves the last good revision.
        assert!(s.output().is_some());
        let rep = s.weave(&base()).unwrap();
        assert_eq!(rep.path, ReweavePath::Delta);
        assert!(rep.diff.is_empty());
        assert_eq!(rep.fingerprint, fp);
    }

    #[test]
    fn activity_change_reweave_matches_fresh() {
        let mut s = Weaver::new().session();
        s.weave(&base()).unwrap();
        let mut v2 = base();
        v2.add_activity("z");
        v2.push(Dependency::data("d", "z"));
        let rep = s.weave(&v2).unwrap();
        assert_eq!(rep.path, ReweavePath::Delta);
        assert_eq!(rep.diff.added_activities, vec!["z".to_string()]);
        assert_matches_fresh(&s, &v2);
        let mut v3 = v2.clone();
        v3.push(Dependency::cooperation("b", "d"));
        let rep = s.weave(&v3).unwrap();
        assert_eq!(rep.path, ReweavePath::Delta);
        assert_matches_fresh(&s, &v3);
    }

    #[test]
    fn guard_flip_reweaves_and_matches() {
        let mut s = Weaver::new().session();
        s.weave(&base()).unwrap();
        // Flip the g → c guard: changes exec conditions AND an edge guard.
        let mut v2 = base();
        for d in &mut v2.deps {
            if d.from.name == "g" && d.to.name == "c" {
                d.kind = crate::dependency::DependencyKind::Control {
                    value: Some("T".into()),
                };
            }
        }
        let rep = s.weave(&v2).unwrap();
        assert_eq!(rep.path, ReweavePath::Delta, "{:?}", rep.diff);
        assert!(!rep.diff.annotation_changed.is_empty(), "{:?}", rep.diff);
        assert_matches_fresh(&s, &v2);
    }
}
