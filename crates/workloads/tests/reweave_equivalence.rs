//! Property tests for the re-weave session: across random edit bursts
//! (inserts, deletes, guard flips) on every workload shape, a
//! `WeaveSession` fed revision after revision must be **bit-identical** to
//! a from-scratch `Weaver::run` of each revision — same kept edges, same
//! removed constraints, same errors — with the ignored `threads` field
//! at 1 and 8, and its fingerprints must not depend on that field.

use dscweaver_core::{
    Dependency, DependencySet, ReweavePath, Weaver, WeaverOutput,
};
use dscweaver_prng::Rng;
use dscweaver_workloads::{
    dense_conditional, edit_burst, fork_join, layered, loan_dependencies,
    purchasing_dependencies, service_mesh, DenseConditionalParams, EditProfile, LayeredParams,
};

#[path = "../../core/tests/oracle/mod.rs"]
mod oracle;

fn rendered(out: &WeaverOutput) -> (Vec<String>, Vec<String>) {
    let mut kept: Vec<String> = out
        .minimal
        .happen_befores()
        .map(|r| format!("{r} [{}]", r.origin()))
        .collect();
    kept.sort();
    let removed: Vec<String> = out.removed.iter().map(|r| r.to_string()).collect();
    (kept, removed)
}

/// Builds the revision sequence once (deterministic in `seed`), then runs
/// it through a session per `threads` setting, pinning every revision against
/// a fresh weave and the fingerprints against each other.
fn check_shape(base: DependencySet, seed: u64, bursts: &[usize], profile: EditProfile) {
    let mut revisions = vec![base.clone()];
    let mut ds = base;
    let mut rng = Rng::seed_from_u64(seed);
    for &size in bursts {
        edit_burst(&mut ds, &mut rng, size, profile);
        revisions.push(ds.clone());
    }

    let mut fingerprints: Option<Vec<Option<u64>>> = None;
    let mut delta_seen = false;
    for threads in [1usize, 8] {
        let weaver = Weaver {
            threads,
            ..Weaver::default()
        };
        let mut session = weaver.session();
        let mut fps: Vec<Option<u64>> = Vec::new();
        for (i, rev) in revisions.iter().enumerate() {
            let fresh = weaver.run(rev);
            match session.weave(rev) {
                Ok(rep) => {
                    let fresh = fresh.unwrap_or_else(|e| {
                        panic!("rev {i} (threads={threads}): session ok, fresh err {e}")
                    });
                    let out = session.output().expect("output after ok weave");
                    assert_eq!(
                        rendered(out),
                        rendered(&fresh),
                        "rev {i} threads={threads} path={:?} diff={:?}",
                        rep.path,
                        rep.diff
                    );
                    delta_seen |= rep.path == ReweavePath::Delta;
                    fps.push(Some(rep.fingerprint));
                }
                Err(e) => {
                    let fe = fresh.expect_err("session err but fresh ok");
                    assert_eq!(
                        e.to_string(),
                        fe.to_string(),
                        "rev {i} threads={threads}: errors must match"
                    );
                    fps.push(None);
                }
            }
        }
        match &fingerprints {
            None => fingerprints = Some(fps),
            Some(prev) => assert_eq!(
                prev, &fps,
                "threads={threads}: the ignored threads field changed a fingerprint"
            ),
        }
    }
    assert!(delta_seen, "no revision exercised the delta path");
}

#[test]
fn layered_level_stable_bursts() {
    for seed in [5u64, 23] {
        let base = layered(&LayeredParams {
            width: 4,
            depth: 8,
            density: 0.3,
            redundant: 30,
            guards: 2,
            seed,
        });
        check_shape(base, seed * 7 + 1, &[1, 2, 4, 3], EditProfile::LevelStable);
    }
}

#[test]
fn layered_mixed_bursts() {
    for seed in [9u64, 41] {
        let base = layered(&LayeredParams {
            width: 4,
            depth: 7,
            density: 0.35,
            redundant: 25,
            guards: 3,
            seed,
        });
        check_shape(base, seed * 13 + 2, &[2, 3, 1, 4], EditProfile::Mixed);
    }
}

#[test]
fn fork_join_bursts() {
    let base = fork_join(4, 6, 20, 31);
    check_shape(base.clone(), 101, &[1, 3, 2], EditProfile::LevelStable);
    check_shape(base, 103, &[2, 2, 3], EditProfile::Mixed);
}

#[test]
fn dense_conditional_bursts() {
    let base = dense_conditional(&DenseConditionalParams::default());
    check_shape(base.clone(), 211, &[1, 2, 2], EditProfile::LevelStable);
    check_shape(base, 223, &[3, 1, 2], EditProfile::Mixed);
}

/// A cycle-creating edit (merging the chain into one SCC) must produce
/// the exact error a fresh weave produces and leave the session's last
/// output intact; reverting the edit re-weaves to the same fingerprint.
#[test]
fn scc_merge_errors_then_recovers() {
    let mut ds = DependencySet::new("scc");
    for a in ["a", "b", "c", "d"] {
        ds.add_activity(a);
    }
    ds.push(Dependency::data("a", "b"));
    ds.push(Dependency::data("b", "c"));
    ds.push(Dependency::data("c", "d"));
    ds.push(Dependency::cooperation("a", "c"));

    let mut session = Weaver::new().session();
    let fp0 = session.weave(&ds).unwrap().fingerprint;

    // Merge {b, c, d} into one SCC: must fail exactly like a fresh run.
    let mut bad = ds.clone();
    bad.push(Dependency::cooperation("d", "b"));
    let err = session.weave(&bad).unwrap_err();
    let fresh_err = Weaver::new().run(&bad).unwrap_err();
    assert_eq!(err.to_string(), fresh_err.to_string());
    assert!(session.output().is_some(), "state must survive the error");

    // Revert (splitting the SCC back apart).
    let rep = session.weave(&ds).unwrap();
    assert_eq!(rep.path, ReweavePath::Delta);
    assert!(rep.diff.is_empty());
    assert_eq!(rep.fingerprint, fp0);

    // And the session keeps weaving later edits.
    let mut v2 = ds.clone();
    v2.push(Dependency::cooperation("b", "d"));
    let rep = session.weave(&v2).unwrap();
    assert_eq!(rep.path, ReweavePath::Delta);
    let fresh = Weaver::new().run(&v2).unwrap();
    assert_eq!(
        rendered(session.output().unwrap()),
        rendered(&fresh)
    );
}

/// `Weaver::run` on the numbered set equals the string composition (see
/// `oracle`) stage by stage — SC, execution conditions, ASC, minimal
/// set, removed relations in order, fingerprint — in every mode and
/// order, on seeded layered, dense-conditional and fork-join sets and on
/// their edited revisions.
#[test]
fn weave_matches_string_composition_on_seeded_workloads() {
    for seed in [5u64, 23] {
        let mut ds = layered(&LayeredParams {
            width: 3,
            depth: 6,
            density: 0.35,
            redundant: 15,
            guards: 2,
            seed,
        });
        oracle::assert_weave_matches_everywhere(&ds);
        edit_burst(&mut ds, &mut Rng::seed_from_u64(seed), 3, EditProfile::Mixed);
        oracle::assert_weave_matches_everywhere(&ds);
    }
    oracle::assert_weave_matches_everywhere(&dense_conditional(&DenseConditionalParams {
        guards: 3,
        chain_len: 3,
        redundant: 12,
        seed: 29,
    }));
    oracle::assert_weave_matches_everywhere(&fork_join(3, 4, 10, 37));
}

/// Services (Purchasing, a service mesh) and a three-valued guard
/// domain (the loan process).
#[test]
fn weave_matches_string_composition_with_services_and_wide_domains() {
    oracle::assert_weave_matches_everywhere(&purchasing_dependencies());
    oracle::assert_weave_matches_everywhere(&service_mesh(3, 4));
    oracle::assert_weave_matches_everywhere(&loan_dependencies());
}

/// Undeclared names, guards and values, a name declared both as an
/// activity and a service, and cyclic sets fail with the error list and
/// conflict cycle of the string composition.
#[test]
fn weave_errors_match_string_composition() {
    let base = || {
        let mut ds = DependencySet::new("bad");
        for a in ["a", "g", "b"] {
            ds.add_activity(a);
        }
        ds.add_domain("g", vec!["T".into(), "F".into()]);
        ds.push(Dependency::data("a", "g"));
        ds.push(Dependency::control("g", "b", "T"));
        ds
    };
    let mut bads = Vec::new();
    let mut ds = base();
    ds.push(Dependency::data("a", "ghost"));
    ds.push(Dependency::data("phantom", "b"));
    bads.push(ds);
    let mut ds = base();
    ds.push(Dependency::control("a", "b", "T")); // a has no domain
    bads.push(ds);
    let mut ds = base();
    ds.push(Dependency::control("g", "b", "MAYBE"));
    ds.push(Dependency::control("g", "a", "T"));
    bads.push(ds);
    let mut ds = base();
    ds.add_service("b");
    bads.push(ds);
    let mut ds = base();
    ds.push(Dependency::cooperation("b", "a"));
    bads.push(ds);
    let mut ds = base();
    ds.add_service("Svc");
    ds.push(Dependency::service("b", "Svc"));
    ds.push(Dependency::service("Svc", "g"));
    bads.push(ds);
    for ds in &bads {
        assert!(Weaver::new().run(ds).is_err());
        oracle::assert_weave_matches_everywhere(ds);
    }
}
