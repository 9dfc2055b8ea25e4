//! Property tests for the re-weave session: across random edit bursts
//! (inserts, deletes, guard flips) on every workload shape, a
//! `WeaveSession` fed revision after revision must be **bit-identical** to
//! a from-scratch `Weaver::run` of each revision — same kept edges, same
//! removed constraints, same errors — with the ignored `threads` field
//! at 1 and 8, and its fingerprints must not depend on that field.

use dscweaver_core::{
    diff_constraint_sets, Dependency, DependencySet, ReweavePath, Weaver, WeaverOutput,
};
use dscweaver_dscl::ConstraintSet;
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

/// `diff_constraint_sets` (on ids) against the string diff of `oracle`,
/// every field in order, both directions.
fn assert_diff_matches(old: &ConstraintSet, new: &ConstraintSet, what: &str) {
    for (a, b, dir) in [(old, new, "forward"), (new, old, "backward")] {
        assert_eq!(
            diff_constraint_sets(a, b),
            oracle::diff::diff(a, b),
            "{what} ({dir})"
        );
    }
}

/// Seeded edit bursts under every profile: each revision's SC and ASC
/// diffed against the previous revision's, and every session report's
/// diff against the string diff of the two ASCs.
#[test]
fn id_diff_matches_string_diff_on_seeded_bursts() {
    let shapes = [
        (
            "layered",
            layered(&LayeredParams {
                width: 4,
                depth: 8,
                density: 0.3,
                redundant: 30,
                guards: 3,
                seed: 17,
            }),
        ),
        ("dense_conditional", dense_conditional(&DenseConditionalParams::default())),
        ("service_mesh", service_mesh(3, 4)),
        ("purchasing", purchasing_dependencies()),
        ("fork_join", fork_join(4, 6, 20, 31)),
    ];
    for (shape, base) in shapes {
        for profile in [EditProfile::LevelStable, EditProfile::Mixed] {
            let mut rng = Rng::seed_from_u64(0x5eed ^ shape.len() as u64);
            let mut ds = base.clone();
            let mut session = Weaver::new().session();
            let mut prev: Option<WeaverOutput> = None;
            for (i, size) in [0usize, 1, 2, 4, 1, 16, 3].into_iter().enumerate() {
                edit_burst(&mut ds, &mut rng, size, profile);
                let what = format!("{shape} {profile:?} rev {i}");
                let Ok(rep) = session.weave(&ds) else {
                    continue;
                };
                let out = session.output().expect("woven").clone();
                if let Some(prev) = &prev {
                    assert_eq!(rep.diff, oracle::diff::diff(&prev.asc, &out.asc), "{what}: session");
                    assert_diff_matches(&prev.asc, &out.asc, &format!("{what}: ASC"));
                    assert_diff_matches(&prev.sc, &out.sc, &format!("{what}: SC"));
                    assert_diff_matches(&prev.minimal, &out.minimal, &format!("{what}: minimal"));
                }
                prev = Some(out);
            }
        }
    }
}

/// Hand-made edits: an activity added and removed (still named by a
/// relation, so undeclared), a guard flip, a domain edit, an exclusive
/// edit, a duplicated relation, services, and unrelated sets.
#[test]
fn id_diff_matches_string_diff_on_hand_cases() {
    use dscweaver_dscl::{Condition, Origin, Relation, StateRef};
    let base = || {
        let mut cs = ConstraintSet::new("hand");
        for a in ["a", "g", "x", "y", "z"] {
            cs.add_activity(a);
        }
        cs.add_domain("g", vec!["T".into(), "F".into()]);
        cs.push(Relation::before(StateRef::finish("a"), StateRef::start("g"), Origin::Data));
        cs.push(Relation::before_if(
            StateRef::finish("g"),
            StateRef::start("x"),
            Condition::new("g", "T"),
            Origin::Control,
        ));
        cs.push(Relation::before_if(
            StateRef::finish("g"),
            StateRef::start("y"),
            Condition::new("g", "F"),
            Origin::Control,
        ));
        cs.push(Relation::before(StateRef::finish("x"), StateRef::start("z"), Origin::Data));
        cs.push(Relation::before(StateRef::finish("y"), StateRef::start("z"), Origin::Data));
        cs
    };
    let mut cases: Vec<(&str, ConstraintSet)> = Vec::new();
    let mut cs = base();
    cs.add_activity("w");
    cs.push(Relation::before(StateRef::finish("z"), StateRef::start("w"), Origin::Cooperation));
    cases.push(("activity added", cs));
    let mut cs = base();
    cs.activities.remove("z");
    cases.push(("activity removed, still named", cs));
    let mut cs = base();
    if let Relation::HappenBefore { cond, .. } = &mut cs.relations[2] {
        *cond = Some(Condition::new("g", "T"));
    }
    cases.push(("guard flip", cs));
    let mut cs = base();
    cs.domains.insert("g".into(), vec!["T".into(), "F".into(), "M".into()]);
    cs.domains.insert("k".into(), vec!["on".into()]);
    cases.push(("domain edit", cs));
    let mut cs = base();
    cs.domains.clear();
    cases.push(("domain dropped", cs));
    let mut cs = base();
    cs.push(Relation::Exclusive {
        a: StateRef::run("y"),
        b: StateRef::run("x"),
        origin: Origin::Other,
    });
    cases.push(("exclusive added", cs));
    let mut cs = base();
    cs.push(Relation::before(StateRef::finish("x"), StateRef::start("z"), Origin::Cooperation));
    cases.push(("duplicate relation", cs));
    let mut cs = base();
    cs.relations.reverse();
    cases.push(("reordered", cs));
    let mut cs = base();
    cs.add_service("Svc");
    cs.add_service("x");
    cs.push(Relation::before(StateRef::finish("a"), StateRef::start("Svc"), Origin::Service));
    cs.push(Relation::before_if(
        StateRef::finish("ghost"),
        StateRef::start("Svc"),
        Condition::new("ghost", "on"),
        Origin::Control,
    ));
    cases.push(("services and undeclared names", cs));
    let mut cs = ConstraintSet::new("other");
    for a in ["p", "q", "g"] {
        cs.add_activity(a);
    }
    cs.push(Relation::before(StateRef::finish("p"), StateRef::start("q"), Origin::Data));
    cases.push(("unrelated", cs));
    // Large windows take the full comparison.
    let mut cs = base();
    for k in 0..40 {
        cs.relations.insert(0, Relation::before(StateRef::start("a"), StateRef::finish(&*format!("n{k}")), Origin::Data));
    }
    cases.push(("large window", cs));

    let mut excl = base();
    excl.push(Relation::Exclusive {
        a: StateRef::run("x"),
        b: StateRef::run("y"),
        origin: Origin::Other,
    });
    assert_diff_matches(&base(), &base(), "identity");
    for (what, cs) in &cases {
        assert_diff_matches(&base(), cs, what);
        assert_diff_matches(&excl, cs, &format!("{what} vs exclusive"));
    }
    for (i, (w1, a)) in cases.iter().enumerate() {
        for (w2, b) in &cases[i + 1..] {
            assert_diff_matches(a, b, &format!("{w1} vs {w2}"));
        }
    }
}
