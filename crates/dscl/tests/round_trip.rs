//! DSCL text round trip of merged workload sets: printing a set whose
//! names are shared [`Name`](dscweaver_dscl::Name)s and parsing it back
//! gives an equal set.

use dscweaver_core::merge;
use dscweaver_dscl::{parse_constraints, ConstraintSet};
use dscweaver_workloads::{layered, purchasing_dependencies, LayeredParams};

fn round_trips(cs: &ConstraintSet) {
    let text = cs.to_dscl();
    let back = parse_constraints(&text).expect("printed DSCL parses");
    assert_eq!(&back, cs, "{text}");
    assert_eq!(back.to_dscl(), text);
}

#[test]
fn purchasing_set_round_trips() {
    let cs = merge(&purchasing_dependencies());
    assert!(!cs.services.is_empty() && !cs.domains.is_empty());
    round_trips(&cs);
}

#[test]
fn seeded_layered_sets_round_trip() {
    for seed in [3, 31, 403] {
        let cs = merge(&layered(&LayeredParams {
            width: 8,
            depth: 50,
            density: 0.25,
            redundant: 400,
            guards: 3,
            seed,
        }));
        assert_eq!(cs.activities.len(), 403);
        round_trips(&cs);
    }
}
