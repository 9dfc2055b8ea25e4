//! Allocation budget of the weave.
//!
//! A counting global allocator tallies heap allocations (`alloc`,
//! `alloc_zeroed` and `realloc`) on a thread-local counter, so tests
//! running in parallel on other threads do not disturb a count. Each
//! budget runs its workload once to warm up (lazy statics, span
//! registries), then counts one more run and checks it against a ceiling:
//! the count measured when the ceiling was set plus 10%.
//!
//! The workload is the `weave_offline` job of the benchmark: a seeded
//! `layered` process with n = 403 activities, woven in a session,
//! validated and scheduled through the compiled engines, then re-woven
//! after one level-stable edit. One more budget weaves the same shape
//! without guards, so every constraint is unconditional.

use dscweaver::core::minimize::{minimize, EdgeOrder, EquivalenceMode};
use dscweaver::core::{DependencySet, ExecConditions, WeaveSession, Weaver};
use dscweaver::dscl::{Name, Relation};
use dscweaver::petri::{CompiledValidation, ValidateOptions};
use dscweaver::scheduler::{PreparedSchedule, ScheduleTables, SimConfig};
use dscweaver::workloads::{edit_burst, layered, EditProfile, LayeredParams};
use dscweaver_prng::Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the counter may already be gone while a thread exits.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's guarantees are exactly the ones `System` needs; counting
// touches only a const-initialised thread-local `Cell`, which never
// allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread makes while running `f`.
fn count<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.with(Cell::get);
    let r = f();
    (r, ALLOCS.with(Cell::get) - before)
}

/// The benchmark's n = 403 process, with three guards.
fn process(seed: u64) -> DependencySet {
    process_with_guards(3, seed)
}

/// The benchmark's n = 403 process shape with `guards` guards (none:
/// every constraint is unconditional).
fn process_with_guards(guards: usize, seed: u64) -> DependencySet {
    layered(&LayeredParams {
        width: 8,
        depth: 50,
        density: 0.25,
        redundant: 400,
        guards,
        seed,
    })
}

fn weaver() -> Weaver {
    Weaver {
        threads: 1,
        ..Weaver::new()
    }
}

/// One `weave_offline` job, dropped at the end.
fn job(ds: &DependencySet, edited: &DependencySet) {
    let mut session: WeaveSession = weaver().session();
    session.weave(ds).expect("weaves");
    let out = session.output().expect("woven");
    let report = CompiledValidation::compile(&out.minimal, &out.exec).run(&ValidateOptions {
        threads: 1,
        ..Default::default()
    });
    assert!(report.ok());
    let tables = ScheduleTables::derive(&out.minimal, &out.exec);
    let schedule =
        PreparedSchedule::with_tables(&out.minimal, &out.exec, &tables).run(&SimConfig {
            threads: 1,
            ..Default::default()
        });
    assert!(schedule.completed());
    drop((schedule, tables, report));
    session.weave(edited).expect("re-weaves");
    drop(session);
}

/// `Weaver::run` on the n = 403 process: 18,521 allocations before the
/// weave shared its names, 8,269 after, 7,578 once execution conditions
/// stopped cloning, 1,632 once graphs, closure rows and the closure
/// sweep's levels were stored flat, 1,133 once the merge numbered the set
/// and execution conditions were kept as shared id rows.
const WEAVE_CEILING: u64 = 1_246;

/// `Weaver::run` on the n = 403 process without guards: 3,381
/// allocations while unconditional sets took a transitive-reduction path
/// (one closure bitset per node), 951 on the one engine, 553 once an
/// activity without control parents stopped allocating its *always*.
const UNCONDITIONAL_WEAVE_CEILING: u64 = 608;

/// The public `minimize` on the woven n = 403 ASC (numbering and
/// execution-condition ids included): 6,569 allocations while every
/// graph node held two edge lists and every closure row its own bitsets,
/// 623 after.
const MINIMIZE_CEILING: u64 = 685;

/// `ExecConditions::derive` on the merged n = 403 set: 1,454 allocations
/// while the derivation cloned a DNF per memo hit and per stored result,
/// 763 while it kept a string-keyed DNF per conditional activity, 258 with
/// one id row per distinct condition.
const EXEC_CEILING: u64 = 283;

/// The whole job: 38,802 allocations before the names were shared,
/// 16,722 after, 15,340 with execution conditions uncloned, 3,502 with
/// flat graphs and closure rows, 2,589 with one numbering from the merge
/// to the executors and the re-weave diff.
const JOB_CEILING: u64 = 2_847;

/// `CompiledValidation::compile` plus `ScheduleTables::derive` on the
/// woven n = 403 minimal set: 264 allocations while each keyed its own
/// string map, 347 once each resolves the set onto ids (the numbering's
/// tables, the translated execution rows and the name ranks).
const COMPILE_CEILING: u64 = 381;

#[test]
fn weave_stays_under_its_allocation_ceiling() {
    let ds = process(31);
    let w = weaver();
    drop(w.run(&ds).expect("weaves"));
    let (out, n) = count(|| w.run(&ds).expect("weaves"));
    drop(out);
    eprintln!("Weaver::run allocations: {n}");
    assert!(
        n <= WEAVE_CEILING,
        "Weaver::run made {n} allocations (ceiling {WEAVE_CEILING})"
    );
}

#[test]
fn unconditional_weave_stays_under_its_allocation_ceiling() {
    let ds = process_with_guards(0, 31);
    let w = weaver();
    let out = w.run(&ds).expect("weaves");
    let unconditional = |r: &Relation| matches!(r, Relation::HappenBefore { cond: None, .. });
    assert!(out.asc.happen_befores().all(unconditional));
    drop(out);
    let (out, n) = count(|| w.run(&ds).expect("weaves"));
    drop(out);
    eprintln!("unconditional Weaver::run allocations: {n}");
    assert!(
        n <= UNCONDITIONAL_WEAVE_CEILING,
        "Weaver::run made {n} allocations (ceiling {UNCONDITIONAL_WEAVE_CEILING})"
    );
}

#[test]
fn exec_derive_stays_under_its_allocation_ceiling() {
    let out = weaver().run(&process(31)).expect("weaves");
    drop(ExecConditions::derive(&out.sc));
    let (exec, n) = count(|| ExecConditions::derive(&out.sc));
    drop(exec);
    eprintln!("ExecConditions::derive allocations: {n}");
    assert!(
        n <= EXEC_CEILING,
        "ExecConditions::derive made {n} allocations (ceiling {EXEC_CEILING})"
    );
}

#[test]
fn minimize_stays_under_its_allocation_ceiling() {
    let out = weaver().run(&process(31)).expect("weaves");
    let run = || {
        minimize(
            &out.asc,
            &out.exec,
            EquivalenceMode::ExecutionAware,
            &EdgeOrder::default(),
        )
        .expect("minimizes")
    };
    drop(run());
    let (min, n) = count(run);
    assert_eq!(min.kept(), out.minimal.constraint_count());
    drop(min);
    eprintln!("minimize allocations: {n}");
    assert!(
        n <= MINIMIZE_CEILING,
        "minimize made {n} allocations (ceiling {MINIMIZE_CEILING})"
    );
}

#[test]
fn job_stays_under_its_allocation_ceiling() {
    let ds = process(32);
    let mut edited = ds.clone();
    let mut rng = Rng::seed_from_u64(32);
    assert_eq!(
        edit_burst(&mut edited, &mut rng, 1, EditProfile::LevelStable).len(),
        1
    );
    job(&ds, &edited);
    let ((), n) = count(|| job(&ds, &edited));
    eprintln!("weave_offline job allocations: {n}");
    assert!(
        n <= JOB_CEILING,
        "the job made {n} allocations (ceiling {JOB_CEILING})"
    );
}

#[test]
fn compile_and_derive_stay_under_their_allocation_ceiling() {
    let out = weaver().run(&process(31)).expect("weaves");
    let compile = || {
        (
            CompiledValidation::compile(&out.minimal, &out.exec),
            ScheduleTables::derive(&out.minimal, &out.exec),
        )
    };
    drop(compile());
    let (tables, n) = count(compile);
    drop(tables);
    eprintln!("compile + derive allocations: {n}");
    assert!(
        n <= COMPILE_CEILING,
        "compile + derive made {n} allocations (ceiling {COMPILE_CEILING})"
    );
}

#[test]
fn minimal_set_shares_the_merged_names() {
    let out = weaver().run(&process(33)).expect("weaves");
    let declared = |name: &Name| {
        let decl = out.sc.activities.get(name.as_str()).expect("declared");
        Name::ptr_eq(name, decl)
    };
    let mut ends = 0;
    for r in &out.minimal.relations {
        let Relation::HappenBefore { from, to, cond, .. } = r else {
            continue;
        };
        assert!(declared(&from.activity) && declared(&to.activity), "{r}");
        if let Some(c) = cond {
            assert!(declared(&c.on), "{r}");
            let (_, dom) = out.sc.domains.get_key_value(c.on.as_str()).expect("guard");
            assert!(dom.iter().any(|v| Name::ptr_eq(v, &c.value)), "{r}");
        }
        ends += 2;
    }
    assert!(ends > 0);
    // Without services the ASC is the SC itself.
    assert!(std::sync::Arc::ptr_eq(&out.sc, &out.asc));
}
