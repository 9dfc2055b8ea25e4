//! # dscweaver-scheduler
//!
//! The dataflow scheduling engine (§1: "dependencies are explicitly
//! modeled to guide activity scheduling") and its baselines:
//!
//! * [`engine`] — a discrete-event simulator executing constraint sets in
//!   virtual time, with dead-path elimination, Exclusive runtime checking
//!   (§4.2) and a constraint-check counter (the "maintenance cost" the
//!   optimization reduces). One compile → run path: [`ScheduleTables`]
//!   derives one constraint set's indexes once and
//!   [`PreparedSchedule::run`] replays them under different branch oracles
//!   (monitoring replay); [`simulate`] is the two in a row, and
//!   [`simulate_rescan_baseline`] is the oracle the wavefront is pinned to;
//! * [`constructs`] — the sequencing-construct baseline: Figure-2-style
//!   process structure converted to (over-specified) constraints, run on
//!   the same engine;
//! * [`trace`] — traces, metrics and post-hoc verification of *any*
//!   constraint set against a trace (the optimizer's correctness oracle).
//!
//! ```
//! use dscweaver_core::ExecConditions;
//! use dscweaver_dscl::{ConstraintSet, Origin, Relation, StateRef};
//! use dscweaver_scheduler::{simulate, PreparedSchedule, ScheduleTables, SimConfig};
//!
//! // a → b → c in series, unit durations.
//! let mut cs = ConstraintSet::new("chain");
//! for a in ["a", "b", "c"] {
//!     cs.add_activity(a);
//! }
//! cs.push(Relation::before(StateRef::finish("a"), StateRef::start("b"), Origin::Data));
//! cs.push(Relation::before(StateRef::finish("b"), StateRef::start("c"), Origin::Data));
//!
//! let exec = ExecConditions::derive(&cs);
//! let config = SimConfig::default();
//! // The one-shot entry point and a replay over cached tables agree bit
//! // for bit.
//! let fresh = simulate(&cs, &exec, &config);
//! let tables = ScheduleTables::derive(&cs, &exec);
//! let replay = PreparedSchedule::with_tables(&cs, &exec, &tables).run(&config);
//! assert!(fresh.completed());
//! assert_eq!(format!("{:?}", replay.trace), format!("{:?}", fresh.trace));
//! assert_eq!(fresh.trace.makespan(), 3);
//! ```

#![warn(missing_docs)]

pub mod conformance;
pub mod constructs;
pub mod engine;
pub mod monitor;
pub mod trace;

pub use conformance::{check_all_conformance, check_conformance, occurrence_point};
pub use monitor::{
    oracle_verdicts, InstanceId, MonitorConfig, MonitorError, MonitorEvent, MonitorPhase,
    MonitorProgram, MonitorState, MonitorStats, Verdict, VerdictKind,
};
pub use constructs::{structural_constraints, StructuralError};
pub use engine::{
    simulate, simulate_rescan_baseline, DurationModel, PreparedSchedule, Schedule, ScheduleTables,
    SimConfig,
};
pub use trace::{EventKind, Time, Trace, TraceEvent, Violation};
