//! # dscweaver-petri
//!
//! Colored Petri nets and the DSCL → net lowering the paper uses for
//! design-time validation (§4.1, refs \[13\] Murata, \[10\] Jensen's colored
//! nets for multi-valued branch outcomes). Includes a deterministic
//! maximal-step simulator, dead-path-elimination lowering and the layered
//! validation pipeline (structural conflicts → per-assignment
//! simulation).
//!
//! Validation has one compile → run path: [`CompiledValidation::compile`]
//! checks conflicts and emits the lowered net's integer kernel straight
//! from the constraint set (colors as ids in byte order, flat offset
//! arrays for modes, arcs and consumers) with a compact index of the
//! names behind its numbers — no string net is built; and
//! [`CompiledValidation::run`] replays the branch assignments on the
//! kernel's wavefront worklist, up to 64 per bit-sliced lane sweep, and
//! re-runs only the lanes that fail, diverge or could hold two tokens in
//! one place on the scalar kernel, which names places for a failing
//! assignment ([`CompiledValidation::run_scalar`] runs every assignment
//! that way: the oracle); [`validate`] is the two in a row. An
//! activity whose guard combinations would need more than
//! [`lower::MAX_MODES`] firing modes stops compilation, as a conflict
//! cycle does ([`ValidationReport::mode_limit`]). [`guard_groups`]
//! factors independent guards so the run can enumerate additive
//! sub-spaces instead of the full multiplicative product (see
//! [`ValidateOptions::factor`]).
//!
//! The string lowering ([`lower()`], [`LoweredNet`]) stays as the oracle
//! and as the source of DOT renderings and statistics: the emitted kernel
//! is pinned field for field to the kernel interned from `lower`'s net,
//! and the simple full-rescan simulator ([`run_to_quiescence`]) is the
//! oracle the property tests pin the production engines to.
//!
//! ```
//! use dscweaver_core::ExecConditions;
//! use dscweaver_dscl::{Condition, ConstraintSet, Origin, Relation, StateRef};
//! use dscweaver_petri::{validate, ValidateOptions};
//!
//! // A guarded diamond: g chooses x (g=T) or y (g=F); both join at j.
//! let mut cs = ConstraintSet::new("diamond");
//! for a in ["g", "x", "y", "j"] {
//!     cs.add_activity(a);
//! }
//! cs.add_domain("g", vec!["T".into(), "F".into()]);
//! cs.push(Relation::before_if(
//!     StateRef::finish("g"), StateRef::start("x"),
//!     Condition::new("g", "T"), Origin::Control,
//! ));
//! cs.push(Relation::before_if(
//!     StateRef::finish("g"), StateRef::start("y"),
//!     Condition::new("g", "F"), Origin::Control,
//! ));
//! cs.push(Relation::before(StateRef::finish("x"), StateRef::start("j"), Origin::Data));
//! cs.push(Relation::before(StateRef::finish("y"), StateRef::start("j"), Origin::Data));
//!
//! let exec = ExecConditions::derive(&cs);
//! let report = validate(&cs, &exec, &ValidateOptions::default());
//! assert!(report.ok());
//! assert_eq!(report.assignments_checked, 2); // both branches simulated
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod lower;
pub mod net;
mod prepared;
pub mod reach;

pub use analysis::{
    validate, validate_default, AssignmentFailure, CompiledValidation, ValidateOptions,
    ValidationReport,
};
pub use lower::{lower, try_lower, ActivityNodes, LoweredNet, ModeLimit, MAX_MODES, SKIP};
pub use net::{ArcIn, ArcOut, Color, ColorFilter, Marking, Mode, Net, PlaceId, TransitionId};
pub use prepared::guard_groups;
pub use reach::{assignment_chooser, run_to_quiescence, run_to_quiescence_wavefront, Run};
