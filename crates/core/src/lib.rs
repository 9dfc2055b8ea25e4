//! # dscweaver-core
//!
//! The paper's primary contribution (Wu, Pu, Sahai, Barga — ICDE 2007):
//! categorization of synchronization dependencies into four dimensions
//! (§3), merging them into one DSCL constraint set (§4.2), service
//! dependency translation (§4.3) and minimal dependency set extraction
//! (§4.4).

#![warn(missing_docs)]

pub mod dependency;
pub mod diff;
pub mod exec;
pub mod merge;
pub mod minimize;
mod number;
pub mod pipeline;
pub mod reweave;
pub mod translate;
pub mod witness;

pub use dependency::{Dependency, DependencyKind, DependencySet, Endpoint};
pub use diff::{diff_constraint_sets, diff_outputs, ConstraintDiff};
pub use exec::ExecConditions;
pub use merge::{lower, merge};
pub use minimize::{
    minimize, minimize_generic_baseline, minimize_with, EdgeOrder, EquivalenceMode,
    MinimizeError, MinimizeOptions, MinimizeResult, MinimizeStats,
};
pub use pipeline::{Weaver, WeaverError, WeaverOutput};
pub use reweave::{ReweavePath, ReweaveReport, WeaveSession};
pub use translate::{translate_services, TranslationReport};
pub use witness::{explain_removals, RemovalWitness};
