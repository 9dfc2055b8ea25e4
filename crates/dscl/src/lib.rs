//! # dscweaver-dscl
//!
//! The DAG Synchronization Constraint Language (DSCL) — the paper's §4.1
//! intermediate language in which dependencies of all four dimensions are
//! uniformly represented before merging and optimization.
//!
//! DSCL models an activity's life cycle as the states *Start → Run →
//! Finish* and provides three relations over states:
//!
//! * **HappenBefore** (`→_c`) — optionally conditional ordering;
//! * **HappenTogether** (`↔_c`) — sugar, desugared through a coordinator
//!   activity ([`ConstraintSet::desugar_happen_together`]);
//! * **Exclusive** (`⊘`) — mutual exclusion, enforced at run time by the
//!   scheduling engine rather than by the static scheme (§4.2).
//!
//! A [`ConstraintSet`] is the paper's Definition 1 triple `SC = {A, S, P}`;
//! [`SyncGraph`] materializes it as a graph over activity states and
//! service nodes for the optimizer. A text syntax with parser
//! ([`parse_constraints`]) and printer ([`ConstraintSet::to_dscl`]) rounds
//! the language out. Every activity, service, guard and value the set
//! mentions is a shared [`Name`].

#![warn(missing_docs)]

pub mod constraint;
pub mod name;
pub mod parser;
pub mod patterns;
pub mod relation;
pub mod state;
pub mod sync_graph;

pub use constraint::{ConstraintError, ConstraintSet};
pub use name::Name;
pub use parser::{parse_constraints, DsclParseError};
pub use relation::{Origin, Relation};
pub use state::{ActivityState, Condition, StateRef};
pub use sync_graph::{EdgeKind, SyncEdge, SyncGraph, SyncNode};
