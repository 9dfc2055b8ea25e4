//! # dscweaver-graph
//!
//! Graph substrate for the DSCWeaver workspace — the reproduction of
//! *"Categorization and Optimization of Synchronization Dependencies in
//! Business Processes"* (Wu, Pu, Sahai, Barga — ICDE 2007).
//!
//! Every dependency structure in the paper is ultimately a directed graph:
//! program-dependence graphs (§3.1), synchronization constraint sets
//! (Definition 1), Petri-net skeletons (§4.1) and the scheduler's ready
//! tracking. This crate provides those structures and the algorithms the
//! paper's optimization rests on, implemented from scratch:
//!
//! * [`DiGraph`] — a directed multigraph with stable indices and tombstone
//!   removal (service-dependency translation removes external nodes in
//!   place).
//! * [`closure`] — plain transitive closure of a DAG (bitset rows).
//! * [`annotated`] — the paper's Definition 3: **condition-annotated**
//!   transitive closure, where activities reached through conditional
//!   constraints carry their guard annotations.
//! * [`scc`] / [`topo`] — conflict (cycle) detection and topological
//!   order.
//! * [`dom`] — dominators/post-dominators for control-dependence extraction.
//! * [`matching`] — Hopcroft–Karp and exact maximum antichains (peak
//!   concurrency of a schedule).
//! * [`iclosure`] — Definition 3 built **directly in interned form**:
//!   unconditional reachability as bitsets, only the conditional
//!   annotations interned (the minimizer's closure engine).
//! * [`lru`] — a bounded least-recently-used map capping the minimizer's
//!   `implies` memo (graceful hit-rate degradation past the limit).
//! * [`fx`] — the fast multiply-rotate hasher behind every memo table.

#![warn(missing_docs)]

pub mod annotated;
pub mod bitset;
pub mod closure;
pub mod digraph;
pub mod dom;
pub mod dot;
pub mod fx;
pub mod iclosure;
pub mod intern;
pub mod lru;
pub mod matching;
pub mod par;
pub mod scc;
pub mod topo;
pub mod visit;

pub use annotated::{annotated_closure, AnnotatedClosure, Dnf, GuardSet, Row};
pub use fx::{FxHashMap, FxHashSet, FxHasher};
pub use iclosure::{
    compose_interned_row, interned_closure, interned_closure_ordered, AdjEdge, ClosureStats, IRow,
    IRows, RowScratch,
};
pub use intern::{DnfId, DnfPool, TermId};
pub use lru::LruCache;
pub use bitset::BitSet;
pub use closure::{transitive_closure, Closure};
pub use digraph::{DiGraph, EdgeId, NodeId};
pub use dom::{dominators, Dominators};
pub use dot::{to_dot, EdgeStyle, NodeStyle};
pub use matching::{hopcroft_karp, max_antichain};
pub use par::{effective_threads, par_map, par_shards};
pub use scc::{find_cycle, has_cycle, tarjan_scc};
pub use topo::{topo_sort, CycleError};
pub use visit::{dfs_postorder, reachable_from, shortest_path};
