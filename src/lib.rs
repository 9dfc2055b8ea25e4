//! # dscweaver
//!
//! A production-quality Rust reproduction of **"Categorization and
//! Optimization of Synchronization Dependencies in Business Processes"**
//! (Qinyi Wu, Calton Pu, Akhil Sahai, Roger Barga — ICDE 2007).
//!
//! The paper proposes modeling synchronization in business processes as
//! explicit *dependencies* — categorized into **data**, **control**,
//! **service** and **cooperation** dimensions — instead of imperative
//! sequencing constructs. Dependencies are merged into the DSCL constraint
//! language, translated past external service nodes, and optimized to a
//! *minimal dependency set* that preserves execution semantics while
//! minimizing monitoring cost and maximizing concurrency.
//!
//! ## Crate map
//!
//! | Module (re-export) | Crate | Role |
//! |---|---|---|
//! | [`graph`] | `dscweaver-graph` | graphs, condition-annotated closures (Def. 3), cycle detection |
//! | [`xml`] | `dscweaver-xml` | minimal XML reader/writer |
//! | [`model`] | `dscweaver-model` | process AST, DSL, CFG, renderings |
//! | [`pdg`] | `dscweaver-pdg` | data/control dependency extraction (§3.1) |
//! | [`dscl`] | `dscweaver-dscl` | the DSCL constraint language (§4.1) |
//! | [`wscl`] | `dscweaver-wscl` | service conversations → service dependencies (§3.2) |
//! | [`core`] | `dscweaver-core` | categorization, merge (§4.2), translation (§4.3), minimization (§4.4) |
//! | [`obs`] | `dscweaver-obs` | zero-dependency tracing/metrics: phase spans, worker lanes, Chrome-trace export |
//! | [`petri`] | `dscweaver-petri` | colored Petri nets, validation (§4.1) |
//! | [`scheduler`] | `dscweaver-scheduler` | dataflow DES engine, constructs baseline |
//! | [`serve`] | `dscweaver-serve` | multi-tenant weaver daemon (`dscw serve`), warm prepared-artifact cache |
//! | [`bpel`] | `dscweaver-bpel` | BPEL generation, parsing, structure recovery |
//! | [`workloads`] | `dscweaver-workloads` | the Purchasing & Deployment processes, synthetic generators |
//!
//! ## Quick start
//!
//! ```
//! use dscweaver::core::Weaver;
//! use dscweaver::workloads::purchasing_dependencies;
//!
//! // Table 1 → Figure 7 → Figure 8 → Figure 9, in four lines.
//! let deps = purchasing_dependencies();               // 40 dependencies
//! let out = Weaver::new().run(&deps).unwrap();
//! assert_eq!(out.sc.constraint_count(), 40);          // merged SC
//! assert_eq!(out.minimal.constraint_count(), 17);     // minimal set
//! assert_eq!(out.total_removed(), 23);                // Table 2
//! ```

pub use dscweaver_bpel as bpel;
pub use dscweaver_core as core;
pub use dscweaver_dscl as dscl;
pub use dscweaver_graph as graph;
pub use dscweaver_model as model;
pub use dscweaver_obs as obs;
pub use dscweaver_pdg as pdg;
pub use dscweaver_petri as petri;
pub use dscweaver_scheduler as scheduler;
pub use dscweaver_serve as serve;
pub use dscweaver_workloads as workloads;
pub use dscweaver_wscl as wscl;
pub use dscweaver_xml as xml;

pub mod vertical;

/// Commonly used items.
pub mod prelude {
    pub use crate::core::{
        Dependency, DependencySet, EdgeOrder, EquivalenceMode, ExecConditions, WeaveSession,
        Weaver, WeaverOutput,
    };
    pub use crate::dscl::{ActivityState, Condition, ConstraintSet, Origin, Relation, StateRef};
    pub use crate::model::{parse_process, Activity, Construct, Process};
    pub use crate::scheduler::{simulate, SimConfig};
    pub use crate::vertical::{weave, VerticalOutput};
}
