//! # dscweaver-model
//!
//! The business-process intermediate representation: activities with
//! variable footprints, the sequencing-construct AST the paper critiques
//! (`sequence` / `flow` / `switch` / `while` with BPEL-style links), a
//! textual DSL for writing processes the way the paper's figures do, a
//! control-flow-graph lowering used by the PDG extraction crate, and
//! figure-style textual renderings.

#![warn(missing_docs)]

pub mod activity;
pub mod cfg;
pub mod display;
pub mod parser;
pub mod process;
pub mod unroll;

pub use activity::{Activity, ActivityKind, VarName};
pub use cfg::{Cfg, CfgEdge, CfgNode};
pub use display::{render_constructs, render_flowchart};
pub use parser::{parse_process, DslError, MAX_NESTING};
pub use process::{Case, Construct, Link, ModelError, Process, ServiceDecl};
pub use unroll::{unroll_whiles, Unrolled};
