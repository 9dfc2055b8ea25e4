//! # dscweaver-bench
//!
//! Experiment harness: structured regeneration of every table and figure
//! in the paper plus the extended (Ext-A..D) evaluations, shared between
//! the `repro` binary's experiments and its `bench-json` suites (timing
//! helpers in [`harness`]).

#![warn(missing_docs)]

pub mod experiments;
pub mod harness;
pub mod perf;
pub mod perf_diff;
pub mod perf_evolve;
pub mod perf_monitor;
pub mod perf_petri;
pub mod perf_scheduler;
pub mod perf_serve;

pub use experiments::*;
