//! # dscweaver-xml
//!
//! A minimal, dependency-free XML document model with a writer and a
//! recursive-descent parser. It exists so the WSCL crate can read service
//! conversation documents and the BPEL crate can emit and re-parse process
//! definitions without pulling an external XML stack into the workspace.
//!
//! Supported subset: elements, attributes (single- or double-quoted),
//! character data, comments, CDATA, the five predefined entities, numeric
//! character references and a skipped `<?xml ...?>` declaration. That is
//! exactly what WSCL 1.0 examples and BPEL 1.0 process definitions use.

#![warn(missing_docs)]

pub mod doc;
pub mod parse;
pub mod write;

pub use doc::{Element, Node};
pub use parse::{parse, ParseError, MAX_NESTING};
pub use write::{to_string, to_string_pretty};
