//! # dscweaver-serve
//!
//! Weaver-as-a-service: a zero-dependency, multi-tenant daemon (`dscw
//! serve`) that accepts weave / validate / simulate / re-weave requests
//! over a minimal std-only HTTP/1.1 transport and serves them from a
//! **warm prepared-artifact cache**.
//!
//! Each distinct submitted process is compiled once into a
//! [`registry::ProcessEntry`]: the woven [`dscweaver_core::WeaverOutput`]
//! and its fingerprint, the Petri-net validation compile half
//! ([`dscweaver_petri::CompiledValidation`]) and the scheduler's derived
//! indexes ([`dscweaver_scheduler::ScheduleTables`]). "Distinct" means distinct **canonical form** ([`canon`]):
//! submissions are alpha-renamed into first-occurrence order, their
//! declarations sorted and whitespace/comments stripped before hashing,
//! so textual variants of one process share a single entry (the raw-text
//! FNV-1a hash stays in front as a first-level memo, and each request's
//! [`canon::Renaming`] renders responses back in its own names). Entries
//! are shared across request threads (`Arc`) and evicted LRU. Warm
//! requests skip every compile stage; the cached run halves are pinned
//! bit-identical to the fresh one-shot paths by the component crates'
//! equivalence tests, and response bodies never depend on cache state
//! (the `X-Cache` header carries hit/canonical/miss).
//!
//! The transport is connection-oriented: HTTP/1.1 keep-alive with bounded
//! pipelining, a reusable per-connection read buffer, and admission
//! batched per connection-readiness rather than per request
//! ([`server`]); [`client::Client`] reuses its connection by default.
//!
//! Serving a request without any networking:
//!
//! ```
//! use dscweaver_serve::registry::Registry;
//! use dscweaver_serve::service::{handle, oneshot, CacheStatus, Request};
//!
//! let proc_text = "process P {\n var x;\n sequence { assign a writes x; assign b reads x; }\n}";
//! let reg = Registry::new(16, 1);
//! let req = Request::Weave { text: proc_text.into() };
//! let cold = handle(&reg, &req);          // compiles, caches
//! let warm = handle(&reg, &req);          // served from the cache
//! assert_eq!(cold.cache, CacheStatus::Miss);
//! assert_eq!(warm.cache, CacheStatus::Hit);
//! // Bodies are identical across cold, warm and the one-shot reference.
//! assert_eq!(cold.body, warm.body);
//! assert_eq!(cold.body, oneshot(&req, 1).body);
//! ```
//!
//! The full daemon over TCP (ephemeral port):
//!
//! ```
//! use dscweaver_serve::{client, server::{ServeConfig, Server}};
//!
//! let server = Server::start(&ServeConfig::default()).unwrap();
//! let proc_text = "process P {\n var x;\n sequence { assign a writes x; assign b reads x; }\n}";
//! let first = client::post(server.addr(), "/v1/weave", proc_text).unwrap();
//! let second = client::post(server.addr(), "/v1/weave", proc_text).unwrap();
//! assert_eq!(first.status, 200);
//! assert_eq!(first.cache(), "miss");
//! assert_eq!(second.cache(), "hit");
//! assert_eq!(first.body, second.body);
//! server.shutdown();
//! ```
//!
//! See `SERVING.md` for the wire protocol reference and operations guide.

#![warn(missing_docs)]

pub mod canon;
pub mod client;
pub mod http;
pub mod registry;
pub mod server;
pub mod service;
pub mod trace;

pub use canon::{canonicalize, CanonicalForm, Renaming};
pub use client::{Client, PipelinedRequest, Reply};
pub use http::{HttpError, HttpRequest};
pub use registry::{content_hash, Lookup, LookupStatus, ProcessEntry, Registry, RegistryStats};
pub use server::{ServeConfig, Server};
pub use service::{handle, oneshot, CacheStatus, Request, Response};
pub use trace::{RequestTrace, TraceConfig, Tracer};
