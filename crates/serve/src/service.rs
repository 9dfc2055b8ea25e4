//! The daemon's request semantics, factored out of the transport: a typed
//! [`Request`], a pure [`handle`] over a shared [`Registry`], and the
//! [`oneshot`] reference path.
//!
//! `handle` is the single implementation both the TCP server and the
//! one-shot path call, so a daemon response body is bit-identical to the
//! one-shot body for the same request **by construction**; the cold/warm
//! distinction only changes which compile work runs, and the cached run
//! halves are pinned bit-identical to the fresh paths by the component
//! crates' equivalence tests. Cache status is reported out-of-band (the
//! `X-Cache` header), never in the body.

use crate::canon::{Name, Renaming};
use crate::http::{HttpError, HttpRequest};
use crate::registry::{LookupStatus, Registry};
use crate::trace::{self, RequestTrace};
use dscweaver_core::{Weaver, WeaverOutput};
use dscweaver_obs as obs;
use std::fmt::Write;
use std::panic::{self, AssertUnwindSafe};
use std::time::Instant;

/// A typed daemon request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// `POST /v1/weave` — weave the submitted process text to its minimal
    /// constraint set.
    Weave {
        /// The `.proc` process text.
        text: String,
    },
    /// `POST /v1/validate` — Petri-net validation of the minimal set.
    Validate {
        /// The `.proc` process text.
        text: String,
    },
    /// `POST /v1/simulate?branch=g:V...` — execute the minimal set on the
    /// dataflow engine under the given branch oracle.
    Simulate {
        /// The `.proc` process text.
        text: String,
        /// Branch oracle picks, `guard → value`.
        branches: Vec<(String, String)>,
    },
    /// `POST /v1/reweave?base=HASH` — weave the submitted revision of the
    /// cached `base` process and report its fingerprint.
    Reweave {
        /// The revised `.proc` process text.
        text: String,
        /// Content hash of the previously woven base process.
        base: u64,
    },
    /// `GET /v1/stats[?since=SEQ]` — cache counters, cumulative or
    /// diffed against an earlier snapshot sequence number.
    Stats {
        /// Snapshot sequence number from a previous stats response; when
        /// set, the response carries counter deltas since that snapshot.
        since: Option<u64>,
    },
    /// `GET /metrics` — Prometheus text exposition of the metrics plane.
    Metrics,
    /// `GET /v1/traces` — the tail-sampled request traces as Chrome
    /// trace-event JSON.
    Traces,
    /// `GET /healthz` — liveness probe.
    Health,
}

impl Request {
    /// Stable endpoint name, used for per-endpoint latency histograms
    /// and trace lane labels.
    pub fn endpoint(&self) -> &'static str {
        match self {
            Request::Weave { .. } => "weave",
            Request::Validate { .. } => "validate",
            Request::Simulate { .. } => "simulate",
            Request::Reweave { .. } => "reweave",
            Request::Stats { .. } => "stats",
            Request::Metrics => "metrics",
            Request::Traces => "traces",
            Request::Health => "health",
        }
    }

    /// Whether this request runs the compile/run pipeline on a submitted
    /// process. Only process-keyed requests count toward `in_flight` and
    /// the 429 back-pressure ceiling; the read-only observability
    /// endpoints stay admissible even under overload.
    pub fn is_process_keyed(&self) -> bool {
        matches!(
            self,
            Request::Weave { .. }
                | Request::Validate { .. }
                | Request::Simulate { .. }
                | Request::Reweave { .. }
        )
    }

    /// The registered e2e latency histogram name for this endpoint.
    fn latency_metric(&self) -> &'static str {
        match self {
            Request::Weave { .. } => "serve.latency.weave",
            Request::Validate { .. } => "serve.latency.validate",
            Request::Simulate { .. } => "serve.latency.simulate",
            Request::Reweave { .. } => "serve.latency.reweave",
            Request::Stats { .. } => "serve.latency.stats",
            Request::Metrics => "serve.latency.metrics",
            Request::Traces => "serve.latency.traces",
            Request::Health => "serve.latency.health",
        }
    }
}

/// Cache disposition of a response, carried out-of-band as the `X-Cache`
/// header so response bodies stay identical across cold and warm serves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheStatus {
    /// Served from a cached entry via the raw-text memo (byte-identical
    /// re-submission).
    Hit,
    /// New text served from an existing entry it canonicalized onto —
    /// cross-tenant artifact sharing (see [`crate::canon`]).
    Canonical,
    /// Compiled on this request.
    Miss,
    /// Not a process-keyed request (stats, health, errors).
    None,
}

impl CacheStatus {
    /// The `X-Cache` header value.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheStatus::Hit => "hit",
            CacheStatus::Canonical => "canonical",
            CacheStatus::Miss => "miss",
            CacheStatus::None => "none",
        }
    }
}

impl From<LookupStatus> for CacheStatus {
    fn from(status: LookupStatus) -> CacheStatus {
        match status {
            LookupStatus::Hit => CacheStatus::Hit,
            LookupStatus::Canonical => CacheStatus::Canonical,
            LookupStatus::Miss => CacheStatus::Miss,
        }
    }
}

/// A daemon response: HTTP status, cache disposition, body, plus the
/// out-of-band observability fields (trace id, content type). Bodies of
/// process-keyed endpoints stay bit-identical across cold/warm/one-shot;
/// everything observability-related rides in headers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Cache disposition (header-only; never part of the body).
    pub cache: CacheStatus,
    /// Response body.
    pub body: String,
    /// Request trace id, echoed as the `X-Trace-Id` header (`0` = the
    /// response never passed through [`handle`], e.g. transport errors).
    pub trace_id: u64,
    /// `Content-Type` header value (`application/json` for everything
    /// except `/metrics`).
    pub content_type: &'static str,
}

/// The `Content-Type` of every JSON endpoint.
pub const CONTENT_TYPE_JSON: &str = "application/json";
/// The `Content-Type` of `/metrics` (Prometheus text exposition 0.0.4).
pub const CONTENT_TYPE_PROM: &str = "text/plain; version=0.0.4";

impl Response {
    pub(crate) fn error(status: u16, message: &str) -> Response {
        Response {
            status,
            cache: CacheStatus::None,
            body: format!("{{\"error\":{}}}", json_str(message)),
            trace_id: 0,
            content_type: CONTENT_TYPE_JSON,
        }
    }

    fn ok(body: String) -> Response {
        Response {
            status: 200,
            cache: CacheStatus::None,
            body,
            trace_id: 0,
            content_type: CONTENT_TYPE_JSON,
        }
    }
}

/// JSON string literal with the escapes the daemon's payloads need.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_json_str(&mut out, s);
    out
}

/// Appends `s` as a JSON string literal.
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    push_escaped(out, s);
    out.push('"');
}

/// Appends `s` JSON-escaped, without quotes: `"`, `\` and the control
/// characters are escaped, and each run of bytes between them is copied
/// whole. Escaped bytes are ASCII, so every cut falls on a character
/// boundary.
fn push_escaped(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut copied = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[copied..i]);
        copied = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
    }
    out.push_str(&s[copied..]);
}

/// The `/v1/weave` body of one cached entry, rendered once: the whole body
/// in canonical names, already JSON-escaped, cut at the canonical names a
/// renaming maps back. [`WeaveTemplate::render`] copies the literal runs
/// and splices each tenant name into its slot, so a warm weave neither
/// re-renders the minimal set's DSCL nor re-lexes or re-escapes it.
///
/// The slots are exactly the tokens [`Renaming::render_original`] would
/// replace. Whether a token is replaced depends only on the namespace
/// sizes and the label width, which every renaming onto one canonical text
/// shares, so one template serves every alpha-variant of the entry.
/// Original names are `[A-Za-z0-9_]` identifier tokens of the process
/// lexer, so a spliced name needs no escaping.
pub(crate) struct WeaveTemplate {
    /// The literal runs, back to back.
    text: String,
    /// Per slot, its byte offset in `text` and the name it holds.
    slots: Vec<(u32, Name)>,
}

impl WeaveTemplate {
    /// Renders the body of `output` (woven from the canonical process
    /// named `process`, whose extraction gave `dependencies`
    /// dependencies), finding its slots with `renaming`, any renaming
    /// onto the entry's canonical text.
    pub(crate) fn new(
        hash: u64,
        fingerprint: u64,
        process: &str,
        dependencies: usize,
        output: &WeaverOutput,
        renaming: &Renaming,
    ) -> WeaveTemplate {
        let dscl = output.minimal.to_dscl();
        let mut t = WeaveTemplate {
            text: String::with_capacity(dscl.len() + 256),
            slots: Vec::new(),
        };
        // Writing to a `String` cannot fail.
        let _ = write!(t.text, "{{\"hash\":\"{hash:016x}\",\"process\":\"");
        match renaming.resolve(process) {
            Some(name) => t.push_slot(name),
            None => push_escaped(&mut t.text, process),
        }
        let _ = write!(
            t.text,
            "\",\"dependencies\":{},\"sc\":{},\"asc\":{},\"minimal\":{},\"removed\":{},\"fingerprint\":\"{:016x}\",\"minimal_dscl\":\"",
            dependencies,
            output.sc.constraint_count(),
            output.asc.constraint_count(),
            output.minimal.constraint_count(),
            output.removed.len(),
            fingerprint,
        );
        t.push_text(&dscl, renaming);
        t.text.push_str("\"}");
        t.text.shrink_to_fit();
        t.slots.shrink_to_fit();
        t
    }

    fn push_slot(&mut self, name: Name) {
        let at = u32::try_from(self.text.len()).expect("weave body under 4 GiB");
        self.slots.push((at, name));
    }

    /// Appends `s` JSON-escaped, with a slot for every token
    /// [`Renaming::render_original`] would replace. The tokens are found in
    /// `s` itself and the runs between them escaped one by one: in escaped
    /// text, a `\n` before a name would read as one token with it.
    fn push_text(&mut self, s: &str, renaming: &Renaming) {
        let mut copied = 0;
        renaming.scan(s, |start, end, name| {
            push_escaped(&mut self.text, &s[copied..start]);
            self.push_slot(name);
            copied = end;
        });
        push_escaped(&mut self.text, &s[copied..]);
    }

    /// The body in `renaming`'s names: the literal runs with each slot's
    /// original spliced in.
    pub(crate) fn render(&self, renaming: &Renaming) -> String {
        let spliced: usize = self.slots.iter().map(|&(_, name)| renaming.name(name).len()).sum();
        let mut out = String::with_capacity(self.text.len() + spliced);
        let mut copied = 0;
        for &(at, name) in &self.slots {
            let at = at as usize;
            out.push_str(&self.text[copied..at]);
            out.push_str(renaming.name(name));
            copied = at;
        }
        out.push_str(&self.text[copied..]);
        out
    }
}

/// Maps a parsed HTTP request onto the typed [`Request`].
pub fn parse(req: &HttpRequest) -> Result<Request, HttpError> {
    let body = || {
        String::from_utf8(req.body.clone()).map_err(|_| HttpError {
            status: 400,
            message: "body is not valid UTF-8".into(),
        })
    };
    let post = |ok: bool| {
        if ok {
            Ok(())
        } else {
            Err(HttpError {
                status: 405,
                message: "method not allowed".into(),
            })
        }
    };
    match req.path.as_str() {
        "/v1/weave" => {
            post(req.method == "POST")?;
            Ok(Request::Weave { text: body()? })
        }
        "/v1/validate" => {
            post(req.method == "POST")?;
            Ok(Request::Validate { text: body()? })
        }
        "/v1/simulate" => {
            post(req.method == "POST")?;
            let mut branches = Vec::new();
            for pick in req.query_all("branch") {
                let Some((g, v)) = pick.split_once(':') else {
                    return Err(HttpError {
                        status: 400,
                        message: format!("bad branch '{pick}' (want guard:value)"),
                    });
                };
                branches.push((g.to_string(), v.to_string()));
            }
            Ok(Request::Simulate {
                text: body()?,
                branches,
            })
        }
        "/v1/reweave" => {
            post(req.method == "POST")?;
            let base = req.query_first("base").ok_or_else(|| HttpError {
                status: 400,
                message: "reweave needs ?base=<hash of the previously woven process>".into(),
            })?;
            let base = u64::from_str_radix(base, 16).map_err(|_| HttpError {
                status: 400,
                message: "base is not a hexadecimal hash".into(),
            })?;
            Ok(Request::Reweave { text: body()?, base })
        }
        "/v1/stats" => {
            let since = match req.query_first("since") {
                None => None,
                Some(s) => Some(s.parse::<u64>().map_err(|_| HttpError {
                    status: 400,
                    message: format!("bad since '{s}' (want a stats snapshot sequence number)"),
                })?),
            };
            Ok(Request::Stats { since })
        }
        "/metrics" => Ok(Request::Metrics),
        "/v1/traces" => Ok(Request::Traces),
        "/healthz" => Ok(Request::Health),
        other => Err(HttpError {
            status: 404,
            message: format!("no such endpoint '{other}'"),
        }),
    }
}

fn served(status: LookupStatus, body: String) -> Response {
    Response {
        status: 200,
        cache: status.into(),
        body,
        trace_id: 0,
        content_type: CONTENT_TYPE_JSON,
    }
}

/// Times a cached run half under a `serve.run` trace phase and the
/// `serve.run` latency histogram.
fn timed_run<T>(f: impl FnOnce() -> T) -> T {
    let _phase = trace::phase("serve.run");
    let t0 = Instant::now();
    let out = f();
    obs::histogram("serve.run").observe(t0.elapsed().as_nanos() as u64);
    out
}

/// Serves one typed request against the shared registry. This is the
/// whole daemon semantics; the TCP server only adds transport framing.
///
/// Observability envelope around the endpoint dispatch: every request gets a
/// trace id (stamped into [`Response::trace_id`]); process-keyed
/// requests pass the back-pressure gate (429 once `in_flight` would
/// exceed [`Registry::max_in_flight`]); end-to-end latency feeds the
/// per-endpoint `serve.latency.*` histogram; and when the registry's
/// tracer is active, the request's span tree is tail-sampled into the
/// `/v1/traces` ring (kept if slow or on the 1-in-N grid).
///
/// A panic while serving is caught here: the request gets a `500`, the
/// `serve.panics` counter goes up, its trace is kept regardless of the
/// sampling rules, and the daemon goes on serving.
pub fn handle(reg: &Registry, req: &Request) -> Response {
    let tracer = reg.tracer();
    let (seq, trace_id) = tracer.next_id();
    let keyed = req.is_process_keyed();
    if keyed {
        let now = reg.enter();
        let max = reg.max_in_flight();
        if max > 0 && now > max {
            reg.leave();
            reg.note_rejected();
            let mut resp = Response::error(
                429,
                &format!("{now} requests in flight exceeds the --max-in-flight ceiling of {max}"),
            );
            resp.trace_id = trace_id;
            return resp;
        }
    }
    let collecting = keyed && tracer.active();
    if collecting {
        trace::begin_collect();
    }
    let start_ns = tracer.now_ns();
    let t0 = Instant::now();
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| handle_inner(reg, req)));
    let panicked = outcome.is_err();
    let mut response = outcome.unwrap_or_else(|payload| {
        obs::counter_add("serve.panics", 1);
        let what = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("unknown panic");
        Response::error(500, &format!("internal error: {what}"))
    });
    let dur_ns = t0.elapsed().as_nanos() as u64;
    let phases = if collecting {
        trace::end_collect().unwrap_or_default()
    } else {
        Vec::new()
    };
    obs::histogram(req.latency_metric()).observe(dur_ns);
    if keyed {
        reg.leave();
        reg.note_served();
    }
    if collecting {
        let kept = if panicked && tracer.config().capacity > 0 {
            Some("panic")
        } else {
            tracer.keep(seq, dur_ns)
        };
        if let Some(kept) = kept {
            tracer.push(RequestTrace {
                trace_id,
                endpoint: req.endpoint(),
                start_ns,
                dur_ns,
                status: response.status,
                kept,
                phases,
            });
        }
    }
    response.trace_id = trace_id;
    response
}

fn handle_inner(reg: &Registry, req: &Request) -> Response {
    let _span = obs::span_with("serve.run", || format!("{req:?}"));
    #[cfg(test)]
    if matches!(req, Request::Weave { text } if text == tests::PANIC_PROBE) {
        panic!("panic probe");
    }
    match req {
        Request::Weave { text } => match reg.lookup_or_build(text) {
            Ok(found) => served(found.status, found.entry.weave_body(&found.renaming)),
            Err(e) => Response::error(400, &e),
        },
        Request::Validate { text } => match reg.lookup_or_build(text) {
            Ok(found) => {
                let entry = &found.entry;
                let report = timed_run(|| entry.validate(reg.threads()));
                let body = format!(
                    "{{\"hash\":\"{:016x}\",\"ok\":{},\"assignments_checked\":{},\"assignments_truncated\":{},\"guard_groups\":{},\"failures\":{}}}",
                    entry.hash,
                    report.ok(),
                    report.assignments_checked,
                    report.assignments_truncated,
                    report.guard_groups,
                    report.failures.len(),
                );
                served(found.status, body)
            }
            Err(e) => Response::error(400, &e),
        },
        Request::Simulate { text, branches } => match reg.lookup_or_build(text) {
            Ok(found) => {
                let entry = &found.entry;
                let renaming = &found.renaming;
                // Oracle picks arrive in the tenant's guard and label
                // names; the cached artifacts run in canonical names. A
                // guard that names no activity of the submission steers
                // nothing, so it is dropped rather than left to alias a
                // canonical name.
                let picks: Vec<(String, String)> = branches
                    .iter()
                    .filter_map(|(g, v)| {
                        Some((renaming.activity(g)?.to_string(), renaming.label(v)))
                    })
                    .collect();
                let schedule = timed_run(|| entry.simulate(&picks, reg.threads()));
                let events = &schedule.trace.events;
                let mut body = String::with_capacity(160 + 64 * events.len());
                // Writing to a `String` cannot fail.
                let _ = write!(
                    body,
                    "{{\"hash\":\"{:016x}\",\"makespan\":{},\"constraint_checks\":{},\"completed\":{},\"stuck\":[",
                    entry.hash,
                    schedule.trace.makespan(),
                    schedule.constraint_checks,
                    schedule.completed(),
                );
                for (i, s) in schedule.stuck.iter().enumerate() {
                    if i > 0 {
                        body.push(',');
                    }
                    push_json_str(&mut body, renaming.original(s).unwrap_or(s));
                }
                body.push_str("],\"events\":[");
                for (i, e) in events.iter().enumerate() {
                    if i > 0 {
                        body.push(',');
                    }
                    let _ = write!(
                        body,
                        "{{\"t\":{},\"seq\":{},\"kind\":\"{:?}\",\"activity\":",
                        e.time, e.seq, e.kind
                    );
                    push_json_str(&mut body, renaming.original(&e.activity).unwrap_or(&e.activity));
                    body.push('}');
                }
                body.push_str("]}");
                served(found.status, body)
            }
            Err(e) => Response::error(400, &e),
        },
        Request::Reweave { text, base } => {
            if reg.get(*base).is_none() {
                return Response::error(
                    400,
                    &format!("unknown base {base:016x} (weave it first, or it was evicted)"),
                );
            }
            // The revision is reported under its canonical hash, like the
            // `hash` of a weave response.
            let revised_form = match crate::canon::canonicalize(text) {
                Ok(form) => form,
                Err(e) => return Response::error(400, &e),
            };
            let revised = match revised_form.process() {
                Ok(process) => crate::registry::extract(&process),
                Err(e) => return Response::error(400, &e),
            };
            match timed_run(|| Weaver::new().run(&revised)) {
                Ok(out) => Response {
                    status: 200,
                    cache: CacheStatus::Hit,
                    body: format!(
                        "{{\"hash\":\"{:016x}\",\"base\":\"{:016x}\",\"fingerprint\":\"{:016x}\"}}",
                        revised_form.hash,
                        base,
                        out.fingerprint(),
                    ),
                    trace_id: 0,
                    content_type: CONTENT_TYPE_JSON,
                },
                Err(e) => Response::error(400, &format!("weave error: {e}")),
            }
        }
        Request::Stats { since } => match reg.stats_since(*since) {
            Ok((seq, s)) => {
                let window = match since {
                    None => "\"cumulative\"".to_string(),
                    Some(baseline) => format!("{{\"since\":{baseline}}}"),
                };
                Response::ok(format!(
                    "{{\"entries\":{},\"capacity\":{},\"hits\":{},\"canonical_hits\":{},\"misses\":{},\"evictions\":{},\"in_flight\":{},\"served\":{},\"rejected\":{},\"seq\":{},\"window\":{}}}",
                    s.entries,
                    s.capacity,
                    s.hits,
                    s.canonical_hits,
                    s.misses,
                    s.evictions,
                    s.in_flight,
                    s.served,
                    s.rejected,
                    seq,
                    window,
                ))
            }
            Err(e) => Response::error(400, &e),
        },
        Request::Metrics => {
            let mut resp = Response::ok(obs::prom::render(&obs::metrics_snapshot()));
            resp.content_type = CONTENT_TYPE_PROM;
            resp
        }
        Request::Traces => Response::ok(reg.tracer().to_chrome_json()),
        Request::Health => Response::ok("{\"ok\":true}".into()),
    }
}

/// The one-shot reference path: serve `req` against a fresh single-entry
/// registry, exactly as `dscw` would for a single invocation. Daemon
/// response bodies are pinned bit-identical to this path (same `handle`,
/// cache status kept out of the body).
pub fn oneshot(req: &Request, threads: usize) -> Response {
    let reg = Registry::new(1, threads);
    handle(&reg, req)
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROC: &str = "process P {\n var x;\n sequence { assign a writes x; assign b reads x; }\n}";

    #[test]
    fn weave_body_is_cache_invariant() {
        let reg = Registry::new(4, 1);
        let req = Request::Weave { text: PROC.into() };
        let cold = handle(&reg, &req);
        let warm = handle(&reg, &req);
        assert_eq!(cold.status, 200);
        assert_eq!(cold.cache, CacheStatus::Miss);
        assert_eq!(warm.cache, CacheStatus::Hit);
        assert_eq!(cold.body, warm.body, "cold and warm bodies must be identical");
        assert_eq!(cold.body, oneshot(&req, 1).body);
    }

    /// A weave body that makes `handle_inner` panic (test builds only).
    pub(crate) const PANIC_PROBE: &str = "process Panic { panic probe }";

    #[test]
    fn a_panicking_request_is_a_500_and_the_daemon_keeps_serving() {
        use crate::client::Client;
        use crate::server::{ServeConfig, Server};
        let server = Server::start(&ServeConfig {
            threads: 1,
            // Tracing on, but no request is slow enough to keep and none
            // is sampled: only the panic's trace is kept.
            trace_slow_ms: 3_600_000,
            trace_sample: 0,
            ..ServeConfig::default()
        })
        .unwrap();
        let panics = || obs::metrics_snapshot().counters.get("serve.panics").copied().unwrap_or(0);
        let before = panics();
        let mut client = Client::connect(server.addr());
        let failed = client.post("/v1/weave", PANIC_PROBE).unwrap();
        assert_eq!(failed.status, 500);
        assert!(failed.body.contains("internal error: panic probe"), "{}", failed.body);
        assert!(panics() > before);
        // The next request, on the same connection, is served.
        let woven = client.post("/v1/weave", PROC).unwrap();
        assert_eq!(woven.status, 200, "{}", woven.body);
        assert_eq!(woven.body, oneshot(&Request::Weave { text: PROC.into() }, 1).body);
        let tracer = server.registry().tracer();
        assert_eq!(tracer.len(), 1, "only the panicking request is kept");
        assert!(tracer.to_chrome_json().contains("kept=panic"));
        assert_eq!(server.registry().stats().in_flight, 0);
        server.shutdown();
    }

    #[test]
    fn parse_routes_and_rejects() {
        let http = HttpRequest {
            method: "POST".into(),
            path: "/v1/simulate".into(),
            query: vec![("branch".into(), "g:T".into())],
            headers: vec![],
            body: b"x".to_vec(),
            keep_alive: true,
        };
        assert_eq!(
            parse(&http).unwrap(),
            Request::Simulate {
                text: "x".into(),
                branches: vec![("g".into(), "T".into())]
            }
        );
        let bad = HttpRequest {
            method: "GET".into(),
            path: "/v1/weave".into(),
            query: vec![],
            headers: vec![],
            body: vec![],
            keep_alive: true,
        };
        assert_eq!(parse(&bad).unwrap_err().status, 405);
        let missing = HttpRequest {
            method: "GET".into(),
            path: "/nope".into(),
            query: vec![],
            headers: vec![],
            body: vec![],
            keep_alive: true,
        };
        assert_eq!(parse(&missing).unwrap_err().status, 404);
    }

    #[test]
    fn reweave_needs_a_cached_base() {
        let reg = Registry::new(4, 1);
        let missing = handle(
            &reg,
            &Request::Reweave {
                text: PROC.into(),
                base: 0xdead_beef,
            },
        );
        assert_eq!(missing.status, 400);
        let entry = reg.lookup_or_build(PROC).unwrap().entry;
        let ok = handle(
            &reg,
            &Request::Reweave {
                text: PROC.into(),
                base: entry.hash,
            },
        );
        assert_eq!(ok.status, 200, "{}", ok.body);
        assert!(
            ok.body.contains(&format!("\"fingerprint\":\"{:016x}\"", entry.fingerprint)),
            "{}",
            ok.body
        );
    }

    #[test]
    fn canonical_variant_shares_the_entry_but_keeps_its_own_names() {
        let reg = Registry::new(4, 1);
        let base = handle(&reg, &Request::Weave { text: PROC.into() });
        assert_eq!(base.cache, CacheStatus::Miss);
        // Renamed identifiers, extra whitespace: same canonical process.
        let variant =
            "process Q {\n var data;\n sequence {  assign first writes data;\n assign second reads data; }\n}";
        let req = Request::Weave {
            text: variant.into(),
        };
        let shared = handle(&reg, &req);
        assert_eq!(shared.status, 200);
        assert_eq!(shared.cache, CacheStatus::Canonical);
        // Same canonical hash, each tenant's own names in the body...
        let hash = |body: &str| body.split("\"hash\":\"").nth(1).unwrap()[..16].to_string();
        assert_eq!(hash(&base.body), hash(&shared.body));
        assert!(base.body.contains("\"process\":\"P\""), "{}", base.body);
        assert!(shared.body.contains("\"process\":\"Q\""), "{}", shared.body);
        assert!(shared.body.contains("first") && shared.body.contains("second"), "{}", shared.body);
        // ...and the shared body is still bit-identical to its own
        // one-shot reference.
        assert_eq!(shared.body, oneshot(&req, 1).body);
        // Simulate accepts guards and reports events in tenant names too.
        let sim = handle(
            &reg,
            &Request::Simulate {
                text: variant.into(),
                branches: vec![],
            },
        );
        assert_eq!(sim.status, 200);
        assert!(sim.body.contains("\"activity\":\"first\""), "{}", sim.body);
        assert!(!sim.body.contains("\"activity\":\"a0\""), "{}", sim.body);
    }

    #[test]
    fn json_str_escapes() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    /// The earlier `json_str`, one `char` at a time: the reference the
    /// byte-run copy is pinned to.
    fn json_str_reference(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    #[test]
    fn json_str_matches_the_char_loop_reference() {
        let pieces = [
            "\"", "\\", "\n", "\r", "\t", "\u{0}", "\u{1}", "\u{1b}", "\u{1f}", " ", "\u{7f}",
            "a", "Z_9", "é", "€", "𝄞", "\u{80}", "{}", ":",
        ];
        let mut rng = dscweaver_prng::Rng::seed_from_u64(20);
        for _ in 0..2000 {
            let len = rng.random_range(12);
            let s: String = (0..len)
                .map(|_| *rng.choose(&pieces).expect("pieces"))
                .collect();
            assert_eq!(json_str(&s), json_str_reference(&s), "{s:?}");
        }
        for b in 0u8..0x80 {
            let s = char::from(b).to_string();
            assert_eq!(json_str(&s), json_str_reference(&s), "{b:#04x}");
        }
    }

    #[test]
    fn template_text_is_cut_before_it_is_escaped() {
        // `to_dscl` never puts an escaped byte right before a name, so the
        // weave bodies cannot show this: every escape here is followed by
        // a canonical name, which must still become a slot.
        let form = crate::canon::canonicalize(
            "process Q { var data; service Bank { ports 1 } sequence { invoke first on Bank port 1 writes data; assign second reads data; } }",
        )
        .unwrap();
        let renaming = &form.renaming;
        let text = "a0\na1\tv0\"s0\\p0\r\u{1}a1 \\na0 na0 \u{7}v0";
        let mut t = WeaveTemplate {
            text: String::new(),
            slots: Vec::new(),
        };
        t.push_text(text, renaming);
        assert_eq!(t.slots.len(), 7);
        assert_eq!(
            format!("\"{}\"", t.render(renaming)),
            json_str(&renaming.render_original(text))
        );
        assert_eq!(
            t.render(renaming),
            "first\\nsecond\\tdata\\\"Bank\\\\Q\\r\\u0001second \\\\na0 na0 \\u0007data"
        );
    }

    #[test]
    fn spliced_names_are_identifier_tokens_that_need_no_escape() {
        let texts = [
            PROC,
            "process Purchasing { var po, au; service Credit { ports 2 async } sequence { receive rec_po from Client writes po; invoke inv_po on Credit port 1 reads po; flow { assign l_1 writes au; assign r_2 reads po; link L9 from l_1 to r_2 when a1; } switch if_au reads au { case a1 { assign ok writes po; } case T { assign no writes po; } } } }",
        ];
        for text in texts {
            let reg = Registry::new(4, 1);
            let found = reg.lookup_or_build(text).unwrap();
            assert!(!found.entry.weave.slots.is_empty());
            for &(_, name) in &found.entry.weave.slots {
                let original = found.renaming.name(name);
                assert!(
                    !original.is_empty()
                        && original.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_'),
                    "{original:?}"
                );
                assert_eq!(json_str(original), format!("\"{original}\""));
            }
        }
    }

    #[test]
    fn back_pressure_rejects_past_the_ceiling_but_read_only_stays_open() {
        let reg = Registry::new(4, 1).with_max_in_flight(1);
        // Occupy the only slot, as a concurrent request would.
        reg.enter();
        let busy = handle(&reg, &Request::Weave { text: PROC.into() });
        assert_eq!(busy.status, 429);
        assert!(busy.body.contains("max-in-flight"), "{}", busy.body);
        // Observability endpoints are exempt: a saturated daemon must
        // still answer its health and stats probes.
        for req in [
            Request::Stats { since: None },
            Request::Metrics,
            Request::Traces,
            Request::Health,
        ] {
            assert_eq!(handle(&reg, &req).status, 200, "{req:?} gated by 429");
        }
        reg.leave();
        let ok = handle(&reg, &Request::Weave { text: PROC.into() });
        assert_eq!(ok.status, 200);
        let stats = reg.stats();
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.served, 1);
        assert_eq!(stats.in_flight, 0);
    }

    #[test]
    fn every_response_carries_a_distinct_trace_id() {
        let reg = Registry::new(4, 1);
        let a = handle(&reg, &Request::Weave { text: PROC.into() });
        let b = handle(&reg, &Request::Health);
        let c = handle(&reg, &Request::Weave { text: PROC.into() });
        assert!(a.trace_id != 0 && b.trace_id != 0 && c.trace_id != 0);
        assert!(a.trace_id != b.trace_id && b.trace_id != c.trace_id);
        // A rejected request is traced too.
        let reg = Registry::new(4, 1).with_max_in_flight(1);
        reg.enter();
        assert_ne!(handle(&reg, &Request::Weave { text: PROC.into() }).trace_id, 0);
    }

    #[test]
    fn metrics_endpoint_is_valid_prometheus_exposition() {
        let _serial = obs::test_lock();
        obs::set_metrics_enabled(true);
        let reg = Registry::new(4, 1);
        handle(&reg, &Request::Weave { text: PROC.into() });
        let resp = handle(&reg, &Request::Metrics);
        obs::set_enabled(false);
        drop(obs::take());
        assert_eq!(resp.status, 200);
        assert_eq!(resp.content_type, CONTENT_TYPE_PROM);
        let samples = obs::prom::parse(&resp.body).expect("exposition parses");
        assert!(
            samples.iter().any(|s| s.name.starts_with("serve_latency_weave")),
            "per-endpoint histogram missing:\n{}",
            resp.body
        );
    }

    #[test]
    fn traces_endpoint_returns_chrome_trace_json() {
        use crate::trace::TraceConfig;
        // sample_every=1 keeps every request.
        let reg = Registry::new(4, 1).with_trace_config(TraceConfig {
            slow_ns: u64::MAX,
            sample_every: 1,
            capacity: 8,
        });
        handle(&reg, &Request::Weave { text: PROC.into() });
        let resp = handle(&reg, &Request::Traces);
        assert_eq!(resp.status, 200);
        let doc = obs::json::parse(&resp.body).expect("chrome trace parses");
        let events = doc.get("traceEvents").and_then(obs::json::Json::as_arr).unwrap();
        assert!(!events.is_empty(), "kept request must appear in /v1/traces");
    }
}
