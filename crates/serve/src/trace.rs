//! Request-scoped observability: per-request trace ids, a thread-local
//! span collector, and a **tail-sampled** ring buffer of recent request
//! traces.
//!
//! Every request gets a trace id (returned as the `X-Trace-Id` response
//! header) whether or not its trace is kept. While a request runs, the
//! serving thread collects its phase spans (`serve.lookup`,
//! `serve.compile`, `serve.run`, …) into a thread-local buffer — requests
//! are served whole on one worker thread, so no cross-thread stitching is
//! needed. When the request completes, the **tail** decision runs: the
//! full span tree is kept only if the request was slower than the
//! configured threshold, or if it falls on the 1-in-N sample grid.
//! Everything else is dropped at zero retained cost, which is what makes
//! always-on tracing affordable at production rates.
//!
//! Kept traces live in a bounded ring ([`TraceConfig::capacity`]); `GET
//! /v1/traces` renders the ring as Chrome trace-event JSON through the
//! existing [`dscweaver_obs::TraceSnapshot`] sink, one lane per request,
//! loadable in Perfetto or `chrome://tracing`.

use dscweaver_obs::{Event, EventKind, TraceSnapshot};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Tail-sampling configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceConfig {
    /// Keep every request slower than this many nanoseconds (0 disables
    /// the slow-path criterion).
    pub slow_ns: u64,
    /// Additionally keep every N-th request (0 disables the sample
    /// grid). Sampling is by admission sequence number, so it is uniform
    /// under any traffic mix.
    pub sample_every: u64,
    /// Ring capacity: how many kept traces are retained (oldest evicted
    /// first).
    pub capacity: usize,
}

impl TraceConfig {
    /// Request tracing fully off — the default for directly constructed
    /// registries (`oneshot`, benches). The daemon turns sampling on via
    /// its `ServeConfig`.
    pub fn disabled() -> TraceConfig {
        TraceConfig { slow_ns: 0, sample_every: 0, capacity: 0 }
    }

    /// The daemon defaults: keep requests slower than 250 ms, sample
    /// 1/64 of the rest, retain the last 256 kept traces.
    pub fn daemon_default() -> TraceConfig {
        TraceConfig {
            slow_ns: 250_000_000,
            sample_every: 64,
            capacity: 256,
        }
    }

    /// Whether any keep criterion is configured.
    pub fn active(&self) -> bool {
        self.capacity > 0 && (self.slow_ns > 0 || self.sample_every > 0)
    }
}

/// One phase span inside a kept request trace. Offsets are nanoseconds
/// from the owning request's start.
#[derive(Clone, Copy, Debug)]
pub struct PhaseRecord {
    /// Span name from the `serve.*` taxonomy.
    pub name: &'static str,
    /// Start offset within the request, ns.
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
}

/// A kept request trace: identity, timing, why it was kept, and its
/// phase spans.
#[derive(Clone, Debug)]
pub struct RequestTrace {
    /// The id returned to the client as `X-Trace-Id`.
    pub trace_id: u64,
    /// Endpoint name (`weave`, `validate`, …).
    pub endpoint: &'static str,
    /// Request start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End-to-end duration, ns.
    pub dur_ns: u64,
    /// HTTP status of the response.
    pub status: u16,
    /// Why the tail kept it: `"slow"`, `"sampled"`, or `"panic"` (a
    /// request that panicked is always kept).
    pub kept: &'static str,
    /// Phase spans, request-relative.
    pub phases: Vec<PhaseRecord>,
}

thread_local! {
    static COLLECTOR: RefCell<Option<Collector>> = const { RefCell::new(None) };
}

struct Collector {
    t0: Instant,
    phases: Vec<PhaseRecord>,
}

/// Starts collecting phase spans for the current thread's request.
/// Paired with [`end_collect`]; nested activation is not supported (the
/// daemon serves one request per worker thread at a time).
pub fn begin_collect() {
    COLLECTOR.with(|c| {
        *c.borrow_mut() = Some(Collector { t0: Instant::now(), phases: Vec::new() })
    });
}

/// Stops collecting and returns the phases recorded since
/// [`begin_collect`] (None if collection was never started on this
/// thread).
pub fn end_collect() -> Option<Vec<PhaseRecord>> {
    COLLECTOR.with(|c| c.borrow_mut().take().map(|col| col.phases))
}

/// RAII guard for one request phase; records into the thread's active
/// collector on drop. A no-op (one TLS flag read) when no collection is
/// active, so the probes can stay on the serving path permanently.
#[must_use = "a phase records its duration when dropped"]
pub struct PhaseGuard {
    name: &'static str,
    start: Option<Instant>,
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        COLLECTOR.with(|c| {
            if let Some(col) = c.borrow_mut().as_mut() {
                col.phases.push(PhaseRecord {
                    name: self.name,
                    start_ns: start.duration_since(col.t0).as_nanos() as u64,
                    dur_ns: start.elapsed().as_nanos() as u64,
                });
            }
        });
    }
}

/// Opens a request phase span (see [`PhaseGuard`]).
pub fn phase(name: &'static str) -> PhaseGuard {
    let active = COLLECTOR.with(|c| c.borrow().is_some());
    PhaseGuard {
        name,
        start: active.then(Instant::now),
    }
}

/// The per-registry tracer: id generation, the tail decision, and the
/// ring of kept traces.
pub struct Tracer {
    config: TraceConfig,
    epoch: Instant,
    seq: AtomicU64,
    kept: AtomicU64,
    ring: Mutex<VecDeque<RequestTrace>>,
}

/// SplitMix64 — turns the dense admission sequence into well-spread,
/// stable trace ids (no randomness source needed, ids are reproducible
/// for a deterministic request sequence).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl Tracer {
    /// A tracer with the given tail-sampling configuration.
    pub fn new(config: TraceConfig) -> Tracer {
        Tracer {
            config,
            epoch: Instant::now(),
            seq: AtomicU64::new(0),
            kept: AtomicU64::new(0),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &TraceConfig {
        &self.config
    }

    /// Whether any keep criterion is configured (if not, requests skip
    /// collection entirely).
    pub fn active(&self) -> bool {
        self.config.active()
    }

    /// Nanoseconds since the tracer's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Admits one request: returns `(sequence, trace_id)`.
    pub fn next_id(&self) -> (u64, u64) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        (seq, splitmix64(seq + 1))
    }

    /// The tail decision for a completed request: `Some(reason)` when
    /// the trace should be kept.
    pub fn keep(&self, seq: u64, dur_ns: u64) -> Option<&'static str> {
        if self.config.capacity == 0 {
            return None;
        }
        if self.config.slow_ns > 0 && dur_ns >= self.config.slow_ns {
            return Some("slow");
        }
        if self.config.sample_every > 0 && seq % self.config.sample_every == 0 {
            return Some("sampled");
        }
        None
    }

    /// Pushes a kept trace into the ring, evicting the oldest beyond
    /// capacity.
    pub fn push(&self, trace: RequestTrace) {
        self.kept.fetch_add(1, Ordering::Relaxed);
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        if ring.len() >= self.config.capacity {
            ring.pop_front();
        }
        ring.push_back(trace);
    }

    /// Number of traces currently retained.
    pub fn len(&self) -> usize {
        self.ring.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// True when the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total traces ever kept (kept − retained = evicted).
    pub fn total_kept(&self) -> u64 {
        self.kept.load(Ordering::Relaxed)
    }

    /// Renders the retained traces as Chrome trace-event JSON through
    /// the shared [`TraceSnapshot`] sink: one lane per kept request
    /// (named `req-<trace-id> <endpoint>`), a `serve.request` span
    /// covering the request, and its collected phase spans nested
    /// within. Deterministic given the ring contents.
    pub fn to_chrome_json(&self) -> String {
        let ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        let mut lanes = Vec::with_capacity(ring.len());
        let mut events = Vec::new();
        for (lane_ix, t) in ring.iter().enumerate() {
            let lane = lane_ix as u32;
            lanes.push(format!("req-{:016x} {}", t.trace_id, t.endpoint));
            let detail = format!(
                "trace_id={:016x} endpoint={} status={} kept={}",
                t.trace_id, t.endpoint, t.status, t.kept
            );
            events.push(Event {
                kind: EventKind::Begin,
                name: "serve.request",
                detail: Some(detail.into_boxed_str()),
                lane,
                ts_ns: t.start_ns,
            });
            for p in &t.phases {
                events.push(Event {
                    kind: EventKind::Begin,
                    name: p.name,
                    detail: None,
                    lane,
                    ts_ns: t.start_ns + p.start_ns,
                });
                events.push(Event {
                    kind: EventKind::End,
                    name: p.name,
                    detail: None,
                    lane,
                    ts_ns: t.start_ns + p.start_ns + p.dur_ns,
                });
            }
            events.push(Event {
                kind: EventKind::End,
                name: "serve.request",
                detail: None,
                lane,
                ts_ns: t.start_ns + t.dur_ns,
            });
        }
        TraceSnapshot::from_events(events, lanes).to_chrome_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kept_trace(id: u64) -> RequestTrace {
        RequestTrace {
            trace_id: id,
            endpoint: "weave",
            start_ns: id * 1000,
            dur_ns: 500,
            status: 200,
            kept: "sampled",
            phases: vec![PhaseRecord { name: "serve.lookup", start_ns: 10, dur_ns: 100 }],
        }
    }

    #[test]
    fn tail_decision_keeps_slow_and_sampled() {
        let t = Tracer::new(TraceConfig { slow_ns: 1000, sample_every: 4, capacity: 8 });
        assert_eq!(t.keep(1, 2000), Some("slow"));
        assert_eq!(t.keep(4, 10), Some("sampled"));
        assert_eq!(t.keep(1, 10), None);
        let off = Tracer::new(TraceConfig::disabled());
        assert_eq!(off.keep(0, u64::MAX), None);
        assert!(!off.active());
    }

    #[test]
    fn ring_is_bounded() {
        let t = Tracer::new(TraceConfig { slow_ns: 0, sample_every: 1, capacity: 3 });
        for i in 0..10 {
            t.push(kept_trace(i));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.total_kept(), 10);
        let json = t.to_chrome_json();
        // Oldest evicted: trace 7..9 remain.
        assert!(json.contains("req-0000000000000009"), "{json}");
        assert!(!json.contains("req-0000000000000001 "), "{json}");
    }

    #[test]
    fn collector_records_phases() {
        begin_collect();
        {
            let _p = phase("serve.lookup");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let phases = end_collect().expect("collection was active");
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].name, "serve.lookup");
        assert!(phases[0].dur_ns >= 1_000_000);
        // Inactive: guard is a no-op and end_collect returns None.
        let _p = phase("serve.lookup");
        assert!(end_collect().is_none());
    }

    #[test]
    fn trace_ids_are_stable_and_distinct() {
        let t = Tracer::new(TraceConfig::daemon_default());
        let (s0, id0) = t.next_id();
        let (s1, id1) = t.next_id();
        assert_eq!((s0, s1), (0, 1));
        assert_ne!(id0, id1);
        assert_eq!(id0, splitmix64(1));
    }

    #[test]
    fn chrome_json_round_trips() {
        use dscweaver_obs::json::{self, Json};
        let t = Tracer::new(TraceConfig { slow_ns: 0, sample_every: 1, capacity: 4 });
        t.push(kept_trace(1));
        let doc = json::parse(&t.to_chrome_json()).expect("valid chrome JSON");
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert!(events
            .iter()
            .any(|e| e.get("name").and_then(Json::as_str) == Some("serve.request")));
        assert!(events
            .iter()
            .any(|e| e.get("name").and_then(Json::as_str) == Some("serve.lookup")));
    }
}
