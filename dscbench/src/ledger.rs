//! The per-layer ledger of a traced replay: every timed call into a layer
//! is recorded as a `bench.<layer>` span (kept in memory, written as
//! Chrome trace-event JSON at the end) and as a sample of that layer.

use crate::stats;
use crate::{Metrics, Outcome};
use dscweaver_serve::RegistryStats;
use std::collections::BTreeMap;
use std::time::Instant;

/// Every layer the ledger reports, in report order. Floors are the
/// cheapest thing a layer could do; they are reported beside the layers
/// but are not part of any request's time, so they stay out of the sum.
const LAYERS: [&str; 23] = [
    "server.residual",
    "floor.loopback_rtt",
    "http.frame",
    "http.render",
    "service.decode",
    "service.handle",
    "registry.raw_hash",
    "floor.fnv",
    "registry.lookup",
    "canon.canonicalize",
    "dscl.to_dscl",
    "canon.render_original",
    "registry.compile",
    "pdg.extract",
    "core.merge",
    "core.exec_conditions",
    "core.translate",
    "core.minimize",
    "petri.compile",
    "scheduler.tables",
    "core.reweave",
    "petri.validate",
    "scheduler.simulate",
];

fn is_floor(layer: &str) -> bool {
    layer.starts_with("floor.")
}

/// One recorded call.
struct Span {
    name: &'static str,
    request: u32,
    start_ns: i64,
    dur_ns: i64,
}

/// A layer whose figures come from outside the replay (the load phase).
struct Derived {
    calls: usize,
    mean_ns: f64,
    p50_ns: f64,
}

/// Samples and spans of one traced replay.
pub struct Ledger {
    epoch: Instant,
    spans: Vec<Span>,
    samples: BTreeMap<&'static str, Vec<i64>>,
    derived: BTreeMap<&'static str, Derived>,
    counts: BTreeMap<&'static str, f64>,
    request: u32,
    /// Replayed requests (or jobs) so far.
    requests: usize,
}

impl Default for Ledger {
    fn default() -> Self {
        Ledger {
            epoch: Instant::now(),
            spans: Vec::new(),
            samples: BTreeMap::new(),
            derived: BTreeMap::new(),
            counts: BTreeMap::new(),
            request: 0,
            requests: 0,
        }
    }
}

impl Ledger {
    /// Starts the next replayed request: later spans carry its id.
    pub fn next_request(&mut self) {
        self.request += 1;
        self.requests += 1;
    }

    /// Times `f` under a `bench.<name>` span and returns its result with
    /// the elapsed nanoseconds. Records no layer sample: self times are
    /// remainders the caller computes.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, i64) {
        let t0 = Instant::now();
        let out = f();
        let dur_ns = t0.elapsed().as_nanos() as i64;
        self.spans.push(Span {
            name,
            request: self.request,
            start_ns: t0.duration_since(self.epoch).as_nanos() as i64,
            dur_ns,
        });
        (out, dur_ns)
    }

    /// [`Ledger::time`] whose whole duration is a sample of `layer`.
    pub fn timed<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> (T, i64) {
        let (out, ns) = self.time(layer, f);
        self.add(layer, ns);
        (out, ns)
    }

    /// Records one sample of `layer` (a self time may come out negative
    /// when its parts were timed in separate executions).
    pub fn add(&mut self, layer: &'static str, ns: i64) {
        debug_assert!(LAYERS.contains(&layer), "unknown layer {layer}");
        self.samples.entry(layer).or_default().push(ns);
    }

    /// Adds `v` to the work counter `name`.
    pub fn count(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_default() += v;
    }

    fn counted(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Counter `name` per call of `layer` (`0` when never called).
    fn per_call(&self, name: &str, layer: &str) -> f64 {
        match self.samples.get(layer).map_or(0, Vec::len) {
            0 => 0.0,
            calls => self.counted(name) / calls as f64,
        }
    }

    /// Sets a layer measured outside the replay: its contribution to every
    /// replayed request is `mean_ns`.
    pub fn derive(&mut self, layer: &'static str, calls: usize, mean_ns: f64, p50_ns: f64) {
        self.derived.insert(
            layer,
            Derived {
                calls,
                mean_ns,
                p50_ns,
            },
        );
    }

    /// The recorder's own cost per span, measured by recording empty
    /// calls; the calibration spans are discarded.
    fn span_cost_ns(&mut self) -> f64 {
        const N: usize = 20_000;
        let keep = self.spans.len();
        let t0 = Instant::now();
        for _ in 0..N {
            std::hint::black_box(self.time("calibrate", || ()));
        }
        let cost = t0.elapsed().as_nanos() as f64 / N as f64;
        self.spans.truncate(keep);
        cost
    }

    /// Spans recorded per replayed request.
    fn spans_per_request(&self) -> f64 {
        self.spans.len() as f64 / self.requests.max(1) as f64
    }

    /// Per-request contribution of `layer` in nanoseconds.
    fn per_request_ns(&self, layer: &str) -> f64 {
        if let Some(d) = self.derived.get(layer) {
            return d.mean_ns;
        }
        let total: i64 = self.samples.get(layer).map_or(0, |s| s.iter().sum());
        total as f64 / self.requests.max(1) as f64
    }

    /// Mean of one layer's samples in nanoseconds (`0` when never called).
    fn mean_ns(&self, layer: &str) -> f64 {
        match self.derived.get(layer) {
            Some(d) => d.mean_ns,
            None => self.samples.get(layer).map_or(0.0, |s| stats::mean(s)),
        }
    }

    /// `end_to_end_ns` minus the per-request sum of every non-floor layer.
    fn unattributed_ns(&self, end_to_end_ns: f64) -> f64 {
        let attributed: f64 = LAYERS
            .iter()
            .filter(|l| !is_floor(l))
            .map(|l| self.per_request_ns(l))
            .sum();
        end_to_end_ns - attributed
    }

    /// Appends `<layer>.calls`, `.mean_us`, `.p50_us` and `.share` for every
    /// layer, shares taken of `end_to_end_ns`.
    fn emit(&self, end_to_end_ns: f64, out: &mut Metrics) -> Result<(), String> {
        for layer in LAYERS {
            let (calls, p50_ns) = match (self.derived.get(layer), self.samples.get(layer)) {
                (Some(d), _) => (d.calls, d.p50_ns),
                (None, Some(s)) => {
                    let mut sorted = s.clone();
                    sorted.sort_unstable();
                    (s.len(), stats::percentile(&sorted, 0.5)? as f64)
                }
                (None, None) => (0, 0.0),
            };
            out.push(format!("{layer}.calls"), calls as f64, "count");
            out.push(format!("{layer}.mean_us"), self.mean_ns(layer) / 1e3, "us");
            out.push(format!("{layer}.p50_us"), p50_ns / 1e3, "us");
            out.push(
                format!("{layer}.share"),
                self.per_request_ns(layer) / end_to_end_ns,
                "ratio",
            );
        }
        Ok(())
    }

    /// The spans as Chrome trace-event JSON: one complete (`X`) event per
    /// call plus an enclosing `bench.request` event per replayed request,
    /// all on one thread, so viewers nest calls under their request.
    pub fn chrome_json(&self) -> String {
        let mut bounds: BTreeMap<u32, (i64, i64)> = BTreeMap::new();
        for s in &self.spans {
            let b = bounds
                .entry(s.request)
                .or_insert((s.start_ns, s.start_ns + s.dur_ns));
            b.0 = b.0.min(s.start_ns);
            b.1 = b.1.max(s.start_ns + s.dur_ns);
        }
        let event = |name: &str, request: u32, start_ns: i64, dur_ns: i64| {
            format!(
                "{{\"name\":\"{name}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"request\":{request}}}}}",
                start_ns as f64 / 1e3,
                dur_ns as f64 / 1e3
            )
        };
        let mut events: Vec<String> = bounds
            .iter()
            .map(|(&r, &(start, end))| event("bench.request", r, start, end - start))
            .collect();
        events.extend(self.spans.iter().map(|s| {
            event(
                &format!("bench.{}", s.name),
                s.request,
                s.start_ns,
                s.dur_ns,
            )
        }));
        format!("{{\"traceEvents\":[{}]}}\n", events.join(",\n"))
    }
}

/// `layer`'s mean over its floor's mean (`0` when either never ran).
fn floor_ratio(ledger: &Ledger, layer: &str, floor: &str) -> f64 {
    let (l, f) = (ledger.mean_ns(layer), ledger.mean_ns(floor));
    if l == 0.0 || f <= 0.0 {
        0.0
    } else {
        l / f
    }
}

/// Appends every per-layer metric: the layers, the registry counters of
/// the load window (`registry` is `None` without a daemon), the work
/// counters, the floor ratios, the `cold_mixed` compile tenant's mean
/// lateness and latency median (`(0, 0)` without one), the failed share of
/// the load, the end-to-end mean the shares are taken of, the unattributed
/// remainder, and the tracing overhead (spans per request × the recorder's
/// measured cost per span, as a share of the end-to-end mean).
pub fn emit_per_layer(
    ledger: &mut Ledger,
    end_to_end_ns: f64,
    registry: Option<RegistryStats>,
    (lateness_ns, compile_p50_ns): (f64, f64),
    out: &mut Outcome,
) -> Result<(), String> {
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    let m = &mut out.metrics;
    ledger.emit(end_to_end_ns, m)?;
    let (hits, canonical, misses, evictions) = registry.map_or((0, 0, 0, 0), |s| {
        (s.hits, s.canonical_hits, s.misses, s.evictions)
    });
    let lookups = hits + canonical + misses;
    m.push("registry.hits", hits as f64, "count");
    m.push("registry.canonical_hits", canonical as f64, "count");
    m.push("registry.misses", misses as f64, "count");
    m.push("registry.evictions", evictions as f64, "count");
    m.push(
        "registry.hit_ratio",
        hits as f64 / lookups.max(1) as f64,
        "ratio",
    );
    let implies = ledger.counted("core.minimize.implies_hits")
        + ledger.counted("core.minimize.implies_misses");
    let implies_rate = if implies > 0.0 {
        ledger.counted("core.minimize.implies_hits") / implies
    } else {
        0.0
    };
    m.push("core.minimize.implies_hit_rate", implies_rate, "ratio");
    m.push(
        "core.minimize.removed",
        ledger.per_call("core.minimize.removed", "core.minimize"),
        "count",
    );
    m.push(
        "petri.validate.assignments_checked",
        ledger.per_call("petri.validate.assignments_checked", "petri.validate"),
        "count",
    );
    m.push(
        "scheduler.simulate.constraint_checks",
        ledger.per_call("scheduler.simulate.constraint_checks", "scheduler.simulate"),
        "count",
    );
    m.push(
        "server.residual.floor_ratio",
        floor_ratio(ledger, "server.residual", "floor.loopback_rtt"),
        "ratio",
    );
    m.push(
        "registry.raw_hash.floor_ratio",
        floor_ratio(ledger, "registry.raw_hash", "floor.fnv"),
        "ratio",
    );
    m.push("load.lateness_us", lateness_ns / 1e3, "us");
    m.push("load.compile_p50_us", compile_p50_ns / 1e3, "us");
    m.push("failed_frac", failed_frac, "ratio");
    let overhead = ledger.spans_per_request() * ledger.span_cost_ns() / end_to_end_ns;
    m.push("e2e.mean_us", end_to_end_ns / 1e3, "us");
    m.push(
        "unattributed_us",
        ledger.unattributed_ns(end_to_end_ns) / 1e3,
        "us",
    );
    m.push("trace_overhead_frac", overhead, "ratio");
    Ok(())
}
