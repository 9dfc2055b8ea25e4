//! The shared prepared-artifact registry: one [`ProcessEntry`] per
//! distinct **canonical** process, behind a two-level cache keyed by
//! content hash and evicted LRU (`dscweaver_graph::lru`).
//!
//! Lookups run in two levels. The **raw memo** maps the FNV-1a hash of
//! the submitted text to its canonicalization result (canonical hash +
//! [`Renaming`]), so a repeated byte-identical request skips parsing
//! entirely. The **canonical cache** maps the canonical hash (see
//! [`crate::canon`]) to the compiled [`ProcessEntry`], so textual
//! variants of one process — reordered declarations, renamed services or
//! activities, whitespace, comments — share a single compiled entry. A
//! raw-miss/canonical-hit is counted in `canonical_hits` and surfaces as
//! `X-Cache: canonical` at the transport.
//!
//! An entry is everything the compile half of the pipeline produces,
//! cached in run-many form: the woven [`WeaverOutput`] and its
//! fingerprint, the Petri-net validation compile half
//! ([`CompiledValidation`]) and the scheduler's derived indexes
//! ([`ScheduleTables`]) — all in canonical names; responses are rendered
//! back into each tenant's names through the request's [`Renaming`].
//! Warm requests skip every compile stage and go straight to the run
//! halves, which are pinned bit-identical to the fresh-build paths by the
//! component crates' equivalence tests.

use crate::canon::{canonicalize, CanonicalForm, Renaming};
use crate::trace::{TraceConfig, Tracer};
use dscweaver_core::{DependencySet, Weaver, WeaverOutput};
use dscweaver_graph::lru::LruCache;
use dscweaver_model::Process;
use dscweaver_obs as obs;
use dscweaver_petri::{CompiledValidation, ValidateOptions, ValidationReport};
use dscweaver_scheduler::{PreparedSchedule, Schedule, ScheduleTables, SimConfig};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over the raw bytes of the submitted process text — the
/// first-level (raw memo) cache key, and, applied to canonical text, the
/// second-level key.
///
/// ```
/// use dscweaver_serve::registry::content_hash;
/// assert_eq!(content_hash("x"), content_hash("x"));
/// assert_ne!(content_hash("x"), content_hash("y"));
/// ```
pub fn content_hash(text: &str) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in text.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The prepared artifacts for one distinct canonical process, built once
/// on a cache miss and shared read-only (`Arc`) across request threads
/// and across tenants whose submissions canonicalize identically.
pub struct ProcessEntry {
    /// Canonical content hash (the second-level cache key).
    pub hash: u64,
    /// The canonical process (canonical names; see [`crate::canon`]).
    pub process: Process,
    /// The extracted dependency set the weave ran on (canonical names).
    pub dependencies: DependencySet,
    /// The full optimization output (SC, ASC, minimal set, exec
    /// conditions), in canonical names.
    pub output: WeaverOutput,
    /// [`WeaverOutput::fingerprint`] of the weave.
    pub fingerprint: u64,
    compiled: CompiledValidation,
    tables: ScheduleTables,
}

/// The weave configuration every serve request runs with.
pub(crate) fn weaver(threads: usize) -> Weaver {
    Weaver {
        threads,
        ..Weaver::new()
    }
}

/// Extracts the data/control dependency set of a process the way every
/// serve request does.
pub(crate) fn extract(process: &Process) -> DependencySet {
    dscweaver_pdg::extract(
        process,
        dscweaver_pdg::ExtractOptions {
            data: true,
            control: true,
            services_from_decls: false,
        },
    )
}

impl ProcessEntry {
    /// The specification front half alone: canonicalize the process text
    /// (parse + validate, with errors in the tenant's names), then
    /// extract the canonical revision's data/control dependency set —
    /// what `/v1/reweave` weaves.
    pub fn build_dependencies(text: &str) -> Result<DependencySet, String> {
        Ok(extract(&canonicalize(text)?.process()?))
    }

    /// Compiles the full entry from submitted process text: canonicalize
    /// → dependency extraction → weave → validation/scheduler compile
    /// halves.
    pub fn build(text: &str, threads: usize) -> Result<ProcessEntry, String> {
        Self::build_canonical(&canonicalize(text)?, threads)
    }

    /// Compiles the full entry from an already-computed canonical form,
    /// parsing the canonical process tree from its text. Runs under a
    /// `serve.compile` span.
    pub fn build_canonical(form: &CanonicalForm, threads: usize) -> Result<ProcessEntry, String> {
        let hash = form.hash;
        let _span = obs::span_with("serve.compile", || format!("hash={hash:016x}"));
        let _phase = crate::trace::phase("serve.compile");
        let t0 = std::time::Instant::now();
        let process = form.process()?;
        let dependencies = extract(&process);
        let output = weaver(threads)
            .run(&dependencies)
            .map_err(|e| format!("weave error: {e}"))?;
        let fingerprint = output.fingerprint();
        let compiled = CompiledValidation::compile(&output.minimal, &output.exec);
        let tables = ScheduleTables::derive(&output.minimal, &output.exec);
        obs::histogram("serve.compile").observe(t0.elapsed().as_nanos() as u64);
        Ok(ProcessEntry {
            hash,
            process,
            dependencies,
            output,
            fingerprint,
            compiled,
            tables,
        })
    }

    /// Runs the cached validation compile half. Bit-identical to a fresh
    /// `petri::validate` on the minimal set.
    pub fn validate(&self, threads: usize) -> ValidationReport {
        self.compiled.run(&ValidateOptions {
            threads,
            ..Default::default()
        })
    }

    /// Simulates the minimal set on the cached scheduler indexes, under a
    /// branch oracle in **canonical** guard names. Bit-identical to a
    /// fresh `scheduler::simulate`.
    pub fn simulate(&self, branches: &[(String, String)], threads: usize) -> Schedule {
        let mut sim = SimConfig {
            threads,
            ..SimConfig::default()
        };
        for (g, v) in branches {
            sim.oracle.insert(g.clone(), v.clone());
        }
        PreparedSchedule::with_tables(&self.output.minimal, &self.output.exec, &self.tables)
            .run(&sim)
    }
}

/// How a [`Registry::lookup_or_build`] was answered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LookupStatus {
    /// The raw-text memo knew this exact submission (no parse needed).
    Hit,
    /// New text, but it canonicalized onto an already-compiled entry
    /// (cross-tenant artifact sharing).
    Canonical,
    /// Compiled on this request.
    Miss,
}

/// A resolved lookup: the shared entry, the submission's identifier maps
/// (for rendering responses in the tenant's names), and how it was found.
pub struct Lookup {
    /// The shared prepared-artifact entry (canonical names).
    pub entry: Arc<ProcessEntry>,
    /// This submission's renaming onto the canonical form.
    pub renaming: Arc<Renaming>,
    /// Cache disposition.
    pub status: LookupStatus,
}

/// Counters the registry exposes via `/v1/stats`.
///
/// `hits`/`canonical_hits`/`misses`/`evictions`/`served`/`rejected` are
/// cumulative since daemon start; `entries`/`capacity`/`in_flight` are
/// instantaneous. `hits` counts raw-memo hits (byte-identical re-
/// submissions); `canonical_hits` counts raw-miss lookups answered by an
/// existing canonical entry (a textual variant sharing another tenant's
/// artifacts); `misses` counts compiles. `in_flight` counts only
/// **process-keyed** requests (weave, validate, simulate, reweave)
/// currently executing — read-only endpoints (`/v1/stats`, `/healthz`,
/// `/metrics`, `/v1/traces`) are never admitted into the gauge, so a
/// stats probe no longer counts itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RegistryStats {
    /// Canonical entries currently cached.
    pub entries: usize,
    /// Canonical LRU capacity.
    pub capacity: usize,
    /// Lookups answered from the raw-text memo.
    pub hits: u64,
    /// New-text lookups answered from an existing canonical entry.
    pub canonical_hits: u64,
    /// Lookups that had to compile.
    pub misses: u64,
    /// Canonical entries evicted by the LRU policy.
    pub evictions: u64,
    /// Process-keyed requests currently being served.
    pub in_flight: u64,
    /// Process-keyed requests completed (any status except 429).
    pub served: u64,
    /// Process-keyed requests rejected with `429` by the back-pressure
    /// ceiling.
    pub rejected: u64,
}

impl RegistryStats {
    /// The per-counter difference `self − earlier` for the cumulative
    /// fields; instantaneous fields (`entries`, `capacity`, `in_flight`)
    /// keep `self`'s values. This is what `/v1/stats?since=SEQ` returns.
    pub fn delta_since(&self, earlier: &RegistryStats) -> RegistryStats {
        RegistryStats {
            entries: self.entries,
            capacity: self.capacity,
            hits: self.hits - earlier.hits,
            canonical_hits: self.canonical_hits - earlier.canonical_hits,
            misses: self.misses - earlier.misses,
            evictions: self.evictions - earlier.evictions,
            in_flight: self.in_flight,
            served: self.served - earlier.served,
            rejected: self.rejected - earlier.rejected,
        }
    }
}

/// How many `/v1/stats` snapshots the registry retains for
/// `?since=SEQ` diffing.
pub const STATS_RING: usize = 64;

/// How many raw-text memos the registry keeps per canonical cache slot —
/// several textual variants of one process can stay memoized at once.
pub const RAW_MEMO_PER_ENTRY: usize = 4;

/// One raw-text memo: where this exact byte sequence canonicalized to.
struct RawMemo {
    canonical_hash: u64,
    renaming: Arc<Renaming>,
}

/// The shared, thread-safe artifact cache. Lookups go raw memo →
/// canonical cache → compile; misses compile outside the cache locks, so
/// concurrent misses on *different* processes compile in parallel. Two
/// racing misses on the *same* canonical process both compile and the
/// later insert wins — harmless, because entries for the same canonical
/// text are deterministic. Failed compiles (parse errors, conflicts) are
/// not cached.
pub struct Registry {
    // The cache locks recover from poisoning: each critical section is a
    // single LRU get or insert, so a panic elsewhere in a request cannot
    // leave a cache half-updated.
    raw: Mutex<LruCache<u64, RawMemo>>,
    inner: Mutex<LruCache<u64, Arc<ProcessEntry>>>,
    threads: usize,
    max_in_flight: u64,
    hits: AtomicU64,
    canonical_hits: AtomicU64,
    misses: AtomicU64,
    in_flight: AtomicU64,
    served: AtomicU64,
    rejected: AtomicU64,
    tracer: Tracer,
    stats_seq: AtomicU64,
    stats_ring: Mutex<VecDeque<(u64, RegistryStats)>>,
}

impl Registry {
    /// A registry evicting beyond `capacity` canonical entries (the raw
    /// memo holds [`RAW_MEMO_PER_ENTRY`]× as many text variants),
    /// compiling and running with the given worker-thread count (`0` =
    /// auto). Back-pressure is off (no in-flight ceiling) and request
    /// tracing is disabled; the daemon opts in via
    /// [`Registry::with_max_in_flight`] and [`Registry::with_trace_config`].
    pub fn new(capacity: usize, threads: usize) -> Registry {
        let capacity = capacity.max(1);
        Registry {
            raw: Mutex::new(LruCache::new(capacity * RAW_MEMO_PER_ENTRY)),
            inner: Mutex::new(LruCache::new(capacity)),
            threads,
            max_in_flight: 0,
            hits: AtomicU64::new(0),
            canonical_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            served: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            tracer: Tracer::new(TraceConfig::disabled()),
            stats_seq: AtomicU64::new(0),
            stats_ring: Mutex::new(VecDeque::new()),
        }
    }

    /// Sets the back-pressure ceiling: process-keyed requests beyond
    /// `max` concurrently in flight are rejected with `429` (`0` =
    /// unlimited).
    pub fn with_max_in_flight(mut self, max: u64) -> Registry {
        self.max_in_flight = max;
        self
    }

    /// Replaces the request tracer's tail-sampling configuration.
    pub fn with_trace_config(mut self, config: TraceConfig) -> Registry {
        self.tracer = Tracer::new(config);
        self
    }

    /// The worker-thread knob requests run with.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The back-pressure ceiling (`0` = unlimited).
    pub fn max_in_flight(&self) -> u64 {
        self.max_in_flight
    }

    /// The request tracer (tail-sampled span trees for `/v1/traces`).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Looks up an already-cached entry by **canonical** hash without
    /// building (this is what `/v1/reweave?base=` resolves).
    pub fn get(&self, hash: u64) -> Option<Arc<ProcessEntry>> {
        let mut cache = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        cache.get(&hash).cloned()
    }

    /// The hit-or-compile path every process-keyed request goes through:
    /// raw memo → canonical cache → compile.
    pub fn lookup_or_build(&self, text: &str) -> Result<Lookup, String> {
        let raw_hash = content_hash(text);
        {
            let _span = obs::span_with("serve.lookup", || format!("raw={raw_hash:016x}"));
            let _phase = crate::trace::phase("serve.lookup");
            let mut raw = self.raw.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(memo) = raw.get(&raw_hash) {
                // Lock order is always raw → inner.
                let mut cache = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
                if let Some(entry) = cache.get(&memo.canonical_hash) {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    obs::counter_add("serve.cache_hits", 1);
                    return Ok(Lookup {
                        entry: entry.clone(),
                        renaming: memo.renaming.clone(),
                        status: LookupStatus::Hit,
                    });
                }
                // The canonical entry was evicted under this memo: fall
                // through to the slow path, which re-compiles and
                // refreshes the memo.
            }
        }
        let form = canonicalize(text)?;
        let cached = {
            let mut cache = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
            cache.get(&form.hash).cloned()
        };
        let (entry, status) = match cached {
            Some(entry) => {
                self.canonical_hits.fetch_add(1, Ordering::Relaxed);
                obs::counter_add("serve.canonical_hits", 1);
                (entry, LookupStatus::Canonical)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                obs::counter_add("serve.cache_misses", 1);
                let entry = Arc::new(ProcessEntry::build_canonical(&form, self.threads)?);
                let mut cache = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
                let before = cache.evictions();
                cache.insert(form.hash, entry.clone());
                let evicted = cache.evictions() - before;
                drop(cache);
                if evicted > 0 {
                    obs::counter_add("serve.evictions", evicted);
                }
                (entry, LookupStatus::Miss)
            }
        };
        // The renaming moves into the memo's `Arc`; the canonical text is
        // not kept.
        let renaming = Arc::new(form.renaming);
        self.memoize_raw(raw_hash, form.hash, &renaming);
        Ok(Lookup {
            entry,
            renaming,
            status,
        })
    }

    fn memoize_raw(&self, raw_hash: u64, canonical_hash: u64, renaming: &Arc<Renaming>) {
        let mut raw = self.raw.lock().unwrap_or_else(PoisonError::into_inner);
        raw.insert(
            raw_hash,
            RawMemo {
                canonical_hash,
                renaming: renaming.clone(),
            },
        );
    }

    /// Marks a process-keyed request entering service; pair with
    /// [`Registry::leave`]. Returns the in-flight count *including* this
    /// request, which the service layer compares against
    /// [`Registry::max_in_flight`] for the 429 admission decision.
    pub fn enter(&self) -> u64 {
        let now = self.in_flight.fetch_add(1, Ordering::Relaxed) + 1;
        obs::gauge_set("serve.in_flight", now as f64);
        now
    }

    /// Marks a process-keyed request leaving service.
    pub fn leave(&self) {
        let now = self.in_flight.fetch_sub(1, Ordering::Relaxed) - 1;
        obs::gauge_set("serve.in_flight", now as f64);
    }

    /// Counts one completed process-keyed request.
    pub fn note_served(&self) {
        self.served.fetch_add(1, Ordering::Relaxed);
        obs::counter_add("serve.served", 1);
    }

    /// Counts one request rejected by the back-pressure ceiling.
    pub fn note_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
        obs::counter_add("serve.rejected", 1);
    }

    /// A consistent snapshot of the cache counters.
    pub fn stats(&self) -> RegistryStats {
        let cache = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        RegistryStats {
            entries: cache.len(),
            capacity: cache.capacity(),
            hits: self.hits.load(Ordering::Relaxed),
            canonical_hits: self.canonical_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: cache.evictions(),
            in_flight: self.in_flight.load(Ordering::Relaxed),
            served: self.served.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
        }
    }

    /// The `/v1/stats` snapshot-diff protocol: stamps a fresh snapshot
    /// sequence number, retains the cumulative counters in a bounded ring
    /// (last [`STATS_RING`] snapshots), and returns `(seq, stats)` —
    /// cumulative when `since` is `None`, or the counter delta relative
    /// to the earlier snapshot `since` refers to. An unknown or evicted
    /// `since` is an error (the client should re-baseline with a plain
    /// `/v1/stats`).
    pub fn stats_since(&self, since: Option<u64>) -> Result<(u64, RegistryStats), String> {
        let now = self.stats();
        let seq = self.stats_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let mut ring = self.stats_ring.lock().unwrap_or_else(PoisonError::into_inner);
        let out = match since {
            None => now,
            Some(s) => {
                let earlier = ring
                    .iter()
                    .find(|(q, _)| *q == s)
                    .map(|(_, stats)| *stats)
                    .ok_or_else(|| {
                        format!("unknown stats snapshot {s} (expired or never issued; re-baseline with GET /v1/stats)")
                    })?;
                now.delta_since(&earlier)
            }
        };
        if ring.len() >= STATS_RING {
            ring.pop_front();
        }
        ring.push_back((seq, now));
        Ok((seq, out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROC: &str = "process P {\n var x;\n sequence { assign a writes x; assign b reads x; }\n}";

    #[test]
    fn lookups_survive_a_panic_that_poisoned_the_caches() {
        let reg = Registry::new(4, 1);
        let warm = reg.lookup_or_build(PROC).unwrap().entry.hash;
        std::thread::scope(|scope| {
            let raw = scope.spawn(|| {
                let _held = reg.raw.lock().unwrap();
                panic!("poison the raw memo");
            });
            assert!(raw.join().is_err());
            let inner = scope.spawn(|| {
                let _held = reg.inner.lock().unwrap();
                panic!("poison the canonical cache");
            });
            assert!(inner.join().is_err());
        });
        assert!(reg.inner.is_poisoned() && reg.raw.is_poisoned());
        let hit = reg.lookup_or_build(PROC).unwrap();
        assert_eq!((hit.status, hit.entry.hash), (LookupStatus::Hit, warm));
        let other = "process Q {\n var y;\n sequence { assign c writes y; assign d reads y; assign e reads y; }\n}";
        assert_eq!(reg.lookup_or_build(other).unwrap().status, LookupStatus::Miss);
        assert!(reg.get(warm).is_some());
        assert_eq!(reg.stats().misses, 2);
    }

    #[test]
    fn lookup_compiles_then_hits() {
        let reg = Registry::new(4, 1);
        let first = reg.lookup_or_build(PROC).unwrap();
        assert_eq!(first.status, LookupStatus::Miss);
        let second = reg.lookup_or_build(PROC).unwrap();
        assert_eq!(second.status, LookupStatus::Hit);
        assert!(Arc::ptr_eq(&first.entry, &second.entry));
        let stats = reg.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert_eq!(stats.canonical_hits, 0);
    }

    #[test]
    fn textual_variants_share_one_canonical_entry() {
        let reg = Registry::new(4, 1);
        let first = reg.lookup_or_build(PROC).unwrap();
        // Renamed identifiers + comment + whitespace: new raw text, same
        // canonical process.
        let variant =
            "process Q { # variant\n var y;\n sequence { assign a1 writes y;\n   assign b1 reads y; }\n}";
        assert_ne!(content_hash(PROC), content_hash(variant));
        let shared = reg.lookup_or_build(variant).unwrap();
        assert_eq!(shared.status, LookupStatus::Canonical);
        assert!(Arc::ptr_eq(&first.entry, &shared.entry));
        // Each submission keeps its own names for rendering.
        assert_eq!(first.renaming.original("p0"), Some("P"));
        assert_eq!(shared.renaming.original("p0"), Some("Q"));
        // Re-submitting the variant byte-identically is now a raw hit.
        assert_eq!(reg.lookup_or_build(variant).unwrap().status, LookupStatus::Hit);
        let stats = reg.stats();
        assert_eq!(
            (stats.hits, stats.canonical_hits, stats.misses, stats.entries),
            (1, 1, 1, 1)
        );
    }

    #[test]
    fn eviction_recompiles_and_matches() {
        let reg = Registry::new(1, 1);
        let first = reg.lookup_or_build(PROC).unwrap();
        // A second distinct process evicts the first (capacity 1).
        let other = PROC.replace("assign b reads x;", "assign b reads x; assign c reads x;");
        reg.lookup_or_build(&other).unwrap();
        assert_eq!(reg.stats().evictions, 1);
        assert!(reg.get(first.entry.hash).is_none());
        // Re-requesting recompiles to identical artifacts (the stale raw
        // memo does not resurrect the evicted entry).
        let again = reg.lookup_or_build(PROC).unwrap();
        assert_eq!(again.status, LookupStatus::Miss);
        assert_eq!(again.entry.hash, first.entry.hash);
        assert_eq!(again.entry.fingerprint, first.entry.fingerprint);
        assert_eq!(
            again.entry.output.minimal.to_dscl(),
            first.entry.output.minimal.to_dscl()
        );
    }

    #[test]
    fn bad_process_is_an_error_not_a_cache_entry() {
        let reg = Registry::new(4, 1);
        assert!(reg.lookup_or_build("process {").is_err());
        assert_eq!(reg.stats().entries, 0);
    }

    #[test]
    fn stats_since_diffs_against_the_named_snapshot() {
        let reg = Registry::new(4, 1);
        reg.lookup_or_build(PROC).unwrap();
        let (seq1, baseline) = reg.stats_since(None).unwrap();
        assert_eq!((baseline.hits, baseline.misses), (0, 1));
        reg.lookup_or_build(PROC).unwrap();
        reg.lookup_or_build(PROC).unwrap();
        let (seq2, delta) = reg.stats_since(Some(seq1)).unwrap();
        assert!(seq2 > seq1);
        // Only the activity since the baseline snapshot.
        assert_eq!((delta.hits, delta.misses, delta.evictions), (2, 0, 0));
        // Instantaneous fields stay absolute.
        assert_eq!(delta.entries, 1);
        // Unknown tokens are an explicit error, not silently cumulative.
        assert!(reg.stats_since(Some(9999)).is_err());
    }
}
