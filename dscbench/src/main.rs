//! # dscbench
//!
//! The end-to-end benchmark of the weaver daemon (`dscweaver-serve`) and
//! the offline weave, with a per-layer ledger that says where an
//! operation's time goes. One run measures one workload in its own
//! process, so `setup_s` and `peak_rss_mb` belong to that workload:
//!
//! ```text
//! cargo run --release --manifest-path dscbench/Cargo.toml -- \
//!     --workload warm_keepalive --seed 1 --seconds 25 --trace 0
//! ```
//!
//! A run checks the outputs, prints every metric by name with its unit,
//! and ends with one JSON line: `correct`, `attempted`, `failed` and
//! `metrics` (`{name: {value, unit}}`). `--trace 0` reports the
//! end-to-end metrics; `--trace 1` applies the same load, replays seeded
//! requests through the public call of each layer, reports the per-layer
//! metrics and writes the replay's spans as Chrome trace-event JSON
//! (`--trace-out PATH`, by default `.bench_out/dscbench-<workload>-<seed>.json`).
//! Any failed check prints the result with `"correct": false` and exits 1;
//! a statistic that lacks samples fails the run without a result. The seed
//! drives every generated input and every request order; the program only
//! sees the generated inputs. `--smoke` shrinks inputs and windows to about
//! a second for the smoke test.
//!
//! ## Workloads
//!
//! The daemon is an in-process `Server` with one worker (`threads: 1`),
//! driven over loopback TCP by one client thread of this process that
//! polls a non-blocking socket ([`conn`]). The box has two vCPUs: the
//! client and the daemon's event loop keep one busy each, and nothing in
//! the load sleeps, so no request waits for the host to wake a vCPU. With
//! two workers the event loop spawns a thread per connection on every
//! tick, and on this shared VM the waits for those threads swung request
//! times by up to 2.5x with the neighbours' load, more than any change to
//! the daemon would; the benchmark does not measure that configuration.
//! Each window follows one second of unrecorded warm-up.
//!
//! * **`warm_keepalive`** — closed loop on one keep-alive connection; 70%
//!   weave, 20% simulate (`?branch=g<i>:T|F`), 10% validate over 2,048
//!   distinct processes pre-warmed into a 4,096-entry cache. Every request
//!   hits the raw memo, so transport, lookup, run and render-back do all
//!   the work: the bypass case for canonicalization and compile changes.
//! * **`variant_canon`** — closed loop on one keep-alive connection; each
//!   request weaves a never-seen alpha-variant (identifiers renamed with a
//!   seed- and counter-derived tag) of one of 256 pre-warmed bases. The
//!   raw memo always misses and the canonical cache always hits:
//!   canonicalize and render-back run on every request, compile never, and
//!   every request writes a raw-memo entry beside the reads.
//! * **`cold_mixed`** — two tenants on one 1,024-entry cache, so the LRU
//!   evicts continuously, driven by the one client thread. The warm tenant
//!   is a closed loop on one keep-alive connection over 256 warm
//!   processes. Compile requests fall due at a fixed 200 req/s (an open
//!   loop), each a never-seen process on a fresh connection, sent as soon
//!   as the warm request in flight returns and timed from the due time.
//!   Accept, canonicalize, compile and registry insert/evict take turns
//!   with warm reads; the compile load is fixed, so the share of the
//!   client's time it takes is the compile path's cost, and a faster
//!   compile path raises the warm tenant's throughput.
//! * **`weave_offline`** — in-process, no daemon, one caller on one
//!   engine thread. Jobs rotate over 64 seeded `layered` processes
//!   (n = 403, 3 guards); a job is a `Weaver` session weave,
//!   `CompiledValidation::compile` + `run`, `ScheduleTables::derive` +
//!   `PreparedSchedule::run`, and one `EditProfile::LevelStable`
//!   single-edit re-weave. Closure, greedy minimization, validation and
//!   scheduling dominate while no serve layer runs: the bypass case for
//!   transport and canonicalization changes, and the track of the
//!   incremental re-weave.
//!
//! ## End-to-end metrics
//!
//! Every workload reports all five, so each has one meaning per workload:
//!
//! | metric | `warm_keepalive`, `variant_canon` | `cold_mixed` | `weave_offline` |
//! |---|---|---|---|
//! | `throughput` (1/s) | requests | warm-tenant requests | jobs |
//! | `latency_p50_us` | request round trip | warm-tenant round trip | job |
//! | `latency_tail_us` | p95 of the same | p95 of the same | p90 of the same |
//! | `setup_s` | inputs, daemon start, pre-warm | the same | inputs, one weave of each process |
//! | `peak_rss_mb` | `VmHWM` after the first set-up and the window | the same | the same |
//!
//! Times are reference times ([`calib`]). The box is a VM shared with
//! other tenants, and its speed drifts by tens of per cent over seconds
//! to hours. So a window (`--seconds`) is cut into slices of about 250
//! ms; between slices the load pauses while a fixed memory-bound kernel
//! runs on as many threads as the workload keeps busy (two on the daemon
//! workloads, one on `weave_offline`), and each slice's times are scaled
//! by the kernel's reference time over its measured time around the
//! slice. A change to the program moves the slice and not the kernel;
//! drift of the box moves both. `throughput` is the median slice's rate,
//! in operations per reference second. The latency median is over every
//! operation of the window. The tail is the median, over blocks of
//! consecutive operations with ten beyond the tail (200 for a p95, 100
//! for a p90), of each block's tail, so a burst of stalls moves only the
//! blocks it overlaps; a window too short to fill one block runs on until
//! it does. The daemon tail is a p95, not a p99, because the VM's periodic
//! vCPU stalls delay about 2% of requests (see `daemon::TAIL`).
//! Percentiles are exact nearest-rank order statistics over the scaled
//! samples ([`stats::percentile`]). `setup_s`
//! is the median of three set-ups, each scaled by the median of five
//! kernel runs before it and five after it (a set-up of 0.1 s is too short
//! to outlast a stall of the host that lands on a single kernel run): the
//! first set-up before the window, two more after it, so the peak resident
//! set holds one set-up only. `peak_rss_mb` is not scaled.
//! Failures (errors, refusals, wrong answers) are counted in `failed`
//! against `attempted`; the workloads are built so that none occur.
//!
//! Correctness gates, all before the result is printed: every daemon body
//! equals its process's pre-warm body (for a variant, with the tag
//! substituted); every `X-Cache` matches the design (`hit` on warm
//! requests, `canonical` on variants, `miss` on compile requests); a seeded
//! sample of bodies per stream equals `service::oneshot`; every job's
//! minimal set validates and simulates to completion and its re-weave
//! takes the delta path; and for a seeded sample of jobs the re-woven
//! output and fingerprint equal a fresh weave of the edited revision.
//!
//! ## The per-layer ledger (`--trace 1`)
//!
//! After the load, the run replays 5,000 seeded requests (200 jobs on
//! `weave_offline`) in the same mix, one at a time, against the daemon's
//! own registry. Each request runs twice: once through the whole
//! in-process path untraced (`http::parse_buffered`, `service::parse`,
//! `service::handle`, `http::render_response`), once as one timed public
//! call per layer, each wrapped in a `bench.<layer>` span. Variants and
//! compile requests use a second never-seen text for the second pass, so
//! both see the same cache state. Each layer reports `.calls`, `.mean_us`
//! (per call), `.p50_us` and `.share` (its time per replayed request over
//! the end-to-end mean `e2e.mean_us`, the mean over every request of the
//! load window, all tenants). Per-layer times are wall times, not scaled.
//!
//! | layer | timed call | should move | on |
//! |---|---|---|---|
//! | `server.residual` | load mean − untraced in-process mean (p50: difference of medians): event-loop ticks, syscalls, the loopback transfer, lock waits | `throughput`, `latency_p50_us`, `latency_tail_us` | all daemon workloads |
//! | `floor.loopback_rtt` | polled echo of the request and response sizes from the replay thread (fresh connection for compile requests) | floor of `server.residual` | daemon workloads |
//! | `http.frame`, `http.render` | `http::parse_buffered`, `http::render_response` | `throughput` | `warm_keepalive` (each about 1 µs: no visible change predicted) |
//! | `service.decode` | `service::parse` | `latency_p50_us` | `warm_keepalive` |
//! | `service.handle` | `service::handle` (untraced pass) minus its separately timed parts | `latency_p50_us` | `warm_keepalive` |
//! | `registry.raw_hash` | `registry::content_hash` | `latency_p50_us` | `warm_keepalive` |
//! | `floor.fnv` | FNV-1a over the body bytes, written out | floor of `registry.raw_hash` | daemon workloads |
//! | `registry.lookup` | `Registry::lookup_or_build` minus raw hash, canonicalize and compile | `latency_tail_us` | `warm_keepalive`, `variant_canon` |
//! | `canon.canonicalize` | `canon::canonicalize` | `throughput`, `latency_p50_us` | `variant_canon`, `cold_mixed`; none on `warm_keepalive` |
//! | `dscl.to_dscl`, `canon.render_original` | `ConstraintSet::to_dscl`, `Renaming::render_original` (render-back) | `throughput` | `warm_keepalive`, `variant_canon` |
//! | `registry.compile` | `ProcessEntry::build_canonical` minus its parts below | `throughput`, `setup_s`, `peak_rss_mb` | `cold_mixed`; `setup_s` everywhere |
//! | `pdg.extract`, `core.merge`, `core.exec_conditions`, `core.translate` | `pdg::extract`; `merge` + `validate` + `desugar_happen_together`; `ExecConditions::derive`; `translate_services` | as `registry.compile` | `cold_mixed` |
//! | `core.minimize` | `minimize_with` (one thread, as the session's greedy pass) | `throughput` on `cold_mixed`; `throughput`, `latency_p50_us` on `weave_offline` | `cold_mixed`, `weave_offline` |
//! | `petri.compile`, `scheduler.tables` | `CompiledValidation::compile`, `ScheduleTables::derive` | as `registry.compile`; job latency | `cold_mixed`, `weave_offline` |
//! | `core.reweave` | `WeaveSession::weave` of the edited revision | `latency_p50_us` | `weave_offline` |
//! | `petri.validate`, `scheduler.simulate` | `ProcessEntry::validate` / `CompiledValidation::run`, `ProcessEntry::simulate` / `PreparedSchedule::run` | `latency_p50_us` | `warm_keepalive`, `weave_offline` |
//!
//! Beside the layers: `registry.hits`, `.canonical_hits`, `.misses`,
//! `.evictions` and `.hit_ratio` over the load window;
//! `core.minimize.implies_hit_rate` and `.removed` (per call);
//! `petri.validate.assignments_checked` and
//! `scheduler.simulate.constraint_checks` (per call); each layer's ratio
//! to its floor (`server.residual.floor_ratio`,
//! `registry.raw_hash.floor_ratio`); `load.lateness_us` and
//! `load.compile_p50_us`, the compile tenant's mean lateness and latency
//! median from the due time; `failed_frac`; `unattributed_us`, the
//! end-to-end mean minus the layers' per-request sum (floors excluded);
//! and `trace_overhead_frac`, spans per request times the recorder's
//! measured cost per span over the end-to-end mean.
//!
//! What the replay can and cannot attribute:
//!
//! * It runs one request at a time on an idle daemon, so everything that
//!   exists only under load — lock waits in the registry, the event loop's
//!   tick, the loopback transfer — lands in `server.residual`.
//! * Self times (`service.handle`, `registry.lookup`,
//!   `registry.compile`) are remainders of calls timed in separate
//!   executions, so they are estimates and can come out negative; on the
//!   daemon workloads `unattributed_us` is therefore only the drift
//!   between the two passes (a few tenths of a microsecond).
//! * `minimize_with` does closure and greedy minimization in one call, so
//!   the two are not split. On `weave_offline` the per-layer calls stand
//!   in for the session's initial weave (whose memo recording is not
//!   among them), and the replayed jobs run after the load's, so
//!   `unattributed_us` there is the difference of the two, of either
//!   sign (+8% of the job in `dscbench/LEDGER.md`, which holds one
//!   traced run of each workload).
//!
//! ## Measured spread
//!
//! Two sets of ten runs of `BENCHMARK.json`'s command from a clean
//! checkout (seeds 5001–5010, then 6001–6010, each set alternating the
//! workload order run by run), 25 s windows, on a shared 2-vCPU Intel
//! Xeon VM. Interquartile range over the median, set A / set B (medians,
//! quartiles and the drift between the sets are in `LEDGER.md`):
//!
//! | workload | `throughput` | `latency_p50_us` | `latency_tail_us` | `setup_s` | `peak_rss_mb` |
//! |---|---|---|---|---|---|
//! | `warm_keepalive` | 0.05 / 0.03 | 0.06 / 0.04 | 0.08 / 0.04 | 0.08 / 0.11 | 0.00 / 0.00 |
//! | `variant_canon` | 0.08 / 0.07 | 0.12 / 0.08 | 0.08 / 0.06 | 0.11 / 0.06 | 0.02 / 0.01 |
//! | `cold_mixed` | 0.18 / 0.10 | 0.08 / 0.03 | 0.13 / 0.08 | 0.10 / 0.12 | 0.01 / 0.01 |
//! | `weave_offline` | 0.09 / 0.04 | 0.09 / 0.05 | 0.11 / 0.04 | 0.06 / 0.06 | 0.00 / 0.00 |
//!
//! No median of set B was more than 5.4% worse than set A's (`variant_canon`
//! `setup_s`). The widest spreads are set A's: its first three rounds of
//! runs read up to a fifth faster than the rest on every workload, a shift
//! of the host that the kernel did not follow. In an earlier pair of sets
//! of the same code with a p99 tail, every spread but those of `setup_s`
//! was at most 0.08, except `variant_canon`'s p99 at 0.11 / 0.13: the
//! reason the daemon tail is the p95.

mod calib;
mod conn;
mod daemon;
mod ledger;
mod offline;
mod procs;
mod stats;

use daemon::Daemon;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = [
    "warm_keepalive",
    "variant_canon",
    "cold_mixed",
    "weave_offline",
];

/// Longest `--seconds` accepted: the `cold_mixed` compile tenant then
/// stays within its supply of never-seen processes.
const MAX_SECONDS: f64 = 120.0;

fn usage() -> String {
    format!(
        "usage: dscbench --workload <{}> --seed <N> [--seconds <S>] [--trace <0|1>] [--trace-out <PATH>] [--smoke]",
        WORKLOADS.join("|")
    )
}

/// One run's settings, from the command line.
pub struct Config {
    workload: &'static str,
    /// Drives every generated input and every request order.
    pub seed: u64,
    seconds: f64,
    /// `false`: the end-to-end metrics; `true`: the per-layer metrics of
    /// a traced replay.
    pub trace: bool,
    trace_out: Option<PathBuf>,
    /// Tiny inputs and short windows, for the smoke test.
    pub smoke: bool,
}

impl Config {
    fn parse(args: &[String]) -> Result<Config, String> {
        let mut cfg = Config {
            workload: "",
            seed: 0,
            seconds: 25.0,
            trace: false,
            trace_out: None,
            smoke: false,
        };
        let mut seed = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if flag == "--smoke" {
                cfg.smoke = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    cfg.workload = WORKLOADS
                        .iter()
                        .find(|w| *w == value)
                        .ok_or_else(|| format!("unknown workload '{value}'"))?;
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed '{value}'"))?),
                "--seconds" => {
                    cfg.seconds = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| *s > 0.0 && *s <= MAX_SECONDS)
                        .ok_or_else(|| format!("bad seconds '{value}'"))?;
                }
                "--trace" => {
                    cfg.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad trace '{value}' (want 0 or 1)")),
                    };
                }
                "--trace-out" => cfg.trace_out = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown flag '{flag}'")),
            }
        }
        if cfg.workload.is_empty() {
            return Err("--workload is required".into());
        }
        cfg.seed = seed.ok_or("--seed is required")?;
        if cfg.smoke {
            cfg.seconds = cfg.seconds.min(1.0);
        }
        Ok(cfg)
    }

    /// Set-ups per run: the reported `setup_s` is their median.
    fn setup_reps(&self) -> usize {
        if self.trace {
            1
        } else {
            3
        }
    }

    /// Unrecorded traffic between set-up and the measured window.
    fn warmup(&self) -> Window {
        let secs = if self.smoke { 0.2 } else { 1.0 };
        Window::new(Duration::from_secs_f64(secs))
    }

    /// The next slice of the measured window after those already in
    /// `load`, or `None` when the window is over. Slices last about
    /// [`SLICE`], and the load pauses between them for the calibration
    /// kernel. The window lasts `--seconds`, then runs on slice by slice
    /// until its operations fill one block of the `tail` quantile, which
    /// only a short or slow run (a smoke test) needs.
    fn next_slice(&self, load: &stats::Scaled, tail: f64) -> Option<Window> {
        let n = (self.seconds / SLICE.as_secs_f64()).ceil().max(1.0);
        let more = load.slices() < n as usize || load.operations() < stats::block_size(tail);
        more.then(|| Window::new(Duration::from_secs_f64(self.seconds / n)))
    }

    /// Daemon requests replayed through the per-layer calls.
    fn replay_requests(&self) -> usize {
        if self.smoke {
            200
        } else {
            5000
        }
    }

    /// Offline jobs replayed through the per-layer calls.
    fn replay_jobs(&self) -> u64 {
        if self.smoke {
            20
        } else {
            200
        }
    }

    /// Writes the replay's spans as Chrome trace-event JSON, by default to
    /// `.bench_out/dscbench-<workload>-<seed>.json`.
    fn write_trace(&self, ledger: &ledger::Ledger) -> Result<(), String> {
        let path = self.trace_out.clone().unwrap_or_else(|| {
            PathBuf::from(format!(
                ".bench_out/dscbench-{}-{}.json",
                self.workload, self.seed
            ))
        });
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(&path, ledger.chrome_json())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("dscbench: wrote {}", path.display());
        Ok(())
    }
}

/// Length of a slice of the measured window: short enough that the box's
/// speed holds steady across one, long enough that the calibration
/// between slices costs about a hundredth of the window.
const SLICE: Duration = Duration::from_millis(250);

/// A stretch of traffic: it stops at its deadline.
pub struct Window {
    /// When the window opened.
    pub start: Instant,
    deadline: Instant,
}

impl Window {
    fn new(length: Duration) -> Window {
        let now = Instant::now();
        Window {
            start: now,
            deadline: now + length,
        }
    }

    /// Nanoseconds from the window's start to `at`.
    pub fn offset(&self, at: Instant) -> i64 {
        at.saturating_duration_since(self.start).as_nanos() as i64
    }

    /// Whether traffic continues at `now`.
    pub fn more(&self, now: Instant) -> bool {
        now < self.deadline
    }
}

/// Metrics in report order: name, value, unit.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Appends one metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

/// What a run measured and what its checks found.
#[derive(Default)]
pub struct Outcome {
    /// Operations sent in the measured window.
    pub attempted: u64,
    /// Operations that errored, were refused, or returned a wrong answer.
    pub failed: u64,
    /// Every check that failed (the run is correct when empty).
    pub errors: Vec<String>,
    /// The reported metrics.
    pub metrics: Metrics,
    /// Sample counts behind the percentiles, for the human-readable table.
    notes: Vec<String>,
}

impl Outcome {
    /// Appends the load metrics in reference time: `throughput`, the
    /// median slice's rate, the latency median and `tail` quantile, and
    /// the peak resident set so far.
    pub fn load(&mut self, load: &stats::Scaled, tail: f64) -> Result<(), String> {
        let (p50_ns, tail_ns, samples) = load.percentiles(tail)?;
        let m = &mut self.metrics;
        m.push("throughput", load.throughput()?, "1/s");
        m.push("latency_p50_us", p50_ns / 1e3, "us");
        m.push("latency_tail_us", tail_ns / 1e3, "us");
        m.push("peak_rss_mb", peak_rss_bytes()? / 1e6, "MB");
        self.notes.push(format!(
            "throughput: median of {} slices; p50 of {samples} operations; p{} the median of blocks of {}",
            load.slices(),
            tail * 100.0,
            stats::block_size(tail)
        ));
        Ok(())
    }

    /// Appends `setup_s`, the median of the set-up times, each in
    /// reference nanoseconds.
    pub fn setup(&mut self, setup_ns: &[f64]) {
        self.metrics
            .push("setup_s", stats::median(setup_ns.to_vec()) / 1e9, "s");
        self.notes
            .push(format!("setup: median of {} set-ups", setup_ns.len()));
    }
}

/// The process's peak resident set (`VmHWM`) in bytes.
fn peak_rss_bytes() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb * 1024.0)
}

fn run(cfg: &Config) -> Result<Outcome, String> {
    match cfg.workload {
        "warm_keepalive" => daemon::run(Daemon::WarmKeepalive, cfg),
        "variant_canon" => daemon::run(Daemon::VariantCanon, cfg),
        "cold_mixed" => daemon::run(Daemon::ColdMixed, cfg),
        _ => offline::run(cfg),
    }
}

/// The result line: one JSON object with every metric and its unit.
fn result_json(out: &Outcome, correct: bool) -> String {
    let metrics: Vec<String> = out
        .metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match Config::parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("dscbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let out = match run(&cfg) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("dscbench: {} failed: {e}", cfg.workload);
            return ExitCode::FAILURE;
        }
    };
    if let Some((name, _, _)) = out.metrics.0.iter().find(|(_, v, _)| !v.is_finite()) {
        eprintln!("dscbench: metric {name} is not finite");
        return ExitCode::FAILURE;
    }
    for e in &out.errors {
        eprintln!("dscbench: check failed: {e}");
    }
    let correct = out.errors.is_empty();
    println!(
        "dscbench {} seed={} trace={} attempted={} failed={}",
        cfg.workload, cfg.seed, cfg.trace as u8, out.attempted, out.failed
    );
    for (name, value, unit) in &out.metrics.0 {
        println!("  {name:<44} {value:>16.4} {unit}");
    }
    for note in &out.notes {
        println!("  ({note})");
    }
    println!("{}", result_json(&out, correct));
    if correct && out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
