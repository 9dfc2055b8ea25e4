//! The daemon workloads: an in-process `Server` (`threads: 1`) driven over
//! loopback TCP by one polling client thread, on one keep-alive connection
//! plus, on `cold_mixed`, a fresh connection per compile request.

use crate::calib;
use crate::conn::{self, Conn};
use crate::ledger::{self, Ledger};
use crate::procs::{self, Tags};
use crate::stats::{self, Scaled};
use crate::{Config, Outcome, Window};
use dscweaver_prng::Rng;
use dscweaver_serve::http::{parse_buffered, render_response, MAX_BODY};
use dscweaver_serve::registry::{content_hash, LookupStatus, ProcessEntry, Registry};
use dscweaver_serve::service::{self, handle, oneshot, Request, Response};
use dscweaver_serve::{canonicalize, Reply, ServeConfig, Server};
use std::borrow::Cow;
use std::net::{SocketAddr, TcpListener};
use std::time::{Duration, Instant};

/// Server worker threads, and the thread knob of every in-process call.
/// With one worker the event loop serves on its own thread; with more it
/// spawns a thread per connection on every tick, and on a shared virtual
/// machine the waits for those threads swing with the host's load far
/// beyond anything the calibration tracks.
pub const THREADS: usize = 1;

/// Threads that pre-warm the cache in set-up.
const SETUP_THREADS: usize = 2;

/// Threads the load keeps busy: the polling client and the daemon's event
/// loop, which spins while it holds a connection.
const BUSY_THREADS: usize = 2;

/// Request rate of the `cold_mixed` compile tenant.
const COLD_RATE: f64 = 200.0;

/// At most this many bodies per stream are re-checked against
/// `service::oneshot` after the window; each request is picked with
/// probability `1 / SAMPLE_EVERY`, the first one always.
const SAMPLES_PER_STREAM: usize = 16;
const SAMPLE_EVERY: usize = 256;

/// Failed checks kept per stream for the report (all are counted).
const ERRORS_PER_STREAM: usize = 4;

/// Which daemon workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Daemon {
    /// Closed loop, one keep-alive connection, raw-memo hits only.
    WarmKeepalive,
    /// Closed loop, one keep-alive connection, never-seen alpha-variants.
    VariantCanon,
    /// A warm closed-loop tenant beside an open-loop compile tenant.
    ColdMixed,
}

impl Daemon {
    /// Pre-warmed processes and the daemon's cache capacity.
    fn shape(self, smoke: bool) -> (usize, usize) {
        match (self, smoke) {
            (Daemon::WarmKeepalive, false) => (2048, 4096),
            (Daemon::WarmKeepalive, true) => (64, 128),
            (_, false) => (256, 1024),
            (_, true) => (32, 1024),
        }
    }
}

/// One request kind of the warm mix: 70% weave, 20% simulate (either
/// branch), 10% validate.
#[derive(Clone, Copy, Debug)]
enum Kind {
    Weave,
    Validate,
    Simulate(bool),
}

const KINDS: [Kind; 4] = [
    Kind::Weave,
    Kind::Validate,
    Kind::Simulate(true),
    Kind::Simulate(false),
];

impl Kind {
    fn pick(rng: &mut Rng) -> Kind {
        match rng.random_range(10) {
            0..=6 => Kind::Weave,
            7 | 8 => Kind::Simulate(rng.random_bool(0.5)),
            _ => Kind::Validate,
        }
    }

    fn slot(self) -> usize {
        match self {
            Kind::Weave => 0,
            Kind::Validate => 1,
            Kind::Simulate(true) => 2,
            Kind::Simulate(false) => 3,
        }
    }

    fn target(self, guard: &str) -> String {
        match self {
            Kind::Weave => "/v1/weave".into(),
            Kind::Validate => "/v1/validate".into(),
            Kind::Simulate(t) => {
                format!("/v1/simulate?branch={guard}:{}", if t { "T" } else { "F" })
            }
        }
    }
}

/// A pre-warmed process: its text, the target of each kind, and the body
/// the pre-warm got for each kind (only `weave` for `variant_canon`).
struct WarmProc {
    index: usize,
    text: String,
    targets: Vec<String>,
    bodies: Vec<String>,
}

/// Everything a run needs before the window opens.
struct Setup {
    server: Server,
    tags: Tags,
    warm: Vec<WarmProc>,
    /// Never-seen processes for compile requests, in seeded order.
    cold: Vec<usize>,
}

/// The typed request the daemon decodes from `target` and `text`.
fn request_of(target: &str, text: &str) -> Result<Request, String> {
    let bytes = conn::request_bytes(target, text, SocketAddr::from(([127, 0, 0, 1], 0)));
    let (http, _) = parse_buffered(&bytes, MAX_BODY)
        .map_err(|e| e.to_string())?
        .ok_or("request did not frame")?;
    service::parse(&http).map_err(|e| e.to_string())
}

/// The response bytes the daemon writes for `resp` on a keep-alive
/// connection (status line, headers, body).
fn render(resp: &Response) -> Vec<u8> {
    let trace_id = format!("{:016x}", resp.trace_id);
    let mut headers = vec![("x-cache", resp.cache.as_str())];
    if resp.trace_id != 0 {
        headers.push(("x-trace-id", &trace_id));
    }
    render_response(resp.status, resp.content_type, &headers, &resp.body, true)
}

fn setup(d: Daemon, cfg: &Config) -> Result<Setup, String> {
    let (processes, capacity) = d.shape(cfg.smoke);
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let tags = Tags::new(cfg.seed);
    let base = tags.base();
    let mut indexes = procs::shuffled_indexes(&mut rng);
    let cold = if d == Daemon::ColdMixed {
        indexes.split_off(processes)
    } else {
        Vec::new()
    };
    indexes.truncate(processes);
    let server = Server::start(&ServeConfig {
        threads: THREADS,
        cache_capacity: capacity,
        idle_timeout_ms: 600_000,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("cannot start the daemon: {e}"))?;
    let kinds: &[Kind] = if d == Daemon::VariantCanon {
        &KINDS[..1]
    } else {
        &KINDS
    };
    let reg = server.registry().clone();
    let chunk = indexes.len().div_ceil(SETUP_THREADS);
    let warm = std::thread::scope(|s| {
        let workers: Vec<_> = indexes
            .chunks(chunk)
            .map(|part| {
                let (reg, base) = (&reg, &base);
                s.spawn(move || {
                    part.iter()
                        .map(|&index| {
                            let text = procs::text(index, base);
                            let guard = procs::guard(index, base);
                            let targets: Vec<String> =
                                KINDS.iter().map(|k| k.target(&guard)).collect();
                            let mut bodies = Vec::new();
                            for (n, kind) in kinds.iter().enumerate() {
                                let req = request_of(&targets[kind.slot()], &text)?;
                                let resp = handle(reg, &req);
                                let cache = if n == 0 { "miss" } else { "hit" };
                                if resp.status != 200 || resp.cache.as_str() != cache {
                                    return Err(format!(
                                        "pre-warm of process {index} ({kind:?}) answered {} {}: {}",
                                        resp.status,
                                        resp.cache.as_str(),
                                        resp.body
                                    ));
                                }
                                bodies.push(resp.body);
                            }
                            Ok(WarmProc {
                                index,
                                text,
                                targets,
                                bodies,
                            })
                        })
                        .collect::<Result<Vec<_>, String>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("pre-warm worker panicked"))
            .collect::<Result<Vec<Vec<WarmProc>>, String>>()
    });
    let warm = match warm {
        Ok(parts) => parts.into_iter().flatten().collect(),
        Err(e) => {
            server.shutdown();
            return Err(e);
        }
    };
    Ok(Setup {
        server,
        tags,
        warm,
        cold,
    })
}

/// One request as a stream sends it, with what its reply must carry.
struct Call<'a> {
    target: Cow<'a, str>,
    text: Cow<'a, str>,
    body: Cow<'a, str>,
    cache: &'static str,
}

/// What one client thread saw.
#[derive(Default)]
struct Stream {
    /// Per request: completion offset from the window's start and latency
    /// (open loop: from the due time), in nanoseconds.
    samples: Vec<(i64, i64)>,
    /// Open loop only: how late each request was sent.
    lateness: Vec<i64>,
    failed: u64,
    errors: Vec<String>,
    /// `(target, text, body)` kept for the one-shot re-check.
    sampled: Vec<(String, String, String)>,
}

impl Stream {
    /// Appends a later slice of the same stream.
    fn absorb(&mut self, later: Stream) {
        self.samples.extend(later.samples);
        self.lateness.extend(later.lateness);
        self.failed += later.failed;
        let room = ERRORS_PER_STREAM.saturating_sub(self.errors.len());
        self.errors.extend(later.errors.into_iter().take(room));
        let room = SAMPLES_PER_STREAM.saturating_sub(self.sampled.len());
        self.sampled.extend(later.sampled.into_iter().take(room));
    }

    fn record(
        &mut self,
        call: &Call,
        reply: std::io::Result<Reply>,
        done: i64,
        lat: i64,
        sample: bool,
    ) {
        self.samples.push((done, lat));
        let verdict = match reply {
            Err(e) => Err(format!("{}: {e}", call.target)),
            Ok(r) if r.status != 200 => {
                Err(format!("{}: status {}: {}", call.target, r.status, r.body))
            }
            Ok(r) if r.cache() != call.cache => Err(format!(
                "{}: X-Cache {} where the workload needs {}",
                call.target,
                r.cache(),
                call.cache
            )),
            Ok(r) if !call.body.is_empty() && r.body != call.body => Err(format!(
                "{}: body differs from the pre-warm body",
                call.target
            )),
            Ok(r) => Ok(r.body),
        };
        match verdict {
            Ok(body) if sample && self.sampled.len() < SAMPLES_PER_STREAM => {
                self.sampled
                    .push((call.target.to_string(), call.text.to_string(), body));
            }
            Ok(_) => {}
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < ERRORS_PER_STREAM {
                    self.errors.push(e);
                }
            }
        }
    }
}

/// One request on `conn`, recorded in `s` with its latency from `since`.
fn exchange(
    conn: &mut Conn,
    s: &mut Stream,
    call: &Call,
    window: &Window,
    since: Instant,
    sample: bool,
) {
    let reply = conn.post(&call.target, &call.text);
    let done = Instant::now();
    s.record(
        call,
        reply,
        window.offset(done),
        (done - since).as_nanos() as i64,
        sample,
    );
}

/// Closed loop on one keep-alive connection: send, wait, check, repeat
/// until the window closes.
fn closed_loop<'a>(
    addr: SocketAddr,
    seed: u64,
    window: &Window,
    mut next: impl FnMut(&mut Rng) -> Call<'a>,
) -> Stream {
    let mut rng = Rng::seed_from_u64(seed);
    let mut pick = Rng::seed_from_u64(seed ^ 0x5a5a);
    let mut conn = Conn::new(addr);
    let mut s = Stream::default();
    while window.more(Instant::now()) {
        let call = next(&mut rng);
        let sample = s.samples.is_empty() || pick.random_range(SAMPLE_EVERY) == 0;
        exchange(&mut conn, &mut s, &call, window, Instant::now(), sample);
    }
    s
}

/// The two tenants of `cold_mixed` from one client thread: the warm closed
/// loop on one keep-alive connection, interrupted whenever a compile
/// request is due. Compile requests fall due at [`COLD_RATE`] whatever the
/// daemon's speed (an open loop), each on a fresh connection, and are
/// timed from their due time, so waiting for the warm request in flight,
/// or for an earlier compile, counts. Returns the warm stream, then the
/// compile stream.
fn mixed_loop<'a>(
    addr: SocketAddr,
    seed: u64,
    window: &Window,
    mut warm: impl FnMut(&mut Rng) -> Call<'a>,
    mut compile: impl FnMut() -> Call<'a>,
) -> Vec<Stream> {
    let period = Duration::from_secs_f64(1.0 / COLD_RATE);
    let mut rng = Rng::seed_from_u64(seed);
    let mut pick = Rng::seed_from_u64(seed ^ 0x5a5a);
    let mut conn = Conn::new(addr);
    let (mut w, mut c) = (Stream::default(), Stream::default());
    let mut due = window.start;
    loop {
        let now = Instant::now();
        if !window.more(now) {
            break;
        }
        if now >= due {
            let call = compile();
            c.lateness.push((now - due).as_nanos() as i64);
            let sample = c.samples.is_empty() || pick.random_range(SAMPLE_EVERY) == 0;
            exchange(&mut Conn::new(addr), &mut c, &call, window, due, sample);
            due += period;
        } else {
            let call = warm(&mut rng);
            let sample = w.samples.is_empty() || pick.random_range(SAMPLE_EVERY) == 0;
            exchange(&mut conn, &mut w, &call, window, now, sample);
        }
    }
    vec![w, c]
}

/// Counters the streams carry from warm-up through window and replay, so
/// no tag or compile process repeats within a run.
struct Cursors {
    variant: u32,
    cold: usize,
}

fn warm_call(p: &WarmProc, kind: Kind) -> Call<'_> {
    Call {
        target: Cow::Borrowed(&p.targets[kind.slot()]),
        text: Cow::Borrowed(&p.text),
        body: Cow::Borrowed(&p.bodies[kind.slot()]),
        cache: "hit",
    }
}

fn variant_call<'a>(setup: &'a Setup, base: &'a WarmProc, tag: &str) -> Call<'a> {
    Call {
        target: Cow::Borrowed(&base.targets[0]),
        text: Cow::Owned(procs::text(base.index, tag)),
        body: Cow::Owned(base.bodies[0].replace(&setup.tags.base(), tag)),
        cache: "canonical",
    }
}

fn cold_call(index: usize, tag: &str) -> Call<'static> {
    Call {
        target: Cow::Borrowed("/v1/weave"),
        text: Cow::Owned(procs::text(index, tag)),
        body: Cow::Borrowed(""),
        cache: "miss",
    }
}

/// Round-robin over the warm processes in a fresh seeded order each pass,
/// so each is touched once every `warm.len()` requests and the LRU never
/// evicts one under compile churn.
struct RoundRobin {
    order: Vec<usize>,
    at: usize,
}

impl RoundRobin {
    fn new(n: usize) -> RoundRobin {
        RoundRobin {
            order: (0..n).collect(),
            at: n,
        }
    }

    fn next(&mut self, rng: &mut Rng) -> usize {
        if self.at == self.order.len() {
            rng.shuffle(&mut self.order);
            self.at = 0;
        }
        self.at += 1;
        self.order[self.at - 1]
    }
}

/// Runs the workload's traffic for one window. Stream 0 is the closed
/// loop (the warm tenant on `cold_mixed`); on `cold_mixed` stream 1 is
/// the compile tenant.
fn drive(
    d: Daemon,
    setup: &Setup,
    cursors: &mut Cursors,
    run_seed: u64,
    phase: u64,
    window: &Window,
) -> Vec<Stream> {
    let addr = setup.server.addr();
    let seed = run_seed ^ (phase << 40).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    match d {
        Daemon::WarmKeepalive => vec![closed_loop(addr, seed, window, |rng| {
            let p = &setup.warm[rng.random_range(setup.warm.len())];
            warm_call(p, Kind::pick(rng))
        })],
        Daemon::VariantCanon => vec![closed_loop(addr, seed, window, |rng| {
            let base = &setup.warm[rng.random_range(setup.warm.len())];
            cursors.variant += 1;
            variant_call(setup, base, &setup.tags.tag(0, cursors.variant))
        })],
        Daemon::ColdMixed => {
            let base = setup.tags.base();
            let mut rr = RoundRobin::new(setup.warm.len());
            mixed_loop(
                addr,
                seed,
                window,
                |rng| warm_call(&setup.warm[rr.next(rng)], Kind::pick(rng)),
                || {
                    cursors.cold += 1;
                    cold_call(setup.cold[cursors.cold - 1], &base)
                },
            )
        }
    }
}

/// A polled loopback echo of given byte counts: the floor for everything
/// the daemon does around a request besides serving it.
struct Echo {
    addr: SocketAddr,
    conn: Option<Conn>,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Echo {
    fn start() -> std::io::Result<Echo> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let thread = std::thread::spawn(move || -> std::io::Result<()> {
            let mut buf = Vec::new();
            loop {
                let (mut conn, _) = listener.accept()?;
                conn.set_nodelay(true)?;
                conn.set_nonblocking(true)?;
                loop {
                    let mut head = [0u8; 8];
                    if conn::read_exact_polled(&mut conn, &mut head).is_err() {
                        break; // peer closed: next connection
                    }
                    let req = u32::from_le_bytes(head[..4].try_into().expect("4 bytes")) as usize;
                    let resp = u32::from_le_bytes(head[4..].try_into().expect("4 bytes")) as usize;
                    if req == 0 && resp == 0 {
                        return Ok(());
                    }
                    buf.resize(req.max(resp), b'x');
                    conn::read_exact_polled(&mut conn, &mut buf[..req])?;
                    conn::write_all_polled(&mut conn, &buf[..resp])?;
                }
            }
        });
        Ok(Echo {
            addr,
            conn: None,
            thread,
        })
    }

    /// Sends `req` bytes and polls for `resp` bytes back, on a fresh
    /// connection if `fresh`.
    fn send(&mut self, req: usize, resp: usize, fresh: bool) -> std::io::Result<()> {
        if fresh {
            self.conn = None;
        }
        let conn = self.conn.get_or_insert_with(|| Conn::new(self.addr));
        let mut out = Vec::with_capacity(8 + req);
        out.extend_from_slice(&(req as u32).to_le_bytes());
        out.extend_from_slice(&(resp as u32).to_le_bytes());
        out.resize(8 + req, b'x');
        conn.send(&out)?;
        conn.recv_exact(resp)
    }

    fn stop(mut self) -> std::io::Result<()> {
        self.send(0, 0, false)?;
        self.thread.join().expect("echo thread panicked")
    }
}

/// FNV-1a over the body bytes, written out here: the floor of the raw
/// hash layer.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One replayed request: `a` goes through the untraced in-process path,
/// `b` (the same request, or an equivalent never-seen one) through the
/// traced per-layer calls.
struct Pair<'a> {
    a: Call<'a>,
    b: Call<'a>,
    fresh_conn: bool,
}

fn replay_pair<'a>(
    d: Daemon,
    setup: &'a Setup,
    cursors: &mut Cursors,
    rng: &mut Rng,
    rr: &mut RoundRobin,
    cold_frac: f64,
    r: u32,
) -> Pair<'a> {
    let warm = |rng: &mut Rng, p: &'a WarmProc| {
        let kind = Kind::pick(rng);
        Pair {
            a: warm_call(p, kind),
            b: warm_call(p, kind),
            fresh_conn: false,
        }
    };
    match d {
        Daemon::WarmKeepalive => {
            let p = &setup.warm[rng.random_range(setup.warm.len())];
            warm(rng, p)
        }
        Daemon::VariantCanon => {
            let base = &setup.warm[rng.random_range(setup.warm.len())];
            Pair {
                a: variant_call(setup, base, &setup.tags.tag(2, r)),
                b: variant_call(setup, base, &setup.tags.tag(3, r)),
                fresh_conn: false,
            }
        }
        Daemon::ColdMixed if rng.random_bool(cold_frac) => {
            let base = setup.tags.base();
            cursors.cold += 2;
            Pair {
                a: cold_call(setup.cold[cursors.cold - 2], &base),
                b: cold_call(setup.cold[cursors.cold - 1], &base),
                fresh_conn: true,
            }
        }
        Daemon::ColdMixed => {
            let p = &setup.warm[rr.next(rng)];
            warm(rng, p)
        }
    }
}

/// Replays `n` seeded requests through the public calls of each layer.
/// Returns the untraced in-process path time of every request.
fn replay(
    d: Daemon,
    setup: &Setup,
    cursors: &mut Cursors,
    seed: u64,
    cold_frac: f64,
    n: usize,
    ledger: &mut Ledger,
) -> Result<Vec<i64>, String> {
    let reg: &Registry = setup.server.registry();
    let addr = setup.server.addr();
    let mut rng = Rng::seed_from_u64(seed ^ 0x7265_706c_6179);
    let mut rr = RoundRobin::new(setup.warm.len());
    let mut echo = Echo::start().map_err(|e| format!("echo floor: {e}"))?;
    let mut inproc = Vec::with_capacity(n);
    for r in 0..n as u32 {
        ledger.next_request();
        let pair = replay_pair(d, setup, cursors, &mut rng, &mut rr, cold_frac, r);

        // The whole in-process path, untraced.
        let bytes = conn::request_bytes(&pair.a.target, &pair.a.text, addr);
        let t0 = Instant::now();
        let (http, _) = parse_buffered(&bytes, MAX_BODY)
            .map_err(|e| e.to_string())?
            .ok_or("replayed request did not frame")?;
        let req = service::parse(&http).map_err(|e| e.to_string())?;
        let t_handle = Instant::now();
        let resp = handle(reg, &req);
        let handle_ns = t_handle.elapsed().as_nanos() as i64;
        let out = render(&resp);
        inproc.push(t0.elapsed().as_nanos() as i64);
        if resp.status != 200 || resp.cache.as_str() != pair.a.cache {
            return Err(format!(
                "replayed {} answered {} {}",
                pair.a.target,
                resp.status,
                resp.cache.as_str()
            ));
        }
        ledger
            .timed("floor.loopback_rtt", || {
                echo.send(bytes.len(), out.len(), pair.fresh_conn)
            })
            .0
            .map_err(|e| format!("echo floor: {e}"))?;

        // The same path, one timed public call per layer.
        let bytes = conn::request_bytes(&pair.b.target, &pair.b.text, addr);
        let (http, _) = ledger
            .timed("http.frame", || parse_buffered(&bytes, MAX_BODY))
            .0
            .map_err(|e| e.to_string())?
            .ok_or("replayed request did not frame")?;
        let req = ledger
            .timed("service.decode", || service::parse(&http))
            .0
            .map_err(|e| e.to_string())?;
        let text = pair.b.text.as_ref();
        let raw_ns = ledger.timed("registry.raw_hash", || content_hash(text)).1;
        ledger.timed("floor.fnv", || fnv(text.as_bytes()));
        let (found, lookup_ns) = ledger.time("registry.lookup", || reg.lookup_or_build(text));
        let found = found?;
        let (mut canon_ns, mut build_ns) = (0, 0);
        if found.status != LookupStatus::Hit {
            let (form, ns) = ledger.timed("canon.canonicalize", || canonicalize(text));
            canon_ns = ns;
            if found.status == LookupStatus::Miss {
                let form = form?;
                let (entry, ns) = ledger.time("registry.compile", || {
                    ProcessEntry::build_canonical(&form, THREADS)
                });
                build_ns = ns;
                let entry = entry?;
                let parts_ns = compile_layers(ledger, &entry)?;
                ledger.add("registry.compile", build_ns - parts_ns);
            }
        }
        ledger.add("registry.lookup", lookup_ns - raw_ns - canon_ns - build_ns);
        let entry = &found.entry;
        let run_ns = match &req {
            Request::Weave { .. } => {
                let (dscl, a) = ledger.timed("dscl.to_dscl", || entry.output.minimal.to_dscl());
                let b = ledger
                    .timed("canon.render_original", || {
                        found.renaming.render_original(&dscl)
                    })
                    .1;
                a + b
            }
            Request::Validate { .. } => {
                let (report, ns) = ledger.timed("petri.validate", || entry.validate(THREADS));
                ledger.count(
                    "petri.validate.assignments_checked",
                    report.assignments_checked as f64,
                );
                ns
            }
            Request::Simulate { branches, .. } => {
                let picks: Vec<(String, String)> = branches
                    .iter()
                    .map(|(g, v)| {
                        (
                            found.renaming.activity(g).unwrap_or(g).to_string(),
                            v.clone(),
                        )
                    })
                    .collect();
                let (schedule, ns) =
                    ledger.timed("scheduler.simulate", || entry.simulate(&picks, THREADS));
                ledger.count(
                    "scheduler.simulate.constraint_checks",
                    schedule.constraint_checks as f64,
                );
                ns
            }
            other => return Err(format!("unexpected replayed request {other:?}")),
        };
        ledger.add("service.handle", handle_ns - lookup_ns - run_ns);
        ledger.timed("http.render", || render(&resp));
    }
    echo.stop().map_err(|e| format!("echo floor: {e}"))?;
    Ok(inproc)
}

/// The compile half of a cache miss, one public call per layer, checked
/// against the entry `ProcessEntry::build_canonical` produced. Returns the
/// summed time of the parts.
fn compile_layers(ledger: &mut Ledger, entry: &ProcessEntry) -> Result<i64, String> {
    // The extraction options every serve request uses.
    let options = dscweaver_pdg::ExtractOptions {
        data: true,
        control: true,
        services_from_decls: false,
    };
    let (ds, extract_ns) = ledger.timed("pdg.extract", || {
        dscweaver_pdg::extract(&entry.process, options)
    });
    let (woven, weave_ns) = crate::offline::weave_layers(ledger, &ds)?;
    let petri_ns = ledger
        .timed("petri.compile", || {
            dscweaver_petri::CompiledValidation::compile(&woven.minimal, &woven.exec)
        })
        .1;
    let tables_ns = ledger
        .timed("scheduler.tables", || {
            dscweaver_scheduler::ScheduleTables::derive(&woven.minimal, &woven.exec)
        })
        .1;
    if woven.minimal.to_dscl() != entry.output.minimal.to_dscl() {
        return Err("per-layer compile disagrees with ProcessEntry::build_canonical".into());
    }
    Ok(extract_ns + weave_ns + petri_ns + tables_ns)
}

/// Runs one daemon workload end to end. The peak resident set is read
/// after the first set-up and the window; the further set-ups that time
/// `setup_s` follow, one at a time.
pub fn run(d: Daemon, cfg: &Config) -> Result<Outcome, String> {
    let (first, first_ns) = calib::timed(SETUP_THREADS, || setup(d, cfg));
    let first = first?;
    let result = measure(d, cfg, &first);
    first.server.shutdown();
    let mut out = result?;
    if !cfg.trace {
        let mut setup_ns = vec![first_ns];
        for _ in 1..cfg.setup_reps() {
            let (again, ns) = calib::timed(SETUP_THREADS, || setup(d, cfg));
            again?.server.shutdown();
            setup_ns.push(ns);
        }
        out.setup(&setup_ns);
    }
    Ok(out)
}

/// Tail quantile of the request latencies, taken over blocks of 200
/// requests. Not the p99: the virtual machine stalls a vCPU for 0.1–1 ms
/// about every 8 ms, which delays about 2% of `variant_canon`'s requests
/// (all alike, 130 µs each), so its p99 falls among those stalls: over
/// ten runs of the same code its interquartile range was 11–13% of its
/// median, against 6–8% for the p95.
const TAIL: f64 = 0.95;

fn measure(d: Daemon, cfg: &Config, setup: &Setup) -> Result<Outcome, String> {
    let mut cursors = Cursors {
        variant: 0,
        cold: 0,
    };
    let mut out = Outcome::default();

    let warmup = cfg.warmup();
    for s in drive(d, setup, &mut cursors, cfg.seed, 0, &warmup) {
        out.errors
            .extend(s.errors.into_iter().map(|e| format!("warm-up: {e}")));
    }
    // Stream 0, the closed loop (the warm tenant on cold_mixed), gives
    // every load metric; the compile tenant's figures are per-layer.
    let mut load = Scaled::default();
    let mut streams: Vec<Stream> = Vec::new();
    let before = setup.server.registry().stats();
    let mut clock = calib::Clock::start(BUSY_THREADS);
    while let Some(window) = cfg.next_slice(&load, TAIL) {
        let phase = load.slices() as u64 + 1;
        let slice = drive(d, setup, &mut cursors, cfg.seed, phase, &window);
        let scale = clock.end_slice();
        let closed = &slice[0].samples;
        let end = closed.last().map_or(0, |&(done, _)| done);
        load.add_rate(closed.len(), end, scale);
        load.add_latencies(closed.iter().map(|&(_, lat)| lat), scale);
        if streams.is_empty() {
            streams = slice;
        } else {
            for (total, s) in streams.iter_mut().zip(slice) {
                total.absorb(s);
            }
        }
    }
    let after = setup.server.registry().stats();

    for s in &streams {
        out.attempted += s.samples.len() as u64;
        out.failed += s.failed;
        out.errors.extend(s.errors.iter().cloned());
        for (target, text, body) in &s.sampled {
            let reference = oneshot(&request_of(target, text)?, THREADS);
            if &reference.body != body {
                out.errors.push(format!(
                    "{target}: daemon body differs from service::oneshot"
                ));
            }
        }
    }

    if !cfg.trace {
        out.load(&load, TAIL)?;
        return Ok(out);
    }

    let mut all: Vec<i64> = streams
        .iter()
        .flat_map(|s| s.samples.iter().map(|&(_, lat)| lat))
        .collect();
    all.sort_unstable();
    let e2e_mean = stats::mean(&all);
    let cold_frac = match d {
        Daemon::ColdMixed => streams[1].samples.len() as f64 / all.len() as f64,
        _ => 0.0,
    };
    let mut ledger = Ledger::default();
    let mut inproc = replay(
        d,
        setup,
        &mut cursors,
        cfg.seed,
        cold_frac,
        cfg.replay_requests(),
        &mut ledger,
    )?;
    inproc.sort_unstable();
    ledger.derive(
        "server.residual",
        all.len(),
        e2e_mean - stats::mean(&inproc),
        (stats::percentile(&all, 0.5)? - stats::percentile(&inproc, 0.5)?) as f64,
    );
    let compile = match streams.get(1) {
        Some(s) => {
            let mut lat: Vec<i64> = s.samples.iter().map(|&(_, lat)| lat).collect();
            lat.sort_unstable();
            (
                stats::mean(&s.lateness),
                stats::percentile(&lat, 0.5)? as f64,
            )
        }
        None => (0.0, 0.0),
    };
    let load = after.delta_since(&before);
    ledger::emit_per_layer(&mut ledger, e2e_mean, Some(load), compile, &mut out)?;
    cfg.write_trace(&ledger)?;
    Ok(out)
}
