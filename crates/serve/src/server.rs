//! The TCP daemon: a std-only, connection-oriented HTTP/1.1 listener in
//! front of [`crate::service::handle`].
//!
//! Connections are first-class and persistent: each accepted socket
//! becomes a `Conn` with a reusable read/parse buffer and a pending
//! output buffer, served keep-alive until the peer closes, sends
//! `Connection: close`, goes idle past `--idle-timeout`, or errors.
//! Admission is batched **per connection readiness**, not per request:
//! every tick the event loop fans the live connections across
//! `dscweaver_graph::par_shards` workers, and each worker drains its
//! connection's socket, parses up to `pipeline_depth` pipelined requests
//! from the buffer, serves them in order, and writes the responses back
//! in request order — so a burst of requests on one warm connection costs
//! one fan-out, no accept, and no per-request allocation beyond the
//! response itself.
//!
//! Per-request observability: `serve.parse`, `serve.lookup` /
//! `serve.compile` (in the registry), `serve.run` and `serve.respond`
//! spans, plus `serve.requests`, `serve.connections`,
//! `serve.conns_reused`, `serve.cache_hits`, `serve.cache_misses`,
//! `serve.canonical_hits` and `serve.evictions` counters, the
//! `serve.in_flight` gauge and the `serve.conn.lifetime` histogram.

use crate::http::{parse_buffered, render_response, HttpError};
use crate::registry::Registry;
use crate::service::{handle, parse, Response};
use crate::trace::TraceConfig;
use dscweaver_graph::par_shards;
use dscweaver_obs as obs;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Port to bind on 127.0.0.1 (`0` = ephemeral, kernel-assigned).
    pub port: u16,
    /// Worker threads for connection fan-out and pipeline internals
    /// (`0` = auto, resolved once when the daemon starts).
    pub threads: usize,
    /// Prepared-artifact cache capacity (canonical entries; LRU beyond
    /// it).
    pub cache_capacity: usize,
    /// Most new connections accepted per event-loop tick.
    pub batch: usize,
    /// Most connections held open concurrently (`--max-conns`); accepts
    /// beyond it wait in the listen backlog.
    pub max_conns: usize,
    /// Close a connection after this many milliseconds without a
    /// complete request (`--idle-timeout`).
    pub idle_timeout_ms: u64,
    /// Largest accepted request body in bytes (`--max-body`); larger
    /// declared bodies are rejected with `413`.
    pub max_body: usize,
    /// Most pipelined requests served from one connection per event-loop
    /// tick; further buffered requests wait for the next tick so one
    /// flooding client cannot monopolize a worker.
    pub pipeline_depth: usize,
    /// Back-pressure ceiling: process-keyed requests beyond this many
    /// concurrently in flight are rejected with `429` (`0` = unlimited).
    pub max_in_flight: u64,
    /// Tail sampling: keep the full trace of any request slower than
    /// this many milliseconds (`0` disables the slow criterion).
    pub trace_slow_ms: u64,
    /// Tail sampling: additionally keep every N-th request (`0`
    /// disables the sample grid).
    pub trace_sample: u64,
    /// How many kept request traces `/v1/traces` retains.
    pub trace_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let trace = TraceConfig::daemon_default();
        ServeConfig {
            port: 0,
            threads: 0,
            cache_capacity: 1024,
            batch: 64,
            max_conns: 1024,
            idle_timeout_ms: 10_000,
            max_body: crate::http::MAX_BODY,
            pipeline_depth: 32,
            max_in_flight: 0,
            trace_slow_ms: trace.slow_ns / 1_000_000,
            trace_sample: trace.sample_every,
            trace_capacity: trace.capacity,
        }
    }
}

/// A running daemon: listener thread plus shared registry. Dropping the
/// handle without [`Server::shutdown`] leaves the thread running for the
/// process lifetime — call `shutdown` for an orderly stop.
pub struct Server {
    addr: SocketAddr,
    registry: Arc<Registry>,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `127.0.0.1:port` and starts the event loop on a background
    /// thread.
    pub fn start(config: &ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(("127.0.0.1", config.port))?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        // The daemon is a long-running process: turn on the cumulative
        // metrics plane (counters/gauges/histograms, read non-drainingly
        // by `/metrics`) without enabling span recording, whose
        // thread-local buffers would grow unboundedly until drained.
        obs::set_metrics_enabled(true);
        let registry = Arc::new(
            Registry::new(config.cache_capacity, config.threads)
                .with_max_in_flight(config.max_in_flight)
                .with_trace_config(TraceConfig {
                    slow_ns: config.trace_slow_ms.saturating_mul(1_000_000),
                    sample_every: config.trace_sample,
                    capacity: config.trace_capacity,
                }),
        );
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let registry = registry.clone();
            let stop = stop.clone();
            let config = config.clone();
            std::thread::spawn(move || event_loop(listener, registry, stop, config))
        };
        Ok(Server {
            addr,
            registry,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound address (`127.0.0.1:<port>`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared artifact registry (for stats or in-process requests).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Stops the event loop and joins the listener thread. Buffered
    /// responses are flushed first; open connections are then dropped.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// One live client connection: nonblocking socket, reusable read/parse
/// buffer, pending (response) output, and bookkeeping for idle pruning
/// and the lifetime/reuse metrics.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    out: Vec<u8>,
    opened: Instant,
    last_active: Instant,
    served: u64,
    close: bool,
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        let now = Instant::now();
        Conn {
            stream,
            buf: Vec::new(),
            out: Vec::new(),
            opened: now,
            last_active: now,
            served: 0,
            close: false,
            dead: false,
        }
    }
}

fn event_loop(
    listener: TcpListener,
    registry: Arc<Registry>,
    stop: Arc<AtomicBool>,
    config: ServeConfig,
) {
    let mut conns: Vec<Conn> = Vec::new();
    let accept_cap = config.batch.max(1);
    let max_conns = config.max_conns.max(1);
    let idle = Duration::from_millis(config.idle_timeout_ms.max(1));
    // Quiet-tick backoff: with live connections the loop spins (yield)
    // briefly before degrading to 1ms sleeps, so the next request on a
    // warm keep-alive connection is picked up in microseconds while a
    // long-idle daemon still costs ~nothing.
    let mut quiet_ticks: u32 = 0;
    while !stop.load(Ordering::Relaxed) {
        // Admit new connections, bounded per tick and by --max-conns
        // (excess accepts wait in the listen backlog).
        let mut accepted = 0usize;
        while conns.len() < max_conns && accepted < accept_cap {
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    // Responses are written whole; never hold them back
                    // for coalescing (Nagle stalls pipelined batches on
                    // the peer's delayed ACK).
                    let _ = stream.set_nodelay(true);
                    obs::counter_add("serve.connections", 1);
                    conns.push(Conn::new(stream));
                    accepted += 1;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
        if conns.is_empty() {
            std::thread::sleep(Duration::from_millis(1));
            continue;
        }
        // Per-connection-readiness admission: fan every live connection
        // onto the workers once; the nonblocking read is the readiness
        // probe, and each worker serves its connection's whole buffered
        // pipeline before the next fan-out. The registry's thread count
        // is resolved once at start; no idle forks for few connections.
        let threads = registry.threads().min(conns.len());
        let progress = par_shards(threads, &mut conns, &|_, conn| {
            serve_ready(conn, &registry, &config)
        })
        .into_iter()
        .any(|p| p);
        // Prune: dead sockets, and connections idle past --idle-timeout
        // with nothing left to flush.
        let now = Instant::now();
        conns.retain(|conn| {
            let expired =
                conn.out.is_empty() && now.duration_since(conn.last_active) >= idle;
            let gone = conn.dead || expired || (conn.close && conn.out.is_empty());
            if gone {
                obs::histogram("serve.conn.lifetime")
                    .observe(conn.opened.elapsed().as_nanos() as u64);
            }
            !gone
        });
        if accepted == 0 && !progress {
            quiet_ticks += 1;
            if quiet_ticks < 500 {
                std::thread::yield_now();
            } else {
                std::thread::sleep(Duration::from_millis(1));
            }
        } else {
            quiet_ticks = 0;
        }
    }
    // Orderly stop: one last flush attempt for buffered responses.
    for conn in &mut conns {
        let _ = conn.stream.write_all(&conn.out);
        obs::histogram("serve.conn.lifetime").observe(conn.opened.elapsed().as_nanos() as u64);
    }
}

/// One tick of one connection: drain the socket into the reusable
/// buffer, serve up to `pipeline_depth` buffered requests in order, and
/// flush as much of the output buffer as the socket accepts. Returns
/// whether any bytes moved or requests were served (the event loop's
/// idle/sleep signal).
fn serve_ready(conn: &mut Conn, registry: &Registry, config: &ServeConfig) -> bool {
    let mut progress = false;

    // Drain the socket. WouldBlock = no more data now; Ok(0) = peer
    // closed its half — serve what is buffered, then close.
    let mut chunk = [0u8; 16 * 1024];
    let mut peer_closed = false;
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                peer_closed = true;
                break;
            }
            Ok(n) => {
                conn.buf.extend_from_slice(&chunk[..n]);
                conn.last_active = Instant::now();
                progress = true;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                return progress;
            }
        }
    }

    // Serve buffered requests in arrival order, bounded per tick.
    let depth = config.pipeline_depth.max(1);
    let mut served_now = 0usize;
    while served_now < depth && !conn.close {
        let parsed = {
            let _span = obs::span("serve.parse");
            parse_buffered(&conn.buf, config.max_body)
        };
        match parsed {
            Ok(None) => break,
            Ok(Some((http, consumed))) => {
                conn.buf.drain(..consumed);
                obs::counter_add("serve.requests", 1);
                if !http.keep_alive {
                    conn.close = true;
                }
                let response = match parse(&http) {
                    Ok(request) => handle(registry, &request),
                    Err(HttpError { status, message }) => Response::error(status, &message),
                };
                conn.served += 1;
                if conn.served == 2 {
                    obs::counter_add("serve.conns_reused", 1);
                }
                push_response(conn, &response);
                served_now += 1;
            }
            Err(HttpError { status, message }) => {
                // Malformed framing is connection-fatal: answer, then
                // close (the buffer position is no longer trustworthy).
                conn.close = true;
                push_response(conn, &Response::error(status, &message));
                served_now += 1;
            }
        }
    }
    if served_now > 0 {
        conn.last_active = Instant::now();
        progress = true;
    }
    // Nothing more will arrive after the peer's half-close: once the
    // buffer holds no further complete request, close. (Past the depth
    // bound the rest waits for the next tick, which sees EOF again.)
    if peer_closed && served_now < depth {
        conn.close = true;
    }

    // Flush as much output as the socket accepts; leftovers stay for the
    // next tick.
    while !conn.out.is_empty() {
        match conn.stream.write(&conn.out) {
            Ok(0) => {
                conn.dead = true;
                break;
            }
            Ok(n) => {
                conn.out.drain(..n);
                progress = true;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }
    if conn.close && conn.out.is_empty() {
        let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        conn.dead = true;
    }
    progress
}

/// Renders `response` (keep-alive unless the connection is closing) onto
/// the connection's output buffer, responses strictly in request order.
fn push_response(conn: &mut Conn, response: &Response) {
    let _span = obs::span("serve.respond");
    let trace_id = format!("{:016x}", response.trace_id);
    let mut headers: Vec<(&str, &str)> = vec![("x-cache", response.cache.as_str())];
    if response.trace_id != 0 {
        headers.push(("x-trace-id", &trace_id));
    }
    let rendered = render_response(
        response.status,
        response.content_type,
        &headers,
        &response.body,
        !conn.close,
    );
    conn.out.extend_from_slice(&rendered);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Shutdown;

    /// A client that writes a whole request and half-closes before the
    /// server's first read still gets its response: the drain sees the
    /// request and the EOF together, and the buffered request is served
    /// before the connection closes.
    #[test]
    fn request_followed_by_half_close_is_served() {
        let registry = Registry::new(1, 1);
        let config = ServeConfig::default();
        for connection in ["close", "keep-alive"] {
            let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
            let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (stream, _) = listener.accept().unwrap();
            let request = format!("GET /healthz HTTP/1.1\r\nconnection: {connection}\r\n\r\n");
            client.write_all(request.as_bytes()).unwrap();
            client.shutdown(Shutdown::Write).unwrap();
            // Let the request and the FIN land in the server's receive
            // queue, so the first drain reads both.
            std::thread::sleep(Duration::from_millis(20));
            stream.set_nonblocking(true).unwrap();
            let mut conn = Conn::new(stream);
            for _ in 0..100 {
                if conn.dead {
                    break;
                }
                serve_ready(&mut conn, &registry, &config);
            }
            assert!(conn.dead, "{connection}: the connection must close after EOF");
            let mut reply = String::new();
            client.read_to_string(&mut reply).unwrap();
            assert!(reply.starts_with("HTTP/1.1 200"), "{connection}: got {reply:?}");
        }
    }
}
