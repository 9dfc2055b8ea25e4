//! `dscw` — the DSCWeaver command-line tool.
//!
//! ```text
//! dscw optimize  <process.proc> [--coop <deps.dscl>] [--wscl <conv.xml>:<bind>...]
//! dscw validate  <process.proc> [...]
//! dscw run       <process.proc> [--branch g=V]... [...]
//! dscw bpel      <process.proc> [--structured] [...]
//! dscw dot       <process.proc> [--stage sc|asc|minimal] [...]
//! dscw figures   <process.proc> [...]
//! dscw monitor   <process.proc> [--instances N] [--batch N] [--seed N] [--violate RATE] [...]
//! dscw serve     [--port N] [--threads N] [--cache N] [--batch N] [--max-conns N]
//!                [--idle-timeout MS] [--max-body BYTES] [--pipeline-depth N]
//!                [--max-in-flight N] [--stats-interval SECS] [--trace-slow-ms MS]
//!                [--trace-sample N] [--trace out.json] [--profile]
//! ```
//!
//! The process is a `.proc` DSL file (see `dscweaver-model`). Cooperation
//! dependencies come from a DSCL file whose relations are merged in as
//! `cooperation:`-tagged constraints. WSCL conversations are XML files
//! with a binding spec `interaction=activity,...` after a colon.
//!
//! Observability (see `OBSERVABILITY.md`): `--trace <out.json>` records
//! every pipeline phase and worker lane to a Chrome trace-event file
//! (load it in Perfetto / `chrome://tracing`); `--profile` prints a
//! per-phase wall-time summary to stderr. `--threads <n>` sets the
//! worker-thread count for the monitor's ingest (and the daemon's pool);
//! the weave, validation and execution run on one thread.

use dscweaver::core::{Dependency, DependencyKind, Endpoint, Weaver};
use dscweaver::obs;
use dscweaver::dscl::{parse_constraints, Relation, SyncGraph};
use dscweaver::model::parse_process;
use dscweaver::scheduler::SimConfig;
use dscweaver::vertical::{monitor_replay, weave, MonitorReplayConfig, VerticalInput};
use dscweaver::wscl::{from_xml, ServiceBinding};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: dscw serve [--port <n>] [--threads <n>] [--cache <entries>] [--batch <n>]
       [--max-conns <n>] [--idle-timeout <ms>] [--max-body <bytes>]
       [--pipeline-depth <n>] [--max-in-flight <n>] [--stats-interval <secs>]
       [--trace-slow-ms <ms>] [--trace-sample <n>] [--trace-capacity <n>]
       [--duration <secs>] [--trace <out.json>] [--profile]
       dscw <optimize|validate|run|bpel|dot|figures|monitor> <process.proc>
       [--coop <constraints.dscl>]
       [--wscl <conversation.xml>:<iid=activity,...>]...
       [--branch <guard=value>]...
       [--stage sc|asc|minimal]      (dot)
       [--structured]                (bpel)
       [--instances <n>]             (monitor: fleet size, default 1000)
       [--batch <n>]                 (monitor: ingest batch, default 1024)
       [--seed <n>]                  (monitor: generator seed)
       [--violate <rate>]            (monitor: per-kind injection rate)
       [--threads <n>]               (0 = auto)
       [--trace <out.json>]          (Chrome trace-event JSON)
       [--profile]                   (per-phase summary on stderr)"
    );
    ExitCode::from(2)
}

struct Args {
    command: String,
    process_path: String,
    coop: Option<String>,
    wscl: Vec<(String, String)>,
    branches: Vec<(String, String)>,
    stage: String,
    structured: bool,
    instances: u32,
    batch: usize,
    seed: u64,
    violate: f64,
    threads: usize,
    trace: Option<String>,
    profile: bool,
}

fn parse_args() -> Option<Args> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next()?;
    let process_path = argv.next()?;
    let mut args = Args {
        command,
        process_path,
        coop: None,
        wscl: Vec::new(),
        branches: Vec::new(),
        stage: "minimal".into(),
        structured: false,
        instances: 1000,
        batch: 1024,
        seed: 42,
        violate: 0.01,
        threads: 0,
        trace: None,
        profile: false,
    };
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--coop" => args.coop = Some(argv.next()?),
            "--wscl" => {
                let spec = argv.next()?;
                let (path, bind) = spec.split_once(':')?;
                args.wscl.push((path.to_string(), bind.to_string()));
            }
            "--branch" => {
                let spec = argv.next()?;
                let (g, v) = spec.split_once('=')?;
                args.branches.push((g.to_string(), v.to_string()));
            }
            "--stage" => args.stage = argv.next()?,
            "--structured" => args.structured = true,
            "--instances" => args.instances = argv.next()?.parse().ok()?,
            "--batch" => args.batch = argv.next()?.parse().ok()?,
            "--seed" => args.seed = argv.next()?.parse().ok()?,
            "--violate" => args.violate = argv.next()?.parse().ok()?,
            "--threads" => args.threads = argv.next()?.parse().ok()?,
            "--trace" => args.trace = Some(argv.next()?),
            "--profile" => args.profile = true,
            _ => return None,
        }
    }
    Some(args)
}

/// `dscw serve`: bind the daemon and serve. Without `--duration` it
/// blocks until the process is killed; with `--duration <secs>` it stops
/// after that long, which is also when `--trace`/`--profile` flush (a
/// killed daemon writes no trace — give recorded runs a finite duration).
fn run_serve(mut argv: impl Iterator<Item = String>) -> Result<(), String> {
    use dscweaver::serve::{ServeConfig, Server};
    let mut config = ServeConfig::default();
    let mut trace: Option<String> = None;
    let mut profile = false;
    let mut duration: u64 = 0;
    let mut stats_interval: u64 = 0;
    while let Some(flag) = argv.next() {
        let mut next = |what: &str| {
            argv.next()
                .ok_or_else(|| format!("--{what} needs a value"))
        };
        match flag.as_str() {
            "--port" => config.port = next("port")?.parse().map_err(|e| format!("bad port: {e}"))?,
            "--threads" => {
                config.threads = next("threads")?
                    .parse()
                    .map_err(|e| format!("bad thread count: {e}"))?
            }
            "--cache" => {
                config.cache_capacity = next("cache")?
                    .parse()
                    .map_err(|e| format!("bad cache capacity: {e}"))?
            }
            "--batch" => {
                config.batch = next("batch")?
                    .parse()
                    .map_err(|e| format!("bad batch size: {e}"))?
            }
            "--max-conns" => {
                config.max_conns = next("max-conns")?
                    .parse()
                    .map_err(|e| format!("bad connection ceiling: {e}"))?
            }
            "--idle-timeout" => {
                config.idle_timeout_ms = next("idle-timeout")?
                    .parse()
                    .map_err(|e| format!("bad idle timeout: {e}"))?
            }
            "--max-body" => {
                config.max_body = next("max-body")?
                    .parse()
                    .map_err(|e| format!("bad body cap: {e}"))?
            }
            "--pipeline-depth" => {
                config.pipeline_depth = next("pipeline-depth")?
                    .parse()
                    .map_err(|e| format!("bad pipeline depth: {e}"))?
            }
            "--max-in-flight" => {
                config.max_in_flight = next("max-in-flight")?
                    .parse()
                    .map_err(|e| format!("bad in-flight ceiling: {e}"))?
            }
            "--stats-interval" => {
                stats_interval = next("stats-interval")?
                    .parse()
                    .map_err(|e| format!("bad stats interval: {e}"))?
            }
            "--trace-slow-ms" => {
                config.trace_slow_ms = next("trace-slow-ms")?
                    .parse()
                    .map_err(|e| format!("bad slow threshold: {e}"))?
            }
            "--trace-sample" => {
                config.trace_sample = next("trace-sample")?
                    .parse()
                    .map_err(|e| format!("bad sample rate: {e}"))?
            }
            "--trace-capacity" => {
                config.trace_capacity = next("trace-capacity")?
                    .parse()
                    .map_err(|e| format!("bad trace capacity: {e}"))?
            }
            "--duration" => {
                duration = next("duration")?
                    .parse()
                    .map_err(|e| format!("bad duration: {e}"))?
            }
            "--trace" => trace = Some(next("trace")?),
            "--profile" => profile = true,
            _ => return Err("bad arguments".into()),
        }
    }
    let recording = trace.is_some() || profile;
    if recording {
        obs::set_enabled(true);
    }
    let server = Server::start(&config).map_err(|e| format!("cannot bind: {e}"))?;
    eprintln!(
        "dscw serve: listening on http://{} (cache {} entries, threads {}, \
         max-conns {}, idle-timeout {}ms, pipeline-depth {})",
        server.addr(),
        config.cache_capacity,
        if config.threads == 0 { "auto".into() } else { config.threads.to_string() },
        config.max_conns,
        config.idle_timeout_ms,
        config.pipeline_depth,
    );
    eprintln!(
        "endpoints: POST /v1/weave /v1/validate /v1/simulate /v1/reweave | \
         GET /v1/stats /metrics /v1/traces /healthz"
    );
    if config.max_in_flight > 0 {
        eprintln!(
            "back-pressure: process-keyed requests beyond {} in flight get 429",
            config.max_in_flight
        );
    }
    // Periodic one-line summary on stderr: per-interval deltas of the
    // cumulative counters plus the instantaneous gauges. The thread is
    // detached — it dies with the process, and the stop flag silences it
    // across a graceful `--duration` shutdown.
    let stats_stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    if stats_interval > 0 {
        let registry = server.registry().clone();
        let stop = stats_stop.clone();
        std::thread::spawn(move || {
            let mut prev = registry.stats();
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                std::thread::sleep(std::time::Duration::from_secs(stats_interval));
                if stop.load(std::sync::atomic::Ordering::Relaxed) {
                    break;
                }
                let now = registry.stats();
                let d = now.delta_since(&prev);
                eprintln!(
                    "dscw serve [{stats_interval}s]: served {} ({:.1}/s), rejected {}, \
                     hits {}, canonical {}, misses {}, evictions {}, in-flight {}, cache {}/{}",
                    d.served,
                    d.served as f64 / stats_interval as f64,
                    d.rejected,
                    d.hits,
                    d.canonical_hits,
                    d.misses,
                    d.evictions,
                    now.in_flight,
                    now.entries,
                    now.capacity,
                );
                prev = now;
            }
        });
    }
    if duration == 0 {
        // Serve until the process is killed; the listener thread owns
        // the socket, so parking the main thread is all that remains.
        loop {
            std::thread::park();
        }
    }
    std::thread::sleep(std::time::Duration::from_secs(duration));
    stats_stop.store(true, std::sync::atomic::Ordering::Relaxed);
    server.shutdown();
    if recording {
        obs::set_enabled(false);
        let snapshot = obs::take();
        if let Some(path) = &trace {
            std::fs::write(path, snapshot.to_chrome_json())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("trace written to {path} (load in Perfetto or chrome://tracing)");
        }
        if profile {
            eprint!("{}", snapshot.summary());
        }
    }
    Ok(())
}

fn run() -> Result<(), String> {
    if std::env::args().nth(1).as_deref() == Some("serve") {
        return run_serve(std::env::args().skip(2));
    }
    let Some(args) = parse_args() else {
        return Err("bad arguments".into());
    };
    let src = std::fs::read_to_string(&args.process_path)
        .map_err(|e| format!("cannot read {}: {e}", args.process_path))?;
    let process = parse_process(&src).map_err(|e| e.to_string())?;
    let problems = process.validate();
    if !problems.is_empty() {
        let msgs: Vec<String> = problems.iter().map(|p| p.to_string()).collect();
        return Err(format!("process does not validate:\n  {}", msgs.join("\n  ")));
    }

    // Cooperation dependencies from a DSCL file.
    let mut cooperation: Vec<Dependency> = Vec::new();
    if let Some(path) = &args.coop {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let cs = parse_constraints(&text).map_err(|e| e.to_string())?;
        for r in cs.happen_befores() {
            if let Relation::HappenBefore { from, to, .. } = r {
                cooperation.push(Dependency {
                    from: Endpoint::at(from.activity.clone(), from.state),
                    to: Endpoint::at(to.activity.clone(), to.state),
                    kind: DependencyKind::Cooperation,
                });
            }
        }
    }

    // WSCL conversations.
    let mut conversations = Vec::new();
    for (path, bind_spec) in &args.wscl {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let conv = from_xml(&text).map_err(|e| e.to_string())?;
        let mut binding = ServiceBinding::new();
        for pair in bind_spec.split(',') {
            let (iid, act) = pair
                .split_once('=')
                .ok_or_else(|| format!("bad binding '{pair}' (want interaction=activity)"))?;
            let interaction = conv
                .interaction(iid)
                .ok_or_else(|| format!("conversation '{}' has no interaction '{iid}'", conv.name))?;
            binding = match interaction.kind {
                dscweaver::wscl::InteractionKind::Receive => binding.invoke(iid, act),
                dscweaver::wscl::InteractionKind::Send => binding.receive(iid, act),
            };
        }
        conversations.push((conv, binding));
    }

    let mut sim = SimConfig {
        threads: args.threads,
        ..SimConfig::default()
    };
    for (g, v) in &args.branches {
        sim.oracle.insert(g.clone(), v.clone());
    }

    // Tracing/profiling wraps the whole vertical; the recorder costs one
    // atomic load per probe when neither flag is given.
    let recording = args.trace.is_some() || args.profile;
    if recording {
        obs::set_enabled(true);
    }
    let out = weave(&VerticalInput {
        process: &process,
        conversations: &conversations,
        cooperation: &cooperation,
        weaver: Weaver::new(),
        sim,
    })
    .map_err(|e| e.to_string())?;
    // The monitor replay runs inside the recording window so --trace and
    // --profile cover its ingest spans too.
    let monitor_report = if args.command == "monitor" {
        Some(monitor_replay(
            &out,
            &conversations,
            &MonitorReplayConfig {
                instances: args.instances,
                batch: args.batch,
                seed: args.seed,
                rate: args.violate,
                threads: args.threads,
                verify: true,
            },
        )?)
    } else {
        None
    };
    if recording {
        obs::set_enabled(false);
        let snapshot = obs::take();
        if let Some(path) = &args.trace {
            std::fs::write(path, snapshot.to_chrome_json())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("trace written to {path} (load in Perfetto or chrome://tracing)");
        }
        if args.profile {
            eprint!("{}", snapshot.summary());
        }
    }

    match args.command.as_str() {
        "optimize" => {
            println!("{}", out.dependencies.render_table1());
            println!("{}", out.weaver.render_table2());
            println!("{}", out.weaver.minimal.to_dscl());
            println!("removal justifications:");
            for w in out.weaver.explain_removals() {
                println!("  {w}");
            }
        }
        "validate" => {
            println!("{}", out.report());
            if !out.ok() {
                return Err("validation failed".into());
            }
        }
        "run" => {
            println!("{}", out.report());
            println!("trace:");
            for e in &out.schedule.trace.events {
                println!(
                    "  t={:<6} #{:<4} {:<8} {}",
                    e.time,
                    e.seq,
                    format!("{:?}", e.kind),
                    e.activity
                );
            }
            if !out.ok() {
                return Err("execution failed".into());
            }
        }
        "bpel" => {
            if args.structured {
                println!(
                    "{}",
                    dscweaver::bpel::emit_structured_string(&process, &out.weaver.minimal)
                );
            } else {
                println!("{}", out.bpel);
            }
        }
        "dot" => {
            let cs = match args.stage.as_str() {
                "sc" => {
                    let mut sc = (*out.weaver.sc).clone();
                    sc.desugar_happen_together();
                    sc
                }
                "asc" => (*out.weaver.asc).clone(),
                "minimal" => out.weaver.minimal.clone(),
                other => return Err(format!("unknown stage '{other}'")),
            };
            println!("{}", SyncGraph::build(&cs).to_dot(&cs.name));
        }
        "figures" => {
            println!("{}", dscweaver::model::render_flowchart(&process));
            println!("{}", dscweaver::model::render_constructs(&process));
            println!("{}", SyncGraph::build(&out.weaver.minimal).render());
        }
        "monitor" => {
            print!("{}", monitor_report.expect("computed above").render());
        }
        other => return Err(format!("unknown command '{other}'")),
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            if e == "bad arguments" {
                return usage();
            }
            eprintln!("dscw: {e}");
            ExitCode::FAILURE
        }
    }
}
