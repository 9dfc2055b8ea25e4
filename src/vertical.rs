//! The complete DSCWeaver vertical (§1): *specification → optimization →
//! validation → execution*.
//!
//! [`weave`] takes a process definition plus its dependency inputs and
//! runs every stage:
//!
//! 1. **Specification** — data/control dependencies are extracted from the
//!    process (PDG, §3.1), service dependencies derived from WSCL
//!    conversations (§3.2), cooperation dependencies supplied by the
//!    analyst.
//! 2. **Optimization** — merge (§4.2), service translation (§4.3),
//!    minimal-set extraction (§4.4).
//! 3. **Validation** — the minimal set is lowered to a colored Petri net
//!    and checked per branch assignment (§4.1).
//! 4. **Execution** — the dataflow engine runs the minimal set; the trace
//!    is verified against the *full* merged constraint set, which is the
//!    optimizer's correctness contract; BPEL code is generated.

use dscweaver_core::{Weaver, WeaverError, WeaverOutput};
use dscweaver_dscl::ConstraintSet;
use dscweaver_obs as obs;
use dscweaver_model::Process;
use dscweaver_petri::{validate, ValidateOptions, ValidationReport};
use dscweaver_scheduler::{simulate, Schedule, SimConfig};
use dscweaver_wscl::{derive_service_dependencies, Conversation, ServiceBinding, WsclError};

/// Inputs for the vertical pipeline.
pub struct VerticalInput<'a> {
    /// The process definition (activity kinds, variables, partners).
    pub process: &'a Process,
    /// WSCL conversations with bindings, one per partner service.
    pub conversations: &'a [(Conversation, ServiceBinding)],
    /// Analyst-supplied cooperation dependencies.
    pub cooperation: &'a [dscweaver_core::Dependency],
    /// Pipeline configuration.
    pub weaver: Weaver,
    /// Simulation configuration for the execution stage.
    pub sim: SimConfig,
}

/// Everything the vertical produces.
pub struct VerticalOutput {
    /// The optimization stages (Table 1 → Figures 7–9, Table 2).
    pub weaver: WeaverOutput,
    /// Petri-net validation verdict on the minimal set.
    pub validation: ValidationReport,
    /// The executed schedule (minimal set, dataflow engine).
    pub schedule: Schedule,
    /// Violations of the *original* merged SC in the executed trace
    /// (must be empty — the optimizer's correctness contract).
    pub violations: Vec<dscweaver_scheduler::Violation>,
    /// WSCL conversation conformance violations of the executed trace
    /// (must be empty — the service-side contract).
    pub conformance: Vec<dscweaver_scheduler::Violation>,
    /// Generated BPEL document.
    pub bpel: String,
}

/// Vertical pipeline failure.
#[derive(Debug)]
pub enum VerticalError {
    /// A WSCL document or binding is broken.
    Wscl(WsclError),
    /// The optimization pipeline failed.
    Weaver(WeaverError),
}

impl std::fmt::Display for VerticalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerticalError::Wscl(e) => write!(f, "{e}"),
            VerticalError::Weaver(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for VerticalError {}

impl VerticalOutput {
    /// True when every stage succeeded: validation passed, execution
    /// completed, and the trace satisfies the full original constraint
    /// set.
    pub fn ok(&self) -> bool {
        self.validation.ok()
            && self.schedule.completed()
            && self.violations.is_empty()
            && self.conformance.is_empty()
    }

    /// A human-readable multi-stage report.
    pub fn report(&self) -> String {
        let w = &self.weaver;
        let mut out = String::new();
        out.push_str(&format!("== DSCWeaver vertical: {} ==\n", w.sc.name));
        out.push_str(&format!(
            "dependencies: {} (Table 1)\n",
            w.dependencies.deps.len()
        ));
        out.push_str(&format!("merged SC:    {} constraints\n", w.sc.constraint_count()));
        out.push_str(&format!(
            "ASC:          {} constraints ({} bridges, {} service relations dropped)\n",
            w.asc.constraint_count(),
            w.translation.bridges.len(),
            w.translation.dropped
        ));
        out.push_str(&format!(
            "minimal P*:   {} constraints ({} removed total)\n",
            w.minimal.constraint_count(),
            w.total_removed()
        ));
        out.push_str(&format!(
            "validation:   {} ({} branch assignments)\n",
            if self.validation.ok() { "OK" } else { "FAILED" },
            self.validation.assignments_checked
        ));
        out.push_str(&format!(
            "execution:    makespan {} | peak concurrency {} | {} constraint checks\n",
            self.schedule.trace.makespan(),
            self.schedule.trace.max_concurrency(),
            self.schedule.constraint_checks
        ));
        out.push_str(&format!(
            "verification: {} violations of the original SC, {} WSCL conformance violations\n",
            self.violations.len(),
            self.conformance.len()
        ));
        out
    }
}

/// Extracts the full dependency set for the vertical: PDG data/control
/// from the process, WSCL service dependencies, analyst cooperation.
pub fn assemble_dependencies(
    process: &Process,
    conversations: &[(Conversation, ServiceBinding)],
    cooperation: &[dscweaver_core::Dependency],
) -> Result<dscweaver_core::DependencySet, WsclError> {
    let mut ds = dscweaver_pdg::extract(
        process,
        dscweaver_pdg::ExtractOptions {
            data: true,
            control: true,
            services_from_decls: false,
        },
    );
    for (conv, binding) in conversations {
        let (deps, nodes) = derive_service_dependencies(conv, binding)?;
        for n in nodes {
            ds.add_service(n);
        }
        for d in deps {
            ds.push(d);
        }
    }
    for d in cooperation {
        ds.push(d.clone());
    }
    Ok(ds)
}

/// Runs `f` under the named phase latency histogram (metrics plane; a
/// no-op while metrics recording is off).
fn timed<T>(hist: &'static str, f: impl FnOnce() -> T) -> T {
    let t0 = std::time::Instant::now();
    let out = f();
    obs::histogram(hist).observe(t0.elapsed().as_nanos() as u64);
    out
}

/// Runs the full vertical.
pub fn weave(input: &VerticalInput<'_>) -> Result<VerticalOutput, VerticalError> {
    let _span = obs::span_with("weave", || input.process.name.clone());
    let ds = {
        let _span = obs::span("weave.dependencies");
        timed("weave.dependencies", || {
            assemble_dependencies(input.process, input.conversations, input.cooperation)
        })
        .map_err(VerticalError::Wscl)?
    };
    let weaver_out =
        timed("weave.optimize", || input.weaver.run(&ds)).map_err(VerticalError::Weaver)?;
    // The Weaver's thread knob drives the minimizer (including the
    // level-parallel interned closure build), validation and (unless the
    // sim config sets its own) the scheduler's guard-evaluation batches.
    let validation = timed("weave.validate", || {
        validate(
            &weaver_out.minimal,
            &weaver_out.exec,
            &ValidateOptions {
                threads: input.weaver.threads,
                ..Default::default()
            },
        )
    });
    let mut sim = input.sim.clone();
    if sim.threads == 0 {
        sim.threads = input.weaver.threads;
    }
    let schedule = timed("weave.schedule", || {
        simulate(&weaver_out.minimal, &weaver_out.exec, &sim)
    });
    // Correctness contract: the trace produced under the MINIMAL set must
    // satisfy the FULL merged SC, projected to internal activities (the
    // ASC before minimization, which carries every data/control/coop
    // constraint plus the translated service constraints).
    let violations = {
        let _span = obs::span("weave.verify");
        timed("weave.verify", || schedule.trace.verify(&weaver_out.asc))
    };
    let conformance = {
        let _span = obs::span("weave.conformance");
        timed("weave.conformance", || {
            dscweaver_scheduler::check_all_conformance(&schedule.trace, input.conversations)
        })
    };
    let bpel = {
        let _span = obs::span("bpel.emit");
        timed("bpel.emit", || {
            dscweaver_bpel::emit_string(input.process, &weaver_out.minimal)
        })
    };
    Ok(VerticalOutput {
        weaver: weaver_out,
        validation,
        schedule,
        violations,
        conformance,
        bpel,
    })
}

/// Convenience: run the vertical on an explicitly supplied dependency set
/// (skipping extraction), e.g. the canonical Table 1.
pub fn weave_dependencies(
    process: &Process,
    ds: &dscweaver_core::DependencySet,
    weaver: &Weaver,
    sim: &SimConfig,
) -> Result<VerticalOutput, VerticalError> {
    let _span = obs::span_with("weave", || process.name.clone());
    let weaver_out = weaver.run(ds).map_err(VerticalError::Weaver)?;
    let validation = validate(
        &weaver_out.minimal,
        &weaver_out.exec,
        &ValidateOptions {
            threads: weaver.threads,
            ..Default::default()
        },
    );
    let mut sim = sim.clone();
    if sim.threads == 0 {
        sim.threads = weaver.threads;
    }
    let schedule = simulate(&weaver_out.minimal, &weaver_out.exec, &sim);
    let violations = {
        let _span = obs::span("weave.verify");
        schedule.trace.verify(&weaver_out.asc)
    };
    let bpel = {
        let _span = obs::span("bpel.emit");
        dscweaver_bpel::emit_string(process, &weaver_out.minimal)
    };
    Ok(VerticalOutput {
        weaver: weaver_out,
        validation,
        schedule,
        violations,
        conformance: Vec::new(),
        bpel,
    })
}

/// Configuration for [`monitor_replay`]: fan one executed vertical out
/// into a fleet of live instances and stream them through the
/// `scheduler::monitor` engine.
#[derive(Clone, Copy, Debug)]
pub struct MonitorReplayConfig {
    /// Fleet size (all instances stay live for the whole stream).
    pub instances: u32,
    /// Ingest batch size.
    pub batch: usize,
    /// Generator seed.
    pub seed: u64,
    /// Per-kind violation injection rate (ordering, exclusive and
    /// conversation injections each drawn independently at this rate).
    pub rate: f64,
    /// Monitor worker threads (`0` = auto).
    pub threads: usize,
    /// Pin the verdict stream to the post-hoc oracle (one `Trace::verify`
    /// + conformance pass per instance — linear in fleet size).
    pub verify: bool,
}

impl Default for MonitorReplayConfig {
    fn default() -> Self {
        MonitorReplayConfig {
            instances: 1000,
            batch: 1024,
            seed: 42,
            rate: 0.01,
            threads: 0,
            verify: true,
        }
    }
}

/// What [`monitor_replay`] measured.
pub struct MonitorReplayReport {
    /// Fleet size.
    pub instances: u32,
    /// Events streamed.
    pub events: usize,
    /// Injected violations across kinds (an instance may carry several).
    pub injected: usize,
    /// Ingest wall time in milliseconds.
    pub ingest_ms: f64,
    /// Ingest throughput.
    pub events_per_sec: f64,
    /// Monitor state after the stream drained.
    pub stats: dscweaver_scheduler::MonitorStats,
    /// The verdicts, sorted by `(instance, kind, relation)`.
    pub verdicts: Vec<dscweaver_scheduler::Verdict>,
}

impl MonitorReplayReport {
    /// A human-readable summary (verdicts capped at ten lines).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "monitor: {} instances x {} events each = {} events\n",
            self.instances,
            self.events / (self.instances.max(1) as usize),
            self.events
        ));
        out.push_str(&format!(
            "ingest:  {:.1} ms | {:.0} events/sec | {:.0} bytes/instance | peak live {}\n",
            self.ingest_ms,
            self.events_per_sec,
            self.stats.bytes as f64 / self.stats.peak_live.max(1) as f64,
            self.stats.peak_live
        ));
        out.push_str(&format!(
            "fleet:   {} injected, {} retired, {} slab rows, {} verdicts\n",
            self.injected, self.stats.retired, self.stats.slab_rows, self.stats.verdicts
        ));
        for v in self.verdicts.iter().take(10) {
            out.push_str(&format!(
                "  #{} {:?}: {}\n",
                v.instance, v.kind, v.relation
            ));
        }
        if self.verdicts.len() > 10 {
            out.push_str(&format!("  ... {} more\n", self.verdicts.len() - 10));
        }
        out
    }
}

/// Streams a fleet of instances of an executed vertical through the
/// online conformance monitor: compiles the vertical's full contract (the
/// ASC plus its WSCL conversations, projected to the activities the
/// schedule actually executed) into a monitor program, replays the
/// executed trace as the per-instance event template, injects violations
/// at the configured rate and ingests the interleaved stream. With
/// `verify` set, the sorted verdict stream is checked against the
/// post-hoc oracle before the report is returned.
pub fn monitor_replay(
    out: &VerticalOutput,
    conversations: &[(Conversation, ServiceBinding)],
    cfg: &MonitorReplayConfig,
) -> Result<MonitorReplayReport, String> {
    use dscweaver_scheduler::{EventKind, MonitorConfig, MonitorProgram, MonitorState};
    use dscweaver_workloads::eventlog::{base_sequence, event_log, EventLogParams};

    let _span = obs::span("monitor.replay");
    // Project the contract to what actually ran: dead-path activities are
    // dropped, and the compiler's tolerance then skips every relation,
    // exclusive or conversation interaction touching them (the same
    // vacuousness the post-hoc checkers apply).
    let mut cs = out.weaver.asc.clone();
    cs.activities = out
        .schedule
        .trace
        .events
        .iter()
        .filter(|e| e.kind != EventKind::Skip)
        .map(|e| e.activity.clone())
        .collect();
    let program = MonitorProgram::compile(&cs, conversations).map_err(|e| e.to_string())?;
    let base = base_sequence(&program, &out.schedule.trace)?;
    let log = event_log(
        &program,
        &base,
        &EventLogParams {
            instances: cfg.instances.max(1),
            seed: cfg.seed,
            ordering_rate: cfg.rate,
            exclusive_rate: cfg.rate,
            conversation_rate: cfg.rate,
            ..EventLogParams::default()
        },
    );
    let mut state = MonitorState::new(
        &program,
        &MonitorConfig {
            threads: cfg.threads,
            shards: 0,
            capacity: cfg.instances as usize,
        },
    );
    let mut verdicts = Vec::new();
    let t0 = std::time::Instant::now();
    for chunk in log.events.chunks(cfg.batch.max(1)) {
        verdicts.extend(state.ingest(chunk));
    }
    let secs = t0.elapsed().as_secs_f64().max(1e-12);
    verdicts.sort();
    if cfg.verify {
        let oracle =
            dscweaver_scheduler::oracle_verdicts(&program, &cs, conversations, &log.events);
        if verdicts != oracle {
            return Err(format!(
                "monitor verdicts diverge from the post-hoc oracle: {} vs {}",
                verdicts.len(),
                oracle.len()
            ));
        }
    }
    Ok(MonitorReplayReport {
        instances: cfg.instances.max(1),
        events: log.events.len(),
        injected: log.injected_total(),
        ingest_ms: secs * 1e3,
        events_per_sec: log.events.len() as f64 / secs,
        stats: state.stats(),
        verdicts,
    })
}

/// The structural (Figure-2 style) baseline for the same process, run on
/// the same engine — used for concurrency comparisons.
pub fn baseline_schedule(
    process: &Process,
    sim: &SimConfig,
) -> Result<(ConstraintSet, Schedule), dscweaver_scheduler::StructuralError> {
    let cs = dscweaver_scheduler::structural_constraints(process)?;
    let exec = dscweaver_core::ExecConditions::derive(&cs);
    let schedule = simulate(&cs, &exec, sim);
    Ok((cs, schedule))
}
