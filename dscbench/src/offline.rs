//! The offline weave: in-process, one caller, no daemon. Each job weaves a
//! layered process in a fresh `Weaver` session, validates and simulates
//! the minimal set through the compiled engines, then re-weaves a
//! single-edit revision on the same session.

use crate::calib;
use crate::ledger::{self, Ledger};
use crate::stats::{self, Scaled};
use crate::{Config, Outcome, Window};
use dscweaver_core::{
    merge, minimize_with, translate_services, DependencySet, ExecConditions, MinimizeOptions,
    ReweavePath, WeaveSession, Weaver, WeaverOutput,
};
use dscweaver_dscl::ConstraintSet;
use dscweaver_petri::{CompiledValidation, ValidateOptions};
use dscweaver_prng::Rng;
use dscweaver_scheduler::{PreparedSchedule, ScheduleTables, SimConfig};
use dscweaver_workloads::{edit_burst, layered, EditProfile, LayeredParams};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// Processes the jobs rotate over.
const PROCESSES: u64 = 64;

/// Engine threads of a job: one caller, sequential engines.
const THREADS: usize = 1;

/// At most this many jobs are re-checked against a fresh weave after the
/// run; each job is picked with probability `1 / SAMPLE_EVERY`, the first
/// one always.
const SAMPLES: usize = 32;
const SAMPLE_EVERY: usize = 16;

fn weaver() -> Weaver {
    Weaver {
        threads: THREADS,
        ..Weaver::new()
    }
}

/// The `k`-th process of a run: n = 403 activities (8 × 50 plus 3
/// guards) with 400 injected redundant constraints; smoke runs use n = 42.
fn params(seed: u64, k: u64, smoke: bool) -> LayeredParams {
    let seed = seed.wrapping_mul(PROCESSES).wrapping_add(k);
    if smoke {
        LayeredParams {
            width: 4,
            depth: 10,
            density: 0.3,
            redundant: 40,
            guards: 2,
            seed,
        }
    } else {
        LayeredParams {
            width: 8,
            depth: 50,
            density: 0.25,
            redundant: 400,
            guards: 3,
            seed,
        }
    }
}

/// Generates the processes and weaves each once.
fn setup(cfg: &Config) -> Result<Vec<DependencySet>, String> {
    (0..PROCESSES)
        .map(|k| {
            let ds = layered(&params(cfg.seed, k, cfg.smoke));
            weaver()
                .run(&ds)
                .map_err(|e| format!("process {k} does not weave: {e}"))?;
            Ok(ds)
        })
        .collect()
}

/// Job `j`'s revision of `base`: one level-stable edit.
fn revision(base: &DependencySet, seed: u64, phase: u64, j: u64) -> Result<DependencySet, String> {
    let mut rng = Rng::seed_from_u64(seed ^ (phase << 40 | j).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut edited = base.clone();
    if edit_burst(&mut edited, &mut rng, 1, EditProfile::LevelStable).len() != 1 {
        return Err(format!("job {j}: no level-stable edit applies"));
    }
    Ok(edited)
}

/// What a job leaves behind for its checks.
struct Job {
    session: WeaveSession,
    reweave_path: ReweavePath,
    reweave_fingerprint: u64,
    valid: bool,
    completed: bool,
}

/// One job: weave, validate, simulate, re-weave.
fn job(ds: &DependencySet, edited: &DependencySet) -> Result<Job, String> {
    let mut session = weaver().session();
    session.weave(ds).map_err(|e| e.to_string())?;
    let out = session.output().expect("a successful weave has output");
    let report = CompiledValidation::compile(&out.minimal, &out.exec).run(&ValidateOptions {
        threads: THREADS,
        ..Default::default()
    });
    let tables = ScheduleTables::derive(&out.minimal, &out.exec);
    let schedule =
        PreparedSchedule::with_tables(&out.minimal, &out.exec, &tables).run(&SimConfig {
            threads: THREADS,
            ..Default::default()
        });
    let rep = session.weave(edited).map_err(|e| e.to_string())?;
    Ok(Job {
        session,
        reweave_path: rep.path,
        reweave_fingerprint: rep.fingerprint,
        valid: report.ok(),
        completed: schedule.completed(),
    })
}

/// A digest of a woven output's kept and removed constraints, order-free
/// for the kept set.
fn digest(out: &WeaverOutput) -> u64 {
    let mut kept: Vec<String> = out
        .minimal
        .happen_befores()
        .map(|r| r.to_string())
        .collect();
    kept.sort();
    let removed: Vec<String> = out.removed.iter().map(|r| r.to_string()).collect();
    let mut h = DefaultHasher::new();
    (kept, removed).hash(&mut h);
    h.finish()
}

/// A job kept for the re-check after the window: its number and phase,
/// from which its revision is generated again, and what its re-weave
/// produced. Only these numbers are kept, so the resident set does not
/// grow with the number of jobs a run gets through.
struct Sample {
    job: u64,
    phase: u64,
    digest: u64,
    fingerprint: u64,
}

/// The minimal set of a woven process and the execution conditions it was
/// woven under.
pub struct Woven {
    /// The minimal constraint set `P*`.
    pub minimal: ConstraintSet,
    /// Execution conditions of the merged set.
    pub exec: ExecConditions,
}

/// The weave front half and minimization of `ds`, one public call per
/// layer, as `Weaver::run` composes them. Returns the result with the
/// summed time of the calls.
///
/// `minimize_with` runs on one thread whatever the caller's knob: a
/// `WeaveSession` always runs its greedy pass on one thread, and only
/// spreads the closure over several, which for these sizes stays on one.
pub fn weave_layers(ledger: &mut Ledger, ds: &DependencySet) -> Result<(Woven, i64), String> {
    let (sc, merge_ns) = ledger.timed("core.merge", || {
        let mut sc = merge(ds);
        let errors = sc.validate();
        if !errors.is_empty() {
            return Err(format!("{} constraint errors", errors.len()));
        }
        sc.desugar_happen_together();
        Ok(sc)
    });
    let sc = sc?;
    let (exec, exec_ns) = ledger.timed("core.exec_conditions", || ExecConditions::derive(&sc));
    let ((asc, _), translate_ns) = ledger.timed("core.translate", || translate_services(&sc));
    let w = Weaver::new();
    let opts = MinimizeOptions {
        threads: 1,
        ..Default::default()
    };
    let (result, minimize_ns) = ledger.timed("core.minimize", || {
        minimize_with(&asc, &exec, w.mode, &w.order, &opts)
    });
    let result = result.map_err(|e| e.to_string())?;
    ledger.count(
        "core.minimize.implies_hits",
        result.stats.implies_cache_hits as f64,
    );
    ledger.count(
        "core.minimize.implies_misses",
        result.stats.implies_cache_misses as f64,
    );
    ledger.count("core.minimize.removed", result.removed.len() as f64);
    Ok((
        Woven {
            minimal: result.minimal,
            exec,
        },
        merge_ns + exec_ns + translate_ns + minimize_ns,
    ))
}

/// Replays `n` seeded jobs through the public calls of each layer.
fn replay(bases: &[DependencySet], seed: u64, n: u64, ledger: &mut Ledger) -> Result<(), String> {
    for j in 0..n {
        ledger.next_request();
        let ds = &bases[(j % PROCESSES) as usize];
        let edited = revision(ds, seed, 2, j)?;
        let (woven, _) = weave_layers(ledger, ds)?;
        let (compiled, _) = ledger.timed("petri.compile", || {
            CompiledValidation::compile(&woven.minimal, &woven.exec)
        });
        let (report, _) = ledger.timed("petri.validate", || {
            compiled.run(&ValidateOptions {
                threads: THREADS,
                ..Default::default()
            })
        });
        ledger.count(
            "petri.validate.assignments_checked",
            report.assignments_checked as f64,
        );
        let (tables, _) = ledger.timed("scheduler.tables", || {
            ScheduleTables::derive(&woven.minimal, &woven.exec)
        });
        let (schedule, _) = ledger.timed("scheduler.simulate", || {
            PreparedSchedule::with_tables(&woven.minimal, &woven.exec, &tables).run(&SimConfig {
                threads: THREADS,
                ..Default::default()
            })
        });
        ledger.count(
            "scheduler.simulate.constraint_checks",
            schedule.constraint_checks as f64,
        );
        // The session's initial weave is what the re-weave edits; it is
        // not a replayed call (the layers above stand in for it).
        let mut session = weaver().session();
        session.weave(ds).map_err(|e| e.to_string())?;
        if session.output().expect("woven").minimal.to_dscl() != woven.minimal.to_dscl() {
            return Err(format!(
                "replayed job {j}: per-layer weave disagrees with the session"
            ));
        }
        ledger
            .timed("core.reweave", || session.weave(&edited))
            .0
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Tail quantile of the job latencies, taken over blocks of 100 jobs: a
/// 25 s window of jobs of up to 100 ms fills two.
const TAIL: f64 = 0.90;

/// The job stream of a run, from warm-up through the measured slices.
struct Jobs<'a> {
    bases: &'a [DependencySet],
    seed: u64,
    /// Jobs run so far.
    next: u64,
    pick: Rng,
    sampled: Vec<Sample>,
}

impl Jobs<'_> {
    /// Runs jobs until `window` closes and returns their latencies in
    /// nanoseconds; failures of the measured phase (1) count as failed.
    fn run(&mut self, window: &Window, phase: u64, out: &mut Outcome) -> Result<Vec<i64>, String> {
        let mut latencies = Vec::new();
        while window.more(Instant::now()) {
            let j = self.next;
            self.next += 1;
            let ds = &self.bases[(j % PROCESSES) as usize];
            let edited = revision(ds, self.seed, phase, j)?;
            let start = Instant::now();
            let done = job(ds, &edited);
            latencies.push(start.elapsed().as_nanos() as i64);
            let failure = match done {
                Err(e) => Some(e),
                Ok(job) if !job.valid => Some("the minimal set fails Petri validation".into()),
                Ok(job) if !job.completed => Some("the minimal set deadlocks in simulation".into()),
                Ok(job) if job.reweave_path != ReweavePath::Delta => Some(format!(
                    "level-stable edit re-wove on {:?}",
                    job.reweave_path
                )),
                Ok(job) => {
                    if self.sampled.is_empty()
                        || (self.pick.random_range(SAMPLE_EVERY) == 0
                            && self.sampled.len() < SAMPLES)
                    {
                        self.sampled.push(Sample {
                            job: j,
                            phase,
                            digest: digest(job.session.output().expect("woven")),
                            fingerprint: job.reweave_fingerprint,
                        });
                    }
                    None
                }
            };
            if let Some(e) = failure {
                out.failed += u64::from(phase == 1);
                out.errors.push(format!("job {j}: {e}"));
            }
        }
        Ok(latencies)
    }
}

/// Runs `weave_offline` end to end. The peak resident set is read after
/// the first set-up and the window; the further set-ups that time
/// `setup_s` follow.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let (bases, first_ns) = calib::timed(THREADS, || setup(cfg));
    let bases = bases?;
    let mut out = Outcome::default();
    let mut jobs = Jobs {
        bases: &bases,
        seed: cfg.seed,
        next: 0,
        pick: Rng::seed_from_u64(cfg.seed ^ 0x5a5a),
        sampled: Vec::new(),
    };
    jobs.run(&cfg.warmup(), 0, &mut out)?;
    // One caller: the slice's rate is its jobs over their summed time.
    let mut scaled = Scaled::default();
    let mut latencies: Vec<i64> = Vec::new();
    let mut clock = calib::Clock::start(THREADS);
    while let Some(window) = cfg.next_slice(&scaled, TAIL) {
        let slice = jobs.run(&window, 1, &mut out)?;
        let scale = clock.end_slice();
        scaled.add_rate(slice.len(), slice.iter().sum(), scale);
        scaled.add_latencies(slice.iter().copied(), scale);
        latencies.extend(slice);
    }
    out.attempted = latencies.len() as u64;
    let sampled = std::mem::take(&mut jobs.sampled);

    // Each sampled re-weave must equal a fresh weave of the edited revision.
    for sample in &sampled {
        let base = &bases[(sample.job % PROCESSES) as usize];
        let edited = revision(base, cfg.seed, sample.phase, sample.job)?;
        let fresh = weaver().run(&edited).map_err(|e| e.to_string())?;
        if sample.digest != digest(&fresh) {
            out.errors.push(format!(
                "re-weave of {} differs from a fresh weave",
                edited.name
            ));
        }
        let fresh = weaver()
            .session()
            .weave(&edited)
            .map_err(|e| e.to_string())?
            .fingerprint;
        if sample.fingerprint != fresh {
            out.errors.push(format!(
                "re-weave fingerprint of {} differs from a fresh session",
                edited.name
            ));
        }
    }

    if !cfg.trace {
        out.load(&scaled, TAIL)?;
        let mut setup_ns = vec![first_ns];
        for _ in 1..cfg.setup_reps() {
            let (again, ns) = calib::timed(THREADS, || setup(cfg));
            std::hint::black_box(again?);
            setup_ns.push(ns);
        }
        out.setup(&setup_ns);
    } else {
        let e2e_mean = stats::mean(&latencies);
        let mut ledger = Ledger::default();
        replay(&bases, cfg.seed, cfg.replay_jobs(), &mut ledger)?;
        ledger::emit_per_layer(&mut ledger, e2e_mean, None, (0.0, 0.0), &mut out)?;
        cfg.write_trace(&ledger)?;
    }
    Ok(out)
}
