//! The rating engines: produce fair EVALs for a set of candidate
//! optimization configurations using CBR, MBR, RBR, or the WHL/AVG
//! baselines (paper §2, §3, §5.2).
//!
//! All methods report *relative improvement over the base version*
//! (`> 1` = candidate faster), so the search can compare candidates
//! uniformly regardless of how the rating was obtained.
//!
//! CBR/AVG, MBR and RBR sample per invocation and share one run loop
//! (`drive`): it owns the run cap, run starts, invocation accounting,
//! dropout and crash counting, and the end-of-run done check; a method
//! supplies only its per-invocation step (which version to run, how to
//! time it, where the reading goes). WHL times whole runs, one per
//! version, so it has no step and keeps its own loop. The per-invocation
//! protocols are the ones the Table 1 collector ([`crate::consistency`])
//! and the consultant's MBR quality profile measure with.

use crate::consultant::{Consultation, Method};
use crate::harness::RunHarness;
use crate::job::CancelToken;
use crate::sched::Pool;
use crate::stats::Window;
use crate::version_cache::{VersionCache, VersionKey};
use peak_ir::Value;
use peak_obs::{event, fields, span, Tracer};
use peak_opt::{CompiledVersion, OptConfig};
use peak_sim::{ExecError, ExecOptions, FaultConfig, FaultPlan, MachineSpec, PreparedVersion};
use peak_util::{Json, ToJson};
use peak_workloads::{Dataset, Workload};
use std::sync::Arc;

/// Shared tuning state: version cache, run/cycle accounting.
///
/// Split for parallel rating: the *immutable* inputs (workload
/// reference, machine spec, `Arc`'d consultant output, dataset, fault
/// scenario) are cheap to share across rating jobs, while the *scratch*
/// (run-seed cursor, cycle/run/invocation accounting, tracer) is
/// per-job. [`TuningSetup::fork_for_job`] clones the shared part into a
/// fresh scratch with a caller-chosen seed base; the per-candidate
/// rating protocol folds each finished job's accounting back in job-index
/// order, so totals are bit-identical at any thread count.
pub struct TuningSetup<'w> {
    /// Workload under tuning.
    pub workload: &'w dyn Workload,
    /// Target machine.
    pub spec: MachineSpec,
    /// Consultant output for this TS (shared across rating jobs).
    pub consult: Arc<Consultation>,
    /// Dataset used for tuning runs.
    pub ds: Dataset,
    next_seed: u64,
    fault_config: Option<FaultConfig>,
    tracer: Tracer,
    pool: Pool,
    cancel: CancelToken,
    /// True cycles consumed by tuning runs so far.
    pub tuning_cycles: u64,
    /// Application runs started so far.
    pub runs_used: usize,
    /// TS invocations consumed so far.
    pub invocations_used: u64,
}

impl<'w> TuningSetup<'w> {
    /// Create a tuning setup with the memoized consultant output
    /// ([`consult_shared`](crate::consultant::consult_shared)).
    pub fn new(workload: &'w dyn Workload, spec: MachineSpec, ds: Dataset) -> Self {
        TuningSetup {
            workload,
            consult: crate::consultant::consult_shared(workload, &spec),
            spec,
            ds,
            next_seed: 1,
            fault_config: None,
            tracer: Tracer::disabled(),
            pool: Pool::with_threads(1),
            cancel: CancelToken::new(),
            tuning_cycles: 0,
            runs_used: 0,
            invocations_used: 0,
        }
    }

    /// The shared consultant output.
    pub fn consultation(&self) -> Arc<Consultation> {
        self.consult.clone()
    }

    /// Install a job pool. The search layer uses it to pre-compile each
    /// round's candidate frontier in parallel ([`TuningSetup::warm_frontier`]);
    /// warm-up is pure (compilation is deterministic and cached), so
    /// installing a pool never changes a single rated cycle. The default
    /// single-thread pool makes warm-up a no-op.
    pub fn set_pool(&mut self, pool: Pool) {
        self.pool = pool;
    }

    /// The installed pool (single-threaded unless [`TuningSetup::set_pool`]
    /// was called).
    pub fn pool(&self) -> &Pool {
        &self.pool
    }

    /// Clone the shared (immutable) part into a fresh per-job scratch:
    /// zero accounting and a run-seed cursor starting at `seed_base`.
    /// The scratch gets a **disabled** tracer — parallel jobs must not
    /// interleave events into the parent's stream; callers that trace
    /// per-job give the fork its own buffered tracer via
    /// [`TuningSetup::set_tracer`] and splice in job order — and a
    /// single-thread pool (jobs do not re-fan-out).
    pub fn fork_for_job(&self, seed_base: u64) -> TuningSetup<'w> {
        TuningSetup {
            workload: self.workload,
            spec: self.spec.clone(),
            consult: self.consult.clone(),
            ds: self.ds,
            next_seed: seed_base,
            fault_config: self.fault_config.clone(),
            tracer: Tracer::disabled(),
            pool: Pool::with_threads(1),
            // Forked jobs share the parent's cancel token: a deadline
            // firing mid-frontier stops every candidate job cooperatively.
            cancel: self.cancel.clone(),
            tuning_cycles: 0,
            runs_used: 0,
            invocations_used: 0,
        }
    }

    /// Pre-compile every configuration in `cfgs` (the next rating call's
    /// candidate frontier) through the process-wide [`VersionCache`] on
    /// the installed pool. Concurrent warm-ups of the same key compile
    /// once (in-flight de-duplication). No-op on a single-thread pool:
    /// the serial path compiles lazily in the same order anyway.
    pub fn warm_frontier(&self, cfgs: &[OptConfig], instrumented: bool) {
        if self.pool.threads() <= 1 || cfgs.is_empty() {
            return;
        }
        if instrumented && self.consult.mbr.is_none() {
            return;
        }
        let requests: Vec<_> =
            cfgs.iter().map(|&cfg| self.version_request(cfg, instrumented)).collect();
        VersionCache::global().warm(&self.pool, &self.spec, requests);
    }

    /// Install (or clear) a fault scenario: every subsequent run gets a
    /// [`FaultPlan`] derived from the scenario seed and that run's seed,
    /// so fault streams replay exactly per run regardless of history.
    pub fn set_faults(&mut self, config: Option<FaultConfig>) {
        self.fault_config = config;
    }

    /// The installed fault scenario, if any.
    pub fn fault_config(&self) -> Option<&FaultConfig> {
        self.fault_config.as_ref()
    }

    /// Install a cancellation token. Every subsequent run start (and IE
    /// round boundary) becomes a cooperative cancellation point: when the
    /// token fires, the next check unwinds with the
    /// [`Cancelled`](crate::job::Cancelled) sentinel, to be caught at the
    /// job boundary by [`crate::job::run_tuning_job`]. The default token
    /// never fires, so uncancelled tuning is bit-identical.
    pub fn set_cancel(&mut self, cancel: CancelToken) {
        self.cancel = cancel;
    }

    /// The installed cancellation token.
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// Cooperative cancellation point: unwinds with the
    /// [`Cancelled`](crate::job::Cancelled) sentinel when the installed
    /// token has fired, else does nothing.
    pub fn check_cancel(&self) {
        self.cancel.check();
    }

    /// Install a tracer: every subsequent run and rating call emits
    /// telemetry through it. The default disabled tracer leaves the
    /// tuning path bit-identical to an uninstrumented build.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The installed tracer (disabled by default).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Seed the next run will be derived from (checkpointing).
    pub fn next_seed(&self) -> u64 {
        self.next_seed
    }

    /// Restore run accounting from a checkpoint so a resumed tuner
    /// replays the exact run-seed sequence of the uninterrupted run.
    pub fn restore_accounting(
        &mut self,
        next_seed: u64,
        tuning_cycles: u64,
        runs_used: usize,
        invocations_used: u64,
    ) {
        self.next_seed = next_seed;
        self.tuning_cycles = tuning_cycles;
        self.runs_used = runs_used;
        self.invocations_used = invocations_used;
    }

    /// Compile (and cache, process-wide) a version. `instrumented`
    /// selects the MBR-instrumented TS as the source. Hits in the
    /// [`VersionCache`] are shared across setups, search rounds, rating
    /// retries, the degradation cascade, and checkpoint resume.
    pub fn version(&mut self, cfg: OptConfig, instrumented: bool) -> Arc<PreparedVersion> {
        let (key, compile) = self.version_request(cfg, instrumented);
        VersionCache::global().get_or_prepare(key, &self.spec, compile)
    }

    /// `base` then every candidate, compiled through [`TuningSetup::version`].
    fn versions(
        &mut self,
        base: OptConfig,
        candidates: &[OptConfig],
        instrumented: bool,
    ) -> Vec<Arc<PreparedVersion>> {
        std::iter::once(&base).chain(candidates).map(|c| self.version(*c, instrumented)).collect()
    }

    /// The [`VersionCache`] key and compile thunk for `cfg`, compiled from
    /// the workload's TS or (`instrumented`) the MBR-instrumented TS.
    fn version_request(
        &self,
        cfg: OptConfig,
        instrumented: bool,
    ) -> (VersionKey, impl FnOnce() -> CompiledVersion + Send + 'w) {
        let key = if instrumented {
            VersionKey::instrumented(self.workload, cfg, self.spec.kind)
        } else {
            VersionKey::plain(self.workload, cfg, self.spec.kind)
        };
        let workload = self.workload;
        let consult = self.consult.clone();
        let compile = move || {
            let (prog, ts) = if instrumented {
                let m = consult.mbr.as_ref().expect("instrumented version needs MBR model");
                (&m.instrumented, m.ts)
            } else {
                (workload.program(), workload.ts())
            };
            crate::compile::compile_validated(prog, ts, &cfg)
        };
        (key, compile)
    }

    /// Start a fresh application run (a new process). This is the
    /// fine-grained cancellation point: a rating call starts at most
    /// `MAX_RUNS_PER_RATING` runs, so a fired deadline interrupts tuning
    /// within one application run's worth of work.
    pub fn new_run(&mut self) -> RunHarness<'w> {
        self.cancel.check();
        self.runs_used += 1;
        self.next_seed += 1;
        let faults =
            self.fault_config.as_ref().map(|c| FaultPlan::new(c.clone(), self.next_seed));
        let mut h =
            RunHarness::with_faults(self.workload, self.ds, &self.spec, self.next_seed, faults);
        h.set_tracer(self.tracer.clone());
        h
    }

    /// Account a finished (or abandoned) run's cycles; when a tracer is
    /// installed, emits the run's `sim.run` event
    /// ([`RunHarness::emit_run_event`]).
    pub fn absorb_run(&mut self, h: &RunHarness<'_>) {
        self.tuning_cycles += h.cycles();
        h.emit_run_event(&self.tracer, self.runs_used as u64, self.next_seed);
    }
}

/// Result of rating a candidate set.
#[derive(Debug, Clone)]
pub struct RateOutcome {
    /// Per-candidate improvement over base (>1 = candidate faster).
    pub improvements: Vec<f64>,
    /// Per-candidate rating variance: the CV of the mean estimate for
    /// window methods (the quantity convergence is judged on — an
    /// exhausted window carries its real CV here), the regression
    /// variance for MBR.
    pub vars: Vec<f64>,
    /// Candidates whose window never converged.
    pub unconverged: usize,
    /// The method that produced these numbers.
    pub method: Method,
    /// Measurements accepted into estimates.
    pub samples: usize,
    /// Samples rejected by the outlier filter across all estimates.
    pub trimmed: usize,
    /// Measurements lost to injected dropout (invocation ran, reading
    /// lost).
    pub dropouts: u64,
    /// Runs abandoned because an execution crashed (injected fault).
    pub crashes: u64,
}

impl RateOutcome {
    /// Fraction of measurements lost to dropout (0 when nothing was
    /// measured).
    pub fn dropout_rate(&self) -> f64 {
        let total = self.samples as f64 + self.dropouts as f64;
        if total <= 0.0 {
            0.0
        } else {
            self.dropouts as f64 / total
        }
    }
}

/// Hard cap on runs per rating call.
const MAX_RUNS_PER_RATING: usize = 60;
/// Window bounds per method.
const CBR_WINDOW: (usize, usize, f64) = (12, 160, 0.008);
const AVG_WINDOW: (usize, usize, f64) = (12, 160, 0.008);
const RBR_WINDOW: (usize, usize, f64) = (8, 48, 0.008);
const MBR_MIN_ROWS: usize = 32;
const MBR_MAX_ROWS: usize = 240;
const MBR_VAR_OK: f64 = 0.15;

/// Rate `candidates` against `base` using `method`. Returns `None` when
/// the method is structurally inapplicable (no plan).
pub fn rate(
    setup: &mut TuningSetup<'_>,
    method: Method,
    base: OptConfig,
    candidates: &[OptConfig],
) -> Option<RateOutcome> {
    crate::metrics::core_metrics().rating_calls.inc();
    let tracer = setup.tracer.clone();
    let _span = span!(
        tracer,
        "rating",
        method = method.name(),
        base = base.bits(),
        candidates = candidates.len() as u64,
    );
    // Self-profiling baselines: runs/invocations/cycles before the call
    // give the method's exclusive measurement cost; wall-clock only when
    // the tracer opted in (it breaks trace byte-identity).
    let (runs0, inv0, cyc0) = (setup.runs_used, setup.invocations_used, setup.tuning_cycles);
    let wall0 = tracer.wall_ns();
    let out = match method {
        Method::Cbr => {
            setup.consult.cbr.is_some().then(|| rate_cbr(setup, base, candidates, true))
        }
        Method::Avg => Some(rate_cbr(setup, base, candidates, false)),
        Method::Mbr => {
            setup.consult.mbr.is_some().then(|| rate_mbr(setup, base, candidates))
        }
        Method::Rbr => Some(rate_rbr(setup, base, candidates, true)),
        Method::Whl => Some(rate_whl(setup, base, candidates)),
    };
    if tracer.enabled() {
        match &out {
            Some(o) => {
                let mut fields = fields!(
                    method = o.method.name(),
                    improvements = o.improvements.to_json(),
                    vars = o.vars.to_json(),
                    unconverged = o.unconverged as u64,
                    samples = o.samples as u64,
                    trimmed = o.trimmed as u64,
                    dropouts = o.dropouts,
                    crashes = o.crashes,
                    runs = (setup.runs_used - runs0) as u64,
                    invocations = setup.invocations_used - inv0,
                    cycles = setup.tuning_cycles - cyc0,
                );
                if let (Some(w0), Some(w1)) = (wall0, tracer.wall_ns()) {
                    fields.push(("wall_ns".to_owned(), Json::U(w1.saturating_sub(w0))));
                }
                tracer.emit("rating.outcome", fields);
            }
            None => event!(tracer, "rating.inapplicable", method = method.name()),
        }
    }
    out
}

/// What one invocation did for a rating (the step contract of [`drive`]).
enum Step {
    /// The invocation ran; the method may have taken a sample.
    Ran,
    /// The invocation ran, but its reading was lost to injected dropout.
    Dropout,
    /// No version needs another sample: the rating is over.
    Finished,
}

/// The run/invocation loop of every per-invocation rating method. It
/// starts at most [`MAX_RUNS_PER_RATING`] runs, counts each invocation
/// into `invocations_used`, and hands it to `step`, which samples
/// `state`. An injected crash abandons the run (counted in `crashes`);
/// any other [`ExecError`] panics. Each run's cycles are absorbed when it
/// ends, and the rating stops early once `done(state)` holds after a run
/// or `step` reports [`Step::Finished`]. Returns `(dropouts, crashes)`.
fn drive<'w, S>(
    setup: &mut TuningSetup<'w>,
    state: &mut S,
    mut step: impl FnMut(&mut S, &mut RunHarness<'w>, &[Value]) -> Result<Step, ExecError>,
    done: impl Fn(&S) -> bool,
) -> (u64, u64) {
    let (mut dropouts, mut crashes) = (0, 0);
    for _ in 0..MAX_RUNS_PER_RATING {
        let mut h = setup.new_run();
        while let Some(args) = h.next_args() {
            setup.invocations_used += 1;
            match step(state, &mut h, &args) {
                Ok(Step::Ran) => {}
                Ok(Step::Dropout) => dropouts += 1,
                Ok(Step::Finished) => {
                    setup.absorb_run(&h);
                    return (dropouts, crashes);
                }
                Err(ExecError::InjectedCrash { .. }) => {
                    crashes += 1;
                    break; // abandon the run: the process died
                }
                Err(e) => panic!("workload {} failed: {e}", setup.workload.name()),
            }
        }
        setup.absorb_run(&h);
        if done(state) {
            break;
        }
    }
    (dropouts, crashes)
}

/// The least-sampled window that is neither converged nor exhausted.
fn open_window(windows: &[Window]) -> Option<usize> {
    windows
        .iter()
        .enumerate()
        .filter(|(_, w)| !w.converged() && !w.exhausted())
        .min_by_key(|(_, w)| w.len())
        .map(|(i, _)| i)
}

/// `n` windows with `bounds` = (min, max, CV threshold).
fn new_windows(n: usize, (min, max, thr): (usize, usize, f64)) -> Vec<Window> {
    (0..n).map(|_| Window::with(min, max, thr)).collect()
}

/// Whether every window is converged or exhausted.
fn windows_closed(windows: &[Window]) -> bool {
    windows.iter().all(|w| w.converged() || w.exhausted())
}

/// Push a reading into `w`; a lost reading is a dropout.
fn record(w: &mut Window, reading: Option<f64>) -> Step {
    reading.map_or(Step::Dropout, |x| {
        w.push(x);
        Step::Ran
    })
}

/// The outcome of a window method (CBR/AVG/RBR). Emits `window.state`,
/// then rates the candidate windows `windows[first..]` by
/// `improvement(mean)`; an empty window rates 1.0.
fn window_outcome(
    tracer: &Tracer,
    method: Method,
    windows: &[Window],
    first: usize,
    improvement: impl Fn(f64) -> f64,
    (dropouts, crashes): (u64, u64),
) -> RateOutcome {
    event!(
        tracer,
        "window.state",
        method = method.name().to_ascii_lowercase(),
        lens = windows.iter().map(|w| w.len() as u64).collect::<Vec<_>>().to_json(),
        cvs = windows.iter().map(Window::mean_cv).collect::<Vec<_>>().to_json(),
    );
    let rated = &windows[first..];
    RateOutcome {
        improvements: rated
            .iter()
            .map(|w| match w.summary() {
                s if s.n == 0 => 1.0,
                s => improvement(s.mean),
            })
            .collect(),
        vars: rated.iter().map(Window::mean_cv).collect(),
        unconverged: windows.iter().filter(|w| !w.converged()).count(),
        method,
        samples: windows.iter().map(Window::len).sum(),
        trimmed: windows.iter().map(Window::rejected).sum(),
        dropouts,
        crashes,
    }
}

/// CBR (and, with `use_context = false`, the AVG baseline): average the
/// measured times of invocations — grouped by the most important context
/// for CBR, indiscriminately for AVG.
fn rate_cbr(
    setup: &mut TuningSetup<'_>,
    base: OptConfig,
    candidates: &[OptConfig],
    use_context: bool,
) -> RateOutcome {
    let consult = setup.consult.clone();
    let plan = use_context.then(|| consult.cbr.as_ref().expect("CBR plan"));
    // Window per version: index 0 = base.
    let versions = setup.versions(base, candidates, false);
    let bounds = if use_context { CBR_WINDOW } else { AVG_WINDOW };
    let mut windows = new_windows(versions.len(), bounds);
    let opts = ExecOptions::default();
    let (mut ctx_matches, mut ctx_misses) = (0u64, 0u64);
    let counts = drive(
        setup,
        &mut windows,
        |windows, h, args| {
            if let Some(plan) = plan {
                let key = h.context_key(&plan.sources, args);
                if crate::context::reduce_key(&key, &plan.varying) == *plan.important_context() {
                    ctx_matches += 1;
                } else {
                    // Off-context invocation: run the base version to keep
                    // the program advancing; its timing is not comparable.
                    ctx_misses += 1;
                    h.try_execute(&versions[0], args, &opts)?;
                    return Ok(Step::Ran);
                }
            }
            let Some(i) = open_window(windows) else { return Ok(Step::Finished) };
            let (measured, _) = h.try_execute_timed(&versions[i], args, &opts)?;
            Ok(record(&mut windows[i], measured.map(|t| t as f64)))
        },
        |windows| windows_closed(windows),
    );
    if use_context {
        event!(setup.tracer, "cbr.context", matches = ctx_matches, misses = ctx_misses);
    }
    let base_eval = windows[0].summary().mean.max(1.0);
    let method = if use_context { Method::Cbr } else { Method::Avg };
    window_outcome(&setup.tracer, method, &windows, 1, |mean| base_eval / mean.max(1.0), counts)
}

/// One version's MBR rows and its current fit `(eval, var)`.
#[derive(Default)]
struct MbrFit {
    times: Vec<f64>,
    counts: Vec<Vec<f64>>,
    eval: Option<(f64, f64)>,
}

impl MbrFit {
    /// The fit's regression variance; infinite before the first fit.
    fn var(&self) -> f64 {
        self.eval.map_or(f64::INFINITY, |(_, v)| v)
    }

    /// Whether the version still takes rows: variance above
    /// [`MBR_VAR_OK`] and fewer than [`MBR_MAX_ROWS`] rows.
    fn open(&self) -> bool {
        self.var() > MBR_VAR_OK && self.times.len() < MBR_MAX_ROWS
    }

    /// Whether the version is done: variance at most [`MBR_VAR_OK`] or
    /// [`MBR_MAX_ROWS`] rows. Not `!open`: a NaN variance is neither.
    fn done(&self) -> bool {
        self.var() <= MBR_VAR_OK || self.times.len() >= MBR_MAX_ROWS
    }

    /// Refit on the rows so far (outliers trimmed); keeps the old fit
    /// when the regression fails.
    fn refit(&mut self, model: &crate::mbr::MbrModel) {
        if let Some(reg) = crate::mbr::fit_trimmed(&self.times, &self.counts) {
            self.eval = Some((model.eval_of(&reg), reg.var));
        }
    }
}

/// MBR: regression of time on component counts per version (paper §2.3).
fn rate_mbr(
    setup: &mut TuningSetup<'_>,
    base: OptConfig,
    candidates: &[OptConfig],
) -> RateOutcome {
    let consult = setup.consult.clone();
    let model = consult.mbr.as_ref().expect("MBR model");
    let versions = setup.versions(base, candidates, true);
    let mut fits: Vec<MbrFit> = versions.iter().map(|_| MbrFit::default()).collect();
    let min_rows = MBR_MIN_ROWS.max(2 * model.num_components());
    // Version assignment is randomized, not round-robin: a fixed stride
    // phase-locks with periodic context streams (MGRID's V-cycle), giving
    // different versions systematically different context mixes and
    // biasing the fits against each other.
    let mut pick_rng: u64 = 0x9E3779B97F4A7C15;
    let counts = drive(
        setup,
        &mut fits,
        |fits, h, args| {
            pick_rng ^= pick_rng << 13;
            pick_rng ^= pick_rng >> 7;
            pick_rng ^= pick_rng << 17;
            let eligible = fits.iter().filter(|f| f.open()).count();
            if eligible == 0 {
                return Ok(Step::Finished);
            }
            let nth = (pick_rng % eligible as u64) as usize;
            let i = (0..fits.len()).filter(|&i| fits[i].open()).nth(nth).expect("eligible");
            let Some((t, row)) = model.measure_row(h, &versions[i], args)? else {
                return Ok(Step::Dropout);
            };
            let fit = &mut fits[i];
            fit.times.push(t);
            fit.counts.push(row);
            if fit.times.len() >= min_rows && fit.times.len().is_multiple_of(8) {
                fit.refit(model);
            }
            Ok(Step::Ran)
        },
        |fits| fits.iter().all(|f| f.done()),
    );
    // Final fits for stragglers.
    for fit in fits.iter_mut().filter(|f| f.eval.is_none()) {
        fit.refit(model);
    }
    event!(
        setup.tracer,
        "mbr.fit",
        rows = fits.iter().map(|f| f.times.len() as u64).collect::<Vec<_>>().to_json(),
        residual_vars = fits.iter().map(MbrFit::var).collect::<Vec<_>>().to_json(),
        fitted = fits.iter().map(|f| f.eval.is_some()).collect::<Vec<_>>().to_json(),
        min_rows = min_rows as u64,
    );
    let base_eval = fits[0].eval.map(|(e, _)| e).unwrap_or(1.0).max(1e-9);
    let rated = &fits[1..];
    RateOutcome {
        improvements: rated
            .iter()
            .map(|f| f.eval.map(|(v, _)| base_eval / v.max(1e-9)).unwrap_or(1.0))
            .collect(),
        vars: rated.iter().map(MbrFit::var).collect(),
        unconverged: fits.iter().filter(|f| f.var() > MBR_VAR_OK).count(),
        method: Method::Mbr,
        samples: fits.iter().map(|f| f.times.len()).sum(),
        trimmed: fits
            .iter()
            .map(|f| {
                f.times.len() - crate::stats::trim_outliers(&f.times, crate::stats::OUTLIER_K).len()
            })
            .sum(),
        dropouts: counts.0,
        crashes: counts.1,
    }
}

/// RBR with the improved protocol (paper Fig. 4): per invocation, save
/// the modified input, warm the cache with a precondition pass, then time
/// base and candidate back-to-back under the identical context, swapping
/// their order every invocation.
fn rate_rbr(
    setup: &mut TuningSetup<'_>,
    base: OptConfig,
    candidates: &[OptConfig],
    improved: bool,
) -> RateOutcome {
    let consult = setup.consult.clone();
    let plan = &consult.rbr;
    let versions = setup.versions(base, candidates, false);
    let (base_v, cand_vs) = versions.split_first().expect("base version");
    let mut windows = new_windows(cand_vs.len(), RBR_WINDOW);
    let mut flip = false;
    let counts = drive(
        setup,
        &mut windows,
        |windows, h, args| {
            let Some(i) = open_window(windows) else { return Ok(Step::Finished) };
            let sample = if improved {
                rbr_improved_sample(h, plan, base_v, &cand_vs[i], args, flip)
            } else {
                rbr_basic_sample(h, plan, base_v, &cand_vs[i], args)
            };
            flip = !flip;
            Ok(record(&mut windows[i], sample?))
        },
        |windows| windows_closed(windows),
    );
    window_outcome(&setup.tracer, Method::Rbr, &windows, 0, |mean| mean, counts)
}

/// One improved-RBR sample: returns `R = T_base / T_candidate`, or
/// `Ok(None)` when either timing was lost to injected dropout (the
/// executions still ran, so program state stays consistent). The Table 1
/// RBR collector calls this with `base` = `cand` = -O3.
pub(crate) fn rbr_improved_sample(
    h: &mut RunHarness<'_>,
    plan: &crate::consultant::RbrPlan,
    base: &PreparedVersion,
    cand: &PreparedVersion,
    args: &[Value],
    flip: bool,
) -> Result<Option<f64>, ExecError> {
    let opts_plain = ExecOptions::default();
    // 1-4: save the modified input, run the precondition pass (warming the
    // cache), restore.
    let undo: UndoState = if plan.inspector {
        // Inspector: the precondition itself records the undo log.
        let opts_record = ExecOptions { record_writes: true, num_counters: 0 };
        let res = h.try_execute(base, args, &opts_record)?;
        let (cells, vals): (Vec<_>, Vec<_>) =
            res.writes.iter().map(|&(m, i, v)| ((m, i), v)).unzip();
        // Charge the log maintenance like a save pass.
        h.restore_cells(&cells, &vals);
        UndoState::Cells(cells, vals)
    } else {
        let snap = h.save_regions(&plan.modified_regions);
        let _ = h.try_execute(base, args, &opts_plain)?; // precondition pass
        h.restore_regions(&snap);
        UndoState::Regions(snap)
    };
    // 5-7: time the two versions under the same context, order alternating.
    let (first, second) = if flip { (cand, base) } else { (base, cand) };
    let (t_first, _) = h.try_execute_timed(first, args, &opts_plain)?;
    match &undo {
        UndoState::Cells(cells, vals) => h.restore_cells(cells, vals),
        UndoState::Regions(snap) => h.restore_regions(snap),
    }
    let (t_second, _) = h.try_execute_timed(second, args, &opts_plain)?;
    // Leave the second execution's (correct) results in memory.
    let (Some(t_first), Some(t_second)) = (t_first, t_second) else {
        return Ok(None);
    };
    let (t_base, t_cand) = if flip { (t_second, t_first) } else { (t_first, t_second) };
    Ok(Some(t_base as f64 / t_cand.max(1) as f64))
}

/// One basic-RBR sample (paper Fig. 3): save the full input, time base,
/// restore, time candidate — no precondition pass, no order swap. Biased
/// by cache warm-up; kept for the ablation benchmark.
fn rbr_basic_sample(
    h: &mut RunHarness<'_>,
    plan: &crate::consultant::RbrPlan,
    base: &PreparedVersion,
    cand: &PreparedVersion,
    args: &[Value],
) -> Result<Option<f64>, ExecError> {
    let opts = ExecOptions::default();
    // Basic method saves the whole (written) input set.
    let mut save: Vec<peak_ir::MemId> = plan.modified_regions.clone();
    for m in &plan.input_regions {
        if !save.contains(m) {
            save.push(*m);
        }
    }
    let snap = h.save_regions(&save);
    let (t_base, _) = h.try_execute_timed(base, args, &opts)?;
    h.restore_regions(&snap);
    let (t_cand, _) = h.try_execute_timed(cand, args, &opts)?;
    let (Some(t_base), Some(t_cand)) = (t_base, t_cand) else {
        return Ok(None);
    };
    Ok(Some(t_base as f64 / t_cand.max(1) as f64))
}

enum UndoState {
    Cells(Vec<(peak_ir::MemId, i64)>, Vec<Value>),
    Regions(Vec<(peak_ir::MemId, peak_ir::Buffer)>),
}

/// Expose the basic protocol for the ablation benchmark.
pub fn rate_rbr_basic(
    setup: &mut TuningSetup<'_>,
    base: OptConfig,
    candidates: &[OptConfig],
) -> RateOutcome {
    rate_rbr(setup, base, candidates, false)
}

/// WHL: one full application run per version; EVAL = whole-program time
/// (the state-of-the-art baseline whose tuning cost Figure 7(c,d)
/// normalizes against).
fn rate_whl(setup: &mut TuningSetup<'_>, base: OptConfig, candidates: &[OptConfig]) -> RateOutcome {
    let mut all: Vec<OptConfig> = vec![base];
    all.extend_from_slice(candidates);
    let opts = ExecOptions::default();
    let mut totals = Vec::with_capacity(all.len());
    let mut samples = 0usize;
    let mut crashes = 0u64;
    for cfg in &all {
        let v = setup.version(*cfg, false);
        let mut h = setup.new_run();
        while let Some(args) = h.next_args() {
            setup.invocations_used += 1;
            match h.try_execute(&v, &args, &opts) {
                Ok(_) => {}
                Err(ExecError::InjectedCrash { .. }) => {
                    // Best-effort terminal method: score the partial run.
                    crashes += 1;
                    break;
                }
                Err(e) => panic!("workload {} failed: {e}", setup.workload.name()),
            }
        }
        // Whole-program timing is a single wall-clock reading; dropout of
        // per-invocation measurements does not apply, so fall back to the
        // true cycle count if the fault layer eats the reading.
        let total = h.machine.measure(h.cycles()).unwrap_or_else(|| h.cycles());
        setup.absorb_run(&h);
        samples += 1;
        totals.push(total as f64);
    }
    let base_total = totals[0].max(1.0);
    let improvements = totals[1..].iter().map(|t| base_total / t.max(1.0)).collect();
    let vars = vec![0.0; candidates.len()];
    RateOutcome {
        improvements,
        vars,
        unconverged: 0,
        method: Method::Whl,
        samples,
        trimmed: 0,
        dropouts: 0,
        crashes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peak_sim::MachineSpec;
    use peak_workloads::{bzip2::Bzip2FullGtU, equake::EquakeSmvp, swim::SwimCalc3};

    /// Self-comparison sanity: rating the base against itself must give
    /// improvement ≈ 1 for every method that applies.
    #[test]
    fn self_rating_is_one_swim() {
        let w = SwimCalc3::new();
        let mut setup = TuningSetup::new(&w, MachineSpec::sparc_ii(), Dataset::Train);
        let base = OptConfig::o3();
        for method in [Method::Cbr, Method::Avg, Method::Rbr] {
            let out = rate(&mut setup, method, base, &[base]).expect("applicable");
            assert!(
                (out.improvements[0] - 1.0).abs() < 0.03,
                "{}: {:?}",
                method.name(),
                out.improvements
            );
        }
    }

    #[test]
    fn self_rating_is_one_rbr_bzip2() {
        let w = Bzip2FullGtU::new();
        let mut setup = TuningSetup::new(&w, MachineSpec::pentium_iv(), Dataset::Train);
        let base = OptConfig::o3();
        let out = rate(&mut setup, Method::Rbr, base, &[base]).unwrap();
        assert!(
            (out.improvements[0] - 1.0).abs() < 0.05,
            "{:?} vars={:?}",
            out.improvements,
            out.vars
        );
    }

    #[test]
    fn o0_rated_slower_than_o3() {
        let w = SwimCalc3::new();
        let mut setup = TuningSetup::new(&w, MachineSpec::sparc_ii(), Dataset::Train);
        let out = rate(&mut setup, Method::Cbr, OptConfig::o3(), &[OptConfig::o0()]).unwrap();
        assert!(
            out.improvements[0] < 0.9,
            "-O0 must rate clearly slower: {:?}",
            out.improvements
        );
    }

    #[test]
    fn whl_expensive_but_consistent() {
        let w = EquakeSmvp::new();
        let mut setup = TuningSetup::new(&w, MachineSpec::sparc_ii(), Dataset::Train);
        let runs_before = setup.runs_used;
        let out = rate(&mut setup, Method::Whl, OptConfig::o3(), &[OptConfig::o0()]).unwrap();
        assert_eq!(setup.runs_used - runs_before, 2, "one full run per version");
        assert!(out.improvements[0] < 1.0, "{:?}", out.improvements);
    }

    #[test]
    fn section_methods_use_fewer_cycles_than_whl() {
        let w = EquakeSmvp::new();
        let base = OptConfig::o3();
        let cand = [base.without(peak_opt::Flag::LoopUnroll)];
        let mut s1 = TuningSetup::new(&w, MachineSpec::sparc_ii(), Dataset::Train);
        rate(&mut s1, Method::Cbr, base, &cand).unwrap();
        let cbr_cycles = s1.tuning_cycles;
        let mut s2 = TuningSetup::new(&w, MachineSpec::sparc_ii(), Dataset::Train);
        rate(&mut s2, Method::Whl, base, &cand).unwrap();
        let whl_cycles = s2.tuning_cycles;
        assert!(
            cbr_cycles < whl_cycles,
            "CBR {cbr_cycles} should beat WHL {whl_cycles}"
        );
    }
}
