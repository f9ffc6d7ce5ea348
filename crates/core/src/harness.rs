//! The run harness: simulates application runs of a workload with the
//! PEAK driver swapping tuning-section versions in and out (the ADAPT
//! mechanism of paper Fig. 6, minus `dlopen`).
//!
//! One [`RunHarness`] = one application run: fresh memory and machine
//! state (a new process), the workload's deterministic invocation stream,
//! and cycle accounting that includes the rest-of-program cost — the
//! quantity WHL tuning pays in full and the section-level methods avoid.

use crate::context::ContextKey;
use crate::metrics::core_metrics;
use peak_ir::{MemoryImage, Value};
use peak_obs::Tracer;
use peak_sim::{
    AddressMap, ExecError, ExecOptions, ExecResult, ExecScratch, ExecTier, FaultPlan, MachineSpec,
    MachineState, PreparedVersion, SimMetrics,
};
use peak_util::{Json, ToJson};
use peak_workloads::{Dataset, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Cycle cost of copying one element during RBR save/restore, on top of
/// the cache traffic (loop + addressing overhead of the copy code).
const COPY_OVERHEAD_PER_ELEM: u64 = 1;

/// Flush a run's pending invocation count into the shared
/// `core.harness.invocations` counter. The per-invocation path just
/// bumps a plain field on the harness (no atomic at all); this commits
/// the batch — one `fetch_add` per run instead of one per invocation —
/// at run end and on harness drop, so metrics consumers that read after
/// jobs complete see identical totals to the unbatched scheme. The
/// batch is cleared whether or not recording is on, so invocations run
/// while it was off are never counted later.
#[inline]
fn flush_invocation_count(pending: &mut u64) {
    if *pending > 0 {
        core_metrics().harness_invocations.add(std::mem::take(pending));
    }
}

/// One application run.
pub struct RunHarness<'w> {
    workload: &'w dyn Workload,
    ds: Dataset,
    /// Machine state (caches, predictor, timer, cycle counter).
    pub machine: MachineState,
    /// Address layout shared by all versions of this program.
    pub amap: AddressMap,
    /// Program memory.
    pub mem: MemoryImage,
    stream_rng: StdRng,
    /// Memoized invocation stream (`Some` = replay recorded args and
    /// writes; `None` = run the live generator). See
    /// [`crate::stream_cache`]; both paths are observably identical.
    stream: Option<std::sync::Arc<peak_workloads::stream::ArgStream>>,
    next_inv: usize,
    limit: usize,
    /// Invocations executed but not yet committed to the shared metrics
    /// counter (batched per run; flushed at stream end and on drop).
    pending_invs: u64,
    /// Reusable executor buffers: the steady-state invocation path of a
    /// run allocates nothing.
    scratch: ExecScratch,
    /// Execution tier for TS invocations (default: `PEAK_TIER`, else
    /// predecoded). Any tier produces bit-identical results and cycles;
    /// they differ only in wall-clock simulation speed.
    tier: ExecTier,
    /// Telemetry handle for tier events (`jit.deopt`); disabled by
    /// default, installed by [`TuningSetup`](crate::TuningSetup).
    tracer: Tracer,
}

impl<'w> RunHarness<'w> {
    /// Start a run. `noise_seed` feeds the timer; the workload stream is
    /// seeded deterministically from the dataset so every run of the same
    /// input is identical (like re-running a benchmark binary).
    pub fn new(
        workload: &'w dyn Workload,
        ds: Dataset,
        spec: &MachineSpec,
        noise_seed: u64,
    ) -> Self {
        Self::with_faults(workload, ds, spec, noise_seed, None)
    }

    /// Start a run with an optional injected-fault plan (the robustness
    /// harness). `faults = None` is exactly [`RunHarness::new`].
    pub fn with_faults(
        workload: &'w dyn Workload,
        ds: Dataset,
        spec: &MachineSpec,
        noise_seed: u64,
        faults: Option<FaultPlan>,
    ) -> Self {
        Self::with_stream_mode(workload, ds, spec, noise_seed, faults, true)
    }

    /// [`RunHarness::with_faults`] with the argument-stream mode forced:
    /// `memoized = true` replays the pooled recorded stream, `false`
    /// runs the live generator per invocation. The other constructors
    /// always memoize; this exists for the differential suite that proves
    /// the two modes observably identical.
    pub fn with_stream_mode(
        workload: &'w dyn Workload,
        ds: Dataset,
        spec: &MachineSpec,
        noise_seed: u64,
        faults: Option<FaultPlan>,
        memoized: bool,
    ) -> Self {
        let mem_lens: Vec<usize> =
            workload.program().mems.iter().map(|m| m.len).collect();
        let amap = AddressMap::new(&mem_lens);
        let mut stream_rng =
            StdRng::seed_from_u64(peak_workloads::stream::stream_seed(ds));
        let (mem, stream) = if memoized {
            let s = crate::stream_cache::arg_stream(workload, ds);
            // The recorder consumed the same RNG sequence `setup` would
            // have; this run's RNG is never drawn from again.
            (s.init_mem.clone(), Some(s))
        } else {
            let mut mem = MemoryImage::new(workload.program());
            workload.setup(ds, &mut mem, &mut stream_rng);
            (mem, None)
        };
        let limit = workload.invocations(ds);
        let mut machine = MachineState::new(spec.clone(), noise_seed);
        if let Some(plan) = faults {
            machine.install_faults(plan);
        }
        RunHarness {
            workload,
            ds,
            machine,
            amap,
            mem,
            stream_rng,
            stream,
            next_inv: 0,
            limit,
            pending_invs: 0,
            scratch: ExecScratch::new(),
            tier: ExecTier::from_env(),
            tracer: Tracer::disabled(),
        }
    }

    /// Force the execution tier for this run (overrides `PEAK_TIER`).
    pub fn set_tier(&mut self, tier: ExecTier) {
        self.tier = tier;
    }

    /// The execution tier this run uses.
    pub fn tier(&self) -> ExecTier {
        self.tier
    }

    /// Install a tracer for tier telemetry (`jit.deopt` events).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Invocations remaining in this run.
    pub fn remaining(&self) -> usize {
        self.limit - self.next_inv
    }

    /// Produce the next invocation's arguments (mutating memory like the
    /// surrounding program does) and charge the rest-of-program cycles.
    /// Returns `None` when the run is over.
    pub fn next_args(&mut self) -> Option<Vec<Value>> {
        if self.next_inv >= self.limit {
            flush_invocation_count(&mut self.pending_invs);
            return None;
        }
        let args = match &self.stream {
            Some(s) => {
                // Replay path: apply the recorded between-invocation
                // writes, hand out the recorded args. Exact because
                // generators never read memory content (see
                // `peak_workloads::stream`).
                let rec = &s.invocations[self.next_inv];
                self.mem.replay(&rec.writes);
                rec.args.clone()
            }
            None => self.workload.args(
                self.ds,
                self.next_inv,
                &mut self.mem,
                &mut self.stream_rng,
            ),
        };
        self.next_inv += 1;
        self.machine.cycles += self.workload.other_cycles(self.ds);
        Some(args)
    }

    /// Execute one TS invocation with `version` and return the result
    /// (true cycles inside; accounting updated). Panics on any failure —
    /// the legacy interface for fault-free paths; fault-aware drivers use
    /// [`RunHarness::try_execute`].
    pub fn execute(
        &mut self,
        version: &PreparedVersion,
        args: &[Value],
        opts: &ExecOptions,
    ) -> ExecResult {
        self.try_execute(version, args, opts).unwrap_or_else(|e| {
            panic!("workload {} execution failed: {e}", self.workload.name())
        })
    }

    /// Execute one TS invocation, surfacing failures (including injected
    /// version crashes) as data instead of panicking.
    ///
    /// Dispatches on the execution tier: `interp` recomputes costs per
    /// statement, `predecoded` (the default) runs the pre-decoded
    /// stream, `jit` runs the version's threaded-code backend — lowered
    /// lazily on first use and falling back to the predecoded tier
    /// permanently (per version) when lowering declines. All tiers are
    /// bit-identical in results, cycles, and machine state.
    pub fn try_execute(
        &mut self,
        version: &PreparedVersion,
        args: &[Value],
        opts: &ExecOptions,
    ) -> Result<ExecResult, ExecError> {
        self.pending_invs += 1;
        match self.tier {
            ExecTier::Interp => {
                core_metrics().tier_invocations(ExecTier::Interp).inc();
                peak_sim::execute_interp_with_scratch(
                    version,
                    args,
                    &mut self.mem,
                    &self.amap,
                    &mut self.machine,
                    opts,
                    &mut self.scratch,
                )
            }
            ExecTier::Jit => {
                if let Some(be) = crate::tier::jit_backend(version, &self.tracer) {
                    core_metrics().tier_invocations(ExecTier::Jit).inc();
                    return be.execute(
                        args,
                        &mut self.mem,
                        &self.amap,
                        &mut self.machine,
                        opts,
                        &mut self.scratch,
                    );
                }
                // Version declined lowering: permanent per-version
                // fallback to the predecoded tier.
                core_metrics().tier_invocations(ExecTier::Predecoded).inc();
                peak_sim::execute_with_scratch(
                    version,
                    args,
                    &mut self.mem,
                    &self.amap,
                    &mut self.machine,
                    opts,
                    &mut self.scratch,
                )
            }
            ExecTier::Predecoded => {
                core_metrics().tier_invocations(ExecTier::Predecoded).inc();
                peak_sim::execute_with_scratch(
                    version,
                    args,
                    &mut self.mem,
                    &self.amap,
                    &mut self.machine,
                    opts,
                    &mut self.scratch,
                )
            }
        }
    }

    /// Measure an execution: run it and return the *noisy* measured time
    /// alongside the result. Legacy interface: fault-induced dropout does
    /// not apply here (use [`RunHarness::try_execute_timed`] for that).
    pub fn execute_timed(
        &mut self,
        version: &PreparedVersion,
        args: &[Value],
        opts: &ExecOptions,
    ) -> (u64, ExecResult) {
        let res = self.execute(version, args, opts);
        let measured = self.machine.timer.measure(res.true_cycles);
        (measured, res)
    }

    /// Measure an execution through the fault layer: `Ok((None, res))`
    /// means the invocation ran (cycles charged) but its reading was lost
    /// to an injected dropout; `Err` means the execution itself failed
    /// (e.g. an injected crash — the run should be abandoned).
    pub fn try_execute_timed(
        &mut self,
        version: &PreparedVersion,
        args: &[Value],
        opts: &ExecOptions,
    ) -> Result<(Option<u64>, ExecResult), ExecError> {
        let res = self.try_execute(version, args, opts)?;
        let measured = self.machine.measure(res.true_cycles);
        Ok((measured, res))
    }

    /// Context key for the upcoming invocation: reads the context sources
    /// (parameter values / global scalars) like the instrumented prologue
    /// does.
    pub fn context_key(
        &self,
        sources: &[peak_ir::ContextSource],
        args: &[Value],
    ) -> ContextKey {
        crate::context::key_for(sources, args, &self.mem)
    }

    /// RBR support: snapshot the given regions, charging copy cost through
    /// the cache (streaming both source and a stack-side buffer would
    /// double-charge; we charge one pass).
    pub fn save_regions(&mut self, regions: &[peak_ir::MemId]) -> Vec<(peak_ir::MemId, peak_ir::Buffer)> {
        let snap = self.mem.snapshot(regions);
        self.charge_copy(regions);
        snap
    }

    /// RBR support: restore a snapshot with the same cost model.
    pub fn restore_regions(&mut self, snap: &[(peak_ir::MemId, peak_ir::Buffer)]) {
        self.mem.restore(snap);
        let regions: Vec<peak_ir::MemId> = snap.iter().map(|(m, _)| *m).collect();
        self.charge_copy(&regions);
    }

    fn charge_copy(&mut self, regions: &[peak_ir::MemId]) {
        for &m in regions {
            let len = self.mem.buf(m).len();
            for i in 0..len {
                let c = self.machine.caches.access(self.amap.addr(m, i as i64));
                self.machine.cycles += c + COPY_OVERHEAD_PER_ELEM;
            }
        }
    }

    /// RBR inspector support: restore an explicit cell list, e.g. the
    /// undo log a recording execution left (paper §2.4.2's inspector for
    /// irregular writes).
    pub fn restore_cells(&mut self, cells: &[(peak_ir::MemId, i64)], vals: &[Value]) {
        for (&(m, i), &v) in cells.iter().zip(vals) {
            self.mem.store(m, i, v);
            let c = self.machine.caches.access(self.amap.addr(m, i));
            self.machine.cycles += c + COPY_OVERHEAD_PER_ELEM;
        }
    }

    /// Total true cycles this run has consumed so far (TS + rest of
    /// program + tuning overheads).
    pub fn cycles(&self) -> u64 {
        self.machine.cycles
    }

    /// The dataset this run uses.
    pub fn dataset(&self) -> Dataset {
        self.ds
    }

    /// The workload under test.
    pub fn workload(&self) -> &dyn Workload {
        self.workload
    }

    /// Emit this run's `sim.run` event through `tracer`: the run number,
    /// its seed, the machine counters and, under a fault plan, the fault
    /// stats (measurement provenance: the seed replays the exact fault
    /// stream).
    pub(crate) fn emit_run_event(&self, tracer: &Tracer, run: u64, seed: u64) {
        if !tracer.enabled() {
            return;
        }
        let mut fields = vec![("run".to_owned(), Json::U(run)), ("seed".to_owned(), Json::U(seed))];
        if let Json::Obj(pairs) = SimMetrics::snapshot(&self.machine).to_json() {
            fields.extend(pairs);
        }
        if let Some(plan) = &self.machine.faults {
            fields.push(("faults".to_owned(), plan.stats.to_json()));
            fields.push(("executions".to_owned(), Json::U(plan.executions())));
        }
        tracer.emit("sim.run", fields);
    }
}

impl Drop for RunHarness<'_> {
    fn drop(&mut self) {
        // Commit any invocations not yet flushed (runs abandoned before
        // stream exhaustion — fault aborts, partial ratings).
        flush_invocation_count(&mut self.pending_invs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peak_opt::OptConfig;
    use peak_workloads::swim::SwimCalc3;

    fn prepared(w: &dyn Workload, cfg: OptConfig, spec: &MachineSpec) -> PreparedVersion {
        let cv = peak_opt::optimize(w.program(), w.ts(), &cfg);
        PreparedVersion::prepare(cv, spec)
    }

    #[test]
    fn run_is_deterministic_in_data() {
        let w = SwimCalc3::new();
        let spec = MachineSpec::sparc_ii();
        let pv = prepared(&w, OptConfig::o3(), &spec);
        let run_once = |seed: u64| -> (Vec<u64>, u64) {
            let mut h = RunHarness::new(&w, Dataset::Train, &spec, seed);
            let mut cycles = Vec::new();
            for _ in 0..5 {
                let args = h.next_args().unwrap();
                let r = h.execute(&pv, &args, &ExecOptions::default());
                cycles.push(r.true_cycles);
            }
            (cycles, h.cycles())
        };
        let (c1, t1) = run_once(1);
        let (c2, t2) = run_once(2);
        // True cycles identical (same data, same machine) regardless of
        // the noise seed; only measured times differ.
        assert_eq!(c1, c2);
        assert_eq!(t1, t2);
    }

    #[test]
    fn measured_times_are_noisy_but_close() {
        let w = SwimCalc3::new();
        let spec = MachineSpec::sparc_ii();
        let pv = prepared(&w, OptConfig::o3(), &spec);
        let mut h = RunHarness::new(&w, Dataset::Train, &spec, 42);
        let args = h.next_args().unwrap();
        let (measured, res) = h.execute_timed(&pv, &args, &ExecOptions::default());
        let rel = (measured as f64 - res.true_cycles as f64).abs() / res.true_cycles as f64;
        assert!(rel < 0.3, "noise within reason: {rel}");
    }

    #[test]
    fn other_cycles_charged_per_invocation() {
        let w = SwimCalc3::new();
        let spec = MachineSpec::sparc_ii();
        let mut h = RunHarness::new(&w, Dataset::Train, &spec, 1);
        let before = h.cycles();
        let _ = h.next_args().unwrap();
        assert_eq!(h.cycles() - before, w.other_cycles(Dataset::Train));
    }

    #[test]
    fn save_restore_regions_roundtrip_and_cost() {
        let w = SwimCalc3::new();
        let spec = MachineSpec::sparc_ii();
        let mut h = RunHarness::new(&w, Dataset::Train, &spec, 1);
        let u = w.program().mem_by_name("u").unwrap();
        let before_val = h.mem.load(u, 10);
        let before_cycles = h.cycles();
        let snap = h.save_regions(&[u]);
        h.mem.store(u, 10, Value::F64(99.0));
        h.restore_regions(&snap);
        assert_eq!(h.mem.load(u, 10), before_val);
        assert!(h.cycles() > before_cycles, "copies cost cycles");
    }

    #[test]
    fn run_ends_after_invocation_budget() {
        let w = SwimCalc3::new();
        let spec = MachineSpec::sparc_ii();
        let mut h = RunHarness::new(&w, Dataset::Train, &spec, 1);
        let n = w.invocations(Dataset::Train);
        for _ in 0..n {
            assert!(h.next_args().is_some());
        }
        assert!(h.next_args().is_none());
        assert_eq!(h.remaining(), 0);
    }
}
