//! The Table 1 experiment: consistency of rating approaches.
//!
//! For each tuning section, rate a single experimental version compiled
//! under -O3 (identical to the base) while sampling EVALs uniformly
//! through execution with different window sizes `w`. The rating error is
//! `X_i = V_i/V̄ − 1` for CBR/MBR and `X_i = V_i − 1` for RBR (the ideal
//! RBR rating of a version against itself is exactly 1) — paper Eq. 7-10.
//!
//! The samples come from the tuner's own protocols, so a change to a
//! rating method shows up in Table 1: RBR rows take the improved-RBR
//! sample of [`crate::rating`] with base = candidate = -O3, and MBR rows
//! measure rows with `MbrModel::measure_row` and fit each window with
//! the rating's outlier-trimmed `mbr::fit_trimmed`. Only the sampling
//! schedule is Table 1's own: uniform over whole runs with fixed seeds,
//! no window closing early, no faults.

use crate::consultant::{consult_shared, Consultation, Method};
use crate::harness::RunHarness;
use crate::mbr::fit_trimmed;
use crate::rating::rbr_improved_sample;
use crate::stats;
use crate::version_cache::VersionCache;
use peak_ir::Value;
use peak_obs::{event, span, Tracer};
use peak_opt::OptConfig;
use peak_sim::{ExecOptions, MachineSpec};
use peak_util::{Json, ToJson};
use peak_workloads::{Dataset, Workload};

/// One row of Table 1 (one context for multi-context CBR sections).
#[derive(Debug, Clone)]
pub struct ConsistencyRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Tuning-section name.
    pub ts: String,
    /// Rating approach used.
    pub method: Method,
    /// Context index (1-based) for CBR rows; 0 otherwise.
    pub context: usize,
    /// Invocations of the TS in one run (this reproduction's scaled
    /// count).
    pub invocations: usize,
    /// Per window size: (w, mean×100, stddev×100) — the paper's
    /// "Mean (Standard Deviation) * 100" columns.
    pub cells: Vec<(usize, f64, f64)>,
}

impl ToJson for ConsistencyRow {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("benchmark", self.benchmark.to_json()),
            ("ts", self.ts.to_json()),
            ("method", self.method.to_json()),
            ("context", self.context.to_json()),
            ("invocations", self.invocations.to_json()),
            ("cells", self.cells.to_json()),
        ])
    }
}

/// Window sizes of Table 1.
pub const WINDOW_SIZES: [usize; 5] = [10, 20, 40, 80, 160];

/// Raw samples collected per context (enough for ≥ 15 windows at w=160).
const RAW_SAMPLES: usize = 2400;
/// Cap on runs while collecting.
const MAX_RUNS: usize = 400;

/// Collect the consistency rows for one workload on one machine.
pub fn consistency_rows(workload: &dyn Workload, spec: &MachineSpec) -> Vec<ConsistencyRow> {
    consistency_rows_traced(workload, spec, &Tracer::disabled())
}

/// [`consistency_rows`] with telemetry: spans each TS's collection,
/// emits per-run simulator metrics and a `table1.row` event per
/// finished row. A disabled tracer makes this exactly
/// [`consistency_rows`] (which delegates here).
pub fn consistency_rows_traced(
    workload: &dyn Workload,
    spec: &MachineSpec,
    tracer: &Tracer,
) -> Vec<ConsistencyRow> {
    let consultation = consult_shared(workload, spec);
    let method = consultation.order[0];
    let _span = span!(
        tracer,
        "table1.collect",
        benchmark = workload.name(),
        ts = workload.ts_name(),
        method = method.name(),
    );
    let rows = match method {
        Method::Cbr => cbr_rows(workload, spec, &consultation, tracer),
        Method::Mbr => vec![mbr_row(workload, spec, &consultation, tracer)],
        _ => vec![rbr_row(workload, spec, &consultation, tracer)],
    };
    for row in &rows {
        event!(
            tracer,
            "table1.row",
            benchmark = row.benchmark.as_str(),
            ts = row.ts.as_str(),
            method = row.method.name(),
            context = row.context as u64,
            invocations = row.invocations as u64,
            cells = row.cells.to_json(),
        );
    }
    rows
}

/// The run loop of the Table 1 collectors: start runs (seeds
/// `seed + 1`, `seed + 2`, …) until `full(state)` or [`MAX_RUNS`],
/// handing every invocation to `sample` until it returns `false` (end
/// of this run), and emit each run's `sim.run` event. Returns the number
/// of runs.
fn collect<S>(
    workload: &dyn Workload,
    spec: &MachineSpec,
    tracer: &Tracer,
    mut seed: u64,
    state: &mut S,
    full: impl Fn(&S) -> bool,
    mut sample: impl FnMut(&mut S, &mut RunHarness<'_>, &[Value]) -> bool,
) -> usize {
    let mut runs = 0;
    while !full(state) && runs < MAX_RUNS {
        runs += 1;
        seed += 1;
        let mut h = RunHarness::new(workload, Dataset::Train, spec, seed);
        while let Some(args) = h.next_args() {
            if !sample(state, &mut h, &args) {
                break;
            }
        }
        h.emit_run_event(tracer, runs as u64, seed);
    }
    runs
}

/// One Table 1 row: per window size `w`, the mean and σ (×100) of the
/// rating errors of the `V_i` that `vs(w)` yields, taken relative to
/// their mean (`V_i/V̄ − 1`) or, for RBR, to 1 (`V_i − 1`).
fn row(
    workload: &dyn Workload,
    method: Method,
    context: usize,
    vs: impl Fn(usize) -> Vec<f64>,
    relative: bool,
) -> ConsistencyRow {
    ConsistencyRow {
        benchmark: workload.name().to_string(),
        ts: workload.ts_name().to_string(),
        method,
        context,
        invocations: workload.invocations(Dataset::Train),
        cells: WINDOW_SIZES
            .iter()
            .map(|&w| {
                let vs = vs(w);
                let vbar = if relative {
                    vs.iter().sum::<f64>() / vs.len().max(1) as f64
                } else {
                    1.0
                };
                let xs: Vec<f64> = vs.iter().map(|v| v / vbar - 1.0).collect();
                let s = stats::summarize(&xs);
                (w, s.mean * 100.0, s.std_dev() * 100.0)
            })
            .collect(),
    }
}

/// `V_i` per window of `w` samples: their robust mean.
fn window_means(samples: &[f64], w: usize) -> Vec<f64> {
    samples.chunks_exact(w).map(|c| stats::robust_summary(c).mean).collect()
}

fn cbr_rows(
    workload: &dyn Workload,
    spec: &MachineSpec,
    consultation: &Consultation,
    tracer: &Tracer,
) -> Vec<ConsistencyRow> {
    let plan = consultation.cbr.as_ref().expect("CBR row needs plan");
    let pv = VersionCache::global().prepare_workload(workload, spec, OptConfig::o3());
    let opts = ExecOptions::default();
    let n_ctx = plan.contexts.len();
    let mut per_ctx: Vec<Vec<f64>> = vec![Vec::new(); n_ctx];
    let runs = collect(
        workload,
        spec,
        tracer,
        100,
        &mut per_ctx,
        |per_ctx| per_ctx.iter().all(|s| s.len() >= RAW_SAMPLES),
        |per_ctx, h, args| {
            let key = h.context_key(&plan.sources, args);
            let reduced = crate::context::reduce_key(&key, &plan.varying);
            let ctx = plan.contexts.iter().position(|(k, _)| *k == reduced);
            let (measured, _) = h.execute_timed(&pv, args, &opts);
            if let Some(s) = ctx.map(|c| &mut per_ctx[c]).filter(|s| s.len() < RAW_SAMPLES) {
                s.push(measured as f64);
            }
            true
        },
    );
    event!(
        tracer,
        "cbr.contexts_sampled",
        kept = per_ctx.iter().map(|s| s.len() as u64).collect::<Vec<_>>().to_json(),
        runs = runs as u64,
    );
    per_ctx
        .iter()
        .enumerate()
        .map(|(c, samples)| {
            let context = if n_ctx > 1 { c + 1 } else { 0 };
            row(workload, Method::Cbr, context, |w| window_means(samples, w), true)
        })
        .collect()
}

fn mbr_row(
    workload: &dyn Workload,
    spec: &MachineSpec,
    consultation: &Consultation,
    tracer: &Tracer,
) -> ConsistencyRow {
    let model = consultation.mbr.as_ref().expect("MBR row needs model");
    let pv = model.prepare(workload, spec, OptConfig::o3());
    let mut rows: (Vec<f64>, Vec<Vec<f64>>) = (Vec::new(), Vec::new());
    collect(
        workload,
        spec,
        tracer,
        200,
        &mut rows,
        |(times, _)| times.len() >= RAW_SAMPLES,
        |(times, counts), h, args| {
            let row = model.measure_row(h, &pv, args).ok().flatten();
            let (t, row) = row.expect("fault-free run keeps every reading");
            times.push(t);
            counts.push(row);
            true
        },
    );
    let (times, counts) = rows;
    // V_i per window: regression over each chunk, EVAL from the model.
    let fits = |w| {
        times
            .chunks_exact(w)
            .zip(counts.chunks_exact(w))
            .filter_map(|(t, c)| fit_trimmed(t, c).map(|reg| model.eval_of(&reg)))
            .collect()
    };
    row(workload, Method::Mbr, 0, fits, true)
}

fn rbr_row(
    workload: &dyn Workload,
    spec: &MachineSpec,
    consultation: &Consultation,
    tracer: &Tracer,
) -> ConsistencyRow {
    // The tuner's improved protocol, experimental version = base version.
    let pv = VersionCache::global().prepare_workload(workload, spec, OptConfig::o3());
    let mut samples: Vec<f64> = Vec::new();
    let mut flip = false;
    collect(
        workload,
        spec,
        tracer,
        300,
        &mut samples,
        |samples| samples.len() >= RAW_SAMPLES,
        |samples, h, args| {
            if samples.len() >= RAW_SAMPLES {
                return false;
            }
            let r = rbr_improved_sample(h, &consultation.rbr, &pv, &pv, args, flip).ok().flatten();
            flip = !flip;
            samples.push(r.expect("fault-free run keeps every reading"));
            true
        },
    );
    row(workload, Method::Rbr, 0, |w| window_means(&samples, w), false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use peak_workloads::{swim::SwimCalc3, vortex::VortexChkGetChunk};

    #[test]
    fn swim_cbr_consistency_tightens_with_window() {
        let w = SwimCalc3::new();
        let rows = consistency_rows(&w, &MachineSpec::sparc_ii());
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!(row.method, Method::Cbr);
        let sd10 = row.cells[0].2;
        let sd160 = row.cells[4].2;
        assert!(
            sd160 < sd10,
            "σ should shrink with window size: w10={sd10:.3} w160={sd160:.3}"
        );
        // Means hover near zero (×100 scale).
        for &(w, m, _) in &row.cells {
            assert!(m.abs() < 2.0, "w={w}: mean {m:.3} too far from 0");
        }
    }

    #[test]
    fn vortex_rbr_mean_near_one() {
        let w = VortexChkGetChunk::new();
        let rows = consistency_rows(&w, &MachineSpec::sparc_ii());
        let row = &rows[0];
        assert_eq!(row.method, Method::Rbr);
        // X = V − 1 with identical versions: |mean| small at large w.
        let (_, m160, sd160) = row.cells[4];
        assert!(m160.abs() < 3.0, "mean {m160:.3}");
        assert!(sd160 < 10.0, "σ {sd160:.3}");
    }
}
