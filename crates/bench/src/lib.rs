//! # peak-bench — experiment harness regenerating every table and figure
//!
//! Binaries:
//! * `table1` — the rating-consistency experiment (paper Table 1);
//! * `figure7` — performance improvement and normalized tuning time
//!   (paper Figure 7 a–d);
//!
//! Criterion benches under `benches/` cover rating overheads, the RBR
//! basic-vs-improved ablation, and search-algorithm comparisons.

#![warn(missing_docs)]

use peak_core::consultant::Method;
use peak_core::TuneReport;
use peak_obs::Tracer;
use peak_sim::{MachineKind, MachineSpec};
use peak_util::{Json, ToJson};
use peak_workloads::{Dataset, Workload};

/// One Figure-7 cell: benchmark × machine × method × tuning dataset.
#[derive(Debug, Clone)]
pub struct Figure7Cell {
    /// The tuning report (improvement, search stats).
    pub report: TuneReport,
    /// Tuning time normalized to the WHL tuning time of the same
    /// benchmark/machine/dataset (Figure 7 c/d bars). Filled by the
    /// aggregation step.
    pub tuning_time_vs_whl: Option<f64>,
}

impl ToJson for Figure7Cell {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("report", self.report.to_json()),
            ("tuning_time_vs_whl", self.tuning_time_vs_whl.to_json()),
        ])
    }
}

/// Methods plotted for a benchmark in Figure 7: every method with a plan
/// (including over-budget CBR — MGRID_CBR is plotted to show the
/// pathology), plus the AVG and WHL baselines.
pub fn figure7_method_list(workload: &dyn Workload, spec: &MachineSpec) -> Vec<Method> {
    let c = peak_core::consult_shared(workload, spec);
    let mut ms = Vec::new();
    if c.cbr.is_some() {
        ms.push(Method::Cbr);
    }
    if c.mbr.is_some() {
        ms.push(Method::Mbr);
    }
    ms.push(Method::Rbr);
    ms.push(Method::Avg);
    ms.push(Method::Whl);
    ms
}

/// Compute one Figure-7 cell. Tuning-loop spans and measurement
/// provenance go to `tracer`, stamped with the cell's
/// benchmark/ts/machine/method/dataset context so trace consumers can
/// attribute every event without reconstructing the job layout. The
/// pool pre-compiles each candidate frontier; warm-up is pure, so the
/// cell's report and trace are byte-identical at any pool size — the
/// pool only moves compile work off the rating path (and lets an
/// otherwise-idle sibling worker help, via its shared helper budget).
pub fn figure7_cell_pooled(
    name: &str,
    kind: MachineKind,
    method: Method,
    tuned_on: Dataset,
    tracer: Tracer,
    pool: &peak_core::Pool,
) -> Figure7Cell {
    let workload = peak_workloads::workload_by_name(name).expect("known workload");
    let spec = MachineSpec::of(kind);
    let tracer = if tracer.enabled() {
        tracer.with_context(vec![
            ("benchmark".to_owned(), Json::Str(name.to_owned())),
            ("ts".to_owned(), Json::Str(workload.ts_name().to_owned())),
            ("machine".to_owned(), Json::Str(spec.kind.name().to_owned())),
            ("method".to_owned(), Json::Str(method.name().to_owned())),
            ("tuned_on".to_owned(), Json::Str(tuned_on.name().to_owned())),
        ])
    } else {
        tracer
    };
    let options = peak_core::TuneOptions::default();
    let report = peak_core::tune_with_options(
        workload.as_ref(),
        &spec,
        method,
        tuned_on,
        tracer,
        pool,
        &options,
    );
    Figure7Cell { report, tuning_time_vs_whl: None }
}

/// Fill `tuning_time_vs_whl` within a group of cells sharing
/// benchmark/machine/dataset.
pub fn normalize_tuning_times(cells: &mut [Figure7Cell]) {
    let whl: std::collections::HashMap<(String, String, String), u64> = cells
        .iter()
        .filter(|c| c.report.method == Method::Whl)
        .map(|c| {
            (
                (
                    c.report.benchmark.clone(),
                    c.report.machine.clone(),
                    c.report.tuned_on.clone(),
                ),
                c.report.search.tuning_cycles,
            )
        })
        .collect();
    for c in cells.iter_mut() {
        let key = (
            c.report.benchmark.clone(),
            c.report.machine.clone(),
            c.report.tuned_on.clone(),
        );
        if let Some(&w) = whl.get(&key) {
            c.tuning_time_vs_whl = Some(c.report.search.tuning_cycles as f64 / w.max(1) as f64);
        }
    }
}

/// Pretty-print a percentage.
pub fn pct(x: f64) -> String {
    format!("{x:+.1}%")
}

/// Render a Table-1 style row string.
pub fn render_consistency_row(row: &peak_core::ConsistencyRow) -> String {
    let ctx = if row.context > 0 {
        format!("(Context {})", row.context)
    } else {
        String::new()
    };
    let cells: Vec<String> = row
        .cells
        .iter()
        .map(|(w, m, s)| format!("w={w}: {m:.2}({s:.2})"))
        .collect();
    format!(
        "{:<8} {:<18} {:<4} {:>8} | {}",
        row.benchmark,
        format!("{}{}", row.ts, ctx),
        row.method.name(),
        row.invocations,
        cells.join("  ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_lists_match_figure7_labels() {
        let spec = MachineSpec::sparc_ii();
        let mgrid = peak_workloads::workload_by_name("mgrid").unwrap();
        let ms = figure7_method_list(mgrid.as_ref(), &spec);
        assert!(ms.contains(&Method::Cbr), "MGRID_CBR is plotted (the pathology)");
        assert!(ms.contains(&Method::Mbr));
        assert_eq!(ms.last(), Some(&Method::Whl));
        let art = peak_workloads::workload_by_name("art").unwrap();
        let ms = figure7_method_list(art.as_ref(), &spec);
        assert!(!ms.contains(&Method::Cbr), "ART has no CBR plan");
    }

    #[test]
    fn normalization_uses_whl_denominator() {
        let mut cells = vec![
            fake_cell("X", "M", Method::Rbr, 100),
            fake_cell("X", "M", Method::Whl, 1000),
        ];
        normalize_tuning_times(&mut cells);
        assert_eq!(cells[0].tuning_time_vs_whl, Some(0.1));
        assert_eq!(cells[1].tuning_time_vs_whl, Some(1.0));
    }

    fn fake_cell(bench: &str, machine: &str, method: Method, cycles: u64) -> Figure7Cell {
        Figure7Cell {
            report: TuneReport {
                benchmark: bench.into(),
                ts: "ts".into(),
                machine: machine.into(),
                method,
                tuned_on: "train".into(),
                search: peak_core::SearchResult {
                    best: peak_opt::OptConfig::o3(),
                    disabled_flags: vec![],
                    method,
                    switches: 0,
                    ratings: 0,
                    tuning_cycles: cycles,
                    runs: 1,
                    invocations: 0,
                },
                baseline_cycles: 1,
                tuned_cycles: 1,
                improvement_pct: 0.0,
            },
            tuning_time_vs_whl: None,
        }
    }
}
