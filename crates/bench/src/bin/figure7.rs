//! Regenerate **Figure 7**: performance improvement by PEAK (a, b) and
//! tuning time normalized to the WHL approach (c, d), on both machine
//! models.
//!
//! ```text
//! cargo run --release -p peak-bench --bin figure7 -- [--machine sparc|p4|both] \
//!     [--bench swim|mgrid|art|equake] [--quick] [--json PATH] [--trace PATH]
//! ```
//!
//! `--quick` tunes on the train input only (the left bars); the full run
//! adds ref-input tuning (the right bars of each pair).
//!
//! `--trace PATH` writes a JSONL telemetry trace (tuning rounds, rating
//! outcomes, per-run simulator metrics) readable with the `peak-trace`
//! binary. Each parallel cell buffers its events; buffers are written in
//! job order so the trace is deterministic regardless of scheduling.

use peak_bench::{figure7_cell_pooled, figure7_method_list, normalize_tuning_times, Figure7Cell};
use peak_core::consultant::Method;
use peak_core::VersionCache;
use peak_obs::{BufferSink, JsonlSink, TraceSink, Tracer};
use peak_sim::{MachineKind, MachineSpec};
use peak_workloads::Dataset;
use std::io::Write;
use std::sync::Arc;

const BENCHMARKS: [&str; 4] = ["SWIM", "MGRID", "ART", "EQUAKE"];

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let machine = arg_value(&args, "--machine").unwrap_or_else(|| "both".into());
    let json_path = arg_value(&args, "--json");
    let only_bench = arg_value(&args, "--bench");
    let quick = args.iter().any(|a| a == "--quick");
    let kinds: Vec<MachineKind> = match machine.as_str() {
        "sparc" => vec![MachineKind::SparcII],
        "p4" | "pentium" | "pentium4" => vec![MachineKind::PentiumIV],
        "both" => vec![MachineKind::SparcII, MachineKind::PentiumIV],
        other => {
            eprintln!("error: unknown machine `{other}` (expected sparc, p4, or both)");
            std::process::exit(1);
        }
    };
    if let Some(b) = &only_bench {
        if !BENCHMARKS.iter().any(|n| n.eq_ignore_ascii_case(b)) {
            eprintln!(
                "error: unknown benchmark `{b}` (Figure 7 covers {})",
                BENCHMARKS.join(", ")
            );
            std::process::exit(1);
        }
    }
    let datasets: Vec<Dataset> =
        if quick { vec![Dataset::Train] } else { vec![Dataset::Train, Dataset::Ref] };
    // Build the cell list.
    let mut jobs: Vec<(String, MachineKind, Method, Dataset)> = Vec::new();
    for &kind in &kinds {
        let spec = MachineSpec::of(kind);
        for name in BENCHMARKS {
            if only_bench.as_deref().is_some_and(|b| !b.eq_ignore_ascii_case(name)) {
                continue;
            }
            let w = peak_workloads::workload_by_name(name).expect("benchmark");
            for m in figure7_method_list(w.as_ref(), &spec) {
                for &ds in &datasets {
                    jobs.push((name.to_string(), kind, m, ds));
                }
            }
        }
    }
    let trace_path = arg_value(&args, "--trace");
    let tracing = trace_path.is_some();
    let pool = peak_core::Pool::from_env();
    eprintln!("figure7: {} cells (pool: {} threads)", jobs.len(), pool.threads());
    // Parallel evaluation on the shared work-stealing pool; cells are
    // fully independent jobs and `Pool::run` returns results in job
    // order. With `--trace`, each cell buffers its events locally;
    // buffers are spliced into the trace file in job order after the
    // pool drains. Each cell also re-uses the pool (via its shared
    // helper budget) to pre-compile IE candidate frontiers.
    let cell_jobs: Vec<_> = jobs
        .iter()
        .map(|(name, kind, method, ds)| {
            let pool = pool.clone();
            move || {
                let t0 = std::time::Instant::now();
                let (tracer, sink) = if tracing {
                    let sink = Arc::new(BufferSink::new());
                    (Tracer::to_sink(sink.clone()), Some(sink))
                } else {
                    (Tracer::disabled(), None)
                };
                let cell = figure7_cell_pooled(name, *kind, *method, *ds, tracer, &pool);
                eprintln!(
                    "  {name:<7} {:<10} {:<4} {:<5}  {:+6.1}%  ({} ratings, {:.1}s)",
                    kind.name(),
                    method.name(),
                    cell.report.tuned_on,
                    cell.report.improvement_pct,
                    cell.report.search.ratings,
                    t0.elapsed().as_secs_f64(),
                );
                (cell, sink.map(|s| s.drain()).unwrap_or_default())
            }
        })
        .collect();
    let results: Vec<(Figure7Cell, Vec<String>)> = pool.run(cell_jobs);
    let mut cells = Vec::with_capacity(results.len());
    if let Some(path) = &trace_path {
        let sink = JsonlSink::create(std::path::Path::new(path)).expect("create trace file");
        for (_, lines) in &results {
            sink.append_lines(lines.iter());
        }
        sink.flush();
        eprintln!("trace: wrote {path}");
    }
    for (cell, _) in results {
        cells.push(cell);
    }
    // Compile-cache effectiveness across the whole run (stderr only:
    // stdout stays byte-stable across cache-layer changes).
    let vc = VersionCache::global();
    eprintln!("{}", vc.stats().render(vc.len()));
    normalize_tuning_times(&mut cells);
    // --- Figure 7 (a)/(b): improvement over -O3 ---
    for &kind in &kinds {
        println!();
        println!(
            "Figure 7 ({}) — performance improvement over -O3 on {} (measured on ref)",
            if kind == MachineKind::SparcII { "a" } else { "b" },
            MachineSpec::of(kind).kind.name()
        );
        print_improvements(&cells, kind, &datasets);
    }
    // --- Figure 7 (c)/(d): tuning time normalized to WHL ---
    for &kind in &kinds {
        println!();
        println!(
            "Figure 7 ({}) — tuning time normalized to WHL on {}",
            if kind == MachineKind::SparcII { "c" } else { "d" },
            MachineSpec::of(kind).kind.name()
        );
        print_tuning_times(&cells, kind, &datasets);
    }
    // --- Headline aggregates ---
    println!();
    summarize(&cells);
    if let Some(path) = json_path {
        let json = peak_util::to_string_pretty(&cells);
        std::fs::File::create(&path)
            .and_then(|mut f| f.write_all(json.as_bytes()))
            .expect("write json");
        println!("wrote {path}");
    }
}

fn print_improvements(cells: &[Figure7Cell], kind: MachineKind, datasets: &[Dataset]) {
    let mname = MachineSpec::of(kind).kind.name();
    println!("{:<18} {}", "bar", datasets_header(datasets));
    for name in BENCHMARKS {
        for method in [Method::Cbr, Method::Mbr, Method::Rbr, Method::Avg, Method::Whl] {
            let vals: Vec<String> = datasets
                .iter()
                .map(|ds| {
                    cells
                        .iter()
                        .find(|c| {
                            c.report.benchmark == name
                                && c.report.machine == mname
                                && c.report.method == method
                                && c.report.tuned_on == ds.name()
                        })
                        .map(|c| format!("{:+7.1}%", c.report.improvement_pct))
                        .unwrap_or_else(|| "      —".into())
                })
                .collect();
            if vals.iter().any(|v| !v.contains('—')) {
                println!(
                    "  {:<16} {}",
                    format!("{}_{}", name.to_lowercase(), method.name()),
                    vals.join("  ")
                );
            }
        }
    }
}

fn print_tuning_times(cells: &[Figure7Cell], kind: MachineKind, datasets: &[Dataset]) {
    let mname = MachineSpec::of(kind).kind.name();
    println!("{:<18} {}", "bar", datasets_header(datasets));
    for name in BENCHMARKS {
        for method in [Method::Cbr, Method::Mbr, Method::Rbr, Method::Avg] {
            let vals: Vec<String> = datasets
                .iter()
                .map(|ds| {
                    cells
                        .iter()
                        .find(|c| {
                            c.report.benchmark == name
                                && c.report.machine == mname
                                && c.report.method == method
                                && c.report.tuned_on == ds.name()
                        })
                        .and_then(|c| c.tuning_time_vs_whl)
                        .map(|t| format!("{t:7.3}"))
                        .unwrap_or_else(|| "      —".into())
                })
                .collect();
            if vals.iter().any(|v| !v.contains('—')) {
                println!(
                    "  {:<16} {}",
                    format!("{}_{}", name.to_lowercase(), method.name()),
                    vals.join("  ")
                );
            }
        }
    }
}

fn summarize(cells: &[Figure7Cell]) {
    // Paper headline: "up to 178% performance improvements (26% on
    // average). … reduction in program tuning time of up to 96% (80% on
    // average)" — using the PEAK-suggested method per benchmark.
    let suggested: Vec<&Figure7Cell> = cells
        .iter()
        .filter(|c| {
            c.report.tuned_on == "train"
                && c.report.method != Method::Whl
                && c.report.method != Method::Avg
                && is_suggested(c)
        })
        .collect();
    if suggested.is_empty() {
        return;
    }
    let best = suggested
        .iter()
        .map(|c| c.report.improvement_pct)
        .fold(f64::NEG_INFINITY, f64::max);
    let avg = suggested.iter().map(|c| c.report.improvement_pct).sum::<f64>()
        / suggested.len() as f64;
    let reductions: Vec<f64> = suggested
        .iter()
        .filter_map(|c| c.tuning_time_vs_whl)
        .map(|t| (1.0 - t) * 100.0)
        .collect();
    let max_red = reductions.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let avg_red = reductions.iter().sum::<f64>() / reductions.len().max(1) as f64;
    println!("Headline (PEAK-suggested methods, tuned on train):");
    println!("  performance improvement: up to {best:+.0}%, average {avg:+.0}%  (paper: up to +178%, avg +26%)");
    println!("  tuning-time reduction vs WHL: up to {max_red:.0}%, average {avg_red:.0}%  (paper: up to 96%, avg 80%)");
}

/// The method the PEAK compiler chooses per benchmark (paper §5.2: "MBR
/// for MGRID, CBR for SWIM, CBR for EQUAKE, and RBR for ART").
fn is_suggested(c: &Figure7Cell) -> bool {
    matches!(
        (c.report.benchmark.as_str(), c.report.method),
        ("SWIM", Method::Cbr) | ("MGRID", Method::Mbr) | ("EQUAKE", Method::Cbr) | ("ART", Method::Rbr)
    )
}

fn datasets_header(datasets: &[Dataset]) -> String {
    datasets.iter().map(|d| format!("{:>8}", d.name())).collect::<Vec<_>>().join("  ")
}

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned())
}
