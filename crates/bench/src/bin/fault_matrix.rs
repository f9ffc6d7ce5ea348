//! Fault-injection matrix: how rating accuracy degrades with fault
//! intensity, per rating method, plus a crash+jitter scenario exercising
//! the §3 cascade's fault handling end-to-end.
//!
//! ```text
//! cargo run --release -p peak-bench --bin fault_matrix \
//!     [-- --machine sparc|p4] [--bench NAME] [--json PATH] [--trace PATH]
//! ```
//!
//! `--trace PATH` writes a JSONL telemetry trace (rating outcomes, fault
//! firings per run, cascade degrades) readable with the
//! `peak-trace` binary. Sweep cells run in parallel on the shared job
//! pool; each cell buffers its events locally and the buffers are
//! spliced into the trace file in cell order (so the trace is identical
//! at any thread count; event `seq` restarts per cell). The crash
//! scenario appends its events after the sweep. Adding `--trace-wall`
//! stamps `wall_ns` self-profiling fields so `peak-trace summary`
//! reports per-method rating overhead — at the cost of trace
//! byte-reproducibility (see DESIGN.md §9).
//!
//! For each fault intensity the harness self-rates `-O3` against itself
//! (true improvement = 1.0) with every applicable method; the reported
//! error `|EVAL_ratio − 1| × 100` is the rating-accuracy cost of the
//! faults. The final section rates under a deterministic version-crash
//! plus heavy jitter and shows the cascade walking down the method
//! order to WHL instead of panicking.

use peak_core::consultant::Method;
use peak_core::rating::{rate, TuningSetup};
use peak_core::FrontierRater;
use peak_obs::{event, JsonlSink, TraceSink, Tracer};
use peak_opt::OptConfig;
use peak_sim::{FaultConfig, MachineKind, MachineSpec};
use peak_util::{Json, ToJson};
use peak_workloads::Dataset;
use std::io::Write;
use std::sync::Arc;

/// Fault intensities swept (0.0 = clean control).
const INTENSITIES: &[f64] = &[0.0, 0.5, 1.0, 2.0];
/// Scenario seed for reproducible fault streams.
const SCENARIO_SEED: u64 = 0xFA_07;

struct Cell {
    method: Method,
    intensity: f64,
    error_pct: f64,
    samples: usize,
    trimmed: usize,
    dropouts: u64,
    crashes: u64,
    unconverged: usize,
}

impl ToJson for Cell {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("method", self.method.to_json()),
            ("intensity", self.intensity.to_json()),
            ("error_pct", self.error_pct.to_json()),
            ("samples", self.samples.to_json()),
            ("trimmed", self.trimmed.to_json()),
            ("dropouts", self.dropouts.to_json()),
            ("crashes", self.crashes.to_json()),
            ("unconverged", self.unconverged.to_json()),
        ])
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let machine = arg_value(&args, "--machine").unwrap_or_else(|| "sparc".into());
    let bench = arg_value(&args, "--bench").unwrap_or_else(|| "swim".into());
    let json_path = arg_value(&args, "--json");
    let kind = match machine.as_str() {
        "p4" | "pentium" | "pentium4" => MachineKind::PentiumIV,
        "sparc" => MachineKind::SparcII,
        other => {
            eprintln!("error: unknown machine `{other}` (expected sparc or p4)");
            std::process::exit(1);
        }
    };
    let Some(workload) = peak_workloads::workload_by_name(&bench) else {
        eprintln!("error: unknown benchmark `{bench}`");
        std::process::exit(1);
    };
    let spec = MachineSpec::of(kind);
    let base = OptConfig::o3();
    let trace_path = arg_value(&args, "--trace");
    let trace_wall = args.iter().any(|a| a == "--trace-wall");
    let tracing = trace_path.is_some();
    let trace_sink: Option<Arc<JsonlSink>> = trace_path.as_ref().map(|path| {
        Arc::new(JsonlSink::create(std::path::Path::new(path)).expect("create trace file"))
    });
    let trace_ctx = vec![
        ("benchmark".to_owned(), Json::Str(workload.name().to_owned())),
        ("machine".to_owned(), Json::Str(kind.name().to_owned())),
    ];

    println!(
        "Fault matrix — rating-accuracy degradation under injected faults ({}, {})",
        workload.name(),
        kind.name()
    );
    println!("Self-rating of -O3 (true improvement = 1.0); error = |ratio-1|x100.");
    println!();
    println!(
        "{:<6} {:>9} {:>10} {:>8} {:>8} {:>9} {:>8} {:>12}",
        "method", "intensity", "error%", "samples", "trimmed", "dropouts", "crashes", "unconverged"
    );

    // Applicable methods for this TS, always ending in the baselines.
    let consult = peak_core::consult_shared(workload.as_ref(), &spec);
    let mut methods = consult.order.clone();
    if !methods.contains(&Method::Whl) {
        methods.push(Method::Whl);
    }

    // Sweep cells are independent (method × intensity): run them as jobs
    // on the shared work-stealing pool (`PEAK_THREADS` overrides the
    // size). `Pool::run` returns results in job order, so stdout and
    // JSON are byte-identical at any thread count; each cell buffers its
    // trace events locally and the buffers are spliced in cell order.
    let pool = peak_core::Pool::from_env();
    let sweep: Vec<(Method, f64)> = methods
        .iter()
        .flat_map(|&m| INTENSITIES.iter().map(move |&i| (m, i)))
        .collect();
    let jobs: Vec<_> = sweep
        .iter()
        .map(|&(method, intensity)| {
            let workload = workload.as_ref();
            let spec = &spec;
            let trace_ctx = &trace_ctx;
            move || {
                let (tracer, sink) = if tracing {
                    let sink = Arc::new(peak_obs::BufferSink::new());
                    let mut tracer =
                        Tracer::to_sink(sink.clone()).with_context(trace_ctx.clone());
                    if trace_wall {
                        tracer = tracer.with_wall_clock();
                    }
                    (tracer, Some(sink))
                } else {
                    (Tracer::disabled(), None)
                };
                let mut setup = TuningSetup::new(workload, spec.clone(), Dataset::Train);
                setup.set_tracer(tracer.clone());
                if intensity > 0.0 {
                    setup.set_faults(Some(spec.fault_profile(intensity, SCENARIO_SEED)));
                }
                if tracer.enabled() {
                    event!(
                        tracer,
                        "matrix.cell",
                        method = method.name(),
                        intensity = intensity,
                    );
                }
                let cell = rate(&mut setup, method, base, &[base]).map(|out| Cell {
                    method,
                    intensity,
                    error_pct: (out.improvements[0] - 1.0).abs() * 100.0,
                    samples: out.samples,
                    trimmed: out.trimmed,
                    dropouts: out.dropouts,
                    crashes: out.crashes,
                    unconverged: out.unconverged,
                });
                (cell, sink.map(|s| s.drain()).unwrap_or_default())
            }
        })
        .collect();
    let results: Vec<(Option<Cell>, Vec<String>)> = pool.run(jobs);
    if let Some(sink) = &trace_sink {
        for (_, lines) in &results {
            sink.append_lines(lines.iter());
        }
    }
    let mut cells: Vec<Cell> = Vec::new();
    for (cell, _) in results {
        let Some(cell) = cell else { continue };
        println!(
            "{:<6} {:>9.1} {:>10.3} {:>8} {:>8} {:>9} {:>8} {:>12}",
            cell.method.name(),
            cell.intensity,
            cell.error_pct,
            cell.samples,
            cell.trimmed,
            cell.dropouts,
            cell.crashes,
            cell.unconverged
        );
        cells.push(cell);
    }
    // The crash scenario below runs serially and streams its events
    // straight to the trace file, after the spliced sweep buffers.
    let tracer = match &trace_sink {
        Some(sink) => {
            let mut tracer = Tracer::to_sink(sink.clone() as Arc<dyn TraceSink>)
                .with_context(trace_ctx.clone());
            if trace_wall {
                tracer = tracer.with_wall_clock();
            }
            tracer
        }
        None => Tracer::disabled(),
    };

    // Crash + jitter scenario: a deterministic version crash on the 6th
    // TS execution of every run plus intensity-1.0 jitter. Per-method
    // rating survives (crashes are data, not panics); the cascade
    // degrades down the method order and still produces a rating.
    println!();
    println!("Crash+jitter scenario (crash on 6th execution per run, intensity 1.0):");
    let mut crash_cfg: FaultConfig = spec.fault_profile(1.0, SCENARIO_SEED);
    crash_cfg.crash_at = Some(6);
    let mut setup = TuningSetup::new(workload.as_ref(), spec.clone(), Dataset::Train);
    setup.set_tracer(tracer.clone());
    setup.set_faults(Some(crash_cfg));
    if tracer.enabled() {
        event!(tracer, "matrix.crash_scenario", crash_at = 6u64, intensity = 1.0,);
    }
    let preferred = *consult.order.first().unwrap_or(&Method::Rbr);
    let mut rater = FrontierRater::serial(&mut setup, preferred);
    let fo = rater.rate(base, &[base]).expect("unlimited budget affords one frontier");
    let (out, used, events) = (fo.out, fo.method, rater.events());
    println!(
        "  preferred {} -> completed with {} (error {:.3}%, {} downgrades)",
        preferred.name(),
        used.name(),
        (out.improvements[0] - 1.0).abs() * 100.0,
        events.len()
    );
    for e in events {
        println!("    degrade {} -> {}: {}", e.from.name(), e.to.name(), e.trigger.name());
    }

    if let Some(path) = json_path {
        let doc = Json::obj(vec![
            ("benchmark", workload.name().to_json()),
            ("machine", kind.name().to_json()),
            ("cells", Json::Arr(cells.iter().map(|c| c.to_json()).collect())),
            (
                "crash_scenario",
                Json::obj(vec![
                    ("preferred", preferred.to_json()),
                    ("completed_with", used.to_json()),
                    ("error_pct", ((out.improvements[0] - 1.0).abs() * 100.0).to_json()),
                    (
                        "events",
                        Json::Arr(events.iter().map(|e| e.to_json()).collect()),
                    ),
                ]),
            ),
        ]);
        let mut f = std::fs::File::create(&path).expect("create json output");
        writeln!(f, "{}", doc.pretty()).expect("write json output");
        println!();
        println!("wrote {path}");
    }
    if let (Some(sink), Some(path)) = (trace_sink, &trace_path) {
        sink.flush();
        eprintln!("trace: wrote {path}");
    }

    // ── Robustness gate ─────────────────────────────────────────────
    // CI fails (non-zero exit) on robustness regressions: a cell that
    // produced no rating at all, non-finite or wildly degraded errors,
    // or faults firing in the clean (intensity 0.0) control cells. The
    // crash scenario legitimately walks the cascade to WHL — that is
    // the mechanism working — but it too must end with a usable rating.
    let mut violations: Vec<String> = Vec::new();
    if cells.len() != sweep.len() {
        violations
            .push(format!("{} of {} sweep cells produced no rating", sweep.len() - cells.len(), sweep.len()));
    }
    for cell in &cells {
        let tag = format!("{}@{:.1}", cell.method.name(), cell.intensity);
        if !cell.error_pct.is_finite() {
            violations.push(format!("{tag}: non-finite rating error"));
        } else if cell.error_pct > FAULTED_MAX_ERR_PCT {
            violations.push(format!(
                "{tag}: error {:.3}% exceeds ceiling {FAULTED_MAX_ERR_PCT}%",
                cell.error_pct
            ));
        }
        if cell.intensity == 0.0 {
            if cell.dropouts > 0 || cell.crashes > 0 {
                violations.push(format!(
                    "{tag}: faults fired in the clean control ({} dropouts, {} crashes)",
                    cell.dropouts, cell.crashes
                ));
            }
            if cell.error_pct > CLEAN_MAX_ERR_PCT {
                violations.push(format!(
                    "{tag}: clean-control error {:.3}% exceeds {CLEAN_MAX_ERR_PCT}%",
                    cell.error_pct
                ));
            }
        }
    }
    let crash_err = (out.improvements[0] - 1.0).abs() * 100.0;
    if !crash_err.is_finite() || crash_err > FAULTED_MAX_ERR_PCT {
        violations.push(format!(
            "crash scenario: terminal rating error {crash_err:.3}% unusable (ceiling {FAULTED_MAX_ERR_PCT}%)"
        ));
    }
    println!();
    if violations.is_empty() {
        println!("ROBUSTNESS: OK ({} cells + crash scenario within bounds)", cells.len());
    } else {
        println!("ROBUSTNESS: FAIL");
        for v in &violations {
            println!("  - {v}");
        }
        std::process::exit(1);
    }
}

/// Clean control cells (intensity 0.0) must self-rate -O3 within this.
const CLEAN_MAX_ERR_PCT: f64 = 5.0;
/// No cell — faulted or not — may degrade past this and still pass.
const FAULTED_MAX_ERR_PCT: f64 = 15.0;

fn arg_value(args: &[String], key: &str) -> Option<String> {
    args.iter().position(|a| a == key).and_then(|i| args.get(i + 1).cloned())
}
