//! `tunebench` — end-to-end benchmark of the `peak-serve` tuning service.
//!
//! ```text
//! tunebench --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
//! tunebench daemon --socket PATH --store DIR
//! tunebench expected [--out FILE]
//! tunebench compare BEFORE.json AFTER.json
//! ```
//!
//! A run drives fresh `peak-serve` daemons (the `daemon` subcommand runs
//! the daemon library exactly as the `peak-serve serve` binary does) from
//! one closed-loop client and prints every metric by name and unit. The
//! last line of standard output is the result object
//! `{"correct","attempted","failed","metrics"}`: end-to-end metrics with
//! `--trace 0`, per-layer metrics with `--trace 1`. The full result
//! (run metadata, per-pair rows) is also written as JSON, by default to
//! `.tunebench/results/`; `compare` diffs two such files and refuses
//! when their run metadata differ. `expected` regenerates the
//! expected-results file from the offline tuning path. See
//! `tunebench/METRICS.md`.

mod client;
mod traced;

use peak_util::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use tunebench::{cold_specs, parse_expected, ExpectedEntry, Metadata, Workload};

/// The expected-results file, embedded at build time.
const EXPECTED: &str = include_str!("../expected.jsonl");
/// Where `expected` writes by default (relative to the repository root).
const EXPECTED_PATH: &str = "tunebench/expected.jsonl";
/// Scratch and results directory, relative to the working directory.
const RUN_DIR: &str = ".tunebench";
/// Daemon worker threads (the `peak-serve` default).
const DAEMON_WORKERS: usize = 2;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("daemon") => daemon(&args[1..]),
        Some("expected") => expected(&args[1..]),
        Some("compare") => compare(&args[1..]),
        _ => run(&args),
    };
    std::process::exit(code);
}

fn arg<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn usage(msg: &str) -> i32 {
    eprintln!("error: {msg}");
    eprintln!("usage: tunebench --workload sim_bound|short_jobs|mixed_service --seed N --seconds S --trace 0|1 [--out FILE]");
    eprintln!("       tunebench daemon --socket PATH --store DIR");
    eprintln!("       tunebench expected [--out FILE]");
    eprintln!("       tunebench compare BEFORE.json AFTER.json");
    2
}

/// Run the tuning daemon until a `shutdown` request arrives.
fn daemon(args: &[String]) -> i32 {
    let (Some(socket), Some(store)) = (arg(args, "--socket"), arg(args, "--store")) else {
        return usage("daemon needs --socket and --store");
    };
    let mut config = peak_serve::ServeConfig::new(socket, store);
    config.workers = DAEMON_WORKERS;
    match peak_serve::start(config, peak_obs::Tracer::disabled()) {
        Ok(handle) => {
            handle.wait();
            0
        }
        Err(e) => {
            eprintln!("error: cannot start daemon on {socket}: {e}");
            1
        }
    }
}

/// Regenerate the expected-results file: one offline `run_tuning_job`
/// report per cold-start spec any workload can draw.
fn expected(args: &[String]) -> i32 {
    let out = arg(args, "--out").unwrap_or(EXPECTED_PATH);
    let mut specs: Vec<_> = Workload::ALL.into_iter().flat_map(cold_specs).collect();
    specs.sort();
    specs.dedup();
    let pool = peak_core::Pool::from_env();
    let mut text = String::new();
    for spec in &specs {
        let mut job = peak_core::TuningJobSpec::new(spec.benchmark, spec.machine);
        if let tunebench::Variant::Strategy(s) = spec.variant {
            job.strategy = Some(s.to_owned());
        }
        let t = std::time::Instant::now();
        let report = match peak_core::run_tuning_job(
            &job,
            peak_obs::Tracer::disabled(),
            &pool,
            peak_core::CancelToken::new(),
        ) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {}: {e}", spec.key());
                return 1;
            }
        };
        let entry = ExpectedEntry {
            best_bits: report.search.best.bits(),
            method: report.method.name().to_owned(),
            report: peak_util::ToJson::to_json(&report).compact(),
        };
        eprintln!(
            "{:<28} {:>8.0} ms",
            spec.key(),
            t.elapsed().as_secs_f64() * 1e3
        );
        text.push_str(&entry.to_line(&spec.key()));
        text.push('\n');
    }
    if let Err(e) = std::fs::write(out, text) {
        eprintln!("error: cannot write {out}: {e}");
        return 1;
    }
    eprintln!("wrote {} entries to {out}", specs.len());
    0
}

/// Source revision: the git commit when the checkout is a repository,
/// else an FNV-1a digest of the manifests and Rust sources under
/// `crates/` and `tunebench/`.
fn revision() -> String {
    let git = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output();
    if let Ok(out) = git {
        let rev = String::from_utf8_lossy(&out.stdout).trim().to_owned();
        if out.status.success() && !rev.is_empty() {
            return format!("git:{rev}");
        }
    }
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            let name = e.file_name();
            if p.is_dir() && name != "target" {
                walk(&p, files);
            } else if p
                .extension()
                .is_some_and(|x| x == "rs" || x == "toml" || x == "jsonl")
            {
                files.push(p);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("crates"), &mut files);
    walk(Path::new("tunebench"), &mut files);
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in &files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(f).unwrap_or_default())
        {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("src:{h:016x}")
}

/// Everything one run needs besides its request list.
pub struct Env {
    /// Run metadata (recorded in every result).
    pub meta: Metadata,
    /// The workload.
    pub workload: Workload,
    /// Expected cold-start reports.
    pub expected: BTreeMap<String, ExpectedEntry>,
    /// This run's scratch directory (sockets, stores).
    pub dir: PathBuf,
    /// Pre-seeded store to copy into place before each daemon start.
    pub store_template: Option<PathBuf>,
}

fn run(args: &[String]) -> i32 {
    let Some(workload) = arg(args, "--workload").and_then(Workload::parse) else {
        return usage("--workload must be sim_bound, short_jobs or mixed_service");
    };
    let Some(seed) = arg(args, "--seed").and_then(|s| s.parse::<u64>().ok()) else {
        return usage("--seed wants a non-negative integer");
    };
    let Some(seconds) = arg(args, "--seconds").and_then(|s| s.parse::<u64>().ok()) else {
        return usage("--seconds wants whole seconds");
    };
    let trace = match arg(args, "--trace") {
        Some("0") | None => 0u8,
        Some("1") => 1,
        Some(other) => return usage(&format!("--trace wants 0 or 1, got {other:?}")),
    };
    let expected = match parse_expected(EXPECTED) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("error: expected-results file: {e}");
            return 1;
        }
    };
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let tier = std::env::var("PEAK_TIER")
        .ok()
        .filter(|v| !v.is_empty())
        .and_then(|v| peak_sim::ExecTier::parse(&v))
        .unwrap_or_default();
    let meta = Metadata {
        workload: workload.name().to_owned(),
        seed,
        seconds,
        trace,
        nproc,
        tier: tier.name().to_owned(),
        threads: peak_core::default_threads(),
        workers: DAEMON_WORKERS,
        // Closed loop: never more connections than cores or daemon
        // workers, one outstanding `tune` each, so admission control
        // never sheds benchmark load.
        connections: nproc.min(DAEMON_WORKERS),
        revision: revision(),
    };
    let dir = PathBuf::from(RUN_DIR).join(format!("run-{}", std::process::id()));
    let result = (|| -> Result<i32, String> {
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let store_template = if workload.preseeded() {
            let t = dir.join("store-template");
            preseed_store(&t, workload, &expected)?;
            Some(t)
        } else {
            None
        };
        let env = Env {
            meta,
            workload,
            expected,
            dir: dir.clone(),
            store_template,
        };
        let list = tunebench::request_list(workload, seed);
        let report = if trace == 1 {
            traced::run(&env, &list)?
        } else {
            client::run(&env, &list)?
        };
        Ok(report.finish(&env, arg(args, "--out")))
    })();
    let _ = std::fs::remove_dir_all(&dir);
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

/// Write one store record per pair of `workload` through
/// `KnowledgeStore::record`, from the expected default-job results.
fn preseed_store(
    dir: &Path,
    workload: Workload,
    expected: &BTreeMap<String, ExpectedEntry>,
) -> Result<(), String> {
    let mut store = peak_serve::KnowledgeStore::open(dir, peak_obs::Tracer::disabled())
        .map_err(|e| format!("cannot open store {}: {e}", dir.display()))?;
    for (benchmark, machine) in workload.pairs() {
        let spec = tunebench::TuneSpec {
            benchmark,
            machine,
            variant: tunebench::Variant::Default,
        };
        let e = expected
            .get(&spec.key())
            .ok_or_else(|| format!("no expected result for {}", spec.key()))?;
        let report = peak_util::from_str(&e.report).map_err(|e| e.to_string())?;
        let w = peak_workloads::workload_by_name(benchmark).ok_or("unknown benchmark")?;
        store
            .record(peak_serve::StoreRecord {
                benchmark: benchmark.to_owned(),
                machine: machine.to_owned(),
                method: e.method.clone(),
                features: peak_serve::FeatureVec::of_workload(w.as_ref()),
                best_bits: e.best_bits,
                improvement_pct: report
                    .get("improvement_pct")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0),
            })
            .map_err(|e| format!("cannot pre-seed store: {e}"))?;
    }
    Ok(())
}

/// Copy a store directory's files into a fresh directory.
pub fn copy_store(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("cannot create {}: {e}", to.display()))?;
    let entries =
        std::fs::read_dir(from).map_err(|e| format!("cannot read {}: {e}", from.display()))?;
    for e in entries.flatten() {
        if e.path().is_file() {
            std::fs::copy(e.path(), to.join(e.file_name()))
                .map_err(|err| format!("cannot copy {}: {err}", e.path().display()))?;
        }
    }
    Ok(())
}

/// A finished run: metrics, accounting and per-pair rows.
pub struct Report {
    /// Error accounting.
    pub tally: tunebench::Tally,
    /// `(name, value, unit)`, in `BENCHMARK.json` order.
    pub metrics: Vec<(String, f64, String)>,
    /// Per-pair rows: one JSON object per benchmark/machine/variant,
    /// keyed by `pair`.
    pub rows: Vec<Json>,
    /// Extra human-readable lines.
    pub notes: Vec<String>,
}

impl Report {
    /// Print the report, write the result file, and print the result
    /// object as the last line. Returns the exit code.
    fn finish(self, env: &Env, out: Option<&str>) -> i32 {
        let m = &env.meta;
        println!(
            "tunebench {} seed={} seconds={} trace={} nproc={} tier={} threads={} workers={} connections={} revision={}",
            m.workload, m.seed, m.seconds, m.trace, m.nproc, m.tier, m.threads, m.workers, m.connections, m.revision
        );
        for row in &self.rows {
            let Json::Obj(cols) = row else { continue };
            let cells: Vec<String> = cols
                .iter()
                .map(|(name, v)| match v {
                    Json::F(x) => format!("{name}={x:.4}"),
                    Json::Str(x) => x.clone(),
                    _ => format!("{name}={}", v.compact()),
                })
                .collect();
            println!("{}", cells.join("  "));
        }
        for note in &self.notes {
            println!("{note}");
        }
        for (name, value, unit) in &self.metrics {
            println!("{name} = {value} {unit}");
        }
        println!(
            "error_rate = {} ({} tune requests, {} ok, {} errors, {} shed, {} output-check failures, {} poll failures)",
            self.tally.error_rate(),
            self.tally.sent,
            self.tally.ok,
            self.tally.errors,
            self.tally.shed,
            self.tally.mismatches,
            self.tally.poll_failures
        );
        let path = match out {
            Some(p) => PathBuf::from(p),
            None => PathBuf::from(RUN_DIR).join("results").join(format!(
                "{}-seed{}-trace{}.json",
                m.workload, m.seed, m.trace
            )),
        };
        let file = Json::obj(vec![
            ("metadata", m.to_json()),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(n, v, u)| {
                            (
                                n.clone(),
                                Json::obj(vec![
                                    ("value", Json::F(*v)),
                                    ("unit", Json::Str(u.clone())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
            ("error_rate", Json::F(self.tally.error_rate())),
            ("rows", Json::Arr(self.rows.clone())),
        ]);
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        match std::fs::write(&path, file.pretty()) {
            Ok(()) => println!("result written to {}", path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
        let correct = self.tally.failed() == 0;
        println!(
            "{}",
            tunebench::result_line(correct, &self.tally, &self.metrics)
        );
        if correct {
            0
        } else {
            1
        }
    }
}

/// Compare two result files metric by metric and pair by pair. Refuses
/// (exit 1) when their run metadata differ in anything but the source
/// revision.
fn compare(args: &[String]) -> i32 {
    let [a, b] = args else {
        return usage("compare wants two result files");
    };
    let load = |p: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))?;
        peak_util::from_str(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (ja, jb) = match (load(a), load(b)) {
        (Ok(x), Ok(y)) => (x, y),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let meta = |j: &Json| j.get("metadata").and_then(Metadata::from_json);
    let (Some(ma), Some(mb)) = (meta(&ja), meta(&jb)) else {
        eprintln!("error: result files without run metadata");
        return 1;
    };
    let diff = ma.differences(&mb);
    if !diff.is_empty() {
        eprintln!(
            "error: refusing to compare runs whose metadata differ in: {}",
            diff.join(", ")
        );
        return 1;
    }
    println!(
        "{} seed={} trace={}: {} -> {}",
        ma.workload, ma.seed, ma.trace, ma.revision, mb.revision
    );
    let metric = |j: &Json, name: &str| {
        j.get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
    };
    if let Some(Json::Obj(ms)) = ja.get("metrics") {
        for (name, v) in ms {
            let unit = v.get("unit").and_then(Json::as_str).unwrap_or("");
            match (metric(&ja, name), metric(&jb, name)) {
                (Some(x), Some(y)) if x != 0.0 => {
                    println!("{name:<36} {x:>14.6} -> {y:>14.6} {unit:<10} x{:.4}", y / x)
                }
                (Some(x), Some(y)) => println!("{name:<36} {x:>14.6} -> {y:>14.6} {unit}"),
                _ => println!("{name:<36} missing in one run"),
            }
        }
    }
    // Per-pair rows: every numeric column's after/before ratio, and the
    // geomean of those ratios across pairs.
    let rows = |j: &Json| -> BTreeMap<String, Json> {
        j.get("rows")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|r| Some((r.get("pair")?.as_str()?.to_owned(), r.clone())))
            .collect()
    };
    let (ra, rb) = (rows(&ja), rows(&jb));
    let mut ratios: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (pair, x) in &ra {
        let Some(y) = rb.get(pair) else { continue };
        let Json::Obj(cols) = x else { continue };
        let mut cells = Vec::new();
        for (col, xv) in cols {
            let (Some(xv), Some(yv)) = (xv.as_f64(), y.get(col).and_then(Json::as_f64)) else {
                continue;
            };
            if xv > 0.0 && yv > 0.0 && col != "n" {
                ratios.entry(col.clone()).or_default().push(yv / xv);
                cells.push(format!("{col} x{:.3}", yv / xv));
            }
        }
        println!("  {pair:<40} {}", cells.join("  "));
    }
    for (col, rs) in &ratios {
        if let Some(g) = tunebench::geomean(rs) {
            println!("geomean over {} pairs: {col} x{g:.4}", rs.len());
        }
    }
    0
}
