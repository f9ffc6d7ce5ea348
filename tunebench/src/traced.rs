//! The traced run: per-layer numbers from outside the program.
//!
//! 1. A served prefix of the request list against a fresh daemon, with a
//!    poll after every job, for the daemon's own `stats` counters and
//!    the poll latency.
//! 2. An in-process replay of the whole request list on as many threads
//!    as the load generator has connections, splitting each job into
//!    the public calls the daemon's job path makes, in order, each under
//!    a span (name, start, end, parent, job). Spans stay in memory and
//!    are reduced to self time at the end; job time not covered by a
//!    child span is `unattributed`.
//! 3. A cold probe per pair, splitting compile from simulation: compile
//!    and prepare the first IE frontier, look versions up in a private
//!    cache, record the train argument stream, execute the train stream,
//!    and rate the first frontier once.

use crate::client::{drive, report_failures, Daemon};
use crate::{copy_store, Env, Report};
use peak_core::{
    build_strategy, compile_validated, consult, machine_spec_by_name, production_time, rate,
    strategy_kind_by_name, strategy_seed, FrontierRater, IterativeElimination, Pool, RunHarness,
    SearchResult, SearchStrategy, TuneReport, TuningSetup, VersionCache, VersionKey,
};
use peak_opt::OptConfig;
use peak_serve::{
    ok_response, parse_request, FeatureVec, FlightRecorder, KnowledgeStore, Request as Line,
    StoreRecord,
};
use peak_sim::{ExecOptions, PreparedVersion};
use peak_util::{Json, ToJson};
use peak_workloads::stream::ArgStream;
use peak_workloads::Dataset;
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use tunebench::{check_tune_response, geomean, mean, median, Request, Tally, Variant, Verdict};

/// Child spans of a job, in the order the job path makes the calls.
/// `protocol` covers both request parsing and response rendering.
const LAYERS: [&str; 7] = [
    "protocol",
    "features",
    "store_nearest",
    "consult",
    "search",
    "production",
    "store_record",
];

/// Lookups timed per pair on a private version cache.
const PROBE_LOOKUPS: u32 = 2000;

/// One recorded span. Times are seconds since the replay's origin.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start: f64,
    end: f64,
    parent: Option<usize>,
    job: usize,
}

/// Per-thread span recorder.
struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Open a span; close it with [`Spans::exit`].
    fn enter(&mut self, name: &'static str, parent: Option<usize>, job: usize) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            job,
        });
        self.spans.len() - 1
    }

    fn exit(&mut self, idx: usize) {
        self.spans[idx].end = self.now();
    }

    /// Run `f` under a child span of `parent`.
    fn child<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let job = self.spans[parent].job;
        let idx = self.enter(name, Some(parent), job);
        let out = f();
        self.exit(idx);
        out
    }
}

/// Per-job facts the replay keeps besides its spans.
struct JobFacts {
    index: usize,
    search: SearchResult,
    spent: usize,
    production_cycles: u64,
    verdict: Verdict,
}

/// Self time per span: its duration minus its children's.
fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(|s| s.end - s.start).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.end - s.start;
        }
    }
    own
}

/// Replay one job in-process: the calls `peak-serve` makes for a `tune`
/// line, in order, each under a child span of the job's root span.
fn replay_job(
    env: &Env,
    r: &Request,
    index: usize,
    pool: &Pool,
    store: &Mutex<KnowledgeStore>,
    sp: &mut Spans,
) -> Result<JobFacts, String> {
    let line = r.spec.request_line(&r.id);
    let root = sp.enter("job", None, index);
    let parsed = sp.child("protocol", root, || parse_request(&line));
    let Ok(Line::Tune { id, job }) = parsed else {
        return Err(format!("{}: request line does not parse as tune", r.id));
    };
    let w = peak_workloads::workload_by_name(&job.benchmark).ok_or("unknown benchmark")?;
    let machine = machine_spec_by_name(&job.machine).ok_or("unknown machine")?;
    let machine_name = machine.kind.name();
    let features = sp.child("features", root, || FeatureVec::of_workload(w.as_ref()));
    let mut start = OptConfig::o3();
    let mut warm_started = false;
    if job.warm_start {
        let lock = || store.lock().expect("replay store lock");
        if let Some(bits) = sp.child("store_nearest", root, || {
            lock()
                .nearest(&features, machine_name)
                .map(|hit| hit.best_bits)
        }) {
            start = OptConfig::from_bits(bits);
            warm_started = true;
        }
    }
    // The daemon's job path installs a flight-recorder tracer on every
    // job; so does the replay.
    let recorder = FlightRecorder::new(&id, &line);
    let (method, mut setup) = sp.child("consult", root, || {
        let method = consult(w.as_ref(), &machine).order[0];
        let mut setup = TuningSetup::new(w.as_ref(), machine.clone(), job.dataset);
        setup.set_tracer(recorder.tracer(&peak_obs::Tracer::disabled()));
        setup.set_pool(pool.clone());
        (method, setup)
    });
    let strategy = match &job.strategy {
        None => None,
        Some(name) => Some(strategy_kind_by_name(name).ok_or("unknown strategy")?),
    };
    let (search, spent) = sp.child("search", root, || {
        let (mut rater, strategy): (_, Box<dyn SearchStrategy>) = match strategy {
            None => (
                FrontierRater::serial(&mut setup, method),
                Box::new(IterativeElimination {
                    start,
                    ..IterativeElimination::default()
                }),
            ),
            Some(kind) => (
                FrontierRater::pooled(&mut setup, pool.clone(), method),
                build_strategy(kind, strategy_seed(w.name(), machine_name)),
            ),
        };
        let search = strategy.run(&mut rater);
        (search, rater.spent())
    });
    let (baseline_cycles, tuned_cycles) = sp.child("production", root, || {
        (
            production_time(w.as_ref(), &machine, OptConfig::o3(), Dataset::Ref),
            production_time(w.as_ref(), &machine, search.best, Dataset::Ref),
        )
    });
    let report = TuneReport {
        benchmark: w.name().to_string(),
        ts: w.ts_name().to_string(),
        machine: machine_name.to_string(),
        method,
        tuned_on: "train".into(),
        search: search.clone(),
        baseline_cycles,
        tuned_cycles,
        improvement_pct: (baseline_cycles as f64 / tuned_cycles.max(1) as f64 - 1.0) * 100.0,
    };
    let rec = StoreRecord {
        benchmark: report.benchmark.clone(),
        machine: report.machine.clone(),
        method: method.name().to_owned(),
        features,
        best_bits: search.best.bits(),
        improvement_pct: report.improvement_pct,
    };
    sp.child("store_record", root, || {
        store.lock().expect("replay store lock").record(rec)
    })
    .map_err(|e| format!("replay store write failed: {e}"))?;
    let response = sp.child("protocol", root, || {
        let mut extra = vec![("result", report.to_json())];
        if warm_started {
            extra.push(("warm_started", Json::Bool(true)));
        }
        ok_response(&id, extra)
    });
    sp.exit(root);
    Ok(JobFacts {
        index,
        verdict: check_tune_response(&response, &r.id, &r.spec, &env.expected),
        search,
        spent,
        production_cycles: baseline_cycles + tuned_cycles,
    })
}

/// Cold-probe numbers for one pair.
struct Probe {
    versions: usize,
    compile_s: f64,
    prepare_s: f64,
    lookup_s: f64,
    record_s: f64,
    invocations: u64,
    exec_s: f64,
    rate_s: f64,
}

fn probe(benchmark: &str, machine: &str) -> Result<Probe, String> {
    let w = peak_workloads::workload_by_name(benchmark).ok_or("unknown benchmark")?;
    let spec = machine_spec_by_name(machine).ok_or("unknown machine")?;
    let o3 = OptConfig::o3();
    let candidates: Vec<OptConfig> = o3
        .enabled_flags()
        .into_iter()
        .map(|f| o3.without(f))
        .collect();
    let (mut compile_s, mut prepare_s) = (0.0, 0.0);
    let mut base = None;
    for cfg in std::iter::once(o3).chain(candidates.iter().copied()) {
        let t = Instant::now();
        let cv = compile_validated(w.program(), w.ts(), &cfg);
        let t1 = Instant::now();
        let pv = PreparedVersion::prepare(cv, &spec);
        prepare_s += t1.elapsed().as_secs_f64();
        compile_s += (t1 - t).as_secs_f64();
        base.get_or_insert(pv);
    }
    let pv = base.expect("frontier includes the base");

    let cache = VersionCache::new();
    let key = VersionKey::plain(w.as_ref(), o3, spec.kind);
    cache.get_or_prepare(key.clone(), &spec, || {
        compile_validated(w.program(), w.ts(), &o3)
    });
    let t = Instant::now();
    for _ in 0..PROBE_LOOKUPS {
        black_box(cache.get_or_prepare(black_box(key.clone()), &spec, || {
            unreachable!("probe key is cached")
        }));
    }
    let lookup_s = t.elapsed().as_secs_f64() / PROBE_LOOKUPS as f64;

    let t = Instant::now();
    black_box(ArgStream::materialize(w.as_ref(), Dataset::Train));
    let record_s = t.elapsed().as_secs_f64();

    let mut h = RunHarness::new(w.as_ref(), Dataset::Train, &spec, 0);
    let opts = ExecOptions::default();
    let mut invocations = 0u64;
    let t = Instant::now();
    while let Some(args) = h.next_args() {
        black_box(h.execute(&pv, &args, &opts));
        invocations += 1;
    }
    let exec_s = t.elapsed().as_secs_f64();

    let mut setup = TuningSetup::new(w.as_ref(), spec.clone(), Dataset::Train);
    let method = setup.consult.order[0];
    let t = Instant::now();
    black_box(rate(&mut setup, method, o3, &candidates));
    let rate_s = t.elapsed().as_secs_f64();

    Ok(Probe {
        versions: candidates.len() + 1,
        compile_s,
        prepare_s,
        lookup_s,
        record_s,
        invocations,
        exec_s,
        rate_s,
    })
}

/// The traced run.
pub fn run(env: &Env, list: &[Request]) -> Result<Report, String> {
    let mut tally = Tally::default();

    // 1. Served prefix: daemon counters and poll latency.
    let conns = env.meta.connections;
    let prefix = &list[..(list.len() / 8).max(2 * conns).min(list.len())];
    let (daemon, _) = Daemon::launch(env, &env.dir.join("served"))?;
    let served = drive(env, daemon.socket(), prefix, true)?;
    let stats = daemon.stats()?;
    daemon.shutdown()?;
    report_failures(prefix, served.jobs.iter().map(|j| (j.index, &j.verdict)));
    for j in &served.jobs {
        tally.add(&j.verdict);
    }
    tally.poll_failures += served.poll_failures;
    let snapshot = stats.get("metrics").and_then(peak_obs::Snapshot::from_json);
    let daemon_counter = |name: &str| snapshot.as_ref().and_then(|s| s.counter(name)).unwrap_or(0);
    let shed = stats.get("shed").and_then(Json::as_u64).unwrap_or(0);

    // 2. In-process replay of the whole list.
    let store_dir = env.dir.join("replay-store");
    match &env.store_template {
        Some(t) => copy_store(t, &store_dir)?,
        None => std::fs::create_dir_all(&store_dir).map_err(|e| e.to_string())?,
    }
    let t = Instant::now();
    let store = KnowledgeStore::open(&store_dir, peak_obs::Tracer::disabled())
        .map_err(|e| format!("cannot open replay store: {e}"))?;
    let store_open_s = t.elapsed().as_secs_f64();
    let store = Mutex::new(store);
    let pool = Pool::from_env();
    let cache_before = VersionCache::global().stats();
    let incidents_before = peak_core::incident_count();
    let origin = Instant::now();
    let next = AtomicUsize::new(0);
    let parts: Vec<Result<(Spans, Vec<JobFacts>), String>> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..conns)
            .map(|_| {
                s.spawn(|| {
                    let mut sp = Spans {
                        origin,
                        spans: Vec::new(),
                    };
                    let mut facts = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(r) = list.get(index) else {
                            return Ok((sp, facts));
                        };
                        facts.push(replay_job(env, r, index, &pool, &store, &mut sp)?);
                    }
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("replay thread panicked".into()))
            })
            .collect()
    });
    let mut spans = Vec::new();
    let mut facts = Vec::new();
    for part in parts {
        let (sp, f) = part?;
        let offset = spans.len();
        spans.extend(sp.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
        facts.extend(f);
    }
    facts.sort_by_key(|f| f.index);
    let cache = VersionCache::global().stats().delta(&cache_before);
    let cache_entries = VersionCache::global().len();
    let incidents = peak_core::incident_count() - incidents_before;
    let sched = pool.stats();
    let (streams, _) = peak_core::stream_cache::stats();

    // Reduce spans: per job, wall and self time per layer.
    let own = self_times(&spans);
    let n = list.len();
    let mut wall = vec![0.0; n];
    let mut unattributed = vec![0.0; n];
    let mut layer: BTreeMap<&str, Vec<f64>> = LAYERS.iter().map(|&l| (l, vec![0.0; n])).collect();
    for (s, own) in spans.iter().zip(&own) {
        if s.parent.is_none() {
            wall[s.job] = s.end - s.start;
            unattributed[s.job] = *own;
        } else {
            layer.get_mut(s.name).expect("known layer")[s.job] += own;
        }
    }
    let protocol_calls = spans.iter().filter(|s| s.name == "protocol").count();
    for f in &facts {
        tally.add(&f.verdict);
    }
    report_failures(list, facts.iter().map(|f| (f.index, &f.verdict)));

    // First occurrence of each pair in list order.
    let mut seen = BTreeSet::new();
    let first: Vec<bool> = list
        .iter()
        .map(|r| seen.insert((r.spec.benchmark, r.spec.machine)))
        .collect();

    // 3. Cold probes, one per pair.
    let mut probes = Vec::new();
    for &(b, m) in &seen {
        probes.push(probe(b, m)?);
    }

    let total_wall: f64 = wall.iter().sum();
    let sum = |l: &str| layer[l].iter().sum::<f64>();
    let per_job = |v: f64| v / n.max(1) as f64;
    let nearest_calls = list
        .iter()
        .filter(|r| r.spec.variant == Variant::Warm)
        .count();
    let versions: usize = probes.iter().map(|p| p.versions).sum();
    let compile_per_version =
        probes.iter().map(|p| p.compile_s).sum::<f64>() / versions.max(1) as f64;
    let prepare_per_version =
        probes.iter().map(|p| p.prepare_s).sum::<f64>() / versions.max(1) as f64;
    let first_wall: f64 = (0..n).filter(|&i| first[i]).map(|i| wall[i]).sum();
    let production_cycles: u64 = facts.iter().map(|f| f.production_cycles).sum();
    let search = |f: fn(&SearchResult) -> f64| {
        mean(&facts.iter().map(|x| f(&x.search)).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let mut metrics: Vec<(String, f64, String)> = Vec::new();
    let mut put = |name: &str, value: f64, unit: &str| {
        metrics.push((name.to_owned(), value, unit.to_owned()))
    };
    put(
        "serve.protocol_us",
        sum("protocol") / protocol_calls.max(1) as f64 * 1e6,
        "us",
    );
    put(
        "serve.poll_ms_p50",
        median(&served.poll_s).unwrap_or(0.0) * 1e3,
        "ms",
    );
    put(
        "serve.store_record_ms",
        per_job(sum("store_record")) * 1e3,
        "ms",
    );
    put(
        "serve.store_nearest_us",
        sum("store_nearest") / nearest_calls.max(1) as f64 * 1e6,
        "us",
    );
    put("serve.store_open_ms", store_open_s * 1e3, "ms");
    put("serve.shed", shed as f64, "count");
    put("core.consult_ms", per_job(sum("consult")) * 1e3, "ms");
    put("core.search_s", per_job(sum("search")), "s");
    put(
        "core.ratings_per_job",
        search(|s| s.ratings as f64),
        "count",
    );
    put("core.runs_per_job", search(|s| s.runs as f64), "count");
    put(
        "core.invocations_per_job",
        search(|s| s.invocations as f64),
        "count",
    );
    put(
        "core.rating.switches",
        search(|s| s.switches as f64),
        "count",
    );
    put(
        "core.strategy.budget_spent",
        mean(&facts.iter().map(|f| f.spent as f64).collect::<Vec<_>>()).unwrap_or(0.0),
        "count",
    );
    put(
        "core.rate_ms",
        mean(&probes.iter().map(|p| p.rate_s).collect::<Vec<_>>()).unwrap_or(0.0) * 1e3,
        "ms",
    );
    put("core.production_s", per_job(sum("production")), "s");
    put(
        "core.production_share",
        sum("production") / total_wall.max(1e-12),
        "ratio",
    );
    put("core.version_cache.hit_rate", cache.hit_rate(), "ratio");
    put(
        "core.version_cache.compiles",
        cache.compiles as f64,
        "count",
    );
    put(
        "core.version_cache.coalesced",
        cache.coalesced as f64,
        "count",
    );
    put("core.version_cache.entries", cache_entries as f64, "count");
    put(
        "core.version_cache.lookup_us",
        mean(&probes.iter().map(|p| p.lookup_s).collect::<Vec<_>>()).unwrap_or(0.0) * 1e6,
        "us",
    );
    put(
        "core.stream_cache.record_ms",
        mean(&probes.iter().map(|p| p.record_s).collect::<Vec<_>>()).unwrap_or(0.0) * 1e3,
        "ms",
    );
    put("core.stream_cache.entries", streams as f64, "count");
    put("core.sched.jobs", sched.jobs as f64, "count");
    put("core.sched.stolen", sched.stolen as f64, "count");
    put("opt.compile_ms", compile_per_version * 1e3, "ms");
    put("opt.prepare_ms", prepare_per_version * 1e3, "ms");
    put(
        "opt.versions_per_job",
        cache.compiles as f64 / n.max(1) as f64,
        "count",
    );
    put("opt.validation_incidents", incidents as f64, "count");
    put(
        "opt.first_job_compile_share",
        cache.compiles as f64 * (compile_per_version + prepare_per_version) / first_wall.max(1e-12),
        "ratio",
    );
    put(
        "sim.invocations_per_s",
        geomean(
            &probes
                .iter()
                .map(|p| p.invocations as f64 / p.exec_s.max(1e-12))
                .collect::<Vec<_>>(),
        )
        .unwrap_or(0.0),
        "1/s",
    );
    put(
        "sim.mcycles_per_s",
        production_cycles as f64 / 1e6 / sum("production").max(1e-12),
        "Mcycles/s",
    );
    put(
        "sim.jit_deopts",
        daemon_counter("core.jit.deopts") as f64,
        "count",
    );
    put("trace.job_wall_p50_s", median(&wall).unwrap_or(0.0), "s");
    put("trace.job_wall_ms", per_job(total_wall) * 1e3, "ms");
    put(
        "trace.unattributed_ms",
        per_job(unattributed.iter().sum()) * 1e3,
        "ms",
    );
    for l in LAYERS {
        let name = format!("trace.self.{l}_ms");
        put(&name, per_job(sum(l)) * 1e3, "ms");
    }
    put(
        "trace.search_production_share",
        (sum("search") + sum("production")) / total_wall.max(1e-12),
        "ratio",
    );

    // Per-pair rows: jobs, mean wall and mean self time per layer.
    let mut groups: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (i, r) in list.iter().enumerate() {
        groups.entry(r.spec.key()).or_default().push(i);
    }
    let rows = groups
        .iter()
        .map(|(pair, idx)| {
            let avg = |v: &[f64]| idx.iter().map(|&i| v[i]).sum::<f64>() / idx.len() as f64 * 1e3;
            let mut cols = vec![
                ("pair".to_owned(), Json::Str(pair.clone())),
                ("n".to_owned(), Json::U(idx.len() as u64)),
                ("wall_ms".to_owned(), Json::F(avg(&wall))),
            ];
            for l in LAYERS {
                cols.push((format!("{l}_ms"), Json::F(avg(&layer[l]))));
            }
            cols.push(("unattributed_ms".to_owned(), Json::F(avg(&unattributed))));
            Json::Obj(cols)
        })
        .collect();
    let covered: f64 =
        LAYERS.iter().map(|l| sum(l)).sum::<f64>() + unattributed.iter().sum::<f64>();
    let notes = vec![
        format!(
            "served prefix: {} jobs, {} polls; replay: {} jobs on {} threads; {} pairs probed",
            prefix.len(),
            served.poll_s.len(),
            n,
            conns,
            probes.len()
        ),
        format!(
            "self times + unattributed = {:.6} s of {:.6} s traced job wall (tier {})",
            covered, total_wall, env.meta.tier
        ),
    ];
    Ok(Report {
        tally,
        metrics,
        rows,
        notes,
    })
}
