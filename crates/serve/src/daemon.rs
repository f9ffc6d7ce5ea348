//! The tuning daemon: a Unix-socket JSONL server multiplexing tuning
//! jobs onto the shared `peak-core` work-stealing pool.
//!
//! ## Crash-safety doctrine
//!
//! The daemon assumes every job wants to kill it and arranges not to
//! die:
//!
//! * jobs run under `catch_unwind` (in [`peak_core::run_tuning_job`]) —
//!   a panicking job answers `{"error":"panicked"}` after bounded
//!   retries, and the pool's poison-tolerant locks plus drop-guard token
//!   release keep the scheduler healthy for the next job;
//! * malformed request lines answer `{"error":"malformed"}` (with the
//!   line's `id` when salvageable) and never tear the connection;
//! * admission control bounds the queue — beyond
//!   [`ServeConfig::queue_cap`] pending jobs, new `tune` requests are
//!   load-shed with `{"error":"overloaded"}` and a `serve.shed` trace
//!   event instead of growing without bound;
//! * deadlines fire the job's [`CancelToken`] from the shared
//!   [`DeadlineWatchdog`]; cancellation is cooperative and answers
//!   `{"error":"deadline_exceeded"}`;
//! * graceful shutdown lets in-flight jobs finish and refuses queued and
//!   new ones with `{"error":"shutdown"}`.
//!
//! Completed results persist into the [`KnowledgeStore`]; requests with
//! `"warm_start":true` seed IE from the nearest stored neighbour
//! (same machine, closest feature vector). Warm start is opt-in because
//! a warm-started search is *not* bit-identical to the offline O3-start
//! search — the default path is.

use crate::features::FeatureVec;
use crate::flight::FlightRecorder;
use crate::protocol::{error_response, ok_response, parse_request, salvage_id, Request, TuneRequest};
use crate::store::{KnowledgeStore, StoreRecord};
use crate::supervisor::{run_supervised, DeadlineWatchdog, RetryPolicy};
use peak_core::sched::Pool;
use peak_core::{method_by_name, CancelToken, JobError, TuningJobSpec, VersionCache};
use peak_obs::metrics::{Counter, Gauge, MetricsRegistry};
use peak_obs::{event, span, Tracer};
use peak_util::{Json, ToJson};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Unix socket path (unlinked and re-bound at startup).
    pub socket: PathBuf,
    /// Knowledge-store directory.
    pub store_dir: PathBuf,
    /// Post-mortem directory; `None` = `<store_dir>/postmortem`.
    pub postmortem_dir: Option<PathBuf>,
    /// Worker threads executing tuning jobs.
    pub workers: usize,
    /// Max queued (not yet running) jobs before load-shedding.
    pub queue_cap: usize,
    /// Retry policy for panicked jobs.
    pub retry: RetryPolicy,
}

impl ServeConfig {
    /// Defaults: 2 workers, queue of 8, default retry policy.
    pub fn new(socket: impl Into<PathBuf>, store_dir: impl Into<PathBuf>) -> ServeConfig {
        ServeConfig {
            socket: socket.into(),
            store_dir: store_dir.into(),
            postmortem_dir: None,
            workers: 2,
            queue_cap: 8,
            retry: RetryPolicy::default(),
        }
    }

    /// Where post-mortems land.
    pub fn postmortem_dir(&self) -> PathBuf {
        self.postmortem_dir.clone().unwrap_or_else(|| self.store_dir.join("postmortem"))
    }
}

/// Connection writer: responses from concurrent workers interleave
/// whole-line-atomically.
type Out = Arc<Mutex<UnixStream>>;

struct QueuedJob {
    id: String,
    job: TuneRequest,
    /// Verbatim request line, embedded in post-mortems for replay.
    line: String,
    out: Out,
}

/// Per-daemon counters, reported by the `stats` response. These stay
/// per-instance (a test process may run several daemons); the global
/// [`MetricsRegistry`] mirror below aggregates process-wide.
#[derive(Default)]
struct Stats {
    jobs_ok: AtomicU64,
    jobs_failed: AtomicU64,
    shed: AtomicU64,
    postmortems: AtomicU64,
}

/// Count one daemon event in its per-daemon [`Stats`] atomic and in the
/// process-wide registry twin.
fn bump(local: &AtomicU64, global: &Counter) {
    local.fetch_add(1, Ordering::Relaxed);
    global.inc();
}

/// Process-wide metric handles the daemon feeds (registered once; every
/// increment is one relaxed `fetch_add`, skipped while recording is off).
struct ServeMetrics {
    connections: Arc<Counter>,
    requests: Arc<Counter>,
    malformed: Arc<Counter>,
    jobs_ok: Arc<Counter>,
    jobs_failed: Arc<Counter>,
    shed: Arc<Counter>,
    postmortems: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    workers_busy: Arc<Gauge>,
}

fn serve_metrics() -> &'static ServeMetrics {
    static M: OnceLock<ServeMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = MetricsRegistry::global();
        ServeMetrics {
            connections: r.counter("serve.connections", "Client connections accepted"),
            requests: r.counter("serve.requests", "Request lines parsed successfully"),
            malformed: r.counter("serve.malformed", "Request lines that failed to parse"),
            jobs_ok: r.counter("serve.jobs_ok", "Tuning jobs completed successfully"),
            jobs_failed: r.counter("serve.jobs_failed", "Tuning jobs that failed"),
            shed: r.counter("serve.shed", "Tune requests load-shed at admission"),
            postmortems: r.counter("serve.postmortems", "Post-mortem dumps written"),
            queue_depth: r.gauge("serve.queue_depth", "Jobs queued, not yet running"),
            workers_busy: r.gauge("serve.workers_busy", "Workers currently running a job"),
        }
    })
}

struct Inner {
    config: ServeConfig,
    tracer: Tracer,
    pool: Pool,
    watchdog: DeadlineWatchdog,
    queue: Mutex<VecDeque<QueuedJob>>,
    queue_cv: Condvar,
    store: Mutex<KnowledgeStore>,
    shutdown: AtomicBool,
    stats: Stats,
}

fn lock_ok<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Handle to a running daemon.
pub struct DaemonHandle {
    inner: Arc<Inner>,
    accept: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl DaemonHandle {
    /// Request graceful shutdown (equivalent to a `shutdown` request).
    pub fn stop(&self) {
        initiate_shutdown(&self.inner);
    }

    /// Block until the daemon has fully stopped, then remove the socket.
    pub fn wait(mut self) {
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
        let _ = std::fs::remove_file(&self.inner.config.socket);
    }

    /// The socket path the daemon is listening on.
    pub fn socket(&self) -> &std::path::Path {
        &self.inner.config.socket
    }
}

/// Cancellation unwinds are routine control flow (every blown deadline
/// fires one); keep the default panic hook from spamming stderr with
/// their backtraces. Real panics still print. Installed once per
/// process, wrapping whatever hook was there.
fn silence_cancelled_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<peak_core::Cancelled>().is_none() {
                previous(info);
            }
        }));
    });
}

/// Start the daemon: bind the socket, open (and, where needed,
/// quarantine) the knowledge store, spawn the accept loop and worker
/// threads. Returns once the daemon is accepting connections.
pub fn start(config: ServeConfig, tracer: Tracer) -> std::io::Result<DaemonHandle> {
    silence_cancelled_panics();
    let _ = std::fs::remove_file(&config.socket);
    if let Some(parent) = config.socket.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let listener = UnixListener::bind(&config.socket)?;
    // Open the store under a flight recorder: if any segment gets
    // quarantined, the quarantine/salvage events become a startup
    // post-mortem artifact.
    let open_recorder = FlightRecorder::new("store-open", "");
    let store = KnowledgeStore::open(&config.store_dir, open_recorder.tracer(&tracer))?;
    let stats = Stats::default();
    if store.quarantined() > 0 {
        match open_recorder.dump(&config.postmortem_dir(), "store_quarantine") {
            Ok(path) => {
                event!(tracer, "serve.postmortem", reason = "store_quarantine", path = path.display().to_string());
            }
            Err(e) => {
                event!(tracer, "serve.postmortem_error", reason = "store_quarantine", error = e.to_string());
            }
        }
        bump(&stats.postmortems, &serve_metrics().postmortems);
    }
    event!(
        tracer,
        "serve.start",
        socket = config.socket.display().to_string(),
        workers = config.workers as u64,
        queue_cap = config.queue_cap as u64,
        store_records = store.len() as u64,
        store_quarantined = store.quarantined() as u64,
    );
    let inner = Arc::new(Inner {
        tracer,
        pool: Pool::from_env(),
        watchdog: DeadlineWatchdog::new(),
        queue: Mutex::new(VecDeque::new()),
        queue_cv: Condvar::new(),
        shutdown: AtomicBool::new(false),
        stats,
        config,
        store: Mutex::new(store),
    });
    let workers = (0..inner.config.workers.max(1))
        .map(|k| {
            let inner = inner.clone();
            std::thread::Builder::new()
                .name(format!("peak-serve-worker-{k}"))
                .spawn(move || worker_loop(&inner))
                .expect("spawn worker thread")
        })
        .collect();
    let accept_inner = inner.clone();
    let accept = std::thread::Builder::new()
        .name("peak-serve-accept".into())
        .spawn(move || accept_loop(&accept_inner, &listener))
        .expect("spawn accept thread");
    Ok(DaemonHandle { inner, accept: Some(accept), workers })
}

fn initiate_shutdown(inner: &Arc<Inner>) {
    if inner.shutdown.swap(true, Ordering::SeqCst) {
        return; // already shutting down
    }
    event!(inner.tracer, "serve.shutdown");
    inner.queue_cv.notify_all();
    // Unblock the accept loop: it re-checks the flag per connection.
    let _ = UnixStream::connect(&inner.config.socket);
}

fn accept_loop(inner: &Arc<Inner>, listener: &UnixListener) {
    loop {
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let conn_inner = inner.clone();
                // Connection readers are detached: they exit on client
                // EOF and never block shutdown.
                let _ = std::thread::Builder::new()
                    .name("peak-serve-conn".into())
                    .spawn(move || connection_loop(&conn_inner, stream));
            }
            Err(_) => {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
        }
    }
}

fn respond(out: &Out, line: &str) {
    let mut stream = lock_ok(out);
    let _ = writeln!(stream, "{line}");
    let _ = stream.flush();
}

fn connection_loop(inner: &Arc<Inner>, stream: UnixStream) {
    serve_metrics().connections.inc();
    let Ok(read_half) = stream.try_clone() else { return };
    let out: Out = Arc::new(Mutex::new(stream));
    let reader = BufReader::new(read_half);
    for line in reader.lines() {
        let Ok(line) = line else { return };
        if line.trim().is_empty() {
            continue;
        }
        handle_line(inner, &line, &out);
    }
}

/// The `stats` response: per-daemon job counters (stable since PR 6),
/// store health, and the full process-wide metrics snapshot. Answered
/// inline on the connection thread — never queued behind tuning work.
fn stats_response(inner: &Arc<Inner>, id: &str) -> String {
    let (records, quarantined, store_health) = {
        let store = lock_ok(&inner.store);
        (store.len() as u64, store.quarantined() as u64, store.health())
    };
    // Pull the lazily-synced sources into the registry before
    // snapshotting so the exposition is current, and make sure the core
    // counters exist even before the first job.
    VersionCache::global().publish_metrics();
    peak_core::register_metrics();
    let m = serve_metrics();
    m.queue_depth.set(lock_ok(&inner.queue).len() as i64);
    let snapshot = MetricsRegistry::global().snapshot();
    ok_response(
        id,
        vec![
            ("jobs_ok", inner.stats.jobs_ok.load(Ordering::Relaxed).to_json()),
            ("jobs_failed", inner.stats.jobs_failed.load(Ordering::Relaxed).to_json()),
            ("shed", inner.stats.shed.load(Ordering::Relaxed).to_json()),
            ("queue_depth", (lock_ok(&inner.queue).len() as u64).to_json()),
            ("store_records", records.to_json()),
            ("store_quarantined", quarantined.to_json()),
            ("workers", (inner.config.workers as u64).to_json()),
            ("postmortems", inner.stats.postmortems.load(Ordering::Relaxed).to_json()),
            ("store_health", store_health.to_json()),
            ("metrics", snapshot.to_json()),
        ],
    )
}

/// The `health` response: cheap readiness summary. No registry
/// snapshot, no store iteration — safe to poll at high frequency while
/// the daemon is drowning in work.
fn health_response(inner: &Arc<Inner>, id: &str) -> String {
    let queue_depth = lock_ok(&inner.queue).len() as u64;
    let shutting_down = inner.shutdown.load(Ordering::SeqCst);
    let accepting = !shutting_down && queue_depth < inner.config.queue_cap as u64;
    ok_response(
        id,
        vec![
            ("healthy", Json::Bool(true)),
            ("accepting", Json::Bool(accepting)),
            ("shutting_down", Json::Bool(shutting_down)),
            ("queue_depth", queue_depth.to_json()),
            ("queue_cap", (inner.config.queue_cap as u64).to_json()),
            ("workers", (inner.config.workers as u64).to_json()),
        ],
    )
}

fn handle_line(inner: &Arc<Inner>, line: &str, out: &Out) {
    let request = match parse_request(line) {
        Ok(r) => r,
        Err(reason) => {
            serve_metrics().malformed.inc();
            let id = salvage_id(line);
            respond(out, &error_response(id.as_deref(), "malformed", &reason, 0));
            return;
        }
    };
    serve_metrics().requests.inc();
    match request {
        Request::Ping { id } => {
            respond(out, &ok_response(&id, vec![("pong", Json::Bool(true))]));
        }
        Request::Stats { id } => {
            respond(out, &stats_response(inner, &id));
        }
        Request::Health { id } => {
            respond(out, &health_response(inner, &id));
        }
        Request::Shutdown { id } => {
            respond(out, &ok_response(&id, vec![("stopping", Json::Bool(true))]));
            initiate_shutdown(inner);
        }
        Request::Tune { id, job } => {
            if inner.shutdown.load(Ordering::SeqCst) {
                respond(out, &error_response(Some(&id), "shutdown", "daemon is shutting down", 0));
                return;
            }
            let mut queue = lock_ok(&inner.queue);
            if queue.len() >= inner.config.queue_cap {
                drop(queue);
                bump(&inner.stats.shed, &serve_metrics().shed);
                event!(inner.tracer, "serve.shed", id = id.as_str(), benchmark = job.benchmark.as_str());
                respond(
                    out,
                    &error_response(
                        Some(&id),
                        "overloaded",
                        &format!("queue full ({} pending)", inner.config.queue_cap),
                        0,
                    ),
                );
                return;
            }
            queue.push_back(QueuedJob { id, job, line: line.to_owned(), out: out.clone() });
            serve_metrics().queue_depth.set(queue.len() as i64);
            drop(queue);
            inner.queue_cv.notify_one();
        }
    }
}

fn worker_loop(inner: &Arc<Inner>) {
    loop {
        let queued = {
            let mut queue = lock_ok(&inner.queue);
            loop {
                if let Some(job) = queue.pop_front() {
                    serve_metrics().queue_depth.set(queue.len() as i64);
                    break job;
                }
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                queue = inner.queue_cv.wait(queue).unwrap_or_else(|e| e.into_inner());
            }
        };
        if inner.shutdown.load(Ordering::SeqCst) {
            // Queued but never started: refuse, don't run.
            respond(
                &queued.out,
                &error_response(Some(&queued.id), "shutdown", "daemon is shutting down", 0),
            );
            continue;
        }
        serve_metrics().workers_busy.add(1);
        process_tune(inner, &queued);
        serve_metrics().workers_busy.sub(1);
    }
}

fn process_tune(inner: &Arc<Inner>, queued: &QueuedJob) {
    let id = &queued.id;
    let req = &queued.job;
    // Flight-record the job: its tracer tees into a bounded ring (plus
    // the daemon's own sink when tracing is on). On success the ring is
    // dropped; on panic or deadline it becomes a post-mortem.
    let recorder = FlightRecorder::new(id, &queued.line);
    let t = &recorder.tracer(&inner.tracer);
    let _span = span!(t, "serve.job", id = id.as_str(), benchmark = req.benchmark.as_str());

    // Resolve the method name here so bad names answer before any work.
    let method = match &req.method {
        None => None,
        Some(name) => match method_by_name(name) {
            Some(m) => Some(m),
            None => {
                bump(&inner.stats.jobs_failed, &serve_metrics().jobs_failed);
                let e = JobError::UnknownMethod(name.clone());
                respond(&queued.out, &error_response(Some(id), e.kind(), &e.to_string(), 0));
                return;
            }
        },
    };

    // Same early resolution for the strategy name: reject typos before
    // queueing any tuning work (the job layer re-validates).
    if let Some(name) = &req.strategy {
        if peak_core::strategy_kind_by_name(name).is_none() {
            bump(&inner.stats.jobs_failed, &serve_metrics().jobs_failed);
            let e = JobError::UnknownStrategy(name.clone());
            respond(&queued.out, &error_response(Some(id), e.kind(), &e.to_string(), 0));
            return;
        }
    }

    // Feature vector of the requested section: the knowledge-store key,
    // both for warm-start lookup and for persisting the result.
    let features = peak_workloads::workload_by_name(&req.benchmark)
        .map(|w| FeatureVec::of_workload(w.as_ref()));
    let canonical_machine =
        peak_core::machine_spec_by_name(&req.machine).map(|s| s.kind.name().to_owned());

    let mut spec = TuningJobSpec::new(&req.benchmark, &req.machine);
    spec.method = method;
    spec.dataset = req.dataset;
    spec.strategy = req.strategy.clone();
    let mut warm_started = false;
    if req.warm_start {
        if let (Some(f), Some(machine)) = (&features, &canonical_machine) {
            if let Some(hit) = lock_ok(&inner.store).nearest(f, machine) {
                spec.start_bits = Some(hit.best_bits);
                warm_started = true;
                event!(
                    t,
                    "serve.warmstart",
                    id = id.as_str(),
                    benchmark = req.benchmark.as_str(),
                    neighbour = hit.benchmark.as_str(),
                    distance = f.distance(&hit.features),
                    start_bits = hit.best_bits,
                );
            }
        }
        // No neighbour / unknown names: silently fall back to the full
        // O3-start sweep (a cold store must not fail jobs).
    }

    let outcome = run_supervised(
        &spec,
        req.inject,
        req.deadline_ms,
        &inner.config.retry,
        &inner.watchdog,
        CancelToken::new(),
        t,
        &inner.pool,
    );
    match outcome.result {
        Ok(report) => {
            bump(&inner.stats.jobs_ok, &serve_metrics().jobs_ok);
            if let Some(f) = features {
                let rec = StoreRecord {
                    benchmark: report.benchmark.clone(),
                    machine: report.machine.clone(),
                    method: report.method.name().to_owned(),
                    features: f,
                    best_bits: report.search.best.bits(),
                    improvement_pct: report.improvement_pct,
                };
                if let Err(e) = lock_ok(&inner.store).record(rec) {
                    event!(t, "store.write_error", id = id.as_str(), error = e.to_string());
                }
            }
            let mut extra = vec![("result", report.to_json())];
            if outcome.retries > 0 {
                extra.push(("retries", outcome.retries.to_json()));
            }
            if warm_started {
                extra.push(("warm_started", Json::Bool(true)));
            }
            respond(&queued.out, &ok_response(id, extra));
        }
        Err(e) => {
            bump(&inner.stats.jobs_failed, &serve_metrics().jobs_failed);
            let (kind, message) = if e == JobError::Cancelled && outcome.deadline_hit {
                (
                    "deadline_exceeded",
                    format!("deadline of {}ms exceeded", req.deadline_ms.unwrap_or(0)),
                )
            } else {
                (e.kind(), e.to_string())
            };
            // Panics and blown deadlines leave a post-mortem; other
            // failures (unknown names, external cancels) are
            // deterministic spec errors with nothing to debug.
            let postmortem_reason = match &e {
                JobError::Panicked(_) => Some("panic"),
                JobError::Cancelled if outcome.deadline_hit => Some("deadline"),
                _ => None,
            };
            if let Some(reason) = postmortem_reason {
                match recorder.dump(&inner.config.postmortem_dir(), reason) {
                    Ok(path) => {
                        bump(&inner.stats.postmortems, &serve_metrics().postmortems);
                        event!(
                            inner.tracer,
                            "serve.postmortem",
                            id = id.as_str(),
                            reason = reason,
                            path = path.display().to_string(),
                        );
                    }
                    Err(err) => {
                        event!(
                            inner.tracer,
                            "serve.postmortem_error",
                            id = id.as_str(),
                            reason = reason,
                            error = err.to_string(),
                        );
                    }
                }
            }
            respond(&queued.out, &error_response(Some(id), kind, &message, outcome.retries));
        }
    }
}
