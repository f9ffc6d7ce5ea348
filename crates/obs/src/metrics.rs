//! Process-wide live metrics: atomic counters, gauges, and fixed
//! log-bucketed histograms behind a [`MetricsRegistry`].
//!
//! Where the [`tracer`](crate::tracer) answers *"what happened, in
//! order?"* (a stream you replay), metrics answer *"how much, right
//! now?"* (a snapshot you poll). The design constraints mirror the
//! tracer's:
//!
//! 1. **Lock-free hot path.** A metric handle is an `Arc` around plain
//!    atomics; [`Counter::inc`] is one relaxed `fetch_add`, zero
//!    allocation, no lock. The registry mutex is touched only at
//!    registration and snapshot time. Each recording module keeps its
//!    handles in one `OnceLock`'d struct, registered together, so
//!    steady-state cost is the switch load plus the increment.
//! 2. **Globally switchable, by the instruments.** Every recording
//!    method ([`Counter::inc`], [`Gauge::set`], [`Histogram::observe`],
//!    …) first does one relaxed load of a process-wide flag (default
//!    on) and returns at once when it is off, so call sites just count
//!    and never test the switch themselves. [`set_enabled`] flips it:
//!    the hotpath bench gate measures on-vs-off and fails the build if
//!    observation perturbs the observed system by more than its budget.
//! 3. **Deterministic snapshots.** [`Snapshot`] orders metrics by name
//!    and exposes an exact [`Snapshot::delta`], so same-seed runs
//!    produce identical counter snapshots. Wall-clock *histograms*
//!    (latency observations) are the documented exception — their
//!    bucket contents depend on real time and are excluded from
//!    determinism comparisons (see DESIGN.md §14).
//!
//! Exposition is dual: Prometheus-style text ([`Snapshot::render_prometheus`],
//! parseable back with [`parse_exposition`] — CI round-trips it) and a
//! JSON form ([`Snapshot::to_json`] / [`Snapshot::from_json`]) carried
//! in the serve daemon's `stats` response.

use peak_util::{Json, ToJson};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of histogram buckets. Bucket `k ≥ 1` holds values whose bit
/// length is `k` (i.e. `2^(k-1) ..= 2^k - 1`); bucket `0` holds zero;
/// the last bucket absorbs everything wider.
pub const HIST_BUCKETS: usize = 32;

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Whether metric recording is on. One relaxed atomic load; the
/// instruments check it themselves, so only code that flips the switch
/// needs to read it.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Flip metric recording at runtime (the overhead bench uses this to
/// interleave on/off measurement slices in one process).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Monotonic event counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n` (no-op while recording is off).
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Instantaneous signed level (queue depth, busy workers, cache
/// entries).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Set to an absolute value (no-op while recording is off).
    #[inline]
    pub fn set(&self, v: i64) {
        if enabled() {
            self.value.store(v, Ordering::Relaxed);
        }
    }

    /// Add `n` (e.g. +1 when a worker picks a job up; no-op while
    /// recording is off).
    #[inline]
    pub fn add(&self, n: i64) {
        if enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Subtract `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.add(n.wrapping_neg());
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Fixed log₂-bucketed histogram of `u64` observations (latencies in
/// ms, retry counts, queue depths at admission). Observation is two
/// relaxed `fetch_add`s plus one on the bucket — no allocation, no
/// lock, no floating point.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Bucket index for a value: 0 for 0, else its bit length, clamped to
/// the last bucket.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    ((64 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
}

/// Inclusive upper bound of bucket `k` (`None` = unbounded last bucket).
pub fn bucket_bound(k: usize) -> Option<u64> {
    if k + 1 >= HIST_BUCKETS {
        None
    } else if k >= 63 {
        Some(u64::MAX)
    } else {
        Some((1u64 << k) - 1)
    }
}

impl Histogram {
    /// Record one observation (no-op while recording is off).
    #[inline]
    pub fn observe(&self, v: u64) {
        if !enabled() {
            return;
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            count: self.count(),
            sum: self.sum(),
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
        }
    }
}

/// Point-in-time copy of one histogram (per-bucket counts are raw, not
/// cumulative; the Prometheus renderer accumulates).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Raw count per bucket (length [`HIST_BUCKETS`]).
    pub buckets: Vec<u64>,
}

impl HistSnapshot {
    /// Counts accumulated since `earlier`.
    pub fn delta(&self, earlier: &HistSnapshot) -> HistSnapshot {
        HistSnapshot {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            buckets: self
                .buckets
                .iter()
                .zip(earlier.buckets.iter().chain(std::iter::repeat(&0)))
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
        }
    }
}

/// One registered metric's current value.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Histogram state.
    Histogram(HistSnapshot),
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

struct Entry {
    help: String,
    metric: Metric,
}

/// Registry of named metrics. Registration is idempotent by name (a
/// second registration returns the existing handle); registering the
/// same name as a different metric kind panics — that is a programming
/// error, not a runtime condition.
#[derive(Default)]
pub struct MetricsRegistry {
    entries: Mutex<BTreeMap<String, Entry>>,
}

impl MetricsRegistry {
    /// Fresh empty registry (tests; production uses
    /// [`MetricsRegistry::global`]).
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// The process-wide registry every subsystem registers into.
    pub fn global() -> &'static MetricsRegistry {
        static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
        GLOBAL.get_or_init(MetricsRegistry::new)
    }

    fn register<T>(
        &self,
        name: &str,
        help: &str,
        make: impl FnOnce() -> Metric,
        cast: impl Fn(&Metric) -> Option<Arc<T>>,
    ) -> Arc<T> {
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        let entry = entries
            .entry(name.to_owned())
            .or_insert_with(|| Entry { help: help.to_owned(), metric: make() });
        cast(&entry.metric).unwrap_or_else(|| {
            panic!("metric {name:?} already registered as a {}", entry.metric.kind())
        })
    }

    /// Register (or fetch) a counter.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.register(
            name,
            help,
            || Metric::Counter(Arc::new(Counter::default())),
            |m| match m {
                Metric::Counter(c) => Some(c.clone()),
                _ => None,
            },
        )
    }

    /// Register (or fetch) a gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.register(
            name,
            help,
            || Metric::Gauge(Arc::new(Gauge::default())),
            |m| match m {
                Metric::Gauge(g) => Some(g.clone()),
                _ => None,
            },
        )
    }

    /// Register (or fetch) a histogram.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        self.register(
            name,
            help,
            || Metric::Histogram(Arc::new(Histogram::default())),
            |m| match m {
                Metric::Histogram(h) => Some(h.clone()),
                _ => None,
            },
        )
    }

    /// Point-in-time copy of every registered metric, name-ordered
    /// (BTreeMap iteration), so two snapshots of identical state render
    /// byte-identically.
    pub fn snapshot(&self) -> Snapshot {
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        Snapshot {
            entries: entries
                .iter()
                .map(|(name, e)| SnapEntry {
                    name: name.clone(),
                    help: e.help.clone(),
                    value: match &e.metric {
                        Metric::Counter(c) => SnapValue::Counter(c.get()),
                        Metric::Gauge(g) => SnapValue::Gauge(g.get()),
                        Metric::Histogram(h) => SnapValue::Histogram(h.snapshot()),
                    },
                })
                .collect(),
        }
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.entries.lock().map(|e| e.len()).unwrap_or(0);
        f.debug_struct("MetricsRegistry").field("metrics", &n).finish()
    }
}

/// One metric in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct SnapEntry {
    /// Dotted metric name (`serve.jobs_ok`).
    pub name: String,
    /// Help text.
    pub help: String,
    /// Value at snapshot time.
    pub value: SnapValue,
}

/// Deterministically ordered point-in-time copy of a registry.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Metrics, sorted by name.
    pub entries: Vec<SnapEntry>,
}

/// Dotted names → Prometheus identifier charset.
fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '_' || c == ':' { c } else { '_' })
        .collect()
}

impl Snapshot {
    /// Look a metric up by its dotted name.
    pub fn get(&self, name: &str) -> Option<&SnapValue> {
        self.entries.iter().find(|e| e.name == name).map(|e| &e.value)
    }

    /// Counter value by name (`None` for absent or non-counter).
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            SnapValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// Gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        match self.get(name)? {
            SnapValue::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// Counters and histograms accumulated since `earlier`; gauges keep
    /// their current (instantaneous) value. Metrics registered since
    /// `earlier` delta against zero.
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            entries: self
                .entries
                .iter()
                .map(|e| {
                    let value = match (&e.value, earlier.get(&e.name)) {
                        (SnapValue::Counter(now), Some(SnapValue::Counter(then))) => {
                            SnapValue::Counter(now.saturating_sub(*then))
                        }
                        (SnapValue::Histogram(now), Some(SnapValue::Histogram(then))) => {
                            SnapValue::Histogram(now.delta(then))
                        }
                        (v, _) => v.clone(),
                    };
                    SnapEntry { name: e.name.clone(), help: e.help.clone(), value }
                })
                .collect(),
        }
    }

    /// Drop histograms (the wall-clock-dependent metrics), keeping the
    /// deterministic counters and gauges — the form the determinism
    /// tests compare.
    pub fn without_histograms(&self) -> Snapshot {
        Snapshot {
            entries: self
                .entries
                .iter()
                .filter(|e| !matches!(e.value, SnapValue::Histogram(_)))
                .cloned()
                .collect(),
        }
    }

    /// Prometheus-style text exposition (`# HELP` / `# TYPE` comments,
    /// one sample line per value, cumulative `_bucket{le="…"}` series
    /// for histograms).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            let name = prom_name(&e.name);
            if !e.help.is_empty() {
                out.push_str(&format!("# HELP {name} {}\n", e.help));
            }
            match &e.value {
                SnapValue::Counter(v) => {
                    out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
                }
                SnapValue::Gauge(v) => {
                    out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
                }
                SnapValue::Histogram(h) => {
                    out.push_str(&format!("# TYPE {name} histogram\n"));
                    let mut cumulative = 0u64;
                    for (k, c) in h.buckets.iter().enumerate() {
                        cumulative += c;
                        // Only emit non-empty prefixes plus +Inf: full
                        // 32-bucket series per histogram would dominate
                        // the page with zeros.
                        if *c == 0 && k + 1 < HIST_BUCKETS {
                            continue;
                        }
                        match bucket_bound(k) {
                            Some(le) => out.push_str(&format!(
                                "{name}_bucket{{le=\"{le}\"}} {cumulative}\n"
                            )),
                            None => out.push_str(&format!(
                                "{name}_bucket{{le=\"+Inf\"}} {cumulative}\n"
                            )),
                        }
                    }
                    out.push_str(&format!("{name}_sum {}\n", h.sum));
                    out.push_str(&format!("{name}_count {}\n", h.count));
                }
            }
        }
        out
    }

    /// Rebuild a snapshot from its [`Snapshot::to_json`] form (the serve
    /// CLI uses this to re-render a daemon's stats response as
    /// Prometheus text).
    pub fn from_json(j: &Json) -> Option<Snapshot> {
        let mut entries = Vec::new();
        if let Some(Json::Obj(pairs)) = j.get("counters") {
            for (name, v) in pairs {
                entries.push(SnapEntry {
                    name: name.clone(),
                    help: String::new(),
                    value: SnapValue::Counter(v.as_u64()?),
                });
            }
        }
        if let Some(Json::Obj(pairs)) = j.get("gauges") {
            for (name, v) in pairs {
                entries.push(SnapEntry {
                    name: name.clone(),
                    help: String::new(),
                    value: SnapValue::Gauge(v.as_i64()?),
                });
            }
        }
        if let Some(Json::Obj(pairs)) = j.get("histograms") {
            for (name, v) in pairs {
                let mut buckets = vec![0u64; HIST_BUCKETS];
                for b in v.get("buckets")?.as_arr()? {
                    let k = b.get("bucket")?.as_u64()? as usize;
                    if k < HIST_BUCKETS {
                        buckets[k] = b.get("count")?.as_u64()?;
                    }
                }
                entries.push(SnapEntry {
                    name: name.clone(),
                    help: String::new(),
                    value: SnapValue::Histogram(HistSnapshot {
                        count: v.get("count")?.as_u64()?,
                        sum: v.get("sum")?.as_u64()?,
                        buckets,
                    }),
                });
            }
        }
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        Some(Snapshot { entries })
    }
}

impl ToJson for Snapshot {
    /// `{"counters":{…},"gauges":{…},"histograms":{…}}`, each section
    /// name-ordered; histogram buckets list only non-empty ones as
    /// `{"bucket":k,"le":…,"count":…}`.
    fn to_json(&self) -> Json {
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut histograms = Vec::new();
        for e in &self.entries {
            match &e.value {
                SnapValue::Counter(v) => counters.push((e.name.clone(), Json::U(*v))),
                SnapValue::Gauge(v) => gauges.push((e.name.clone(), Json::I(*v))),
                SnapValue::Histogram(h) => {
                    let buckets: Vec<Json> = h
                        .buckets
                        .iter()
                        .enumerate()
                        .filter(|(_, c)| **c > 0)
                        .map(|(k, c)| {
                            Json::obj(vec![
                                ("bucket", Json::U(k as u64)),
                                (
                                    "le",
                                    bucket_bound(k).map_or(Json::Null, Json::U),
                                ),
                                ("count", Json::U(*c)),
                            ])
                        })
                        .collect();
                    histograms.push((
                        e.name.clone(),
                        Json::obj(vec![
                            ("count", Json::U(h.count)),
                            ("sum", Json::U(h.sum)),
                            ("buckets", Json::Arr(buckets)),
                        ]),
                    ));
                }
            }
        }
        Json::obj(vec![
            ("counters", Json::Obj(counters)),
            ("gauges", Json::Obj(gauges)),
            ("histograms", Json::Obj(histograms)),
        ])
    }
}

/// One parsed exposition sample: `name{labels} value`.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpoSample {
    /// Sample name (histogram series keep their `_bucket`/`_sum`/
    /// `_count` suffix).
    pub name: String,
    /// Label pairs, in source order.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

/// Parse Prometheus-style exposition text back into samples. Strict
/// about shape (CI uses this to validate the daemon's exposition):
/// every non-comment line must be `name[{k="v",…}] value` with a
/// finite value.
pub fn parse_exposition(text: &str) -> Result<Vec<ExpoSample>, String> {
    let mut samples = Vec::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |msg: &str| format!("line {}: {msg}: {line:?}", n + 1);
        let (head, value_str) = line.rsplit_once(' ').ok_or_else(|| err("no value"))?;
        let value: f64 = value_str.parse().map_err(|_| err("bad value"))?;
        if !value.is_finite() {
            return Err(err("non-finite value"));
        }
        let (name, labels) = match head.split_once('{') {
            None => (head.to_owned(), Vec::new()),
            Some((name, rest)) => {
                let body = rest.strip_suffix('}').ok_or_else(|| err("unclosed labels"))?;
                let mut labels = Vec::new();
                for part in body.split(',').filter(|p| !p.is_empty()) {
                    let (k, v) = part.split_once('=').ok_or_else(|| err("bad label"))?;
                    let v = v
                        .strip_prefix('"')
                        .and_then(|v| v.strip_suffix('"'))
                        .ok_or_else(|| err("unquoted label value"))?;
                    labels.push((k.to_owned(), v.to_owned()));
                }
                (name.to_owned(), labels)
            }
        };
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(err("bad metric name"));
        }
        samples.push(ExpoSample { name, labels, value });
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Held by every test that records or flips the switch: recording
    /// reads the process-wide flag, so a test flipping it must not
    /// interleave with a sibling test that counts.
    fn switch_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn bucket_index_covers_the_u64_range() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
        // Bucket bounds nest: every value ≤ its bucket's bound.
        for v in [0u64, 1, 7, 100, 4096, 1 << 30] {
            let k = bucket_index(v);
            if let Some(le) = bucket_bound(k) {
                assert!(v <= le, "{v} escapes bucket {k} (le {le})");
            }
        }
    }

    #[test]
    fn registration_is_idempotent_and_kind_checked() {
        let _switch = switch_lock();
        let r = MetricsRegistry::new();
        let a = r.counter("x.count", "a counter");
        let b = r.counter("x.count", "ignored duplicate help");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3, "same name shares one atom");
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = r.gauge("x.count", "wrong kind");
        }));
        assert!(caught.is_err(), "kind mismatch must panic");
    }

    #[test]
    fn concurrent_increments_are_exact() {
        let _switch = switch_lock();
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 20_000;
        let r = MetricsRegistry::new();
        let c = r.counter("stress.count", "");
        let g = r.gauge("stress.level", "");
        let h = r.histogram("stress.hist", "");
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (c, g, h) = (c.clone(), g.clone(), h.clone());
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        c.inc();
                        g.add(1);
                        g.sub(1);
                        h.observe(t as u64 * 1000 + i % 17);
                    }
                });
            }
        });
        assert_eq!(c.get(), THREADS as u64 * PER_THREAD);
        assert_eq!(g.get(), 0);
        assert_eq!(h.count(), THREADS as u64 * PER_THREAD);
        let snap = r.snapshot();
        let SnapValue::Histogram(hs) = snap.get("stress.hist").unwrap() else {
            panic!("histogram expected")
        };
        assert_eq!(hs.buckets.iter().sum::<u64>(), hs.count, "buckets partition the count");
    }

    #[test]
    fn snapshot_is_name_ordered_and_delta_subtracts() {
        let _switch = switch_lock();
        let r = MetricsRegistry::new();
        let b = r.counter("b.count", "");
        let a = r.counter("a.count", "");
        let g = r.gauge("m.gauge", "");
        a.add(5);
        b.add(2);
        g.set(9);
        let first = r.snapshot();
        let names: Vec<&str> = first.entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["a.count", "b.count", "m.gauge"]);
        a.add(10);
        g.set(4);
        let d = r.snapshot().delta(&first);
        assert_eq!(d.counter("a.count"), Some(10));
        assert_eq!(d.counter("b.count"), Some(0));
        assert_eq!(d.gauge("m.gauge"), Some(4), "gauges stay instantaneous");
    }

    #[test]
    fn exposition_round_trips_through_the_parser() {
        let _switch = switch_lock();
        let r = MetricsRegistry::new();
        r.counter("serve.jobs_ok", "Jobs completed").add(42);
        r.gauge("serve.queue_depth", "Queued jobs").set(3);
        let h = r.histogram("serve.job_wall_ms", "Job latency");
        for v in [0, 1, 3, 500, 500, 70_000] {
            h.observe(v);
        }
        let snap = r.snapshot();
        let text = snap.render_prometheus();
        let samples = parse_exposition(&text).expect("exposition must parse");
        let by_name = |n: &str| {
            samples.iter().find(|s| s.name == n).unwrap_or_else(|| panic!("no sample {n}"))
        };
        assert_eq!(by_name("serve_jobs_ok").value, 42.0);
        assert_eq!(by_name("serve_queue_depth").value, 3.0);
        assert_eq!(by_name("serve_job_wall_ms_count").value, 6.0);
        assert_eq!(by_name("serve_job_wall_ms_sum").value, 71_004.0);
        // +Inf bucket is cumulative == count.
        let inf = samples
            .iter()
            .find(|s| {
                s.name == "serve_job_wall_ms_bucket"
                    && s.labels.iter().any(|(k, v)| k == "le" && v == "+Inf")
            })
            .expect("+Inf bucket");
        assert_eq!(inf.value, 6.0);
        // Bucket series is monotonically non-decreasing.
        let buckets: Vec<f64> = samples
            .iter()
            .filter(|s| s.name == "serve_job_wall_ms_bucket")
            .map(|s| s.value)
            .collect();
        assert!(buckets.windows(2).all(|w| w[0] <= w[1]), "{buckets:?}");
        // Garbage does not parse.
        assert!(parse_exposition("no value here").is_err());
        assert!(parse_exposition("bad{le=\"1\" 3").is_err());
    }

    #[test]
    fn json_round_trip_preserves_values() {
        let _switch = switch_lock();
        let r = MetricsRegistry::new();
        r.counter("c.one", "").add(7);
        r.gauge("g.one", "").set(-2);
        let h = r.histogram("h.one", "");
        h.observe(12);
        h.observe(900);
        let snap = r.snapshot();
        let back = Snapshot::from_json(&snap.to_json()).expect("json round-trip");
        assert_eq!(back.counter("c.one"), Some(7));
        assert_eq!(back.gauge("g.one"), Some(-2));
        let (SnapValue::Histogram(a), Some(SnapValue::Histogram(b))) =
            (snap.get("h.one").unwrap(), back.get("h.one"))
        else {
            panic!("histograms expected")
        };
        assert_eq!(a, b);
        // And re-rendering the rebuilt snapshot still parses.
        assert!(parse_exposition(&back.render_prometheus()).is_ok());
    }

    #[test]
    fn without_histograms_drops_only_histograms() {
        let _switch = switch_lock();
        let r = MetricsRegistry::new();
        r.counter("keep.count", "").inc();
        r.histogram("drop.hist", "").observe(1);
        let snap = r.snapshot().without_histograms();
        assert!(snap.get("keep.count").is_some());
        assert!(snap.get("drop.hist").is_none());
    }

    #[test]
    fn enable_switch_is_observable() {
        let _switch = switch_lock();
        let r = MetricsRegistry::new();
        let (c, g, h) = (r.counter("c", ""), r.gauge("g", ""), r.histogram("h", ""));
        set_enabled(false);
        assert!(!enabled());
        c.inc();
        g.set(5);
        h.observe(1);
        set_enabled(true);
        assert!(enabled());
        assert_eq!((c.get(), g.get(), h.count()), (0, 0, 0), "instruments obey the switch");
        c.inc();
        assert_eq!(c.get(), 1);
    }
}
