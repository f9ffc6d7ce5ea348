//! Pure pieces of the tuning-service benchmark: the seeded request lists
//! of the three workloads, the output check and error accounting, and
//! the summary statistics. Everything here is deterministic and free of
//! I/O, so the benchmark's own tests cover it on canned responses.

use peak_util::Json;
use std::collections::BTreeMap;

/// Machine names as the daemon reports them.
const MACHINES: [&str; 2] = ["SPARC-II", "Pentium-IV"];
/// `sim_bound` programs: simulated execution is most of every job.
const SIM_BOUND: [&str; 6] = ["SWIM", "APPLU", "APSI", "MGRID", "ART", "MCF"];
/// `short_jobs` programs: 50–1500 ms jobs, fixed per-job costs show.
const SHORT_JOBS: [&str; 6] = ["BZIP2", "GZIP", "CRAFTY", "TWOLF", "VORTEX", "MESA"];
/// Search strategies `mixed_service` requests by name.
const STRATEGIES: [&str; 4] = ["ga", "clustered", "random", "ie"];
/// Times each `short_jobs` pair appears in one request list (12 × 9 = 108).
const SHORT_REPEATS: usize = 9;
/// Tune requests in one `mixed_service` request list.
const MIXED_REQUESTS: usize = 100;

/// `mixed_service` pairs in popularity order (rank 1 first). The ranking
/// is fixed, interleaving integer and floating-point programs and both
/// machines, so the seed varies the order of the stream and never its
/// mix.
const MIXED_RANKED: [(&str, &str); 18] = [
    ("BZIP2", "SPARC-II"),
    ("GZIP", "Pentium-IV"),
    ("CRAFTY", "SPARC-II"),
    ("MESA", "Pentium-IV"),
    ("SWIM", "SPARC-II"),
    ("TWOLF", "SPARC-II"),
    ("VORTEX", "Pentium-IV"),
    ("APPLU", "Pentium-IV"),
    ("BZIP2", "Pentium-IV"),
    ("GZIP", "SPARC-II"),
    ("MGRID", "SPARC-II"),
    ("CRAFTY", "Pentium-IV"),
    ("MESA", "SPARC-II"),
    ("TWOLF", "Pentium-IV"),
    ("SWIM", "Pentium-IV"),
    ("VORTEX", "SPARC-II"),
    ("APPLU", "SPARC-II"),
    ("MGRID", "Pentium-IV"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every sim-heavy pair once per daemon, default jobs.
    SimBound,
    /// Short integer pairs, repeated, default cold-start jobs.
    ShortJobs,
    /// Zipf-popular mix of default, warm-start and strategy jobs with
    /// monitoring polls, against a pre-seeded store.
    MixedService,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::SimBound,
        Workload::ShortJobs,
        Workload::MixedService,
    ];

    /// Stable name (the `--workload` value).
    pub fn name(self) -> &'static str {
        match self {
            Workload::SimBound => "sim_bound",
            Workload::ShortJobs => "short_jobs",
            Workload::MixedService => "mixed_service",
        }
    }

    /// Parse a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the daemon's knowledge store is pre-seeded with one record
    /// per pair before it starts.
    pub fn preseeded(self) -> bool {
        self == Workload::MixedService
    }

    /// Seconds budgeted for one round (a fresh daemon serving a whole
    /// request list) on a 2-core host.
    pub fn round_seconds(self) -> u64 {
        match self {
            Workload::SimBound => 20,
            Workload::ShortJobs | Workload::MixedService => 30,
        }
    }

    /// Rounds a run of `seconds` measures: fixed before measuring, so
    /// every run with the same `--seconds` does the same work whatever
    /// the speed of the host or of the code under test.
    pub fn rounds(self, seconds: u64) -> u64 {
        (seconds / self.round_seconds()).max(1)
    }

    /// The distinct (benchmark, machine) pairs this workload draws from.
    pub fn pairs(self) -> Vec<(&'static str, &'static str)> {
        match self {
            Workload::SimBound => cross(&SIM_BOUND),
            Workload::ShortJobs => cross(&SHORT_JOBS),
            Workload::MixedService => MIXED_RANKED.to_vec(),
        }
    }
}

fn cross(benches: &[&'static str]) -> Vec<(&'static str, &'static str)> {
    benches
        .iter()
        .flat_map(|&b| MACHINES.iter().map(move |&m| (b, m)))
        .collect()
}

/// How a tune request asks for its search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Variant {
    /// Consultant's method, serial IE from O3 (bit-identical to offline).
    Default,
    /// `warm_start:true`: IE seeded from the store's nearest neighbour.
    Warm,
    /// Cold start with an explicit search strategy.
    Strategy(&'static str),
}

impl Variant {
    /// Stable label (`default`, `warm`, or the strategy name).
    pub fn label(self) -> &'static str {
        match self {
            Variant::Default => "default",
            Variant::Warm => "warm",
            Variant::Strategy(s) => s,
        }
    }

    /// Whether the result is a deterministic function of the spec (no
    /// warm start), and so has an entry in the expected-results file.
    pub fn is_cold(self) -> bool {
        self != Variant::Warm
    }
}

/// One tuning job the load generator sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct TuneSpec {
    /// Benchmark name.
    pub benchmark: &'static str,
    /// Machine name.
    pub machine: &'static str,
    /// Search variant.
    pub variant: Variant,
}

impl TuneSpec {
    /// Per-pair row key: `BENCH/MACHINE/variant`.
    pub fn key(&self) -> String {
        format!(
            "{}/{}/{}",
            self.benchmark,
            self.machine,
            self.variant.label()
        )
    }

    /// The JSONL `tune` request line.
    pub fn request_line(&self, id: &str) -> String {
        let mut pairs = vec![
            ("id", Json::Str(id.to_owned())),
            ("kind", Json::Str("tune".into())),
            ("benchmark", Json::Str(self.benchmark.into())),
            ("machine", Json::Str(self.machine.into())),
        ];
        match self.variant {
            Variant::Default => {}
            Variant::Warm => pairs.push(("warm_start", Json::Bool(true))),
            Variant::Strategy(s) => pairs.push(("strategy", Json::Str(s.into()))),
        }
        Json::obj(pairs).compact()
    }
}

/// A monitoring request sent after a job on the same connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Poll {
    /// Full metrics snapshot.
    Stats,
    /// Cheap readiness summary.
    Health,
}

impl Poll {
    /// The JSONL request line.
    pub fn request_line(self, id: &str) -> String {
        let kind = match self {
            Poll::Stats => "stats",
            Poll::Health => "health",
        };
        Json::obj(vec![
            ("id", Json::Str(id.to_owned())),
            ("kind", Json::Str(kind.into())),
        ])
        .compact()
    }
}

/// One entry of a request list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request id (`j<index>`), unique within the list.
    pub id: String,
    /// The job.
    pub spec: TuneSpec,
    /// Monitoring poll sent after the job's response, if any.
    pub poll: Option<Poll>,
}

/// SplitMix64: the seeded generator behind every draw and shuffle.
#[derive(Debug, Clone)]
struct Rng(u64);

impl Rng {
    /// Generator for `seed`.
    fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x7475_6e65_6265_6e63)
    }

    /// Next 64 random bits.
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw from `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf(s = 1) quotas over `ranks` items summing to exactly `total`
/// (largest-remainder rounding, ties to the more popular rank).
fn zipf_quotas(ranks: usize, total: usize) -> Vec<usize> {
    let h: f64 = (1..=ranks).map(|k| 1.0 / k as f64).sum();
    let exact: Vec<f64> = (1..=ranks).map(|k| total as f64 / (k as f64 * h)).collect();
    let mut quotas: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut order: Vec<usize> = (0..ranks).collect();
    order.sort_by(|&a, &b| {
        let (ra, rb) = (exact[a] - exact[a].floor(), exact[b] - exact[b].floor());
        rb.total_cmp(&ra).then(a.cmp(&b))
    });
    let short = total - quotas.iter().sum::<usize>();
    for &k in order.iter().take(short) {
        quotas[k] += 1;
    }
    quotas
}

/// The `mixed_service` variant of the `j`-th occurrence of the pair at
/// popularity rank `rank` (0-based): a per-pair rotation through
/// default, warm, default, strategy, with the strategy itself rotating
/// through [`STRATEGIES`]. Over the stream this gives ~50% default cold
/// start, ~25% warm start and ~25% explicit strategies.
fn mixed_variant(rank: usize, j: usize) -> Variant {
    let slot = (rank + j) % 4;
    match slot {
        0 | 2 => Variant::Default,
        1 => Variant::Warm,
        _ => Variant::Strategy(STRATEGIES[(rank + j / 4) % STRATEGIES.len()]),
    }
}

/// The request list of `workload` for `seed`: the workload's fixed
/// multiset of jobs, shuffled by the seed (and, on `mixed_service`, the
/// seed also draws which poll follows each job). The same seed always
/// yields the same list.
pub fn request_list(workload: Workload, seed: u64) -> Vec<Request> {
    let mut rng = Rng::new(seed);
    let mut specs: Vec<TuneSpec> = match workload {
        Workload::SimBound => workload
            .pairs()
            .into_iter()
            .map(|(benchmark, machine)| TuneSpec {
                benchmark,
                machine,
                variant: Variant::Default,
            })
            .collect(),
        Workload::ShortJobs => (0..SHORT_REPEATS)
            .flat_map(|_| workload.pairs())
            .map(|(benchmark, machine)| TuneSpec {
                benchmark,
                machine,
                variant: Variant::Default,
            })
            .collect(),
        Workload::MixedService => {
            let quotas = zipf_quotas(MIXED_RANKED.len(), MIXED_REQUESTS);
            MIXED_RANKED
                .iter()
                .zip(quotas)
                .enumerate()
                .flat_map(|(rank, (&(benchmark, machine), quota))| {
                    (0..quota).map(move |j| TuneSpec {
                        benchmark,
                        machine,
                        variant: mixed_variant(rank, j),
                    })
                })
                .collect()
        }
    };
    rng.shuffle(&mut specs);
    specs
        .into_iter()
        .enumerate()
        .map(|(i, spec)| {
            let poll = match workload {
                Workload::MixedService if rng.below(2) == 0 => Some(Poll::Stats),
                Workload::MixedService => Some(Poll::Health),
                _ => None,
            };
            Request {
                id: format!("j{i}"),
                spec,
                poll,
            }
        })
        .collect()
}

/// The request list of round `round` of a run: round 0 is
/// [`request_list`] for `seed`; later rounds (each on a fresh daemon)
/// draw new shuffles derived from the same seed.
pub fn round_list(workload: Workload, seed: u64, round: u64) -> Vec<Request> {
    request_list(workload, seed ^ round.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Every cold-start spec a workload's request lists can contain (the
/// entries the expected-results file must hold).
pub fn cold_specs(workload: Workload) -> Vec<TuneSpec> {
    let mut specs: Vec<TuneSpec> = request_list(workload, 0)
        .into_iter()
        .map(|r| r.spec)
        .filter(|s| s.variant.is_cold())
        .collect();
    specs.sort();
    specs.dedup();
    specs
}

/// One entry of the expected-results file: the offline `run_tuning_job`
/// report for a cold-start spec, kept as the exact compact JSON bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpectedEntry {
    /// Best configuration's flag bits (pre-seeds the store).
    pub best_bits: u64,
    /// Rating method name the job used (`CBR`, `MBR`, `RBR`, …).
    pub method: String,
    /// The report's compact JSON.
    pub report: String,
}

impl ExpectedEntry {
    /// One JSONL line of the expected-results file.
    pub fn to_line(&self, key: &str) -> String {
        Json::obj(vec![
            ("key", Json::Str(key.to_owned())),
            ("best_bits", Json::U(self.best_bits)),
            ("method", Json::Str(self.method.clone())),
            ("report", Json::Str(self.report.clone())),
        ])
        .compact()
    }
}

/// Parse the expected-results file (JSONL, one [`ExpectedEntry`] per
/// line).
pub fn parse_expected(text: &str) -> Result<BTreeMap<String, ExpectedEntry>, String> {
    let mut map = BTreeMap::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let j = peak_util::from_str(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        let field = |k: &str| {
            j.get(k)
                .ok_or_else(|| format!("line {}: missing {k}", n + 1))
        };
        let key = field("key")?
            .as_str()
            .ok_or("key must be a string")?
            .to_owned();
        let entry = ExpectedEntry {
            best_bits: field("best_bits")?
                .as_u64()
                .ok_or("best_bits must be an integer")?,
            method: field("method")?
                .as_str()
                .ok_or("method must be a string")?
                .to_owned(),
            report: field("report")?
                .as_str()
                .ok_or("report must be a string")?
                .to_owned(),
        };
        map.insert(key, entry);
    }
    Ok(map)
}

/// The exact response line the daemon must send for a cold-start job
/// whose offline report is `report`.
fn expected_response(id: &str, report: &str) -> String {
    format!(
        "{{\"id\":{},\"status\":\"ok\",\"result\":{report}}}",
        Json::Str(id.to_owned()).compact()
    )
}

/// The numbers the end-to-end metrics need from one `ok` report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReportFacts {
    /// -O3 whole-program cycles on ref.
    pub baseline_cycles: u64,
    /// Tuned whole-program cycles on ref.
    pub tuned_cycles: u64,
    /// Tuning cycles the search consumed.
    pub tuning_cycles: u64,
}

impl ReportFacts {
    /// Read the facts out of a report object.
    pub fn of(report: &Json) -> Option<ReportFacts> {
        Some(ReportFacts {
            baseline_cycles: report.get("baseline_cycles")?.as_u64()?,
            tuned_cycles: report.get("tuned_cycles")?.as_u64()?,
            tuning_cycles: report.get("search")?.get("tuning_cycles")?.as_u64()?,
        })
    }

    /// Speed-up of the tuned version over -O3 on ref.
    pub fn speedup(&self) -> f64 {
        self.baseline_cycles as f64 / self.tuned_cycles.max(1) as f64
    }
}

/// Verdict on one `tune` response.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Correct result.
    Ok(ReportFacts),
    /// Structured error response (other than load shedding).
    Error(String),
    /// `overloaded`: shed at admission.
    Shed,
    /// An `ok` response that fails the output check.
    Mismatch(String),
}

/// Check one `tune` response line against the spec and the expected
/// results. Cold-start responses must equal the expected line byte for
/// byte; warm-started ones must be well-formed `ok` reports for the
/// right pair carrying `warm_started:true`.
pub fn check_tune_response(
    line: &str,
    id: &str,
    spec: &TuneSpec,
    expected: &BTreeMap<String, ExpectedEntry>,
) -> Verdict {
    let Ok(j) = peak_util::from_str(line) else {
        return Verdict::Mismatch(format!("unparseable response {line:?}"));
    };
    if j.get("id").and_then(Json::as_str) != Some(id) {
        return Verdict::Mismatch(format!("response for another request: {line}"));
    }
    match j.get("status").and_then(Json::as_str) {
        Some("ok") => {}
        Some("error") => {
            return match j.get("error").and_then(Json::as_str) {
                Some("overloaded") => Verdict::Shed,
                Some(kind) => Verdict::Error(kind.to_owned()),
                None => Verdict::Error("error response without a kind".into()),
            };
        }
        _ => return Verdict::Mismatch(format!("response without a status: {line}")),
    }
    let Some(facts) = j.get("result").and_then(ReportFacts::of) else {
        return Verdict::Mismatch(format!("ok response without a well-formed report: {line}"));
    };
    if spec.variant.is_cold() {
        return match expected.get(&spec.key()) {
            None => Verdict::Mismatch(format!("no expected result for {}", spec.key())),
            Some(e) if line == expected_response(id, &e.report) => Verdict::Ok(facts),
            Some(_) => Verdict::Mismatch(format!("{} differs from the offline result", spec.key())),
        };
    }
    let result = j.get("result").expect("checked above");
    let same_pair = result.get("benchmark").and_then(Json::as_str) == Some(spec.benchmark)
        && result.get("machine").and_then(Json::as_str) == Some(spec.machine);
    let warm = j.get("warm_started").and_then(Json::as_bool) == Some(true);
    if !same_pair || !warm || facts.tuned_cycles == 0 || facts.baseline_cycles == 0 {
        return Verdict::Mismatch(format!(
            "{} is not a warm-started report: {line}",
            spec.key()
        ));
    }
    Verdict::Ok(facts)
}

/// Check one poll response: an `ok` answer to the right id.
pub fn check_poll_response(line: &str, id: &str) -> bool {
    peak_util::from_str(line).is_ok_and(|j| {
        j.get("id").and_then(Json::as_str) == Some(id)
            && j.get("status").and_then(Json::as_str) == Some("ok")
    })
}

/// Error accounting over one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// `tune` requests sent.
    pub sent: u64,
    /// Correct results.
    pub ok: u64,
    /// Structured error responses (not counting sheds).
    pub errors: u64,
    /// `overloaded` sheds.
    pub shed: u64,
    /// `ok` responses failing the output check.
    pub mismatches: u64,
    /// Poll responses that were not `ok`.
    pub poll_failures: u64,
}

impl Tally {
    /// Account one verdict.
    pub fn add(&mut self, v: &Verdict) {
        self.sent += 1;
        match v {
            Verdict::Ok(_) => self.ok += 1,
            Verdict::Error(_) => self.errors += 1,
            Verdict::Shed => self.shed += 1,
            Verdict::Mismatch(_) => self.mismatches += 1,
        }
    }

    /// (errors + sheds + output-check failures) ÷ tune requests sent.
    pub fn error_rate(&self) -> f64 {
        if self.sent == 0 {
            return 0.0;
        }
        (self.errors + self.shed + self.mismatches) as f64 / self.sent as f64
    }

    /// Everything that went wrong, polls included.
    pub fn failed(&self) -> u64 {
        self.errors + self.shed + self.mismatches + self.poll_failures
    }
}

/// Percentile `p` ∈ [0, 1] by linear interpolation between closest
/// ranks (`rank = p·(n−1)`); `None` on an empty sample.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (rank - lo as f64))
}

/// Median (the 0.5 percentile).
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5)
}

/// Geometric mean of positive values; `None` when empty or any value is
/// not positive.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0 || !v.is_finite()) {
        return None;
    }
    Some((values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

/// Arithmetic mean; `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// Run metadata: two results compare only when every field except the
/// source revision agrees.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Metadata {
    /// Workload name.
    pub workload: String,
    /// Request-list seed.
    pub seed: u64,
    /// Nominal measuring time per run, seconds.
    pub seconds: u64,
    /// Traced (`1`) or untraced (`0`) run.
    pub trace: u8,
    /// Available parallelism of the host.
    pub nproc: usize,
    /// Effective `PEAK_TIER`.
    pub tier: String,
    /// Effective `PEAK_THREADS` (the daemon's pool size).
    pub threads: usize,
    /// Daemon worker threads.
    pub workers: usize,
    /// Load-generator connections.
    pub connections: usize,
    /// Source revision: the git commit when available, else a digest of
    /// the sources the benchmark built.
    pub revision: String,
}

impl Metadata {
    /// JSON form.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("workload", Json::Str(self.workload.clone())),
            ("seed", Json::U(self.seed)),
            ("seconds", Json::U(self.seconds)),
            ("trace", Json::U(self.trace as u64)),
            ("nproc", Json::U(self.nproc as u64)),
            ("tier", Json::Str(self.tier.clone())),
            ("threads", Json::U(self.threads as u64)),
            ("workers", Json::U(self.workers as u64)),
            ("connections", Json::U(self.connections as u64)),
            ("revision", Json::Str(self.revision.clone())),
        ])
    }

    /// Parse the JSON form.
    pub fn from_json(j: &Json) -> Option<Metadata> {
        let s = |k: &str| j.get(k).and_then(Json::as_str).map(str::to_owned);
        let u = |k: &str| j.get(k).and_then(Json::as_u64);
        Some(Metadata {
            workload: s("workload")?,
            seed: u("seed")?,
            seconds: u("seconds")?,
            trace: u("trace")? as u8,
            nproc: u("nproc")? as usize,
            tier: s("tier")?,
            threads: u("threads")? as usize,
            workers: u("workers")? as usize,
            connections: u("connections")? as usize,
            revision: s("revision")?,
        })
    }

    /// Fields (other than the revision) on which `self` and `other`
    /// differ; empty when the runs are comparable.
    pub fn differences(&self, other: &Metadata) -> Vec<&'static str> {
        let mut d = Vec::new();
        let mut check = |name, same: bool| {
            if !same {
                d.push(name);
            }
        };
        check("workload", self.workload == other.workload);
        check("seed", self.seed == other.seed);
        check("seconds", self.seconds == other.seconds);
        check("trace", self.trace == other.trace);
        check("nproc", self.nproc == other.nproc);
        check("tier", self.tier == other.tier);
        check("threads", self.threads == other.threads);
        check("workers", self.workers == other.workers);
        check("connections", self.connections == other.connections);
        d
    }
}

/// The last line of a run's standard output: the result object the
/// harness reads. `metrics` are `(name, value, unit)`.
pub fn result_line(correct: bool, tally: &Tally, metrics: &[(String, f64, String)]) -> String {
    let m = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() {
                Json::F(*value)
            } else {
                Json::F(0.0)
            };
            (
                name.clone(),
                Json::obj(vec![("value", v), ("unit", Json::Str(unit.clone()))]),
            )
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::U(tally.sent.max(1))),
        ("failed", Json::U(tally.failed())),
        ("metrics", Json::Obj(m)),
    ])
    .compact()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expected_for(spec: &TuneSpec, report: &str) -> BTreeMap<String, ExpectedEntry> {
        let mut m = BTreeMap::new();
        m.insert(
            spec.key(),
            ExpectedEntry {
                best_bits: 7,
                method: "CBR".into(),
                report: report.into(),
            },
        );
        m
    }

    const REPORT: &str = r#"{"benchmark":"SWIM","machine":"SPARC-II","search":{"tuning_cycles":500},"baseline_cycles":120,"tuned_cycles":100}"#;

    fn swim(variant: Variant) -> TuneSpec {
        TuneSpec {
            benchmark: "SWIM",
            machine: "SPARC-II",
            variant,
        }
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 1.0), Some(4.0));
        assert_eq!(median(&v), Some(2.5));
        assert!((percentile(&v, 0.9).unwrap() - 3.7).abs() < 1e-12);
        assert_eq!(percentile(&[5.0], 0.9), Some(5.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn geomean_and_mean() {
        assert!((geomean(&[2.0, 8.0]).unwrap() - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.1, 1.1, 1.1]).unwrap() - 1.1).abs() < 1e-12);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
    }

    #[test]
    fn request_lists_are_seed_deterministic() {
        for w in Workload::ALL {
            assert_eq!(request_list(w, 42), request_list(w, 42), "{}", w.name());
            assert_ne!(request_list(w, 42), request_list(w, 43), "{}", w.name());
            assert_eq!(round_list(w, 42, 0), request_list(w, 42));
            assert_ne!(round_list(w, 42, 1), round_list(w, 42, 0));
        }
    }

    #[test]
    fn request_lists_have_the_documented_shape() {
        let sim = request_list(Workload::SimBound, 1);
        assert_eq!(sim.len(), 12);
        let mut pairs: Vec<_> = sim
            .iter()
            .map(|r| (r.spec.benchmark, r.spec.machine))
            .collect();
        pairs.sort();
        pairs.dedup();
        assert_eq!(pairs.len(), 12, "every sim_bound pair exactly once");
        assert!(sim
            .iter()
            .all(|r| r.spec.variant == Variant::Default && r.poll.is_none()));

        let short = request_list(Workload::ShortJobs, 1);
        assert!(short.len() >= 100);
        assert!(short.iter().all(|r| r.spec.variant == Variant::Default));

        let mixed = request_list(Workload::MixedService, 1);
        assert_eq!(mixed.len(), MIXED_REQUESTS);
        assert!(mixed.iter().all(|r| r.poll.is_some()));
        let count =
            |f: &dyn Fn(Variant) -> bool| mixed.iter().filter(|r| f(r.spec.variant)).count();
        let default = count(&|v| v == Variant::Default);
        let warm = count(&|v| v == Variant::Warm);
        let strategy = count(&|v| matches!(v, Variant::Strategy(_)));
        assert!((45..=55).contains(&default), "default {default}");
        assert!((20..=30).contains(&warm), "warm {warm}");
        assert!((20..=30).contains(&strategy), "strategy {strategy}");
        for s in STRATEGIES {
            assert!(
                mixed.iter().any(|r| r.spec.variant == Variant::Strategy(s)),
                "{s} drawn"
            );
        }
        let ids: std::collections::BTreeSet<_> = mixed.iter().map(|r| &r.id).collect();
        assert_eq!(ids.len(), mixed.len(), "ids unique");
    }

    #[test]
    fn seeds_change_order_not_mix() {
        for w in Workload::ALL {
            let mut a: Vec<_> = request_list(w, 1).into_iter().map(|r| r.spec).collect();
            let mut b: Vec<_> = request_list(w, 2).into_iter().map(|r| r.spec).collect();
            a.sort();
            b.sort();
            assert_eq!(a, b, "{}", w.name());
        }
    }

    #[test]
    fn round_counts_depend_only_on_seconds() {
        assert_eq!(Workload::SimBound.rounds(40), 2);
        assert_eq!(Workload::ShortJobs.rounds(40), 1);
        assert_eq!(Workload::MixedService.rounds(40), 1);
        assert_eq!(Workload::SimBound.rounds(1), 1);
    }

    #[test]
    fn zipf_quotas_sum_and_decrease() {
        let q = zipf_quotas(18, 100);
        assert_eq!(q.iter().sum::<usize>(), 100);
        assert!(q.windows(2).all(|w| w[0] >= w[1]), "{q:?}");
        assert!(q.iter().all(|&n| n >= 1));
    }

    #[test]
    fn request_lines_carry_the_variant() {
        assert_eq!(
            swim(Variant::Default).request_line("j1"),
            r#"{"id":"j1","kind":"tune","benchmark":"SWIM","machine":"SPARC-II"}"#
        );
        assert!(swim(Variant::Warm)
            .request_line("j2")
            .ends_with(r#""warm_start":true}"#));
        assert!(swim(Variant::Strategy("ga"))
            .request_line("j3")
            .ends_with(r#""strategy":"ga"}"#));
        assert_eq!(
            Poll::Health.request_line("p1"),
            r#"{"id":"p1","kind":"health"}"#
        );
    }

    #[test]
    fn cold_responses_must_match_byte_for_byte() {
        let spec = swim(Variant::Default);
        let exp = expected_for(&spec, REPORT);
        let good = expected_response("j1", REPORT);
        let Verdict::Ok(facts) = check_tune_response(&good, "j1", &spec, &exp) else {
            panic!("exact response accepted")
        };
        assert_eq!(facts.tuning_cycles, 500);
        assert!((facts.speedup() - 1.2).abs() < 1e-12);
        let altered = good.replace("\"tuned_cycles\":100", "\"tuned_cycles\":101");
        assert!(matches!(
            check_tune_response(&altered, "j1", &spec, &exp),
            Verdict::Mismatch(_)
        ));
        let spaced = good.replace(",\"status\"", ", \"status\"");
        assert!(matches!(
            check_tune_response(&spaced, "j1", &spec, &exp),
            Verdict::Mismatch(_)
        ));
        assert!(matches!(
            check_tune_response(&good, "j2", &spec, &exp),
            Verdict::Mismatch(_)
        ));
        let unknown = swim(Variant::Strategy("ga"));
        assert!(matches!(
            check_tune_response(&good, "j1", &unknown, &exp),
            Verdict::Mismatch(_)
        ));
    }

    #[test]
    fn warm_responses_must_be_well_formed_and_flagged() {
        let spec = swim(Variant::Warm);
        let exp = BTreeMap::new();
        let warm = format!(r#"{{"id":"j1","status":"ok","result":{REPORT},"warm_started":true}}"#);
        assert!(matches!(
            check_tune_response(&warm, "j1", &spec, &exp),
            Verdict::Ok(_)
        ));
        let unflagged = expected_response("j1", REPORT);
        assert!(matches!(
            check_tune_response(&unflagged, "j1", &spec, &exp),
            Verdict::Mismatch(_)
        ));
        let wrong_pair = warm.replace("SPARC-II", "Pentium-IV");
        assert!(matches!(
            check_tune_response(&wrong_pair, "j1", &spec, &exp),
            Verdict::Mismatch(_)
        ));
    }

    #[test]
    fn error_rate_counts_errors_sheds_and_mismatches() {
        let spec = swim(Variant::Default);
        let exp = expected_for(&spec, REPORT);
        let responses = [
            expected_response("j1", REPORT),
            r#"{"id":"j1","status":"error","error":"overloaded","message":"queue full (8 pending)"}"#
                .to_owned(),
            r#"{"id":"j1","status":"error","error":"panicked","message":"boom"}"#.to_owned(),
            expected_response("j1", REPORT).replace("500", "501"),
        ];
        let mut tally = Tally::default();
        for r in &responses {
            tally.add(&check_tune_response(r, "j1", &spec, &exp));
        }
        assert_eq!(
            tally,
            Tally {
                sent: 4,
                ok: 1,
                errors: 1,
                shed: 1,
                mismatches: 1,
                poll_failures: 0
            }
        );
        assert!((tally.error_rate() - 0.75).abs() < 1e-12);
        tally.poll_failures += 1;
        assert_eq!(tally.failed(), 4);
        assert_eq!(Tally::default().error_rate(), 0.0);
    }

    #[test]
    fn poll_responses_are_matched_by_id() {
        assert!(check_poll_response(
            r#"{"id":"p1","status":"ok","healthy":true}"#,
            "p1"
        ));
        assert!(!check_poll_response(r#"{"id":"p2","status":"ok"}"#, "p1"));
        assert!(!check_poll_response(
            r#"{"id":"p1","status":"error","error":"x"}"#,
            "p1"
        ));
    }

    #[test]
    fn expected_file_round_trips_exact_bytes() {
        let e = ExpectedEntry {
            best_bits: 9,
            method: "MBR".into(),
            report: REPORT.into(),
        };
        let line = e.to_line("SWIM/SPARC-II/default");
        let parsed = parse_expected(&format!("{line}\n\n")).unwrap();
        assert_eq!(parsed.get("SWIM/SPARC-II/default"), Some(&e));
    }

    #[test]
    fn metadata_differences_ignore_the_revision() {
        let a = Metadata {
            workload: "sim_bound".into(),
            seed: 1,
            seconds: 30,
            trace: 0,
            nproc: 2,
            tier: "predecoded".into(),
            threads: 2,
            workers: 2,
            connections: 2,
            revision: "abc".into(),
        };
        let b = Metadata {
            revision: "def".into(),
            ..a.clone()
        };
        assert!(a.differences(&b).is_empty());
        assert_eq!(Metadata::from_json(&a.to_json()), Some(a.clone()));
        let c = Metadata {
            tier: "jit".into(),
            threads: 1,
            ..a.clone()
        };
        assert_eq!(a.differences(&c), vec!["tier", "threads"]);
    }

    #[test]
    fn result_line_has_exactly_the_harness_keys() {
        let tally = Tally {
            sent: 12,
            ok: 12,
            ..Tally::default()
        };
        let line = result_line(true, &tally, &[("setup_s".into(), 0.0123, "s".into())]);
        let j = peak_util::from_str(&line).unwrap();
        let Json::Obj(pairs) = &j else {
            panic!("object")
        };
        let keys: Vec<_> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(j.get("attempted").and_then(Json::as_u64), Some(12));
        let m = j.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("s"));
    }
}
