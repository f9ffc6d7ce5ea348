//! Per-job supervision: deadlines, bounded retry with exponential
//! backoff, and fault injection for the test harnesses.
//!
//! The daemon never trusts a job. Each one runs through
//! [`run_supervised`], which:
//!
//! * arms a [`DeadlineWatchdog`] entry when the request carries
//!   `deadline_ms` — a background thread fires the job's
//!   [`CancelToken`] at the deadline, and the cooperative checks inside
//!   `peak-core` (application-run starts, IE round boundaries) unwind
//!   with the `Cancelled` sentinel shortly after;
//! * retries **panicked** attempts (and only those — spec errors and
//!   cancellations are deterministic) up to [`RetryPolicy::max_retries`]
//!   times with exponential backoff;
//! * reports whether a `Cancelled` outcome was the watchdog's doing
//!   (`deadline_hit`), so the daemon can answer `deadline_exceeded`
//!   rather than a generic `cancelled`.

use crate::protocol::Inject;
use peak_core::{classify_panic, run_tuning_job, CancelToken, JobError, TuningJobSpec};
use peak_core::sched::Pool;
use peak_core::tuner::TuneReport;
use peak_obs::metrics::{Counter, Histogram, MetricsRegistry};
use peak_obs::{event, Tracer};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Supervision metrics, registered once. The job-latency histogram is
/// wall-clock — explicitly outside the determinism doctrine (DESIGN.md
/// §14); the counters are deterministic for deterministic schedules.
struct SupMetrics {
    job_wall_ms: Arc<Histogram>,
    retries: Arc<Counter>,
    deadline_fired: Arc<Counter>,
    panics: Arc<Counter>,
}

fn sup_metrics() -> &'static SupMetrics {
    static M: OnceLock<SupMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = MetricsRegistry::global();
        SupMetrics {
            job_wall_ms: r.histogram(
                "serve.job_wall_ms",
                "Wall-clock of one supervised job, all attempts, milliseconds",
            ),
            retries: r.counter("serve.job_retries", "Panicked attempts retried"),
            deadline_fired: r.counter("serve.deadline_fired", "Jobs cancelled by their deadline"),
            panics: r.counter("serve.job_panics", "Job attempts that panicked"),
        }
    })
}

/// Bounded-retry policy for panicked jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (total attempts = retries + 1).
    pub max_retries: u32,
    /// Backoff before the first retry, milliseconds.
    pub base_backoff_ms: u64,
    /// Backoff multiplier per further retry.
    pub factor: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_retries: 2, base_backoff_ms: 10, factor: 2 }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `retry` (0-based): `base · factorʳ`.
    pub fn backoff(&self, retry: u32) -> Duration {
        let ms = self.base_backoff_ms.saturating_mul((self.factor as u64).saturating_pow(retry));
        Duration::from_millis(ms)
    }
}

struct WatchEntry {
    at: Instant,
    seq: u64,
    token: CancelToken,
    fired: Arc<AtomicBool>,
}

#[derive(Default)]
struct WatchState {
    entries: Vec<WatchEntry>,
    next_seq: u64,
    shutdown: bool,
}

struct WatchShared {
    state: Mutex<WatchState>,
    cv: Condvar,
}

/// Background deadline timer: one thread, many armed deadlines. Firing
/// an entry cancels its token (cooperative — the job unwinds at its next
/// check point) and marks the entry's `fired` flag so the outcome can be
/// classified as a deadline rather than an external cancel.
pub struct DeadlineWatchdog {
    shared: Arc<WatchShared>,
    thread: Option<std::thread::JoinHandle<()>>,
}

/// Guard for one armed deadline; dropping it disarms (if not yet fired).
pub struct ArmedDeadline {
    shared: Arc<WatchShared>,
    seq: u64,
    fired: Arc<AtomicBool>,
}

impl ArmedDeadline {
    /// Whether the watchdog fired this deadline.
    pub fn fired(&self) -> bool {
        self.fired.load(Ordering::Acquire)
    }
}

impl Drop for ArmedDeadline {
    fn drop(&mut self) {
        let mut st = lock_ok(&self.shared.state);
        st.entries.retain(|e| e.seq != self.seq);
        self.shared.cv.notify_all();
    }
}

fn lock_ok<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Default for DeadlineWatchdog {
    fn default() -> Self {
        Self::new()
    }
}

impl DeadlineWatchdog {
    /// Start the watchdog thread.
    pub fn new() -> DeadlineWatchdog {
        let shared = Arc::new(WatchShared {
            state: Mutex::new(WatchState::default()),
            cv: Condvar::new(),
        });
        let worker = shared.clone();
        let thread = std::thread::Builder::new()
            .name("peak-serve-watchdog".into())
            .spawn(move || watchdog_loop(&worker))
            .expect("spawn watchdog thread");
        DeadlineWatchdog { shared, thread: Some(thread) }
    }

    /// Arm a deadline `after` from now that fires `token`.
    pub fn arm(&self, after: Duration, token: CancelToken) -> ArmedDeadline {
        let fired = Arc::new(AtomicBool::new(false));
        let mut st = lock_ok(&self.shared.state);
        let seq = st.next_seq;
        st.next_seq += 1;
        st.entries.push(WatchEntry {
            at: Instant::now() + after,
            seq,
            token,
            fired: fired.clone(),
        });
        self.shared.cv.notify_all();
        ArmedDeadline { shared: self.shared.clone(), seq, fired }
    }
}

impl Drop for DeadlineWatchdog {
    fn drop(&mut self) {
        lock_ok(&self.shared.state).shutdown = true;
        self.shared.cv.notify_all();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn watchdog_loop(shared: &WatchShared) {
    let mut st = lock_ok(&shared.state);
    loop {
        if st.shutdown {
            return;
        }
        let now = Instant::now();
        // Fire everything past due.
        let mut k = 0;
        while k < st.entries.len() {
            if st.entries[k].at <= now {
                let e = st.entries.swap_remove(k);
                e.fired.store(true, Ordering::Release);
                e.token.cancel();
            } else {
                k += 1;
            }
        }
        match st.entries.iter().map(|e| e.at).min() {
            Some(next) => {
                let wait = next.saturating_duration_since(now);
                let (guard, _) = shared
                    .cv
                    .wait_timeout(st, wait)
                    .unwrap_or_else(|e| e.into_inner());
                st = guard;
            }
            None => {
                st = shared.cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        }
    }
}

/// Sleep up to `total`, polling `token` so cancellation cuts the sleep
/// short. Returns `true` when the token fired.
fn sleep_cancellable(total: Duration, token: &CancelToken) -> bool {
    let step = Duration::from_millis(5);
    let end = Instant::now() + total;
    loop {
        if token.is_cancelled() {
            return true;
        }
        let now = Instant::now();
        if now >= end {
            return false;
        }
        std::thread::sleep(step.min(end - now));
    }
}

/// What the supervisor delivered for one job.
#[derive(Debug)]
pub struct JobOutcome {
    /// Final result after all attempts.
    pub result: Result<TuneReport, JobError>,
    /// Retries consumed (0 = first attempt settled it).
    pub retries: u32,
    /// Whether a `Cancelled` result was caused by the armed deadline.
    pub deadline_hit: bool,
}

/// One attempt: fault injection first (inside its own unwind boundary,
/// so an injected panic looks exactly like a real one), then the real
/// job.
fn run_attempt(
    spec: &TuningJobSpec,
    inject: Option<Inject>,
    tracer: &Tracer,
    pool: &Pool,
    cancel: &CancelToken,
) -> Result<TuneReport, JobError> {
    if let Some(inj) = inject {
        let injected = catch_unwind(AssertUnwindSafe(|| match inj {
            Inject::Panic => panic!("injected panic"),
            Inject::Slow(ms) => {
                if sleep_cancellable(Duration::from_millis(ms), cancel) {
                    cancel.check(); // unwind with the Cancelled sentinel
                }
            }
        }));
        if let Err(payload) = injected {
            return Err(classify_panic(payload));
        }
    }
    run_tuning_job(spec, tracer.clone(), pool, cancel.clone())
}

/// Run one job under full supervision: deadline, panic isolation (via
/// [`run_tuning_job`]), and bounded retry with exponential backoff.
/// `cancel` is the job's token — the daemon may also fire it externally
/// (shutdown); the watchdog fires it on deadline.
#[allow(clippy::too_many_arguments)]
pub fn run_supervised(
    spec: &TuningJobSpec,
    inject: Option<Inject>,
    deadline_ms: Option<u64>,
    retry: &RetryPolicy,
    watchdog: &DeadlineWatchdog,
    cancel: CancelToken,
    tracer: &Tracer,
    pool: &Pool,
) -> JobOutcome {
    let armed =
        deadline_ms.map(|ms| watchdog.arm(Duration::from_millis(ms), cancel.clone()));
    let started = Instant::now();
    let mut retries = 0;
    loop {
        let result = run_attempt(spec, inject, tracer, pool, &cancel);
        if matches!(result, Err(JobError::Panicked(_))) {
            sup_metrics().panics.inc();
        }
        let retryable = matches!(result, Err(JobError::Panicked(_)))
            && retries < retry.max_retries
            && !cancel.is_cancelled();
        if !retryable {
            let deadline_hit = armed.as_ref().is_some_and(ArmedDeadline::fired);
            let m = sup_metrics();
            m.job_wall_ms.observe(started.elapsed().as_millis() as u64);
            if deadline_hit {
                m.deadline_fired.inc();
            }
            return JobOutcome { result, retries, deadline_hit };
        }
        let backoff = retry.backoff(retries);
        event!(
            tracer,
            "serve.retry",
            benchmark = spec.benchmark.as_str(),
            retry = (retries + 1) as u64,
            backoff_ms = backoff.as_millis() as u64,
        );
        sup_metrics().retries.inc();
        sleep_cancellable(backoff, &cancel);
        retries += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn backoff_is_exponential() {
        let p = RetryPolicy { max_retries: 3, base_backoff_ms: 10, factor: 2 };
        assert_eq!(p.backoff(0), Duration::from_millis(10));
        assert_eq!(p.backoff(1), Duration::from_millis(20));
        assert_eq!(p.backoff(2), Duration::from_millis(40));
    }

    #[test]
    fn watchdog_fires_expired_deadlines_only() {
        let dog = DeadlineWatchdog::new();
        let hot = CancelToken::new();
        let cold = CancelToken::new();
        let armed_hot = dog.arm(Duration::from_millis(20), hot.clone());
        let armed_cold = dog.arm(Duration::from_secs(60), cold.clone());
        let start = Instant::now();
        while !hot.is_cancelled() && start.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(hot.is_cancelled(), "20ms deadline must fire");
        assert!(armed_hot.fired());
        assert!(!cold.is_cancelled(), "60s deadline must not fire");
        assert!(!armed_cold.fired());
    }

    #[test]
    fn disarming_prevents_firing() {
        let dog = DeadlineWatchdog::new();
        let token = CancelToken::new();
        drop(dog.arm(Duration::from_millis(10), token.clone()));
        std::thread::sleep(Duration::from_millis(60));
        assert!(!token.is_cancelled(), "dropped guard must disarm");
    }

    #[test]
    fn injected_panics_are_retried_to_exhaustion() {
        let dog = DeadlineWatchdog::new();
        let pool = Pool::with_threads(1);
        let retry = RetryPolicy { max_retries: 2, base_backoff_ms: 1, factor: 2 };
        let spec = TuningJobSpec::new("SWIM", "SPARC-II");
        let out = run_supervised(
            &spec,
            Some(Inject::Panic),
            None,
            &retry,
            &dog,
            CancelToken::new(),
            &Tracer::disabled(),
            &pool,
        );
        assert_eq!(out.result.unwrap_err(), JobError::Panicked("injected panic".into()));
        assert_eq!(out.retries, 2, "both retries consumed");
        assert!(!out.deadline_hit);
    }

    #[test]
    fn deadline_cuts_a_slow_job_and_is_attributed() {
        let dog = DeadlineWatchdog::new();
        let pool = Pool::with_threads(1);
        let spec = TuningJobSpec::new("SWIM", "SPARC-II");
        let start = Instant::now();
        let out = run_supervised(
            &spec,
            Some(Inject::Slow(60_000)),
            Some(30),
            &RetryPolicy::default(),
            &dog,
            CancelToken::new(),
            &Tracer::disabled(),
            &pool,
        );
        assert_eq!(out.result.unwrap_err(), JobError::Cancelled);
        assert!(out.deadline_hit, "cancel must be attributed to the deadline");
        assert_eq!(out.retries, 0, "cancellation is not retried");
        assert!(start.elapsed() < Duration::from_secs(30), "must not sleep the full minute");
    }

    #[test]
    fn spec_errors_are_not_retried() {
        let dog = DeadlineWatchdog::new();
        let pool = Pool::with_threads(1);
        let spec = TuningJobSpec::new("NOPE", "SPARC-II");
        let out = run_supervised(
            &spec,
            None,
            None,
            &RetryPolicy::default(),
            &dog,
            CancelToken::new(),
            &Tracer::disabled(),
            &pool,
        );
        assert_eq!(out.result.unwrap_err(), JobError::UnknownBenchmark("NOPE".into()));
        assert_eq!(out.retries, 0);
    }
}
