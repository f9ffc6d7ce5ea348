//! Search over the 2^38 optimization-flag space.
//!
//! Primary algorithm: **Iterative Elimination** (paper §5.2, citing the
//! authors' TR \[11\]): start from -O3, rate each enabled flag's removal
//! against the current base, remove the most harmful flag, repeat until
//! no removal helps. O(n²) ratings instead of 2^n. Exhaustive search
//! (small subspaces) and biased random search (Cooper-style) are provided
//! for the ablation benchmarks.

use crate::consultant::Method;
use crate::degrade::{DegradeEvent, DegradeTrigger};
use crate::rating::{rate, RateOutcome, TuningSetup};
use crate::sched::Pool;
use crate::strategy::{FrontierRater, IterativeElimination, RandomSearchStrategy, SearchStrategy};
use peak_obs::event;
use peak_opt::{Flag, OptConfig};
use peak_util::{Json, ToJson};

/// Search outcome.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// Best configuration found (not serialized; `disabled_flags` is the
    /// report-friendly form).
    pub best: OptConfig,
    /// Flags disabled relative to -O3 (report-friendly).
    pub disabled_flags: Vec<String>,
    /// Rating method that produced the final decision.
    pub method: Method,
    /// Rejected ratings (§3's fallback): the length of the rater's
    /// [`DegradeEvent`] log.
    pub switches: u32,
    /// Total candidate ratings performed.
    pub ratings: usize,
    /// Tuning cycles consumed (true cycles of all tuning runs).
    pub tuning_cycles: u64,
    /// Application runs used.
    pub runs: usize,
    /// TS invocations consumed.
    pub invocations: u64,
}

impl ToJson for SearchResult {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("disabled_flags", self.disabled_flags.to_json()),
            ("method", self.method.to_json()),
            ("switches", self.switches.to_json()),
            ("ratings", self.ratings.to_json()),
            ("tuning_cycles", self.tuning_cycles.to_json()),
            ("runs", self.runs.to_json()),
            ("invocations", self.invocations.to_json()),
        ])
    }
}

/// Minimum relative improvement for a flag removal to count (noise guard).
pub(crate) const MIN_GAIN: f64 = 1.012;
/// Round cap for Iterative Elimination: each round removes one flag, and
/// gains below [`MIN_GAIN`] stop the search anyway; the cap bounds tuning
/// cost when measurement noise keeps producing marginal "wins".
pub(crate) const MAX_IE_ROUNDS: usize = 10;
/// Fraction of candidates allowed to stay unconverged before the tuner
/// switches rating methods.
pub(crate) const SWITCH_FRACTION: f64 = 0.34;

/// Index of the largest of the first `rated` improvements — the one
/// argmax every search decision uses. Semantics are exactly
/// `Iterator::max_by` over `f64::total_cmp`: among equal maxima the
/// **last** index wins. `None` when nothing was rated. Callers apply
/// their own [`MIN_GAIN`] test to the picked improvement.
pub(crate) fn pick_best(improvements: &[f64], rated: usize) -> Option<usize> {
    (0..rated).max_by(|&a, &b| improvements[a].total_cmp(&improvements[b]))
}

/// The §3 method-fallback driver (paper: "If the system cannot achieve
/// enough accuracy … it switches to the next applicable rating method")
/// shared by every rating protocol. `rate_attempt(setup, method,
/// attempt)` rates the frontier of `ncand` candidates once with
/// `method`; `attempt` is the method's position in the try-list, which
/// the per-candidate protocol folds into its seeds.
///
/// The try-list is [`Consultation::fallback_order`](crate::consultant::Consultation::fallback_order).
/// A method that cannot rate at all is skipped. A rated outcome is
/// rejected when [`DegradeTrigger::of`] names a reason — more than
/// [`SWITCH_FRACTION`] of its candidates unconverged, or (only under
/// injected faults) a crash or heavy dropout — and each rejection logs
/// one [`DegradeEvent`] for frontier `round` in `events`. A forced
/// method that cannot converge falls through exactly like an in-order
/// one, and its wasted cycles stay on the bill (which is what Figure 7
/// shows). When the try-list runs out:
/// - after a fatal rejection (crash or dropout), WHL rates once as
///   attempt `try_list.len()` and its outcome is accepted;
/// - otherwise the last outcome is kept under the order's last (most
///   applicable) method; when none rated at all, that method rates once
///   more as attempt `try_list.len()`.
///
/// The WHL/AVG baselines sit outside the consultant's order: they rate
/// once, as attempt 0, and are never rejected.
pub(crate) fn rate_cascade<'w>(
    setup: &mut TuningSetup<'w>,
    preferred: Method,
    ncand: usize,
    round: usize,
    events: &mut Vec<DegradeEvent>,
    mut rate_attempt: impl FnMut(&mut TuningSetup<'w>, Method, usize) -> Option<RateOutcome>,
) -> (RateOutcome, Method) {
    if matches!(preferred, Method::Whl | Method::Avg) {
        let out = rate_attempt(setup, preferred, 0).expect("baseline method rates");
        return (out, preferred);
    }
    let try_list = setup.consult.fallback_order(preferred);
    let kept = *setup.consult.order.last().expect("RBR always applicable");
    let tracer = setup.tracer().clone();
    let mut last: Option<(RateOutcome, DegradeTrigger)> = None;
    for (attempt, &from) in try_list.iter().enumerate() {
        let Some(out) = rate_attempt(setup, from, attempt) else { continue };
        let Some(trigger) = DegradeTrigger::of(&out, ncand) else { return (out, from) };
        let to = match try_list.get(attempt + 1) {
            Some(&next) => next,
            None if trigger.is_fatal() => Method::Whl,
            None => kept,
        };
        events.push(DegradeEvent { rating: round, from, to, trigger });
        event!(
            tracer,
            "supervisor.degrade",
            rating = round as u64,
            from = from.name(),
            to = to.name(),
            trigger = trigger.name(),
        );
        last = Some((out, trigger));
    }
    let exhausted = try_list.len();
    match last {
        Some((_, trigger)) if trigger.is_fatal() => {
            let out = rate_attempt(setup, Method::Whl, exhausted).expect("WHL always rates");
            (out, Method::Whl)
        }
        Some((out, _)) => (out, kept),
        None => (rate_attempt(setup, kept, exhausted).expect("RBR always rates"), kept),
    }
}

/// Iterative Elimination with the given (initial) rating method,
/// starting from -O3 (the paper's protocol).
pub fn iterative_elimination(setup: &mut TuningSetup<'_>, method: Method) -> SearchResult {
    iterative_elimination_from(setup, method, OptConfig::o3())
}

/// [`iterative_elimination`] from an explicit start configuration — the
/// serve daemon's knowledge-store warm start seeds the search with a
/// nearest-neighbour best config instead of -O3. With `start =
/// OptConfig::o3()` this is exactly [`iterative_elimination`].
///
/// Each round boundary is a cooperative cancellation point
/// ([`TuningSetup::check_cancel`]); with the default token this is
/// a no-op.
///
/// Since the strategy extraction this is a thin wrapper: the IE loop
/// lives in [`IterativeElimination`] and runs on a
/// [`FrontierRater::serial`] rater — the serial interleaved rating
/// protocol the Table 1 / Figure 7 goldens pin down, with an unlimited
/// compilation budget. `strategy_goldens` pins its results.
pub fn iterative_elimination_from(
    setup: &mut TuningSetup<'_>,
    method: Method,
    start: OptConfig,
) -> SearchResult {
    let strategy = IterativeElimination { start, max_rounds: MAX_IE_ROUNDS };
    let mut rater = FrontierRater::serial(setup, method);
    strategy.run(&mut rater)
}

/// Seed base for one (round, method-attempt) frontier; each candidate
/// job offsets by [`JOB_SEED_STRIDE`]. A rating call starts at most
/// [`MAX_RUNS_PER_RATING`](crate::rating) ≤ 60 runs (one seed increment
/// each), so strides of 1024 keep every job's run-seed range disjoint
/// and — more importantly — *fixed*, independent of scheduling.
pub(crate) fn frontier_seed_base(round: usize, attempt: usize) -> u64 {
    1 + ((round as u64 * 8 + attempt as u64) << 16)
}
const JOB_SEED_STRIDE: u64 = 1024;

/// Rate a candidate frontier with per-candidate parallel jobs: candidate
/// `j` is rated in its own forked scratch setup (deterministically
/// seeded from `seed_base + j·stride`) against a fresh measurement of
/// the base, and the outcomes are merged in candidate order. Returns
/// `None` when `method` is structurally inapplicable (mirrors [`rate`]).
///
/// This is a *restructured* protocol, not a parallelization of the
/// serial one: serial rating interleaves all candidates inside shared
/// application runs (joint window picking, shared machine state), which
/// is inherently sequential. Decomposing per candidate re-measures the
/// base in every job (~2× the measurements on small frontiers) but
/// makes each job independent — so the merged result is bit-identical
/// at **any** thread count, which the differential tests pin down.
pub(crate) fn rate_frontier_parallel(
    setup: &mut TuningSetup<'_>,
    pool: &Pool,
    method: Method,
    base: OptConfig,
    candidates: &[OptConfig],
    seed_base: u64,
) -> Option<RateOutcome> {
    match method {
        Method::Cbr if setup.consult.cbr.is_none() => return None,
        Method::Mbr if setup.consult.mbr.is_none() => return None,
        _ => {}
    }
    struct JobResult {
        improvement: f64,
        var: f64,
        unconverged: usize,
        samples: usize,
        trimmed: usize,
        dropouts: u64,
        crashes: u64,
        tuning_cycles: u64,
        runs_used: usize,
        invocations_used: u64,
    }
    let results: Vec<JobResult> = {
        let shared: &TuningSetup<'_> = setup;
        pool.map(candidates.len(), |j| {
            let mut scratch = shared.fork_for_job(seed_base + j as u64 * JOB_SEED_STRIDE);
            let out = rate(&mut scratch, method, base, &[candidates[j]])
                .expect("applicability checked before fan-out");
            JobResult {
                improvement: out.improvements[0],
                var: out.vars[0],
                unconverged: out.unconverged,
                samples: out.samples,
                trimmed: out.trimmed,
                dropouts: out.dropouts,
                crashes: out.crashes,
                tuning_cycles: scratch.tuning_cycles,
                runs_used: scratch.runs_used,
                invocations_used: scratch.invocations_used,
            }
        })
    };
    // Merge in candidate order (the pool already returns index-ordered
    // results; the fold below keeps the canonical order explicit).
    let mut merged = RateOutcome {
        improvements: Vec::with_capacity(candidates.len()),
        vars: Vec::with_capacity(candidates.len()),
        unconverged: 0,
        method,
        samples: 0,
        trimmed: 0,
        dropouts: 0,
        crashes: 0,
    };
    for r in &results {
        merged.improvements.push(r.improvement);
        merged.vars.push(r.var);
        merged.unconverged += r.unconverged;
        merged.samples += r.samples;
        merged.trimmed += r.trimmed;
        merged.dropouts += r.dropouts;
        merged.crashes += r.crashes;
        setup.tuning_cycles += r.tuning_cycles;
        setup.runs_used += r.runs_used;
        setup.invocations_used += r.invocations_used;
    }
    Some(merged)
}

/// Exhaustive search over a small flag subset (all other flags stay on):
/// one [`FrontierRater::serial`] frontier of all 2^k − 1 removal
/// combinations. Only for ablation studies on ≤ 12 flags.
pub fn exhaustive(setup: &mut TuningSetup<'_>, method: Method, flags: &[Flag]) -> SearchResult {
    assert!(flags.len() <= 12, "exhaustive search is 2^k");
    let base = OptConfig::o3();
    let mut candidates = Vec::new();
    for mask in 1u64..(1 << flags.len()) {
        let mut cfg = base;
        for (i, &f) in flags.iter().enumerate() {
            if mask & (1 << i) != 0 {
                cfg = cfg.without(f);
            }
        }
        candidates.push(cfg);
    }
    let mut rater = FrontierRater::serial(setup, method);
    let Some(fo) = rater.rate(base, &candidates) else {
        return rater.finish(base);
    };
    let best = match pick_best(&fo.out.improvements, fo.rated) {
        Some(i) if fo.out.improvements[i] >= MIN_GAIN => candidates[i],
        _ => base,
    };
    rater.finish(best)
}

/// Biased random search (Cooper-style): sample configurations with each
/// flag independently off with probability `p_off`, keep the best.
///
/// Ported onto the strategy layer: sampling now uses the strategy
/// doctrine's splitmix64 (`p_off` is rounded to integer per-mille) and
/// rating uses the pooled per-candidate protocol on the setup's pool —
/// so, unlike the pre-trait version, results are bit-identical at any
/// thread count and stable across dependency bumps. Numbers differ from
/// the old `StdRng`-sampled, serially-rated implementation; no golden
/// consumed those.
pub fn random_search(
    setup: &mut TuningSetup<'_>,
    method: Method,
    samples: usize,
    p_off: f64,
    seed: u64,
) -> SearchResult {
    let per_mille = ((p_off * 1000.0).round() as i64).clamp(0, 1000) as u64;
    let strategy = RandomSearchStrategy { samples, p_off_per_mille: per_mille, seed };
    let pool = setup.pool().clone();
    let mut rater = FrontierRater::pooled(setup, pool, method);
    strategy.run(&mut rater)
}

#[cfg(test)]
mod tests {
    use super::*;
    use peak_sim::MachineSpec;
    use peak_workloads::{art::ArtMatch, Dataset};

    #[test]
    fn pick_best_takes_the_last_of_equal_maxima() {
        let impr = [1.0, 1.5, 0.9, 1.5, 1.2];
        assert_eq!(pick_best(&impr, impr.len()), Some(3), "ties go to the last index");
        assert_eq!(pick_best(&impr, 3), Some(1), "only the rated prefix counts");
        assert_eq!(pick_best(&impr, 0), None);
        // `total_cmp` orders -0.0 below +0.0, so they are not a tie.
        assert_eq!(pick_best(&[0.0, -0.0], 2), Some(0));
    }

    #[test]
    fn ie_on_art_p4_disables_strict_aliasing() {
        // The paper's marquee result: on Pentium IV, tuning ART discovers
        // that turning off strict aliasing is a large win.
        let w = ArtMatch::new();
        let mut setup = TuningSetup::new(&w, MachineSpec::pentium_iv(), Dataset::Train);
        let result = iterative_elimination(&mut setup, Method::Rbr);
        assert!(
            result.disabled_flags.iter().any(|f| f == "strict-aliasing"),
            "IE must turn off strict aliasing on P4: {:?}",
            result.disabled_flags
        );
        assert!(result.ratings >= 38, "at least one IE round");
    }

    #[test]
    fn ie_on_art_sparc_keeps_strict_aliasing() {
        let w = ArtMatch::new();
        let mut setup = TuningSetup::new(&w, MachineSpec::sparc_ii(), Dataset::Train);
        let result = iterative_elimination(&mut setup, Method::Rbr);
        assert!(
            !result.disabled_flags.iter().any(|f| f == "strict-aliasing"),
            "SPARC II tolerates the pressure: {:?}",
            result.disabled_flags
        );
    }
}
