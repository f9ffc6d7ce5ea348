//! Pluggable search strategies over the 2^38 flag space.
//!
//! The paper's Iterative Elimination is one point in a larger design
//! space: genetic flag search (FOGA) and cluster-then-tune approaches
//! (multiple-phase learning) spend the same compilation budget
//! differently. This module extracts the machinery every search needs —
//! frontier rating with the §3 method fallback, compile pre-warming
//! through the shared [`VersionCache`](crate::version_cache::VersionCache),
//! deterministic per-candidate parallelism — into a [`FrontierRater`]
//! that any [`SearchStrategy`] drives, and adds a central
//! [`CompilationBudget`] so strategies can be compared at equal compile
//! counts.
//!
//! # Determinism doctrine
//!
//! Every strategy must be **bit-identical at any thread count**. The
//! rater guarantees this for the rating side (per-candidate jobs are
//! seeded from the frontier round and merged in candidate order; see
//! `rate_frontier_parallel` in [`search`](crate::search)); strategies
//! guarantee it for their own decisions by drawing all randomness from
//! [`SplitMix64`] seeded off the job seed — never from thread timing,
//! never from `std` hash iteration order. Float comparisons use
//! `total_cmp`. The argmax behind every search decision
//! (`search::pick_best`) returns the **last** of equal maxima
//! (`Iterator::max_by` semantics); GA tournament/elitism ranking and the
//! clustering's impact order break ties toward the lowest index.
//!
//! # Budget semantics
//!
//! [`CompilationBudget`] counts **unique configurations**, mirroring the
//! process-wide version cache: rating a configuration that was already
//! charged (a cache hit, or an in-flight coalesced compile) is free.
//! The budget is charged *before* compilation, in candidate order, so
//! the affordable prefix — and therefore every downstream decision — is
//! independent of thread count. A configuration's instrumented twin
//! (MBR's component-counting build) rides on the same charge: the
//! budget models "distinct optimization decisions paid for", not object
//! files.

use crate::consultant::Method;
use crate::degrade::DegradeEvent;
use crate::metrics::core_metrics;
use crate::rating::{rate, RateOutcome, TuningSetup};
use crate::sched::Pool;
use crate::search::{
    frontier_seed_base, pick_best, rate_cascade, rate_frontier_parallel, SearchResult,
    MAX_IE_ROUNDS, MIN_GAIN,
};
use peak_obs::event;
use peak_opt::{Flag, OptConfig, ALL_FLAGS, NUM_FLAGS};
use std::collections::HashSet;
use std::ops::ControlFlow;

/// Deterministic 64-bit PRNG (splitmix64). Small, fast, and — unlike a
/// vendored `StdRng` — guaranteed stable across dependency bumps, which
/// the replayability doctrine requires: a strategy seed recorded in a
/// bench artifact must reproduce the identical search forever.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// New generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit value. Not the `Iterator` protocol — draws are
    /// infinite and infallible, so an `Option` wrapper would only
    /// obscure the seed-exact trajectory.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..n` (`n = 0` yields 0). The modulo bias is
    /// irrelevant here — draws pick tournament entrants and probe bits,
    /// not statistics — and the integer form keeps results exact.
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next() % n
        }
    }

    /// Bernoulli draw with integer per-mille probability (`350` = 35%).
    /// Integer thresholds avoid float rounding drift across platforms.
    pub fn chance(&mut self, per_mille: u64) -> bool {
        self.below(1000) < per_mille
    }
}

/// Central compilation budget shared by all strategies in a shoot-out.
///
/// Counts *unique* configurations (by flag-word bits): re-rating a
/// config the search already paid for is free, exactly as the
/// process-wide version cache makes its recompilation free. See the
/// module docs for why instrumented twins don't charge separately.
#[derive(Debug, Clone)]
pub struct CompilationBudget {
    limit: Option<usize>,
    spent: usize,
    seen: HashSet<u64>,
}

impl CompilationBudget {
    /// A budget that never exhausts (used by the plain IE entry points).
    pub fn unlimited() -> Self {
        CompilationBudget { limit: None, spent: 0, seen: HashSet::new() }
    }

    /// A budget of `n` unique configurations.
    pub fn limited(n: usize) -> Self {
        CompilationBudget { limit: Some(n), spent: 0, seen: HashSet::new() }
    }

    /// The configured limit (`None` = unlimited).
    pub fn limit(&self) -> Option<usize> {
        self.limit
    }

    /// Unique configurations charged so far.
    pub fn spent(&self) -> usize {
        self.spent
    }

    /// Remaining headroom (`None` = unlimited).
    pub fn remaining(&self) -> Option<usize> {
        self.limit.map(|l| l.saturating_sub(self.spent))
    }

    /// Charge one configuration. Returns `false` iff it is *new* and the
    /// budget cannot afford it (already-seen configs always succeed).
    pub fn charge_one(&mut self, cfg: OptConfig) -> bool {
        if self.seen.contains(&cfg.bits()) {
            return true;
        }
        if let Some(l) = self.limit {
            if self.spent >= l {
                return false;
            }
        }
        self.seen.insert(cfg.bits());
        self.spent += 1;
        true
    }

    /// Charge configurations in order; returns the length of the
    /// affordable prefix. Stops at the first *new* config that does not
    /// fit, so by construction `spent ≤ limit` always holds — a strategy
    /// can overshoot by at most the check itself, never by a compile.
    pub fn charge(&mut self, cfgs: &[OptConfig]) -> usize {
        for (i, &c) in cfgs.iter().enumerate() {
            if !self.charge_one(c) {
                return i;
            }
        }
        cfgs.len()
    }
}

impl Default for CompilationBudget {
    fn default() -> Self {
        CompilationBudget::unlimited()
    }
}

/// How a [`FrontierRater`] measures a candidate frontier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RatingProtocol {
    /// The paper's serial interleaved protocol: all candidates share
    /// application runs (joint window picking, shared machine state).
    /// This is what the Table 1 / Figure 7 goldens pin down.
    Serial,
    /// Per-candidate decomposition: every candidate rated in its own
    /// deterministically seeded scratch setup, merged in candidate
    /// order — bit-identical at any thread count (PR 4's protocol).
    PerCandidate,
}

/// One frontier rating's outcome, as seen by a strategy.
#[derive(Debug, Clone)]
pub struct FrontierOutcome {
    /// Merged rating outcome; `improvements[i]` aligns with the
    /// candidate slice's first [`FrontierOutcome::rated`] entries.
    pub out: RateOutcome,
    /// Method that produced the final decision (after §3 fallback).
    pub method: Method,
    /// Number of candidates actually rated (≤ the slice length when the
    /// budget truncated the frontier).
    pub rated: usize,
    /// Whether the budget cut the frontier short — the strategy should
    /// wind down to its best-so-far.
    pub truncated: bool,
}

/// The search-wide accounting a [`FrontierRater`] keeps across
/// frontiers — everything besides the setup's own accounting that a
/// checkpointed search must carry to resume bit-identically.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RaterTally {
    /// Candidate ratings performed.
    pub ratings: usize,
    /// Method that produced the most recent decision.
    pub last_method: Method,
    /// Frontier rounds rated (also the seed counter).
    pub round: usize,
    /// The §3 cascade's log: one event per rejected rating.
    pub events: Vec<DegradeEvent>,
}

impl RaterTally {
    /// A fresh tally for a search that prefers `method`.
    pub(crate) fn new(method: Method) -> Self {
        RaterTally { ratings: 0, last_method: method, round: 0, events: Vec::new() }
    }

    /// The uniform [`SearchResult`] for `best` after the ratings counted
    /// here and the runs `setup` accounted.
    pub(crate) fn result(&self, setup: &TuningSetup<'_>, best: OptConfig) -> SearchResult {
        SearchResult {
            best,
            disabled_flags: best.disabled_flags().iter().map(|f| f.name().to_string()).collect(),
            method: self.last_method,
            switches: self.events.len() as u32,
            ratings: self.ratings,
            tuning_cycles: setup.tuning_cycles,
            runs: setup.runs_used,
            invocations: setup.invocations_used,
        }
    }
}

/// The shared engine all strategies drive: frontier pre-warming through
/// the version cache, the §3 method cascade, budget charging, and the
/// rating-protocol dispatch. Owns the search-wide accounting
/// (ratings / degrade log / last method / round) so
/// [`FrontierRater::finish`] can assemble a [`SearchResult`] uniformly.
pub struct FrontierRater<'a, 'w> {
    setup: &'a mut TuningSetup<'w>,
    pool: Pool,
    protocol: RatingProtocol,
    method: Method,
    budget: CompilationBudget,
    tally: RaterTally,
}

impl<'a, 'w> FrontierRater<'a, 'w> {
    /// Serial-protocol rater on the setup's existing pool (which only
    /// pre-warms compiles; rating itself stays interleaved). This is the
    /// goldens-compatible configuration.
    pub fn serial(setup: &'a mut TuningSetup<'w>, method: Method) -> Self {
        let pool = setup.pool().clone();
        FrontierRater {
            setup,
            pool,
            protocol: RatingProtocol::Serial,
            method,
            budget: CompilationBudget::unlimited(),
            tally: RaterTally::new(method),
        }
    }

    /// Per-candidate-protocol rater: installs `pool` on the setup (so
    /// warm-ups parallelize) and rates every frontier with one job per
    /// candidate. Bit-identical at any `pool` size.
    pub fn pooled(setup: &'a mut TuningSetup<'w>, pool: Pool, method: Method) -> Self {
        setup.set_pool(pool.clone());
        FrontierRater {
            setup,
            pool,
            protocol: RatingProtocol::PerCandidate,
            method,
            budget: CompilationBudget::unlimited(),
            tally: RaterTally::new(method),
        }
    }

    /// Continue the accounting of an earlier rater (a resumed search).
    pub(crate) fn with_tally(mut self, tally: RaterTally) -> Self {
        self.tally = tally;
        self
    }

    /// The accounting so far, handed back for a later
    /// [`FrontierRater::with_tally`].
    pub(crate) fn into_tally(self) -> RaterTally {
        self.tally
    }

    /// Replace the (default unlimited) budget.
    pub fn with_budget(mut self, budget: CompilationBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Rate a candidate frontier against `base`. Charges the budget
    /// (base first, then candidates in order), pre-warms the affordable
    /// frontier, dispatches on the protocol, and accumulates the
    /// search-wide accounting. Returns `None` when the budget cannot
    /// afford the base or a single candidate — the strategy should
    /// return its best-so-far.
    pub fn rate(&mut self, base: OptConfig, candidates: &[OptConfig]) -> Option<FrontierOutcome> {
        let round = self.tally.round;
        self.tally.round += 1;
        if !self.budget.charge_one(base) {
            return None;
        }
        let afford = self.budget.charge(candidates);
        if afford == 0 {
            return None;
        }
        let truncated = afford < candidates.len();
        let candidates = &candidates[..afford];
        // Pre-compile the round's frontier through the shared version
        // cache. Compilation is pure and cached, so this cannot change a
        // rated cycle — it only moves compile work off the rating path.
        let mut warm: Vec<OptConfig> = candidates.to_vec();
        warm.push(base);
        self.setup.warm_frontier(&warm, matches!(self.method, Method::Mbr));
        // The switch decision is made jointly over the whole frontier;
        // per candidate, every job of the attempt rates first.
        let (protocol, pool) = (self.protocol, &self.pool);
        let (out, used) = rate_cascade(
            self.setup,
            self.method,
            candidates.len(),
            round,
            &mut self.tally.events,
            |s, m, attempt| match protocol {
                RatingProtocol::Serial => rate(s, m, base, candidates),
                RatingProtocol::PerCandidate => {
                    let seed = frontier_seed_base(round, attempt);
                    rate_frontier_parallel(s, pool, m, base, candidates, seed)
                }
            },
        );
        self.tally.last_method = used;
        self.tally.ratings += candidates.len();
        Some(FrontierOutcome { out, method: used, rated: candidates.len(), truncated })
    }

    /// Cooperative cancellation point (see [`TuningSetup::check_cancel`]).
    pub fn check_cancel(&self) {
        self.setup.check_cancel();
    }

    /// The setup's tracer (for strategy-level events).
    pub fn tracer(&self) -> &peak_obs::Tracer {
        self.setup.tracer()
    }

    /// The §3 cascade's log so far: one event per rejected rating.
    pub fn events(&self) -> &[DegradeEvent] {
        &self.tally.events
    }

    /// Unique configurations charged so far.
    pub fn spent(&self) -> usize {
        self.budget.spent()
    }

    /// The budget's remaining headroom (`None` = unlimited).
    pub fn remaining(&self) -> Option<usize> {
        self.budget.remaining()
    }

    /// Frontier rounds rated so far (also the seed counter).
    pub fn round(&self) -> usize {
        self.tally.round
    }

    /// The preferred rating method this rater starts each frontier with.
    pub fn method(&self) -> Method {
        self.method
    }

    /// Assemble the uniform [`SearchResult`] for `best`.
    pub fn finish(&self, best: OptConfig) -> SearchResult {
        self.tally.result(self.setup, best)
    }
}

/// A search strategy over the flag space, driven through a
/// [`FrontierRater`]. Implementations must be deterministic functions of
/// (workload, machine, method, seed, budget) — thread count must never
/// leak into the result (the differential suite enforces this).
pub trait SearchStrategy {
    /// Stable strategy name (used in job specs, bench artifacts, CLI).
    fn name(&self) -> &'static str;
    /// Run the search to completion (or budget exhaustion) and return
    /// the best configuration found, with uniform accounting.
    fn run(&self, rater: &mut FrontierRater<'_, '_>) -> SearchResult;
}

/// The paper's Iterative Elimination, expressed over the rater. With a
/// [`RatingProtocol::Serial`] rater and an unlimited budget this is
/// [`iterative_elimination_from`](crate::search::iterative_elimination_from)
/// (the goldens suite pins it); with a pooled rater it is the parallel
/// frontier search.
#[derive(Debug, Clone)]
pub struct IterativeElimination {
    /// Start configuration (O3 is the paper's protocol; the serve
    /// daemon's warm start supplies a nearest-neighbour config).
    pub start: OptConfig,
    /// Round cap (each round removes at most one flag).
    pub max_rounds: usize,
}

impl Default for IterativeElimination {
    fn default() -> Self {
        IterativeElimination { start: OptConfig::o3(), max_rounds: MAX_IE_ROUNDS }
    }
}

impl SearchStrategy for IterativeElimination {
    fn name(&self) -> &'static str {
        "ie"
    }

    fn run(&self, rater: &mut FrontierRater<'_, '_>) -> SearchResult {
        let mut base = self.start;
        loop {
            match self.round(rater, base) {
                ControlFlow::Continue(next) => base = next,
                ControlFlow::Break(best) => return rater.finish(best),
            }
        }
    }
}

impl IterativeElimination {
    /// One IE round from `base`: rate every single-flag removal and
    /// remove the flag whose removal helps most. Continues with the new
    /// base, or breaks with the final one once the rater has rated
    /// [`max_rounds`](Self::max_rounds) frontiers, the round removed
    /// nothing, or the budget cut the frontier short. `run` loops over
    /// it; the checkpointed [`Tuner`](crate::tuner::Tuner) calls it once
    /// per step. The round count is the rater's, so the rater must be
    /// fresh or carry this search's own resumed tally.
    pub(crate) fn round(
        &self,
        rater: &mut FrontierRater<'_, '_>,
        base: OptConfig,
    ) -> ControlFlow<OptConfig, OptConfig> {
        let round = rater.round();
        if round >= self.max_rounds {
            return ControlFlow::Break(base);
        }
        let flags = base.enabled_flags();
        let IeRound::Rated { candidates, fo, best } = ie_round(rater, base, &flags) else {
            return ControlFlow::Break(base);
        };
        let improvements = &fo.out.improvements;
        let removed = best.filter(|&i| improvements[i] >= MIN_GAIN);
        let tracer = rater.tracer();
        event!(
            tracer,
            "search.round",
            round = round as u64,
            method = fo.method.name(),
            best_improvement = best.map_or(1.0, |i| improvements[i]),
            removed_flag = removed.map(|i| flags[i].name()),
            switches = rater.events().len() as u64,
        );
        match removed {
            Some(i) if !fo.truncated => ControlFlow::Continue(candidates[i]),
            Some(i) => ControlFlow::Break(candidates[i]),
            None => ControlFlow::Break(base),
        }
    }
}

/// What one [`ie_round`] produced.
enum IeRound {
    /// No flag of the subset is still enabled in the base.
    Empty,
    /// The budget could not afford the frontier.
    Unaffordable,
    /// The frontier was rated; `best` is [`pick_best`] over it.
    Rated { candidates: Vec<OptConfig>, fo: FrontierOutcome, best: Option<usize> },
}

/// One Iterative Elimination round over `flags` (a subset of the flags
/// enabled in `base`): cancellation point, round counter, then rate every
/// single-flag removal against `base` and pick the best. The caller
/// decides whether the pick clears [`MIN_GAIN`].
fn ie_round(rater: &mut FrontierRater<'_, '_>, base: OptConfig, flags: &[Flag]) -> IeRound {
    rater.check_cancel();
    core_metrics().ie_rounds.inc();
    if flags.is_empty() {
        return IeRound::Empty;
    }
    let candidates: Vec<OptConfig> = flags.iter().map(|&f| base.without(f)).collect();
    let Some(fo) = rater.rate(base, &candidates) else {
        return IeRound::Unaffordable;
    };
    let best = pick_best(&fo.out.improvements, fo.rated);
    IeRound::Rated { candidates, fo, best }
}

/// Finalists re-rated in a strategy's closing verification round (GA
/// and phase-clustered IE both end with one).
pub const GA_FINALISTS: usize = 8;

/// Record `cfg` with its rated improvement in a contender list, keeping
/// the best rating seen per distinct configuration. Strictly-greater
/// updates keep the earliest rating on exact ties, so the list order is
/// a pure function of the rating sequence.
fn track_contender(contenders: &mut Vec<(f64, OptConfig)>, impr: f64, cfg: OptConfig) {
    match contenders.iter_mut().find(|(_, c)| c.bits() == cfg.bits()) {
        Some(e) => {
            if impr.total_cmp(&e.0).is_gt() {
                e.0 = impr;
            }
        }
        None => contenders.push((impr, cfg)),
    }
}

/// Closing verification round shared by GA and clustered IE: keep the
/// [`GA_FINALISTS`] strongest contenders (stable sort, so ties stay in
/// first-rated order) and re-rate them against `base` in one frontier —
/// cross-round ratings are not directly comparable (each round draws its
/// own eval windows), so the winner is picked where the comparison is
/// fair. Every finalist was already charged, so the round is
/// budget-free. Returns the pick if it clears [`MIN_GAIN`], else `base`;
/// `None` when the rater refused the round (each strategy keeps its own
/// fallback for that).
fn verify_finalists(
    rater: &mut FrontierRater<'_, '_>,
    base: OptConfig,
    contenders: &mut Vec<(f64, OptConfig)>,
) -> Option<OptConfig> {
    contenders.sort_by(|a, b| b.0.total_cmp(&a.0));
    contenders.truncate(GA_FINALISTS);
    rater.check_cancel();
    let finalists: Vec<OptConfig> = contenders.iter().map(|&(_, c)| c).collect();
    let fo = rater.rate(base, &finalists)?;
    Some(match pick_best(&fo.out.improvements, fo.rated) {
        Some(i) if fo.out.improvements[i] >= MIN_GAIN => finalists[i],
        _ => base,
    })
}

/// Genetic-search knobs. All probabilities are integer per-mille so the
/// population trajectory is an exact function of the seed.
#[derive(Debug, Clone)]
pub struct GaConfig {
    /// Population size (individual 0 of generation 0 is always O3).
    pub population: usize,
    /// Generation cap (the budget usually stops the search first).
    pub generations: usize,
    /// Tournament size for parent selection.
    pub tournament: usize,
    /// Per-bit mutation probability, per mille.
    pub mutation_per_mille: u64,
    /// Individuals carried over unchanged each generation.
    pub elitism: usize,
    /// Per-flag off probability when seeding generation 0, per mille.
    pub init_off_per_mille: u64,
    /// PRNG seed (derive from the job seed for replayability).
    pub seed: u64,
}

impl Default for GaConfig {
    fn default() -> Self {
        GaConfig {
            population: 12,
            generations: 24,
            tournament: 3,
            mutation_per_mille: 40,
            elitism: 2,
            init_off_per_mille: 250,
            seed: 1,
        }
    }
}

/// Uniform crossover: each flag bit comes from parent `a` or `b`
/// according to a fresh random mask. The result is masked to the flag
/// word by construction (both parents are valid configs).
pub fn ga_uniform_crossover(rng: &mut SplitMix64, a: OptConfig, b: OptConfig) -> OptConfig {
    let mask = rng.next() & ((1u64 << NUM_FLAGS) - 1);
    OptConfig::from_bits((a.bits() & mask) | (b.bits() & !mask))
}

/// Per-bit mutation: each of the 38 flags flips independently with
/// `per_mille`/1000 probability. Draws one `chance` per flag in bit
/// order, so the trajectory is seed-exact.
pub fn ga_mutate(rng: &mut SplitMix64, cfg: OptConfig, per_mille: u64) -> OptConfig {
    let mut bits = cfg.bits();
    for f in ALL_FLAGS {
        if rng.chance(per_mille) {
            bits ^= 1u64 << f.bit();
        }
    }
    OptConfig::from_bits(bits)
}

/// Tournament selection: best of `k` uniform draws, ties toward the
/// lowest population index.
fn ga_tournament(rng: &mut SplitMix64, fitness: &[f64], k: usize) -> usize {
    let n = fitness.len().max(1) as u64;
    let mut best = rng.below(n) as usize;
    for _ in 1..k.max(1) {
        let c = rng.below(n) as usize;
        if fitness[c].total_cmp(&fitness[best]).is_gt()
            || (fitness[c].total_cmp(&fitness[best]).is_eq() && c < best)
        {
            best = c;
        }
    }
    best
}

/// Build the next generation: the `elitism` fittest individuals carry
/// over unchanged (ties toward the lowest index), the rest are children
/// of tournament-selected parents via uniform crossover + per-bit
/// mutation. Pure function of (rng state, population, fitness, config).
pub fn ga_next_generation(
    rng: &mut SplitMix64,
    pop: &[OptConfig],
    fitness: &[f64],
    cfg: &GaConfig,
) -> Vec<OptConfig> {
    let mut order: Vec<usize> = (0..pop.len()).collect();
    order.sort_by(|&a, &b| fitness[b].total_cmp(&fitness[a]).then(a.cmp(&b)));
    let mut next: Vec<OptConfig> =
        order.iter().take(cfg.elitism.min(pop.len())).map(|&i| pop[i]).collect();
    while next.len() < pop.len() {
        let pa = ga_tournament(rng, fitness, cfg.tournament);
        let pb = ga_tournament(rng, fitness, cfg.tournament);
        let child = ga_uniform_crossover(rng, pop[pa], pop[pb]);
        next.push(ga_mutate(rng, child, cfg.mutation_per_mille));
    }
    next
}

/// Seeded genetic search (FOGA-style): fitness is the rated improvement
/// over a fixed O3 base, so one frontier rating per generation scores
/// the whole population. Generation 0 additionally scores the O3
/// single-removal frontier (memetic seeding — IE's round-1 knowledge at
/// the same budget), and the run ends with a budget-free verification
/// round that re-rates the top [`GA_FINALISTS`] configurations under one
/// set of eval windows — cross-round ratings are not directly
/// comparable, so the winner is picked where the comparison is fair.
/// The answer is the verified best if it clears [`MIN_GAIN`], else O3 —
/// the search can only tie or beat the baseline, never regress below
/// it.
#[derive(Debug, Clone, Default)]
pub struct GeneticSearch {
    /// Operator and schedule knobs.
    pub config: GaConfig,
}

impl GeneticSearch {
    /// Default GA seeded from the job seed.
    pub fn seeded(seed: u64) -> Self {
        GeneticSearch { config: GaConfig { seed, ..GaConfig::default() } }
    }
}

impl SearchStrategy for GeneticSearch {
    fn name(&self) -> &'static str {
        "ga"
    }

    fn run(&self, rater: &mut FrontierRater<'_, '_>) -> SearchResult {
        let cfg = &self.config;
        let mut rng = SplitMix64::new(cfg.seed);
        let base = OptConfig::o3();
        let mut pop: Vec<OptConfig> = Vec::with_capacity(cfg.population.max(1));
        pop.push(base);
        while pop.len() < cfg.population.max(1) {
            let mut bits = base.bits();
            for f in ALL_FLAGS {
                if rng.chance(cfg.init_off_per_mille) {
                    bits &= !(1u64 << f.bit());
                }
            }
            pop.push(OptConfig::from_bits(bits));
        }
        // Best-so-far, anchored at (O3, 1.0): strictly-greater updates
        // keep the earliest individual on exact ties.
        let mut best = (1.0f64, base);
        // Best rated improvement seen per distinct config — the final
        // verification round re-rates the strongest of these under one
        // set of windows, because cross-round ratings are not directly
        // comparable (each frontier round draws its own eval windows).
        let mut contenders: Vec<(f64, OptConfig)> = Vec::new();
        for generation in 0..cfg.generations {
            rater.check_cancel();
            let mut candidates = pop.clone();
            if generation == 0 {
                // Memetic seeding: score the O3 single-removal frontier
                // alongside generation 0, so best-so-far starts no worse
                // than the best single-flag elimination (the knowledge
                // IE's round 1 buys with the same budget). These extras
                // only feed best-so-far — the population evolves from
                // its own fitness slice, keeping the GA dynamics pure.
                candidates
                    .extend(base.enabled_flags().iter().map(|&f| base.without(f)));
            }
            let Some(fo) = rater.rate(base, &candidates) else {
                break;
            };
            for (i, &cand) in candidates.iter().enumerate().take(fo.rated) {
                let impr = fo.out.improvements[i];
                if impr.total_cmp(&best.0).is_gt() {
                    best = (impr, cand);
                }
                track_contender(&mut contenders, impr, cand);
            }
            if fo.truncated {
                break;
            }
            let fitness = &fo.out.improvements[..pop.len()];
            pop = ga_next_generation(&mut rng, &pop, fitness, cfg);
        }
        // Final verification round (the best-so-far answers when there
        // is nothing to compare or the rater refuses the round).
        let fallback = if best.0 >= MIN_GAIN { best.1 } else { base };
        let winner = if contenders.len() > 1 {
            verify_finalists(rater, base, &mut contenders).unwrap_or(fallback)
        } else {
            fallback
        };
        rater.finish(winner)
    }
}

/// Phase-clustered IE knobs.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Extra probe rounds beyond probe 0 (the O3 single-removal round).
    pub probes: usize,
    /// Per-flag off probability for random probe bases, per mille.
    pub probe_off_per_mille: u64,
    /// Maximum flags per cluster.
    pub max_cluster: usize,
    /// |Pearson r| threshold (per mille) for joining a cluster.
    pub corr_threshold_per_mille: u64,
    /// PRNG seed for probe bases.
    pub seed: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            probes: 2,
            probe_off_per_mille: 200,
            max_cluster: 8,
            corr_threshold_per_mille: 500,
            seed: 1,
        }
    }
}

/// Pearson correlation of two equal-length series; returns 0.0 for
/// degenerate (zero-variance or empty) inputs.
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len().min(ys.len());
    if n == 0 {
        return 0.0;
    }
    let nf = n as f64;
    let mx = xs[..n].iter().sum::<f64>() / nf;
    let my = ys[..n].iter().sum::<f64>() / nf;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for i in 0..n {
        let dx = xs[i] - mx;
        let dy = ys[i] - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx <= 0.0 || syy <= 0.0 {
        return 0.0;
    }
    sxy / (sxx.sqrt() * syy.sqrt())
}

/// Greedy interaction clustering: order flags by probe-0 impact
/// (|delta − 1|, ties toward the lowest index), seed a cluster with the
/// most impactful unassigned flag, then pull in unassigned flags whose
/// rating-delta column correlates (|r| ≥ threshold) until `max_cluster`.
/// Returns clusters as index lists into the flag order of `deltas`
/// columns, in seed-impact order.
pub fn cluster_flags(
    deltas: &[Vec<f64>],
    impact: &[f64],
    max_cluster: usize,
    corr_threshold: f64,
) -> Vec<Vec<usize>> {
    let n = impact.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| impact[b].total_cmp(&impact[a]).then(a.cmp(&b)));
    let column = |i: usize| -> Vec<f64> { deltas.iter().map(|row| row[i]).collect() };
    let mut assigned = vec![false; n];
    let mut clusters: Vec<Vec<usize>> = Vec::new();
    for &s in &order {
        if assigned[s] {
            continue;
        }
        assigned[s] = true;
        let mut cluster = vec![s];
        let cs = column(s);
        for &j in &order {
            if cluster.len() >= max_cluster.max(1) {
                break;
            }
            if assigned[j] {
                continue;
            }
            if pearson(&cs, &column(j)).abs() >= corr_threshold {
                assigned[j] = true;
                cluster.push(j);
            }
        }
        clusters.push(cluster);
    }
    clusters
}

/// Phase-clustered Iterative Elimination (multiple-phase-learning
/// style): a probe phase measures each flag's removal delta across a few
/// bases, flags are grouped by rating-delta correlation, and IE then
/// runs *within* each cluster against the evolving global base —
/// roughly O(Σ nᵢ²) frontier compiles instead of O(n²). Probe 0 is
/// exactly IE's round-1 frontier from O3, so the first cluster's opening
/// round re-uses already-charged configs (budget-free by the dedup
/// rule).
///
/// The probe phase is budget-aware: when the headroom left after probe 0
/// cannot fund the extra probes *plus* at least one round of in-cluster
/// exploitation, the strategy degrades to plain IE rounds over the full
/// flag set — spending scarce compiles on correlation estimates it could
/// never exploit would forfeit the search entirely. Like the GA, the run
/// ends with a budget-free verification round over the strongest
/// contenders (probe-0 removals and every accepted elimination step), so
/// budget exhaustion at any point still returns the best verified
/// configuration, and the answer can never regress below O3.
#[derive(Debug, Clone, Default)]
pub struct PhaseClusteredIe {
    /// Probe and clustering knobs.
    pub config: ClusterConfig,
}

impl PhaseClusteredIe {
    /// Default clustered IE seeded from the job seed.
    pub fn seeded(seed: u64) -> Self {
        PhaseClusteredIe { config: ClusterConfig { seed, ..ClusterConfig::default() } }
    }
}

/// Clustered IE's elimination phase over `subset` (flags of the start
/// configuration): up to `rounds` [`ie_round`]s against the evolving
/// `base`. Each accepted removal multiplies its gain into `chain` and
/// joins the contenders. Stops early when no removal clears
/// [`MIN_GAIN`] or no flag of the subset is left; returns `true` when
/// the budget ran out (a round was unaffordable or truncated).
fn eliminate_within(
    rater: &mut FrontierRater<'_, '_>,
    subset: &[Flag],
    rounds: usize,
    base: &mut OptConfig,
    chain: &mut f64,
    contenders: &mut Vec<(f64, OptConfig)>,
) -> bool {
    for _ in 0..rounds {
        let live: Vec<Flag> = subset.iter().copied().filter(|&f| base.enabled(f)).collect();
        let (candidates, fo, best) = match ie_round(rater, *base, &live) {
            IeRound::Empty => return false,
            IeRound::Unaffordable => return true,
            IeRound::Rated { candidates, fo, best } => (candidates, fo, best),
        };
        match best {
            Some(i) if fo.out.improvements[i] >= MIN_GAIN => {
                *chain *= fo.out.improvements[i];
                *base = candidates[i];
                track_contender(contenders, *chain, *base);
            }
            _ => return fo.truncated,
        }
        if fo.truncated {
            return true;
        }
    }
    false
}

impl SearchStrategy for PhaseClusteredIe {
    fn name(&self) -> &'static str {
        "clustered"
    }

    fn run(&self, rater: &mut FrontierRater<'_, '_>) -> SearchResult {
        let cfg = &self.config;
        let mut rng = SplitMix64::new(cfg.seed);
        let base0 = OptConfig::o3();
        let all: Vec<Flag> = base0.enabled_flags();
        // Probe 0: the O3 single-removal frontier (== IE round 1).
        let IeRound::Rated { candidates: cands0, fo: p0, best: best0 } =
            ie_round(rater, base0, &all)
        else {
            return rater.finish(base0);
        };
        let d0: Vec<f64> = (0..all.len())
            .map(|i| if i < p0.rated { p0.out.improvements[i] } else { 1.0 })
            .collect();
        // Every probe-0 removal is a contender: if the budget dies at any
        // later point, the verification round still has IE round-1's
        // knowledge to fall back on.
        let mut contenders: Vec<(f64, OptConfig)> = Vec::new();
        for (i, &cand) in cands0.iter().enumerate().take(p0.rated) {
            track_contender(&mut contenders, p0.out.improvements[i], cand);
        }
        let mut exhausted = p0.truncated;
        // Budget-aware probing: the extra probes plus at least one round
        // of in-cluster exploitation cost roughly `probes + 1` further
        // full frontiers. With less headroom than that the probe phase
        // would starve the exploitation it exists to guide, so degrade
        // to plain IE rounds instead — probe 0 is exactly IE's round-1
        // frontier, so nothing already spent is wasted.
        let probe_cost = (cfg.probes + 1) * (all.len() + 1);
        let probing = !exhausted && rater.remaining().is_none_or(|r| r >= probe_cost);
        // `base` evolves by ≥ MIN_GAIN elimination steps; `chain` is the
        // product of the accepted per-round gains — the vs-O3 estimate
        // that ranks the chain against probe-0 singles when picking
        // verification finalists.
        let mut base = base0;
        let mut chain = 1.0f64;
        if probing {
            let mut deltas: Vec<Vec<f64>> = vec![d0.clone()];
            // Extra probes from random bases: flags disabled in the base
            // get a neutral 1.0 delta for that row.
            for _probe in 0..cfg.probes {
                if exhausted {
                    break;
                }
                rater.check_cancel();
                let mut bits = base0.bits();
                for f in &all {
                    if rng.chance(cfg.probe_off_per_mille) {
                        bits &= !(1u64 << f.bit());
                    }
                }
                let pb = OptConfig::from_bits(bits);
                let live: Vec<usize> = (0..all.len()).filter(|&i| pb.enabled(all[i])).collect();
                if live.is_empty() {
                    continue;
                }
                let cands: Vec<OptConfig> = live.iter().map(|&i| pb.without(all[i])).collect();
                let Some(po) = rater.rate(pb, &cands) else {
                    exhausted = true;
                    break;
                };
                let mut row = vec![1.0f64; all.len()];
                for (k, &i) in live.iter().enumerate().take(po.rated) {
                    row[i] = po.out.improvements[k];
                }
                deltas.push(row);
                exhausted = po.truncated;
            }
            let impact: Vec<f64> = d0.iter().map(|&d| (d - 1.0).abs()).collect();
            let threshold = cfg.corr_threshold_per_mille as f64 / 1000.0;
            let clusters = cluster_flags(&deltas, &impact, cfg.max_cluster, threshold);
            // In-cluster IE against the evolving global base.
            for cluster in &clusters {
                if exhausted {
                    break;
                }
                let members: Vec<Flag> = cluster.iter().map(|&i| all[i]).collect();
                let rounds = members.len();
                exhausted =
                    eliminate_within(rater, &members, rounds, &mut base, &mut chain, &mut contenders);
            }
        } else {
            // Degenerate tight-budget path: probe 0 is consumed as IE's
            // round 1, and plain full-frontier IE rounds spend whatever
            // headroom remains.
            if let Some(i) = best0.filter(|&i| p0.out.improvements[i] >= MIN_GAIN) {
                chain = p0.out.improvements[i];
                base = cands0[i];
            }
            if base.bits() != base0.bits() && !exhausted {
                let rounds = MAX_IE_ROUNDS - 1;
                eliminate_within(rater, &all, rounds, &mut base, &mut chain, &mut contenders);
            }
        }
        // Final verification round, mirroring the GA's, against O3: the
        // MIN_GAIN guard means the answer never regresses below O3. If the
        // rater refuses the round, the strongest contender answers.
        let winner = if contenders.is_empty() {
            base0
        } else {
            verify_finalists(rater, base0, &mut contenders).unwrap_or_else(|| {
                if contenders[0].0 >= MIN_GAIN {
                    contenders[0].1
                } else {
                    base0
                }
            })
        };
        rater.finish(winner)
    }
}

/// Biased random search (Cooper-style), ported onto the rater: sample
/// configurations with each flag independently off with a per-mille
/// probability, rate the whole batch as one frontier, keep the best if
/// it clears [`MIN_GAIN`]. The budget truncates the batch, which is what
/// makes it the natural equal-budget baseline.
#[derive(Debug, Clone)]
pub struct RandomSearchStrategy {
    /// Sample count (the budget usually truncates this).
    pub samples: usize,
    /// Per-flag off probability, per mille.
    pub p_off_per_mille: u64,
    /// PRNG seed.
    pub seed: u64,
}

impl RandomSearchStrategy {
    /// Default random search seeded from the job seed.
    pub fn seeded(seed: u64) -> Self {
        RandomSearchStrategy { samples: 256, p_off_per_mille: 300, seed }
    }
}

impl SearchStrategy for RandomSearchStrategy {
    fn name(&self) -> &'static str {
        "random"
    }

    fn run(&self, rater: &mut FrontierRater<'_, '_>) -> SearchResult {
        let mut rng = SplitMix64::new(self.seed);
        let base = OptConfig::o3();
        let candidates: Vec<OptConfig> = (0..self.samples)
            .map(|_| {
                let mut bits = base.bits();
                for f in ALL_FLAGS {
                    if rng.chance(self.p_off_per_mille) {
                        bits &= !(1u64 << f.bit());
                    }
                }
                OptConfig::from_bits(bits)
            })
            .collect();
        rater.check_cancel();
        let Some(fo) = rater.rate(base, &candidates) else {
            return rater.finish(base);
        };
        let best = match pick_best(&fo.out.improvements, fo.rated) {
            Some(i) if fo.out.improvements[i] >= MIN_GAIN => candidates[i],
            _ => base,
        };
        rater.finish(best)
    }
}

/// The registered strategies, by stable name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyKind {
    /// Iterative Elimination (the paper's search; the default).
    Ie,
    /// Seeded genetic search.
    Ga,
    /// Phase-clustered IE.
    ClusteredIe,
    /// Biased random search (the equal-budget baseline).
    Random,
}

impl StrategyKind {
    /// Stable name (job specs, bench artifacts, CLI).
    pub fn name(&self) -> &'static str {
        match self {
            StrategyKind::Ie => "ie",
            StrategyKind::Ga => "ga",
            StrategyKind::ClusteredIe => "clustered",
            StrategyKind::Random => "random",
        }
    }

    /// All kinds, in shoot-out order.
    pub fn all() -> [StrategyKind; 4] {
        [StrategyKind::Ie, StrategyKind::Ga, StrategyKind::ClusteredIe, StrategyKind::Random]
    }
}

/// Deterministic strategy seed for a (workload, machine) pair: FNV-1a
/// over the two names with a separator byte. Seeded strategies stay
/// replayable without storing per-job seeds, and different jobs explore
/// different trajectories.
pub fn strategy_seed(workload: &str, machine: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in workload.as_bytes().iter().chain(&[0x1fu8]).chain(machine.as_bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Resolve a strategy name (as accepted in job specs and the serve
/// protocol). `None` for unknown names.
pub fn strategy_kind_by_name(name: &str) -> Option<StrategyKind> {
    match name {
        "ie" => Some(StrategyKind::Ie),
        "ga" | "genetic" => Some(StrategyKind::Ga),
        "clustered" | "clustered-ie" => Some(StrategyKind::ClusteredIe),
        "random" => Some(StrategyKind::Random),
        _ => None,
    }
}

/// Instantiate a strategy with its default knobs, seeded off the job
/// seed (IE takes no randomness and ignores the seed).
pub fn build_strategy(kind: StrategyKind, seed: u64) -> Box<dyn SearchStrategy> {
    match kind {
        StrategyKind::Ie => Box::new(IterativeElimination::default()),
        StrategyKind::Ga => Box::new(GeneticSearch::seeded(seed)),
        StrategyKind::ClusteredIe => Box::new(PhaseClusteredIe::seeded(seed)),
        StrategyKind::Random => Box::new(RandomSearchStrategy::seeded(seed)),
    }
}

/// Run `kind` on a pooled (per-candidate, thread-invariant) rater with
/// an optional compilation budget; also returns the unique
/// configurations charged — the number another strategy must be capped
/// at for an equal-budget comparison. (Kept out of [`SearchResult`] so
/// the golden JSON schema of the Table 1 pipeline stays untouched.)
pub fn search_with_strategy_spent(
    setup: &mut TuningSetup<'_>,
    pool: &Pool,
    method: Method,
    kind: StrategyKind,
    budget: Option<usize>,
    seed: u64,
) -> (SearchResult, usize) {
    let strategy = build_strategy(kind, seed);
    let mut rater = FrontierRater::pooled(setup, pool.clone(), method);
    if let Some(n) = budget {
        rater = rater.with_budget(CompilationBudget::limited(n));
    }
    let result = strategy.run(&mut rater);
    let spent = rater.spent();
    (result, spent)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_full_range() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let xs: Vec<u64> = (0..8).map(|_| a.next()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next()).collect();
        assert_eq!(xs, ys);
        assert!(xs.iter().any(|&x| x > u32::MAX as u64), "uses the full word");
    }

    #[test]
    fn budget_dedups_and_truncates() {
        let mut b = CompilationBudget::limited(3);
        let o3 = OptConfig::o3();
        let c1 = o3.without(ALL_FLAGS[0]);
        let c2 = o3.without(ALL_FLAGS[1]);
        let c3 = o3.without(ALL_FLAGS[2]);
        assert!(b.charge_one(o3));
        assert!(b.charge_one(o3), "re-charging a seen config is free");
        assert_eq!(b.spent(), 1);
        // Prefix semantics: c1 and c2 fit, c3 does not.
        assert_eq!(b.charge(&[c1, o3, c2, c3]), 3);
        assert_eq!(b.spent(), 3);
        assert!(b.charge_one(c2), "seen configs stay free after exhaustion");
        assert!(!b.charge_one(c3));
    }

    #[test]
    fn crossover_and_mutation_stay_in_flag_word() {
        let mut rng = SplitMix64::new(7);
        let mask = (1u64 << NUM_FLAGS) - 1;
        for _ in 0..200 {
            let a = OptConfig::from_bits(rng.next() & mask);
            let b = OptConfig::from_bits(rng.next() & mask);
            let child = ga_uniform_crossover(&mut rng, a, b);
            assert_eq!(child.bits() & !mask, 0);
            let m = ga_mutate(&mut rng, child, 500);
            assert_eq!(m.bits() & !mask, 0);
        }
    }

    #[test]
    fn strategy_names_round_trip() {
        for kind in StrategyKind::all() {
            assert_eq!(strategy_kind_by_name(kind.name()), Some(kind));
        }
        assert_eq!(strategy_kind_by_name("genetic"), Some(StrategyKind::Ga));
        assert_eq!(strategy_kind_by_name("clustered-ie"), Some(StrategyKind::ClusteredIe));
        assert_eq!(strategy_kind_by_name("simulated-annealing"), None);
    }

    #[test]
    fn pearson_basics() {
        assert!((pearson(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]) - 1.0).abs() < 1e-12);
        assert!((pearson(&[1.0, 2.0, 3.0], &[3.0, 2.0, 1.0]) + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&[1.0, 1.0], &[1.0, 2.0]), 0.0, "degenerate variance");
        assert_eq!(pearson(&[], &[]), 0.0);
    }

    #[test]
    fn clustering_respects_max_size_and_covers_all() {
        // Two perfectly correlated groups of columns.
        let deltas = vec![
            vec![1.1, 1.1, 1.0, 0.9, 0.9],
            vec![1.2, 1.2, 1.0, 0.8, 0.8],
            vec![1.0, 1.0, 1.0, 1.0, 1.0],
        ];
        let impact = vec![0.1, 0.1, 0.0, 0.1, 0.1];
        let clusters = cluster_flags(&deltas, &impact, 2, 0.5);
        let mut seen: Vec<usize> = clusters.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4], "every flag assigned exactly once");
        assert!(clusters.iter().all(|c| c.len() <= 2));
    }
}
