//! Process-wide compile/prepare cache for tuning-section versions, plus
//! the two other job-invariant memos that share its lifecycle.
//!
//! Every layer of the tuning pipeline — rating calls, the checkpointed
//! [`Tuner`](crate::Tuner), the degradation cascade, the consultant's MBR
//! profile, the Table 1 collectors, production measurement — needs a
//! [`PreparedVersion`] for some `(workload, config, machine)` triple, and
//! until now each call site ran `peak_opt::optimize` +
//! `PreparedVersion::prepare` from scratch. Both are pure functions of
//! their inputs: the workload's program is a fixed artifact, the
//! optimization pipeline is deterministic, and register allocation
//! depends only on the machine spec. So one shared cache keyed by
//! (workload, TS, instrumented?, config bits, machine kind) can hand out
//! `Arc<PreparedVersion>` clones forever without changing a single
//! simulated cycle — the "never compile the same version twice"
//! amortization that FOGA-style flag-evaluation caches and the Collective
//! Tuning Initiative build their tuning-time wins on.
//!
//! The same argument covers two more per-job computations (DESIGN.md
//! §18): the ref-input **production measurement** behind every
//! [`TuneReport`](crate::TuneReport) (a pure function of program, flag
//! configuration, machine, and input — [`VersionCache::production_time`])
//! and the §3 **consultation** ([`VersionCache::consultation`]). Both
//! memos live in this cache so [`VersionCache::clear`] drops them with
//! the versions.
//!
//! The cache is process-wide ([`VersionCache::global`]) because the
//! experiment drivers (`table1`, `figure7`) fan benchmarks out across a
//! shared [`Pool`] and repeat configurations across cells, rating
//! retries, the CBR→MBR→RBR→WHL cascade, and checkpoint resume.
//! Every memo computes outside the map lock behind an **in-flight
//! gate**: the first thread to miss a key installs a building slot and
//! computes; concurrent requesters of the same key block on the gate and
//! share the one result, so racing workers never compile (or measure, or
//! consult) the same key twice (the run counters are exact).
//! [`VersionCache::warm`] exposes that as a bulk pre-compilation API: the
//! search layer hands a round's whole candidate frontier to the pool and
//! rating then runs against a hot cache. Entries are never evicted — the
//! whole 38-flag search space for every Table 1 workload is a few
//! hundred small IR programs, and the other two memos add at most two
//! `u64`s per served job and one consultation per (workload, machine) —
//! but
//! [`VersionCache::clear`] exists for long-lived embedders.

use crate::consultant::Consultation;
use crate::sched::Pool;
use peak_opt::{CompiledVersion, OptConfig};
use peak_sim::{ExecTier, MachineKind, MachineSpec, PreparedVersion};
use peak_workloads::{Dataset, Workload};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Identity of one compiled + prepared version.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct VersionKey {
    /// Benchmark name (workloads are fixed artifacts, so the name
    /// identifies the program).
    pub workload: &'static str,
    /// Tuning-section name.
    pub ts: &'static str,
    /// Whether the source is the MBR-instrumented variant of the TS
    /// (deterministically derived from the workload, so the flag
    /// identifies it).
    pub instrumented: bool,
    /// Optimization configuration bits ([`OptConfig::bits`]).
    pub config_bits: u64,
    /// Target machine (register allocation and pre-decoding depend on it).
    pub machine: MachineKind,
    /// Execution tier the version is requested for. The prepared
    /// artifact itself is tier-independent, but the lazily-attached
    /// native backend (and its remembered refusal) is per-artifact
    /// state: sharing one artifact across tiers would let a jit-tier
    /// consumer's deopt memo leak into predecoded-tier accounting, and
    /// tier-forced A/B drivers (`hotpath --jit`) need genuinely
    /// independent entries.
    pub tier: ExecTier,
}

impl VersionKey {
    /// Key for the plain (uninstrumented) TS of `workload`, under the
    /// process default execution tier (`PEAK_TIER`).
    pub fn plain(workload: &dyn Workload, cfg: OptConfig, machine: MachineKind) -> Self {
        VersionKey {
            workload: workload.name(),
            ts: workload.ts_name(),
            instrumented: false,
            config_bits: cfg.bits(),
            machine,
            tier: ExecTier::from_env(),
        }
    }

    /// Key for the MBR-instrumented TS of `workload`.
    pub fn instrumented(workload: &dyn Workload, cfg: OptConfig, machine: MachineKind) -> Self {
        VersionKey { instrumented: true, ..Self::plain(workload, cfg, machine) }
    }

    /// The same key pinned to an explicit execution tier (tier-forced
    /// drivers and A/B benchmarks).
    pub fn with_tier(self, tier: ExecTier) -> Self {
        VersionKey { tier, ..self }
    }
}

/// Identity of one memoized production measurement: the version that
/// runs (its key carries the execution tier, so tier-forced A/B drivers
/// keep independent entries) and the input it runs on.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ProductionKey {
    /// The measured version (plain TS; see [`VersionKey::plain`]).
    version: VersionKey,
    /// Input set of the production run.
    dataset: Dataset,
}

/// Identity of one memoized consultation. The consultant's output is
/// tier-independent (every tier yields bit-identical profile timings),
/// so the tier is not part of the key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ConsultKey {
    workload: &'static str,
    ts: &'static str,
    machine: MachineKind,
}

impl ConsultKey {
    fn of(workload: &dyn Workload, machine: MachineKind) -> Self {
        ConsultKey { workload: workload.name(), ts: workload.ts_name(), machine }
    }
}

/// Counter snapshot of one single-flight memo.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoStats {
    /// Lookups served from a ready entry.
    pub hits: u64,
    /// Lookups that did not find a ready entry (each triggers or waits
    /// for exactly one run).
    pub misses: u64,
    /// Computations actually performed. `misses - runs` lookups were
    /// coalesced onto a concurrent run of the same key.
    pub runs: u64,
    /// Missing lookups that blocked on another thread's in-flight run
    /// instead of computing themselves.
    pub coalesced: u64,
}

impl MemoStats {
    /// Counters accumulated since `earlier`.
    pub fn delta(&self, earlier: &MemoStats) -> MemoStats {
        MemoStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            runs: self.runs.saturating_sub(earlier.runs),
            coalesced: self.coalesced.saturating_sub(earlier.coalesced),
        }
    }
}

/// Counter snapshot of a cache (monotonic; taken with
/// [`VersionCache::stats`]). The top-level fields count the version
/// memo; `production` and `consult` count the other two.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that did not find a ready version (each triggers or waits
    /// for exactly one compile).
    pub misses: u64,
    /// Compile+prepare executions actually performed. With the in-flight
    /// gate this counts *unique work*: `misses - compiles` lookups were
    /// coalesced onto a concurrent compile of the same key.
    pub compiles: u64,
    /// Missing lookups that blocked on another thread's in-flight
    /// compile instead of compiling themselves.
    pub coalesced: u64,
    /// Production-measurement memo ([`VersionCache::production_time`]).
    pub production: MemoStats,
    /// Consultation memo ([`VersionCache::consultation`]).
    pub consult: MemoStats,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counters accumulated since `earlier`.
    pub fn delta(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            compiles: self.compiles.saturating_sub(earlier.compiles),
            coalesced: self.coalesced.saturating_sub(earlier.coalesced),
            production: self.production.delta(&earlier.production),
            consult: self.consult.delta(&earlier.consult),
        }
    }

    /// The one human-readable summary line every consumer prints
    /// (figure7's stderr report, `peak_serve stats`), so the format
    /// lives in exactly one place. `entries` is
    /// [`VersionCache::len`] at render time.
    pub fn render(&self, entries: usize) -> String {
        format!(
            "version cache: {} hits / {} lookups ({:.0}% hit rate, {} entries); \
             production memo: {} hits / {} runs; consult memo: {} hits / {} runs",
            self.hits,
            self.hits + self.misses,
            self.hit_rate() * 100.0,
            entries,
            self.production.hits,
            self.production.runs,
            self.consult.hits,
            self.consult.runs,
        )
    }
}

/// In-flight gate: the slot a missing key holds while its first
/// requester computes. Waiters block on the condvar; on panic the
/// builder marks the gate failed and waiters retry the full lookup.
struct Gate<V> {
    state: Mutex<GateState<V>>,
    cv: Condvar,
}

enum GateState<V> {
    Pending,
    Ready(V),
    Failed,
}

enum Slot<V> {
    Ready(V),
    Building(Arc<Gate<V>>),
}

/// Removes the building slot and fails the gate if the computation
/// panics, so waiters retry instead of hanging and the key is never
/// left holding a poisoned entry.
struct BuildGuard<'a, K: Eq + Hash, V> {
    memo: &'a SingleFlight<K, V>,
    key: &'a K,
    gate: Arc<Gate<V>>,
    done: bool,
}

impl<K: Eq + Hash, V> Drop for BuildGuard<'_, K, V> {
    fn drop(&mut self) {
        if self.done {
            return;
        }
        let mut map = self.memo.map.lock().expect("memo lock");
        // Only our own building slot: after a `clear()` another builder
        // may own the key.
        if matches!(map.get(self.key), Some(Slot::Building(g)) if Arc::ptr_eq(g, &self.gate)) {
            map.remove(self.key);
        }
        drop(map);
        *self.gate.state.lock().expect("gate lock") = GateState::Failed;
        self.gate.cv.notify_all();
    }
}

/// A single-flight memo: `K` → `V`, computed at most once per key (until
/// cleared) no matter how many threads ask at once.
struct SingleFlight<K, V> {
    map: Mutex<HashMap<K, Slot<V>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    runs: AtomicU64,
    coalesced: AtomicU64,
}

impl<K, V> Default for SingleFlight<K, V> {
    fn default() -> Self {
        SingleFlight {
            map: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            runs: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
        }
    }
}

impl<K: Eq + Hash + Clone, V: Clone> SingleFlight<K, V> {
    /// The value for `key`, computing it with `run` on first use. The
    /// first requester runs outside the map lock; concurrent requesters
    /// of the same key wait on its gate and share the result.
    fn get_or_run(&self, key: K, run: impl FnOnce() -> V) -> V {
        let mut run = Some(run);
        loop {
            let gate = {
                let mut map = self.map.lock().expect("memo lock");
                match map.get(&key) {
                    Some(Slot::Ready(v)) => {
                        let v = v.clone();
                        drop(map);
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return v;
                    }
                    Some(Slot::Building(gate)) => gate.clone(),
                    None => {
                        let gate = Arc::new(Gate {
                            state: Mutex::new(GateState::Pending),
                            cv: Condvar::new(),
                        });
                        map.insert(key.clone(), Slot::Building(gate.clone()));
                        drop(map);
                        self.misses.fetch_add(1, Ordering::Relaxed);
                        return self.build(&key, gate, run.take().expect("run fn"));
                    }
                }
            };
            // Someone else is computing this key: wait on the gate.
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.coalesced.fetch_add(1, Ordering::Relaxed);
            let mut state = gate.state.lock().expect("gate lock");
            loop {
                match &*state {
                    GateState::Ready(v) => return v.clone(),
                    GateState::Failed => break, // builder died: retry the lookup
                    GateState::Pending => {
                        state = gate.cv.wait(state).expect("gate wait");
                    }
                }
            }
        }
    }

    fn build(&self, key: &K, gate: Arc<Gate<V>>, run: impl FnOnce() -> V) -> V {
        let mut guard = BuildGuard { memo: self, key, gate, done: false };
        self.runs.fetch_add(1, Ordering::Relaxed);
        let v = run();
        // Re-insert even if a `clear()` raced the run: the value is a
        // pure function of the key.
        self.map.lock().expect("memo lock").insert(key.clone(), Slot::Ready(v.clone()));
        *guard.gate.state.lock().expect("gate lock") = GateState::Ready(v.clone());
        guard.gate.cv.notify_all();
        guard.done = true;
        v
    }

    fn len(&self) -> usize {
        self.map.lock().expect("memo lock").len()
    }

    /// Drop every entry (counters keep running). In-flight runs complete
    /// against their gates and re-insert themselves.
    fn clear(&self) {
        self.map.lock().expect("memo lock").clear();
    }

    fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            runs: self.runs.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
        }
    }
}

/// A compile/prepare cache: `VersionKey` → `Arc<PreparedVersion>`, with
/// in-flight de-duplication of concurrent compiles — plus the
/// production-measurement and consultation memos that share its
/// lifecycle.
#[derive(Default)]
pub struct VersionCache {
    versions: SingleFlight<VersionKey, Arc<PreparedVersion>>,
    production: SingleFlight<ProductionKey, u64>,
    consultations: SingleFlight<ConsultKey, Arc<Consultation>>,
}

impl std::fmt::Debug for VersionCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VersionCache").field("stats", &self.stats()).finish()
    }
}

impl VersionCache {
    /// Fresh empty cache (tests; everything else uses
    /// [`VersionCache::global`]).
    pub fn new() -> Self {
        VersionCache::default()
    }

    /// The process-wide cache shared by every tuning layer.
    pub fn global() -> &'static VersionCache {
        static GLOBAL: OnceLock<VersionCache> = OnceLock::new();
        GLOBAL.get_or_init(VersionCache::new)
    }

    /// Return the prepared version for `key`, compiling it with `compile`
    /// and [`PreparedVersion::prepare`] on first use. `spec.kind` must
    /// match `key.machine` — the prepared artifact is machine-specific.
    ///
    /// Concurrent calls with the same key compile **once**: the first
    /// requester compiles outside the map lock while later ones wait on
    /// the in-flight gate and share the artifact.
    pub fn get_or_prepare(
        &self,
        key: VersionKey,
        spec: &MachineSpec,
        compile: impl FnOnce() -> CompiledVersion,
    ) -> Arc<PreparedVersion> {
        debug_assert_eq!(spec.kind, key.machine, "key/spec machine mismatch");
        self.versions.get_or_run(key, || Arc::new(PreparedVersion::prepare(compile(), spec)))
    }

    /// Shorthand: compile (or fetch) the plain TS of `workload` under
    /// `cfg` for `spec`.
    pub fn prepare_workload(
        &self,
        workload: &dyn Workload,
        spec: &MachineSpec,
        cfg: OptConfig,
    ) -> Arc<PreparedVersion> {
        self.get_or_prepare(VersionKey::plain(workload, cfg, spec.kind), spec, || {
            crate::compile::compile_validated(workload.program(), workload.ts(), &cfg)
        })
    }

    /// Bulk pre-compilation: push every `(key, compile)` request through
    /// the cache on `pool`, in parallel. Purely a warm-up — results land
    /// in the cache (shared, deduplicated in flight) and later
    /// [`VersionCache::get_or_prepare`] calls hit. Safe to call with
    /// keys that are already cached (they count as hits and cost one map
    /// probe).
    pub fn warm<F>(&self, pool: &Pool, spec: &MachineSpec, requests: Vec<(VersionKey, F)>)
    where
        F: FnOnce() -> CompiledVersion + Send,
    {
        let slots: Vec<Mutex<Option<(VersionKey, F)>>> =
            requests.into_iter().map(|r| Mutex::new(Some(r))).collect();
        pool.map(slots.len(), |i| {
            let (key, compile) =
                slots[i].lock().expect("warm slot").take().expect("warm request taken once");
            let _ = self.get_or_prepare(key, spec, compile);
        });
    }

    /// Whole-program cycles of one production run of the plain TS of
    /// `workload` under `cfg` on `ds`, measured once per key and
    /// memoized. The key is [`VersionKey::plain`] (which carries the
    /// execution tier) plus `ds`. Single-flight like
    /// [`VersionCache::get_or_prepare`]; a panicking measurement leaves
    /// the key empty, so the next caller measures afresh. Equal to
    /// [`measure_production`](crate::tuner::measure_production) (gated
    /// by `crates/core/tests/production_memo.rs`).
    pub fn production_time(
        &self,
        workload: &dyn Workload,
        spec: &MachineSpec,
        cfg: OptConfig,
        ds: Dataset,
    ) -> u64 {
        let version = VersionKey::plain(workload, cfg, spec.kind);
        self.production.get_or_run(ProductionKey { version: version.clone(), dataset: ds }, || {
            crate::tuner::run_production(self, version, workload, spec, ds)
        })
    }

    /// The §3 consultation for `workload` on `spec`, run once per
    /// (workload, TS, machine) and shared as one `Arc`.
    pub fn consultation(&self, workload: &dyn Workload, spec: &MachineSpec) -> Arc<Consultation> {
        self.consultations.get_or_run(ConsultKey::of(workload, spec.kind), || {
            Arc::new(crate::consultant::consult(workload, spec))
        })
    }

    /// Cached versions currently held (ready or in flight).
    pub fn len(&self) -> usize {
        self.versions.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the consultation memo holds (or is computing) an entry
    /// for `workload` on `machine`.
    #[cfg(test)]
    pub(crate) fn has_consultation(&self, workload: &dyn Workload, machine: MachineKind) -> bool {
        self.consultations
            .map
            .lock()
            .expect("memo lock")
            .contains_key(&ConsultKey::of(workload, machine))
    }

    /// Snapshot the hit/miss/run counters of all three memos.
    pub fn stats(&self) -> CacheStats {
        let v = self.versions.stats();
        CacheStats {
            hits: v.hits,
            misses: v.misses,
            compiles: v.runs,
            coalesced: v.coalesced,
            production: self.production.stats(),
            consult: self.consultations.stats(),
        }
    }

    /// Drop every cached version, production measurement, and
    /// consultation (counters keep running). In-flight builds complete
    /// against their gates and re-insert themselves.
    pub fn clear(&self) {
        self.versions.clear();
        self.production.clear();
        self.consultations.clear();
    }

    /// Mirror this cache's counters into the global
    /// [`MetricsRegistry`](peak_obs::MetricsRegistry) as
    /// `core.version_cache.*`, `core.production_cache.*`, and
    /// `core.consult_cache.*`. The cache keeps its own atomics hot-path
    /// side; this sync-on-read (called by whoever is about to snapshot —
    /// the serve daemon's stats handler) advances the registry counters
    /// by the accumulated delta, so the exported series stays monotonic
    /// without double-counting. While recording is off the registry
    /// instruments ignore the sync; the next publish with recording on
    /// catches the mirror up to the cache's totals.
    pub fn publish_metrics(&self) {
        use peak_obs::metrics::MetricsRegistry;
        let r = MetricsRegistry::global();
        let s = self.stats();
        let sync = |name: &str, help: &str, now: u64| {
            let c = r.counter(name, help);
            c.add(now.saturating_sub(c.get()));
        };
        sync("core.version_cache.hits", "Version-cache lookups served from cache", s.hits);
        sync("core.version_cache.misses", "Version-cache lookups that compiled or waited", s.misses);
        sync("core.version_cache.compiles", "Unique compile+prepare executions", s.compiles);
        sync(
            "core.version_cache.coalesced",
            "Missing lookups coalesced onto an in-flight compile",
            s.coalesced,
        );
        r.gauge("core.version_cache.entries", "Prepared versions currently cached")
            .set(self.len() as i64);
        let p = s.production;
        sync("core.production_cache.hits", "Production measurements served from the memo", p.hits);
        sync(
            "core.production_cache.misses",
            "Production lookups that measured or waited",
            p.misses,
        );
        sync("core.production_cache.runs", "Production runs actually simulated", p.runs);
        sync(
            "core.production_cache.coalesced",
            "Production lookups coalesced onto an in-flight measurement",
            p.coalesced,
        );
        sync("core.consult_cache.hits", "Consultations served from the memo", s.consult.hits);
        sync("core.consult_cache.runs", "Consultant analyses actually run", s.consult.runs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peak_workloads::swim::SwimCalc3;

    /// [`VersionCache::production_time`] with the key pinned to `tier`
    /// (the public entry takes the tier from `PEAK_TIER`).
    fn production_on(
        cache: &VersionCache,
        w: &dyn Workload,
        spec: &MachineSpec,
        ds: Dataset,
        tier: ExecTier,
    ) -> u64 {
        let version = VersionKey::plain(w, OptConfig::o3(), spec.kind).with_tier(tier);
        cache.production.get_or_run(ProductionKey { version: version.clone(), dataset: ds }, || {
            crate::tuner::run_production(cache, version, w, spec, ds)
        })
    }

    #[test]
    fn second_lookup_hits_and_shares() {
        let cache = VersionCache::new();
        let w = SwimCalc3::new();
        let spec = MachineSpec::sparc_ii();
        let a = cache.prepare_workload(&w, &spec, OptConfig::o3());
        let b = cache.prepare_workload(&w, &spec, OptConfig::o3());
        assert!(Arc::ptr_eq(&a, &b), "same key shares one artifact");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!((s.compiles, s.coalesced), (1, 0));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn keys_separate_machine_config_and_instrumentation() {
        let cache = VersionCache::new();
        let w = SwimCalc3::new();
        let sparc = MachineSpec::sparc_ii();
        let p4 = MachineSpec::pentium_iv();
        let _ = cache.prepare_workload(&w, &sparc, OptConfig::o3());
        let _ = cache.prepare_workload(&w, &p4, OptConfig::o3());
        let _ = cache.prepare_workload(&w, &sparc, OptConfig::o0());
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.stats().misses, 3);
        assert_eq!(cache.stats().compiles, 3);
        assert_ne!(
            VersionKey::plain(&w, OptConfig::o3(), MachineKind::SparcII),
            VersionKey::instrumented(&w, OptConfig::o3(), MachineKind::SparcII),
        );
    }

    /// Regression: keys must separate execution tiers — the native
    /// backend (and its remembered refusal) is per-artifact state, so a
    /// jit-tier consumer must not share an artifact with a
    /// predecoded-tier one.
    #[test]
    fn keys_separate_execution_tier() {
        use peak_sim::ExecTier;
        let base = VersionKey::plain(&SwimCalc3::new(), OptConfig::o3(), MachineKind::SparcII);
        let jit = base.clone().with_tier(ExecTier::Jit);
        let interp = base.clone().with_tier(ExecTier::Interp);
        let pre = base.clone().with_tier(ExecTier::Predecoded);
        assert_ne!(jit, pre);
        assert_ne!(jit, interp);
        assert_ne!(interp, pre);

        let cache = VersionCache::new();
        let w = SwimCalc3::new();
        let spec = MachineSpec::sparc_ii();
        for tier in ExecTier::ALL {
            let key = VersionKey::plain(&w, OptConfig::o3(), spec.kind).with_tier(tier);
            let _ = cache.get_or_prepare(key, &spec, || {
                peak_opt::optimize(w.program(), w.ts(), &OptConfig::o3())
            });
        }
        assert_eq!(cache.len(), 3, "one entry per tier");
        assert_eq!(cache.stats().compiles, 3);
    }

    #[test]
    fn cached_version_matches_fresh_compile() {
        let cache = VersionCache::new();
        let w = SwimCalc3::new();
        let spec = MachineSpec::sparc_ii();
        let cached = cache.prepare_workload(&w, &spec, OptConfig::o3());
        let fresh = PreparedVersion::prepare(
            peak_opt::optimize(w.program(), w.ts(), &OptConfig::o3()),
            &spec,
        );
        assert_eq!(cached.version.code_size, fresh.version.code_size);
        assert_eq!(cached.spill_slot, fresh.spill_slot);
        assert_eq!(cached.slot_base, fresh.slot_base);
        assert_eq!(cached.live_across_calls, fresh.live_across_calls);
        assert_eq!(cached.over_icache, fresh.over_icache);
    }

    /// Satellite of the scheduler work: under real thread contention,
    /// every unique key compiles exactly once — racing requesters either
    /// hit a ready slot or coalesce onto the in-flight build.
    #[test]
    fn contended_lookups_compile_each_key_once() {
        const THREADS: usize = 8;
        let cache = Arc::new(VersionCache::new());
        let w = Arc::new(SwimCalc3::new());
        let spec = MachineSpec::sparc_ii();
        let cfgs =
            [OptConfig::o3(), OptConfig::o0(), OptConfig::o3().without(peak_opt::Flag::LoopUnroll)];
        let barrier = Arc::new(std::sync::Barrier::new(THREADS));
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let cache = cache.clone();
            let w = w.clone();
            let spec = spec.clone();
            let barrier = barrier.clone();
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                // Different starting offsets per thread maximize overlap
                // on distinct keys at the same instant.
                for i in 0..cfgs.len() {
                    let cfg = cfgs[(t + i) % cfgs.len()];
                    let _ = cache.prepare_workload(w.as_ref(), &spec, cfg);
                }
            }));
        }
        for h in handles {
            h.join().expect("lookup thread");
        }
        let s = cache.stats();
        assert_eq!(s.compiles, cfgs.len() as u64, "each unique key compiles exactly once: {s:?}");
        assert_eq!(
            s.hits + s.misses,
            (THREADS * cfgs.len()) as u64,
            "every lookup accounted: {s:?}"
        );
        assert_eq!(
            s.misses,
            s.compiles + s.coalesced,
            "misses split exactly into builders and coalesced waiters: {s:?}"
        );
        assert_eq!(cache.len(), cfgs.len());
    }

    /// The bulk warm-up API dedupes duplicate keys in the request list
    /// itself and leaves the cache hot for subsequent lookups.
    #[test]
    fn warm_bulk_precompile_dedupes_and_hits_after() {
        let cache = VersionCache::new();
        let w = SwimCalc3::new();
        let spec = MachineSpec::sparc_ii();
        let pool = Pool::with_threads(4);
        // Frontier with a duplicate: o3 appears twice.
        let cfgs = [OptConfig::o3(), OptConfig::o0(), OptConfig::o3()];
        let requests: Vec<_> = cfgs
            .iter()
            .map(|&cfg| {
                let key = VersionKey::plain(&w, cfg, spec.kind);
                let (prog, ts) = (w.program(), w.ts());
                (key, move || peak_opt::optimize(prog, ts, &cfg))
            })
            .collect();
        cache.warm(&pool, &spec, requests);
        let s = cache.stats();
        assert_eq!(s.compiles, 2, "duplicate key compiles once: {s:?}");
        assert_eq!(cache.len(), 2);
        let before = cache.stats();
        let _ = cache.prepare_workload(&w, &spec, OptConfig::o3());
        let _ = cache.prepare_workload(&w, &spec, OptConfig::o0());
        let d = cache.stats().delta(&before);
        assert_eq!((d.hits, d.misses), (2, 0), "warmed keys hit: {d:?}");
    }

    #[test]
    fn failed_build_unblocks_waiters_and_retries() {
        let cache = Arc::new(VersionCache::new());
        let w = SwimCalc3::new();
        let spec = MachineSpec::sparc_ii();
        let key = VersionKey::plain(&w, OptConfig::o3(), spec.kind);
        // First builder panics mid-compile…
        let c2 = cache.clone();
        let k2 = key.clone();
        let s2 = spec.clone();
        let panicked = std::thread::spawn(move || {
            let _ = c2.get_or_prepare(k2, &s2, || panic!("injected compile failure"));
        })
        .join();
        assert!(panicked.is_err(), "builder thread must have panicked");
        // …and the key is usable again: the next lookup compiles fresh.
        let v = cache.get_or_prepare(key, &spec, || {
            peak_opt::optimize(w.program(), w.ts(), &OptConfig::o3())
        });
        assert_eq!(cache.len(), 1);
        assert!(v.version.code_size > 0);
    }

    /// Four threads asking for one cold production key: exactly one
    /// simulates, the other three hit or coalesce onto its gate, and all
    /// four see the same cycles.
    #[test]
    fn production_single_flight_runs_once() {
        const THREADS: usize = 4;
        let cache = Arc::new(VersionCache::new());
        let w = Arc::new(SwimCalc3::new());
        let spec = MachineSpec::sparc_ii();
        let barrier = Arc::new(std::sync::Barrier::new(THREADS));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let (cache, w, spec, barrier) =
                    (cache.clone(), w.clone(), spec.clone(), barrier.clone());
                std::thread::spawn(move || {
                    barrier.wait();
                    cache.production_time(w.as_ref(), &spec, OptConfig::o3(), Dataset::Train)
                })
            })
            .collect();
        let cycles: Vec<u64> = handles.into_iter().map(|h| h.join().expect("thread")).collect();
        assert!(cycles.iter().all(|&c| c == cycles[0] && c > 0), "{cycles:?}");
        let p = cache.stats().production;
        assert_eq!(p.runs, 1, "one cold key simulates once: {p:?}");
        assert_eq!(p.hits + p.coalesced, (THREADS - 1) as u64, "{p:?}");
        assert_eq!(p.misses, p.runs + p.coalesced, "{p:?}");
    }

    /// A panicking measurement leaves no poisoned entry: the slot is
    /// empty afterwards and the next caller measures afresh.
    #[test]
    fn panicking_measurement_leaves_slot_empty() {
        let cache = VersionCache::new();
        let key = ProductionKey {
            version: VersionKey::plain(&SwimCalc3::new(), OptConfig::o3(), MachineKind::SparcII),
            dataset: Dataset::Train,
        };
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.production.get_or_run(key.clone(), || panic!("injected measurement failure"))
        }));
        assert!(caught.is_err(), "measurement panic propagates to its caller");
        assert_eq!(cache.production.get_or_run(key.clone(), || 42), 42, "next caller recomputes");
        assert_eq!(cache.production.get_or_run(key, || unreachable!("cached")), 42);
        let p = cache.stats().production;
        assert_eq!((p.runs, p.hits), (2, 1), "{p:?}");
    }

    /// `clear()` owns all three memos: the next lookup of each re-runs.
    #[test]
    fn clear_drops_production_and_consult_memos() {
        let cache = VersionCache::new();
        let w = SwimCalc3::new();
        let spec = MachineSpec::sparc_ii();
        let a = cache.production_time(&w, &spec, OptConfig::o3(), Dataset::Train);
        let c1 = cache.consultation(&w, &spec);
        assert!(Arc::ptr_eq(&c1, &cache.consultation(&w, &spec)), "one shared Arc");
        assert_eq!(a, cache.production_time(&w, &spec, OptConfig::o3(), Dataset::Train));
        let before = cache.stats();
        assert_eq!((before.production.runs, before.production.hits), (1, 1));
        assert_eq!((before.consult.runs, before.consult.hits), (1, 1));
        assert!(cache.has_consultation(&w, spec.kind));

        cache.clear();
        assert!(cache.is_empty() && !cache.has_consultation(&w, spec.kind));
        let b = cache.production_time(&w, &spec, OptConfig::o3(), Dataset::Train);
        let c2 = cache.consultation(&w, &spec);
        assert_eq!(a, b, "re-measured value is identical");
        assert_eq!(c1.order, c2.order);
        assert!(!Arc::ptr_eq(&c1, &c2), "consultation re-ran after clear");
        let d = cache.stats().delta(&before);
        assert_eq!((d.production.runs, d.production.hits), (1, 0), "{d:?}");
        assert_eq!((d.consult.runs, d.consult.hits), (1, 0), "{d:?}");
    }

    /// The tier and the dataset are part of the production key: each
    /// (tier, dataset) pair gets its own entry, and the predecoded and
    /// jit entries both equal the un-memoized oracle.
    #[test]
    fn production_keys_separate_tier_and_dataset() {
        let cache = VersionCache::new();
        let w = SwimCalc3::new();
        let spec = MachineSpec::sparc_ii();
        let oracle = crate::tuner::run_production(
            &VersionCache::new(),
            VersionKey::plain(&w, OptConfig::o3(), spec.kind).with_tier(ExecTier::Predecoded),
            &w,
            &spec,
            Dataset::Train,
        );
        let pre = production_on(&cache, &w, &spec, Dataset::Train, ExecTier::Predecoded);
        let jit = production_on(&cache, &w, &spec, Dataset::Train, ExecTier::Jit);
        let reft = production_on(&cache, &w, &spec, Dataset::Ref, ExecTier::Predecoded);
        assert_eq!((pre, jit), (oracle, oracle), "both tiers match the oracle");
        assert_ne!(reft, pre, "ref is its own entry");
        assert_eq!(cache.stats().production.runs, 3, "one entry per (tier, dataset)");
    }

    #[test]
    fn render_carries_memo_counters() {
        let s = CacheStats {
            hits: 3,
            misses: 1,
            production: MemoStats { hits: 5, runs: 2, ..MemoStats::default() },
            consult: MemoStats { hits: 4, runs: 1, ..MemoStats::default() },
            ..CacheStats::default()
        };
        assert_eq!(
            s.render(9),
            "version cache: 3 hits / 4 lookups (75% hit rate, 9 entries); \
             production memo: 5 hits / 2 runs; consult memo: 4 hits / 1 runs"
        );
    }
}
