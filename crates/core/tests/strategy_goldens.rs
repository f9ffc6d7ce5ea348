//! Pinned search results for every strategy and search entry point.
//!
//! The differential suite proves thread invariance and seed replay, but
//! neither catches a refactor that moves a result identically at every
//! thread count. This suite pins the numbers themselves: each leg's
//! `SearchResult` fields (best configuration, disabled flags, final
//! method, switches, ratings, tuning cycles, runs, invocations) plus the
//! unique configurations charged, compared against the checked-in
//! `tests/goldens/strategy_results.json`.
//!
//! Legs (strategy legs run on the pooled rater at 1 thread — other
//! thread counts are the differential suite's job):
//!
//! * `ie`, `ga`, `clustered`, `random` on SWIM × SPARC-II, CBR, the
//!   differential suite's seed, budget 80 — at this budget clustered IE
//!   takes its tight-budget plain-IE path — plus `clustered` at a budget
//!   large enough for the probe/cluster branch;
//! * `ga` and `clustered` on ART × Pentium-IV with RBR, where the search
//!   actually removes flags;
//! * the §3 fallback on MGRID: `ie` with CBR forced (outside MGRID's
//!   method order); `ie` with the AVG baseline, whose ratings stay
//!   unconverged yet must never switch; pooled `ie` and serial
//!   `exhaustive` with MBR under jitter bursts, where MBR stops
//!   converging and ratings switch to RBR;
//! * serial `iterative_elimination_from` from non-O3 starts on SWIM
//!   (CBR), ART (RBR) and MGRID (AVG), and serial `iterative_elimination`
//!   from -O3 on ART × Pentium-IV (RBR), the paper's marquee cell.
//!
//! Regenerate the golden (only when a search result is meant to move)
//! with:
//!
//! ```text
//! cargo test -p peak-core --test strategy_goldens \
//!     -- --ignored regenerate_strategy_goldens
//! ```

use peak_core::consultant::Method;
use peak_core::{
    exhaustive, iterative_elimination, iterative_elimination_from, search_with_strategy_spent,
    Pool, SearchResult, StrategyKind, TuningSetup,
};
use peak_opt::{Flag, OptConfig};
use peak_sim::{FaultConfig, MachineSpec};
use peak_util::{Json, ToJson};
use peak_workloads::{Dataset, Workload};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/goldens/strategy_results.json");
/// Seed shared with the differential suite.
const SEED: u64 = 0x5eed_cafe;
/// The differential suite's strategy budget.
const BUDGET: usize = 80;
/// Clustered IE probes only when the headroom left after probe 0 covers
/// `(probes + 1) × (flags + 1)` = 3 × 39 configurations, i.e. a budget of
/// at least 1 + 38 + 117 = 156.
const PROBE_BUDGET: usize = 200;
/// Budget for the MGRID legs: one full IE frontier.
const ONE_FRONTIER: usize = 40;

fn setup<'w>(
    w: &'w dyn Workload,
    spec: &MachineSpec,
    faults: Option<FaultConfig>,
) -> TuningSetup<'w> {
    let mut s = TuningSetup::new(w, spec.clone(), Dataset::Train);
    s.set_faults(faults);
    s
}

/// Sustained 4× jitter bursts: MGRID's MBR ratings stop converging, so
/// the §3 fallback switches them to RBR.
fn jitter_bursts() -> Option<FaultConfig> {
    let mut fc = FaultConfig::none(7);
    fc.burst_per_million = 300_000;
    fc.burst_len = (1, 4);
    fc.burst_factor = 4.0;
    Some(fc)
}

fn leg(name: &str, r: &SearchResult, spent: Option<usize>) -> Json {
    let mut fields = vec![
        ("leg".to_owned(), Json::Str(name.to_owned())),
        ("best_bits".to_owned(), Json::U(r.best.bits())),
    ];
    if let Json::Obj(pairs) = r.to_json() {
        fields.extend(pairs);
    }
    if let Some(n) = spent {
        fields.push(("budget_spent".to_owned(), Json::U(n as u64)));
    }
    Json::Obj(fields)
}

/// One pooled strategy leg at 1 thread.
fn strategy_leg(
    bench: &str,
    spec: &MachineSpec,
    method: Method,
    kind: StrategyKind,
    budget: usize,
    faults: Option<FaultConfig>,
) -> Json {
    let w = peak_workloads::workload_by_name(bench).expect("known workload");
    let tag = if faults.is_some() { "+bursts" } else { "" };
    let mut s = setup(w.as_ref(), spec, faults);
    let pool = Pool::with_threads(1);
    let (r, spent) = search_with_strategy_spent(&mut s, &pool, method, kind, Some(budget), SEED);
    let (machine, method, kind) = (spec.kind.name(), method.name(), kind.name());
    leg(&format!("{bench}/{machine}/{method}/{kind}@{budget}{tag}"), &r, Some(spent))
}

fn swim_strategy_legs() -> Vec<Json> {
    let sparc = MachineSpec::sparc_ii();
    let mut legs: Vec<Json> = StrategyKind::all()
        .into_iter()
        .map(|kind| strategy_leg("swim", &sparc, Method::Cbr, kind, BUDGET, None))
        .collect();
    let clustered = StrategyKind::ClusteredIe;
    legs.push(strategy_leg("swim", &sparc, Method::Cbr, clustered, PROBE_BUDGET, None));
    legs
}

fn art_strategy_legs() -> Vec<Json> {
    let p4 = MachineSpec::pentium_iv();
    [StrategyKind::Ga, StrategyKind::ClusteredIe]
        .into_iter()
        .map(|kind| strategy_leg("art", &p4, Method::Rbr, kind, BUDGET, None))
        .collect()
}

fn fallback_legs() -> Vec<Json> {
    let sparc = MachineSpec::sparc_ii();
    let ie = StrategyKind::Ie;
    let w = peak_workloads::workload_by_name("mgrid").expect("known workload");
    let subspace = [Flag::LoopUnroll, Flag::StrictAliasing, Flag::Gcse];
    let mut s = setup(w.as_ref(), &sparc, jitter_bursts());
    let r = exhaustive(&mut s, Method::Mbr, &subspace);
    vec![
        strategy_leg("mgrid", &sparc, Method::Cbr, ie, ONE_FRONTIER, None),
        strategy_leg("mgrid", &sparc, Method::Avg, ie, ONE_FRONTIER, None),
        strategy_leg("mgrid", &sparc, Method::Mbr, ie, ONE_FRONTIER, jitter_bursts()),
        leg("mgrid/SPARC-II/MBR/exhaustive+bursts", &r, None),
    ]
}

fn serial_ie_legs() -> Vec<Json> {
    let start = OptConfig::o3().without(Flag::LoopUnroll).without(Flag::ScheduleInsns);
    // AVG on MGRID exhausts its windows every round; a six-flag start
    // keeps the frontiers (and the debug-build runtime) small.
    let six = [
        Flag::CopyPropagation,
        Flag::Gcse,
        Flag::LoopUnroll,
        Flag::RegisterPromotion,
        Flag::StrictAliasing,
        Flag::PrefetchLoopArrays,
    ];
    let small = six.into_iter().fold(OptConfig::from_bits(0), |c, f| c.with(f, true));
    let mut legs: Vec<Json> = [
        ("swim", MachineSpec::sparc_ii(), Method::Cbr, start),
        ("art", MachineSpec::pentium_iv(), Method::Rbr, start),
        ("mgrid", MachineSpec::sparc_ii(), Method::Avg, small),
    ]
    .into_iter()
    .map(|(bench, spec, method, start)| {
        let w = peak_workloads::workload_by_name(bench).expect("known workload");
        let r = iterative_elimination_from(&mut setup(w.as_ref(), &spec, None), method, start);
        let (machine, method) = (spec.kind.name(), method.name());
        leg(&format!("{bench}/{machine}/{method}/serial-ie-from"), &r, None)
    })
    .collect();
    let art = peak_workloads::workload_by_name("art").expect("known workload");
    let p4 = MachineSpec::pentium_iv();
    let r = iterative_elimination(&mut setup(art.as_ref(), &p4, None), Method::Rbr);
    legs.push(leg("art/Pentium-IV/RBR/serial-ie", &r, None));
    legs
}

/// Compare freshly computed legs against their golden entries (by name).
fn check(legs: Vec<Json>) {
    let text = std::fs::read_to_string(GOLDEN)
        .expect("golden missing: run the ignored regenerate_strategy_goldens test");
    let golden = peak_util::from_str(&text).expect("golden parses");
    let golden = golden.as_arr().expect("golden is an array");
    for got in &legs {
        let name = got.get("leg").and_then(Json::as_str).expect("leg name");
        let want = golden
            .iter()
            .find(|g| g.get("leg").and_then(Json::as_str) == Some(name))
            .unwrap_or_else(|| panic!("{name}: no golden entry; regenerate the golden"));
        assert_eq!(want.pretty(), got.pretty(), "{name}: search result drifted");
    }
}

/// Regenerates the checked-in golden. Run explicitly (`--ignored`) and
/// only when a change to search results is intended.
#[test]
#[ignore]
fn regenerate_strategy_goldens() {
    let mut legs = swim_strategy_legs();
    legs.extend(art_strategy_legs());
    legs.extend(fallback_legs());
    legs.extend(serial_ie_legs());
    std::fs::write(GOLDEN, Json::Arr(legs).pretty() + "\n").unwrap();
    eprintln!("wrote {GOLDEN}");
}

#[test]
fn swim_strategies_match_golden() {
    check(swim_strategy_legs());
}

#[test]
fn art_strategies_match_golden() {
    check(art_strategy_legs());
}

#[test]
fn fallback_cascade_matches_golden() {
    check(fallback_legs());
}

#[test]
fn serial_ie_matches_golden() {
    check(serial_ie_legs());
}
