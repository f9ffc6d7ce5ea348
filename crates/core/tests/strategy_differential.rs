//! Differential determinism tests for the pluggable search strategies:
//! every strategy — IE, GA, phase-clustered IE, random — produces a
//! byte-identical `SearchResult` (and spends an identical compilation
//! budget) at 1, 2, and 5 pool threads. The 1-thread pool runs every
//! candidate job inline in index order, so it *is* the serial
//! reference. `strategy_goldens` pins the numbers themselves.

use peak_core::consultant::Method;
use peak_core::{search_with_strategy_spent, Pool, SearchResult, StrategyKind, TuningSetup};
use peak_sim::MachineSpec;
use peak_workloads::Dataset;

/// Serial reference, smallest parallel pool, oversubscribed pool.
const THREADS: [usize; 3] = [1, 2, 5];
/// Budget for the strategy legs: enough for several GA generations and
/// two clustered-IE rounds (below the probe threshold, clustered takes
/// its degenerate plain-IE path), small enough to keep the suite fast.
const BUDGET: usize = 80;
/// Fixed strategy seed for the suite (any value works; it must simply
/// be the same across legs).
const SEED: u64 = 0x5eed_cafe;

fn run_strategy_leg(
    bench: &str,
    spec: &MachineSpec,
    method: Method,
    kind: StrategyKind,
    threads: usize,
) -> (SearchResult, usize) {
    let w = peak_workloads::workload_by_name(bench).expect("known workload");
    let mut setup = TuningSetup::new(w.as_ref(), spec.clone(), Dataset::Train);
    let pool = Pool::with_threads(threads);
    search_with_strategy_spent(&mut setup, &pool, method, kind, Some(BUDGET), SEED)
}

fn assert_fields_equal(label: &str, got: &SearchResult, reference: &SearchResult) {
    assert_eq!(got.best, reference.best, "{label}: best config");
    assert_eq!(got.disabled_flags, reference.disabled_flags, "{label}: disabled flags");
    assert_eq!(got.method, reference.method, "{label}: final method");
    assert_eq!(got.switches, reference.switches, "{label}: switches");
    assert_eq!(got.ratings, reference.ratings, "{label}: ratings count");
    assert_eq!(got.tuning_cycles, reference.tuning_cycles, "{label}: tuning cycles");
    assert_eq!(got.runs, reference.runs, "{label}: runs");
    assert_eq!(got.invocations, reference.invocations, "{label}: invocations");
}

fn assert_strategy_identical(bench: &str, spec: &MachineSpec, method: Method, kind: StrategyKind) {
    let (reference, ref_spent) = run_strategy_leg(bench, spec, method, kind, THREADS[0]);
    assert!(reference.ratings > 0, "{}: search must rate something", kind.name());
    assert!(ref_spent <= BUDGET, "{}: budget respected", kind.name());
    for &threads in &THREADS[1..] {
        let (got, spent) = run_strategy_leg(bench, spec, method, kind, threads);
        let label = format!(
            "{bench}/{}/{}/{} at {threads} threads",
            spec.kind.name(),
            method.name(),
            kind.name()
        );
        assert_fields_equal(&label, &got, &reference);
        assert_eq!(spent, ref_spent, "{label}: budget spent");
    }
}

#[test]
fn ie_identical_across_thread_counts() {
    assert_strategy_identical("swim", &MachineSpec::sparc_ii(), Method::Cbr, StrategyKind::Ie);
}

#[test]
fn ga_identical_across_thread_counts() {
    assert_strategy_identical("swim", &MachineSpec::sparc_ii(), Method::Cbr, StrategyKind::Ga);
}

#[test]
fn clustered_identical_across_thread_counts() {
    assert_strategy_identical(
        "swim",
        &MachineSpec::sparc_ii(),
        Method::Cbr,
        StrategyKind::ClusteredIe,
    );
}

#[test]
fn random_identical_across_thread_counts() {
    assert_strategy_identical("art", &MachineSpec::pentium_iv(), Method::Rbr, StrategyKind::Random);
}

/// Same seed, same machine, run twice: the GA trajectory must replay
/// exactly (catches hidden global state leaking into the search).
#[test]
fn ga_same_seed_replays_exactly() {
    let (a, sa) = run_strategy_leg("art", &MachineSpec::pentium_iv(), Method::Rbr, StrategyKind::Ga, 2);
    let (b, sb) = run_strategy_leg("art", &MachineSpec::pentium_iv(), Method::Rbr, StrategyKind::Ga, 2);
    assert_fields_equal("ga replay", &b, &a);
    assert_eq!(sa, sb);
}
