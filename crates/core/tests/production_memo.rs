//! Equivalence gate for the job-invariant memos (DESIGN.md §18).
//!
//! `production_time` memoizes the ref-input production run process-wide;
//! `measure_production` is its retained oracle (the raw simulate-every-
//! call loop). Per the §16 equivalence doctrine, the memo must return
//! exactly the oracle's cycles on representative configurations and both
//! datasets, and a repeated request must be served from the memo. On a
//! fresh key both sides run the same simulation, so what these checks
//! really pin is key separation: a configuration or input that shared
//! another's entry would come back with the other's cycles.
//!
//! The tests run on the tier `PEAK_TIER` selects (CI runs this file on
//! the predecoded and jit tiers); the version_cache unit tests pin the
//! tier into the key directly and check that the tiers agree.
//!
//! Every test here reads the process-wide cache counters, so the tests
//! serialize on one lock: counter deltas are then exact.

use peak_core::{
    measure_production, production_time, run_tuning_job, CancelToken, Pool, TuningJobSpec,
    VersionCache,
};
use peak_obs::Tracer;
use peak_opt::{Flag, OptConfig};
use peak_sim::MachineSpec;
use peak_workloads::{all_workloads, workload_by_name, Dataset, Workload};
use std::sync::{Mutex, MutexGuard};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn configs() -> [(&'static str, OptConfig); 3] {
    [
        ("O3", OptConfig::o3()),
        ("O0", OptConfig::o0()),
        ("O3 -loop-unroll", OptConfig::o3().without(Flag::LoopUnroll)),
    ]
}

/// Integer and floating-point workloads for the checks a debug build
/// runs; release builds run the train grid on every workload.
const SUBSET: [&str; 4] = ["SWIM", "ART", "MCF", "CRAFTY"];

fn train_workloads() -> Vec<Box<dyn Workload>> {
    if cfg!(debug_assertions) {
        SUBSET.iter().map(|n| workload_by_name(n).expect("registered workload")).collect()
    } else {
        all_workloads()
    }
}

/// Workloads × both machines × {O3, O0, one single-flag-off config} on
/// the train input: memo == oracle, and the second request is a hit
/// that re-simulates nothing.
#[test]
fn memo_matches_oracle_on_train() {
    let _g = serial();
    let cache = VersionCache::global();
    for spec in [MachineSpec::sparc_ii(), MachineSpec::pentium_iv()] {
        for w in train_workloads() {
            for (name, cfg) in configs() {
                let oracle = measure_production(w.as_ref(), &spec, cfg, Dataset::Train);
                let memo = production_time(w.as_ref(), &spec, cfg, Dataset::Train);
                let what = format!("{} / {} / {name}", w.name(), spec.kind.name());
                assert_eq!(memo, oracle, "memo differs from oracle: {what}");
                let before = cache.stats().production;
                let again = production_time(w.as_ref(), &spec, cfg, Dataset::Train);
                let d = cache.stats().production.delta(&before);
                assert_eq!(again, oracle, "{what}");
                assert_eq!((d.hits, d.runs), (1, 0), "second call must hit: {what}: {d:?}");
            }
        }
    }
}

/// The ref input (what every served job measures): its own entry per
/// configuration, equal to the oracle.
#[test]
fn memo_matches_oracle_on_ref_subset() {
    let _g = serial();
    for name in &SUBSET[..2] {
        let w = workload_by_name(name).expect("registered workload");
        for spec in [MachineSpec::sparc_ii(), MachineSpec::pentium_iv()] {
            for (cname, cfg) in [configs()[0], configs()[2]] {
                assert_eq!(
                    production_time(w.as_ref(), &spec, cfg, Dataset::Ref),
                    measure_production(w.as_ref(), &spec, cfg, Dataset::Ref),
                    "{name} / {} / {cname} on ref",
                    spec.kind.name()
                );
            }
        }
    }
}

/// A pre-cancelled job consults nothing: the process-wide consult-run
/// counter does not move (exact here, where no other test runs
/// concurrently).
#[test]
fn pre_cancelled_job_does_not_consult() {
    let _g = serial();
    let cache = VersionCache::global();
    let cancel = CancelToken::new();
    cancel.cancel();
    let before = cache.stats();
    let got = run_tuning_job(
        &TuningJobSpec::new("APSI", "SPARC-II"),
        Tracer::disabled(),
        &Pool::with_threads(1),
        cancel,
    );
    assert!(got.is_err(), "pre-cancelled job must not complete");
    let d = cache.stats().delta(&before);
    assert_eq!(d.consult.runs + d.consult.hits, 0, "no consultation: {d:?}");
    assert_eq!(d.production.misses + d.production.hits, 0, "no production run: {d:?}");
}
