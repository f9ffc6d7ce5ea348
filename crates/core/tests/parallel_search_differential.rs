//! Differential determinism tests for the parallel candidate-frontier
//! search: `IterativeElimination` on a `FrontierRater::pooled` rater
//! must produce a bit-identical `SearchResult` at every thread count. The 1-thread pool runs every
//! job inline in index order — that *is* the serial reference — so
//! comparing it against 2- and N-thread pools pins down the whole
//! determinism story: per-job seeding, scratch isolation, index-ordered
//! merging, and in-flight compile de-duplication.

use peak_core::consultant::Method;
use peak_core::{
    FrontierRater, IterativeElimination, Pool, SearchResult, SearchStrategy, TuningSetup,
};
use peak_opt::OptConfig;
use peak_sim::MachineSpec;
use peak_workloads::Dataset;

/// Thread counts compared: serial reference, the smallest parallel
/// pool, and an oversubscribed one (more workers than cores on CI).
const THREADS: [usize; 3] = [1, 2, 5];

fn run_leg(
    bench: &str,
    spec: &MachineSpec,
    method: Method,
    threads: usize,
    rounds: usize,
) -> SearchResult {
    let w = peak_workloads::workload_by_name(bench).expect("known workload");
    let mut setup = TuningSetup::new(w.as_ref(), spec.clone(), Dataset::Train);
    let pool = Pool::with_threads(threads);
    let ie = IterativeElimination { start: OptConfig::o3(), max_rounds: rounds };
    ie.run(&mut FrontierRater::pooled(&mut setup, pool, method))
}

fn assert_identical(bench: &str, spec: &MachineSpec, method: Method, rounds: usize) {
    let reference = run_leg(bench, spec, method, THREADS[0], rounds);
    assert!(reference.ratings > 0, "search must rate something");
    for &threads in &THREADS[1..] {
        let got = run_leg(bench, spec, method, threads, rounds);
        let label = format!("{bench}/{}/{} at {threads} threads", spec.kind.name(), method.name());
        assert_eq!(got.best, reference.best, "{label}: best config");
        assert_eq!(got.disabled_flags, reference.disabled_flags, "{label}: disabled flags");
        assert_eq!(got.method, reference.method, "{label}: final method");
        assert_eq!(got.switches, reference.switches, "{label}: switches");
        assert_eq!(got.ratings, reference.ratings, "{label}: ratings count");
        assert_eq!(got.tuning_cycles, reference.tuning_cycles, "{label}: tuning cycles");
        assert_eq!(got.runs, reference.runs, "{label}: runs");
        assert_eq!(got.invocations, reference.invocations, "{label}: invocations");
    }
}

/// Two IE rounds on SWIM×SPARC-II×CBR: crosses a round boundary, so the
/// base update and the second round's re-seeded frontier are covered.
#[test]
fn swim_sparc_cbr_identical_across_thread_counts() {
    assert_identical("swim", &MachineSpec::sparc_ii(), Method::Cbr, 2);
}

/// One round of ART×Pentium-IV×RBR — the paper's marquee cell (and the
/// machine where float-ordering wobble once lived).
#[test]
fn art_p4_rbr_identical_across_thread_counts() {
    assert_identical("art", &MachineSpec::pentium_iv(), Method::Rbr, 1);
}
