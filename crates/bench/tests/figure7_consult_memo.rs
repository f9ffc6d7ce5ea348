//! A Figure 7 pair runs the §3 consultant once: `figure7_method_list`
//! consults through the process-wide memo, and the tuning that follows
//! reuses that consultation.
//!
//! Own test binary with a single test: the memo counters are
//! process-global, so the deltas below are exact only while nothing else
//! in the process consults.

use peak_core::{tune, VersionCache};
use peak_sim::{MachineKind, MachineSpec};
use peak_workloads::{workload_by_name, Dataset};

#[test]
fn figure7_methods_and_tuning_share_one_consultation() {
    let workload = workload_by_name("TWOLF").expect("known workload");
    let spec = MachineSpec::of(MachineKind::SparcII);
    let consult_runs = || VersionCache::global().stats().consult.runs;
    let before = consult_runs();

    let methods = peak_bench::figure7_method_list(workload.as_ref(), &spec);
    assert_eq!(consult_runs() - before, 1, "a fresh pair consults once");

    tune(workload.as_ref(), &spec, methods[0], Dataset::Train);
    assert_eq!(consult_runs() - before, 1, "tuning reuses the memoized consultation");
}
