//! The harness's batched `core.harness.invocations` count must agree
//! with the per-invocation `core.jit.tier_invocations.*` counts across a
//! metrics switch flip: invocations run while recording was off are
//! never counted, not even when the harness flushes after recording is
//! back on.
//!
//! This lives in its own test binary with a single `#[test]` because it
//! flips the process-global metrics switch; a sibling test recording
//! concurrently would flake.

use peak_core::RunHarness;
use peak_obs::metrics::{self, MetricsRegistry};
use peak_opt::OptConfig;
use peak_sim::{ExecOptions, MachineSpec, PreparedVersion};
use peak_workloads::{workload_by_name, Dataset};

const TIER_COUNTERS: [&str; 3] = [
    "core.jit.tier_invocations.interp",
    "core.jit.tier_invocations.predecoded",
    "core.jit.tier_invocations.jit",
];

fn counter(name: &str) -> u64 {
    MetricsRegistry::global().snapshot().counter(name).unwrap_or(0)
}

fn tier_total() -> u64 {
    TIER_COUNTERS.iter().map(|n| counter(n)).sum()
}

#[test]
fn invocations_run_with_recording_off_are_never_counted() {
    let w = workload_by_name("swim").expect("known workload");
    let spec = MachineSpec::sparc_ii();
    let pv =
        PreparedVersion::prepare(peak_opt::optimize(w.program(), w.ts(), &OptConfig::o3()), &spec);
    let opts = ExecOptions::default();
    let before_harness = counter("core.harness.invocations");
    let before_tiers = tier_total();

    metrics::set_enabled(false);
    let mut h = RunHarness::new(w.as_ref(), Dataset::Train, &spec, 0);
    let mut ran = 0u64;
    while let Some(args) = h.next_args() {
        h.execute(&pv, &args, &opts);
        ran += 1;
    }
    assert!(ran > 0, "the run executed invocations");
    metrics::set_enabled(true);
    drop(h);

    let harness = counter("core.harness.invocations") - before_harness;
    let tiers = tier_total() - before_tiers;
    assert_eq!(harness, tiers, "batched and per-invocation counts must agree");
    assert_eq!(harness, 0, "nothing ran while recording was on");
}
