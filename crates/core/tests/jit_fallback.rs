//! Per-version tiered fallback: when lowering declines, the jit tier
//! must permanently fall back to the predecoded executor for that
//! version — with bit-identical results, a `jit.deopt` trace event,
//! and the right metric deltas.
//!
//! This lives in its own test binary with a single `#[test]` because it
//! manipulates process-global state (the `PEAK_JIT_MAX_STMTS` env knob
//! and the metrics enable flag); a sibling test racing either would
//! flake.

use peak_core::RunHarness;
use peak_obs::metrics::{self, MetricsRegistry};
use peak_obs::{BufferSink, Tracer};
use peak_opt::OptConfig;
use peak_sim::{ExecOptions, ExecTier, MachineSpec, PreparedVersion};
use peak_workloads::{workload_by_name, Dataset, Workload};
use std::sync::Arc;

fn counter(name: &str) -> u64 {
    MetricsRegistry::global().snapshot().counter(name).unwrap_or(0)
}

fn prepare(w: &dyn Workload, spec: &MachineSpec) -> PreparedVersion {
    PreparedVersion::prepare(peak_opt::optimize(w.program(), w.ts(), &OptConfig::o3()), spec)
}

#[test]
fn declined_lowering_falls_back_to_predecoded_with_identical_results() {
    // A one-statement budget: every real workload declines to lower.
    std::env::set_var("PEAK_JIT_MAX_STMTS", "1");
    metrics::set_enabled(true);
    peak_core::register_metrics();

    let w = workload_by_name("swim").expect("known workload");
    let spec = MachineSpec::sparc_ii();
    let opts = ExecOptions::default();
    const INVOCATIONS: usize = 4;

    // Reference: the predecoded tier, same seed and argument stream.
    let pv = prepare(w.as_ref(), &spec);
    let mut h = RunHarness::new(w.as_ref(), Dataset::Train, &spec, 7);
    h.set_tier(ExecTier::Predecoded);
    let mut want = Vec::new();
    for _ in 0..INVOCATIONS {
        let args = h.next_args().expect("budget");
        want.push(h.execute(&pv, &args, &opts));
    }
    let want_total = h.cycles();

    // Jit tier against the throttled budget: lowering declines on first
    // use, the refusal is remembered, and every invocation runs
    // predecoded.
    let before_deopts = counter("core.jit.deopts");
    let before_pre = counter("core.jit.tier_invocations.predecoded");
    let before_jit = counter("core.jit.tier_invocations.jit");
    let before_blocks = counter("core.jit.blocks_compiled");

    let sink = Arc::new(BufferSink::new());
    let pv = prepare(w.as_ref(), &spec);
    let mut h = RunHarness::new(w.as_ref(), Dataset::Train, &spec, 7);
    h.set_tier(ExecTier::Jit);
    h.set_tracer(Tracer::to_sink(sink.clone()));
    let mut got = Vec::new();
    for _ in 0..INVOCATIONS {
        let args = h.next_args().expect("budget");
        got.push(h.execute(&pv, &args, &opts));
    }

    for (w_r, g_r) in want.iter().zip(&got) {
        assert_eq!(w_r.ret, g_r.ret, "fallback changed results");
        assert_eq!(w_r.true_cycles, g_r.true_cycles, "fallback changed cycles");
    }
    assert_eq!(want_total, h.cycles(), "fallback changed accumulated machine state");

    // Telemetry: one deopt, all invocations charged to the predecoded
    // tier, nothing charged to jit, nothing compiled.
    assert_eq!(counter("core.jit.deopts") - before_deopts, 1, "exactly one deopt");
    assert_eq!(
        counter("core.jit.tier_invocations.predecoded") - before_pre,
        INVOCATIONS as u64,
        "fallback invocations count against the predecoded tier"
    );
    assert_eq!(counter("core.jit.tier_invocations.jit"), before_jit, "no jit-tier executions");
    assert_eq!(counter("core.jit.blocks_compiled"), before_blocks, "nothing lowered");

    // The decline is traced exactly once (the refusal is remembered).
    let deopt_lines: Vec<String> =
        sink.lines().into_iter().filter(|l| l.contains("jit.deopt")).collect();
    assert_eq!(deopt_lines.len(), 1, "one jit.deopt event, not one per invocation");
    assert!(
        deopt_lines[0].contains("budget"),
        "deopt reason names the statement budget: {}",
        deopt_lines[0]
    );

    // With the budget lifted, a fresh version lowers and runs on the
    // jit tier — still bit-identical to the reference.
    std::env::remove_var("PEAK_JIT_MAX_STMTS");
    let pv = prepare(w.as_ref(), &spec);
    let mut h = RunHarness::new(w.as_ref(), Dataset::Train, &spec, 7);
    h.set_tier(ExecTier::Jit);
    let mut jit_results = Vec::new();
    for _ in 0..INVOCATIONS {
        let args = h.next_args().expect("budget");
        jit_results.push(h.execute(&pv, &args, &opts));
    }
    for (w_r, g_r) in want.iter().zip(&jit_results) {
        assert_eq!(w_r.ret, g_r.ret, "jit changed results");
        assert_eq!(w_r.true_cycles, g_r.true_cycles, "jit changed cycles");
    }
    assert!(
        counter("core.jit.tier_invocations.jit") - before_jit >= INVOCATIONS as u64,
        "unthrottled run executes on the jit tier"
    );
    assert!(counter("core.jit.blocks_compiled") > before_blocks, "lowering counted its blocks");
}
