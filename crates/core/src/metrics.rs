//! The tuning core's handles into the global metrics registry,
//! registered together on first use. Call sites just count: the
//! instruments themselves skip the work while recording is off.
//!
//! * `core.rating.calls` — rating invocations (any method)
//! * `core.search.ie_rounds` — iterative-elimination rounds executed
//! * `core.harness.invocations` — TS invocations executed (batched per
//!   run by the harness)
//! * `core.jit.tier_invocations.{interp,predecoded,jit}` — invocations
//!   executed per tier (the predecoded count includes jit-tier fallback
//!   executions)
//! * `core.jit.blocks_compiled` — basic blocks lowered to threaded code
//! * `core.jit.deopts` — versions that declined jit lowering (fell back)

use peak_obs::{Counter, MetricsRegistry};
use peak_sim::ExecTier;
use std::sync::{Arc, OnceLock};

pub(crate) struct CoreMetrics {
    pub(crate) rating_calls: Arc<Counter>,
    pub(crate) ie_rounds: Arc<Counter>,
    pub(crate) harness_invocations: Arc<Counter>,
    tier_interp: Arc<Counter>,
    tier_predecoded: Arc<Counter>,
    tier_jit: Arc<Counter>,
    pub(crate) jit_blocks_compiled: Arc<Counter>,
    pub(crate) jit_deopts: Arc<Counter>,
}

impl CoreMetrics {
    /// The invocation counter of the tier that actually ran.
    #[inline]
    pub(crate) fn tier_invocations(&self, tier: ExecTier) -> &Counter {
        match tier {
            ExecTier::Interp => &self.tier_interp,
            ExecTier::Predecoded => &self.tier_predecoded,
            ExecTier::Jit => &self.tier_jit,
        }
    }
}

pub(crate) fn core_metrics() -> &'static CoreMetrics {
    static M: OnceLock<CoreMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = MetricsRegistry::global();
        CoreMetrics {
            rating_calls: r.counter("core.rating.calls", "Rating invocations (any method)"),
            ie_rounds: r
                .counter("core.search.ie_rounds", "Iterative-elimination rounds executed"),
            harness_invocations: r.counter("core.harness.invocations", "TS invocations executed"),
            tier_interp: r.counter(
                "core.jit.tier_invocations.interp",
                "TS invocations executed by the slow interpreter tier",
            ),
            tier_predecoded: r.counter(
                "core.jit.tier_invocations.predecoded",
                "TS invocations executed by the predecoded tier (includes jit fallback)",
            ),
            tier_jit: r.counter(
                "core.jit.tier_invocations.jit",
                "TS invocations executed by the threaded-code jit tier",
            ),
            jit_blocks_compiled: r
                .counter("core.jit.blocks_compiled", "Basic blocks lowered to threaded code"),
            jit_deopts: r
                .counter("core.jit.deopts", "Versions that declined jit lowering (fell back)"),
        }
    })
}

/// Ensure every core counter exists in the registry (at zero) so stats
/// snapshots always carry them, even before the first rating or
/// jit-tier invocation. Called by the serve daemon's stats path.
pub fn register_metrics() {
    core_metrics();
}
