//! Execution-tier glue: lazily lowers prepared versions with
//! `peak-jit`, remembers per-version refusals, and counts tier
//! telemetry in the global metrics registry.
//!
//! The harness asks [`jit_backend`] for a version's native backend on
//! every jit-tier invocation; the underlying
//! [`PreparedVersion::native_backend`] slot makes that a one-time
//! lowering per version (shared process-wide through the version
//! cache), with a remembered `None` for versions that declined — the
//! permanent per-version fallback the tier ladder promises. Declines
//! emit a `jit.deopt` trace event and bump `core.jit.deopts`; lowering
//! adds to `core.jit.blocks_compiled` (handles in `crate::metrics`).

use crate::metrics::core_metrics;
use peak_obs::{event, Tracer};
use peak_sim::{PreparedVersion, TierBackend};
use std::sync::Arc;

/// The version's native backend, lowering it on first request (budget
/// from `PEAK_JIT_MAX_STMTS`). `None` = this version declined and
/// permanently runs on the predecoded tier; the refusal is remembered,
/// counted once in `core.jit.deopts`, and traced once as `jit.deopt`.
pub fn jit_backend<'a>(
    pv: &'a PreparedVersion,
    tracer: &Tracer,
) -> Option<&'a Arc<dyn TierBackend>> {
    pv.native_backend(|pv| {
        let opts = peak_jit::JitOptions::from_env();
        match peak_jit::lower(pv, &opts) {
            Ok(jv) => {
                core_metrics().jit_blocks_compiled.add(jv.blocks() as u64);
                Some(Arc::new(jv) as Arc<dyn TierBackend>)
            }
            Err(reason) => {
                core_metrics().jit_deopts.inc();
                event!(tracer, "jit.deopt", reason = reason.to_string());
                None
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use peak_opt::OptConfig;
    use peak_sim::MachineSpec;
    use peak_workloads::Workload;

    #[test]
    fn backend_lowers_once_and_is_shared() {
        let w = peak_workloads::swim::SwimCalc3::new();
        let cv = peak_opt::optimize(w.program(), w.ts(), &OptConfig::o3());
        let pv = PreparedVersion::prepare(cv, &MachineSpec::sparc_ii());
        let t = Tracer::disabled();
        let a = jit_backend(&pv, &t).expect("swim lowers") as *const _;
        let b = jit_backend(&pv, &t).expect("swim lowers") as *const _;
        assert_eq!(a, b, "same artifact returned on every request");
    }
}
