//! Process-wide pool of memoized argument streams.
//!
//! Companion to [`crate::version_cache`]: where that pool dedups
//! *compilation* work across harnesses, this one dedups *argument
//! generation*. A stream is materialized at most once per (workload,
//! dataset) per process ([`peak_workloads::stream::ArgStream`]) and
//! shared via `Arc` — every `RunHarness` after the first clones the
//! post-setup image and replays recorded writes instead of re-running
//! the generator. The live generator stays reachable through
//! [`RunHarness::with_stream_mode`](crate::RunHarness::with_stream_mode),
//! the reference the differential suite compares against.

use peak_workloads::stream::ArgStream;
use peak_workloads::{Dataset, Workload};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

type Slot = Arc<OnceLock<Arc<ArgStream>>>;

fn pool() -> &'static Mutex<HashMap<(&'static str, Dataset), Slot>> {
    static POOL: OnceLock<Mutex<HashMap<(&'static str, Dataset), Slot>>> = OnceLock::new();
    POOL.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The shared stream for (workload, dataset), materializing on first
/// request. Materialization runs *outside* the pool lock (per-key
/// `OnceLock` slots), so two threads asking for different streams never
/// serialize on each other's generator run, and two asking for the same
/// stream build it exactly once.
pub fn arg_stream(w: &dyn Workload, ds: Dataset) -> Arc<ArgStream> {
    let slot = {
        let mut map = pool().lock().unwrap();
        map.entry((w.name(), ds)).or_default().clone()
    };
    slot.get_or_init(|| Arc::new(ArgStream::materialize(w, ds))).clone()
}

/// (streams resident, approximate bytes) — introspection for stats
/// surfaces.
pub fn stats() -> (usize, usize) {
    let map = pool().lock().unwrap();
    let mut n = 0;
    let mut bytes = 0;
    for slot in map.values() {
        if let Some(s) = slot.get() {
            n += 1;
            bytes += s.approx_bytes();
        }
    }
    (n, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use peak_workloads::swim::SwimCalc3;

    #[test]
    fn pool_dedups_and_shares() {
        let w = SwimCalc3::new();
        let a = arg_stream(&w, Dataset::Train);
        let b = arg_stream(&w, Dataset::Train);
        assert!(Arc::ptr_eq(&a, &b));
        let r = arg_stream(&w, Dataset::Ref);
        assert!(!Arc::ptr_eq(&a, &r));
        let (n, bytes) = stats();
        assert!(n >= 2);
        assert!(bytes > 0);
    }
}
