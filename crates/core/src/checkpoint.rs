//! Serializable tuner state: the checkpointed tuning driver writes one
//! JSON document after every completed IE round, and
//! [`Tuner::resume`](crate::tuner::Tuner::resume) continues bit-identically
//! from it — the checkpoint carries everything the search depends on
//! (current base configuration, run-seed cursor, accounting, fault
//! scenario, degradation log), so a killed tuning job loses at most one
//! IE round of work.

use crate::consultant::Method;
use crate::degrade::DegradeEvent;
use peak_sim::FaultConfig;
use peak_util::{Json, ToJson};
use std::path::Path;

/// A complete snapshot of an in-progress (or finished) tuning job.
#[derive(Debug, Clone, PartialEq)]
pub struct TunerCheckpoint {
    /// Benchmark name (validated on resume).
    pub benchmark: String,
    /// Machine name (validated on resume).
    pub machine: String,
    /// Tuning dataset, `"train"` or `"ref"` (validated on resume).
    pub dataset: String,
    /// The initially preferred rating method.
    pub method: Method,
    /// Method that produced the most recent rating (the one a finished
    /// search reports).
    pub last_method: Method,
    /// Current Iterative-Elimination base configuration (flag bits).
    pub base_bits: u64,
    /// Completed IE rounds (the rater's frontier count).
    pub round: usize,
    /// Candidate ratings performed so far.
    pub ratings: usize,
    /// Run-seed cursor of the underlying [`TuningSetup`](crate::rating::TuningSetup).
    pub next_seed: u64,
    /// True cycles consumed by tuning runs.
    pub tuning_cycles: u64,
    /// Application runs started.
    pub runs_used: usize,
    /// TS invocations consumed.
    pub invocations_used: u64,
    /// Installed fault scenario, if any (replayed on resume).
    pub fault_config: Option<FaultConfig>,
    /// The §3 cascade's log so far; its length is the search's switch
    /// count.
    pub events: Vec<DegradeEvent>,
    /// Whether the search has terminated.
    pub done: bool,
}

impl ToJson for TunerCheckpoint {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("benchmark", self.benchmark.to_json()),
            ("machine", self.machine.to_json()),
            ("dataset", self.dataset.to_json()),
            ("method", self.method.to_json()),
            ("last_method", self.last_method.to_json()),
            ("base_bits", self.base_bits.to_json()),
            ("round", self.round.to_json()),
            ("ratings", self.ratings.to_json()),
            ("next_seed", self.next_seed.to_json()),
            ("tuning_cycles", self.tuning_cycles.to_json()),
            ("runs_used", self.runs_used.to_json()),
            ("invocations_used", self.invocations_used.to_json()),
            (
                "fault_config",
                match &self.fault_config {
                    Some(c) => c.to_json(),
                    None => Json::Null,
                },
            ),
            ("events", Json::Arr(self.events.iter().map(|e| e.to_json()).collect())),
            ("done", self.done.to_json()),
        ])
    }
}

impl TunerCheckpoint {
    /// Parse the JSON written by [`ToJson`].
    pub fn from_json(j: &Json) -> Option<TunerCheckpoint> {
        let fault_config = match j.get("fault_config")? {
            Json::Null => None,
            fc => Some(FaultConfig::from_json(fc)?),
        };
        let events = j
            .get("events")?
            .as_arr()?
            .iter()
            .map(DegradeEvent::from_json)
            .collect::<Option<Vec<_>>>()?;
        Some(TunerCheckpoint {
            benchmark: j.get("benchmark")?.as_str()?.to_owned(),
            machine: j.get("machine")?.as_str()?.to_owned(),
            dataset: j.get("dataset")?.as_str()?.to_owned(),
            method: Method::from_json_name(j.get("method")?.as_str()?)?,
            last_method: Method::from_json_name(j.get("last_method")?.as_str()?)?,
            base_bits: j.get("base_bits")?.as_u64()?,
            round: j.get("round")?.as_u64()? as usize,
            ratings: j.get("ratings")?.as_u64()? as usize,
            next_seed: j.get("next_seed")?.as_u64()?,
            tuning_cycles: j.get("tuning_cycles")?.as_u64()?,
            runs_used: j.get("runs_used")?.as_u64()? as usize,
            invocations_used: j.get("invocations_used")?.as_u64()?,
            fault_config,
            events,
            done: j.get("done")?.as_bool()?,
        })
    }

    /// Write the checkpoint atomically *and durably*: the temp file is
    /// fsynced before the rename and the parent directory after it
    /// ([`peak_util::write_durable`]), so a kill mid-save never leaves a
    /// truncated checkpoint behind and a power loss after a successful
    /// save never rolls it back. The serve knowledge store shares the
    /// same helper for its segment files.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        peak_util::write_durable(path, self.to_json().pretty().as_bytes())
    }

    /// Load a checkpoint from disk.
    pub fn load(path: &Path) -> std::io::Result<TunerCheckpoint> {
        let text = std::fs::read_to_string(path)?;
        let j = peak_util::from_str(&text).map_err(|e| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, format!("{path:?}: {e}"))
        })?;
        TunerCheckpoint::from_json(&j).ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("{path:?}: not a tuner checkpoint"),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degrade::DegradeTrigger;

    fn sample() -> TunerCheckpoint {
        TunerCheckpoint {
            benchmark: "SWIM".into(),
            machine: "SPARC-II".into(),
            dataset: "train".into(),
            method: Method::Cbr,
            last_method: Method::Mbr,
            base_bits: 0x3FF_FFFF_FFFF,
            round: 3,
            ratings: 114,
            next_seed: 42,
            tuning_cycles: 123_456_789,
            runs_used: 17,
            invocations_used: 5_000,
            fault_config: Some(FaultConfig::none(9)),
            events: vec![DegradeEvent {
                rating: 1,
                from: Method::Cbr,
                to: Method::Mbr,
                trigger: DegradeTrigger::Unconverged,
            }],
            done: false,
        }
    }

    #[test]
    fn json_roundtrip() {
        let cp = sample();
        let text = cp.to_json().pretty();
        let back = TunerCheckpoint::from_json(&peak_util::from_str(&text).unwrap()).unwrap();
        assert_eq!(back, cp);
    }

    #[test]
    fn save_load_roundtrip() {
        let cp = sample();
        let dir = std::env::temp_dir().join("peak-checkpoint-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cp.json");
        cp.save(&path).unwrap();
        let back = TunerCheckpoint::load(&path).unwrap();
        assert_eq!(back, cp);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn none_fault_config_roundtrips() {
        let mut cp = sample();
        cp.fault_config = None;
        let text = cp.to_json().pretty();
        let back = TunerCheckpoint::from_json(&peak_util::from_str(&text).unwrap()).unwrap();
        assert_eq!(back, cp);
    }
}
