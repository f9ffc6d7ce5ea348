//! Why the §3 cascade rejected a rating (robustness extension).
//!
//! The paper's §3 fallback ("if the system cannot achieve enough accuracy
//! … it switches to the next applicable rating method") assumes the only
//! failure mode is an unconverged window. Under injected faults — version
//! crashes, measurement dropout, jitter bursts — a rating can also fail
//! in ways no other per-invocation method fixes. The one cascade,
//! `search::rate_cascade`, classifies every rejected outcome with
//! [`DegradeTrigger::of`] and logs it as a [`DegradeEvent`] on the
//! [`FrontierRater`](crate::strategy::FrontierRater) — serializable, so
//! fault scenarios replay to byte-identical event streams and tuner
//! checkpoints carry the log. After a *fatal* rejection (crash or
//! dropout) the cascade ends in one best-effort WHL rating.

use crate::consultant::Method;
use crate::rating::RateOutcome;
use crate::search::SWITCH_FRACTION;
use peak_util::{Json, ToJson};

/// Why the cascade moved from one rating method to the next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeTrigger {
    /// More than [`SWITCH_FRACTION`] of the candidates stayed
    /// unconverged.
    Unconverged,
    /// Measurement dropout rate exceeded `DROPOUT_THRESHOLD`.
    DropoutRate,
    /// A version crashed during rating; deterministic crashes recur, so
    /// the method is abandoned.
    VersionCrash,
    /// Regression system was singular / variance unbounded (MBR).
    IllConditioned,
}

/// Dropout rate above which a rating is rejected even if it converged.
const DROPOUT_THRESHOLD: f64 = 0.25;

impl DegradeTrigger {
    /// Why `out`, a rating of `ncand` candidates, must be rejected;
    /// `None` accepts it. Crashes and dropout reject even a converged
    /// outcome; both only come from injected faults.
    pub(crate) fn of(out: &RateOutcome, ncand: usize) -> Option<DegradeTrigger> {
        if out.crashes > 0 {
            Some(DegradeTrigger::VersionCrash)
        } else if out.dropout_rate() > DROPOUT_THRESHOLD {
            Some(DegradeTrigger::DropoutRate)
        } else if out.unconverged as f64 / (ncand.max(1) as f64) <= SWITCH_FRACTION {
            None
        } else if out.method == Method::Mbr && out.vars.iter().any(|v| !v.is_finite()) {
            Some(DegradeTrigger::IllConditioned)
        } else {
            Some(DegradeTrigger::Unconverged)
        }
    }

    /// Whether no other per-invocation method can be trusted after this
    /// rejection (injected crashes recur at the same invocation index, a
    /// lossy channel stays lossy), so the cascade ends on WHL.
    pub(crate) fn is_fatal(self) -> bool {
        matches!(self, DegradeTrigger::VersionCrash | DegradeTrigger::DropoutRate)
    }

    /// Stable string form (JSON + logs).
    pub fn name(self) -> &'static str {
        match self {
            DegradeTrigger::Unconverged => "unconverged",
            DegradeTrigger::DropoutRate => "dropout-rate",
            DegradeTrigger::VersionCrash => "version-crash",
            DegradeTrigger::IllConditioned => "ill-conditioned",
        }
    }

    /// Parse the string written by [`DegradeTrigger::name`].
    pub fn from_name(name: &str) -> Option<DegradeTrigger> {
        Some(match name {
            "unconverged" => DegradeTrigger::Unconverged,
            "dropout-rate" => DegradeTrigger::DropoutRate,
            "version-crash" => DegradeTrigger::VersionCrash,
            "ill-conditioned" => DegradeTrigger::IllConditioned,
            _ => return None,
        })
    }
}

impl ToJson for DegradeTrigger {
    fn to_json(&self) -> Json {
        Json::Str(self.name().to_owned())
    }
}

/// One rejected rating, logged by the cascade.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradeEvent {
    /// The rater's frontier round the rejection happened in (0-based).
    pub rating: usize,
    /// Method whose outcome was rejected.
    pub from: Method,
    /// Method tried next; after the try-list's last method, the one the
    /// result is reported under (WHL after a fatal rejection).
    pub to: Method,
    /// Why.
    pub trigger: DegradeTrigger,
}

impl ToJson for DegradeEvent {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("rating", self.rating.to_json()),
            ("from", self.from.to_json()),
            ("to", self.to.to_json()),
            ("trigger", self.trigger.to_json()),
        ])
    }
}

impl DegradeEvent {
    /// Parse the JSON written by [`ToJson`].
    pub fn from_json(j: &Json) -> Option<DegradeEvent> {
        Some(DegradeEvent {
            rating: j.get("rating")?.as_u64()? as usize,
            from: Method::from_json_name(j.get("from")?.as_str()?)?,
            to: Method::from_json_name(j.get("to")?.as_str()?)?,
            trigger: DegradeTrigger::from_name(j.get("trigger")?.as_str()?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rating::TuningSetup;
    use crate::strategy::FrontierRater;
    use peak_sim::{FaultConfig, MachineSpec};
    use peak_workloads::{swim::SwimCalc3, Dataset};

    #[test]
    fn clean_rating_needs_no_degradation() {
        let w = SwimCalc3::new();
        let mut setup = TuningSetup::new(&w, MachineSpec::sparc_ii(), Dataset::Train);
        let base = peak_opt::OptConfig::o3();
        let mut rater = FrontierRater::serial(&mut setup, Method::Cbr);
        let fo = rater.rate(base, &[base]).expect("unlimited budget");
        assert_eq!(fo.method, Method::Cbr);
        assert!(rater.events().is_empty(), "{:?}", rater.events());
        assert!((fo.out.improvements[0] - 1.0).abs() < 0.03);
    }

    #[test]
    fn crash_degrades_without_panic() {
        let w = SwimCalc3::new();
        let mut setup = TuningSetup::new(&w, MachineSpec::sparc_ii(), Dataset::Train);
        let mut fc = FaultConfig::none(7);
        fc.crash_at = Some(3);
        setup.set_faults(Some(fc));
        let base = peak_opt::OptConfig::o3();
        let mut rater = FrontierRater::serial(&mut setup, Method::Cbr);
        let fo = rater.rate(base, &[base]).expect("unlimited budget");
        // Every method that measures per-invocation crashes on the 3rd
        // execution of every run; WHL is the terminal best-effort fallback.
        assert_eq!(fo.method, Method::Whl, "events: {:?}", rater.events());
        assert!(
            rater.events().iter().any(|e| e.trigger == DegradeTrigger::VersionCrash),
            "{:?}",
            rater.events()
        );
    }

    #[test]
    fn heavy_dropout_triggers_dropout_degrade() {
        let w = SwimCalc3::new();
        let mut setup = TuningSetup::new(&w, MachineSpec::sparc_ii(), Dataset::Train);
        let mut fc = FaultConfig::none(11);
        fc.dropout_per_million = 600_000; // 60% of readings lost
        setup.set_faults(Some(fc));
        let base = peak_opt::OptConfig::o3();
        let mut rater = FrontierRater::serial(&mut setup, Method::Cbr);
        rater.rate(base, &[base]).expect("unlimited budget");
        assert!(
            rater.events().iter().any(|e| e.trigger == DegradeTrigger::DropoutRate),
            "{:?}",
            rater.events()
        );
    }

    #[test]
    fn event_json_roundtrip() {
        let e = DegradeEvent {
            rating: 3,
            from: Method::Cbr,
            to: Method::Mbr,
            trigger: DegradeTrigger::DropoutRate,
        };
        let j = e.to_json();
        let parsed = DegradeEvent::from_json(&j).unwrap();
        assert_eq!(parsed, e);
        let text = j.pretty();
        let back = DegradeEvent::from_json(&peak_util::from_str(&text).unwrap()).unwrap();
        assert_eq!(back, e);
    }
}
