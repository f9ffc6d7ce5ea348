//! Graceful degradation of the rating layer (robustness extension).
//!
//! The paper's §3 fallback ("if the system cannot achieve enough accuracy
//! … it switches to the next applicable rating method") assumes the only
//! failure mode is an unconverged window. Under injected faults — version
//! crashes, measurement dropout, jitter bursts — a rating can fail in
//! ways retrying cannot fix. The [`RatingSupervisor`] wraps
//! [`rate_with`](crate::rating::rate_with) with:
//!
//! 1. **Retry with backoff**: an unconverged rating is retried with a
//!    widened window budget (`window_scale *= WIDEN_FACTOR`), up to
//!    `MAX_RETRIES` times;
//! 2. **Fallback cascade**: persistent failures walk down
//!    preferred → consultant order → WHL, which is terminal and
//!    best-effort (it accepts whatever it measures);
//! 3. **Structured logging**: every downgrade is recorded as a
//!    [`DegradeEvent`] — serializable, so fault scenarios replay to
//!    byte-identical event streams and checkpoints carry the log.

use crate::consultant::Method;
use crate::rating::{rate_with, RateOptions, RateOutcome, TuningSetup};
use peak_obs::event;
use peak_opt::OptConfig;
use peak_util::{Json, ToJson};

/// Why the supervisor moved from one rating method to the next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeTrigger {
    /// Method structurally inapplicable (no consultant plan).
    Inapplicable,
    /// Context space too large/fragmented for CBR to rate in budget.
    ContextExplosion,
    /// Too many candidate windows failed to converge even after retries.
    Unconverged,
    /// Measurement dropout rate exceeded `DROPOUT_THRESHOLD`.
    DropoutRate,
    /// A version crashed during rating; deterministic crashes recur, so
    /// the method is abandoned without retry.
    VersionCrash,
    /// Regression system was singular / variance unbounded (MBR).
    IllConditioned,
}

impl DegradeTrigger {
    /// Stable string form (JSON + logs).
    pub fn name(self) -> &'static str {
        match self {
            DegradeTrigger::Inapplicable => "inapplicable",
            DegradeTrigger::ContextExplosion => "context-explosion",
            DegradeTrigger::Unconverged => "unconverged",
            DegradeTrigger::DropoutRate => "dropout-rate",
            DegradeTrigger::VersionCrash => "version-crash",
            DegradeTrigger::IllConditioned => "ill-conditioned",
        }
    }

    /// Parse the string written by [`DegradeTrigger::name`].
    pub fn from_name(name: &str) -> Option<DegradeTrigger> {
        Some(match name {
            "inapplicable" => DegradeTrigger::Inapplicable,
            "context-explosion" => DegradeTrigger::ContextExplosion,
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

/// One downgrade step, logged by the supervisor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradeEvent {
    /// Which supervised rating call this happened in (0-based).
    pub rating: usize,
    /// Method given up on.
    pub from: Method,
    /// Method degraded to.
    pub to: Method,
    /// Why.
    pub trigger: DegradeTrigger,
    /// Widening retries spent on `from` before giving up.
    pub retries: u32,
}

impl ToJson for DegradeEvent {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("rating", self.rating.to_json()),
            ("from", self.from.to_json()),
            ("to", self.to.to_json()),
            ("trigger", self.trigger.to_json()),
            ("retries", self.retries.to_json()),
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
            retries: j.get("retries")?.as_u64()? as u32,
        })
    }
}

/// Widening retries per method before degrading.
const MAX_RETRIES: u32 = 2;
/// Window-budget multiplier applied per retry.
const WIDEN_FACTOR: f64 = 1.8;
/// Dropout rate above which a method is abandoned immediately.
const DROPOUT_THRESHOLD: f64 = 0.25;

/// Supervises rating calls: retries, degrades, and logs.
#[derive(Debug, Clone, Default)]
pub struct RatingSupervisor {
    events: Vec<DegradeEvent>,
    ratings: usize,
}

impl RatingSupervisor {
    /// All downgrades logged so far.
    pub fn events(&self) -> &[DegradeEvent] {
        &self.events
    }

    /// Supervised rating calls made so far.
    pub fn ratings(&self) -> usize {
        self.ratings
    }

    /// Restore supervisor state from a checkpoint.
    pub fn restore(&mut self, events: Vec<DegradeEvent>, ratings: usize) {
        self.events = events;
        self.ratings = ratings;
    }

    /// The method cascade for a given preferred method: the §3 order
    /// ([`Consultation::fallback_order`](crate::consultant::Consultation::fallback_order)),
    /// ending in WHL (always applicable, accepts any outcome).
    fn cascade(setup: &TuningSetup<'_>, preferred: Method) -> Vec<Method> {
        let mut list = setup.consult.fallback_order(preferred);
        if !list.contains(&Method::Whl) {
            list.push(Method::Whl);
        }
        list
    }

    /// Inspect an outcome for a reason to abandon the method right away
    /// (retrying cannot fix these: injected crashes are deterministic per
    /// invocation index, and a lossy channel stays lossy).
    fn fatal_trigger(out: &RateOutcome) -> Option<DegradeTrigger> {
        if out.crashes > 0 {
            return Some(DegradeTrigger::VersionCrash);
        }
        if out.dropout_rate() > DROPOUT_THRESHOLD {
            return Some(DegradeTrigger::DropoutRate);
        }
        None
    }

    /// Trigger for an outcome that stayed unconverged after retries.
    fn unconverged_trigger(out: &RateOutcome) -> DegradeTrigger {
        if out.method == Method::Mbr && out.vars.iter().any(|v| !v.is_finite()) {
            DegradeTrigger::IllConditioned
        } else {
            DegradeTrigger::Unconverged
        }
    }

    /// Trigger for a method that refused to rate at all.
    fn inapplicable_trigger(method: Method) -> DegradeTrigger {
        match method {
            Method::Cbr => DegradeTrigger::ContextExplosion,
            _ => DegradeTrigger::Inapplicable,
        }
    }

    /// Rate `candidates` against `base`, starting from `preferred` and
    /// degrading down the cascade as needed. Always returns an outcome:
    /// the terminal WHL accepts whatever it measures.
    pub fn rate(
        &mut self,
        setup: &mut TuningSetup<'_>,
        preferred: Method,
        base: OptConfig,
        candidates: &[OptConfig],
    ) -> (RateOutcome, Method) {
        let rating = self.ratings;
        self.ratings += 1;
        let tracer = setup.tracer().clone();
        let cascade = Self::cascade(setup, preferred);
        let ncand = candidates.len().max(1) as f64;
        let mut last: Option<RateOutcome> = None;
        for (pos, &m) in cascade.iter().enumerate() {
            let terminal = pos + 1 == cascade.len();
            let next = cascade.get(pos + 1).copied().unwrap_or(Method::Whl);
            let log = |trigger: DegradeTrigger, retries: u32, events: &mut Vec<DegradeEvent>| {
                events.push(DegradeEvent { rating, from: m, to: next, trigger, retries });
                event!(
                    tracer,
                    "supervisor.degrade",
                    rating = rating as u64,
                    from = m.name(),
                    to = next.name(),
                    trigger = trigger.name(),
                    retries = retries as u64,
                );
            };
            let mut opts = RateOptions::default();
            let mut retries = 0u32;
            loop {
                let Some(out) = rate_with(setup, m, base, candidates, &opts) else {
                    log(Self::inapplicable_trigger(m), retries, &mut self.events);
                    break;
                };
                if terminal {
                    // Best-effort terminal method: accept any outcome.
                    return (out, m);
                }
                if let Some(trigger) = Self::fatal_trigger(&out) {
                    log(trigger, retries, &mut self.events);
                    last = Some(out);
                    break;
                }
                let frac_bad = out.unconverged as f64 / ncand;
                if frac_bad <= crate::search::SWITCH_FRACTION {
                    return (out, m);
                }
                if retries < MAX_RETRIES {
                    retries += 1;
                    opts.window_scale *= WIDEN_FACTOR;
                    event!(
                        tracer,
                        "supervisor.retry",
                        rating = rating as u64,
                        method = m.name(),
                        retry = retries as u64,
                        window_scale = opts.window_scale,
                        unconverged = out.unconverged as u64,
                    );
                    continue;
                }
                log(Self::unconverged_trigger(&out), retries, &mut self.events);
                last = Some(out);
                break;
            }
        }
        // Unreachable in practice (WHL is terminal and always rates), but
        // keep a defensive completion path.
        let m = *cascade.last().expect("cascade never empty");
        let out = last.unwrap_or_else(|| {
            rate_with(setup, Method::Whl, base, candidates, &RateOptions::default())
                .expect("WHL always rates")
        });
        (out, m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peak_sim::{FaultConfig, MachineSpec};
    use peak_workloads::{swim::SwimCalc3, Dataset};

    #[test]
    fn clean_rating_needs_no_degradation() {
        let w = SwimCalc3::new();
        let mut setup = TuningSetup::new(&w, MachineSpec::sparc_ii(), Dataset::Train);
        let base = peak_opt::OptConfig::o3();
        let mut sup = RatingSupervisor::default();
        let (out, m) = sup.rate(&mut setup, Method::Cbr, base, &[base]);
        assert_eq!(m, Method::Cbr);
        assert!(sup.events().is_empty(), "{:?}", sup.events());
        assert!((out.improvements[0] - 1.0).abs() < 0.03);
    }

    #[test]
    fn crash_degrades_without_panic() {
        let w = SwimCalc3::new();
        let mut setup = TuningSetup::new(&w, MachineSpec::sparc_ii(), Dataset::Train);
        let mut fc = FaultConfig::none(7);
        fc.crash_at = Some(3);
        setup.set_faults(Some(fc));
        let base = peak_opt::OptConfig::o3();
        let mut sup = RatingSupervisor::default();
        let (_, m) = sup.rate(&mut setup, Method::Cbr, base, &[base]);
        // Every method that measures per-invocation crashes on the 3rd
        // execution of every run; WHL is the terminal best-effort fallback.
        assert_eq!(m, Method::Whl, "events: {:?}", sup.events());
        assert!(
            sup.events().iter().any(|e| e.trigger == DegradeTrigger::VersionCrash),
            "{:?}",
            sup.events()
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
        let mut sup = RatingSupervisor::default();
        let (_, _) = sup.rate(&mut setup, Method::Cbr, base, &[base]);
        assert!(
            sup.events().iter().any(|e| e.trigger == DegradeTrigger::DropoutRate),
            "{:?}",
            sup.events()
        );
    }

    #[test]
    fn event_json_roundtrip() {
        let e = DegradeEvent {
            rating: 3,
            from: Method::Cbr,
            to: Method::Mbr,
            trigger: DegradeTrigger::DropoutRate,
            retries: 2,
        };
        let j = e.to_json();
        let parsed = DegradeEvent::from_json(&j).unwrap();
        assert_eq!(parsed, e);
        let text = j.pretty();
        let back = DegradeEvent::from_json(&peak_util::from_str(&text).unwrap()).unwrap();
        assert_eq!(back, e);
    }
}
