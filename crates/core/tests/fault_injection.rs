//! End-to-end fault-injection tests: deterministic replay of degradation
//! event streams, cascade survival under crash+jitter on both rating
//! protocols, and checkpointed kill/resume equivalence.

use peak_core::consultant::Method;
use peak_core::rating::TuningSetup;
use peak_core::{DegradeTrigger, FrontierRater, Pool, Tuner};
use peak_util::ToJson;
use peak_obs::{BufferSink, Tracer};
use peak_opt::OptConfig;
use peak_sim::{FaultConfig, MachineSpec};
use peak_workloads::{swim::SwimCalc3, Dataset};
use std::sync::Arc;

/// A fault scenario nasty enough to force degradation: moderate jitter
/// and dropout plus a deterministic crash partway into every run.
fn nasty_faults(seed: u64) -> FaultConfig {
    let spec = MachineSpec::sparc_ii();
    let mut fc = spec.fault_profile(1.0, seed);
    fc.crash_at = Some(8);
    fc
}

#[test]
fn same_seed_fault_replay_is_bit_identical() {
    // Each replay records its full telemetry stream; determinism must
    // extend to the trace (same seed + same FaultConfig ⇒ byte-identical
    // JSONL), not just the rating result.
    let run = || {
        let w = SwimCalc3::new();
        let mut setup = TuningSetup::new(&w, MachineSpec::sparc_ii(), Dataset::Train);
        let sink = Arc::new(BufferSink::new());
        setup.set_tracer(Tracer::to_sink(sink.clone()));
        setup.set_faults(Some(nasty_faults(0xDEAD)));
        let base = OptConfig::o3();
        let cand = [base.without(peak_opt::Flag::LoopUnroll), base];
        let mut rater = FrontierRater::serial(&mut setup, Method::Cbr);
        let fo = rater.rate(base, &cand).expect("unlimited budget");
        let events = rater.events().to_vec();
        (fo.out.improvements, fo.method, events, setup.invocations_used, sink.drain())
    };
    let (imp1, m1, ev1, inv1, trace1) = run();
    let (imp2, m2, ev2, inv2, trace2) = run();
    assert_eq!(imp1, imp2, "improvements must replay bit-identically");
    assert_eq!(m1, m2);
    assert_eq!(ev1, ev2, "degradation event streams must replay identically");
    assert_eq!(inv1, inv2);
    assert!(!ev1.is_empty(), "the nasty scenario must actually degrade");
    assert_eq!(trace1, trace2, "telemetry streams must replay byte-identically");
    assert!(
        trace1.iter().any(|l| l.contains("\"supervisor.degrade\"")),
        "the degradation cascade must appear in the trace"
    );
    assert!(
        trace1.iter().any(|l| l.contains("\"sim.run\"")),
        "per-run provenance must appear in the trace"
    );
}

#[test]
fn tracing_is_observation_only() {
    // The same scenario rated with and without telemetry must produce
    // identical results: instrumentation never perturbs the measurement.
    let run = |traced: bool| {
        let w = SwimCalc3::new();
        let mut setup = TuningSetup::new(&w, MachineSpec::sparc_ii(), Dataset::Train);
        if traced {
            setup.set_tracer(Tracer::to_sink(Arc::new(BufferSink::new())));
        }
        setup.set_faults(Some(nasty_faults(0xDEAD)));
        let base = OptConfig::o3();
        let fo = FrontierRater::serial(&mut setup, Method::Cbr)
            .rate(base, &[base])
            .expect("unlimited budget");
        (fo.out.improvements, fo.method, setup.invocations_used)
    };
    assert_eq!(run(false), run(true));
}

#[test]
fn different_scenario_seeds_may_diverge_but_never_panic() {
    for seed in [1u64, 2, 3] {
        let w = SwimCalc3::new();
        let mut setup = TuningSetup::new(&w, MachineSpec::sparc_ii(), Dataset::Train);
        let spec = MachineSpec::sparc_ii();
        setup.set_faults(Some(spec.fault_profile(2.0, seed)));
        let base = OptConfig::o3();
        let fo = FrontierRater::serial(&mut setup, Method::Cbr)
            .rate(base, &[base])
            .expect("unlimited budget");
        assert!(fo.out.improvements[0].is_finite());
    }
}

#[test]
fn crash_jitter_scenario_completes_via_cascade() {
    let w = SwimCalc3::new();
    let mut setup = TuningSetup::new(&w, MachineSpec::sparc_ii(), Dataset::Train);
    setup.set_faults(Some(nasty_faults(0xC0FFEE)));
    let base = OptConfig::o3();
    let mut rater = FrontierRater::serial(&mut setup, Method::Cbr);
    let fo = rater.rate(base, &[base]).expect("unlimited budget");
    // The deterministic crash hits every per-invocation method; the
    // cascade must land on the terminal best-effort WHL and still
    // produce a finite rating.
    assert_eq!(fo.method, Method::Whl, "events: {:?}", rater.events());
    assert!(fo.out.improvements[0].is_finite());
    assert!(
        rater.events().iter().any(|e| e.trigger == DegradeTrigger::VersionCrash),
        "{:?}",
        rater.events()
    );
}

#[test]
fn pooled_rating_under_crashes_ends_on_whl() {
    // The served per-candidate protocol shares the cascade: a crash in
    // any candidate job rejects the merged frontier, and the terminal
    // WHL rating is accepted.
    let w = SwimCalc3::new();
    let mut setup = TuningSetup::new(&w, MachineSpec::sparc_ii(), Dataset::Train);
    let mut fc = FaultConfig::none(0xC0FFEE);
    fc.crash_at = Some(8);
    setup.set_faults(Some(fc));
    let base = OptConfig::o3();
    let cand = [base.without(peak_opt::Flag::LoopUnroll), base];
    let mut rater = FrontierRater::pooled(&mut setup, Pool::with_threads(2), Method::Cbr);
    let fo = rater.rate(base, &cand).expect("unlimited budget");
    assert_eq!(fo.method, Method::Whl, "events: {:?}", rater.events());
    assert!(fo.out.improvements.iter().all(|i| i.is_finite()));
    let events = rater.events();
    assert!(!events.is_empty());
    assert!(events.iter().all(|e| e.trigger == DegradeTrigger::VersionCrash), "{events:?}");
    assert_eq!(events.last().map(|e| e.to), Some(Method::Whl), "{events:?}");
    assert_eq!(rater.finish(base).switches as usize, events.len());
}

#[test]
fn combined_fault_types_in_one_run_degrade_gracefully_and_replay() {
    // All three non-crash fault families firing together in a single
    // run — timer spikes + heavy measurement dropout + cache/predictor
    // state pollution — must walk down the cascade (not
    // panic, not hang, not emit NaN) and replay bit-identically.
    let combined = |seed: u64| {
        let mut fc = FaultConfig::none(seed);
        // Timer spikes: frequent and large.
        fc.spike_per_million = 200_000;
        fc.spike_cycles = 5_000;
        // Sustained jitter bursts on top.
        fc.burst_per_million = 50_000;
        fc.burst_len = (4, 12);
        fc.burst_factor = 1.5;
        // Dropout heavy enough to trip the cascade's dropout threshold.
        fc.dropout_per_million = 400_000;
        // State pollution: co-tenant cache/predictor perturbation.
        fc.perturb_per_million = 300_000;
        fc.perturb_lines = 64;
        fc
    };
    let run = |seed: u64| {
        let w = SwimCalc3::new();
        let mut setup = TuningSetup::new(&w, MachineSpec::sparc_ii(), Dataset::Train);
        setup.set_faults(Some(combined(seed)));
        let base = OptConfig::o3();
        let cand = [base.without(peak_opt::Flag::LoopUnroll), base];
        let mut rater = FrontierRater::serial(&mut setup, Method::Cbr);
        let fo = rater.rate(base, &cand).expect("unlimited budget");
        (fo.out.improvements, fo.method, rater.events().to_vec())
    };
    let (imp, used, events) = run(0x0C0B);
    assert!(imp.iter().all(|i| i.is_finite()), "combined faults must not corrupt ratings: {imp:?}");
    assert!(
        !events.is_empty(),
        "the combined scenario must actually trigger the cascade (ended at {used:?})"
    );
    // Dropout is the designed tripwire for this mix; the cascade must
    // attribute at least one step to it (spikes/pollution surface as
    // unconverged windows when they dominate instead).
    assert!(
        events
            .iter()
            .all(|e| matches!(e.trigger, DegradeTrigger::DropoutRate | DegradeTrigger::Unconverged)),
        "unexpected trigger in {events:?}"
    );
    // Bit-identical replay, and seed sensitivity stays panic-free.
    let (imp2, used2, events2) = run(0x0C0B);
    assert_eq!((&imp, used, &events), (&imp2, used2, &events2), "combined faults must replay");
    for seed in [7u64, 8, 9] {
        let (imp, _, _) = run(seed);
        assert!(imp.iter().all(|i| i.is_finite()));
    }
}

#[test]
fn faulted_tuner_kill_resume_matches_uninterrupted_run() {
    let w = SwimCalc3::new();
    let spec = MachineSpec::sparc_ii();
    // Faults without crashes: jitter + dropout below the degrade
    // threshold, so the tuner makes progress while the fault layer is hot.
    let fc = spec.fault_profile(0.5, 0xBEEF);
    let dir = std::env::temp_dir().join("peak-fault-resume-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cp.json");

    let mut straight =
        Tuner::with_faults(&w, spec.clone(), Method::Cbr, Dataset::Train, Some(fc.clone()));
    let want = straight.run();

    let mut victim =
        Tuner::with_faults(&w, spec.clone(), Method::Cbr, Dataset::Train, Some(fc));
    victim.checkpoint_to(&path).unwrap();
    victim.step();
    drop(victim); // killed after one round

    let mut resumed = Tuner::resume(&w, spec, &path).unwrap();
    let got = resumed.run();
    assert_eq!(got.best, want.best, "resumed run must find the same best config");
    assert_eq!(got.invocations, want.invocations);
    assert_eq!(got.tuning_cycles, want.tuning_cycles);
    assert_eq!(resumed.events(), straight.events());
    std::fs::remove_file(&path).ok();
}

#[test]
fn crashing_tuner_kill_resume_keeps_the_whl_decisions() {
    // Every per-invocation method crashes on the 8th execution of every
    // run, so every round ends on WHL. The event log and the WHL
    // decisions must survive a kill and a resume from the checkpoint.
    let w = SwimCalc3::new();
    let spec = MachineSpec::sparc_ii();
    let mut fc = FaultConfig::none(0xC0FFEE);
    fc.crash_at = Some(8);
    let dir = std::env::temp_dir().join("peak-crash-resume-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cp.json");

    let mut straight =
        Tuner::with_faults(&w, spec.clone(), Method::Cbr, Dataset::Train, Some(fc.clone()));
    let want = straight.run();
    assert_eq!(want.method, Method::Whl);
    let rounds = straight.checkpoint().round;
    assert!(
        straight.events().iter().filter(|e| e.to == Method::Whl).count() == rounds,
        "one WHL fallback per round: {:?}",
        straight.events()
    );

    let mut victim = Tuner::with_faults(&w, spec.clone(), Method::Cbr, Dataset::Train, Some(fc));
    victim.checkpoint_to(&path).unwrap();
    victim.step();
    let events_at_kill = victim.events().to_vec();
    drop(victim); // killed after one round
    assert!(!events_at_kill.is_empty());

    let mut resumed = Tuner::resume(&w, spec, &path).unwrap();
    assert_eq!(resumed.events(), &events_at_kill[..], "the log survives the checkpoint");
    let got = resumed.run();
    assert_eq!(got.to_json().pretty(), want.to_json().pretty());
    assert_eq!(got.best, want.best);
    assert_eq!(resumed.events(), straight.events());
    std::fs::remove_file(&path).ok();
}
