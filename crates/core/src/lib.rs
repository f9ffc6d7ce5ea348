//! # peak-core — the PEAK automatic performance tuning system
//!
//! The paper's contribution: three rating methods that compare
//! compiler-optimized code versions *fairly* (under comparable execution
//! contexts), deployed in an offline tuning flow.
//!
//! * [`consultant`] — the Rating Approach Consultant: per-TS applicability
//!   analysis (CBR → MBR → RBR order, paper §3);
//! * [`rating`] — the rating engines (CBR §2.2, MBR §2.3, RBR §2.4, plus
//!   the WHL/AVG baselines of §5.2);
//! * [`mbr`] — component discovery and the linear execution-time model;
//! * [`context`] — context keys and run-time-constant elimination;
//! * [`search`] — Iterative Elimination over the 38-flag space (plus
//!   exhaustive and random search for ablations);
//! * [`strategy`] — pluggable search strategies (`SearchStrategy` trait):
//!   the shared `FrontierRater` + `CompilationBudget`, seeded genetic
//!   search, and phase-clustered IE — all bit-identical at any thread
//!   count;
//! * [`sched`] — deterministic work-stealing job pool behind the
//!   experiment drivers and the parallel candidate frontier;
//! * [`tuner`] — offline tuning end-to-end + production measurement
//!   (Figure 7);
//! * [`consistency`] — the Table 1 experiment;
//! * [`adaptive`] — the §6 online/adaptive scenario (per-context winners);
//! * [`degrade`] — why the §3 cascade rejected a rating (unconverged,
//!   or a crash/dropout under injected faults) and its event log;
//! * [`job`] — the tuning-job unit behind the `peak-serve` daemon:
//!   panic-isolated, cooperatively cancellable, warm-startable;
//! * [`checkpoint`] — serializable tuner state for kill/resume;
//! * [`harness`] — simulated application runs with version swapping;
//! * [`stats`], [`linreg`] — EVAL/VAR windows, outlier elimination, least
//!   squares.

#![warn(missing_docs)]

pub mod adaptive;
pub mod checkpoint;
pub mod compile;
pub mod consistency;
pub mod consultant;
pub mod context;
pub mod degrade;
pub mod harness;
pub mod job;
pub mod linreg;
pub mod mbr;
mod metrics;
pub mod rating;
pub mod sched;
pub mod search;
pub mod stats;
pub mod strategy;
pub mod stream_cache;
pub mod tier;
pub mod tuner;
pub mod version_cache;

pub use adaptive::{AdaptiveOutcome, AdaptiveTuner};
pub use checkpoint::TunerCheckpoint;
pub use compile::{
    compile_validated, incident_count, incidents, record_incident, set_validation_level,
    take_incidents, validation_level, ValidationIncident,
};
pub use consistency::{consistency_rows, consistency_rows_traced, ConsistencyRow, WINDOW_SIZES};
pub use consultant::{consult, consult_shared, Consultation, Method};
pub use degrade::{DegradeEvent, DegradeTrigger};
pub use harness::RunHarness;
pub use job::{
    classify_panic, machine_spec_by_name, method_by_name, run_tuning_job, CancelToken, Cancelled,
    JobError, TuningJobSpec,
};
pub use mbr::MbrModel;
pub use metrics::register_metrics;
pub use rating::{rate, RateOutcome, TuningSetup};
pub use sched::{default_threads, Pool, PoolStats};
pub use search::{
    exhaustive, iterative_elimination, iterative_elimination_from, random_search, SearchResult,
};
pub use strategy::{
    build_strategy, cluster_flags, ga_mutate, ga_next_generation, ga_uniform_crossover, pearson,
    search_with_strategy_spent, strategy_kind_by_name, strategy_seed,
    ClusterConfig, CompilationBudget, FrontierOutcome, FrontierRater, GaConfig, GeneticSearch,
    IterativeElimination, PhaseClusteredIe, RandomSearchStrategy, RatingProtocol, SearchStrategy,
    SplitMix64, StrategyKind,
};
pub use tuner::{
    measure_production, production_time, tune, tune_with_options, TuneOptions, TuneReport, Tuner,
};
pub use tier::jit_backend;
pub use version_cache::{CacheStats, MemoStats, VersionCache, VersionKey};
