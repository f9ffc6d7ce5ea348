//! # peak-obs — tuning telemetry
//!
//! A first-class observability layer for the tuning pipeline: every
//! rating decision, degradation step, simulated run, and tuner round can
//! emit structured [`TraceEvent`]s through a [`TraceSink`], making the
//! evidence behind each timing decision auditable and replayable.
//!
//! Design constraints (in priority order):
//!
//! 1. **Zero cost when disabled.** A disabled [`Tracer`] is a `None` —
//!    every instrumentation site guards on [`Tracer::enabled`] (a single
//!    branch) and builds no fields. The fault-free hot path stays
//!    bit-identical and within measurement noise of an uninstrumented
//!    build.
//! 2. **Deterministic by default.** Events are stamped with logical
//!    sequence numbers, not wall-clock times, so the same seed and the
//!    same [`FaultConfig`](../peak_sim/faults) produce byte-identical
//!    event streams — the property the replay tests pin. Wall-clock
//!    self-profiling is opt-in via [`Tracer::with_wall_clock`] and adds
//!    a `wall_ns` field that diff tooling knows to ignore.
//! 3. **No registry dependencies.** Like `peak-util`, this crate builds
//!    offline; events serialize through the shared `peak-util` JSON
//!    model as compact JSONL lines.
//!
//! The crate provides:
//!
//! * [`event`] — the [`TraceEvent`] model and its JSONL round-trip;
//! * [`sink`] — the [`TraceSink`] trait with a no-op sink, an in-memory
//!   [`BufferSink`] (used for deterministic per-job buffering in the
//!   parallel bench bins), a buffered file [`JsonlSink`], a bounded
//!   [`RingSink`] (the flight recorder's window), and a teeing
//!   [`FanoutSink`];
//! * [`tracer`] — the [`Tracer`] handle plus the [`span!`] and
//!   [`event!`] macros;
//! * [`metrics`] — the live-aggregate counterpart to tracing: a
//!   process-wide [`MetricsRegistry`] of atomic counters, gauges and
//!   log-bucketed histograms with deterministic [`Snapshot`]s,
//!   Prometheus-style text exposition and a JSON form.

#![warn(missing_docs)]

pub mod event;
pub mod metrics;
pub mod sink;
pub mod tracer;

pub use event::{FieldValue, TraceEvent};
pub use metrics::{
    Counter, Gauge, Histogram, MetricsRegistry, SnapValue, Snapshot,
};
pub use sink::{BufferSink, FanoutSink, JsonlSink, NoopSink, RingSink, TraceSink};
pub use tracer::{SpanGuard, Tracer};
