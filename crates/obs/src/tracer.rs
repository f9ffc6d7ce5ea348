//! The [`Tracer`] handle, span guards, and the emission macros.

use crate::event::TraceEvent;
use crate::sink::TraceSink;
use peak_util::Json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Cheaply clonable tracing handle.
///
/// A disabled tracer (the default, [`Tracer::disabled`]) carries no
/// state at all; [`Tracer::enabled`] is a single `Option` check, and
/// every instrumentation site guards field construction behind it so
/// the traced code runs unchanged when telemetry is off.
///
/// When enabled, events get a process-unique monotonic `seq` and the id
/// of the current span. Span nesting is tracked per tracer handle
/// family (all clones share the counter): [`Tracer::span`] emits a
/// `span.enter` event, makes the new span current, and returns a
/// [`SpanGuard`] that emits `span.exit` and restores the previous span
/// on drop. The tuning pipeline is single-threaded per tracer (the
/// parallel bench bins give each job its own tracer), which keeps this
/// save/restore scheme exact.
///
/// Determinism: `seq`, span ids and all instrumented payloads are
/// logical values, so same-seed runs produce byte-identical streams.
/// Wall-clock self-profiling ([`Tracer::with_wall_clock`]) adds a
/// `wall_ns` field to `span.exit` and `method.profile` events; it is
/// off by default precisely because it breaks byte-identity.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
}

struct Inner {
    sink: Arc<dyn TraceSink>,
    seq: AtomicU64,
    next_span: AtomicU64,
    current_span: AtomicU64,
    wall_clock: bool,
    start: Instant,
    ctx: Vec<(String, Json)>,
}

impl Tracer {
    /// The no-op tracer: every operation is a cheap branch-and-return.
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// Tracer writing to `sink`, deterministic fields only.
    pub fn to_sink(sink: Arc<dyn TraceSink>) -> Tracer {
        Tracer {
            inner: Some(Arc::new(Inner {
                sink,
                seq: AtomicU64::new(0),
                next_span: AtomicU64::new(1),
                current_span: AtomicU64::new(0),
                wall_clock: false,
                start: Instant::now(),
                ctx: Vec::new(),
            })),
        }
    }

    /// Opt in to wall-clock self-profiling (`wall_ns` on span exits).
    /// Traces with wall-clock enabled are **not** byte-reproducible.
    pub fn with_wall_clock(self) -> Tracer {
        self.rebuild(|inner| inner.wall_clock = true)
    }

    /// Stamp fixed context fields (e.g. `benchmark`, `ts`, `machine`)
    /// onto every subsequent event. A context key already present in an
    /// event's own payload is not duplicated. Builder-style: call right
    /// after [`Tracer::to_sink`], before emitting.
    pub fn with_context(self, ctx: Vec<(String, Json)>) -> Tracer {
        self.rebuild(move |inner| inner.ctx = ctx)
    }

    /// Clone-and-tweak the inner state (builder support; counters carry
    /// over so pre-emission configuration keeps sequence continuity).
    fn rebuild(self, f: impl FnOnce(&mut Inner)) -> Tracer {
        match self.inner {
            Some(inner) => {
                let mut next = Inner {
                    sink: Arc::clone(&inner.sink),
                    seq: AtomicU64::new(inner.seq.load(Ordering::Relaxed)),
                    next_span: AtomicU64::new(inner.next_span.load(Ordering::Relaxed)),
                    current_span: AtomicU64::new(inner.current_span.load(Ordering::Relaxed)),
                    wall_clock: inner.wall_clock,
                    start: inner.start,
                    ctx: inner.ctx.clone(),
                };
                f(&mut next);
                Tracer { inner: Some(Arc::new(next)) }
            }
            None => Tracer { inner: None },
        }
    }

    /// True when events will actually be recorded. Call sites use this
    /// to skip building field vectors entirely.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// True when wall-clock self-profiling was requested.
    pub fn wall_clock(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.wall_clock)
    }

    /// Nanoseconds since the tracer was created, when wall-clock
    /// profiling is on; `None` otherwise. Deterministic traces never
    /// call this.
    pub fn wall_ns(&self) -> Option<u64> {
        let inner = self.inner.as_ref()?;
        if !inner.wall_clock {
            return None;
        }
        Some(inner.start.elapsed().as_nanos() as u64)
    }

    /// Emit one event with the given payload fields. No-op (and no
    /// field evaluation cost beyond the caller's) when disabled.
    pub fn emit(&self, kind: &str, fields: Vec<(String, Json)>) {
        let Some(inner) = self.inner.as_ref() else {
            return;
        };
        inner.record(kind, fields);
    }

    /// Enter a named span: emits `span.enter` (with `name` plus the
    /// given fields), makes the span current, and returns a guard that
    /// emits `span.exit` and restores the previous span on drop.
    pub fn span(&self, name: &str, fields: Vec<(String, Json)>) -> SpanGuard {
        let Some(inner) = self.inner.as_ref() else {
            return SpanGuard { state: None };
        };
        let id = inner.next_span.fetch_add(1, Ordering::Relaxed);
        let prev = inner.current_span.load(Ordering::Relaxed);
        let mut enter = Vec::with_capacity(fields.len() + 2);
        enter.push(("name".to_owned(), Json::Str(name.to_owned())));
        enter.push(("id".to_owned(), Json::U(id)));
        enter.extend(fields);
        inner.record("span.enter", enter);
        inner.current_span.store(id, Ordering::Relaxed);
        SpanGuard {
            state: Some(GuardState {
                inner: Arc::clone(inner),
                name: name.to_owned(),
                id,
                prev,
                entered: Instant::now(),
            }),
        }
    }

    /// The underlying sink, when enabled. The serve daemon uses this to
    /// tee a job's events into a flight-recorder ring without rebuilding
    /// the daemon tracer's configuration.
    pub fn sink(&self) -> Option<Arc<dyn TraceSink>> {
        self.inner.as_ref().map(|i| Arc::clone(&i.sink))
    }

    /// Flush the underlying sink.
    pub fn flush(&self) {
        if let Some(inner) = self.inner.as_ref() {
            inner.sink.flush();
        }
    }
}

impl Inner {
    fn record(&self, kind: &str, mut fields: Vec<(String, Json)>) {
        for (k, v) in &self.ctx {
            if !fields.iter().any(|(fk, _)| fk == k) {
                fields.push((k.clone(), v.clone()));
            }
        }
        let event = TraceEvent {
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            span: self.current_span.load(Ordering::Relaxed),
            kind: kind.to_owned(),
            fields,
        };
        let line = event.to_line();
        self.sink.emit(&event, &line);
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled())
            .field("wall_clock", &self.wall_clock())
            .finish()
    }
}

struct GuardState {
    inner: Arc<Inner>,
    name: String,
    id: u64,
    prev: u64,
    entered: Instant,
}

/// RAII guard for an open span; emits `span.exit` (restoring the
/// enclosing span as current) when dropped.
#[must_use = "dropping the guard immediately closes the span"]
pub struct SpanGuard {
    state: Option<GuardState>,
}

impl SpanGuard {
    /// The span's id (`0` for a guard from a disabled tracer). Events
    /// emitted while this guard is live carry this id in `span`.
    pub fn id(&self) -> u64 {
        self.state.as_ref().map_or(0, |s| s.id)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(state) = self.state.take() else {
            return;
        };
        let mut fields = vec![
            ("name".to_owned(), Json::Str(state.name.clone())),
            ("id".to_owned(), Json::U(state.id)),
        ];
        if state.inner.wall_clock {
            fields.push((
                "wall_ns".to_owned(),
                Json::U(state.entered.elapsed().as_nanos() as u64),
            ));
        }
        // Exit while still "inside" the span so the exit event carries
        // the span's own id, then restore the enclosing span.
        state.inner.current_span.store(state.id, Ordering::Relaxed);
        state.inner.record("span.exit", fields);
        state.inner.current_span.store(state.prev, Ordering::Relaxed);
    }
}

/// Build the `Vec<(String, Json)>` payload for [`Tracer::emit`] /
/// [`Tracer::span`] from `key = value` pairs. Values go through
/// [`FieldValue`], so integers, floats, bools, strings and [`Json`]
/// all work directly.
#[macro_export]
macro_rules! fields {
    ($($key:ident = $value:expr),* $(,)?) => {
        vec![$((stringify!($key).to_owned(), $crate::event::FieldValue::into_field($value))),*]
    };
}

/// Emit one event when the tracer is enabled; evaluates the field
/// expressions only in that case.
///
/// ```ignore
/// event!(tracer, "rating", method = "cbr", cv = 0.004, samples = 160u64);
/// ```
#[macro_export]
macro_rules! event {
    ($tracer:expr, $kind:expr $(, $key:ident = $value:expr)* $(,)?) => {
        if $tracer.enabled() {
            $tracer.emit($kind, $crate::fields!($($key = $value),*));
        }
    };
}

/// Enter a span (returns the [`SpanGuard`](crate::SpanGuard)); field
/// expressions are only evaluated when the tracer is enabled.
///
/// ```ignore
/// let _span = span!(tracer, "rating", method = "CBR");
/// ```
#[macro_export]
macro_rules! span {
    ($tracer:expr, $name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        if $tracer.enabled() {
            $tracer.span($name, $crate::fields!($($key = $value),*))
        } else {
            $tracer.span($name, Vec::new())
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::BufferSink;

    fn traced() -> (Tracer, Arc<BufferSink>) {
        let sink = Arc::new(BufferSink::new());
        (Tracer::to_sink(sink.clone()), sink)
    }

    #[test]
    fn disabled_tracer_emits_nothing() {
        let t = Tracer::disabled();
        assert!(!t.enabled());
        crate::event!(t, "rating", cv = 0.5);
        let g = crate::span!(t, "outer");
        assert_eq!(g.id(), 0);
        drop(g);
        t.flush();
    }

    #[test]
    fn sequence_is_monotonic_and_spans_nest() {
        let (t, sink) = traced();
        {
            let outer = t.span("outer", vec![]);
            crate::event!(t, "inside_outer", x = 1u64);
            {
                let inner = t.span("inner", vec![]);
                crate::event!(t, "inside_inner", y = 2u64);
                assert_ne!(inner.id(), outer.id());
            }
            crate::event!(t, "back_in_outer", z = 3u64);
        }
        crate::event!(t, "top_level");
        let evs: Vec<_> = sink
            .lines()
            .iter()
            .map(|l| TraceEvent::parse_line(l).unwrap())
            .collect();
        let seqs: Vec<_> = evs.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (0..evs.len() as u64).collect::<Vec<_>>());
        let by_kind = |k: &str| evs.iter().find(|e| e.kind == k).unwrap();
        let outer_id = by_kind("span.enter").field("id").unwrap().as_u64().unwrap();
        assert_eq!(by_kind("inside_outer").span, outer_id);
        let inner_id = evs
            .iter()
            .filter(|e| e.kind == "span.enter")
            .nth(1)
            .unwrap()
            .field("id")
            .unwrap()
            .as_u64()
            .unwrap();
        assert_eq!(by_kind("inside_inner").span, inner_id);
        assert_eq!(by_kind("back_in_outer").span, outer_id);
        assert_eq!(by_kind("top_level").span, 0);
        // exits carry their own span id and name
        let exits: Vec<_> = evs.iter().filter(|e| e.kind == "span.exit").collect();
        assert_eq!(exits.len(), 2);
        assert_eq!(exits[0].field("name").unwrap().as_str(), Some("inner"));
        assert_eq!(exits[1].field("name").unwrap().as_str(), Some("outer"));
    }

    #[test]
    fn deterministic_streams_without_wall_clock() {
        let run = || {
            let (t, sink) = traced();
            let _s = t.span("work", crate::fields!(job = 1u64));
            crate::event!(t, "step", n = 2u64);
            drop(_s);
            sink.lines()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn wall_clock_adds_wall_ns_to_exits() {
        let sink = Arc::new(BufferSink::new());
        let t = Tracer::to_sink(sink.clone()).with_wall_clock();
        assert!(t.wall_clock());
        assert!(t.wall_ns().is_some());
        drop(t.span("timed", vec![]));
        let exit = sink
            .lines()
            .iter()
            .map(|l| TraceEvent::parse_line(l).unwrap())
            .find(|e| e.kind == "span.exit")
            .unwrap();
        assert!(exit.field("wall_ns").is_some());
    }
}
