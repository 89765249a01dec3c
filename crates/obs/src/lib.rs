//! # rca-obs — the observability plane
//!
//! Offline, zero-dependency structured tracing and metrics for the RCA
//! pipeline (built in-tree like the compat crates — the container has
//! no registry access, so this is a small purpose-built substrate, not a
//! `tracing` port).
//!
//! Two channels:
//!
//! - **Spans and events** ([`span`], [`span_with`], [`event`]) — RAII
//!   guards with static names and typed key-value [`FieldValue`]
//!   fields, delivered to the in-memory [`Collector`] when one is
//!   installed. With no sink installed a call site costs one relaxed
//!   atomic load and a branch. Spans are the only clock: a per-phase
//!   profile is a fold over collected spans
//!   ([`PhaseProfile::from_records`]) giving each span name its count,
//!   inclusive time, and self time.
//! - **Metrics** ([`counter`]) — always-on relaxed-atomic counters,
//!   rendered deterministically by [`metrics_snapshot`].
//!
//! **The invariant:** telemetry never leaks into deterministic
//! artifacts. Scorecard JSON, lint JSON, and `Diagnosis`
//! serialization are byte-identical with tracing enabled or disabled;
//! JSONL traces are themselves deterministic once the tagged `ts` /
//! `dur` fields are stripped ([`strip_timing`]).
//!
//! ## Installing sinks
//!
//! [`with_sink`] scopes a sink to the current thread (tests, CLI
//! runs); [`install_global`] installs a process-wide fallback. The
//! innermost scoped sink wins. Span ids are allocated by the sink, so
//! fresh sink ⇒ reproducible ids. [`run_with_telemetry`] is the
//! `--trace-out` / `--metrics` plumbing the command-line tools share.

mod metrics;
mod profile;
mod sink;

pub use metrics::{
    counter, metrics_snapshot, reset_metrics, Counter, MetricReading, MetricsSnapshot,
};
pub use profile::{PhaseEntry, PhaseProfile};
pub use sink::{strip_timing, Collector, FieldValue, TraceRecord};

use std::cell::RefCell;
use std::fmt;
use std::io::{BufWriter, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

/// Count of installed sinks anywhere in the process; the disabled
/// fast path is a single relaxed load of this.
static ACTIVE_SINKS: AtomicUsize = AtomicUsize::new(0);

static GLOBAL_SINK: RwLock<Option<Arc<Collector>>> = RwLock::new(None);

thread_local! {
    static SCOPED_SINKS: RefCell<Vec<Arc<Collector>>> = const { RefCell::new(Vec::new()) };
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn clock_nanos() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn current_sink() -> Option<Arc<Collector>> {
    if ACTIVE_SINKS.load(Ordering::Relaxed) == 0 {
        return None;
    }
    SCOPED_SINKS
        .with(|s| s.borrow().last().cloned())
        .or_else(|| GLOBAL_SINK.read().ok().and_then(|g| g.clone()))
}

/// True when a sink would receive records from this thread right now.
/// Use to gate field materialization in hot loops.
#[inline]
pub fn tracing_active() -> bool {
    ACTIVE_SINKS.load(Ordering::Relaxed) != 0 && current_sink().is_some()
}

/// Installs `sink` as the process-wide fallback (scoped sinks still
/// take precedence on their threads).
pub fn install_global(sink: Arc<Collector>) {
    let mut g = GLOBAL_SINK.write().unwrap();
    if g.replace(sink).is_none() {
        ACTIVE_SINKS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Removes the process-wide sink, if any.
pub fn clear_global() {
    let mut g = GLOBAL_SINK.write().unwrap();
    if g.take().is_some() {
        ACTIVE_SINKS.fetch_sub(1, Ordering::Relaxed);
    }
}

struct ScopedSinkGuard;

impl Drop for ScopedSinkGuard {
    fn drop(&mut self) {
        SCOPED_SINKS.with(|s| {
            s.borrow_mut().pop();
        });
        ACTIVE_SINKS.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Runs `f` with `sink` installed for the current thread (innermost
/// wins; unwound correctly on panic). Work spawned onto *other*
/// threads inside `f` does not see the sink — callers that need a
/// complete trace run their workload on the installing thread.
pub fn with_sink<R>(sink: Arc<Collector>, f: impl FnOnce() -> R) -> R {
    SCOPED_SINKS.with(|s| s.borrow_mut().push(sink));
    ACTIVE_SINKS.fetch_add(1, Ordering::Relaxed);
    let _guard = ScopedSinkGuard;
    f()
}

/// Runs `f` under the `--trace-out PATH` / `--metrics` contract of the
/// command-line tools.
///
/// With `trace_out`, `f` runs on this thread under a fresh [`Collector`],
/// and the records are written to the path as JSONL, one
/// [`TraceRecord`] per line, once `f` returns. Without it no sink is
/// installed, so `f` behaves exactly as untraced (parallel fan-outs
/// included). With `metrics`, the counter snapshot goes to stderr
/// afterwards, followed by the [`PhaseProfile`] folded from the trace
/// when one was recorded. The error names the trace file that could not
/// be created or written.
pub fn run_with_telemetry<R>(
    trace_out: Option<&str>,
    metrics: bool,
    f: impl FnOnce() -> R,
) -> Result<R, String> {
    let Some(path) = trace_out else {
        let out = f();
        if metrics {
            eprint!("{}", metrics_snapshot().render());
        }
        return Ok(out);
    };
    let file =
        std::fs::File::create(path).map_err(|e| format!("cannot open trace file {path}: {e}"))?;
    let collector = Arc::new(Collector::new());
    let out = with_sink(collector.clone(), f);
    let mut w = BufWriter::new(file);
    collector
        .write_jsonl(&mut w)
        .and_then(|()| w.flush())
        .map_err(|e| format!("cannot write trace file {path}: {e}"))?;
    if metrics {
        eprint!("{}", metrics_snapshot().render());
        eprint!(
            "{}",
            PhaseProfile::from_records(&collector.records()).render()
        );
    }
    Ok(out)
}

struct SpanInner {
    sink: Arc<Collector>,
    id: u64,
    name: &'static str,
    start: Instant,
}

/// RAII span guard: records `span_end` (with duration) on drop.
/// Inert (`None`) when no sink was installed at open.
pub struct SpanGuard(Option<SpanInner>);

impl fmt::Debug for SpanGuard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Some(inner) => f
                .debug_struct("SpanGuard")
                .field("id", &inner.id)
                .field("name", &inner.name)
                .finish_non_exhaustive(),
            None => f.write_str("SpanGuard(inert)"),
        }
    }
}

impl SpanGuard {
    /// The sink-allocated span id, if a sink is attached.
    pub fn id(&self) -> Option<u64> {
        self.0.as_ref().map(|i| i.id)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(inner) = self.0.take() {
            SPAN_STACK.with(|s| {
                let mut stack = s.borrow_mut();
                if stack.last() == Some(&inner.id) {
                    stack.pop();
                } else {
                    // Out-of-order drop (guards held across scopes):
                    // remove wherever it sits.
                    stack.retain(|&id| id != inner.id);
                }
            });
            inner.sink.record(TraceRecord::SpanEnd {
                id: inner.id,
                name: inner.name,
                ts: clock_nanos(),
                dur: inner.start.elapsed().as_nanos() as u64,
            });
        }
    }
}

/// Opens a span named `name`; it closes when the guard drops.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    span_with(name, &[])
}

/// Opens a span with key-value fields recorded at open.
pub fn span_with(name: &'static str, fields: &[(&'static str, FieldValue)]) -> SpanGuard {
    let Some(sink) = current_sink() else {
        return SpanGuard(None);
    };
    let id = sink.next_span_id();
    let parent = SPAN_STACK.with(|s| s.borrow().last().copied());
    sink.record(TraceRecord::SpanStart {
        id,
        parent,
        name,
        fields: fields.to_vec(),
        ts: clock_nanos(),
    });
    SPAN_STACK.with(|s| s.borrow_mut().push(id));
    SpanGuard(Some(SpanInner {
        sink,
        id,
        name,
        start: Instant::now(),
    }))
}

/// Records a point event under the current span, if a sink is active.
pub fn event(name: &'static str, fields: &[(&'static str, FieldValue)]) {
    let Some(sink) = current_sink() else {
        return;
    };
    let parent = SPAN_STACK.with(|s| s.borrow().last().copied());
    sink.record(TraceRecord::Event {
        parent,
        name,
        fields: fields.to_vec(),
        ts: clock_nanos(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_path_records_nothing() {
        assert!(!tracing_active());
        let g = span("test.disabled");
        assert!(g.id().is_none());
        drop(g);
        event("test.disabled.event", &[("x", 1u64.into())]);
    }

    #[test]
    fn scoped_sink_sees_nested_spans_and_unwinds() {
        let collector = Arc::new(Collector::new());
        with_sink(collector.clone(), || {
            let outer = span_with("test.outer", &[("k", "v".into())]);
            {
                let _inner = span("test.inner");
                event("test.ev", &[("n", 7u64.into())]);
            }
            drop(outer);
        });
        assert!(!tracing_active(), "scope must unwind");
        assert_eq!(collector.span_names(), vec!["test.outer", "test.inner"]);
        assert_eq!(collector.children_of("test.outer"), vec!["test.inner"]);
        assert_eq!(collector.children_of("test.inner"), vec!["test.ev"]);
        // Span ids are sink-allocated starting at 1.
        let recs = collector.records();
        match &recs[0] {
            TraceRecord::SpanStart { id, parent, .. } => {
                assert_eq!(*id, 1);
                assert!(parent.is_none());
            }
            other => panic!("expected span_start, got {other:?}"),
        }
        // Start/end pairing balances.
        let starts = recs
            .iter()
            .filter(|r| matches!(r, TraceRecord::SpanStart { .. }))
            .count();
        let ends = recs
            .iter()
            .filter(|r| matches!(r, TraceRecord::SpanEnd { .. }))
            .count();
        assert_eq!(starts, ends);
    }

    #[test]
    fn run_with_telemetry_writes_the_collected_trace() {
        let path = std::env::temp_dir().join(format!("rca-obs-trace-{}.jsonl", std::process::id()));
        let out = run_with_telemetry(path.to_str(), false, || {
            let _g = span("test.telemetry");
            41 + 1
        });
        assert_eq!(out, Ok(42));
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let lines: Vec<serde_json::Value> = text
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0]["type"].as_str(), Some("span_start"));
        assert_eq!(lines[1]["type"].as_str(), Some("span_end"));
        assert_eq!(lines[1]["name"].as_str(), Some("test.telemetry"));
        let err = run_with_telemetry(Some("/nonexistent-dir/trace.jsonl"), false, || ());
        assert!(err.unwrap_err().contains("cannot open trace file"));
    }

    #[test]
    fn global_sink_install_and_clear() {
        // Scoped test runs in parallel threads; the global sink is
        // shared, so keep this self-contained and restore state.
        let collector = Arc::new(Collector::new());
        install_global(collector.clone());
        {
            let _g = span("test.global");
        }
        clear_global();
        assert!(collector.spans_named("test.global") >= 1);
    }

    #[test]
    fn innermost_scoped_sink_wins() {
        let a = Arc::new(Collector::new());
        let b = Arc::new(Collector::new());
        with_sink(a.clone(), || {
            with_sink(b.clone(), || {
                let _g = span("test.nested_sinks");
            });
            let _g = span("test.outer_sink");
        });
        assert_eq!(a.span_names(), vec!["test.outer_sink"]);
        assert_eq!(b.span_names(), vec!["test.nested_sinks"]);
    }
}
