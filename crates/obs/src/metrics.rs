//! Thread-safe metrics registry: monotonic counters, the one metric
//! kind. A size or a count of iterations is a counter that sums its
//! values.
//!
//! Metrics are **always on** — unlike spans they cost one relaxed
//! atomic op when bumped, so call sites don't gate them on an
//! installed sink. Handles are `&'static` (leaked once at first
//! registration, cached at the call site via [`counter_inc!`]), so the
//! hot path never touches the registry lock.
//!
//! Snapshots ([`metrics_snapshot`]) render name-sorted and feed only
//! the telemetry channel (`--metrics`, trace sidecars) — never a
//! deterministic artifact.

use serde::{Json, Serialize};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// A monotonic counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n`.
    #[inline]
    pub fn inc(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

fn registry() -> &'static Mutex<Vec<(&'static str, &'static Counter)>> {
    static REGISTRY: OnceLock<Mutex<Vec<(&'static str, &'static Counter)>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// The counter named `name`, registering (and leaking) it on first
/// use. Handles are cheap to cache; see [`counter_inc!`](crate::counter_inc).
pub fn counter(name: &'static str) -> &'static Counter {
    let mut reg = registry().lock().unwrap();
    if let Some((_, c)) = reg.iter().find(|(n, _)| *n == name) {
        return c;
    }
    let handle: &'static Counter = Box::leak(Box::new(Counter::default()));
    reg.push((name, handle));
    handle
}

/// Bumps a counter through a call-site-cached `&'static` handle: one
/// `OnceLock` load plus one relaxed `fetch_add` on the hot path.
#[macro_export]
macro_rules! counter_inc {
    ($name:literal, $n:expr) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::Counter> =
            ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::counter($name)).inc($n);
    }};
}

/// One counter's value at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricReading {
    /// Metric name.
    pub name: &'static str,
    /// Current count.
    pub value: u64,
}

/// A name-sorted point-in-time view of every registered counter.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Readings sorted by metric name.
    pub readings: Vec<MetricReading>,
}

impl MetricsSnapshot {
    /// The counter named `name`, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.readings
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.value)
    }

    /// Deterministically ordered human-readable rendering.
    pub fn render(&self) -> String {
        let mut out = String::from("metrics:\n");
        for r in &self.readings {
            let _ = writeln!(out, "  {} = {}", r.name, r.value);
        }
        out
    }
}

impl Serialize for MetricsSnapshot {
    fn to_json(&self) -> Json {
        Json::obj(self.readings.iter().map(|r| (r.name, Json::Uint(r.value))))
    }
}

/// Snapshot of every registered counter, sorted by name.
pub fn metrics_snapshot() -> MetricsSnapshot {
    let reg = registry().lock().unwrap();
    let mut readings: Vec<MetricReading> = reg
        .iter()
        .map(|&(name, c)| MetricReading {
            name,
            value: c.get(),
        })
        .collect();
    readings.sort_by_key(|r| r.name);
    MetricsSnapshot { readings }
}

/// Zeroes every registered counter (tests and benches only — production
/// counters are monotonic).
pub fn reset_metrics() {
    let reg = registry().lock().unwrap();
    for (_, c) in reg.iter() {
        c.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_register_and_read_back() {
        let c = counter("test.metrics.counter");
        c.inc(2);
        c.inc(3);
        assert!(c.get() >= 5);
        assert!(std::ptr::eq(c, counter("test.metrics.counter")));
        counter("test.metrics.another").inc(1);

        let snap = metrics_snapshot();
        assert!(snap.counter("test.metrics.counter").unwrap() >= 5);
        let names: Vec<&str> = snap.readings.iter().map(|r| r.name).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "snapshot must be name-sorted");
        assert!(snap.render().contains("test.metrics.another = "));
        // JSON form parses back.
        let v = serde_json::from_str(&serde_json::to_string(&snap.to_json()).unwrap()).unwrap();
        assert!(v["test.metrics.another"].as_u64().is_some());
    }

    #[test]
    fn counter_inc_macro_caches_handle() {
        let before = counter("test.metrics.macro").get();
        for _ in 0..4 {
            counter_inc!("test.metrics.macro", 1);
        }
        assert!(counter("test.metrics.macro").get() >= before + 4);
    }
}
