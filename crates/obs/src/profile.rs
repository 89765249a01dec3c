//! Per-phase profiles folded from the span tree.
//!
//! Spans are the only clock. A [`PhaseProfile`] is never accumulated
//! next to the spans; it is computed after the fact from the records a
//! sink collected ([`PhaseProfile::from_records`]). Per span name it
//! reports how often the span closed, its inclusive time, and its self
//! time — the inclusive time minus the durations of its direct child
//! spans. Self times therefore add up to exactly the time the root spans
//! cover, with nothing counted twice. Profiles live strictly in the
//! telemetry channel: they are never part of a deterministic artifact.

use crate::TraceRecord;
use std::collections::HashMap;
use std::fmt::Write as _;

/// One span name's share of a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseEntry {
    /// Static span name (`phase.slice`, `refine.oracle`, ...).
    pub name: &'static str,
    /// Number of closed spans with this name.
    pub count: u64,
    /// Total span duration in nanoseconds.
    pub inclusive_nanos: u64,
    /// Total duration minus the direct child spans', in nanoseconds.
    pub self_nanos: u64,
}

/// Per-span-name counts, inclusive and self times, in first-opened order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseProfile {
    entries: Vec<PhaseEntry>,
}

impl PhaseProfile {
    /// Folds a trace into a profile. Only spans that both opened and
    /// closed count; a span whose parent did not close in `records` is
    /// treated as a root. Events carry no duration and are ignored.
    pub fn from_records(records: &[TraceRecord]) -> PhaseProfile {
        // id -> (name, parent, dur once closed), plus open order.
        let mut spans: HashMap<u64, (&'static str, Option<u64>, Option<u64>)> = HashMap::new();
        let mut order = Vec::new();
        for r in records {
            match r {
                TraceRecord::SpanStart {
                    id, parent, name, ..
                } => {
                    spans.insert(*id, (name, *parent, None));
                    order.push(*id);
                }
                TraceRecord::SpanEnd { id, dur, .. } => {
                    if let Some(s) = spans.get_mut(id) {
                        s.2 = Some(*dur);
                    }
                }
                TraceRecord::Event { .. } => {}
            }
        }
        let closed = |id: &u64| spans.get(id).is_some_and(|s| s.2.is_some());
        let mut children: HashMap<u64, u64> = HashMap::new();
        for (_, parent, dur) in spans.values() {
            if let (Some(p), Some(d)) = (parent, dur) {
                if closed(p) {
                    *children.entry(*p).or_default() += d;
                }
            }
        }
        let mut profile = PhaseProfile::default();
        let mut index: HashMap<&'static str, usize> = HashMap::new();
        for id in &order {
            let (name, _, Some(dur)) = spans[id] else {
                continue;
            };
            let own = dur.saturating_sub(children.get(id).copied().unwrap_or(0));
            let slot = *index.entry(name).or_insert_with(|| {
                profile.entries.push(PhaseEntry {
                    name,
                    count: 0,
                    inclusive_nanos: 0,
                    self_nanos: 0,
                });
                profile.entries.len() - 1
            });
            let e = &mut profile.entries[slot];
            e.count += 1;
            e.inclusive_nanos += dur;
            e.self_nanos += own;
        }
        profile
    }

    /// The entries, in first-opened order.
    pub fn entries(&self) -> &[PhaseEntry] {
        &self.entries
    }

    /// The entry named `name`, if any such span closed.
    pub fn get(&self, name: &str) -> Option<&PhaseEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// The sum of all self times, which equals the inclusive time of the
    /// root spans.
    pub fn total_nanos(&self) -> u64 {
        self.entries.iter().map(|e| e.self_nanos).sum()
    }

    /// Human-readable per-phase report (telemetry only).
    pub fn render(&self) -> String {
        let mut out = String::from("phase profile (inclusive / self):\n");
        if self.entries.is_empty() {
            out.push_str("  (no spans recorded)\n");
            return out;
        }
        for e in &self.entries {
            let _ = writeln!(
                out,
                "  {:<26} x{:<5} {:>10.3} ms {:>10.3} ms",
                e.name,
                e.count,
                e.inclusive_nanos as f64 / 1e6,
                e.self_nanos as f64 / 1e6
            );
        }
        let _ = writeln!(
            out,
            "  {:<33} {:>10.3} ms (root spans)",
            "total",
            self.total_nanos() as f64 / 1e6
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FieldValue;

    fn start(id: u64, parent: Option<u64>, name: &'static str) -> TraceRecord {
        TraceRecord::SpanStart {
            id,
            parent,
            name,
            fields: vec![],
            ts: 0,
        }
    }

    fn end(id: u64, name: &'static str, dur: u64) -> TraceRecord {
        TraceRecord::SpanEnd {
            id,
            name,
            ts: 0,
            dur,
        }
    }

    /// Two root spans; the first holds two sibling children (one with a
    /// grandchild) and an event, the second holds a child named like one
    /// of the first root's children.
    #[test]
    fn fold_counts_inclusive_and_self_time_exactly() {
        let records = vec![
            start(1, None, "diagnose"),
            start(2, Some(1), "phase.statistics"),
            start(3, Some(2), "phase.compile"),
            end(3, "phase.compile", 30),
            end(2, "phase.statistics", 100),
            TraceRecord::Event {
                parent: Some(1),
                name: "refine.iter",
                fields: vec![("iter", FieldValue::U64(0))],
                ts: 0,
            },
            start(4, Some(1), "phase.refine"),
            end(4, "phase.refine", 50),
            end(1, "diagnose", 200),
            start(5, None, "phase.analysis"),
            start(6, Some(5), "phase.compile"),
            end(6, "phase.compile", 7),
            end(5, "phase.analysis", 10),
        ];
        let p = PhaseProfile::from_records(&records);
        let row = |name| {
            let e = p.get(name).unwrap();
            (e.count, e.inclusive_nanos, e.self_nanos)
        };
        assert_eq!(row("diagnose"), (1, 200, 50));
        assert_eq!(row("phase.statistics"), (1, 100, 70));
        assert_eq!(row("phase.compile"), (2, 37, 37));
        assert_eq!(row("phase.refine"), (1, 50, 50));
        assert_eq!(row("phase.analysis"), (1, 10, 3));
        assert!(p.get("refine.iter").is_none(), "events carry no time");
        let names: Vec<_> = p.entries().iter().map(|e| e.name).collect();
        assert_eq!(
            names,
            [
                "diagnose",
                "phase.statistics",
                "phase.compile",
                "phase.refine",
                "phase.analysis"
            ]
        );
        // Self times add up to the root spans' inclusive time.
        assert_eq!(p.total_nanos(), 210);
        let text = p.render();
        assert!(text.contains("phase.compile") && text.contains("x2"));
    }

    #[test]
    fn unclosed_spans_drop_out_and_orphans_become_roots() {
        let records = vec![
            start(1, None, "diagnose"),
            start(2, Some(1), "phase.slice"),
            end(2, "phase.slice", 40),
        ];
        let p = PhaseProfile::from_records(&records);
        assert!(p.get("diagnose").is_none());
        assert_eq!(p.get("phase.slice").unwrap().self_nanos, 40);
        assert_eq!(p.total_nanos(), 40);
        assert!(PhaseProfile::from_records(&[]).entries().is_empty());
    }
}
