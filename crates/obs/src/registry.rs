//! The slow-operation ring and its threshold, and the `STATS`
//! snapshot of the instrument catalogue ([`crate::names`]).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use parking_lot::Mutex;

use crate::names::{Instrument, ALL};

/// One slow operation captured by the ring (see
/// [`MetricsRegistry::set_slow_threshold`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowEvent {
    /// Monotonic sequence number across the registry's lifetime.
    pub seq: u64,
    /// Span name (`layer.operation`).
    pub name: &'static str,
    /// Wall time the span covered.
    pub nanos: u64,
    /// Optional span detail (e.g. the query DSL).
    pub detail: Option<String>,
}

const SLOW_RING_CAPACITY: usize = 128;

/// What is kept per registry: the slow-operation ring and its
/// threshold. The instruments themselves are the statics of
/// [`crate::names`], shared by the whole process; spans report slow
/// events to [`crate::global()`].
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    slow_ring: Mutex<VecDeque<SlowEvent>>,
    slow_seq: AtomicU64,
    /// 0 disables slow-event capture.
    slow_threshold_nanos: AtomicU64,
}

impl MetricsRegistry {
    /// Empty ring with slow-event capture disabled.
    pub const fn new() -> MetricsRegistry {
        MetricsRegistry {
            slow_ring: Mutex::new(VecDeque::new()),
            slow_seq: AtomicU64::new(0),
            slow_threshold_nanos: AtomicU64::new(0),
        }
    }

    /// Capture spans at or above `threshold` in the slow ring; zero
    /// disables capture (the default).
    pub fn set_slow_threshold(&self, threshold: Duration) {
        self.slow_threshold_nanos
            .store(threshold.as_nanos().min(u64::MAX as u128) as u64, Ordering::Relaxed);
    }

    /// Current slow threshold in nanoseconds (0 = disabled).
    pub fn slow_threshold_nanos(&self) -> u64 {
        self.slow_threshold_nanos.load(Ordering::Relaxed)
    }

    /// Record an event into the slow ring regardless of the threshold:
    /// a span that crossed it, or an event interesting per se — a
    /// cancelled request — where `nanos` is how long the work ran before
    /// the event and `detail` identifies the offending request.
    pub fn record_event(&self, name: &'static str, nanos: u64, detail: Option<String>) {
        // Number the event under the ring's lock, so ring order is
        // sequence order even when spans end on several threads at once.
        let mut ring = self.slow_ring.lock();
        let seq = self.slow_seq.fetch_add(1, Ordering::Relaxed);
        if ring.len() == SLOW_RING_CAPACITY {
            ring.pop_front();
        }
        ring.push_back(SlowEvent { seq, name, nanos, detail });
    }

    /// Slow events currently retained, oldest first.
    pub fn slow_events(&self) -> Vec<SlowEvent> {
        self.slow_ring.lock().iter().cloned().collect()
    }

    /// Flat `name=value` pairs (all `u64`) for every instrument in
    /// [`crate::names::ALL`], zeros included, sorted by name: counters
    /// and gauges verbatim, histograms expanded to `.count`, `.p50_us`,
    /// `.p95_us`, `.p99_us`, `.max_us`, and `.sum_ms`.
    ///
    /// This is the wire format the service appends to `STATS`
    /// responses, so every value must parse as an unsigned integer
    /// (negative gauge levels clamp to zero). The catalogue is
    /// process-wide, so every registry reports the same instruments.
    pub fn snapshot_kv(&self) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        for instrument in ALL {
            push_kv(&mut out, *instrument);
        }
        out.sort();
        out
    }

    /// Human-readable snapshot: one `name=value` per line, sorted.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in self.snapshot_kv() {
            out.push_str(&name);
            out.push('=');
            out.push_str(&value.to_string());
            out.push('\n');
        }
        out
    }

    /// Snapshot as a flat JSON object (hand-rolled; names contain only
    /// metric-safe characters, so no escaping is needed).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value)) in self.snapshot_kv().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n  \"{name}\": {value}"));
        }
        out.push_str("\n}");
        out
    }
}

/// Append `instrument`'s snapshot pairs to `out`.
fn push_kv(out: &mut Vec<(String, u64)>, instrument: Instrument) {
    match instrument {
        Instrument::Counter(c) => out.push((c.name().to_string(), c.get())),
        Instrument::Gauge(g) => out.push((g.name().to_string(), g.get().max(0) as u64)),
        Instrument::Histogram(h) => {
            let name = h.name();
            out.push((format!("{name}.count"), h.count()));
            out.push((format!("{name}.p50_us"), h.quantile(0.50).unwrap_or(0) / 1_000));
            out.push((format!("{name}.p95_us"), h.quantile(0.95).unwrap_or(0) / 1_000));
            out.push((format!("{name}.p99_us"), h.quantile(0.99).unwrap_or(0) / 1_000));
            out.push((format!("{name}.max_us"), h.max_nanos() / 1_000));
            out.push((format!("{name}.sum_ms"), h.sum_nanos() / 1_000_000));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Counter, Gauge, Histogram};

    #[test]
    fn instruments_expand_for_the_wire() {
        static COUNT: Counter = Counter::new("z.count");
        static DEPTH: Gauge = Gauge::new("m.depth");
        static LAT: Histogram = Histogram::new("a.lat");
        COUNT.add(3);
        DEPTH.set(-5);
        LAT.record(2_000_000);
        let mut kv = Vec::new();
        for i in
            [Instrument::Counter(&COUNT), Instrument::Gauge(&DEPTH), Instrument::Histogram(&LAT)]
        {
            push_kv(&mut kv, i);
        }
        let get = |k: &str| kv.iter().find(|(n, _)| n == k).map(|(_, v)| *v);
        assert_eq!(kv.len(), 1 + 1 + 6);
        assert_eq!(get("z.count"), Some(3));
        assert_eq!(get("m.depth"), Some(0), "negative gauges clamp for the wire");
        assert_eq!(get("a.lat.count"), Some(1));
        assert!(get("a.lat.p50_us").unwrap() >= 1_700, "2ms record ~ p50");
        assert!(get("a.lat.p95_us").is_some() && get("a.lat.sum_ms") == Some(2));
    }

    #[test]
    fn snapshot_lists_the_whole_catalogue_sorted() {
        let kv = MetricsRegistry::new().snapshot_kv();
        let names: Vec<&str> = kv.iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        for i in ALL {
            let key = match i {
                Instrument::Histogram(h) => format!("{}.count", h.name()),
                other => other.name().to_string(),
            };
            assert!(names.contains(&key.as_str()), "{key} missing from the snapshot");
        }
    }

    #[test]
    fn slow_ring_captures_and_bounds() {
        let reg = MetricsRegistry::new();
        assert!(reg.slow_events().is_empty());
        assert_eq!(reg.slow_threshold_nanos(), 0, "capture is off by default");
        reg.set_slow_threshold(Duration::from_millis(1));
        assert_eq!(reg.slow_threshold_nanos(), 1_000_000);
        for i in 0..(SLOW_RING_CAPACITY + 10) {
            reg.record_event("x.op", 10, Some(format!("op {i}")));
        }
        let events = reg.slow_events();
        assert_eq!(events.len(), SLOW_RING_CAPACITY);
        assert_eq!(events.first().unwrap().detail.as_deref(), Some("op 10"));
        assert_eq!(events.last().unwrap().seq, (SLOW_RING_CAPACITY + 10 - 1) as u64);
    }

    #[test]
    fn record_event_lands_in_ring_without_threshold() {
        let reg = MetricsRegistry::new();
        // Threshold disabled: spans are skipped, explicit events are not.
        reg.record_event("req.cancelled", 42, Some("q=7 deadline".into()));
        let events = reg.slow_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "req.cancelled");
        assert_eq!(events[0].detail.as_deref(), Some("q=7 deadline"));
    }

    #[test]
    fn json_snapshot_is_parseable_shape() {
        let reg = MetricsRegistry::new();
        let json = reg.render_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        // Nothing in this crate records the checkpoint instruments, so
        // their values hold still between the two reads.
        let kv = reg.snapshot_kv();
        for key in ["wal.checkpoints", "wal.checkpoint.count"] {
            let value = kv.iter().find(|(n, _)| n == key).unwrap().1;
            assert!(json.contains(&format!("\"{key}\": {value}")), "{key} in {json}");
        }
    }
}
