//! Correctness of the instruments and the slow ring under concurrent
//! writers, and histogram quantile accuracy bounds. Each test records
//! into instruments of its own, so tests running in parallel in this
//! binary cannot disturb one another's counts.

use std::time::Duration;

use obs::{Counter, Gauge, Histogram, MetricsRegistry};

const THREADS: usize = 8;
const PER_THREAD: u64 = 10_000;

#[test]
fn counters_are_exact_under_contention() {
    static HITS: Counter = Counter::new("test.hits");
    static OTHER: Counter = Counter::new("test.other");
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                for _ in 0..PER_THREAD {
                    HITS.incr();
                }
                OTHER.add(2);
            });
        }
    });
    assert_eq!(HITS.get(), THREADS as u64 * PER_THREAD);
    assert_eq!(OTHER.get(), THREADS as u64 * 2);
}

#[test]
fn histogram_count_and_sum_are_exact_under_contention() {
    let h = &Histogram::new("test.lat");
    std::thread::scope(|scope| {
        for t in 0..THREADS as u64 {
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    h.record(t * PER_THREAD + i);
                }
            });
        }
    });
    let n = THREADS as u64 * PER_THREAD;
    assert_eq!(h.count(), n);
    assert_eq!(h.sum_nanos(), n * (n - 1) / 2, "sum of 0..n");
    assert_eq!(h.max_nanos(), n - 1);
}

#[test]
fn gauge_adds_balance_out() {
    let g = Gauge::new("test.inflight");
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                for _ in 0..PER_THREAD {
                    g.add(1);
                    g.add(-1);
                }
            });
        }
    });
    assert_eq!(g.get(), 0);
}

#[test]
fn slow_ring_keeps_sequence_order_under_concurrent_events() {
    let reg = MetricsRegistry::new();
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                for i in 0..500 {
                    reg.record_event("test.op", i, Some(format!("op {i}")));
                }
            });
        }
    });
    let events = reg.slow_events();
    assert_eq!(events.len(), 128, "the ring keeps exactly its capacity");
    // Sequence numbers strictly increase oldest -> newest.
    assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
    assert_eq!(events.last().unwrap().seq, THREADS as u64 * 500 - 1);
}

/// Spans ending on many threads at once reach the global ring in
/// sequence order. The only test in this binary that touches the
/// global ring or its threshold.
#[test]
fn slow_ring_stays_bounded_under_concurrent_spans() {
    static OP: Histogram = Histogram::new("test.span_op");
    let reg = obs::global();
    reg.set_slow_threshold(Duration::from_nanos(1));
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                for i in 0..500 {
                    let mut span = OP.span();
                    span.set_detail(format!("op {i}"));
                }
            });
        }
    });
    reg.set_slow_threshold(Duration::ZERO);
    let events = reg.slow_events();
    assert!(events.len() <= 128, "ring overflowed: {}", events.len());
    assert!(events.iter().any(|e| e.name == "test.span_op"));
    assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
    assert_eq!(OP.count(), THREADS as u64 * 500);
}

/// The histogram's bucket scheme promises ≤ 12.5% representative
/// error; check claimed quantiles against exact ones on a known
/// distribution.
#[test]
fn quantile_error_is_within_bucket_resolution() {
    let h = Histogram::new("test.dist");
    // Log-uniform-ish spread across five decades.
    let mut values: Vec<u64> = Vec::new();
    for decade in 0..5u32 {
        let base = 10u64.pow(decade + 2); // 100ns .. 1ms
        for i in 1..=200u64 {
            values.push(base + i * base / 50);
        }
    }
    for v in &values {
        h.record(*v);
    }
    values.sort_unstable();
    for q in [0.50, 0.90, 0.95, 0.99] {
        let exact = values[((q * values.len() as f64).ceil() as usize - 1).min(values.len() - 1)];
        let approx = h.quantile(q).unwrap();
        let err = (approx as f64 - exact as f64).abs() / exact as f64;
        assert!(err <= 0.125 + 1e-9, "q={q}: exact {exact}, approx {approx}, err {err:.3}");
    }
}
