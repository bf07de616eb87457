//! Correctness of the registry under concurrent writers, and
//! histogram quantile accuracy bounds.

use std::time::Duration;

use obs::MetricsRegistry;

const THREADS: usize = 8;
const PER_THREAD: u64 = 10_000;

#[test]
fn counters_are_exact_under_contention() {
    let reg = MetricsRegistry::new();
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                let c = reg.counter("test.hits");
                for _ in 0..PER_THREAD {
                    c.incr();
                }
                // Interleave fresh lookups with held handles to cover
                // the read-lock fast path and the create path.
                reg.counter("test.other").add(2);
            });
        }
    });
    assert_eq!(reg.counter("test.hits").get(), THREADS as u64 * PER_THREAD);
    assert_eq!(reg.counter("test.other").get(), THREADS as u64 * 2);
}

#[test]
fn histogram_count_and_sum_are_exact_under_contention() {
    let reg = MetricsRegistry::new();
    let reg = &reg;
    std::thread::scope(|scope| {
        for t in 0..THREADS as u64 {
            scope.spawn(move || {
                let h = reg.histogram("test.lat");
                for i in 0..PER_THREAD {
                    h.record(t * PER_THREAD + i);
                }
            });
        }
    });
    let h = reg.histogram("test.lat");
    let n = THREADS as u64 * PER_THREAD;
    assert_eq!(h.count(), n);
    assert_eq!(h.sum_nanos(), n * (n - 1) / 2, "sum of 0..n");
    assert_eq!(h.max_nanos(), n - 1);
}

#[test]
fn gauge_adds_balance_out() {
    let reg = MetricsRegistry::new();
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                let g = reg.gauge("test.inflight");
                for _ in 0..PER_THREAD {
                    g.add(1);
                    g.add(-1);
                }
            });
        }
    });
    assert_eq!(reg.gauge("test.inflight").get(), 0);
}

#[test]
fn slow_ring_stays_bounded_under_concurrent_spans() {
    let reg = MetricsRegistry::new();
    reg.set_slow_threshold(Duration::from_nanos(1));
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                for i in 0..500 {
                    let mut span = reg.span("test.op");
                    span.set_detail(format!("op {i}"));
                }
            });
        }
    });
    let events = reg.slow_events();
    assert!(events.len() <= 128, "ring overflowed: {}", events.len());
    assert!(!events.is_empty());
    // Sequence numbers strictly increase oldest -> newest.
    assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
    assert_eq!(reg.histogram("test.op").count(), THREADS as u64 * 500);
}

/// The histogram's bucket scheme promises ≤ 12.5% representative
/// error; check claimed quantiles against exact ones on a known
/// distribution.
#[test]
fn quantile_error_is_within_bucket_resolution() {
    let reg = MetricsRegistry::new();
    let h = reg.histogram("test.dist");
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
