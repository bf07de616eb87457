//! RAII span timers.

use std::time::Instant;

use crate::metrics::Histogram;

/// Times a region of code; on drop, records the elapsed wall time
/// into its histogram and — when the global registry's slow threshold
/// is set and exceeded — into the slow-event ring under the
/// histogram's name.
///
/// Started by [`Histogram::span`]. Attach context for the slow log
/// (e.g. the query text) with [`Span::set_detail`].
#[must_use = "a span measures until dropped; binding it to _ drops it immediately"]
pub struct Span<'a> {
    histogram: &'a Histogram,
    start: Instant,
    detail: Option<String>,
}

impl<'a> Span<'a> {
    pub(crate) fn start(histogram: &'a Histogram) -> Span<'a> {
        Span { histogram, start: Instant::now(), detail: None }
    }

    /// Attach context shown in the slow log if this span is slow.
    pub fn set_detail(&mut self, detail: impl Into<String>) {
        self.detail = Some(detail.into());
    }

    /// Elapsed time so far, without ending the span.
    pub fn elapsed_nanos(&self) -> u64 {
        self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let nanos = self.elapsed_nanos();
        self.histogram.record(nanos);
        let registry = crate::global();
        let threshold = registry.slow_threshold_nanos();
        if threshold > 0 && nanos >= threshold {
            registry.record_event(self.histogram.name(), nanos, self.detail.take());
        }
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use crate::Histogram;

    #[test]
    fn span_feeds_histogram() {
        let h = Histogram::new("layer.op");
        {
            let _span = h.span();
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(h.count(), 1);
        assert!(h.max_nanos() >= 2_000_000, "slept 2ms, saw {}", h.max_nanos());
    }

    /// The only test in this crate that sets the global slow threshold;
    /// it looks for its own events by name, so other tests' spans
    /// cannot disturb it.
    #[test]
    fn slow_span_lands_in_ring_with_detail() {
        static SLOW: Histogram = Histogram::new("test.span.slow");
        static FAST: Histogram = Histogram::new("test.span.fast");
        static OFF: Histogram = Histogram::new("test.span.off");
        let reg = crate::global();
        let mine = |name: &str| {
            reg.slow_events().into_iter().filter(|e| e.name == name).collect::<Vec<_>>()
        };
        // Disabled by default: spans never enter the ring.
        assert_eq!(reg.slow_threshold_nanos(), 0);
        {
            let _span = OFF.span();
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(OFF.count(), 1);
        assert!(mine("test.span.off").is_empty());

        reg.set_slow_threshold(Duration::from_nanos(1));
        {
            let mut span = SLOW.span();
            span.set_detail("SELECT everything");
        }
        let events = mine("test.span.slow");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].detail.as_deref(), Some("SELECT everything"));

        // Fast spans stay out when the threshold is high.
        reg.set_slow_threshold(Duration::from_secs(60));
        drop(FAST.span());
        reg.set_slow_threshold(Duration::ZERO);
        assert!(mine("test.span.fast").is_empty());
        assert_eq!(FAST.count(), 1);
    }
}
