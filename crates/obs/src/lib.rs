//! Observability layer for the myLEAD catalog stack.
//!
//! Dependency-light (std + `parking_lot`): [`Counter`]s, [`Gauge`]s
//! and log-scaled latency [`Histogram`]s, [`Span`] timers that feed
//! histograms, and a bounded ring of slow-operation events kept by a
//! [`MetricsRegistry`].
//!
//! # The catalogue
//!
//! Every instrument the stack records is a static in [`names`], named
//! `layer.operation[.qualifier]` (`catalog.shred`,
//! `service.request.query`, `service.errors.oversized`). Layers record
//! through those handles; [`names::ALL`] lists them, and the snapshot
//! `STATS` returns walks that list, so it reports every instrument,
//! zeros included, sorted by name.
//!
//! # Reading latencies
//!
//! Histograms bucket durations on a log scale (four sub-buckets per
//! power of two, ≤ 12.5% representative error). Snapshots report
//! `count`, `p50_us`, `p95_us`, `p99_us`, `max_us` and `sum_ms` per
//! histogram.
//!
//! # Typical use
//!
//! ```
//! use obs::names;
//!
//! let docs = names::CATALOG_INGEST_DOCS.get();
//! {
//!     let _span = names::CATALOG_SHRED.span();
//!     // ... timed work ...
//! }
//! names::CATALOG_INGEST_DOCS.incr();
//! assert!(names::CATALOG_INGEST_DOCS.get() > docs);
//! assert!(names::CATALOG_SHRED.count() >= 1);
//! ```
//!
//! Spans that cross the slow threshold land in [`global()`]'s ring.

mod metrics;
pub mod names;
mod registry;
mod span;

pub use metrics::{Counter, Gauge, Histogram};
pub use registry::{MetricsRegistry, SlowEvent};
pub use span::Span;

/// The process-global registry: the slow ring every span reports to,
/// and the snapshot `STATS` returns.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: MetricsRegistry = MetricsRegistry::new();
    &GLOBAL
}
