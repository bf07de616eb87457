//! Per-request governance context: a query id and one deadline,
//! threaded through plan/match/response so every stage of a catalog
//! request — executor loops, CLOB assembly, document building — stops
//! at the same deadline.
//!
//! Cancellation is cooperative: stages call [`RequestCtx::check`] (or
//! run plans through `execute_with` with the request's deadline) at
//! loop boundaries, so a request never holds a worker slot for more
//! than one check interval past its deadline. A cancelled request is
//! observable: [`RequestCtx::note_cancelled`] bumps
//! `catalog.cancelled.deadline` and records the offending query in the
//! slow-query ring.

use crate::error::{CatalogError, Result};
use minidb::limits::Deadline;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Process-wide request id source; ids only need to be unique enough to
/// correlate a slow-ring entry with a log line.
static NEXT_QUERY_ID: AtomicU64 = AtomicU64::new(1);

/// Governance context for one catalog request (see the module docs).
#[derive(Debug, Clone)]
pub struct RequestCtx {
    /// Id correlating this request across metrics and the slow ring.
    pub query_id: u64,
    /// The deadline every stage of the request checks.
    pub deadline: Deadline,
    /// Human-readable description of the request (e.g. the query DSL),
    /// recorded with cancellation events.
    pub detail: Option<String>,
}

impl RequestCtx {
    fn new(deadline: Deadline) -> RequestCtx {
        RequestCtx {
            query_id: NEXT_QUERY_ID.fetch_add(1, Ordering::Relaxed),
            deadline,
            detail: None,
        }
    }

    /// Context with no deadline: checks always pass.
    pub fn unbounded() -> RequestCtx {
        RequestCtx::new(Deadline::none())
    }

    /// Context with a deadline `d` from now.
    pub fn deadline_in(d: Duration) -> RequestCtx {
        RequestCtx::new(Deadline::after(d))
    }

    /// Attach a request description for cancellation records.
    pub fn describe(mut self, detail: impl Into<String>) -> RequestCtx {
        self.detail = Some(detail.into());
        self
    }

    /// Cooperative check outside the executor (response assembly,
    /// CLOB resolution loops): errors once the deadline has passed.
    #[inline]
    pub fn check(&self) -> Result<()> {
        self.deadline.check().map_err(CatalogError::from)
    }

    /// If `err` is a deadline error, record it: bump
    /// `catalog.cancelled.deadline` and push the offending query into
    /// the slow-query ring. Call once at the request boundary; passes
    /// `err` through either way.
    pub fn note_cancelled(&self, err: CatalogError) -> CatalogError {
        if !matches!(err, CatalogError::DeadlineExceeded(_)) {
            return err;
        }
        let metric = "catalog.cancelled.deadline";
        let reg = obs::global();
        reg.counter(metric).incr();
        let detail = match &self.detail {
            Some(d) => format!("q={} deadline: {d}", self.query_id),
            None => format!("q={} deadline", self.query_id),
        };
        reg.record_event(metric, self.deadline.elapsed().as_nanos() as u64, Some(detail));
        err
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_ctx_checks_pass() {
        RequestCtx::unbounded().check().unwrap();
    }

    #[test]
    fn query_ids_are_distinct() {
        let a = RequestCtx::unbounded();
        let b = RequestCtx::unbounded();
        assert_ne!(a.query_id, b.query_id);
    }

    #[test]
    fn expired_deadline_maps_to_catalog_error() {
        let ctx = RequestCtx::deadline_in(Duration::ZERO);
        let err = ctx.check().unwrap_err();
        assert!(matches!(err, CatalogError::DeadlineExceeded(_)), "{err}");
    }

    #[test]
    fn note_cancelled_records_counter_and_ring() {
        let ctx = RequestCtx::deadline_in(Duration::ZERO).describe("/exp[user='ada']");
        std::thread::sleep(Duration::from_millis(1));
        let err = ctx.check().unwrap_err();
        let reg = obs::global();
        let before = reg.counter("catalog.cancelled.deadline").get();
        let err = ctx.note_cancelled(err);
        assert!(matches!(err, CatalogError::DeadlineExceeded(_)));
        assert_eq!(reg.counter("catalog.cancelled.deadline").get(), before + 1);
        let seen = reg.slow_events().iter().any(|e| {
            e.name == "catalog.cancelled.deadline"
                && e.detail.as_deref().is_some_and(|d| d.contains("/exp[user='ada']"))
        });
        assert!(seen, "cancellation not recorded in slow ring");
    }

    #[test]
    fn non_governance_errors_pass_through_untouched() {
        let ctx = RequestCtx::unbounded();
        let reg = obs::global();
        let before = reg.counter("catalog.cancelled.deadline").get();
        let err = ctx.note_cancelled(CatalogError::NoSuchObject(7));
        assert!(matches!(err, CatalogError::NoSuchObject(7)));
        assert_eq!(reg.counter("catalog.cancelled.deadline").get(), before);
    }
}
