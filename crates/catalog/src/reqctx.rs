//! Per-request governance context: deadline, resource budgets, and a
//! query id, threaded through plan/match/response so every stage of a
//! catalog request — executor loops, CLOB assembly, document building —
//! charges the same [`Budget`] and stops at the same deadline.
//!
//! Cancellation is cooperative: stages call [`RequestCtx::check`] (or
//! run plans through `execute_with(&ExecOpts)` with the request's
//! budget) at loop boundaries, so a request
//! never holds a worker slot for more than one check interval past its
//! deadline. A cancelled request is observable: [`RequestCtx::note_cancelled`]
//! bumps `catalog.cancelled.deadline` / `catalog.cancelled.budget` and
//! records the offending query in the slow-query ring.

use crate::error::{CatalogError, Result};
use minidb::limits::{Budget, ExecLimits};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Process-wide request id source; ids only need to be unique enough to
/// correlate a slow-ring entry with a log line.
static NEXT_QUERY_ID: AtomicU64 = AtomicU64::new(1);

/// Governance context for one catalog request (see the module docs).
/// Cheap to clone; all clones share one budget tracker.
#[derive(Debug, Clone)]
pub struct RequestCtx {
    /// Id correlating this request across metrics and the slow ring.
    pub query_id: u64,
    /// Shared deadline/row/byte tracker for the whole request.
    pub budget: Arc<Budget>,
    /// Human-readable description of the request (e.g. the query DSL),
    /// recorded with cancellation events.
    pub detail: Option<String>,
}

impl RequestCtx {
    /// Context with no limits: checks always pass, charges only count.
    pub fn unbounded() -> RequestCtx {
        RequestCtx::with_limits(ExecLimits::none())
    }

    /// Context enforcing `limits` from now on.
    pub fn with_limits(limits: ExecLimits) -> RequestCtx {
        RequestCtx {
            query_id: NEXT_QUERY_ID.fetch_add(1, Ordering::Relaxed),
            budget: Arc::new(Budget::new(limits)),
            detail: None,
        }
    }

    /// Context with a deadline `d` from now.
    pub fn deadline_in(d: Duration) -> RequestCtx {
        RequestCtx::with_limits(ExecLimits::deadline_in(d))
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
        self.budget.check_deadline().map_err(CatalogError::from)
    }

    /// Charge response-assembly bytes (CLOB text, envelope bytes)
    /// against the request's byte budget.
    #[inline]
    pub fn charge_bytes(&self, n: u64) -> Result<()> {
        self.budget.charge_bytes(n).map_err(CatalogError::from)
    }

    /// If `err` is a governance error, record it: bump
    /// `catalog.cancelled.deadline` or `catalog.cancelled.budget` and
    /// push the offending query into the slow-query ring. Call once at
    /// the request boundary; passes `err` through either way.
    pub fn note_cancelled(&self, err: CatalogError) -> CatalogError {
        let (metric, kind) = match &err {
            CatalogError::DeadlineExceeded(_) => ("catalog.cancelled.deadline", "deadline"),
            CatalogError::BudgetExceeded(_) => ("catalog.cancelled.budget", "budget"),
            _ => return err,
        };
        let reg = obs::global();
        reg.counter(metric).incr();
        let detail = match &self.detail {
            Some(d) => format!("q={} {kind}: {d}", self.query_id),
            None => format!("q={} {kind}", self.query_id),
        };
        reg.record_event(metric, self.budget.elapsed().as_nanos() as u64, Some(detail));
        err
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn unbounded_ctx_checks_pass() {
        let ctx = RequestCtx::unbounded();
        ctx.check().unwrap();
        ctx.charge_bytes(1 << 40).unwrap();
        assert!(ctx.budget.is_unlimited());
    }

    #[test]
    fn query_ids_are_distinct() {
        let a = RequestCtx::unbounded();
        let b = RequestCtx::unbounded();
        assert_ne!(a.query_id, b.query_id);
    }

    #[test]
    fn expired_deadline_maps_to_catalog_error() {
        let ctx = RequestCtx::with_limits(ExecLimits::none().with_deadline(Instant::now()));
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
        let before = reg.counter("catalog.cancelled.deadline").get()
            + reg.counter("catalog.cancelled.budget").get();
        let err = ctx.note_cancelled(CatalogError::NoSuchObject(7));
        assert!(matches!(err, CatalogError::NoSuchObject(7)));
        let after = reg.counter("catalog.cancelled.deadline").get()
            + reg.counter("catalog.cancelled.budget").get();
        assert_eq!(before, after);
    }
}
