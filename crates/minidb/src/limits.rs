//! Per-execution resource limits and the shared budget tracker.
//!
//! A [`Budget`] is created from [`ExecLimits`] and threaded through one
//! logical request: every plan executed with
//! [`crate::db::Database::execute_with`] under
//! [`crate::db::ExecOpts::with_budget`] (and the catalog's response
//! assembly on top of it) charges rows and bytes against the same
//! tracker, and checks the deadline cooperatively at loop boundaries.
//! Counters are atomic so parallel subplan forks share one budget;
//! exceeding a limit surfaces as a typed
//! [`DbError::DeadlineExceeded`] / [`DbError::BudgetExceeded`] instead
//! of a partial result.

use crate::error::{DbError, Result};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How many loop iterations a hot executor loop runs between deadline
/// checks. Bounds the cancellation latency to the time the loop needs
/// for this many rows (microseconds at catalog row widths), so a
/// deadline-exceeded query releases its worker promptly.
pub const CHECK_INTERVAL: u32 = 1024;

/// Per-execution resource limits (all optional; the default is
/// unlimited). Turn into a shareable tracker with [`Budget::new`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecLimits {
    /// Absolute wall-clock deadline for the execution.
    pub deadline: Option<Instant>,
    /// Cap on rows materialized across all operators of the request.
    pub max_rows: Option<u64>,
    /// Cap on bytes materialized (approximate, value-size based)
    /// across all operators plus any response bytes charged by the
    /// caller.
    pub max_bytes: Option<u64>,
}

impl ExecLimits {
    /// No limits (same as `Default`).
    pub fn none() -> ExecLimits {
        ExecLimits::default()
    }

    /// Limits with a deadline `d` from now.
    pub fn deadline_in(d: Duration) -> ExecLimits {
        ExecLimits::none().with_deadline(Instant::now() + d)
    }

    /// Set the absolute deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> ExecLimits {
        self.deadline = Some(deadline);
        self
    }

    /// Set the materialized-row cap.
    pub fn with_max_rows(mut self, rows: u64) -> ExecLimits {
        self.max_rows = Some(rows);
        self
    }

    /// Set the materialized-byte cap.
    pub fn with_max_bytes(mut self, bytes: u64) -> ExecLimits {
        self.max_bytes = Some(bytes);
        self
    }
}

/// Shared, thread-safe budget tracker for one request (see the module
/// docs). Cheap to check: row/byte charges are relaxed atomic adds, and
/// executor loops only read the clock every [`CHECK_INTERVAL`] rows.
#[derive(Debug)]
pub struct Budget {
    started: Instant,
    deadline: Option<Instant>,
    /// `u64::MAX` encodes "unlimited".
    max_rows: u64,
    max_bytes: u64,
    rows: AtomicU64,
    bytes: AtomicU64,
}

impl Budget {
    /// Tracker enforcing `limits`.
    pub fn new(limits: ExecLimits) -> Budget {
        Budget {
            started: Instant::now(),
            deadline: limits.deadline,
            max_rows: limits.max_rows.unwrap_or(u64::MAX),
            max_bytes: limits.max_bytes.unwrap_or(u64::MAX),
            rows: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    /// Tracker with no limits: every check passes, charges only count.
    pub fn unlimited() -> Budget {
        Budget::new(ExecLimits::none())
    }

    /// `true` when no deadline and no row/byte cap is set.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.max_rows == u64::MAX && self.max_bytes == u64::MAX
    }

    /// Time since the budget was created (≈ request start).
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Rows charged so far.
    pub fn rows_used(&self) -> u64 {
        self.rows.load(Ordering::Relaxed)
    }

    /// Bytes charged so far.
    pub fn bytes_used(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Error if the deadline has passed.
    #[inline]
    pub fn check_deadline(&self) -> Result<()> {
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Err(DbError::DeadlineExceeded(format!(
                    "after {:?}",
                    self.started.elapsed()
                )));
            }
        }
        Ok(())
    }

    /// Cooperative mid-loop check: the deadline, plus whether the rows
    /// this loop has accumulated locally (`pending_rows`, not yet
    /// charged) would blow the row cap. Lets hot loops abort a runaway
    /// join before materializing it.
    #[inline]
    pub fn check(&self, pending_rows: u64) -> Result<()> {
        self.check_deadline()?;
        if self.max_rows != u64::MAX {
            let used = self.rows.load(Ordering::Relaxed);
            if used.saturating_add(pending_rows) > self.max_rows {
                return Err(self.row_err(used, pending_rows));
            }
        }
        Ok(())
    }

    /// Charge `n` materialized rows; errors once the cap is crossed.
    pub fn charge_rows(&self, n: u64) -> Result<()> {
        let prev = self.rows.fetch_add(n, Ordering::Relaxed);
        if self.max_rows != u64::MAX && prev.saturating_add(n) > self.max_rows {
            return Err(self.row_err(prev, n));
        }
        Ok(())
    }

    /// Charge `n` materialized/response bytes; errors once the cap is
    /// crossed.
    pub fn charge_bytes(&self, n: u64) -> Result<()> {
        let prev = self.bytes.fetch_add(n, Ordering::Relaxed);
        if self.max_bytes != u64::MAX && prev.saturating_add(n) > self.max_bytes {
            return Err(DbError::BudgetExceeded(format!(
                "byte budget exhausted: {} + {} > {} bytes",
                prev, n, self.max_bytes
            )));
        }
        Ok(())
    }

    fn row_err(&self, used: u64, n: u64) -> DbError {
        DbError::BudgetExceeded(format!(
            "row budget exhausted: {} + {} > {} rows",
            used, n, self.max_rows
        ))
    }
}

/// Approximate heap footprint of one materialized row: the value enum
/// slots plus embedded string bytes. Used for `max_bytes` accounting —
/// an estimate is enough, the cap guards against runaway materialization
/// rather than exact memory use.
pub fn approx_row_bytes(row: &[crate::value::Value]) -> u64 {
    let base = std::mem::size_of_val(row) + 24;
    let strings: usize = row.iter().map(|v| v.as_str().map_or(0, str::len)).sum();
    (base + strings) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_errors() {
        let b = Budget::unlimited();
        assert!(b.is_unlimited());
        b.charge_rows(u64::MAX / 2).unwrap();
        b.charge_bytes(u64::MAX / 2).unwrap();
        b.check(u64::MAX / 2).unwrap();
        b.check_deadline().unwrap();
    }

    #[test]
    fn row_and_byte_caps_are_enforced() {
        let b = Budget::new(ExecLimits::none().with_max_rows(10).with_max_bytes(100));
        b.charge_rows(10).unwrap();
        let err = b.charge_rows(1).unwrap_err();
        assert!(matches!(err, DbError::BudgetExceeded(_)), "{err}");
        b.charge_bytes(100).unwrap();
        assert!(matches!(b.charge_bytes(1), Err(DbError::BudgetExceeded(_))));
    }

    #[test]
    fn pending_rows_counted_by_check() {
        let b = Budget::new(ExecLimits::none().with_max_rows(10));
        b.charge_rows(6).unwrap();
        b.check(4).unwrap();
        assert!(matches!(b.check(5), Err(DbError::BudgetExceeded(_))));
    }

    #[test]
    fn expired_deadline_is_typed() {
        let b = Budget::new(ExecLimits::none().with_deadline(Instant::now()));
        let err = b.check_deadline().unwrap_err();
        assert!(matches!(err, DbError::DeadlineExceeded(_)), "{err}");
        // check() surfaces the same error.
        assert!(matches!(b.check(0), Err(DbError::DeadlineExceeded(_))));
    }

    #[test]
    fn shared_across_threads() {
        let b = std::sync::Arc::new(Budget::new(ExecLimits::none().with_max_rows(1000)));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let b = b.clone();
                s.spawn(move || {
                    for _ in 0..100 {
                        let _ = b.charge_rows(1);
                    }
                });
            }
        });
        assert_eq!(b.rows_used(), 400);
        assert!(b.check(600).is_ok());
        assert!(b.check(601).is_err());
    }

    #[test]
    fn row_byte_estimate_counts_strings() {
        use crate::value::Value;
        let short = approx_row_bytes(&[Value::Int(1), Value::Null]);
        let long = approx_row_bytes(&[Value::Int(1), Value::Str("x".repeat(100))]);
        assert!(long >= short + 100);
    }
}
