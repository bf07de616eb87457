//! The one per-execution limit: a request deadline.
//!
//! A [`Deadline`] is passed to [`crate::db::Database::execute_with`] /
//! [`crate::db::ReadTxn::execute_with`] (and checked by the catalog's
//! response assembly on top of it). The executor checks it
//! cooperatively at loop and operator boundaries; running past it
//! surfaces as a typed [`DbError::DeadlineExceeded`] instead of a
//! partial result.

use crate::error::{DbError, Result};
use std::time::{Duration, Instant};

/// How many loop iterations a hot executor loop runs between deadline
/// checks. Bounds the cancellation latency to the time the loop needs
/// for this many rows (microseconds at catalog row widths), so a
/// deadline-exceeded query releases its worker promptly.
pub const CHECK_INTERVAL: u32 = 1024;

/// An optional wall-clock deadline, plus the instant the request it
/// governs started (reported when it is exceeded). Cheap to copy and
/// cheap to check: an unbounded deadline never reads the clock.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    started: Instant,
    at: Option<Instant>,
}

impl Deadline {
    /// No deadline: every check passes.
    pub fn none() -> Deadline {
        Deadline { started: Instant::now(), at: None }
    }

    /// A deadline `d` from now.
    pub fn after(d: Duration) -> Deadline {
        let started = Instant::now();
        Deadline { started, at: Some(started + d) }
    }

    /// Time since the deadline was created (≈ request start).
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Error if the deadline has passed.
    #[inline]
    pub fn check(&self) -> Result<()> {
        match self.at {
            Some(at) if Instant::now() >= at => {
                Err(DbError::DeadlineExceeded(format!("after {:?}", self.elapsed())))
            }
            _ => Ok(()),
        }
    }

    /// Cooperative cancellation point for hot loops: bumps `iter` and
    /// checks the deadline every [`CHECK_INTERVAL`] iterations.
    #[inline]
    pub fn tick(&self, iter: &mut u32) -> Result<()> {
        *iter = iter.wrapping_add(1);
        if self.at.is_some() && (*iter).is_multiple_of(CHECK_INTERVAL) {
            self.check()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_deadline_never_errors() {
        let d = Deadline::none();
        d.check().unwrap();
        let mut it = 0;
        for _ in 0..2 * CHECK_INTERVAL {
            d.tick(&mut it).unwrap();
        }
    }

    #[test]
    fn expired_deadline_is_typed() {
        let d = Deadline::after(Duration::ZERO);
        let err = d.check().unwrap_err();
        assert!(matches!(err, DbError::DeadlineExceeded(_)), "{err}");
        // tick() surfaces the same error, but only on an interval boundary.
        let mut it = 0;
        for _ in 1..CHECK_INTERVAL {
            d.tick(&mut it).unwrap();
        }
        assert!(matches!(d.tick(&mut it), Err(DbError::DeadlineExceeded(_))));
    }
}
