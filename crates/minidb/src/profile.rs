//! Per-operator runtime statistics collected by
//! [`Database::execute_profiled`](crate::db::Database::execute_profiled).
//!
//! Operators are addressed by their *path* from the plan root: the
//! empty path is the root, `[0]` its first input, `[1, 0]` the left
//! input's... etc. Joins number `left = 0`, `right = 1`; unary
//! operators use `0`. [`crate::explain::explain_analyze`] walks the
//! plan with the same numbering to attach stats to rendered lines.

use std::collections::HashMap;

/// Measured runtime of one plan operator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Rows the operator emitted.
    pub rows_out: u64,
    /// Rows a `Scan`'s access path visited before its filter ran
    /// (`None` for every other operator). More than `rows_out` when the
    /// path reaches rows the filter rejects.
    pub visited: Option<u64>,
    /// Inclusive wall time (operator plus its inputs), in nanoseconds.
    pub nanos: u64,
}

/// Runtime statistics for every operator of one executed plan.
#[derive(Debug, Clone, Default)]
pub struct PlanProfile {
    stats: HashMap<Vec<u16>, NodeStats>,
}

impl PlanProfile {
    pub(crate) fn record(&mut self, path: Vec<u16>, stats: NodeStats) {
        self.stats.insert(path, stats);
    }

    /// Stats for the operator at `path` (see module docs), if the
    /// executor reached it.
    pub fn get(&self, path: &[u16]) -> Option<NodeStats> {
        self.stats.get(path).copied()
    }

    /// Stats for the plan root.
    pub fn root(&self) -> Option<NodeStats> {
        self.get(&[])
    }

    /// Number of profiled operators.
    pub fn len(&self) -> usize {
        self.stats.len()
    }

    /// True when nothing was profiled.
    pub fn is_empty(&self) -> bool {
        self.stats.is_empty()
    }
}

/// Render nanoseconds with a unit fit for plan annotations.
pub fn format_nanos(nanos: u64) -> String {
    if nanos >= 1_000_000_000 {
        format!("{:.2}s", nanos as f64 / 1e9)
    } else if nanos >= 1_000_000 {
        format!("{:.2}ms", nanos as f64 / 1e6)
    } else if nanos >= 1_000 {
        format!("{:.1}us", nanos as f64 / 1e3)
    } else {
        format!("{nanos}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paths_address_operators() {
        let mut p = PlanProfile::default();
        let stats = |rows_out, nanos| NodeStats { rows_out, visited: None, nanos };
        p.record(vec![], stats(10, 5_000));
        p.record(vec![0], stats(100, 4_000));
        p.record(vec![0, 1], stats(7, 1_000));
        assert_eq!(p.root().unwrap().rows_out, 10);
        assert_eq!(p.get(&[0, 1]).unwrap().nanos, 1_000);
        assert_eq!(p.get(&[1]), None);
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn nanos_formatting() {
        assert_eq!(format_nanos(750), "750ns");
        assert_eq!(format_nanos(1_500), "1.5us");
        assert_eq!(format_nanos(2_345_678), "2.35ms");
        assert_eq!(format_nanos(3_000_000_000), "3.00s");
    }
}
