//! Physical query plans and their executor.
//!
//! Plans are explicit operator trees (the shape a planner would emit),
//! executed with full materialization between operators under one
//! shared hold of the commit-visibility gate — predictable and plenty
//! fast at catalog scale.
//!
//! The operator set is exactly what the hybrid catalog's Fig-4 query
//! pipeline and the baselines need: `Scan`, literal `Values`,
//! `Project`, the inner hash join, the hash semi- and anti-join, `Sort`
//! and `Distinct`. `Scan` is the only leaf that reads a table; it never
//! names an index. The access path ([`crate::access`]) picks the index
//! its filter keys, and deletes select their rows the same way.
//!
//! The semi-join and `Distinct` are set operations over attribute
//! instance keys (paper §4), and they run only over integer keys
//! ([`crate::keyset`]). Each of their inputs has one or two columns,
//! except a `Scan` that a `Project` of one or two of its columns reads
//! straight into keys, and every key value is a non-NULL `Int`.
//! Anything else is a [`DbError::Plan`], never a wrong answer.

use crate::error::{DbError, Result};
use crate::expr::Expr;
use crate::table::Row;
use crate::value::Value;
use std::collections::HashMap;

/// Materialized result of a plan: named columns plus rows.
#[derive(Debug, Clone, Default)]
pub struct ResultSet {
    /// Output column names (positional addressing is authoritative;
    /// names can repeat after joins).
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Row>,
}

impl ResultSet {
    /// Render as an aligned text table (for examples and the harness).
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        let rendered: Vec<Vec<String>> =
            self.rows.iter().map(|r| r.iter().map(|v| v.to_string()).collect()).collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        for (i, c) in self.columns.iter().enumerate() {
            out.push_str(&format!("{:<w$}  ", c, w = widths[i]));
        }
        out.push('\n');
        for (i, _) in self.columns.iter().enumerate() {
            out.push_str(&"-".repeat(widths[i]));
            out.push_str("  ");
        }
        out.push('\n');
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                out.push_str(&format!("{:<w$}  ", cell, w = widths[i]));
            }
            out.push('\n');
        }
        out
    }
}

/// A physical plan node.
#[derive(Debug, Clone)]
pub enum Plan {
    /// The rows of a named table that pass an optional filter, reached
    /// through the access path the filter keys ([`crate::access`]): an
    /// index walk when some index's leading columns are keyed, else
    /// every row.
    Scan {
        /// Table name.
        table: String,
        /// Predicate (bound to the table's column order), re-applied to
        /// every row the access path visits.
        filter: Option<Expr>,
    },
    /// Literal rows (the engine's `VALUES`; also used for temp inputs).
    Values {
        /// Output column names.
        columns: Vec<String>,
        /// Literal rows.
        rows: Vec<Row>,
    },
    /// Compute output columns from expressions.
    Project {
        /// Input plan.
        input: Box<Plan>,
        /// `(expr, output name)` pairs.
        exprs: Vec<(Expr, String)>,
    },
    /// Inner equi-join via hashing the right side.
    HashJoin {
        /// Left input.
        left: Box<Plan>,
        /// Right input (hashed).
        right: Box<Plan>,
        /// Key columns on the left.
        left_keys: Vec<usize>,
        /// Key columns on the right.
        right_keys: Vec<usize>,
    },
    /// Sort by column positions (bool = descending).
    Sort {
        /// Input plan.
        input: Box<Plan>,
        /// `(column, descending)` sort keys.
        keys: Vec<(usize, bool)>,
    },
    /// Set-oriented equi-join: emit probe rows whose key appears (or,
    /// for `anti`, does not appear) in the build side's key set. No row
    /// concatenation — output columns are exactly the probe's. Runs on
    /// integer keys: each side has one or two columns, the keys are one
    /// or two of them (as many on each side), and a key value that is
    /// not a non-NULL `Int` is an error. A probe that is a bare `Scan`
    /// may be wider when a `Project` of one or two of its columns sits
    /// on the semi-join: the scan, the membership test and the
    /// projection then run as one pass.
    HashSemiJoin {
        /// Probe input (rows pass through).
        probe: Box<Plan>,
        /// Build input (reduced to a key set).
        build: Box<Plan>,
        /// Key columns on the probe side.
        probe_keys: Vec<usize>,
        /// Key columns on the build side.
        build_keys: Vec<usize>,
        /// Emit non-matching probe rows instead of matching ones.
        anti: bool,
    },
    /// Remove duplicate rows, keeping first occurrences in order. Runs
    /// on integer keys: the input has one or two columns, each a
    /// non-NULL `Int`.
    Distinct {
        /// Input plan.
        input: Box<Plan>,
    },
}

impl Plan {
    /// Convenience: project to expressions.
    pub fn project(self, exprs: Vec<(Expr, String)>) -> Plan {
        Plan::Project { input: Box::new(self), exprs }
    }

    /// Convenience: inner hash join.
    pub fn hash_join(self, right: Plan, left_keys: Vec<usize>, right_keys: Vec<usize>) -> Plan {
        Plan::HashJoin { left: Box::new(self), right: Box::new(right), left_keys, right_keys }
    }

    /// Convenience: semi-join (`self` probes `build`'s key set).
    pub fn semi_join(self, build: Plan, probe_keys: Vec<usize>, build_keys: Vec<usize>) -> Plan {
        Plan::HashSemiJoin {
            probe: Box::new(self),
            build: Box::new(build),
            probe_keys,
            build_keys,
            anti: false,
        }
    }

    /// Convenience: anti-join (`NOT EXISTS` over `build`'s key set).
    pub fn anti_join(self, build: Plan, probe_keys: Vec<usize>, build_keys: Vec<usize>) -> Plan {
        Plan::HashSemiJoin {
            probe: Box::new(self),
            build: Box::new(build),
            probe_keys,
            build_keys,
            anti: true,
        }
    }
}

/// Execute an inner hash join over materialized inputs. The probe
/// loop checks `deadline` cooperatively every
/// [`crate::limits::CHECK_INTERVAL`] probe rows and every as many
/// emitted rows, so a join whose output explodes (a few probe rows
/// each matching many build rows) is cancelled before it is fully
/// materialized.
pub(crate) fn run_hash_join(
    left: ResultSet,
    right: ResultSet,
    left_keys: &[usize],
    right_keys: &[usize],
    deadline: &crate::limits::Deadline,
) -> Result<ResultSet> {
    if left_keys.len() != right_keys.len() {
        return Err(DbError::Plan("join key arity mismatch".into()));
    }
    let mut columns = left.columns.clone();
    columns.extend(right.columns.iter().cloned());

    let mut table: HashMap<Vec<Value>, Vec<&Row>> = HashMap::with_capacity(right.rows.len());
    for row in &right.rows {
        let key: Vec<Value> = right_keys.iter().map(|&i| row[i].clone()).collect();
        // NULL keys never match.
        if key.iter().any(|v| v.is_null()) {
            continue;
        }
        table.entry(key).or_default().push(row);
    }

    let mut rows = Vec::new();
    let mut it = 0u32;
    for lrow in &left.rows {
        deadline.tick(&mut it)?;
        let key: Vec<Value> = left_keys.iter().map(|&i| lrow[i].clone()).collect();
        if key.iter().any(|v| v.is_null()) {
            continue;
        }
        for r in table.get(&key).into_iter().flatten() {
            deadline.tick(&mut it)?;
            let mut out = lrow.clone();
            out.extend((*r).iter().cloned());
            rows.push(out);
        }
    }
    Ok(ResultSet { columns, rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::limits::Deadline;

    fn rs(cols: &[&str], rows: Vec<Vec<Value>>) -> ResultSet {
        ResultSet { columns: cols.iter().map(|s| s.to_string()).collect(), rows }
    }

    #[test]
    fn hash_join_matches_equal_non_null_keys() {
        let l = rs(
            &["id", "v"],
            vec![
                vec![1.into(), "a".into()],
                vec![2.into(), "b".into()],
                vec![Value::Null, "n".into()],
            ],
        );
        let r = rs(&["id", "w"], vec![vec![1.into(), "x".into()], vec![1.into(), "y".into()]]);
        let inner = run_hash_join(l, r, &[0], &[0], &Deadline::none()).unwrap();
        assert_eq!(inner.columns, vec!["id", "v", "id", "w"]);
        // Both matches of id=1; id=2 and the NULL key find none.
        assert_eq!(
            inner.rows,
            vec![
                vec![1.into(), "a".into(), 1.into(), "x".into()],
                vec![1.into(), "a".into(), 1.into(), "y".into()],
            ]
        );
    }

    #[test]
    fn result_set_text_render() {
        let r = rs(&["id", "name"], vec![vec![1.into(), "ada".into()]]);
        let text = r.to_text();
        assert!(text.contains("id"));
        assert!(text.contains("ada"));
    }
}
