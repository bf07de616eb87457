//! Physical query plans and their executor.
//!
//! Plans are explicit operator trees (the shape a planner would emit),
//! executed with full materialization between operators under one
//! shared hold of the commit-visibility gate — predictable and plenty
//! fast at catalog scale.
//!
//! The operator set is exactly what the hybrid catalog's Fig-4 query
//! pipeline and the baselines need: `Scan`, literal `Values`,
//! `Project`, the inner hash join, the hash semi- and anti-join, and
//! sort/distinct/limit. `Scan` is the only leaf
//! that reads a table; it never names an index. The access path
//! ([`crate::access`]) picks the index its filter keys, and deletes and
//! updates select their rows the same way.

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
    /// Index of the first column named `name`.
    pub fn col(&self, name: &str) -> Result<usize> {
        self.columns
            .iter()
            .position(|c| c == name)
            .ok_or_else(|| DbError::NoSuchColumn(name.to_string()))
    }

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
    /// concatenation — output columns are exactly the probe's. NULL
    /// keys never match (so under `anti` they are always emitted,
    /// `NOT EXISTS` semantics).
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
    /// Remove duplicate rows.
    Distinct {
        /// Input plan.
        input: Box<Plan>,
    },
    /// Keep the first `n` rows.
    Limit {
        /// Input plan.
        input: Box<Plan>,
        /// Row cap.
        n: usize,
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

/// Execute a semi- or anti-join over materialized inputs (the generic
/// fallback for probe/build shapes the integer-key fast path cannot
/// handle). Probe rows pass through unchanged; NULL keys never match.
pub(crate) fn run_semi_join(
    probe: ResultSet,
    build: &ResultSet,
    probe_keys: &[usize],
    build_keys: &[usize],
    anti: bool,
) -> Result<ResultSet> {
    if probe_keys.len() != build_keys.len() {
        return Err(DbError::Plan("semi-join key arity mismatch".into()));
    }
    let mut set: std::collections::HashSet<Vec<Value>> =
        std::collections::HashSet::with_capacity(build.rows.len());
    for row in &build.rows {
        let key: Vec<Value> = build_keys.iter().map(|&i| row[i].clone()).collect();
        if key.iter().any(|v| v.is_null()) {
            continue;
        }
        set.insert(key);
    }
    let mut rows = probe.rows;
    rows.retain(|r| {
        let matched = !probe_keys.iter().any(|&i| r[i].is_null())
            && set.contains(&probe_keys.iter().map(|&i| r[i].clone()).collect::<Vec<Value>>());
        matched != anti
    });
    Ok(ResultSet { columns: probe.columns, rows })
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
    fn semi_join_filters_without_concatenating() {
        let probe = rs(
            &["id", "v"],
            vec![
                vec![1.into(), "a".into()],
                vec![2.into(), "b".into()],
                vec![Value::Null, "n".into()],
            ],
        );
        let build = rs(&["id"], vec![vec![1.into()], vec![1.into()], vec![3.into()]]);
        let semi = run_semi_join(probe.clone(), &build, &[0], &[0], false).unwrap();
        assert_eq!(semi.columns, vec!["id", "v"]);
        // One output row per probe row (no fan-out on duplicate build keys);
        // the NULL key never matches.
        assert_eq!(semi.rows, vec![vec![Value::Int(1), "a".into()]]);
        let anti = run_semi_join(probe, &build, &[0], &[0], true).unwrap();
        // NOT EXISTS: the NULL-keyed row has no match, so it survives.
        assert_eq!(anti.rows.len(), 2);
        assert_eq!(anti.rows[0][0], Value::Int(2));
        assert!(anti.rows[1][0].is_null());
    }

    #[test]
    fn semi_join_null_in_build_key_never_matches() {
        let probe = rs(&["k"], vec![vec![Value::Null]]);
        let build = rs(&["k"], vec![vec![Value::Null]]);
        let semi = run_semi_join(probe, &build, &[0], &[0], false).unwrap();
        assert!(semi.rows.is_empty());
    }

    #[test]
    fn result_set_text_render() {
        let r = rs(&["id", "name"], vec![vec![1.into(), "ada".into()]]);
        let text = r.to_text();
        assert!(text.contains("id"));
        assert!(text.contains("ada"));
    }
}
