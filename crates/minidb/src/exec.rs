//! Physical query plans and their executor.
//!
//! Plans are explicit operator trees (the shape a planner would emit),
//! executed with full materialization between operators — predictable
//! and plenty fast at catalog scale, and it keeps lock scopes tight:
//! every table is read-locked only while its scan materializes.
//!
//! The operator set is exactly what the hybrid catalog's Fig-4 query
//! pipeline and the baselines need: scans (heap, index point/range),
//! literal `Values`, filter/project, hash and nested-loop joins,
//! grouped aggregation, sort/distinct/limit.

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

    /// Extract one column as values.
    pub fn column_values(&self, idx: usize) -> Vec<Value> {
        self.rows.iter().map(|r| r[idx].clone()).collect()
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

/// Inner vs. left outer join.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// Emit only matching pairs.
    Inner,
    /// Emit every left row; unmatched rows pad the right side with NULLs.
    Left,
}

/// Aggregate function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(*)` (arg `None`) or `COUNT(expr)` (non-NULL count).
    Count,
    /// `SUM(expr)`.
    Sum,
    /// `MIN(expr)`.
    Min,
    /// `MAX(expr)`.
    Max,
    /// `AVG(expr)`.
    Avg,
}

/// One aggregate in an [`Plan::Aggregate`] node.
#[derive(Debug, Clone)]
pub struct AggCall {
    /// Function.
    pub func: AggFunc,
    /// Argument (None only for `COUNT(*)`).
    pub arg: Option<Expr>,
    /// Output column name.
    pub name: String,
    /// Aggregate over distinct argument values only.
    pub distinct: bool,
}

impl AggCall {
    /// `COUNT(*) AS name`.
    pub fn count_star(name: impl Into<String>) -> AggCall {
        AggCall { func: AggFunc::Count, arg: None, name: name.into(), distinct: false }
    }

    /// `func(expr) AS name`.
    pub fn of(func: AggFunc, arg: Expr, name: impl Into<String>) -> AggCall {
        AggCall { func, arg: Some(arg), name: name.into(), distinct: false }
    }

    /// `func(DISTINCT expr) AS name`.
    pub fn distinct_of(func: AggFunc, arg: Expr, name: impl Into<String>) -> AggCall {
        AggCall { func, arg: Some(arg), name: name.into(), distinct: true }
    }
}

/// A physical plan node.
#[derive(Debug, Clone)]
pub enum Plan {
    /// Full scan of a named table with an optional residual filter.
    Scan {
        /// Table name.
        table: String,
        /// Residual predicate (bound to the table's column order).
        filter: Option<Expr>,
    },
    /// Point lookup through a named index.
    IndexLookup {
        /// Table name.
        table: String,
        /// Index name.
        index: String,
        /// Full key (one value per index column).
        key: Vec<Value>,
        /// Residual predicate.
        filter: Option<Expr>,
    },
    /// Inclusive range scan through a named index.
    IndexRange {
        /// Table name.
        table: String,
        /// Index name.
        index: String,
        /// Lower bound (inclusive) or open.
        lo: Option<Vec<Value>>,
        /// Upper bound (inclusive) or open.
        hi: Option<Vec<Value>>,
        /// Residual predicate.
        filter: Option<Expr>,
    },
    /// Literal rows (the engine's `VALUES`; also used for temp inputs).
    Values {
        /// Output column names.
        columns: Vec<String>,
        /// Literal rows.
        rows: Vec<Row>,
    },
    /// Filter rows by a predicate.
    Filter {
        /// Input plan.
        input: Box<Plan>,
        /// Predicate over the input row.
        pred: Expr,
    },
    /// Compute output columns from expressions.
    Project {
        /// Input plan.
        input: Box<Plan>,
        /// `(expr, output name)` pairs.
        exprs: Vec<(Expr, String)>,
    },
    /// Equi-join via hashing the right side.
    HashJoin {
        /// Left input.
        left: Box<Plan>,
        /// Right input (hashed).
        right: Box<Plan>,
        /// Key columns on the left.
        left_keys: Vec<usize>,
        /// Key columns on the right.
        right_keys: Vec<usize>,
        /// Inner or left outer.
        kind: JoinKind,
    },
    /// General join with an arbitrary predicate over the concatenated row.
    NestedLoopJoin {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
        /// Join predicate (None = cross product).
        pred: Option<Expr>,
        /// Inner or left outer.
        kind: JoinKind,
    },
    /// Grouped aggregation.
    Aggregate {
        /// Input plan.
        input: Box<Plan>,
        /// Grouping column positions (empty = one global group).
        group_by: Vec<usize>,
        /// Aggregates to compute.
        aggs: Vec<AggCall>,
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
    /// Convenience: wrap in a filter.
    pub fn filter(self, pred: Expr) -> Plan {
        Plan::Filter { input: Box::new(self), pred }
    }

    /// Convenience: project to expressions.
    pub fn project(self, exprs: Vec<(Expr, String)>) -> Plan {
        Plan::Project { input: Box::new(self), exprs }
    }

    /// Convenience: inner hash join.
    pub fn hash_join(self, right: Plan, left_keys: Vec<usize>, right_keys: Vec<usize>) -> Plan {
        Plan::HashJoin {
            left: Box::new(self),
            right: Box::new(right),
            left_keys,
            right_keys,
            kind: JoinKind::Inner,
        }
    }

    /// Convenience: grouped aggregation.
    pub fn aggregate(self, group_by: Vec<usize>, aggs: Vec<AggCall>) -> Plan {
        Plan::Aggregate { input: Box::new(self), group_by, aggs }
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

/// State for one aggregate accumulator.
enum AggState {
    Count(i64),
    Sum(Option<Value>),
    Min(Option<Value>),
    Max(Option<Value>),
    Avg { sum: f64, n: i64 },
}

impl AggState {
    fn new(f: AggFunc) -> AggState {
        match f {
            AggFunc::Count => AggState::Count(0),
            AggFunc::Sum => AggState::Sum(None),
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
            AggFunc::Avg => AggState::Avg { sum: 0.0, n: 0 },
        }
    }

    fn feed(&mut self, v: Option<&Value>) -> Result<()> {
        match self {
            AggState::Count(n) => {
                // COUNT(*) feeds None-arg as a counted row; COUNT(expr)
                // skips NULLs.
                match v {
                    Some(Value::Null) => {}
                    _ => *n += 1,
                }
            }
            AggState::Sum(acc) => {
                if let Some(v) = v {
                    if !v.is_null() {
                        let x = v
                            .as_f64()
                            .ok_or_else(|| DbError::Plan(format!("SUM over non-numeric {v:?}")))?;
                        *acc = Some(match acc.take() {
                            None => v.clone(),
                            Some(Value::Int(a)) if matches!(v, Value::Int(_)) => {
                                Value::Int(a + v.as_i64().unwrap())
                            }
                            Some(prev) => Value::Float(prev.as_f64().unwrap() + x),
                        });
                    }
                }
            }
            AggState::Min(acc) => {
                if let Some(v) = v {
                    if !v.is_null() {
                        let better = acc.as_ref().map(|a| v < a).unwrap_or(true);
                        if better {
                            *acc = Some(v.clone());
                        }
                    }
                }
            }
            AggState::Max(acc) => {
                if let Some(v) = v {
                    if !v.is_null() {
                        let better = acc.as_ref().map(|a| v > a).unwrap_or(true);
                        if better {
                            *acc = Some(v.clone());
                        }
                    }
                }
            }
            AggState::Avg { sum, n } => {
                if let Some(v) = v {
                    if !v.is_null() {
                        let x = v
                            .as_f64()
                            .ok_or_else(|| DbError::Plan(format!("AVG over non-numeric {v:?}")))?;
                        *sum += x;
                        *n += 1;
                    }
                }
            }
        }
        Ok(())
    }

    fn finish(self) -> Value {
        match self {
            AggState::Count(n) => Value::Int(n),
            AggState::Sum(v) => v.unwrap_or(Value::Null),
            AggState::Min(v) | AggState::Max(v) => v.unwrap_or(Value::Null),
            AggState::Avg { sum, n } => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / n as f64)
                }
            }
        }
    }
}

/// Execute grouped aggregation over a materialized input.
pub(crate) fn run_aggregate(
    input: ResultSet,
    group_by: &[usize],
    aggs: &[AggCall],
) -> Result<ResultSet> {
    let mut columns: Vec<String> = group_by.iter().map(|&i| input.columns[i].clone()).collect();
    columns.extend(aggs.iter().map(|a| a.name.clone()));

    // Group index: key -> (key values, accumulator states, distinct sets)
    type Group = (Vec<Value>, Vec<AggState>, Vec<std::collections::HashSet<Value>>);
    let mut groups: HashMap<Vec<Value>, Group> = HashMap::new();
    let mut order: Vec<Vec<Value>> = Vec::new();

    for row in &input.rows {
        let key: Vec<Value> = group_by.iter().map(|&i| row[i].clone()).collect();
        let entry = groups.entry(key.clone()).or_insert_with(|| {
            order.push(key.clone());
            (
                key.clone(),
                aggs.iter().map(|a| AggState::new(a.func)).collect(),
                aggs.iter().map(|_| std::collections::HashSet::new()).collect(),
            )
        });
        for (i, agg) in aggs.iter().enumerate() {
            let v = match &agg.arg {
                None => None,
                Some(e) => Some(e.eval(row)?),
            };
            if agg.distinct {
                if let Some(val) = &v {
                    if val.is_null() || !entry.2[i].insert(val.clone()) {
                        continue;
                    }
                }
            }
            entry.1[i].feed(v.as_ref())?;
        }
    }

    let mut rows = Vec::with_capacity(groups.len().max(1));
    if groups.is_empty() && group_by.is_empty() {
        // Global aggregate over empty input: one row of identities.
        let row: Vec<Value> = aggs.iter().map(|a| AggState::new(a.func).finish()).collect();
        rows.push(row);
    } else {
        for key in order {
            let (kvals, states, _) = groups.remove(&key).expect("group recorded in order");
            let mut row = kvals;
            row.extend(states.into_iter().map(|s| s.finish()));
            rows.push(row);
        }
    }
    Ok(ResultSet { columns, rows })
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

/// Execute a hash join over materialized inputs. The probe loop checks
/// `deadline` cooperatively every [`crate::limits::CHECK_INTERVAL`]
/// probe rows, so a join whose output explodes is cancelled before it
/// is fully materialized.
pub(crate) fn run_hash_join(
    left: ResultSet,
    right: ResultSet,
    left_keys: &[usize],
    right_keys: &[usize],
    kind: JoinKind,
    deadline: &crate::limits::Deadline,
) -> Result<ResultSet> {
    if left_keys.len() != right_keys.len() {
        return Err(DbError::Plan("join key arity mismatch".into()));
    }
    let mut columns = left.columns.clone();
    columns.extend(right.columns.iter().cloned());
    let right_arity = right.columns.len();

    let mut table: HashMap<Vec<Value>, Vec<&Row>> = HashMap::with_capacity(right.rows.len());
    for row in &right.rows {
        let key: Vec<Value> = right_keys.iter().map(|&i| row[i].clone()).collect();
        // SQL join semantics: NULL keys never match.
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
        let matches = if key.iter().any(|v| v.is_null()) { None } else { table.get(&key) };
        match matches {
            Some(rs) => {
                for r in rs {
                    let mut out = lrow.clone();
                    out.extend((*r).iter().cloned());
                    rows.push(out);
                }
            }
            None => {
                if kind == JoinKind::Left {
                    let mut out = lrow.clone();
                    out.extend(std::iter::repeat_n(Value::Null, right_arity));
                    rows.push(out);
                }
            }
        }
    }
    Ok(ResultSet { columns, rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::limits::Deadline;

    fn rs(cols: &[&str], rows: Vec<Vec<Value>>) -> ResultSet {
        ResultSet { columns: cols.iter().map(|s| s.to_string()).collect(), rows }
    }

    #[test]
    fn hash_join_inner_and_left() {
        let l = rs(
            &["id", "v"],
            vec![
                vec![1.into(), "a".into()],
                vec![2.into(), "b".into()],
                vec![Value::Null, "n".into()],
            ],
        );
        let r = rs(&["id", "w"], vec![vec![1.into(), "x".into()], vec![1.into(), "y".into()]]);
        let none = Deadline::none();
        let inner =
            run_hash_join(l.clone(), r.clone(), &[0], &[0], JoinKind::Inner, &none).unwrap();
        assert_eq!(inner.rows.len(), 2);
        assert_eq!(inner.columns, vec!["id", "v", "id", "w"]);
        let left = run_hash_join(l, r, &[0], &[0], JoinKind::Left, &none).unwrap();
        assert_eq!(left.rows.len(), 4); // 2 matches + 2 unmatched (id=2, NULL)
        assert!(left.rows.iter().any(|r| r[0] == Value::Int(2) && r[3].is_null()));
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
    fn aggregate_group_counts() {
        let input = rs(
            &["k", "x"],
            vec![
                vec!["a".into(), 1.into()],
                vec!["a".into(), 2.into()],
                vec!["b".into(), 3.into()],
                vec!["a".into(), Value::Null],
            ],
        );
        let out = run_aggregate(
            input,
            &[0],
            &[
                AggCall::count_star("n"),
                AggCall::of(AggFunc::Count, Expr::col(1), "nx"),
                AggCall::of(AggFunc::Sum, Expr::col(1), "sx"),
                AggCall::of(AggFunc::Min, Expr::col(1), "mn"),
                AggCall::of(AggFunc::Max, Expr::col(1), "mx"),
                AggCall::of(AggFunc::Avg, Expr::col(1), "avg"),
            ],
        )
        .unwrap();
        assert_eq!(out.columns, vec!["k", "n", "nx", "sx", "mn", "mx", "avg"]);
        assert_eq!(out.rows.len(), 2);
        let a = &out.rows[0];
        assert_eq!(a[0], Value::Str("a".into()));
        assert_eq!(a[1], Value::Int(3));
        assert_eq!(a[2], Value::Int(2));
        assert_eq!(a[3], Value::Int(3));
        assert_eq!(a[4], Value::Int(1));
        assert_eq!(a[5], Value::Int(2));
        assert_eq!(a[6], Value::Float(1.5));
    }

    #[test]
    fn aggregate_empty_input_global() {
        let input = rs(&["x"], vec![]);
        let out = run_aggregate(
            input,
            &[],
            &[AggCall::count_star("n"), AggCall::of(AggFunc::Sum, Expr::col(0), "s")],
        )
        .unwrap();
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.rows[0][0], Value::Int(0));
        assert!(out.rows[0][1].is_null());
    }

    #[test]
    fn aggregate_distinct() {
        let input = rs(&["k"], vec![vec![1.into()], vec![1.into()], vec![2.into()]]);
        let out =
            run_aggregate(input, &[], &[AggCall::distinct_of(AggFunc::Count, Expr::col(0), "d")])
                .unwrap();
        assert_eq!(out.rows[0][0], Value::Int(2));
    }

    #[test]
    fn result_set_text_render() {
        let r = rs(&["id", "name"], vec![vec![1.into(), "ada".into()]]);
        let text = r.to_text();
        assert!(text.contains("id"));
        assert!(text.contains("ada"));
    }
}
