//! Access paths: how every operation reaches the rows a filter selects.
//!
//! A `Plan::Scan`, the semi-join's fused scan, and the victim
//! collection of `delete_where` and `update_where` (WAL replay
//! included) all go through `for_each_matching`, so one choice of
//! index serves reads and writes alike, and no plan names an index by
//! hand.
//!
//! A scan filter is a tree of conjuncts. The ones an index can key on
//! are `col = lit`, `col IS NULL` (an equality on the NULL key) and a
//! numeric-literal bound on a column (`<`, `<=`, `>`, `>=`,
//! `BETWEEN`). [`AccessPath::choose`] picks the index whose leading
//! columns the equalities cover furthest; when that prefix stops short
//! of the index's key, a bound on the next key column narrows the walk
//! further, and the walk stops at the first key past it.
//!
//! The path only decides which rows are *visited*: the scan re-applies
//! the whole filter to every visited row, so results never depend on
//! the path. Keys and literals compare with the engine's total value
//! order ([`Value::total_cmp`]), the same order the filter evaluates
//! comparisons with, so a bound never skips a row the filter accepts.

use crate::error::Result;
use crate::expr::{CmpOp, Expr};
use crate::table::{Index, Row, RowId, Table};
use crate::value::Value;
use std::fmt;
use std::ops::Bound;

/// How a filtered scan reaches its candidate rows.
#[derive(Debug)]
pub enum AccessPath<'a> {
    /// Visit every live row of the table.
    Full,
    /// Walk `index` over the keys that start with `key` and whose next
    /// column lies within `lo ..= hi` (each end open, inclusive or
    /// exclusive).
    Index {
        /// The index walked.
        index: &'a Index,
        /// Equality prefix of the index key.
        key: Vec<Value>,
        /// Lower bound on the key column after the prefix.
        lo: Bound<Value>,
        /// Upper bound on the key column after the prefix.
        hi: Bound<Value>,
    },
}

/// One conjunct an index can key on.
enum Term {
    /// `col = v` (`col IS NULL` is `col = NULL`).
    Eq(usize, Value),
    /// `col >= v` (`Included`) or `col > v` (`Excluded`).
    Lo(usize, Bound<Value>),
    /// `col <= v` (`Included`) or `col < v` (`Excluded`).
    Hi(usize, Bound<Value>),
}

impl Term {
    fn is_eq_on(&self, col: usize) -> bool {
        matches!(self, Term::Eq(c, _) if *c == col)
    }

    fn bounds(&self, col: usize) -> bool {
        matches!(self, Term::Lo(c, ..) | Term::Hi(c, ..) if *c == col)
    }
}

fn is_numeric(v: &Value) -> bool {
    matches!(v, Value::Int(_) | Value::Float(_))
}

/// Collect the keyable terms reachable through top-level conjunctions;
/// every other conjunct stays residual filter work.
fn collect_terms(e: &Expr, out: &mut Vec<Term>) {
    match e {
        Expr::And(a, b) => {
            collect_terms(a, out);
            collect_terms(b, out);
        }
        Expr::IsNull(x) => {
            if let Expr::Col(c) = **x {
                out.push(Term::Eq(c, Value::Null));
            }
        }
        Expr::Cmp(op, a, b) => {
            // `lit op col` is `col op' lit` with the operator mirrored.
            let (c, v, op) = match (&**a, &**b) {
                (Expr::Col(c), Expr::Lit(v)) => (*c, v, *op),
                (Expr::Lit(v), Expr::Col(c)) => {
                    let mirrored = match op {
                        CmpOp::Lt => CmpOp::Gt,
                        CmpOp::Le => CmpOp::Ge,
                        CmpOp::Gt => CmpOp::Lt,
                        CmpOp::Ge => CmpOp::Le,
                        other => *other,
                    };
                    (*c, v, mirrored)
                }
                _ => return,
            };
            out.push(match op {
                CmpOp::Eq => Term::Eq(c, v.clone()),
                CmpOp::Ne => return,
                _ if !is_numeric(v) => return,
                CmpOp::Gt => Term::Lo(c, Bound::Excluded(v.clone())),
                CmpOp::Ge => Term::Lo(c, Bound::Included(v.clone())),
                CmpOp::Lt => Term::Hi(c, Bound::Excluded(v.clone())),
                CmpOp::Le => Term::Hi(c, Bound::Included(v.clone())),
            });
        }
        Expr::Between(x, lo, hi) => {
            if let (Expr::Col(c), Expr::Lit(l), Expr::Lit(h)) = (&**x, &**lo, &**hi) {
                if is_numeric(l) && is_numeric(h) {
                    out.push(Term::Lo(*c, Bound::Included(l.clone())));
                    out.push(Term::Hi(*c, Bound::Included(h.clone())));
                }
            }
        }
        _ => {}
    }
}

impl<'a> AccessPath<'a> {
    /// The path a scan of `t` under `filter` takes: the index whose
    /// leading columns the filter's equalities cover furthest, preferring
    /// one that can also bound its next column; a full scan when no
    /// index keys on the filter.
    pub fn choose(t: &'a Table, filter: Option<&Expr>) -> AccessPath<'a> {
        let mut terms = Vec::new();
        if let Some(pred) = filter {
            collect_terms(pred, &mut terms);
        }
        let mut best: Option<(&Index, (usize, bool))> = None;
        for idx in t.indexes() {
            let p =
                idx.columns.iter().take_while(|&&c| terms.iter().any(|t| t.is_eq_on(c))).count();
            let ranged = idx.columns.get(p).is_some_and(|&c| terms.iter().any(|t| t.bounds(c)));
            let score = (p, ranged);
            if score > (0, false) && best.is_none_or(|(_, s)| score > s) {
                best = Some((idx, score));
            }
        }
        let Some((index, (p, _))) = best else {
            return AccessPath::Full;
        };
        let key = index.columns[..p]
            .iter()
            .map(|&c| {
                terms
                    .iter()
                    .find_map(|t| match t {
                        Term::Eq(tc, v) if *tc == c => Some(v.clone()),
                        _ => None,
                    })
                    .expect("prefix columns have an equality term")
            })
            .collect();
        // The first bound on each side is enough: a further bound on the
        // same column stays residual filter work.
        let next = index.columns.get(p);
        let lo = terms
            .iter()
            .find_map(|t| match t {
                Term::Lo(c, b) if Some(c) == next => Some(b.clone()),
                _ => None,
            })
            .unwrap_or(Bound::Unbounded);
        let hi = terms
            .iter()
            .find_map(|t| match t {
                Term::Hi(c, b) if Some(c) == next => Some(b.clone()),
                _ => None,
            })
            .unwrap_or(Bound::Unbounded);
        AccessPath::Index { index, key, lo, hi }
    }
}

impl fmt::Display for AccessPath<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let AccessPath::Index { index, key, lo, hi } = self else {
            return f.write_str("full scan");
        };
        write!(f, "index {} key={key:?}", index.name)?;
        match (lo, hi) {
            (Bound::Unbounded, Bound::Unbounded) => Ok(()),
            _ => {
                f.write_str(" range=")?;
                match lo {
                    Bound::Included(v) => write!(f, "[{v:?}")?,
                    Bound::Excluded(v) => write!(f, "({v:?}")?,
                    Bound::Unbounded => f.write_str("(-inf")?,
                }
                match hi {
                    Bound::Included(v) => write!(f, ", {v:?}]"),
                    Bound::Excluded(v) => write!(f, ", {v:?})"),
                    Bound::Unbounded => f.write_str(", +inf)"),
                }
            }
        }
    }
}

/// Visit every row of `t` matching `filter`, with its [`RowId`],
/// reaching candidates through [`AccessPath::choose`] and re-applying
/// the whole filter to each one. Rows come in the path's order: slot
/// order for a full scan, key order for an index walk.
pub(crate) fn for_each_matching(
    t: &Table,
    filter: Option<&Expr>,
    mut f: impl FnMut(RowId, &Row) -> Result<()>,
) -> Result<()> {
    let mut visit = |rid: RowId, r: &Row| match filter {
        Some(pred) if !pred.matches(r)? => Ok(()),
        _ => f(rid, r),
    };
    match AccessPath::choose(t, filter) {
        AccessPath::Full => {
            for (rid, r) in t.scan() {
                visit(rid, r)?;
            }
        }
        AccessPath::Index { index, key, lo, hi } => {
            for rid in index.walk(&key, lo.as_ref(), hi.as_ref()) {
                if let Some(r) = t.get(rid) {
                    visit(rid, r)?;
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{Column, TableSchema};
    use crate::value::DataType;

    fn table() -> Table {
        let mut t = Table::new(
            "t",
            TableSchema::new(vec![
                Column::new("a", DataType::Int),
                Column::nullable("x", DataType::Float),
                Column::nullable("s", DataType::Text),
            ]),
        );
        t.create_index("by_a", vec![0], false).unwrap();
        t.create_index("by_axs", vec![0, 1, 2], false).unwrap();
        t
    }

    fn cmp(op: CmpOp, a: Expr, b: Expr) -> Expr {
        Expr::Cmp(op, Box::new(a), Box::new(b))
    }

    #[test]
    fn equalities_then_a_bound_pick_the_longest_key() {
        let t = table();
        let pred = Expr::and(Expr::col_eq(0, 3), cmp(CmpOp::Gt, Expr::col(1), Expr::lit(1.5)));
        let path = AccessPath::choose(&t, Some(&pred));
        assert_eq!(path.to_string(), "index by_axs key=[Int(3)] range=(Float(1.5), +inf)");
        let point = Expr::all([
            Expr::col_eq(0, 3),
            Expr::IsNull(Box::new(Expr::col(1))),
            Expr::col_eq(2, "k"),
        ]);
        assert_eq!(
            AccessPath::choose(&t, Some(&point)).to_string(),
            "index by_axs key=[Int(3), Null, Str(\"k\")]"
        );
    }

    #[test]
    fn a_literal_on_the_left_mirrors_the_bound() {
        let t = table();
        let pred = Expr::all([
            Expr::col_eq(0, 1),
            cmp(CmpOp::Ge, Expr::lit(4), Expr::col(1)),
            cmp(CmpOp::Lt, Expr::lit(0), Expr::col(1)),
        ]);
        assert_eq!(
            AccessPath::choose(&t, Some(&pred)).to_string(),
            "index by_axs key=[Int(1)] range=(Int(0), Int(4)]"
        );
    }

    #[test]
    fn unkeyable_filters_scan_in_full() {
        let t = table();
        assert!(matches!(AccessPath::choose(&t, None), AccessPath::Full));
        let like = Expr::Like(Box::new(Expr::col(2)), "a%".into());
        assert!(matches!(AccessPath::choose(&t, Some(&like)), AccessPath::Full));
        // A string bound is not a numeric-literal bound.
        let s = cmp(CmpOp::Lt, Expr::col(0), Expr::lit("m"));
        assert!(matches!(AccessPath::choose(&t, Some(&s)), AccessPath::Full));
    }

    #[test]
    fn an_empty_range_visits_nothing() {
        let mut t = table();
        for a in 0..3i64 {
            for x in 0..5i64 {
                t.insert(vec![a.into(), Value::Float(x as f64), Value::Null]).unwrap();
            }
        }
        let pred = Expr::and(
            Expr::col_eq(0, 1),
            Expr::Between(Box::new(Expr::col(1)), Box::new(Expr::lit(4)), Box::new(Expr::lit(2))),
        );
        let mut n = 0;
        for_each_matching(&t, Some(&pred), |_, _| {
            n += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(n, 0);
        let pred = Expr::and(
            Expr::col_eq(0, 1),
            Expr::Between(Box::new(Expr::col(1)), Box::new(Expr::lit(1)), Box::new(Expr::lit(3))),
        );
        let mut seen = Vec::new();
        for_each_matching(&t, Some(&pred), |_, r| {
            seen.push(r[1].clone());
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, vec![Value::Float(1.0), Value::Float(2.0), Value::Float(3.0)]);
    }
}
