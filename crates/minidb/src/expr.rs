//! Scalar expression AST and evaluator.
//!
//! Expressions reference row positions (`Col(i)`), so the planner binds
//! names to positions once. They only test rows (compare, combine,
//! match a pattern); none computes a new value, because no caller ever
//! rewrites a row.

use crate::error::{DbError, Result};
use crate::table::Row;
use crate::value::Value;
use std::cmp::Ordering;

/// Comparison operators (SQL three-valued semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>` / `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Does `ord` satisfy the operator?
    pub fn holds(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }
}

/// A scalar expression over one row.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Value of column `i` of the input row.
    Col(usize),
    /// A literal.
    Lit(Value),
    /// Comparison with SQL NULL semantics (`NULL op x` is NULL→false).
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Logical AND (short-circuits).
    And(Box<Expr>, Box<Expr>),
    /// Logical OR (short-circuits).
    Or(Box<Expr>, Box<Expr>),
    /// Logical NOT.
    Not(Box<Expr>),
    /// SQL `LIKE` with `%` and `_` wildcards.
    Like(Box<Expr>, String),
    /// `IS NULL`.
    IsNull(Box<Expr>),
    /// `x BETWEEN lo AND hi` (inclusive).
    Between(Box<Expr>, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Shorthand: column reference.
    pub fn col(i: usize) -> Expr {
        Expr::Col(i)
    }

    /// Shorthand: literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Lit(v.into())
    }

    /// Shorthand: `col(i) = value`.
    pub fn col_eq(i: usize, v: impl Into<Value>) -> Expr {
        Expr::Cmp(CmpOp::Eq, Box::new(Expr::Col(i)), Box::new(Expr::Lit(v.into())))
    }

    /// Shorthand: `a AND b`.
    pub fn and(a: Expr, b: Expr) -> Expr {
        Expr::And(Box::new(a), Box::new(b))
    }

    /// Fold a list of conjuncts into one expression (`true` if empty).
    pub fn all(conjuncts: impl IntoIterator<Item = Expr>) -> Expr {
        let mut it = conjuncts.into_iter();
        match it.next() {
            None => Expr::Lit(Value::Bool(true)),
            Some(first) => it.fold(first, Expr::and),
        }
    }

    /// Evaluate against `row`.
    pub fn eval(&self, row: &Row) -> Result<Value> {
        match self {
            Expr::Col(i) => row.get(*i).cloned().ok_or_else(|| {
                DbError::Plan(format!("column #{i} out of range (row arity {})", row.len()))
            }),
            Expr::Lit(v) => Ok(v.clone()),
            Expr::Cmp(op, a, b) => {
                let va = a.eval(row)?;
                let vb = b.eval(row)?;
                Ok(match va.sql_cmp(&vb) {
                    None => Value::Null,
                    Some(ord) => Value::Bool(op.holds(ord)),
                })
            }
            Expr::And(a, b) => {
                if !a.eval(row)?.truthy() {
                    return Ok(Value::Bool(false));
                }
                Ok(Value::Bool(b.eval(row)?.truthy()))
            }
            Expr::Or(a, b) => {
                if a.eval(row)?.truthy() {
                    return Ok(Value::Bool(true));
                }
                Ok(Value::Bool(b.eval(row)?.truthy()))
            }
            Expr::Not(a) => Ok(Value::Bool(!a.eval(row)?.truthy())),
            Expr::Like(a, pattern) => {
                let v = a.eval(row)?;
                match v {
                    Value::Null => Ok(Value::Null),
                    Value::Str(s) => Ok(Value::Bool(like_match(&s, pattern))),
                    other => Ok(Value::Bool(like_match(&other.to_string(), pattern))),
                }
            }
            Expr::IsNull(a) => Ok(Value::Bool(a.eval(row)?.is_null())),
            Expr::Between(x, lo, hi) => {
                let vx = x.eval(row)?;
                let vlo = lo.eval(row)?;
                let vhi = hi.eval(row)?;
                match (vx.sql_cmp(&vlo), vx.sql_cmp(&vhi)) {
                    (Some(a), Some(b)) => {
                        Ok(Value::Bool(a != Ordering::Less && b != Ordering::Greater))
                    }
                    _ => Ok(Value::Null),
                }
            }
        }
    }

    /// Evaluate as a WHERE predicate (NULL → false).
    pub fn matches(&self, row: &Row) -> Result<bool> {
        Ok(self.eval(row)?.truthy())
    }
}

/// SQL LIKE matcher: `%` any run, `_` any single char; case-sensitive.
pub fn like_match(s: &str, pattern: &str) -> bool {
    fn rec(s: &[u8], p: &[u8]) -> bool {
        match p.first() {
            None => s.is_empty(),
            Some(b'%') => {
                // Collapse consecutive %.
                let p = &p[1..];
                if p.is_empty() {
                    return true;
                }
                (0..=s.len()).any(|i| rec(&s[i..], p))
            }
            Some(b'_') => !s.is_empty() && rec(&s[1..], &p[1..]),
            Some(&c) => s.first() == Some(&c) && rec(&s[1..], &p[1..]),
        }
    }
    rec(s.as_bytes(), pattern.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row() -> Row {
        vec![Value::Int(10), Value::Str("hello".into()), Value::Null, Value::Float(2.5)]
    }

    #[test]
    fn col_and_lit() {
        assert_eq!(Expr::col(0).eval(&row()).unwrap(), Value::Int(10));
        assert_eq!(Expr::lit(7).eval(&row()).unwrap(), Value::Int(7));
        assert!(Expr::col(9).eval(&row()).is_err());
    }

    #[test]
    fn comparisons_three_valued() {
        let e = Expr::Cmp(CmpOp::Gt, Box::new(Expr::col(0)), Box::new(Expr::lit(5)));
        assert_eq!(e.eval(&row()).unwrap(), Value::Bool(true));
        let n = Expr::Cmp(CmpOp::Eq, Box::new(Expr::col(2)), Box::new(Expr::lit(5)));
        assert_eq!(n.eval(&row()).unwrap(), Value::Null);
        assert!(!n.matches(&row()).unwrap());
    }

    #[test]
    fn boolean_ops() {
        let t = Expr::lit(true);
        let f = Expr::lit(false);
        assert!(Expr::and(t.clone(), t.clone()).matches(&row()).unwrap());
        assert!(!Expr::and(t.clone(), f.clone()).matches(&row()).unwrap());
        assert!(Expr::Or(Box::new(f.clone()), Box::new(t.clone())).matches(&row()).unwrap());
        assert!(Expr::Not(Box::new(f)).matches(&row()).unwrap());
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("hello", "h%"));
        assert!(like_match("hello", "%llo"));
        assert!(like_match("hello", "h_llo"));
        assert!(!like_match("hello", "h_lo"));
        assert!(like_match("hello", "%"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("a%b", "a%b"));
        assert!(like_match("abc", "%%c"));
    }

    #[test]
    fn is_null_and_between() {
        assert!(Expr::IsNull(Box::new(Expr::col(2))).matches(&row()).unwrap());
        assert!(!Expr::IsNull(Box::new(Expr::col(0))).matches(&row()).unwrap());
        let between =
            Expr::Between(Box::new(Expr::col(0)), Box::new(Expr::lit(5)), Box::new(Expr::lit(15)));
        assert!(between.matches(&row()).unwrap());
    }

    #[test]
    fn all_folds_conjuncts() {
        let e = Expr::all(vec![Expr::col_eq(0, 10), Expr::col_eq(1, "hello")]);
        assert!(e.matches(&row()).unwrap());
        let empty = Expr::all(std::iter::empty());
        assert!(empty.matches(&row()).unwrap());
    }
}
