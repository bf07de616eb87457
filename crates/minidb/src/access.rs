//! Access paths: how every operation reaches the rows a filter selects.
//!
//! A `Plan::Scan`, the semi-join's fused scan, and the victim
//! collection of `delete_where` (WAL replay included) all go through
//! `for_each_matching`, so one choice of index serves reads and writes
//! alike, and no plan names an index by hand.
//!
//! A scan filter is a tree of conjuncts. The ones an index can key on
//! are `col = lit`, `col IS NULL` (an equality on the NULL key) and a
//! numeric-literal bound on a column (`<`, `<=`, `>`, `>=`,
//! `BETWEEN`). [`AccessPath::choose`] picks the index whose leading
//! columns the equalities cover furthest; when that prefix stops short
//! of the index's key, a bound on the next key column narrows the walk
//! further, and the walk stops at the first key past it.
//!
//! # Key words
//!
//! An index keys a row by one `u64` word per key column (at most
//! [`MAX_INDEX_COLUMNS`] of them), chosen by the column's declared type
//! and monotone in [`Value::total_cmp`] over what the column can hold:
//!
//! - NULL is 0;
//! - `Int` and `Clob` are the `i64` with its sign bit flipped;
//! - `Float` is the `f64`'s total-order bits, and an `Int` stored in a
//!   `Float` column is encoded as its `f64`, which is how `total_cmp`
//!   compares the two;
//! - `Bool` is 1 or 2;
//! - `Text` is the 64-bit FNV-1a hash of its bytes. Text keeps no
//!   order: it is keyed only by equality, since bounds need numeric
//!   literals.
//!
//! Unequal values may share a word: NULL with `i64::MIN` (and with the
//! lowest negative NaN), Ints beyond 2^53 in a `Float` column, and texts
//! whose hashes collide. Equal values never differ in their words.
//!
//! A walk ([`crate::table::Index::walk`]) encodes its prefix and bounds
//! as inclusive word ranges, so it may return extra rows: rows whose
//! words tie with a literal's (an exclusive bound's own value
//! included), and the rows of a cross-type literal it cannot encode as
//! one word (a `Float` equality on an `Int` column becomes the run of
//! Ints equal to it, and the key columns after it go unbounded). It
//! never skips a row the prefix and bounds select. Rows come in word
//! order, so numbers, booleans and NULL come in value order and text in
//! hash order, and the rows of one key in insertion order.
//!
//! The path only decides which rows are *visited*: the scan re-applies
//! the whole filter to every visited row, so results never depend on
//! the path or on extra rows. The other walker, the catalog's response
//! assembly, walks Int words only, which are exact.

use crate::error::Result;
use crate::expr::{CmpOp, Expr};
use crate::table::{Index, IndexKey, Row, RowId, Table, MAX_INDEX_COLUMNS};
use crate::value::{DataType, Value};
use std::cmp::Ordering;
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
/// order for a full scan, word order for an index walk. Returns the
/// number of rows the path visited, before the filter ran.
pub(crate) fn for_each_matching(
    t: &Table,
    filter: Option<&Expr>,
    mut f: impl FnMut(RowId, &Row) -> Result<()>,
) -> Result<usize> {
    let mut visited = 0usize;
    let mut visit = |rid: RowId, r: &Row| {
        visited += 1;
        match filter {
            Some(pred) if !pred.matches(r)? => Ok(()),
            _ => f(rid, r),
        }
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
    Ok(visited)
}

/// The key word of `v`, a value stored in a column of type `dtype` (see
/// the module docs).
pub(crate) fn key_word(dtype: DataType, v: &Value) -> u64 {
    match v {
        Value::Null => 0,
        Value::Bool(b) => 1 + u64::from(*b),
        Value::Int(i) if dtype == DataType::Float => float_word(*i as f64),
        Value::Int(i) => int_word(*i),
        Value::Float(x) => float_word(*x),
        Value::Str(s) => text_word(s),
    }
}

fn int_word(i: i64) -> u64 {
    (i as u64) ^ (1 << 63)
}

/// The bits `f64::total_cmp` orders by, as an unsigned word.
fn float_word(x: f64) -> u64 {
    let bits = x.to_bits() as i64;
    ((bits ^ (((bits >> 63) as u64) >> 1) as i64) as u64) ^ (1 << 63)
}

/// 64-bit FNV-1a: fixed and unseeded, so a key's word never changes.
fn text_word(s: &str) -> u64 {
    s.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// The inclusive key range a walk of an index over columns of `types`
/// covers: the prefix's equalities, then `lo ..= hi` on the next column.
/// A prefix value that is not one word (a cross-type equality) ends the
/// encoded prefix, and every column after it is unbounded. `None` when
/// no stored row can fall in range.
pub(crate) fn key_range(
    types: &[DataType],
    prefix: &[Value],
    lo: Bound<&Value>,
    hi: Bound<&Value>,
) -> Option<(IndexKey, IndexKey)> {
    let (mut start, mut end) = ([0; MAX_INDEX_COLUMNS], [u64::MAX; MAX_INDEX_COLUMNS]);
    for (i, &t) in types.iter().enumerate() {
        let (first, last) = match prefix.get(i) {
            Some(Value::Str(s)) if t == DataType::Text => (text_word(s), text_word(s)),
            Some(v) => (lower_word(t, v)?, upper_word(t, v)),
            None => (
                match lo {
                    Bound::Included(v) | Bound::Excluded(v) => lower_word(t, v)?,
                    Bound::Unbounded => 0,
                },
                match hi {
                    Bound::Included(v) | Bound::Excluded(v) => upper_word(t, v),
                    Bound::Unbounded => u64::MAX,
                },
            ),
        };
        (start[i], end[i]) = (first, last);
        if first != last || i >= prefix.len() {
            break;
        }
    }
    (start <= end).then_some((start, end))
}

/// Where `v` ranks against the non-NULL values a column of type `dtype`
/// holds, in `total_cmp`'s order of kinds: NULL, Bool, numbers, text.
fn kind_cmp(dtype: DataType, v: &Value) -> Ordering {
    let kind = match v {
        Value::Null => 0,
        Value::Bool(_) => 1,
        Value::Int(_) | Value::Float(_) => 2,
        Value::Str(_) => 3,
    };
    let column = match dtype {
        DataType::Bool => 1,
        DataType::Int | DataType::Float | DataType::Clob => 2,
        DataType::Text => 3,
    };
    kind.cmp(&column)
}

/// A word at or below that of every value a `dtype` column can hold at
/// or above `v`; `None` when it can hold none.
fn lower_word(dtype: DataType, v: &Value) -> Option<u64> {
    match (kind_cmp(dtype, v), dtype, v) {
        (Ordering::Less, ..) | (_, DataType::Text, _) => Some(0),
        (Ordering::Greater, ..) => None,
        (_, DataType::Int | DataType::Clob, Value::Float(f)) => {
            least_int(|i| (i as f64).total_cmp(f).is_ge()).map(int_word)
        }
        _ => Some(key_word(dtype, v)),
    }
}

/// A word at or above that of every value a `dtype` column can hold at
/// or below `v`. NULL lies below every value, so some word always does.
fn upper_word(dtype: DataType, v: &Value) -> u64 {
    match (kind_cmp(dtype, v), dtype, v) {
        (Ordering::Less, ..) => 0,
        (Ordering::Greater, ..) | (_, DataType::Text, _) => u64::MAX,
        (_, DataType::Int | DataType::Clob, Value::Float(f)) => {
            least_int(|i| (i as f64).total_cmp(f).is_gt())
                .map_or(u64::MAX, |i| int_word(i.saturating_sub(1)))
        }
        _ => key_word(dtype, v),
    }
}

/// The least `i64` for which `holds` is true, where `holds` is false up
/// to some integer and true from it on; `None` when it never holds.
/// Integers beyond 2^53 round on their way to `f64`, so the Ints equal
/// to a `Float` are a run that only a search finds exactly.
fn least_int(holds: impl Fn(i64) -> bool) -> Option<i64> {
    if !holds(i64::MAX) {
        return None;
    }
    let (mut lo, mut hi) = (i64::MIN, i64::MAX);
    while lo < hi {
        let mid = ((i128::from(lo) + i128::from(hi)) >> 1) as i64;
        if holds(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Some(lo)
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

    #[test]
    fn key_words_follow_the_value_order() {
        let big = 1i64 << 53;
        let columns: [(DataType, Vec<Value>); 4] = [
            (DataType::Int, [i64::MIN, -1, 0, 1, big, big + 1, i64::MAX].map(Value::Int).to_vec()),
            (
                DataType::Float,
                vec![
                    Value::Float(-f64::NAN),
                    Value::Float(f64::NEG_INFINITY),
                    Value::Int(i64::MIN),
                    Value::Float(-1.5),
                    Value::Float(-0.0),
                    Value::Int(0),
                    Value::Float(0.5),
                    Value::Int(big),
                    Value::Int(big + 1),
                    Value::Float(f64::INFINITY),
                    Value::Float(f64::NAN),
                ],
            ),
            (DataType::Bool, vec![Value::Bool(false), Value::Bool(true)]),
            (DataType::Clob, [0, 7, i64::MAX].map(Value::Int).to_vec()),
        ];
        for (dtype, values) in columns {
            let mut prev = key_word(dtype, &Value::Null);
            for v in &values {
                let word = key_word(dtype, v);
                assert!(word >= prev, "{dtype} {v:?}: word {word:#x} below {prev:#x}");
                prev = word;
            }
        }
        // Ties: NULL with i64::MIN, and Ints past 2^53 in a Float column.
        assert_eq!(
            key_word(DataType::Int, &Value::Null),
            key_word(DataType::Int, &i64::MIN.into())
        );
        let (a, b) = (Value::Int(big), Value::Int(big + 1));
        assert_eq!(key_word(DataType::Float, &a), key_word(DataType::Float, &b));
        assert_ne!(key_word(DataType::Int, &a), key_word(DataType::Int, &b));
        // Text words are a fixed hash: equal texts share a word.
        assert_eq!(key_word(DataType::Text, &"k".into()), text_word("k"));
        assert_ne!(text_word("k"), text_word("l"));
    }

    #[test]
    fn a_float_literal_on_an_int_column_covers_the_ints_equal_to_it() {
        let range = |v: f64| {
            let v = Value::Float(v);
            (lower_word(DataType::Int, &v), upper_word(DataType::Int, &v))
        };
        // 2^53 + 1 lies halfway between 2^53 and 2^53 + 2 and rounds to
        // the even 2^53, so the Ints equal to Float(2^53) are two.
        let big = 1i64 << 53;
        assert_eq!(range(big as f64), (Some(int_word(big)), int_word(big + 1)));
        // Between two Ints the range is empty; NaNs and infinities bound
        // every Int or none.
        assert_eq!(range(0.5), (Some(int_word(1)), int_word(0)));
        assert_eq!(range(f64::NAN).0, None);
        assert_eq!(range(-f64::NAN).0, Some(int_word(i64::MIN)));
        assert_eq!(range(f64::INFINITY).1, int_word(i64::MAX));
        // -0.0 lies below Int(0) in the total order.
        assert_eq!(range(-0.0), (Some(int_word(0)), int_word(-1)));
    }
}
