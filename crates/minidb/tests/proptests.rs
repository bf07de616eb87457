//! Property tests for engine invariants: value total order, LIKE
//! matching, index/scan agreement, and snapshot round trips.

use minidb::prelude::*;
use proptest::prelude::*;

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        // Finite floats only; NaN's total order is tested separately.
        (-1e12f64..1e12).prop_map(Value::Float),
        "[ -~]{0,12}".prop_map(Value::Str),
    ]
}

proptest! {
    /// total_cmp is a total order: antisymmetric, transitive, total.
    #[test]
    fn value_total_order_laws(a in value_strategy(), b in value_strategy(), c in value_strategy()) {
        use std::cmp::Ordering;
        let ab = a.total_cmp(&b);
        let ba = b.total_cmp(&a);
        prop_assert_eq!(ab, ba.reverse());
        if ab == Ordering::Equal {
            // Equality must be consistent with hashing.
            use std::collections::hash_map::DefaultHasher;
            use std::hash::{Hash, Hasher};
            let mut h1 = DefaultHasher::new();
            let mut h2 = DefaultHasher::new();
            a.hash(&mut h1);
            b.hash(&mut h2);
            prop_assert_eq!(h1.finish(), h2.finish());
        }
        if a.total_cmp(&b) != Ordering::Greater && b.total_cmp(&c) != Ordering::Greater {
            prop_assert_ne!(a.total_cmp(&c), Ordering::Greater);
        }
    }

    /// LIKE with a literal pattern (no wildcards) is equality; a
    /// pattern of all '%' matches everything; '_' consumes exactly one.
    #[test]
    fn like_basic_laws(s in "[a-z]{0,10}", t in "[a-z]{0,10}") {
        prop_assert_eq!(minidb::expr::like_match(&s, &s), true);
        prop_assert_eq!(minidb::expr::like_match(&s, &t), s == t);
        prop_assert!(minidb::expr::like_match(&s, "%"));
        let underscores = "_".repeat(s.len());
        prop_assert!(minidb::expr::like_match(&s, &underscores));
        if !s.is_empty() {
            prop_assert!(!minidb::expr::like_match(&s, &"_".repeat(s.len() + 1)));
        }
        // prefix% and %suffix
        if s.len() >= 2 {
            let pre = format!("{}%", &s[..1]);
            prop_assert!(minidb::expr::like_match(&s, &pre));
            let suf = format!("%{}", &s[s.len() - 1..]);
            prop_assert!(minidb::expr::like_match(&s, &suf));
        }
    }

    /// Index-routed point lookups agree with a full predicate scan.
    #[test]
    fn index_scan_agreement(rows in proptest::collection::vec((0i64..20, 0i64..20, "[a-c]{1}"), 1..60), probe_a in 0i64..20, probe_b in 0i64..20) {
        let db = Database::new();
        db.create_table(
            "t",
            TableSchema::new(vec![
                Column::new("a", DataType::Int),
                Column::new("b", DataType::Int),
                Column::new("s", DataType::Text),
            ]),
        ).unwrap();
        for (a, b, s) in &rows {
            db.insert("t", vec![vec![Value::Int(*a), Value::Int(*b), Value::Str(s.clone())]]).unwrap();
        }
        let pred = Expr::and(Expr::col_eq(0, probe_a), Expr::col_eq(1, probe_b));
        // Without an index: plain scan.
        let plain = db.execute(&Plan::Scan { table: "t".into(), filter: Some(pred.clone()) }).unwrap();
        // With a partially-covering and a fully-covering index: the
        // longest-prefix routing must return the same rows.
        db.create_index("t", "by_a", &["a"], false).unwrap();
        let routed1 = db.execute(&Plan::Scan { table: "t".into(), filter: Some(pred.clone()) }).unwrap();
        db.create_index("t", "by_ab", &["a", "b"], false).unwrap();
        let routed2 = db.execute(&Plan::Scan { table: "t".into(), filter: Some(pred) }).unwrap();
        let norm = |mut rs: ResultSet| {
            rs.rows.sort_by(|x, y| {
                x.iter().zip(y.iter()).map(|(a, b)| a.total_cmp(b)).find(|o| *o != std::cmp::Ordering::Equal).unwrap_or(std::cmp::Ordering::Equal)
            });
            rs.rows
        };
        let p = norm(plain);
        prop_assert_eq!(&p, &norm(routed1));
        prop_assert_eq!(&p, &norm(routed2));
    }

    /// Snapshot round trips preserve rows and schemas exactly: after a
    /// checkpoint the WAL is empty, so the reopened rows come from the
    /// snapshot alone.
    #[test]
    fn snapshot_roundtrip(rows in proptest::collection::vec((any::<i64>(), proptest::option::of("[ -~]{0,16}")), 0..40)) {
        let vfs = MemVfs::new();
        let db = Database::open_with(std::sync::Arc::new(vfs.clone()), WalOptions::default()).unwrap();
        db.create_table(
            "t",
            TableSchema::new(vec![
                Column::new("id", DataType::Int),
                Column::nullable("name", DataType::Text),
            ]),
        ).unwrap();
        for (id, name) in &rows {
            db.insert("t", vec![vec![
                Value::Int(*id),
                name.clone().map(Value::Str).unwrap_or(Value::Null),
            ]]).unwrap();
        }
        db.checkpoint().unwrap();
        let loaded = Database::open_with(std::sync::Arc::new(vfs), WalOptions::default()).unwrap();
        let a = db.execute(&Plan::Scan { table: "t".into(), filter: None }).unwrap();
        let b = loaded.execute(&Plan::Scan { table: "t".into(), filter: None }).unwrap();
        prop_assert_eq!(a.rows, b.rows);
    }

    /// `Sort` is a permutation sorted by the requested key, in the
    /// requested direction.
    #[test]
    fn sort_is_sorted_permutation(
        vals in proptest::collection::vec(-100i64..100, 1..50),
        desc in any::<bool>(),
    ) {
        let db = Database::new();
        db.create_table("t", TableSchema::new(vec![Column::new("x", DataType::Int)])).unwrap();
        for v in &vals {
            db.insert("t", vec![vec![Value::Int(*v)]]).unwrap();
        }
        let scan = Plan::Scan { table: "t".into(), filter: None };
        let rs = db.execute(&Plan::Sort { input: Box::new(scan), keys: vec![(0, desc)] }).unwrap();
        let got: Vec<i64> = rs.rows.iter().filter_map(|r| r[0].as_i64()).collect();
        let mut want = vals.clone();
        want.sort_unstable();
        if desc {
            want.reverse();
        }
        prop_assert_eq!(got, want);
    }
}

/// A key or literal value over the three columns of the access-path
/// property's table: NULL, small Ints, half-step Floats (so an Int
/// literal can equal a Float key), NaN and short strings.
fn key_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (-4i64..4).prop_map(Value::Int),
        (-8i64..8).prop_map(|h| Value::Float(h as f64 / 2.0)),
        Just(Value::Float(f64::NAN)),
        "[a-c]{0,2}".prop_map(Value::Str),
    ]
}

/// One conjunct of the access-path property's filters: `=`, `IS NULL`,
/// `BETWEEN` (lo > hi included) or a one-sided bound, with the literal
/// on either side.
fn conjunct() -> impl Strategy<Value = Expr> {
    (0usize..3, 0u8..8, key_value(), key_value(), any::<bool>()).prop_map(
        |(c, kind, v, w, flip)| {
            let op = match kind {
                0 => CmpOp::Eq,
                1 => CmpOp::Lt,
                2 => CmpOp::Le,
                3 => CmpOp::Gt,
                4 => CmpOp::Ge,
                5 => return Expr::IsNull(Box::new(Expr::col(c))),
                _ => {
                    return Expr::Between(
                        Box::new(Expr::col(c)),
                        Box::new(Expr::Lit(v)),
                        Box::new(Expr::Lit(w)),
                    )
                }
            };
            let (col, lit) = (Box::new(Expr::col(c)), Box::new(Expr::Lit(v)));
            if flip {
                let mirrored = match op {
                    CmpOp::Lt => CmpOp::Gt,
                    CmpOp::Le => CmpOp::Ge,
                    CmpOp::Gt => CmpOp::Lt,
                    CmpOp::Ge => CmpOp::Le,
                    other => other,
                };
                Expr::Cmp(mirrored, lit, col)
            } else {
                Expr::Cmp(op, col, lit)
            }
        },
    )
}

/// Rows sorted by the engine's total order, for multiset comparison.
fn sorted_rows(mut rs: ResultSet) -> Vec<Row> {
    rs.rows.sort_by(|x, y| {
        x.iter()
            .zip(y.iter())
            .map(|(a, b)| a.total_cmp(b))
            .find(|o| *o != std::cmp::Ordering::Equal)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    rs.rows
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// An index-routed `Scan` returns exactly the rows a full scan with
    /// the same filter returns, whatever access path the filter keys:
    /// equality prefixes (NULL included, through `IS NULL`), a bound on
    /// the next key column (empty, NaN-ended, Int against Float), or
    /// none. A delete and a literal-`SET` update under the same filter
    /// touch the same rows and leave the same table.
    #[test]
    fn index_routed_scan_equals_full_scan(
        rows in proptest::collection::vec((key_value(), key_value(), key_value()), 0..40),
        indexes in proptest::collection::vec(proptest::collection::vec(0usize..3, 1..4), 1..3),
        conjuncts in proptest::collection::vec(conjunct(), 1..5),
    ) {
        let schema = || TableSchema::new(vec![
            Column::nullable("a", DataType::Int),
            Column::nullable("x", DataType::Float),
            Column::nullable("s", DataType::Text),
        ]);
        // Column types decide which generated values a row keeps.
        let rows: Vec<Row> = rows
            .into_iter()
            .map(|(a, x, s)| {
                let a = if matches!(a, Value::Int(_)) { a } else { Value::Null };
                let x = if matches!(x, Value::Int(_) | Value::Float(_)) { x } else { Value::Null };
                let s = if matches!(s, Value::Str(_)) { s } else { Value::Null };
                vec![a, x, s]
            })
            .collect();
        let names = ["a", "x", "s"];
        let fresh = |indexed: bool| {
            let db = Database::new();
            db.create_table("t", schema()).unwrap();
            db.insert("t", rows.clone()).unwrap();
            for (i, cols) in indexes.iter().enumerate().filter(|_| indexed) {
                let mut seen = Vec::new();
                for &c in cols {
                    if !seen.contains(&names[c]) {
                        seen.push(names[c]);
                    }
                }
                db.create_index("t", &format!("i{i}"), &seen, false).unwrap();
            }
            db
        };
        let all_rows = |db: &Database| {
            sorted_rows(db.execute(&Plan::Scan { table: "t".into(), filter: None }).unwrap())
        };
        let filter = Expr::all(conjuncts);
        let scan = Plan::Scan { table: "t".into(), filter: Some(filter.clone()) };
        let (plain, routed) = (fresh(false), fresh(true));
        let want = sorted_rows(plain.execute(&scan).unwrap());
        let got = sorted_rows(routed.execute(&scan).unwrap());
        prop_assert_eq!(got, want, "filter {:?} over indexes {:?}", filter, indexes);
        // Deletes and updates select their rows through the same path.
        let (plain, routed) = (fresh(false), fresh(true));
        let want = plain.delete_where("t", &filter).unwrap();
        let got = routed.delete_where("t", &filter).unwrap();
        prop_assert_eq!(got, want, "delete {:?} over indexes {:?}", filter, indexes);
        prop_assert_eq!(all_rows(&routed), all_rows(&plain));
        let (plain, routed) = (fresh(false), fresh(true));
        let set = [(2, Expr::lit("u"))];
        let want = plain.update_where("t", Some(&filter), &set).unwrap();
        let got = routed.update_where("t", Some(&filter), &set).unwrap();
        prop_assert_eq!(got, want, "update {:?} over indexes {:?}", filter, indexes);
        prop_assert_eq!(all_rows(&routed), all_rows(&plain));
    }
}
