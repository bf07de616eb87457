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

    /// ORDER BY is a permutation sorted by the requested key.
    #[test]
    fn sort_is_sorted_permutation(vals in proptest::collection::vec(-100i64..100, 1..50)) {
        let db = Database::new();
        db.create_table("t", TableSchema::new(vec![Column::new("x", DataType::Int)])).unwrap();
        for v in &vals {
            db.insert("t", vec![vec![Value::Int(*v)]]).unwrap();
        }
        let rs = db.execute_sql("SELECT x FROM t ORDER BY x").unwrap();
        let got: Vec<i64> = rs.rows.iter().filter_map(|r| r[0].as_i64()).collect();
        let mut want = vals.clone();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    /// Aggregates agree with direct computation.
    #[test]
    fn aggregates_agree(vals in proptest::collection::vec(-1000i64..1000, 1..50)) {
        let db = Database::new();
        db.create_table("t", TableSchema::new(vec![Column::new("x", DataType::Int)])).unwrap();
        for v in &vals {
            db.insert("t", vec![vec![Value::Int(*v)]]).unwrap();
        }
        let rs = db.execute_sql("SELECT COUNT(*), SUM(x), MIN(x), MAX(x) FROM t").unwrap();
        prop_assert_eq!(rs.rows[0][0].as_i64().unwrap(), vals.len() as i64);
        prop_assert_eq!(rs.rows[0][1].as_i64().unwrap(), vals.iter().sum::<i64>());
        prop_assert_eq!(rs.rows[0][2].as_i64().unwrap(), *vals.iter().min().unwrap());
        prop_assert_eq!(rs.rows[0][3].as_i64().unwrap(), *vals.iter().max().unwrap());
    }
}
