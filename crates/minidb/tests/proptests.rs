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

/// A filter `#col op lit` over a table of `width` Int columns: `=`,
/// `<` or `>=`, or no filter.
type Filter = Option<(usize, u8, i64)>;

fn filter() -> impl Strategy<Value = Filter> {
    proptest::option::of((0usize..3, 0u8..3, 0i64..4))
}

fn filter_expr(f: Filter, width: usize) -> Option<Expr> {
    f.map(|(c, op, v)| {
        let op = [CmpOp::Eq, CmpOp::Lt, CmpOp::Ge][op as usize];
        Expr::Cmp(op, Box::new(Expr::col(c % width)), Box::new(Expr::lit(v)))
    })
}

fn filter_keeps(f: Filter, width: usize, row: &[i64]) -> bool {
    f.is_none_or(|(c, op, v)| {
        let x = row[c % width];
        [x == v, x < v, x >= v][op as usize]
    })
}

/// A one- or two-column input of a semi-join or `Distinct`, over the
/// three-column table `w` and the two-column table `n`.
#[derive(Debug, Clone)]
enum Input {
    /// A `Project` of columns of a filtered `Scan` of `w`: read
    /// straight into keys.
    Cols(Filter, Vec<usize>),
    /// A bare filtered `Scan` of `n`, run as rows.
    Bare(Filter),
    /// Literal rows of the given width, run as rows.
    Values(usize, Vec<(i64, i64)>),
    /// A `Sort` over a `Cols` input, run as rows.
    Sorted(Filter, Vec<usize>, bool),
}

fn input() -> impl Strategy<Value = Input> {
    let cols = || proptest::collection::vec(0usize..3, 1..3);
    prop_oneof![
        (filter(), cols()).prop_map(|(f, c)| Input::Cols(f, c)),
        filter().prop_map(Input::Bare),
        (1usize..3, proptest::collection::vec((0i64..4, 0i64..4), 0..8))
            .prop_map(|(w, rows)| Input::Values(w, rows)),
        (filter(), cols(), any::<bool>()).prop_map(|(f, c, d)| Input::Sorted(f, c, d)),
    ]
}

/// One step applied on top of the plan built so far.
#[derive(Debug, Clone)]
enum Step {
    /// Semi- (or anti-) join against `build`, keyed on positions taken
    /// modulo each side's width.
    Semi { build: Input, probe_keys: Vec<usize>, build_keys: Vec<usize>, anti: bool },
    /// `Distinct`.
    Distinct,
    /// A `Project` of columns (positions modulo the width).
    Project(Vec<usize>),
}

fn step() -> impl Strategy<Value = Step> {
    let keys = proptest::collection::vec((0usize..3, 0usize..3), 1..3);
    prop_oneof![
        (input(), keys, any::<bool>()).prop_map(|(build, keys, anti)| Step::Semi {
            build,
            probe_keys: keys.iter().map(|k| k.0).collect(),
            build_keys: keys.iter().map(|k| k.1).collect(),
            anti,
        }),
        Just(Step::Distinct),
        proptest::collection::vec(0usize..3, 1..3).prop_map(Step::Project),
    ]
}

/// The plan built so far and the rows a nested-loop oracle says it
/// yields.
struct Built {
    plan: Plan,
    rows: Vec<Vec<i64>>,
    width: usize,
}

fn scan(table: &str, f: Filter, width: usize) -> Plan {
    Plan::Scan { table: table.into(), filter: filter_expr(f, width) }
}

fn pick(cols: &[usize], width: usize) -> Vec<usize> {
    cols.iter().map(|c| c % width).collect()
}

fn project(plan: Plan, cols: &[usize]) -> Plan {
    plan.project(cols.iter().map(|&c| (Expr::col(c), format!("c{c}"))).collect())
}

fn oracle_scan(table: &[Vec<i64>], f: Filter, width: usize) -> Vec<Vec<i64>> {
    table.iter().filter(|r| filter_keeps(f, width, r)).cloned().collect()
}

fn oracle_project(rows: &[Vec<i64>], cols: &[usize]) -> Vec<Vec<i64>> {
    rows.iter().map(|r| cols.iter().map(|&c| r[c]).collect()).collect()
}

fn build_input(i: &Input, w: &[Vec<i64>], n: &[Vec<i64>]) -> Built {
    match i {
        Input::Cols(f, cols) => {
            let cols = pick(cols, 3);
            let rows = oracle_project(&oracle_scan(w, *f, 3), &cols);
            Built { plan: project(scan("w", *f, 3), &cols), rows, width: cols.len() }
        }
        Input::Bare(f) => Built { plan: scan("n", *f, 2), rows: oracle_scan(n, *f, 2), width: 2 },
        Input::Values(width, pairs) => {
            let rows: Vec<Vec<i64>> =
                pairs.iter().map(|&(a, b)| [a, b][..*width].to_vec()).collect();
            let plan = Plan::Values {
                columns: (0..*width).map(|c| format!("v{c}")).collect(),
                rows: rows.iter().map(|r| r.iter().map(|&v| Value::Int(v)).collect()).collect(),
            };
            Built { plan, rows, width: *width }
        }
        Input::Sorted(f, cols, desc) => {
            let Built { plan, mut rows, width } = build_input(&Input::Cols(*f, cols.clone()), w, n);
            rows.sort_by(|a, b| if *desc { b[0].cmp(&a[0]) } else { a[0].cmp(&b[0]) });
            Built {
                plan: Plan::Sort { input: Box::new(plan), keys: vec![(0, *desc)] },
                rows,
                width,
            }
        }
    }
}

/// Nested-loop semi-join: keep each probe row that has (under `anti`,
/// that has no) build row with equal keys.
fn oracle_semi(
    probe: Vec<Vec<i64>>,
    build: &[Vec<i64>],
    pk: &[usize],
    bk: &[usize],
    anti: bool,
) -> Vec<Vec<i64>> {
    probe
        .into_iter()
        .filter(|p| build.iter().any(|b| pk.iter().zip(bk).all(|(&i, &j)| p[i] == b[j])) != anti)
        .collect()
}

fn oracle_distinct(rows: Vec<Vec<i64>>) -> Vec<Vec<i64>> {
    let mut out: Vec<Vec<i64>> = Vec::new();
    for r in rows {
        if !out.contains(&r) {
            out.push(r);
        }
    }
    out
}

fn apply_step(b: Built, s: &Step, w: &[Vec<i64>], n: &[Vec<i64>]) -> Built {
    match s {
        Step::Semi { build, probe_keys, build_keys, anti } => {
            let build = build_input(build, w, n);
            let pk = pick(probe_keys, b.width);
            let bk = pick(build_keys, build.width);
            let rows = oracle_semi(b.rows, &build.rows, &pk, &bk, *anti);
            let plan = Plan::HashSemiJoin {
                probe: Box::new(b.plan),
                build: Box::new(build.plan),
                probe_keys: pk,
                build_keys: bk,
                anti: *anti,
            };
            Built { plan, rows, width: b.width }
        }
        Step::Distinct => Built {
            plan: Plan::Distinct { input: Box::new(b.plan) },
            rows: oracle_distinct(b.rows),
            width: b.width,
        },
        Step::Project(cols) => {
            let cols = pick(cols, b.width);
            Built {
                rows: oracle_project(&b.rows, &cols),
                plan: project(b.plan, &cols),
                width: cols.len(),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Semi- and anti-joins on one or two key columns, with filtered
    /// scans, projections and `Distinct` between them, return what a
    /// nested-loop oracle returns. Every input shape is covered: a
    /// `Project` of scan columns (read straight into keys), a semi-join
    /// probing a three-column scan under a `Project` (one fused pass),
    /// and `Values`, a bare `Scan` and a `Sort` (run as rows, then
    /// keyed).
    #[test]
    fn semi_joins_agree_with_nested_loops(
        w in proptest::collection::vec((0i64..4, 0i64..4, 0i64..4), 0..16),
        n in proptest::collection::vec((0i64..4, 0i64..4), 0..16),
        start in input(),
        fused in proptest::option::of((filter(), step(), proptest::collection::vec(0usize..3, 1..3))),
        steps in proptest::collection::vec(step(), 0..4),
        distinct_on_top in any::<bool>(),
    ) {
        let w: Vec<Vec<i64>> = w.iter().map(|&(a, b, c)| vec![a, b, c]).collect();
        let n: Vec<Vec<i64>> = n.iter().map(|&(a, b)| vec![a, b]).collect();
        let db = Database::new();
        let ints = |names: &[&str]| {
            TableSchema::new(names.iter().map(|c| Column::new(*c, DataType::Int)).collect())
        };
        db.create_table("w", ints(&["a", "b", "c"])).unwrap();
        db.create_table("n", ints(&["a", "b"])).unwrap();
        db.create_index("w", "w_by_a", &["a"], false).unwrap();
        let as_rows = |t: &[Vec<i64>]| -> Vec<Row> {
            t.iter().map(|r| r.iter().map(|&v| Value::Int(v)).collect()).collect()
        };
        db.insert("w", as_rows(&w)).unwrap();
        db.insert("n", as_rows(&n)).unwrap();

        // The first input: a plain one, or a semi-join probing a bare
        // scan of `w` under a `Project` of its columns.
        let mut built = match &fused {
            Some((f, Step::Semi { build, probe_keys, build_keys, anti }, cols)) => {
                let probe = Built { plan: scan("w", *f, 3), rows: oracle_scan(&w, *f, 3), width: 3 };
                let semi = Step::Semi {
                    build: build.clone(),
                    probe_keys: probe_keys.clone(),
                    build_keys: build_keys.clone(),
                    anti: *anti,
                };
                apply_step(apply_step(probe, &semi, &w, &n), &Step::Project(cols.clone()), &w, &n)
            }
            _ => build_input(&start, &w, &n),
        };
        for s in &steps {
            built = apply_step(built, s, &w, &n);
        }
        if distinct_on_top {
            built = apply_step(built, &Step::Distinct, &w, &n);
        }
        let rs = db.execute(&built.plan).unwrap();
        prop_assert_eq!(rs.columns.len(), built.width);
        let mut got: Vec<Vec<i64>> =
            rs.rows.iter().map(|r| r.iter().map(|v| v.as_i64().unwrap()).collect()).collect();
        let mut want = built.rows;
        got.sort();
        want.sort();
        prop_assert_eq!(got, want, "plan {:?}", built.plan);
    }
}
