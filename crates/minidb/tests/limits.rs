//! Deadline enforcement: the request deadline is checked cooperatively
//! inside the executor, so a runaway plan stops in bounded time with a
//! typed error instead of a partial result.

use minidb::prelude::*;
use std::time::{Duration, Instant};

fn populated(rows: i64) -> Database {
    let db = Database::new();
    db.create_table(
        "t",
        TableSchema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("name", DataType::Text),
        ]),
    )
    .unwrap();
    let mut txn = db.txn();
    let batch: Vec<Row> =
        (0..rows).map(|i| vec![Value::Int(i), Value::Str(format!("row-{i}"))]).collect();
    txn.insert("t", batch).unwrap();
    txn.commit().unwrap();
    db
}

fn scan() -> Plan {
    Plan::Scan { table: "t".into(), filter: None }
}

#[test]
fn expired_deadline_fails_before_scanning() {
    let db = populated(100);
    let err = db.execute_with(&scan(), Deadline::after(Duration::ZERO)).unwrap_err();
    assert!(matches!(err, DbError::DeadlineExceeded(_)), "{err}");
}

#[test]
fn cross_product_is_cancelled_in_bounded_time() {
    // Both sides project one constant key, so the hash join is a cross
    // product: each of the 1,000 probe rows matches all 1,000 build
    // rows, 1M output rows from only 1,000 probe iterations. With a
    // 10ms deadline the join must stop at a check inside its emit
    // loop, not after materializing the whole product. The wall-clock
    // bound leaves room for slow CI.
    let db = populated(1_000);
    let keyed = || scan().project(vec![(Expr::lit(0), "k".into()), (Expr::col(1), "name".into())]);
    let join = keyed().hash_join(keyed(), vec![0], vec![0]);
    let start = Instant::now();
    let err = db.execute_with(&join, Deadline::after(Duration::from_millis(10))).unwrap_err();
    let took = start.elapsed();
    assert!(matches!(err, DbError::DeadlineExceeded(_)), "{err}");
    assert!(took < Duration::from_millis(250), "cancellation took {took:?}");
}

#[test]
fn generous_deadline_does_not_change_results() {
    let db = populated(500);
    let join = scan().hash_join(scan(), vec![0], vec![0]);
    let plain = db.execute(&join).unwrap();
    let deadline = Deadline::after(Duration::from_secs(60));
    let limited = db.execute_with(&join, deadline).unwrap();
    assert_eq!(plain.rows, limited.rows);
    assert_eq!(plain.columns, limited.columns);

    // The read-transaction variant agrees too.
    let rt = db.begin_read();
    assert_eq!(rt.execute_with(&join, deadline).unwrap().rows, plain.rows);
}
