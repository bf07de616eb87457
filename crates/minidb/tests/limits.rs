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
    // 4k x 4k cross product = 16M output rows; with a 10ms deadline the
    // nested-loop join must abort at a cancellation check long before
    // materializing it. The generous wall-clock bound keeps the test
    // robust on slow CI while still proving the loop is interruptible.
    let db = populated(4_000);
    let cross = Plan::NestedLoopJoin {
        left: Box::new(scan()),
        right: Box::new(scan()),
        pred: None,
        kind: JoinKind::Inner,
    };
    let start = Instant::now();
    let err = db.execute_with(&cross, Deadline::after(Duration::from_millis(10))).unwrap_err();
    let took = start.elapsed();
    assert!(matches!(err, DbError::DeadlineExceeded(_)), "{err}");
    assert!(took < Duration::from_secs(2), "cancellation took {took:?}");
}

#[test]
fn generous_deadline_does_not_change_results() {
    let db = populated(500);
    let join = Plan::HashJoin {
        left: Box::new(scan()),
        right: Box::new(scan()),
        left_keys: vec![0],
        right_keys: vec![0],
        kind: JoinKind::Inner,
    };
    let plain = db.execute(&join).unwrap();
    let deadline = Deadline::after(Duration::from_secs(60));
    let limited = db.execute_with(&join, deadline).unwrap();
    assert_eq!(plain.rows, limited.rows);
    assert_eq!(plain.columns, limited.columns);

    // The read-transaction variant agrees too.
    let rt = db.begin_read();
    assert_eq!(rt.execute_with(&join, deadline).unwrap().rows, plain.rows);
}
