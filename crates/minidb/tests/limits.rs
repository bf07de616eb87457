//! Execution-limit enforcement: deadlines and row/byte budgets are
//! checked cooperatively inside the executor, so a runaway plan stops
//! in bounded time with a typed error instead of a partial result, and
//! a shared [`Budget`] caps a whole multi-plan request, not each plan
//! independently.

use minidb::prelude::*;
use std::sync::Arc;
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
    let budget = Arc::new(Budget::new(
        ExecLimits::none().with_deadline(Instant::now() - Duration::from_millis(1)),
    ));
    let err = db.execute_with(&scan(), &ExecOpts::serial().with_budget(&budget)).unwrap_err();
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
    let budget = Arc::new(Budget::new(ExecLimits::deadline_in(Duration::from_millis(10))));
    let start = Instant::now();
    let err = db.execute_with(&cross, &ExecOpts::serial().with_budget(&budget)).unwrap_err();
    let took = start.elapsed();
    assert!(matches!(err, DbError::DeadlineExceeded(_)), "{err}");
    assert!(took < Duration::from_secs(2), "cancellation took {took:?}");
}

#[test]
fn row_budget_stops_a_large_scan() {
    let db = populated(10_000);
    let budget = Arc::new(Budget::new(ExecLimits::none().with_max_rows(100)));
    let err = db.execute_with(&scan(), &ExecOpts::serial().with_budget(&budget)).unwrap_err();
    assert!(matches!(err, DbError::BudgetExceeded(_)), "{err}");
}

#[test]
fn byte_budget_stops_a_large_scan() {
    let db = populated(10_000);
    let budget = Arc::new(Budget::new(ExecLimits::none().with_max_bytes(4096)));
    let err = db.execute_with(&scan(), &ExecOpts::serial().with_budget(&budget)).unwrap_err();
    assert!(matches!(err, DbError::BudgetExceeded(_)), "{err}");
}

#[test]
fn budget_is_shared_across_plans_of_one_request() {
    // 300 rows per scan, 500-row budget: the first scan fits, the
    // second crosses the cumulative cap even though it would fit alone.
    let db = populated(300);
    let budget = Arc::new(Budget::new(ExecLimits::none().with_max_rows(500)));
    db.execute_with(&scan(), &ExecOpts::serial().with_budget(&budget)).unwrap();
    let err = db.execute_with(&scan(), &ExecOpts::serial().with_budget(&budget)).unwrap_err();
    assert!(matches!(err, DbError::BudgetExceeded(_)), "{err}");
}

#[test]
fn parallel_subplans_share_the_budget() {
    // A hash join forks its inputs onto helper threads; both sides
    // charge the same tracker, so the row cap sees their sum.
    let db = populated(1_000);
    let join = Plan::HashJoin {
        left: Box::new(scan()),
        right: Box::new(scan()),
        left_keys: vec![0],
        right_keys: vec![0],
        kind: JoinKind::Inner,
    };
    let budget = Arc::new(Budget::new(ExecLimits::none().with_max_rows(1_500)));
    let err = db.execute_with(&join, &ExecOpts::parallel().with_budget(&budget)).unwrap_err();
    assert!(matches!(err, DbError::BudgetExceeded(_)), "{err}");

    // With headroom for both inputs plus the joined output, the same
    // plan completes and the budget reflects all materialized rows.
    let roomy = Arc::new(Budget::new(ExecLimits::none().with_max_rows(10_000)));
    let rs = db.execute_with(&join, &ExecOpts::parallel().with_budget(&roomy)).unwrap();
    assert_eq!(rs.rows.len(), 1_000);
    assert!(roomy.rows_used() >= 3_000, "rows_used = {}", roomy.rows_used());
}

#[test]
fn generous_limits_do_not_change_results() {
    let db = populated(500);
    let join = Plan::HashJoin {
        left: Box::new(scan()),
        right: Box::new(scan()),
        left_keys: vec![0],
        right_keys: vec![0],
        kind: JoinKind::Inner,
    };
    let plain = db.execute_with(&join, &ExecOpts::parallel()).unwrap();
    let budget = Arc::new(Budget::new(
        ExecLimits::deadline_in(Duration::from_secs(60))
            .with_max_rows(1_000_000)
            .with_max_bytes(1 << 30),
    ));
    let limited = db.execute_with(&join, &ExecOpts::parallel().with_budget(&budget)).unwrap();
    assert_eq!(plain.rows, limited.rows);
    assert_eq!(plain.columns, limited.columns);

    // Read-transaction variants agree too.
    let rt = db.begin_read();
    assert_eq!(
        rt.execute_with(&join, &ExecOpts::serial().with_budget(&budget)).unwrap().rows,
        plain.rows
    );
    assert_eq!(
        rt.execute_with(&join, &ExecOpts::parallel().with_budget(&budget)).unwrap().rows,
        plain.rows
    );
}
