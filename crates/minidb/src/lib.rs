//! # minidb — embedded in-memory relational engine
//!
//! The relational substrate for the hybrid metadata catalog and its
//! baselines. It provides what the paper's architecture assumes of its
//! RDBMS:
//!
//! - typed heap tables with B-tree secondary indexes ([`table`])
//! - a scalar expression language with SQL NULL semantics ([`expr`])
//! - physical plans: scans, index lookups, hash/nested-loop joins,
//!   grouped aggregation, sort/distinct/limit ([`exec`])
//! - a CLOB heap addressed by locators so plans can join over CLOB
//!   references without touching the bytes ([`clob`])
//! - a SQL front end for ad-hoc use ([`sql`])
//!
//! All storage backends in the evaluation run on this same engine, so
//! measured differences reflect storage architecture (how XML is
//! shredded and queried), not engine implementation differences.
//!
//! ```
//! use minidb::prelude::*;
//!
//! let db = Database::new();
//! db.execute_sql("CREATE TABLE t (id INT, name TEXT)").unwrap();
//! db.execute_sql("INSERT INTO t VALUES (1, 'ada'), (2, 'bob')").unwrap();
//! let rs = db.execute_sql("SELECT name FROM t WHERE id = 2").unwrap();
//! assert_eq!(rs.rows[0][0], Value::Str("bob".into()));
//! ```

#![warn(missing_docs)]

pub mod clob;
pub mod db;
pub mod error;
pub mod exec;
pub mod explain;
pub mod expr;
pub mod keyset;
pub mod limits;
pub mod profile;
pub mod snapshot;
pub mod sql;
pub mod table;
pub mod value;
pub mod wal;

/// Common imports for engine users.
pub mod prelude {
    pub use crate::clob::{ClobId, ClobStore};
    pub use crate::db::{Database, ExecOpts, ReadTxn, Txn};
    pub use crate::error::{DbError, Result};
    pub use crate::exec::{AggCall, AggFunc, JoinKind, Plan, ResultSet};
    pub use crate::explain::{explain, explain_analyze};
    pub use crate::expr::{ArithOp, CmpOp, Expr};
    pub use crate::keyset::{Key, KeySet, KeyedRows};
    pub use crate::limits::{Budget, ExecLimits};
    pub use crate::profile::{NodeStats, PlanProfile};
    pub use crate::table::{Column, Row, RowId, Table, TableSchema};
    pub use crate::value::{DataType, Value};
    pub use crate::wal::{FaultyVfs, MemVfs, StdVfs, SyncPolicy, Vfs, WalOptions};
}

pub use prelude::*;
