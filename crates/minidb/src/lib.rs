//! # minidb — embedded in-memory relational engine
//!
//! The relational substrate for the hybrid metadata catalog and its
//! baselines. It provides what the paper's architecture assumes of its
//! RDBMS:
//!
//! - typed heap tables with B-tree secondary indexes ([`table`])
//! - a scalar expression language with SQL NULL semantics ([`expr`])
//! - physical plans: scans, projections, inner hash joins, hash semi-
//!   and anti-joins, sort/distinct/limit ([`exec`]); callers build them
//!   directly, there is no query language
//! - one semi-join and one `Distinct`, both over one- or two-column
//!   integer keys ([`keyset`]): the paper matches queries with set
//!   operations over `(object_id, seq)` instance keys, and any other
//!   input shape is an error, not a slower path
//! - one way to reach rows: a filtered scan, a delete and an update all
//!   walk the index their filter keys furthest, or every row when none
//!   does ([`access`]); no plan names an index
//! - a CLOB heap addressed by locators so plans can join over CLOB
//!   references without touching the bytes ([`clob`])
//! - one lock over all of it: the tables and the CLOB heap sit behind a
//!   single commit-visibility gate; a [`Txn`] writes under it
//!   exclusively, a [`ReadTxn`] (and every plan execution) reads under
//!   it shared ([`db`])
//! - a write-ahead log and snapshots for durable databases ([`wal`],
//!   [`snapshot`])
//!
//! All storage backends in the evaluation run on this same engine, so
//! measured differences reflect storage architecture (how XML is
//! shredded and queried), not engine implementation differences.
//!
//! ```
//! use minidb::prelude::*;
//!
//! let db = Database::new();
//! let schema =
//!     TableSchema::new(vec![Column::new("id", DataType::Int), Column::new("name", DataType::Text)]);
//! db.create_table("t", schema).unwrap();
//! db.insert("t", vec![vec![1.into(), "ada".into()], vec![2.into(), "bob".into()]]).unwrap();
//! let plan = Plan::Scan { table: "t".into(), filter: Some(Expr::col_eq(0, 2)) }
//!     .project(vec![(Expr::col(1), "name".into())]);
//! let rs = db.execute(&plan).unwrap();
//! assert_eq!(rs.rows, vec![vec![Value::Str("bob".into())]]);
//! ```

#![warn(missing_docs)]

pub mod access;
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
pub mod table;
pub mod value;
pub mod wal;

/// Common imports for engine users.
pub mod prelude {
    pub use crate::clob::{ClobId, ClobStore};
    pub use crate::db::{Database, ReadTxn, Txn};
    pub use crate::error::{DbError, Result};
    pub use crate::exec::{Plan, ResultSet};
    pub use crate::explain::explain_analyze;
    pub use crate::expr::{ArithOp, CmpOp, Expr};
    pub use crate::keyset::{Key, KeySet, KeyedRows};
    pub use crate::limits::Deadline;
    pub use crate::profile::{NodeStats, PlanProfile};
    pub use crate::table::{Column, Row, RowId, Table, TableSchema};
    pub use crate::value::{DataType, Value};
    pub use crate::wal::{FaultyVfs, MemVfs, StdVfs, SyncPolicy, Vfs, WalOptions};
}

pub use prelude::*;
