//! Engine error type.

use std::fmt;

/// Error raised by the storage engine, planner, or SQL layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// Named table does not exist.
    NoSuchTable(String),
    /// Named table already exists.
    TableExists(String),
    /// Named column does not exist in a table or projection.
    NoSuchColumn(String),
    /// Named index does not exist.
    NoSuchIndex(String),
    /// Row shape or value type does not match the table schema.
    SchemaMismatch(String),
    /// A uniqueness constraint was violated.
    Duplicate(String),
    /// SQL text failed to parse.
    Parse(String),
    /// A plan or expression was invalid (bad column index, bad agg, ...).
    Plan(String),
    /// CLOB locator does not resolve.
    NoSuchClob(u64),
    /// Durable storage I/O failure (VFS, WAL append, fsync).
    Io(String),
    /// A durable directory is already open (its lock is held by
    /// another live handle, in this process or another).
    Locked(String),
    /// Durable storage corruption: a snapshot or WAL record whose
    /// checksum or framing is provably wrong (not merely truncated).
    Corrupt(String),
    /// The execution ran past its deadline (see [`crate::limits`]);
    /// checked cooperatively, so no partial result escapes.
    DeadlineExceeded(String),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::NoSuchTable(t) => write!(f, "no such table: {t}"),
            DbError::TableExists(t) => write!(f, "table already exists: {t}"),
            DbError::NoSuchColumn(c) => write!(f, "no such column: {c}"),
            DbError::NoSuchIndex(i) => write!(f, "no such index: {i}"),
            DbError::SchemaMismatch(m) => write!(f, "schema mismatch: {m}"),
            DbError::Duplicate(m) => write!(f, "duplicate key: {m}"),
            DbError::Parse(m) => write!(f, "SQL parse error: {m}"),
            DbError::Plan(m) => write!(f, "plan error: {m}"),
            DbError::NoSuchClob(id) => write!(f, "no such CLOB: {id}"),
            DbError::Io(m) => write!(f, "storage io error: {m}"),
            DbError::Locked(d) => write!(f, "directory {d} is locked: it is already open"),
            DbError::Corrupt(m) => write!(f, "storage corruption: {m}"),
            DbError::DeadlineExceeded(m) => write!(f, "deadline exceeded: {m}"),
        }
    }
}

impl std::error::Error for DbError {}

/// Result alias for engine operations.
pub type Result<T> = std::result::Result<T, DbError>;
