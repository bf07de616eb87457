//! Catalog error type.

use std::fmt;

/// Error raised by the metadata catalog.
#[derive(Debug, Clone, PartialEq)]
pub enum CatalogError {
    /// Underlying XML parsing/processing failure.
    Xml(xmlkit::XmlError),
    /// Underlying relational engine failure.
    Db(minidb::DbError),
    /// The schema partition violates one of the five partitioning rules.
    InvalidPartition(String),
    /// A document element has no counterpart in the schema.
    UnknownElement {
        /// Path of the offending element.
        path: String,
    },
    /// A metadata attribute/element definition problem (duplicate
    /// name+source, missing parent, ...).
    Definition(String),
    /// A query references an unknown attribute or element.
    BadQuery(String),
    /// Object id not present in the catalog.
    NoSuchObject(i64),
    /// The request ran past its deadline; checked cooperatively at
    /// executor and response-assembly loop boundaries, so the caller
    /// gets this instead of a partial result.
    DeadlineExceeded(String),
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogError::Xml(e) => write!(f, "XML error: {e}"),
            CatalogError::Db(e) => write!(f, "database error: {e}"),
            CatalogError::InvalidPartition(m) => write!(f, "invalid partition: {m}"),
            CatalogError::UnknownElement { path } => write!(f, "element not in schema: {path}"),
            CatalogError::Definition(m) => write!(f, "definition error: {m}"),
            CatalogError::BadQuery(m) => write!(f, "bad query: {m}"),
            CatalogError::NoSuchObject(id) => write!(f, "no such object: {id}"),
            // Keep the "deadline exceeded" prefix: the service maps it
            // onto `ERR deadline ...` wire replies by prefix.
            CatalogError::DeadlineExceeded(m) => write!(f, "deadline exceeded: {m}"),
        }
    }
}

impl std::error::Error for CatalogError {}

impl From<xmlkit::XmlError> for CatalogError {
    fn from(e: xmlkit::XmlError) -> Self {
        CatalogError::Xml(e)
    }
}

impl From<minidb::DbError> for CatalogError {
    fn from(e: minidb::DbError) -> Self {
        match e {
            // The deadline error keeps its type across the layer
            // boundary so callers can distinguish "cancelled" from
            // "broken".
            minidb::DbError::DeadlineExceeded(m) => CatalogError::DeadlineExceeded(m),
            other => CatalogError::Db(other),
        }
    }
}

/// Result alias for catalog operations.
pub type Result<T> = std::result::Result<T, CatalogError>;
