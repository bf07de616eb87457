//! # xmlkit — minimal XML substrate for the metadata catalog
//!
//! A self-contained XML stack: pull [`tokenizer`], arena [`dom`],
//! [`writer`] (compact + pretty serialization), and a catalog-oriented
//! [`schema`] model (cardinality, recursion points, leaf value types).
//!
//! The design goal is *shared ingest cost*: every storage backend in the
//! evaluation parses documents through the same tokenizer and DOM, so
//! measured differences come from the storage architecture, not the
//! parser.
//!
//! ```
//! use xmlkit::dom::Document;
//!
//! let doc = Document::parse("<theme><kt>CF</kt><key>rain</key></theme>").unwrap();
//! let theme = doc.root();
//! let kt = doc.child_named(theme, "kt").unwrap();
//! assert_eq!(doc.deep_text(kt), "CF");
//! let key = doc.child_named(theme, "key").unwrap();
//! assert_eq!(doc.deep_text(key), "rain");
//! ```

#![warn(missing_docs)]

pub mod dom;
pub mod error;
pub mod schema;
pub mod tokenizer;
pub mod writer;

pub use dom::{Document, Node, NodeId, NodeKind};
pub use error::{ErrorKind, Result, XmlError};
pub use schema::{
    Cardinality, ChildRef, Schema, SchemaBuilder, SchemaNode, SchemaNodeId, ValueType,
};
