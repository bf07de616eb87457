//! # mylead-catalog — a hybrid XML-relational grid metadata catalog
//!
//! Reproduction of Jensen, Plale, Pallickara & Sun, *"A Hybrid
//! XML-Relational Grid Metadata Catalog"* (ICPP 2006): scientific
//! metadata exchanged as schema-conforming XML is stored **twice** —
//! per-attribute CLOBs for reconstructing schema-ordered responses, and
//! shredded attribute/element rows (plus inverted lists) for answering
//! *unordered queries over metadata attributes*.
//!
//! Pipeline (the paper's Fig 1):
//!
//! 1. [`partition`] — split the community schema into metadata
//!    attributes / sub-attributes / elements under the five rules;
//! 2. [`ordering`] — compute the schema-level global total ordering
//!    (no per-document order maintenance);
//! 3. [`shred`] — on ingest, store each attribute instance as a CLOB
//!    *and* as query rows, resolving dynamic attributes by (name,
//!    source) values with insert-time validation ([`defs`]);
//! 4. [`engine`] — answer [`query::ObjectQuery`] criteria with
//!    set-based plans over the inverted lists (Fig 4);
//! 5. [`response`] — rebuild schema-ordered documents from CLOBs +
//!    the global ordering, tagging entirely with set operations.
//!
//! ```
//! use catalog::prelude::*;
//!
//! let cat = catalog::lead::lead_catalog(CatalogConfig::default()).unwrap();
//! let id = cat.ingest(catalog::lead::FIG3_DOCUMENT).unwrap();
//! let hits = cat.query(&catalog::lead::fig4_query()).unwrap();
//! assert_eq!(hits, vec![id]);
//! ```

#![warn(missing_docs)]

pub mod catalog;
pub mod defs;
pub mod engine;
pub mod error;
pub mod lead;
pub mod ordering;
pub mod partition;
pub mod persist;
pub mod qparse;
pub mod query;
pub mod reqctx;
pub mod response;
pub mod shred;
pub mod store;

/// Common imports for catalog users.
pub mod prelude {
    pub use crate::catalog::{CatalogConfig, CatalogStats, MetadataCatalog};
    pub use crate::defs::{AttrId, DefLevel, DefsRegistry, DynamicAttrSpec, ElemId};
    pub use crate::engine::MatchStrategy;
    pub use crate::error::{CatalogError, Result};
    pub use crate::ordering::{GlobalOrdering, OrderId};
    pub use crate::partition::{NodeRole, Partition, PartitionSpec};
    pub use crate::qparse::parse_query;
    pub use crate::query::{AttrQuery, ElemCond, ObjectQuery, QOp, QValue};
    pub use crate::reqctx::RequestCtx;
    pub use crate::shred::{DynamicConvention, ShredOptions, Shredder};
}

pub use prelude::*;
