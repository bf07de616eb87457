//! # mylead — umbrella crate for the hybrid XML-relational metadata catalog
//!
//! Re-exports the workspace crates behind one dependency:
//!
//! - [`catalog`] — the paper's contribution: partitioning, global
//!   ordering, hybrid shredding, the Fig-4 query engine, and set-based
//!   response building;
//! - [`xmlkit`] — the XML substrate (tokenizer, DOM, writer, schema);
//! - [`minidb`] — the embedded relational engine;
//! - [`baselines`] — the comparison backends (single-CLOB, DOM store,
//!   edge table, shared inlining, document-level ordering);
//! - [`workload`] — seeded LEAD-shaped corpus and query generators;
//! - [`service`] — the grid-service deployment surface (TCP server +
//!   client speaking a small line protocol);
//! - [`obs`] — the metrics/tracing registry everything reports into.
//!
//! ```
//! use mylead::catalog::prelude::*;
//! use mylead::catalog::lead;
//!
//! let cat = lead::lead_catalog(CatalogConfig::default()).unwrap();
//! let id = cat.ingest(lead::FIG3_DOCUMENT).unwrap();
//! assert_eq!(cat.query(&lead::fig4_query()).unwrap(), vec![id]);
//! ```

#![warn(missing_docs)]

pub use baselines;
pub use catalog;
pub use minidb;
pub use obs;
pub use service;
pub use workload;
pub use xmlkit;
