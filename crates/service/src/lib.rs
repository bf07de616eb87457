//! # mylead-service — the catalog as a grid service
//!
//! myLEAD runs as a grid service that scientists' tools talk to over
//! the network. This crate provides that deployment surface for the
//! hybrid catalog: a threaded TCP [`server`] speaking a small line
//! protocol, and a matching [`client`].
//!
//! ## Protocol
//!
//! Requests are a command line terminated by `\n`; bodies (XML) are
//! length-prefixed so documents never need escaping:
//!
//! ```text
//! INGEST <len>\n<len bytes of XML>      → OK <object-id>
//! ADD <object-id> <len>\n<bytes>        → OK
//! QUERY <query-dsl>                     → OK <n> <id> <id> ...
//! FETCH <id>[,<id>...]                  → OK <len>\n<len bytes of XML>
//! SEARCH <query-dsl>                    → OK <len>\n<results envelope>
//! STATS                                 → OK objects=<n> attrs=<n> ...
//! CHECKPOINT                            → OK lsn=<n>
//! PING                                  → OK pong
//! QUIT                                  → OK bye (connection closes)
//! DEADLINE <ms> <command ...>           → as the wrapped command
//! ```
//!
//! `DEADLINE <ms>` prefixes any command with a per-request deadline
//! overriding the server's configured default
//! ([`ServerConfig::default_deadline_ms`]); `<ms>` must be ≥ 1, else the
//! reply is `ERR bad deadline`. A read request that runs
//! past its deadline is cancelled cooperatively inside the catalog and
//! answered `ERR deadline exceeded ...`; mutations run to completion
//! (aborting a half-applied ingest would tear acknowledgement
//! semantics).
//!
//! Serve a catalog opened with [`catalog::catalog::MetadataCatalog::open`]
//! and every acked `INGEST`/`ADD` is crash-safe: it has committed
//! through the write-ahead log before the `OK` goes out. `CHECKPOINT`
//! compacts the log into a snapshot; restarting a server on the same
//! directory recovers the snapshot plus the committed WAL tail
//! (`wal.recovered_records` in `STATS` shows how many records
//! replayed).
//!
//! Errors come back as `ERR <message>`. The query DSL is
//! [`catalog::qparse`]'s language, e.g.
//! `grid@ARPS[dx=1000]{grid-stretching@ARPS[dzmin=100]}`.
//!
//! ## Service limits and load shedding
//!
//! Each connection gets its own thread, up to [`MAX_CONNECTIONS`];
//! one more is answered `ERR busy`. Catalog work is bounded per
//! request: `INGEST`/`ADD`/`QUERY`/`FETCH`/`SEARCH` run holding one of
//! [`ServerConfig::workers`] request permits (8 by default), taken
//! after the request's body is read and given back before its reply
//! is written, so idle keep-alives, trickled bodies and slow readers
//! cannot starve other clients. `PING`/`STATS`/`SLOWLOG`/`CHECKPOINT`/
//! `QUIT` need no permit. A request that waited too long for a permit
//! is answered `ERR busy queue-wait exceeded`, and a draining server
//! sheds with `ERR busy draining`.
//! Every shed reply starts with `busy`, which the client surfaces as
//! the typed, always-retryable [`ClientError::Busy`];
//! [`client::RetryClient`] implements jittered exponential backoff
//! over it. Request bodies are capped at 16 MiB.
//!
//! [`CatalogServer::stop`] is a graceful drain: stop accepting, finish
//! in-flight work (bounded by [`ServerConfig::drain_timeout_ms`]), end
//! the connection threads, then checkpoint a durable catalog so no
//! acked ingest is lost across restart.

#![warn(missing_docs)]

pub mod client;
pub mod server;

pub use client::{CatalogClient, ClientError, RetryClient, RetryPolicy};
pub use server::{CatalogServer, ServerConfig, MAX_CONNECTIONS};
