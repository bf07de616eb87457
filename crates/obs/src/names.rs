//! The instrument catalogue: every counter, gauge and histogram the
//! stack records, as one list of statics.
//!
//! Each instrument is a `pub static` named `layer.operation`, recorded
//! straight through its handle (`names::WAL_FSYNCS.incr()`,
//! `names::CATALOG_SHRED.span()`): no lookup, no allocation, and a
//! misspelt handle does not compile. [`ALL`] lists them in declaration
//! order; `STATS` reports exactly that list, zeros included
//! ([`crate::MetricsRegistry::snapshot_kv`]). DESIGN.md §8 documents
//! the same list as a table, and a test keeps the two equal.

use crate::metrics::{Counter, Gauge, Histogram};

/// One catalogue entry, as the snapshot walks it.
#[derive(Debug, Clone, Copy)]
pub enum Instrument {
    /// A monotonically increasing count.
    Counter(&'static Counter),
    /// An instantaneous level.
    Gauge(&'static Gauge),
    /// A latency histogram, reported as six keys.
    Histogram(&'static Histogram),
}

impl Instrument {
    /// The instrument's `layer.operation` name.
    pub fn name(&self) -> &'static str {
        match self {
            Instrument::Counter(c) => c.name(),
            Instrument::Gauge(g) => g.name(),
            Instrument::Histogram(h) => h.name(),
        }
    }

    /// `"counter"`, `"gauge"` or `"histogram"`.
    pub fn kind(&self) -> &'static str {
        match self {
            Instrument::Counter(_) => "counter",
            Instrument::Gauge(_) => "gauge",
            Instrument::Histogram(_) => "histogram",
        }
    }
}

/// Declare each instrument as a documented static, and [`ALL`] as the
/// list of them.
macro_rules! catalogue {
    ($($(#[$doc:meta])* $handle:ident: $kind:ident = $name:literal;)*) => {
        $(
            $(#[$doc])*
            pub static $handle: $kind = $kind::new($name);
        )*

        /// Every instrument in this module, in declaration order.
        pub static ALL: &[Instrument] = &[$(Instrument::$kind(&$handle)),*];
    };
}

catalogue! {
    // minidb: the visibility gate, semi-joins and commits.

    /// From asking for a shared gate hold (`Database::begin_read`) to getting it.
    MINIDB_GATE_READ_WAIT: Histogram = "minidb.gate.read_wait";
    /// From getting a shared gate hold to its `ReadTxn` dropping.
    MINIDB_GATE_READ_HOLD: Histogram = "minidb.gate.read_hold";
    /// From asking for the exclusive gate hold (`Database::txn`, after the WAL lock) to getting it.
    MINIDB_GATE_WRITE_WAIT: Histogram = "minidb.gate.write_wait";
    /// From getting the exclusive gate hold to its `Txn` dropping, commit included.
    MINIDB_GATE_WRITE_HOLD: Histogram = "minidb.gate.write_hold";
    /// Semi-joins executed.
    MINIDB_SEMIJOIN_COUNT: Counter = "minidb.semijoin.count";
    /// Semi-joins executed on integer keys; every semi-join is, so this equals `.count`.
    MINIDB_SEMIJOIN_KEYED: Counter = "minidb.semijoin.keyed";
    /// Transactions committed that changed something (`Txn::commit`).
    MINIDB_TXN_COMMITS: Counter = "minidb.txn.commits";

    // wal: the write-ahead log and checkpoints.

    /// WAL frames appended, commit frames included (`WalWriter::commit`).
    WAL_APPENDS: Counter = "wal.appends";
    /// WAL bytes appended (`WalWriter::commit`).
    WAL_BYTES: Counter = "wal.bytes";
    /// Each commit's one log append, the `write` call alone (`WalWriter::commit`).
    WAL_APPEND: Histogram = "wal.append";
    /// Each WAL fsync (`WalWriter::sync`).
    WAL_FSYNC: Histogram = "wal.fsync";
    /// WAL fsyncs (`WalWriter::sync`).
    WAL_FSYNCS: Counter = "wal.fsyncs";
    /// WAL writers stopped by a failed write of the log (`WalWriter::stop`); each refuses every later write until a reopen.
    WAL_WRITER_STOPS: Counter = "wal.writer_stops";
    /// WAL records replayed at open (`Database::open_with`).
    WAL_RECOVERED_RECORDS: Counter = "wal.recovered_records";
    /// Each `Database::checkpoint` call, writer-lock wait and skipped idle checkpoints included.
    WAL_CHECKPOINT: Histogram = "wal.checkpoint";
    /// A written checkpoint's snapshot encoding, gate wait included.
    WAL_CHECKPOINT_ENCODE: Histogram = "wal.checkpoint.encode";
    /// A written checkpoint's file creates, appends and renames.
    WAL_CHECKPOINT_WRITE: Histogram = "wal.checkpoint.write";
    /// A written checkpoint's fsyncs: the WAL tail, the snapshot and the fresh log.
    WAL_CHECKPOINT_SYNC: Histogram = "wal.checkpoint.sync";
    /// Checkpoints written; an idle checkpoint writes nothing and is not counted.
    WAL_CHECKPOINTS: Counter = "wal.checkpoints";

    // catalog: ingest, query and response stages.

    /// XML parse of an ingested document (`MetadataCatalog::shred_only`).
    CATALOG_PARSE: Histogram = "catalog.parse";
    /// Shredding a parsed document into rows (`MetadataCatalog::shred_only`).
    CATALOG_SHRED: Histogram = "catalog.shred";
    /// Inserting a shredded document's rows and CLOBs into an open transaction.
    CATALOG_APPLY: Histogram = "catalog.apply";
    /// A whole `MetadataCatalog::ingest`: parse, shred, apply and commit.
    CATALOG_INGEST: Histogram = "catalog.ingest";
    /// Documents ingested through `MetadataCatalog::ingest`.
    CATALOG_INGEST_DOCS: Counter = "catalog.ingest.docs";
    /// Attribute rows shredded and stored.
    CATALOG_SHRED_ATTR_ROWS: Counter = "catalog.shred.attr_rows";
    /// Element rows shredded and stored.
    CATALOG_SHRED_ELEM_ROWS: Counter = "catalog.shred.elem_rows";
    /// CLOB bytes stored.
    CATALOG_CLOB_BYTES_WRITTEN: Counter = "catalog.clob.bytes_written";
    /// Building a query's match plan from the definitions registry.
    CATALOG_QUERY_PLAN_BUILD: Histogram = "catalog.query.plan_build";
    /// Executing a match plan (`engine::execute_match_plan`).
    CATALOG_QUERY_MATCH: Histogram = "catalog.query.match";
    /// Match plans executed to completion.
    CATALOG_QUERY_COUNT: Counter = "catalog.query.count";
    /// Reconstructing documents for `FETCH` and `SEARCH`.
    CATALOG_RESPONSE_BUILD: Histogram = "catalog.response_build";
    /// Requests cancelled at their deadline (`RequestCtx::note_cancelled`).
    CATALOG_CANCELLED_DEADLINE: Counter = "catalog.cancelled.deadline";

    // service: requests, errors, permits, shedding and drain.

    /// A `PING` request, from parsed command line to reply buffered.
    SERVICE_REQUEST_PING: Histogram = "service.request.ping";
    /// A `QUIT` request.
    SERVICE_REQUEST_QUIT: Histogram = "service.request.quit";
    /// An `INGEST` request, body read and permit wait included.
    SERVICE_REQUEST_INGEST: Histogram = "service.request.ingest";
    /// An `ADD` request, body read and permit wait included.
    SERVICE_REQUEST_ADD: Histogram = "service.request.add";
    /// A `QUERY` request, permit wait included.
    SERVICE_REQUEST_QUERY: Histogram = "service.request.query";
    /// A `FETCH` request, permit wait and reply write included.
    SERVICE_REQUEST_FETCH: Histogram = "service.request.fetch";
    /// A `SEARCH` request, permit wait and reply write included.
    SERVICE_REQUEST_SEARCH: Histogram = "service.request.search";
    /// A `STATS` request.
    SERVICE_REQUEST_STATS: Histogram = "service.request.stats";
    /// A `SLOWLOG` request.
    SERVICE_REQUEST_SLOWLOG: Histogram = "service.request.slowlog";
    /// A `CHECKPOINT` request.
    SERVICE_REQUEST_CHECKPOINT: Histogram = "service.request.checkpoint";
    /// A request with an unknown command.
    SERVICE_REQUEST_UNKNOWN: Histogram = "service.request.unknown";
    /// Malformed requests: bad arguments, lengths, ids or deadlines.
    SERVICE_ERRORS_MALFORMED: Counter = "service.errors.malformed";
    /// Command lines or bodies over their size limit.
    SERVICE_ERRORS_OVERSIZED: Counter = "service.errors.oversized";
    /// Catalog calls answered with an error.
    SERVICE_ERRORS_CATALOG: Counter = "service.errors.catalog";
    /// Failed accepts, thread spawns and connection I/O.
    SERVICE_ERRORS_CONNECTION: Counter = "service.errors.connection";
    /// Unknown commands.
    SERVICE_ERRORS_UNKNOWN: Counter = "service.errors.unknown";
    /// Request body bytes read.
    SERVICE_BODY_BYTES_IN: Counter = "service.body_bytes_in";
    /// Sized reply body bytes written (`FETCH`, `SEARCH`, `SLOWLOG`).
    SERVICE_BODY_BYTES_OUT: Counter = "service.body_bytes_out";
    /// Open connections.
    SERVICE_CONNECTIONS: Gauge = "service.connections";
    /// Request permits per server (`WORKERS`).
    SERVICE_POOL_SIZE: Gauge = "service.pool.size";
    /// Request permits held.
    SERVICE_POOL_BUSY: Gauge = "service.pool.busy";
    /// Requests waiting for a permit.
    SERVICE_POOL_QUEUE_DEPTH: Gauge = "service.pool.queue_depth";
    /// How long a request that found every permit held waited, shed or not.
    SERVICE_POOL_QUEUE_WAIT: Histogram = "service.pool.queue_wait";
    /// Permits granted.
    SERVICE_POOL_DISPATCHED: Counter = "service.pool.dispatched";
    /// Connections refused at `MAX_CONNECTIONS`.
    SERVICE_POOL_REJECTED: Counter = "service.pool.rejected";
    /// Connection threads that panicked, contained.
    SERVICE_POOL_PANICS: Counter = "service.pool.panics";
    /// Heavy requests shed after waiting past the queue-wait limit.
    SERVICE_SHED_QUEUE_WAIT: Counter = "service.shed.queue_wait";
    /// Heavy requests and body reads shed because the server is draining.
    SERVICE_SHED_DRAINING: Counter = "service.shed.draining";
    /// 1 while a server drains, else 0.
    SERVICE_DRAINING: Gauge = "service.draining";
    /// Drains whose permits all came back in time.
    SERVICE_DRAIN_CLEAN: Counter = "service.drain.clean";
    /// Drains that gave up waiting for permits.
    SERVICE_DRAIN_FORCED: Counter = "service.drain.forced";
    /// Checkpoints that succeeded at the end of a drain.
    SERVICE_DRAIN_CHECKPOINTS: Counter = "service.drain.checkpoints";
}
