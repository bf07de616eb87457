//! Set-up and the closed-loop client connections.
//!
//! Set-up opens a durable catalog on a fresh directory, bulk-loads the
//! corpus in-process, checkpoints, starts a `CatalogServer` on loopback
//! and connects the clients. Each connection then sends its stream one
//! request at a time, waiting for every reply (no think time).

use crate::gen::{Req, Stream, PAGE};
use crate::trace::Tracer;
use catalog::catalog::{CatalogConfig, MetadataCatalog};
use minidb::{StdVfs, SyncPolicy, WalOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use service::{CatalogClient, CatalogServer};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::DocGenerator;

/// Client connections per workload.
pub const CONNECTIONS: usize = 2;
/// Length of the alternating untraced/traced slots of a traced run.
const TRACE_SLOT: Duration = Duration::from_millis(250);
/// At most this many replies per connection and round are kept for
/// the correctness check, each request being kept with chance
/// 1/[`SAMPLE_ONE_IN`].
const SAMPLE_CAP: usize = 12;
const SAMPLE_ONE_IN: u32 = 16;
/// Socket timeout of the benchmark's clients.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// Open (or recover) the catalog in `dir` with WAL group commit.
pub fn open_catalog(dir: &Path) -> Result<MetadataCatalog, String> {
    let vfs = StdVfs::new(dir).map_err(|e| format!("open {}: {e}", dir.display()))?;
    MetadataCatalog::open_with(
        Arc::new(vfs),
        WalOptions { sync: SyncPolicy::Batched(32) },
        catalog::lead::lead_partition(),
        CatalogConfig::default(),
    )
    .map_err(|e| format!("open catalog: {e}"))
}

/// A served catalog with its connected clients.
pub struct Served {
    pub catalog: Arc<MetadataCatalog>,
    pub server: CatalogServer,
    pub clients: Vec<CatalogClient>,
    /// Object id of each corpus document, in corpus order.
    pub ids: Vec<i64>,
    pub setup_s: f64,
}

/// Set up a fresh catalog in `dir` (which must not exist) and serve it.
/// The returned `setup_s` covers opening the directory through
/// connecting the clients.
pub fn setup(dir: &Path, gen: &DocGenerator, corpus: &[String]) -> Result<Served, String> {
    let t0 = Instant::now();
    let catalog = open_catalog(dir)?;
    gen.register_defs(&catalog).map_err(|e| format!("register definitions: {e}"))?;
    let ids = catalog.ingest_batch(corpus, 2).map_err(|e| format!("bulk load: {e}"))?;
    catalog.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
    let catalog = Arc::new(catalog);
    let server = CatalogServer::start(catalog.clone(), "127.0.0.1:0")
        .map_err(|e| format!("start server: {e}"))?;
    // A wedged server fails the request instead of hanging the run.
    let clients = (0..CONNECTIONS)
        .map(|_| {
            CatalogClient::connect_with_timeout(server.addr(), CLIENT_TIMEOUT)
                .map_err(|e| format!("connect: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let setup_s = t0.elapsed().as_secs_f64();
    Ok(Served { catalog, server, clients, ids, setup_s })
}

/// Request kinds, as timed on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Op {
    Query,
    Search,
    Fetch,
    Ingest,
    Checkpoint,
}

impl Op {
    pub const DATA: [Op; 4] = [Op::Query, Op::Search, Op::Fetch, Op::Ingest];

    pub fn name(self) -> &'static str {
        match self {
            Op::Query => "query",
            Op::Search => "search",
            Op::Fetch => "fetch",
            Op::Ingest => "ingest",
            Op::Checkpoint => "checkpoint",
        }
    }
}

/// One timed request. A failed request has latency `+inf`.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub op: Op,
    pub us: f64,
    /// Sent in a traced slot (traced runs only).
    pub traced: bool,
}

/// A reply kept for the correctness check.
pub enum Reply {
    Query { dsl: String, ids: Vec<i64> },
    Search { dsl: String, body: String },
    Fetch { ids: Vec<i64>, body: String },
}

/// What one connection did in one window.
#[derive(Default)]
pub struct ConnResult {
    pub samples: Vec<Sample>,
    /// Every request sent, in order (the traced run replays these).
    pub sent: Vec<Req>,
    pub replies: Vec<Reply>,
    /// `(ingest-set index, object id)` of every acknowledged ingest.
    pub acks: Vec<(usize, i64)>,
    pub failures: Vec<String>,
    /// Protocol bytes of the replies to data requests.
    pub reply_bytes: u64,
}

/// One connection's closed loop.
pub struct Conn<'a> {
    pub client: &'a mut CatalogClient,
    pub ingest_set: &'a [String],
    /// Endless streams stop at this instant.
    pub deadline: Instant,
    /// Endless streams also stop once this is set (the writer of
    /// `mixed` sets it when its set is acknowledged).
    pub stop: &'a AtomicBool,
    /// Traced runs: the connection's tracer.
    pub tracer: Option<&'a mut Tracer>,
    pub sample_seed: u64,
}

impl Conn<'_> {
    /// Send `stream` until it ends (fixed) or the window closes
    /// (endless).
    pub fn run(mut self, stream: Stream<'_>, window_start: Instant) -> ConnResult {
        let endless = matches!(stream, Stream::Endless { .. });
        let mut out = ConnResult::default();
        let mut rng = StdRng::seed_from_u64(self.sample_seed);
        for req in stream {
            if endless && (Instant::now() >= self.deadline || self.stop.load(Ordering::SeqCst)) {
                break;
            }
            let traced = self.tracer.is_some()
                && (window_start.elapsed().as_nanos() / TRACE_SLOT.as_nanos()) % 2 == 1;
            let keep = out.replies.len() < SAMPLE_CAP && rng.gen_range(0..SAMPLE_ONE_IN) == 0;
            self.send(&req, traced, keep, &mut out);
            out.sent.push(req);
        }
        out
    }

    /// Time one client call, inside a `client.<op>` span when traced.
    fn timed<T>(
        &mut self,
        op: Op,
        traced: bool,
        out: &mut ConnResult,
        f: impl FnOnce(&mut CatalogClient) -> service::client::Result<T>,
    ) -> Option<T> {
        let t0 = Instant::now();
        let res = match (traced, self.tracer.as_deref_mut()) {
            (true, Some(t)) => {
                let req = t.request_id();
                let name = match op {
                    Op::Query => "client.query",
                    Op::Search => "client.search",
                    Op::Fetch => "client.fetch",
                    Op::Ingest => "client.ingest",
                    Op::Checkpoint => "client.checkpoint",
                };
                let client = &mut *self.client;
                t.span(req, name, |_| f(client))
            }
            _ => f(self.client),
        };
        let us = t0.elapsed().as_secs_f64() * 1e6;
        match res {
            Ok(v) => {
                out.samples.push(Sample { op, us, traced });
                Some(v)
            }
            Err(e) => {
                out.samples.push(Sample { op, us: f64::INFINITY, traced });
                out.failures.push(format!("{}: {e}", op.name()));
                None
            }
        }
    }

    fn send(&mut self, req: &Req, traced: bool, keep: bool, out: &mut ConnResult) {
        match req {
            Req::Query { dsl, .. } => {
                if let Some(ids) = self.timed(Op::Query, traced, out, |c| c.query(dsl)) {
                    out.reply_bytes += query_reply_len(&ids);
                    if keep {
                        out.replies.push(Reply::Query { dsl: dsl.clone(), ids });
                    }
                }
            }
            Req::Search { dsl } => {
                if let Some(body) = self.timed(Op::Search, traced, out, |c| c.search(dsl)) {
                    out.reply_bytes += sized_reply_len(&body);
                    if keep {
                        out.replies.push(Reply::Search { dsl: dsl.clone(), body });
                    }
                }
            }
            Req::Page { dsl } => {
                let Some(ids) = self.timed(Op::Query, traced, out, |c| c.query(dsl)) else {
                    return;
                };
                out.reply_bytes += query_reply_len(&ids);
                let page: Vec<i64> = ids.into_iter().take(PAGE).collect();
                if page.is_empty() {
                    return;
                }
                if let Some(body) = self.timed(Op::Fetch, traced, out, |c| c.fetch(&page)) {
                    out.reply_bytes += sized_reply_len(&body);
                    if keep {
                        out.replies.push(Reply::Fetch { ids: page, body });
                    }
                }
            }
            Req::Ingest(i) => {
                let xml = &self.ingest_set[*i];
                if let Some(id) = self.timed(Op::Ingest, traced, out, |c| c.ingest(xml)) {
                    out.reply_bytes += format!("OK {id}\n").len() as u64;
                    out.acks.push((*i, id));
                }
            }
            Req::Checkpoint => {
                self.timed(Op::Checkpoint, traced, out, |c| c.checkpoint());
            }
        }
    }
}

/// Bytes of the `OK <n> <ids...>` line a QUERY reply takes.
pub fn query_reply_len(ids: &[i64]) -> u64 {
    let list: usize = ids.iter().map(|i| i.to_string().len() + 1).sum();
    (format!("OK {}", ids.len()).len() + list.max(1) + 1) as u64
}

/// Bytes of an `OK <len>` header plus its body.
pub fn sized_reply_len(body: &str) -> u64 {
    (format!("OK {}\n", body.len()).len() + body.len()) as u64
}

/// Value of `key` in a STATS reply.
pub fn stat(stats: &[(String, u64)], key: &str) -> Option<u64> {
    stats.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
}
