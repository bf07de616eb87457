//! Threaded TCP server exposing a [`MetadataCatalog`].
//!
//! Connections are served by a **bounded worker pool** (see
//! [`ServerConfig`]): the accept loop enqueues each accepted socket on
//! a fixed-depth queue and a fixed set of worker threads drain it.
//! Overload is handled in layers rather than with one blunt rejection:
//!
//! - **admission**: a full normal queue demotes the connection to a
//!   small *control lane* — a dedicated worker that serves only cheap
//!   operations (`PING`/`STATS`/`SLOWLOG`/`CHECKPOINT`/`QUIT`) and
//!   sheds heavy ones — so operators can still observe and checkpoint
//!   a saturated server; only when both queues are full is the
//!   connection rejected outright with `ERR busy`;
//! - **queue wait**: a connection that sat queued longer than
//!   [`ServerConfig::queue_wait_ms`] is shed (`ERR busy queue-wait
//!   exceeded`) instead of served — its client has likely timed out
//!   already, so serving it would waste a slot;
//! - **deadline**: every `QUERY`/`FETCH`/`SEARCH` runs under a
//!   deadline ([`ServerConfig::default_deadline_ms`], overridable
//!   per request with a `DEADLINE <ms>` command prefix) enforced
//!   cooperatively inside the catalog and executor, so an admitted
//!   request cannot hold its worker slot indefinitely;
//! - **drain**: [`CatalogServer::stop`] stops accepting, sheds new
//!   heavy work (`ERR busy draining`), closes idle keep-alives, waits
//!   up to [`ServerConfig::drain_timeout_ms`] for in-flight requests,
//!   then checkpoints a durable catalog — a SIGTERM-style graceful
//!   shutdown that loses no acked ingest.
//!
//! Every request is instrumented through [`obs::global`]: request
//! counters and latency histograms per operation
//! (`service.requests.<op>`, `service.request.<op>`), error counters
//! by kind (`service.errors.{malformed, oversized, catalog,
//! connection, unknown}`), body-byte accounting, an in-flight
//! connection gauge, pool health (`service.pool.size`,
//! `service.pool.busy`, `service.pool.queue_depth` gauges;
//! `service.pool.dispatched`, `service.pool.demoted`,
//! `service.pool.rejected`, `service.pool.panics` counters), shedding
//! (`service.shed.{queue_wait, priority, draining}`), and drain
//! outcomes (`service.draining` gauge; `service.drain.{clean, forced,
//! checkpoints}` counters). `STATS` returns the full registry
//! snapshot; `SLOWLOG` reads (and `SLOWLOG <ms>` configures) the
//! slow-query ring.

use catalog::catalog::MetadataCatalog;
use catalog::qparse::parse_query;
use catalog::reqctx::RequestCtx;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Upper bound on request bodies (16 MiB — grid metadata documents are
/// small; this guards against malformed length prefixes).
const MAX_BODY: usize = 16 << 20;

/// Worker-pool sizing and request-governance knobs for
/// [`CatalogServer::start_with`].
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Number of worker threads; each serves one connection at a time,
    /// so this bounds concurrent in-flight connections.
    pub workers: usize,
    /// Accepted connections waiting for a free worker. When the queue
    /// is full the connection is demoted to the control lane (or
    /// rejected with `ERR busy` if that is full too).
    pub queue_depth: usize,
    /// Depth of the control-lane queue, served by one dedicated extra
    /// worker that answers only cheap operations under overload.
    /// `0` disables the lane: a full normal queue rejects outright.
    pub control_queue_depth: usize,
    /// Default deadline applied to `QUERY`/`FETCH`/`SEARCH` requests
    /// (milliseconds); per-request `DEADLINE <ms>` overrides it.
    /// `0` disables the default (requests without an explicit
    /// `DEADLINE` run unbounded).
    pub default_deadline_ms: u64,
    /// Shed connections that waited queued longer than this
    /// (milliseconds) instead of serving them. `0` disables.
    pub queue_wait_ms: u64,
    /// How long [`CatalogServer::stop`] waits for in-flight requests
    /// before tearing the pool down anyway (milliseconds).
    pub drain_timeout_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 8,
            queue_depth: 32,
            control_queue_depth: 8,
            default_deadline_ms: 5_000,
            queue_wait_ms: 1_000,
            drain_timeout_ms: 5_000,
        }
    }
}

/// An accepted socket plus its admission time, for queue-wait shedding.
struct Queued {
    stream: TcpStream,
    at: Instant,
}

/// Accept queues shared between the listener and the workers: the
/// normal lane plus the control lane (see the module docs), the
/// coordination flags, and an in-flight count for drain.
struct Pool {
    queue: Mutex<VecDeque<Queued>>,
    ready: Condvar,
    control_queue: Mutex<VecDeque<Queued>>,
    control_ready: Condvar,
    stop: AtomicBool,
    /// Set by [`CatalogServer::stop`]: idle keep-alives close, heavy
    /// operations shed with `ERR busy draining`.
    draining: AtomicBool,
    /// Connections currently being served (either lane). Tracked here
    /// rather than through the process-global gauge so drain logic is
    /// immune to other servers sharing the metrics registry.
    busy: AtomicUsize,
}

impl Pool {
    /// Enqueue an accepted socket; a full queue hands the socket back
    /// so the caller can demote or reject the connection.
    fn push(&self, conn: Queued, depth: usize) -> std::result::Result<(), Queued> {
        let mut q = self.queue.lock().expect("pool queue poisoned");
        if q.len() >= depth {
            return Err(conn);
        }
        q.push_back(conn);
        obs::global().gauge("service.pool.queue_depth").set(q.len() as i64);
        drop(q);
        self.ready.notify_one();
        Ok(())
    }

    /// Enqueue on the control lane; depth 0 always refuses.
    fn push_control(&self, conn: Queued, depth: usize) -> std::result::Result<(), Queued> {
        if depth == 0 {
            return Err(conn);
        }
        let mut q = self.control_queue.lock().expect("control queue poisoned");
        if q.len() >= depth {
            return Err(conn);
        }
        q.push_back(conn);
        drop(q);
        self.control_ready.notify_one();
        Ok(())
    }

    /// Block until a connection is available or the pool is stopping.
    fn pop(&self) -> Option<Queued> {
        let mut q = self.queue.lock().expect("pool queue poisoned");
        loop {
            if let Some(conn) = q.pop_front() {
                obs::global().gauge("service.pool.queue_depth").set(q.len() as i64);
                return Some(conn);
            }
            if self.stop.load(Ordering::Relaxed) {
                return None;
            }
            q = self.ready.wait(q).expect("pool queue poisoned");
        }
    }

    /// Control-lane counterpart of [`Pool::pop`].
    fn pop_control(&self) -> Option<Queued> {
        let mut q = self.control_queue.lock().expect("control queue poisoned");
        loop {
            if let Some(conn) = q.pop_front() {
                return Some(conn);
            }
            if self.stop.load(Ordering::Relaxed) {
                return None;
            }
            q = self.control_ready.wait(q).expect("control queue poisoned");
        }
    }

    /// Queued connections in both lanes (drain progress check).
    fn queued(&self) -> usize {
        self.queue.lock().expect("pool queue poisoned").len()
            + self.control_queue.lock().expect("control queue poisoned").len()
    }
}

/// Which lane a worker serves: the control lane answers only cheap
/// operations and sheds heavy ones (see the module docs).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Lane {
    Normal,
    Control,
}

/// Decrements the in-flight connection gauge on drop, so the count
/// stays honest even when a request handler panics mid-connection.
struct ConnGuard;

impl ConnGuard {
    fn new() -> ConnGuard {
        obs::global().gauge("service.connections").add(1);
        ConnGuard
    }
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        obs::global().gauge("service.connections").add(-1);
    }
}

/// A running catalog server.
///
/// The listener thread accepts connections and hands them to a bounded
/// worker pool; all workers share the catalog (its internal locks make
/// that safe). Dropping the handle (or calling [`CatalogServer::stop`])
/// shuts the listener and the pool down.
pub struct CatalogServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    pool: Arc<Pool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    catalog: Arc<MetadataCatalog>,
    config: ServerConfig,
}

impl CatalogServer {
    /// Start serving `catalog` on `addr` with the default pool sizing
    /// (use port 0 for an ephemeral port; the bound address is
    /// available via [`Self::addr`]).
    pub fn start(catalog: Arc<MetadataCatalog>, addr: &str) -> std::io::Result<CatalogServer> {
        Self::start_with(catalog, addr, ServerConfig::default())
    }

    /// Start serving with explicit worker-pool sizing.
    pub fn start_with(
        catalog: Arc<MetadataCatalog>,
        addr: &str,
        config: ServerConfig,
    ) -> std::io::Result<CatalogServer> {
        let listener = TcpListener::bind(addr)?;
        let bound = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let pool = Arc::new(Pool {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            control_queue: Mutex::new(VecDeque::new()),
            control_ready: Condvar::new(),
            stop: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            busy: AtomicUsize::new(0),
        });
        let workers = config.workers.max(1);
        let reg = obs::global();
        reg.gauge("service.pool.size").set(workers as i64);
        reg.gauge("service.pool.queue_depth").set(0);

        let mut worker_threads = Vec::with_capacity(workers + 1);
        for _ in 0..workers {
            let pool = pool.clone();
            let catalog = catalog.clone();
            worker_threads.push(std::thread::spawn(move || {
                worker_loop(&pool, &catalog, Lane::Normal, config);
            }));
        }
        // The dedicated control-lane worker is *extra* capacity that
        // only exists so cheap operations keep working when every
        // normal worker is busy.
        if config.control_queue_depth > 0 {
            let pool = pool.clone();
            let catalog = catalog.clone();
            worker_threads.push(std::thread::spawn(move || {
                worker_loop(&pool, &catalog, Lane::Control, config);
            }));
        }

        let stop2 = stop.clone();
        let pool2 = pool.clone();
        let queue_depth = config.queue_depth.max(1);
        let control_depth = config.control_queue_depth;
        // Nonblocking accept loop so `stop` is honored promptly.
        listener.set_nonblocking(true)?;
        let accept_thread = std::thread::spawn(move || loop {
            if stop2.load(Ordering::Relaxed) {
                break;
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    let conn = Queued { stream, at: Instant::now() };
                    // Layered admission: normal lane, then control
                    // lane, then reject.
                    if let Err(conn) = pool2.push(conn, queue_depth) {
                        match pool2.push_control(conn, control_depth) {
                            Ok(()) => obs::global().counter("service.pool.demoted").incr(),
                            Err(rejected) => {
                                obs::global().counter("service.pool.rejected").incr();
                                let mut s = rejected.stream;
                                let _ = writeln!(s, "ERR busy");
                            }
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(_) => break,
            }
        });
        Ok(CatalogServer {
            addr: bound,
            stop,
            pool,
            accept_thread: Some(accept_thread),
            workers: worker_threads,
            catalog,
            config,
        })
    }

    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: stop accepting, enter the `draining` state
    /// (idle keep-alives close, new heavy operations shed with
    /// `ERR busy draining`), wait up to
    /// [`ServerConfig::drain_timeout_ms`] for in-flight requests and
    /// queued connections, then stop the pool and checkpoint a durable
    /// catalog. Idempotent.
    pub fn stop(&mut self) {
        if self.accept_thread.is_none() && self.workers.is_empty() {
            return;
        }
        let reg = obs::global();
        reg.gauge("service.draining").set(1);
        self.pool.draining.store(true, Ordering::SeqCst);
        // 1. Stop accepting: no new connections enter either queue.
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // 2. Drain: wait for in-flight requests to finish and queued
        // connections to be served (or shed) — bounded by the drain
        // timeout so a stuck connection cannot wedge shutdown.
        let deadline = Instant::now() + Duration::from_millis(self.config.drain_timeout_ms);
        loop {
            if self.pool.busy.load(Ordering::SeqCst) == 0 && self.pool.queued() == 0 {
                reg.counter("service.drain.clean").incr();
                break;
            }
            if Instant::now() >= deadline {
                reg.counter("service.drain.forced").incr();
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        // 3. Tear the pool down and join the workers.
        self.pool.stop.store(true, Ordering::Relaxed);
        self.pool.ready.notify_all();
        self.pool.control_ready.notify_all();
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
        // 4. Anything still queued (forced drain) gets an honest
        // shed reply instead of a silent close.
        let leftovers: Vec<Queued> = {
            let mut q = self.pool.queue.lock().expect("pool queue poisoned");
            let mut c = self.pool.control_queue.lock().expect("control queue poisoned");
            q.drain(..).chain(c.drain(..)).collect()
        };
        for conn in leftovers {
            let mut s = conn.stream;
            let _ = writeln!(s, "ERR busy draining");
        }
        // 5. Durable catalogs checkpoint on the way out, so restart
        // recovery replays a short WAL and loses nothing acked.
        if self.catalog.is_durable() && self.catalog.checkpoint().is_ok() {
            reg.counter("service.drain.checkpoints").incr();
        }
        reg.gauge("service.draining").set(0);
    }
}

/// One worker: pop connections from its lane, shed stale ones, serve
/// the rest with panic containment and in-flight accounting.
fn worker_loop(pool: &Pool, catalog: &MetadataCatalog, lane: Lane, config: ServerConfig) {
    loop {
        let conn = match lane {
            Lane::Normal => pool.pop(),
            Lane::Control => pool.pop_control(),
        };
        let Some(conn) = conn else { break };
        let reg = obs::global();
        // Queue-wait shedding: a connection that waited past the bound
        // is answered `ERR busy` immediately — the client has likely
        // given up, and a quick shed frees the slot for fresh work.
        if config.queue_wait_ms > 0
            && conn.at.elapsed() > Duration::from_millis(config.queue_wait_ms)
        {
            reg.counter("service.shed.queue_wait").incr();
            let mut s = conn.stream;
            let _ = writeln!(s, "ERR busy queue-wait exceeded");
            continue;
        }
        reg.counter("service.pool.dispatched").incr();
        reg.gauge("service.pool.busy").add(1);
        pool.busy.fetch_add(1, Ordering::SeqCst);
        let guard = ConnGuard::new();
        let _ = conn.stream.set_nodelay(true);
        // The connection gauge is released by `guard` and the panic is
        // contained, so one poisoned request can neither leak the
        // gauge nor kill the worker.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            serve_connection(conn.stream, catalog, pool, lane, config.default_deadline_ms)
        }));
        drop(guard);
        match outcome {
            // Connection-level I/O failures (torn reads, resets,
            // non-UTF-8 lines) are accounted, not silently dropped.
            Ok(Err(_)) => reg.counter("service.errors.connection").incr(),
            Ok(Ok(())) => {}
            Err(_) => reg.counter("service.pool.panics").incr(),
        }
        pool.busy.fetch_sub(1, Ordering::SeqCst);
        reg.gauge("service.pool.busy").add(-1);
    }
}

impl Drop for CatalogServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Static metric names per operation, so spans and counters never
/// allocate on the hot path.
fn op_metric_names(cmd: &str) -> (&'static str, &'static str) {
    match cmd {
        "PING" => ("service.requests.ping", "service.request.ping"),
        "QUIT" => ("service.requests.quit", "service.request.quit"),
        "INGEST" => ("service.requests.ingest", "service.request.ingest"),
        "ADD" => ("service.requests.add", "service.request.add"),
        "QUERY" => ("service.requests.query", "service.request.query"),
        "FETCH" => ("service.requests.fetch", "service.request.fetch"),
        "SEARCH" => ("service.requests.search", "service.request.search"),
        "STATS" => ("service.requests.stats", "service.request.stats"),
        "SLOWLOG" => ("service.requests.slowlog", "service.request.slowlog"),
        "CHECKPOINT" => ("service.requests.checkpoint", "service.request.checkpoint"),
        _ => ("service.requests.unknown", "service.request.unknown"),
    }
}

fn serve_connection(
    stream: TcpStream,
    catalog: &MetadataCatalog,
    pool: &Pool,
    lane: Lane,
    default_deadline_ms: u64,
) -> std::io::Result<()> {
    let reg = obs::global();
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut line = String::new();
    loop {
        line.clear();
        // Idle reads poll with a short timeout so a shutting-down pool
        // can reclaim workers parked on idle keep-alive connections.
        // Partial lines accumulate in `line` across retries; once a
        // full command line is in, the body read runs untimed.
        writer.set_read_timeout(Some(std::time::Duration::from_millis(200)))?;
        loop {
            match reader.read_line(&mut line) {
                Ok(0) if line.is_empty() => return Ok(()), // client hung up
                Ok(_) => break,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    if pool.stop.load(Ordering::Relaxed) {
                        return Ok(());
                    }
                    // Draining: release the worker instead of parking
                    // on an idle keep-alive (only between commands —
                    // a partially read line still completes).
                    if pool.draining.load(Ordering::Relaxed) && line.is_empty() {
                        return Ok(());
                    }
                }
                Err(e) => return Err(e),
            }
        }
        writer.set_read_timeout(None)?;
        let trimmed = line.trim_end();
        let (mut cmd_raw, mut rest) = match trimmed.split_once(' ') {
            Some((c, r)) => (c, r),
            None => (trimmed, ""),
        };
        // `DEADLINE <ms> <command ...>` prefixes any command with a
        // per-request deadline override.
        let mut explicit_deadline_ms: Option<u64> = None;
        if cmd_raw.eq_ignore_ascii_case("DEADLINE") {
            let (ms_str, rem) = match rest.split_once(' ') {
                Some(p) => p,
                None => (rest, ""),
            };
            match ms_str.parse::<u64>() {
                Ok(ms) => explicit_deadline_ms = Some(ms),
                Err(_) => {
                    reg.counter("service.errors.malformed").incr();
                    writeln!(writer, "ERR bad deadline {ms_str:?}")?;
                    writer.flush()?;
                    continue;
                }
            }
            (cmd_raw, rest) = match rem.split_once(' ') {
                Some((c, r)) => (c, r),
                None => (rem, ""),
            };
        }
        let cmd = cmd_raw.to_ascii_uppercase();
        let (requests_counter, latency_span) = op_metric_names(&cmd);
        reg.counter(requests_counter).incr();
        let mut span = reg.span(latency_span);
        if matches!(cmd.as_str(), "QUERY" | "SEARCH") && !rest.is_empty() {
            span.set_detail(rest);
        }
        // Heavy operations are shed on the control lane (it exists so
        // cheap operations survive saturation) and while draining. The
        // length-prefixed body, if any, is consumed first so the
        // connection stays framed for its next command.
        let heavy = matches!(cmd.as_str(), "INGEST" | "ADD" | "QUERY" | "FETCH" | "SEARCH");
        let draining = pool.draining.load(Ordering::Relaxed);
        if heavy && (lane == Lane::Control || draining) {
            match cmd.as_str() {
                "INGEST" => {
                    let _ = read_body(&mut reader, rest);
                }
                "ADD" => {
                    if let Some((_, len_str)) = rest.split_once(' ') {
                        let _ = read_body(&mut reader, len_str);
                    }
                }
                _ => {}
            }
            if draining {
                reg.counter("service.shed.draining").incr();
                writeln!(writer, "ERR busy draining")?;
            } else {
                reg.counter("service.shed.priority").incr();
                writeln!(writer, "ERR busy control lane (pool saturated)")?;
            }
            writer.flush()?;
            continue;
        }
        // Server-side deadline for read requests: explicit override,
        // else the configured default; 0 means unbounded. Mutations
        // (`INGEST`/`ADD`) deliberately run to completion — aborting a
        // half-applied ingest would trade a latency bound for torn
        // acknowledgements.
        let req_ctx = |detail: &str| -> RequestCtx {
            let ms = explicit_deadline_ms
                .or_else(|| (default_deadline_ms > 0).then_some(default_deadline_ms));
            let ctx = match ms {
                Some(ms) if ms > 0 => RequestCtx::deadline_in(Duration::from_millis(ms)),
                _ => RequestCtx::unbounded(),
            };
            if detail.is_empty() {
                ctx
            } else {
                ctx.describe(detail)
            }
        };
        match cmd.as_str() {
            "PING" => writeln!(writer, "OK pong")?,
            "QUIT" => {
                writeln!(writer, "OK bye")?;
                return Ok(());
            }
            "INGEST" => {
                let body = match read_body(&mut reader, rest) {
                    Ok(b) => b,
                    Err(e) => {
                        reg.counter(e.counter()).incr();
                        writeln!(writer, "ERR {}", e.message())?;
                        continue;
                    }
                };
                match catalog.ingest(&body) {
                    Ok(id) => writeln!(writer, "OK {id}")?,
                    Err(e) => err_reply(&mut writer, &e.to_string())?,
                }
            }
            "ADD" => {
                let (id_str, len_str) = match rest.split_once(' ') {
                    Some(p) => p,
                    None => {
                        reg.counter("service.errors.malformed").incr();
                        writeln!(writer, "ERR ADD needs <object-id> <len>")?;
                        continue;
                    }
                };
                let Ok(id) = id_str.parse::<i64>() else {
                    reg.counter("service.errors.malformed").incr();
                    writeln!(writer, "ERR bad object id")?;
                    continue;
                };
                let body = match read_body(&mut reader, len_str) {
                    Ok(b) => b,
                    Err(e) => {
                        reg.counter(e.counter()).incr();
                        writeln!(writer, "ERR {}", e.message())?;
                        continue;
                    }
                };
                match catalog.add_attribute(id, &body) {
                    Ok(()) => writeln!(writer, "OK")?,
                    Err(e) => err_reply(&mut writer, &e.to_string())?,
                }
            }
            "QUERY" => {
                match parse_query(rest).and_then(|q| catalog.query_ctx(&q, &req_ctx(rest))) {
                    Ok(ids) => {
                        let list: Vec<String> = ids.iter().map(|i| i.to_string()).collect();
                        writeln!(writer, "OK {} {}", ids.len(), list.join(" "))?;
                    }
                    Err(e) => err_reply(&mut writer, &e.to_string())?,
                }
            }
            "FETCH" => {
                let ids: std::result::Result<Vec<i64>, _> = rest
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| s.trim().parse::<i64>())
                    .collect();
                match ids {
                    Err(_) => {
                        reg.counter("service.errors.malformed").incr();
                        writeln!(writer, "ERR bad id list")?;
                    }
                    Ok(ids) => envelope_reply(
                        &mut writer,
                        catalog.fetch_envelope_ctx(&ids, &req_ctx(rest)),
                    )?,
                }
            }
            "SEARCH" => envelope_reply(
                &mut writer,
                parse_query(rest).and_then(|q| catalog.search_envelope_ctx(&q, &req_ctx(rest))),
            )?,
            "STATS" => {
                let s = catalog.stats();
                let mut out = format!(
                    "OK objects={} attrs={} elems={} clobs={} clob_bytes={} defs={}",
                    s.objects,
                    s.attr_rows,
                    s.elem_rows,
                    s.clob_count,
                    s.clob_bytes,
                    s.attr_defs + s.elem_defs
                );
                out.push_str(&format!(" catalog.plan_cache.size={}", catalog.plan_cache_len()));
                // Full observability snapshot rides on the same line so
                // existing `k=v` parsers pick it up unchanged.
                for (name, value) in reg.snapshot_kv() {
                    out.push_str(&format!(" {name}={value}"));
                }
                writeln!(writer, "{out}")?;
            }
            "CHECKPOINT" => match catalog.checkpoint() {
                Ok(lsn) => writeln!(writer, "OK lsn={lsn}")?,
                Err(e) => err_reply(&mut writer, &e.to_string())?,
            },
            "SLOWLOG" => {
                if rest.is_empty() {
                    let mut out = String::new();
                    for ev in reg.slow_events() {
                        out.push_str(&format!(
                            "seq={} name={} time_us={} detail={}\n",
                            ev.seq,
                            ev.name,
                            ev.nanos / 1_000,
                            one_line(ev.detail.as_deref().unwrap_or("-")),
                        ));
                    }
                    writeln!(writer, "OK {}", out.len())?;
                    writer.write_all(out.as_bytes())?;
                } else {
                    match rest.trim().parse::<u64>() {
                        Ok(ms) => {
                            reg.set_slow_threshold(std::time::Duration::from_millis(ms));
                            writeln!(writer, "OK threshold_ms={ms}")?;
                        }
                        Err(_) => {
                            reg.counter("service.errors.malformed").incr();
                            writeln!(writer, "ERR bad threshold {rest:?}")?;
                        }
                    }
                }
            }
            other => {
                reg.counter("service.errors.unknown").incr();
                writeln!(writer, "ERR unknown command {other}")?;
            }
        }
        writer.flush()?;
    }
}

/// Reply `ERR <one-line message>` for a failed catalog operation and
/// count it.
fn err_reply(writer: &mut TcpStream, msg: &str) -> std::io::Result<()> {
    obs::global().counter("service.errors.catalog").incr();
    writeln!(writer, "ERR {}", one_line(msg))
}

/// Reply to `FETCH` / `SEARCH`: `OK <len>` then the `<results>` envelope
/// bytes, or the catalog error.
fn envelope_reply(writer: &mut TcpStream, env: catalog::Result<String>) -> std::io::Result<()> {
    match env {
        Ok(env) => {
            obs::global().counter("service.body_bytes_out").add(env.len() as u64);
            writeln!(writer, "OK {}", env.len())?;
            writer.write_all(env.as_bytes())
        }
        Err(e) => err_reply(writer, &e.to_string()),
    }
}

/// Why a length-prefixed body could not be read.
enum BodyError {
    /// Bad length, torn body, or non-UTF-8 bytes.
    Malformed(String),
    /// Length prefix above [`MAX_BODY`].
    Oversized(String),
}

impl BodyError {
    fn counter(&self) -> &'static str {
        match self {
            BodyError::Malformed(_) => "service.errors.malformed",
            BodyError::Oversized(_) => "service.errors.oversized",
        }
    }

    fn message(&self) -> &str {
        match self {
            BodyError::Malformed(m) | BodyError::Oversized(m) => m,
        }
    }
}

/// Read a length-prefixed body where `len_str` is the decimal length.
fn read_body(
    reader: &mut BufReader<TcpStream>,
    len_str: &str,
) -> std::result::Result<String, BodyError> {
    let len: usize = len_str
        .trim()
        .parse()
        .map_err(|_| BodyError::Malformed(format!("bad length {len_str:?}")))?;
    if len > MAX_BODY {
        return Err(BodyError::Oversized(format!(
            "body of {len} bytes exceeds the {MAX_BODY}-byte limit"
        )));
    }
    let mut buf = vec![0u8; len];
    reader
        .read_exact(&mut buf)
        .map_err(|e| BodyError::Malformed(format!("short body: {e}")))?;
    obs::global().counter("service.body_bytes_in").add(len as u64);
    String::from_utf8(buf).map_err(|_| BodyError::Malformed("body is not UTF-8".to_string()))
}

fn one_line(s: &str) -> String {
    s.replace('\n', " ")
}

#[cfg(test)]
mod tests {
    use super::ConnGuard;

    /// The in-flight connection gauge must not leak when a request
    /// handler panics: the drop guard decrements it during unwinding.
    #[test]
    fn connection_gauge_survives_panics() {
        let gauge = obs::global().gauge("service.connections");
        let before = gauge.get();
        let outcome = std::panic::catch_unwind(|| {
            let _guard = ConnGuard::new();
            panic!("worker dies mid-request");
        });
        assert!(outcome.is_err());
        assert_eq!(gauge.get(), before, "panic leaked the connection gauge");
    }
}
