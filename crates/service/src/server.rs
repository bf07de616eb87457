//! Threaded TCP server exposing a [`MetadataCatalog`].
//!
//! Each accepted connection gets its own thread, up to
//! [`MAX_CONNECTIONS`]; one more is answered `ERR busy` and closed. A
//! connection costs a thread parked on a read, not catalog work: the
//! catalog's concurrency is bounded per *request*. A heavy request
//! (`INGEST`/`ADD`/`QUERY`/`FETCH`/`SEARCH`) reads its body first, then
//! runs its catalog call holding one of [`ServerConfig::workers`]
//! request permits, and gives the permit back before it writes the
//! reply. So an idle keep-alive, a trickled body or a slow reader ties
//! up only its own thread. Cheap commands (`PING`/`STATS`/`SLOWLOG`/
//! `CHECKPOINT`/`QUIT`) need no permit, so they answer even when every
//! permit is held. Overload sheds with typed replies, never a hang:
//!
//! - **queue wait**: a heavy request that waited longer than
//!   [`ServerConfig::queue_wait_ms`] for a permit is answered `ERR busy
//!   queue-wait exceeded` — its client has likely timed out already;
//! - **deadline**: every `QUERY`/`FETCH`/`SEARCH` runs under a
//!   deadline ([`ServerConfig::default_deadline_ms`], overridable
//!   per request with a `DEADLINE <ms>` command prefix) enforced
//!   cooperatively inside the catalog and executor, so an admitted
//!   request cannot hold its permit indefinitely;
//! - **drain**: [`CatalogServer::stop`] stops accepting, sheds new
//!   heavy work (`ERR busy draining`), closes idle keep-alives, waits
//!   up to [`ServerConfig::drain_timeout_ms`] for held permits to come
//!   back, ends the connection threads, then checkpoints a durable
//!   catalog — a SIGTERM-style graceful shutdown that loses no acked
//!   ingest.
//!
//! Reads wake every 200 ms, so a stopping server can end threads
//! parked on idle or trickling clients.
//!
//! Every request is instrumented through [`obs::global`]: request
//! counters and latency histograms per operation
//! (`service.requests.<op>`, `service.request.<op>`), error counters
//! by kind (`service.errors.{malformed, oversized, catalog,
//! connection, unknown}`), body-byte accounting, an open-connection
//! gauge (`service.connections`), permit health (`service.pool.size`
//! permits, `service.pool.busy` permits held, `service.pool.queue_depth`
//! requests waiting for a permit; `service.pool.dispatched` permits
//! granted, `service.pool.rejected` connections refused at the cap,
//! `service.pool.panics`), shedding (`service.shed.{queue_wait,
//! draining}`), and drain outcomes (`service.draining` gauge;
//! `service.drain.{clean, forced, checkpoints}` counters). `STATS`
//! returns the full registry snapshot; `SLOWLOG` reads (and `SLOWLOG
//! <ms>` configures) the slow-query ring.

use catalog::catalog::MetadataCatalog;
use catalog::qparse::parse_query;
use catalog::reqctx::RequestCtx;
use obs::{Counter, Gauge};
use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Upper bound on request bodies (16 MiB — grid metadata documents are
/// small; this guards against malformed length prefixes).
const MAX_BODY: usize = 16 << 20;

/// Most connections served at once. Each owns one thread; one more is
/// answered `ERR busy` and closed.
pub const MAX_CONNECTIONS: usize = 256;

/// How often a blocked socket read wakes to check for shutdown.
const READ_POLL: Duration = Duration::from_millis(200);

/// Request-permit and governance knobs for
/// [`CatalogServer::start_with`].
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Request permits: how many heavy requests (`INGEST`/`ADD`/
    /// `QUERY`/`FETCH`/`SEARCH`) run their catalog call at once.
    pub workers: usize,
    /// Default deadline applied to `QUERY`/`FETCH`/`SEARCH` requests
    /// (milliseconds); per-request `DEADLINE <ms>` overrides it.
    /// `0` disables the default (requests without an explicit
    /// `DEADLINE` run unbounded).
    pub default_deadline_ms: u64,
    /// Shed a heavy request that waited longer than this
    /// (milliseconds) for a permit. `0` disables: the request waits
    /// until a permit frees or the server drains.
    pub queue_wait_ms: u64,
    /// How long [`CatalogServer::stop`] waits for held permits to come
    /// back before forcing shutdown (milliseconds).
    pub drain_timeout_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 8,
            default_deadline_ms: 5_000,
            queue_wait_ms: 1_000,
            drain_timeout_ms: 5_000,
        }
    }
}

/// State shared by the accept thread, the connection threads and
/// [`CatalogServer::stop`].
struct Shared {
    catalog: Arc<MetadataCatalog>,
    config: ServerConfig,
    /// Set by [`CatalogServer::stop`]: accepting ends, idle keep-alives
    /// close, heavy requests shed with `ERR busy draining`.
    draining: AtomicBool,
    /// Set once the drain is over: every connection thread ends at its
    /// next read poll.
    stopped: AtomicBool,
    /// Open connections, counted per server (not through the
    /// process-global gauge) so the cap holds per server.
    connections: AtomicUsize,
    /// Number of request permits.
    permits: usize,
    /// Permits held; `freed` signals a return or the start of a drain.
    held: Mutex<usize>,
    freed: Condvar,
    busy: Arc<Gauge>,
    waiting: Arc<Gauge>,
    granted: Arc<Counter>,
}

impl Shared {
    /// Run `f` holding a request permit, given back as soon as `f`
    /// returns. Sheds without running `f`, returning the reply text,
    /// when the server is draining or the wait for a permit passes
    /// [`ServerConfig::queue_wait_ms`].
    fn with_permit<T>(&self, f: impl FnOnce() -> T) -> Result<T, &'static str> {
        let draining = || self.draining.load(Ordering::SeqCst);
        let mut held = self.held.lock().expect("permits poisoned");
        if *held >= self.permits && !draining() {
            let limit = match self.config.queue_wait_ms {
                0 => Duration::MAX,
                ms => Duration::from_millis(ms),
            };
            self.waiting.add(1);
            held = self
                .freed
                .wait_timeout_while(held, limit, |h| *h >= self.permits && !draining())
                .expect("permits poisoned")
                .0;
            self.waiting.add(-1);
        }
        if draining() {
            obs::global().counter("service.shed.draining").incr();
            return Err("busy draining");
        }
        if *held >= self.permits {
            obs::global().counter("service.shed.queue_wait").incr();
            return Err("busy queue-wait exceeded");
        }
        *held += 1;
        drop(held);
        self.busy.add(1);
        self.granted.incr();
        let _permit = Permit(self);
        Ok(f())
    }
}

/// A held request permit; dropping it (also while unwinding) gives it
/// back.
struct Permit<'a>(&'a Shared);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        // A decrement leaves the count valid even under a poisoned
        // lock, and a drop must not panic.
        *self.0.held.lock().unwrap_or_else(PoisonError::into_inner) -= 1;
        self.0.busy.add(-1);
        self.0.freed.notify_one();
    }
}

/// One open connection, counted in its server's cap and the
/// process-wide `service.connections` gauge from accept until drop
/// (also while unwinding, or if its thread never starts).
struct ConnGuard(Arc<Shared>);

impl ConnGuard {
    fn new(shared: Arc<Shared>) -> ConnGuard {
        shared.connections.fetch_add(1, Ordering::SeqCst);
        obs::global().gauge("service.connections").add(1);
        ConnGuard(shared)
    }
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        obs::global().gauge("service.connections").add(-1);
        self.0.connections.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A running catalog server.
///
/// The accept thread gives each connection its own thread; all of them
/// share the catalog (its internal locks make that safe). Dropping the
/// handle (or calling [`CatalogServer::stop`]) drains and shuts down.
pub struct CatalogServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl CatalogServer {
    /// Start serving `catalog` on `addr` with the default configuration
    /// (use port 0 for an ephemeral port; the bound address is
    /// available via [`Self::addr`]).
    pub fn start(catalog: Arc<MetadataCatalog>, addr: &str) -> std::io::Result<CatalogServer> {
        Self::start_with(catalog, addr, ServerConfig::default())
    }

    /// Start serving with an explicit configuration.
    pub fn start_with(
        catalog: Arc<MetadataCatalog>,
        addr: &str,
        config: ServerConfig,
    ) -> std::io::Result<CatalogServer> {
        let listener = TcpListener::bind(addr)?;
        let bound = listener.local_addr()?;
        // Nonblocking accept loop so `stop` is honored promptly.
        listener.set_nonblocking(true)?;
        let reg = obs::global();
        let permits = config.workers.max(1);
        reg.gauge("service.pool.size").set(permits as i64);
        let shared = Arc::new(Shared {
            catalog,
            config,
            draining: AtomicBool::new(false),
            stopped: AtomicBool::new(false),
            connections: AtomicUsize::new(0),
            permits,
            held: Mutex::new(0),
            freed: Condvar::new(),
            busy: reg.gauge("service.pool.busy"),
            waiting: reg.gauge("service.pool.queue_depth"),
            granted: reg.counter("service.pool.dispatched"),
        });
        let acceptor = shared.clone();
        let accept_thread = std::thread::spawn(move || accept_loop(&listener, &acceptor));
        Ok(CatalogServer { addr: bound, shared, accept_thread: Some(accept_thread) })
    }

    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: stop accepting and enter the `draining` state
    /// (idle keep-alives close, new heavy requests shed with `ERR busy
    /// draining`), wait up to [`ServerConfig::drain_timeout_ms`] for
    /// held permits to come back, end the connection threads, then
    /// checkpoint a durable catalog. Idempotent.
    pub fn stop(&mut self) {
        let Some(accept_thread) = self.accept_thread.take() else { return };
        let reg = obs::global();
        let shared = &*self.shared;
        reg.gauge("service.draining").set(1);
        // 1. Drain: the accept loop ends, and permit waiters wake to
        // shed. The flag flips under the permit lock so no waiter
        // misses the wake-up.
        {
            let _held = shared.held.lock().expect("permits poisoned");
            shared.draining.store(true, Ordering::SeqCst);
        }
        shared.freed.notify_all();
        let _ = accept_thread.join();
        // 2. Wait for in-flight requests to give their permits back,
        // bounded so a stuck request cannot wedge shutdown.
        let deadline = Instant::now() + Duration::from_millis(shared.config.drain_timeout_ms);
        loop {
            if *shared.held.lock().expect("permits poisoned") == 0 {
                reg.counter("service.drain.clean").incr();
                break;
            }
            if Instant::now() >= deadline {
                reg.counter("service.drain.forced").incr();
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        // 3. End the connection threads: each leaves at its next read
        // poll and lets go of the shared state, and with it the
        // catalog, so a restart can reopen the directory. A thread
        // still inside a forced-out request or blocked writing to a
        // client that stopped reading is left to finish on its own.
        shared.stopped.store(true, Ordering::SeqCst);
        let end = Instant::now() + 2 * READ_POLL;
        while Arc::strong_count(&self.shared) > 1 && Instant::now() < end {
            std::thread::sleep(Duration::from_millis(5));
        }
        // 4. Durable catalogs checkpoint on the way out, so restart
        // recovery replays a short WAL and loses nothing acked.
        if self.shared.catalog.is_durable() && self.shared.catalog.checkpoint().is_ok() {
            reg.counter("service.drain.checkpoints").incr();
        }
        reg.gauge("service.draining").set(0);
    }
}

impl Drop for CatalogServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Accept until the server drains, giving each connection its own
/// thread while fewer than [`MAX_CONNECTIONS`] are open.
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let reg = obs::global();
    while !shared.draining.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((mut stream, _)) => {
                if shared.connections.load(Ordering::SeqCst) >= MAX_CONNECTIONS {
                    reg.counter("service.pool.rejected").incr();
                    let _ = writeln!(stream, "ERR busy");
                    continue;
                }
                let conn = ConnGuard::new(shared.clone());
                let spawned =
                    std::thread::Builder::new().spawn(move || connection_thread(stream, conn));
                if spawned.is_err() {
                    reg.counter("service.errors.connection").incr();
                }
            }
            // A failed accept (an aborted handshake, fd exhaustion) is
            // counted, then the loop backs off and keeps accepting.
            Err(e) => {
                if e.kind() != ErrorKind::WouldBlock {
                    reg.counter("service.errors.connection").incr();
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

/// Serve one connection with panic containment: a poisoned request
/// ends only its own connection, and its guards release the permit and
/// the connection slot while unwinding.
fn connection_thread(stream: TcpStream, conn: ConnGuard) {
    let reg = obs::global();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        serve_connection(stream, &conn.0)
    }));
    match outcome {
        // Connection-level I/O failures (torn reads, resets, non-UTF-8
        // lines) are accounted, not silently dropped.
        Ok(Err(_)) => reg.counter("service.errors.connection").incr(),
        Ok(Ok(())) => {}
        Err(_) => reg.counter("service.pool.panics").incr(),
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

fn serve_connection(stream: TcpStream, shared: &Shared) -> std::io::Result<()> {
    let reg = obs::global();
    let catalog = &*shared.catalog;
    let _ = stream.set_nodelay(true);
    stream.set_read_timeout(Some(READ_POLL))?;
    let mut reader = BufReader::new(&stream);
    // A reply is buffered and sent in one write when the loop comes
    // back to read the next command: a reply written piece by piece
    // costs a send and a client wake-up per piece.
    let mut writer = BufWriter::new(&stream);
    let mut raw = Vec::new();
    loop {
        writer.flush()?;
        raw.clear();
        if !read_command(&mut reader, &mut raw, shared)? {
            return Ok(());
        }
        let line = std::str::from_utf8(&raw)
            .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e))?;
        let trimmed = line.trim_end();
        let (mut cmd_raw, mut rest) = match trimmed.split_once(' ') {
            Some((c, r)) => (c, r),
            None => (trimmed, ""),
        };
        // `DEADLINE <ms> <command ...>` prefixes any command with a
        // per-request deadline override. `0` is rejected: it would
        // lift the server's default deadline, the one bound that stops
        // a request from holding its permit indefinitely.
        let mut explicit_deadline_ms: Option<u64> = None;
        if cmd_raw.eq_ignore_ascii_case("DEADLINE") {
            let (ms_str, rem) = match rest.split_once(' ') {
                Some(p) => p,
                None => (rest, ""),
            };
            match ms_str.parse::<u64>() {
                Ok(ms) if ms > 0 => explicit_deadline_ms = Some(ms),
                _ => {
                    reg.counter("service.errors.malformed").incr();
                    writeln!(writer, "ERR bad deadline {ms_str:?}")?;
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
        // Server-side deadline for read requests: explicit override,
        // else the configured default (0 there means unbounded). It
        // starts once the permit is granted. Mutations (`INGEST`/`ADD`)
        // deliberately run to completion — aborting a half-applied
        // ingest would trade a latency bound for torn acknowledgements.
        let req_ctx = |detail: &str| -> RequestCtx {
            let ctx = match explicit_deadline_ms.unwrap_or(shared.config.default_deadline_ms) {
                0 => RequestCtx::unbounded(),
                ms => RequestCtx::deadline_in(Duration::from_millis(ms)),
            };
            if detail.is_empty() {
                ctx
            } else {
                ctx.describe(detail)
            }
        };
        // Heavy commands read their body first, then hold a permit for
        // the catalog call only; a shed leaves the connection framed.
        match cmd.as_str() {
            "PING" => writeln!(writer, "OK pong")?,
            "QUIT" => {
                writeln!(writer, "OK bye")?;
                return writer.flush();
            }
            "INGEST" => {
                let body = match read_body(&mut reader, rest, shared) {
                    Ok(b) => b,
                    Err(msg) => {
                        writeln!(writer, "ERR {msg}")?;
                        continue;
                    }
                };
                match shared.with_permit(|| catalog.ingest(&body)) {
                    Ok(Ok(id)) => writeln!(writer, "OK {id}")?,
                    Ok(Err(e)) => err_reply(&mut writer, &e.to_string())?,
                    Err(shed) => writeln!(writer, "ERR {shed}")?,
                }
            }
            "ADD" => {
                let Some((id_str, len_str)) = rest.split_once(' ') else {
                    reg.counter("service.errors.malformed").incr();
                    writeln!(writer, "ERR ADD needs <object-id> <len>")?;
                    continue;
                };
                // The body is read before the id is checked, so a bad
                // id cannot leave the body to be run as commands.
                let body = match read_body(&mut reader, len_str, shared) {
                    Ok(b) => b,
                    Err(msg) => {
                        writeln!(writer, "ERR {msg}")?;
                        continue;
                    }
                };
                let Ok(id) = id_str.parse::<i64>() else {
                    reg.counter("service.errors.malformed").incr();
                    writeln!(writer, "ERR bad object id")?;
                    continue;
                };
                match shared.with_permit(|| catalog.add_attribute(id, &body)) {
                    Ok(Ok(())) => writeln!(writer, "OK")?,
                    Ok(Err(e)) => err_reply(&mut writer, &e.to_string())?,
                    Err(shed) => writeln!(writer, "ERR {shed}")?,
                }
            }
            "QUERY" => match shared.with_permit(|| {
                parse_query(rest).and_then(|q| catalog.query_ctx(&q, &req_ctx(rest)))
            }) {
                Ok(Ok(ids)) => {
                    let list: Vec<String> = ids.iter().map(|i| i.to_string()).collect();
                    writeln!(writer, "OK {} {}", ids.len(), list.join(" "))?;
                }
                Ok(Err(e)) => err_reply(&mut writer, &e.to_string())?,
                Err(shed) => writeln!(writer, "ERR {shed}")?,
            },
            "FETCH" => {
                let ids: std::result::Result<Vec<i64>, _> = rest
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| s.trim().parse::<i64>())
                    .collect();
                let Ok(ids) = ids else {
                    reg.counter("service.errors.malformed").incr();
                    writeln!(writer, "ERR bad id list")?;
                    continue;
                };
                match shared.with_permit(|| catalog.fetch_envelope_ctx(&ids, &req_ctx(rest))) {
                    Ok(env) => envelope_reply(&mut writer, env)?,
                    Err(shed) => writeln!(writer, "ERR {shed}")?,
                }
            }
            "SEARCH" => match shared.with_permit(|| {
                parse_query(rest).and_then(|q| catalog.search_envelope_ctx(&q, &req_ctx(rest)))
            }) {
                Ok(env) => envelope_reply(&mut writer, env)?,
                Err(shed) => writeln!(writer, "ERR {shed}")?,
            },
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
    }
}

/// Whether a failed read only means the [`READ_POLL`] timer fired (or
/// a signal interrupted it), so the read can be retried.
fn is_poll_wakeup(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted)
}

/// Read one command line into `line`, returning to check for shutdown
/// at least every [`READ_POLL`], even while bytes trickle in. Returns
/// `false` when the connection should close: the client hung up, the
/// server stopped, or it is draining and no command has begun.
fn read_command(
    reader: &mut impl BufRead,
    line: &mut Vec<u8>,
    shared: &Shared,
) -> std::io::Result<bool> {
    loop {
        if shared.stopped.load(Ordering::Relaxed) {
            return Ok(false);
        }
        let buf = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e) if is_poll_wakeup(&e) => {
                if line.is_empty() && shared.draining.load(Ordering::Relaxed) {
                    return Ok(false);
                }
                continue;
            }
            Err(e) => return Err(e),
        };
        if buf.is_empty() {
            return Ok(!line.is_empty()); // client hung up
        }
        let (take, done) = match buf.iter().position(|&b| b == b'\n') {
            Some(i) => (i + 1, true),
            None => (buf.len(), false),
        };
        line.extend_from_slice(&buf[..take]);
        reader.consume(take);
        if done {
            return Ok(true);
        }
    }
}

/// Reply `ERR <one-line message>` for a failed catalog operation and
/// count it.
fn err_reply(writer: &mut impl Write, msg: &str) -> std::io::Result<()> {
    obs::global().counter("service.errors.catalog").incr();
    writeln!(writer, "ERR {}", one_line(msg))
}

/// Reply to `FETCH` / `SEARCH`: `OK <len>` then the `<results>` envelope
/// bytes, or the catalog error.
fn envelope_reply(writer: &mut impl Write, env: catalog::Result<String>) -> std::io::Result<()> {
    match env {
        Ok(env) => {
            obs::global().counter("service.body_bytes_out").add(env.len() as u64);
            writeln!(writer, "OK {}", env.len())?;
            writer.write_all(env.as_bytes())
        }
        Err(e) => err_reply(writer, &e.to_string()),
    }
}

/// Read a length-prefixed body where `len_str` is the decimal length,
/// checking for shutdown at least every [`READ_POLL`] so a stopping
/// server can end a trickled read. On failure the error is counted and
/// its reply text returned.
fn read_body(
    reader: &mut impl BufRead,
    len_str: &str,
    shared: &Shared,
) -> std::result::Result<String, String> {
    let reg = obs::global();
    let malformed = |msg: String| {
        reg.counter("service.errors.malformed").incr();
        msg
    };
    let len: usize = len_str
        .trim()
        .parse()
        .map_err(|_| malformed(format!("bad length {len_str:?}")))?;
    if len > MAX_BODY {
        reg.counter("service.errors.oversized").incr();
        return Err(format!("body of {len} bytes exceeds the {MAX_BODY}-byte limit"));
    }
    let mut buf = vec![0u8; len];
    let mut filled = 0;
    while filled < len {
        if shared.stopped.load(Ordering::Relaxed) {
            reg.counter("service.shed.draining").incr();
            return Err("busy draining".into());
        }
        match reader.read(&mut buf[filled..]) {
            Ok(0) => return Err(malformed("short body: failed to fill whole buffer".into())),
            Ok(n) => filled += n,
            Err(e) if is_poll_wakeup(&e) => {}
            Err(e) => return Err(malformed(format!("short body: {e}"))),
        }
    }
    reg.counter("service.body_bytes_in").add(len as u64);
    String::from_utf8(buf).map_err(|_| malformed("body is not UTF-8".to_string()))
}

fn one_line(s: &str) -> String {
    s.replace('\n', " ")
}

#[cfg(test)]
mod tests {
    use super::{CatalogServer, ConnGuard, ServerConfig};
    use catalog::catalog::CatalogConfig;
    use catalog::lead::lead_catalog;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    /// The open-connection count and gauge must not leak when a request
    /// handler panics: the drop guard releases both during unwinding.
    #[test]
    fn connection_gauge_survives_panics() {
        let cat = Arc::new(lead_catalog(CatalogConfig::default()).unwrap());
        let server = CatalogServer::start_with(cat, "127.0.0.1:0", ServerConfig::default())
            .expect("server starts");
        let shared = server.shared.clone();
        let gauge = obs::global().gauge("service.connections");
        let before = gauge.get();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = ConnGuard::new(shared.clone());
            panic!("connection thread dies mid-request");
        }));
        assert!(outcome.is_err());
        assert_eq!(gauge.get(), before, "panic leaked the connection gauge");
        assert_eq!(shared.connections.load(Ordering::SeqCst), 0, "panic leaked the slot");
    }
}
