//! Threaded TCP server exposing a [`MetadataCatalog`].
//!
//! Each accepted connection gets its own thread, up to
//! [`MAX_CONNECTIONS`]; one more is answered `ERR busy` and closed. A
//! connection costs a thread parked on a read, not catalog work: the
//! catalog's concurrency is bounded per *request*. A heavy request
//! (`INGEST`/`ADD`/`QUERY`/`FETCH`/`SEARCH`) reads its body first, then
//! runs its catalog call holding one of [`WORKERS`] request permits,
//! and gives the permit back before it writes the reply. So an idle
//! keep-alive, a trickled body or a slow reader ties up only its own
//! thread. Cheap commands (`PING`/`STATS`/`SLOWLOG`/
//! `CHECKPOINT`/`QUIT`) need no permit, so they answer even when every
//! permit is held. Overload sheds with typed replies, never a hang:
//!
//! - **queue wait**: a heavy request that waited longer than 1 s for a
//!   permit is answered `ERR busy queue-wait exceeded` — its client has
//!   likely timed out already;
//! - **deadline**: every `QUERY`/`FETCH`/`SEARCH` runs under a
//!   deadline (5 s, overridable per request with a `DEADLINE <ms>`
//!   command prefix) enforced cooperatively inside the catalog and
//!   executor, so an admitted request cannot hold its permit
//!   indefinitely;
//! - **drain**: [`CatalogServer::stop`] stops accepting, sheds new
//!   heavy work (`ERR busy draining`), closes idle keep-alives, waits
//!   up to 5 s for held permits to come back, ends the connection
//!   threads, then checkpoints a durable catalog — a SIGTERM-style
//!   graceful shutdown that loses no acked ingest.
//!
//! Socket reads and writes wake every 200 ms, so a stopping server can
//! end threads parked on idle or trickling clients, or blocked writing
//! to a client that stopped reading.
//!
//! Every request, error, permit, shed and drain is recorded through the
//! `service.*` instruments of [`obs::names`], which documents each one.
//! `STATS` returns the whole catalogue's snapshot; `SLOWLOG` reads (and
//! `SLOWLOG <ms>` configures) the slow-query ring.

use catalog::catalog::MetadataCatalog;
use catalog::qparse::parse_query;
use catalog::reqctx::RequestCtx;
use obs::{names, Histogram};
use std::io::{BufRead, BufReader, BufWriter, ErrorKind, IoSlice, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Upper bound on request bodies (16 MiB — grid metadata documents are
/// small; this guards against malformed length prefixes).
const MAX_BODY: usize = 16 << 20;

/// Upper bound on a command line (1 MiB). A client that sends more
/// without a `\n` is answered `ERR command line exceeds …` and closed,
/// so it cannot grow the line buffer without bound.
const MAX_LINE: usize = 1 << 20;

/// Most connections served at once. Each owns one thread; one more is
/// answered `ERR busy` and closed.
pub const MAX_CONNECTIONS: usize = 256;

/// How often a blocked socket read or write wakes to check for
/// shutdown.
const READ_POLL: Duration = Duration::from_millis(200);

/// Request permits: how many heavy requests (`INGEST`/`ADD`/`QUERY`/
/// `FETCH`/`SEARCH`) run their catalog call at once.
pub const WORKERS: usize = 8;

/// Deadline of a `QUERY`/`FETCH`/`SEARCH` without a `DEADLINE <ms>`
/// prefix.
const DEFAULT_DEADLINE: Duration = Duration::from_secs(5);

/// A heavy request that waited longer than this for a permit is shed.
const QUEUE_WAIT: Duration = Duration::from_secs(1);

/// How long [`CatalogServer::stop`] waits for held permits to come
/// back before forcing shutdown.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// State shared by the accept thread, the connection threads and
/// [`CatalogServer::stop`].
struct Shared {
    catalog: Arc<MetadataCatalog>,
    /// Set by [`CatalogServer::stop`]: accepting ends, idle keep-alives
    /// close, heavy requests shed with `ERR busy draining`.
    draining: AtomicBool,
    /// Set once the drain is over: every connection thread ends at its
    /// next read poll.
    stopped: AtomicBool,
    /// Open connections, counted per server (not through the
    /// process-global gauge) so the cap holds per server.
    connections: AtomicUsize,
    /// Permits held, at most [`WORKERS`]; `freed` signals a return or
    /// the start of a drain.
    held: Mutex<usize>,
    freed: Condvar,
}

impl Shared {
    /// Run a heavy command's catalog call `f` holding a request permit,
    /// given back as soon as `f` returns, then write one of three
    /// replies: the value through `ok`, the catalog error, or the shed.
    /// Sheds without running `f` when the server is draining or the
    /// wait for a permit passes [`QUEUE_WAIT`].
    fn reply_permitted<W: Write, T>(
        &self,
        writer: &mut W,
        f: impl FnOnce() -> catalog::Result<T>,
        ok: impl FnOnce(&mut W, T) -> std::io::Result<()>,
    ) -> std::io::Result<()> {
        let draining = || self.draining.load(Ordering::SeqCst);
        let mut held = self.held.lock().expect("permits poisoned");
        if *held >= WORKERS && !draining() {
            names::SERVICE_POOL_QUEUE_DEPTH.add(1);
            let queued = Instant::now();
            held = self
                .freed
                .wait_timeout_while(held, QUEUE_WAIT, |h| *h >= WORKERS && !draining())
                .expect("permits poisoned")
                .0;
            names::SERVICE_POOL_QUEUE_WAIT.record(queued.elapsed().as_nanos() as u64);
            names::SERVICE_POOL_QUEUE_DEPTH.add(-1);
        }
        if draining() {
            names::SERVICE_SHED_DRAINING.incr();
            return writeln!(writer, "ERR busy draining");
        }
        if *held >= WORKERS {
            names::SERVICE_SHED_QUEUE_WAIT.incr();
            return writeln!(writer, "ERR busy queue-wait exceeded");
        }
        *held += 1;
        drop(held);
        names::SERVICE_POOL_BUSY.add(1);
        names::SERVICE_POOL_DISPATCHED.incr();
        let result = {
            let _permit = Permit(self);
            f()
        };
        match result {
            Ok(value) => ok(writer, value),
            Err(e) => err_reply(writer, &e.to_string()),
        }
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
        names::SERVICE_POOL_BUSY.add(-1);
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
        names::SERVICE_CONNECTIONS.add(1);
        ConnGuard(shared)
    }
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        names::SERVICE_CONNECTIONS.add(-1);
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
    /// Start serving `catalog` on `addr` (use port 0 for an ephemeral
    /// port; the bound address is available via [`Self::addr`]).
    pub fn start(catalog: Arc<MetadataCatalog>, addr: &str) -> std::io::Result<CatalogServer> {
        let listener = TcpListener::bind(addr)?;
        let bound = listener.local_addr()?;
        // Nonblocking accept loop so `stop` is honored promptly.
        listener.set_nonblocking(true)?;
        names::SERVICE_POOL_SIZE.set(WORKERS as i64);
        let shared = Arc::new(Shared {
            catalog,
            draining: AtomicBool::new(false),
            stopped: AtomicBool::new(false),
            connections: AtomicUsize::new(0),
            held: Mutex::new(0),
            freed: Condvar::new(),
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
    /// draining`), wait up to 5 s for held permits to come back, end the
    /// connection threads, then checkpoint a durable catalog.
    /// Idempotent.
    pub fn stop(&mut self) {
        let Some(accept_thread) = self.accept_thread.take() else { return };
        let shared = &*self.shared;
        names::SERVICE_DRAINING.set(1);
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
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        loop {
            if *shared.held.lock().expect("permits poisoned") == 0 {
                names::SERVICE_DRAIN_CLEAN.incr();
                break;
            }
            if Instant::now() >= deadline {
                names::SERVICE_DRAIN_FORCED.incr();
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        // 3. End the connection threads: each leaves at its next read
        // or write poll and lets go of the shared state, and with it
        // the catalog, so a restart can reopen the directory. A thread
        // still inside a forced-out request is left to finish on its
        // own.
        shared.stopped.store(true, Ordering::SeqCst);
        let end = Instant::now() + 2 * READ_POLL;
        while Arc::strong_count(&self.shared) > 1 && Instant::now() < end {
            std::thread::sleep(Duration::from_millis(5));
        }
        // 4. Durable catalogs checkpoint on the way out, so restart
        // recovery replays a short WAL and loses nothing acked.
        if self.shared.catalog.is_durable() && self.shared.catalog.checkpoint().is_ok() {
            names::SERVICE_DRAIN_CHECKPOINTS.incr();
        }
        names::SERVICE_DRAINING.set(0);
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
    while !shared.draining.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((mut stream, _)) => {
                if shared.connections.load(Ordering::SeqCst) >= MAX_CONNECTIONS {
                    names::SERVICE_POOL_REJECTED.incr();
                    let _ = writeln!(stream, "ERR busy");
                    continue;
                }
                let conn = ConnGuard::new(shared.clone());
                let spawned =
                    std::thread::Builder::new().spawn(move || connection_thread(stream, conn));
                if spawned.is_err() {
                    names::SERVICE_ERRORS_CONNECTION.incr();
                }
            }
            // A failed accept (an aborted handshake, fd exhaustion) is
            // counted, then the loop backs off and keeps accepting.
            Err(e) => {
                if e.kind() != ErrorKind::WouldBlock {
                    names::SERVICE_ERRORS_CONNECTION.incr();
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
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        serve_connection(stream, &conn.0)
    }));
    match outcome {
        // Connection-level I/O failures (torn reads, resets, non-UTF-8
        // lines) are accounted, not silently dropped.
        Ok(Err(_)) => names::SERVICE_ERRORS_CONNECTION.incr(),
        Ok(Ok(())) => {}
        Err(_) => names::SERVICE_POOL_PANICS.incr(),
    }
}

/// The `service.request.<op>` latency histogram of a command; its
/// `.count` is the number of such requests.
fn request_histogram(cmd: &str) -> &'static Histogram {
    match cmd {
        "PING" => &names::SERVICE_REQUEST_PING,
        "QUIT" => &names::SERVICE_REQUEST_QUIT,
        "INGEST" => &names::SERVICE_REQUEST_INGEST,
        "ADD" => &names::SERVICE_REQUEST_ADD,
        "QUERY" => &names::SERVICE_REQUEST_QUERY,
        "FETCH" => &names::SERVICE_REQUEST_FETCH,
        "SEARCH" => &names::SERVICE_REQUEST_SEARCH,
        "STATS" => &names::SERVICE_REQUEST_STATS,
        "SLOWLOG" => &names::SERVICE_REQUEST_SLOWLOG,
        "CHECKPOINT" => &names::SERVICE_REQUEST_CHECKPOINT,
        _ => &names::SERVICE_REQUEST_UNKNOWN,
    }
}

/// One command line, parsed once: `[DEADLINE <ms>] <command> [<args>]`.
struct Request<'a> {
    /// A read request's deadline: the `DEADLINE <ms>` prefix's, else
    /// [`DEFAULT_DEADLINE`]. A bad `<ms>` is kept as `Err`; `0` is bad
    /// too, as a request given no time to run could only fail.
    deadline: Result<Duration, &'a str>,
    /// The command, upper-cased.
    cmd: String,
    /// The arguments; for `ADD`, the object id before the body length.
    args: &'a str,
    /// The body length the command announces: `INGEST <len>` or
    /// `ADD <id> <len>`.
    body_len: Option<&'a str>,
}

impl<'a> Request<'a> {
    fn parse(line: &'a str) -> Request<'a> {
        let word = |s: &'a str| s.split_once(' ').unwrap_or((s, ""));
        let (mut cmd, mut args) = word(line);
        let mut deadline = Ok(DEFAULT_DEADLINE);
        if cmd.eq_ignore_ascii_case("DEADLINE") {
            let (ms, rest) = word(args);
            deadline = match ms.parse::<u64>() {
                Ok(ms) if ms > 0 => Ok(Duration::from_millis(ms)),
                _ => Err(ms),
            };
            (cmd, args) = word(rest);
        }
        let cmd = cmd.to_ascii_uppercase();
        let (args, body_len) = match cmd.as_str() {
            "INGEST" => ("", Some(args)),
            "ADD" => args.split_once(' ').map_or((args, None), |(id, len)| (id, Some(len))),
            _ => (args, None),
        };
        Request { deadline, cmd, args, body_len }
    }
}

fn serve_connection(stream: TcpStream, shared: &Shared) -> std::io::Result<()> {
    let catalog = &*shared.catalog;
    let _ = stream.set_nodelay(true);
    stream.set_read_timeout(Some(READ_POLL))?;
    stream.set_write_timeout(Some(READ_POLL))?;
    let mut reader = BufReader::new(&stream);
    // A reply is buffered and sent in one write when the loop comes
    // back to read the next command: a reply written piece by piece
    // costs a send and a client wake-up per piece. A sized body (an
    // envelope or the `SLOWLOG` dump), which can outgrow the buffer,
    // leaves at once in one vectored write (`sized_reply`).
    let mut writer = BufWriter::new(PollWriter { stream: &stream, shared });
    let mut raw = Vec::new();
    loop {
        writer.flush()?;
        raw.clear();
        if !read_command(&mut reader, &mut raw, shared)? {
            return Ok(());
        }
        if raw.len() > MAX_LINE {
            names::SERVICE_ERRORS_OVERSIZED.incr();
            writeln!(writer, "ERR command line exceeds the {MAX_LINE}-byte limit")?;
            return writer.flush();
        }
        let line = std::str::from_utf8(&raw)
            .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e))?;
        let req = Request::parse(line.trim_end());
        // Counted once under its command (a missing or unrecognized
        // one under `unknown`), also when it is refused below.
        let mut span = request_histogram(&req.cmd).span();
        // An announced body is already on its way: read it before
        // anything can refuse the request, or its bytes would run as
        // commands. A refusal leaves the connection framed.
        let body = req.body_len.map(|len| read_body(&mut reader, len, shared));
        let deadline = match req.deadline {
            Ok(deadline) => deadline,
            Err(ms) => {
                malformed_reply(&mut writer, format_args!("bad deadline {ms:?}"))?;
                continue;
            }
        };
        let body = match body.transpose() {
            Ok(body) => body.unwrap_or_default(),
            Err(msg) => {
                writeln!(writer, "ERR {msg}")?;
                continue;
            }
        };
        let args = req.args;
        if matches!(req.cmd.as_str(), "QUERY" | "SEARCH") && !args.is_empty() {
            span.set_detail(args);
        }
        // A read request's deadline starts once the permit is granted.
        // Mutations (`INGEST`/`ADD`) deliberately run to completion —
        // aborting a half-applied ingest would trade a latency bound
        // for torn acknowledgements.
        let ctx = || {
            let ctx = RequestCtx::deadline_in(deadline);
            if args.is_empty() {
                ctx
            } else {
                ctx.describe(args)
            }
        };
        match req.cmd.as_str() {
            "PING" => writeln!(writer, "OK pong")?,
            "QUIT" => {
                writeln!(writer, "OK bye")?;
                return writer.flush();
            }
            "INGEST" => shared.reply_permitted(
                &mut writer,
                || catalog.ingest(&body),
                |w, id| writeln!(w, "OK {id}"),
            )?,
            "ADD" => match (req.body_len, args.parse::<i64>()) {
                (None, _) => malformed_reply(&mut writer, "ADD needs <object-id> <len>")?,
                (_, Err(_)) => malformed_reply(&mut writer, "bad object id")?,
                (_, Ok(id)) => shared.reply_permitted(
                    &mut writer,
                    || catalog.add_attribute(id, &body),
                    |w, ()| writeln!(w, "OK"),
                )?,
            },
            "QUERY" => shared.reply_permitted(
                &mut writer,
                || parse_query(args).and_then(|q| catalog.query_ctx(&q, &ctx())),
                |w, ids| {
                    let list: Vec<String> = ids.iter().map(|i| i.to_string()).collect();
                    writeln!(w, "OK {} {}", ids.len(), list.join(" "))
                },
            )?,
            "FETCH" => match args
                .split(',')
                .filter(|s| !s.is_empty())
                .map(|s| s.trim().parse::<i64>())
                .collect::<Result<Vec<_>, _>>()
            {
                Ok(ids) => shared.reply_permitted(
                    &mut writer,
                    || catalog.fetch_envelope_ctx(&ids, &ctx()),
                    sized_reply,
                )?,
                Err(_) => malformed_reply(&mut writer, "bad id list")?,
            },
            "SEARCH" => shared.reply_permitted(
                &mut writer,
                || parse_query(args).and_then(|q| catalog.search_envelope_ctx(&q, &ctx())),
                sized_reply,
            )?,
            "STATS" => {
                let s = catalog.stats();
                let mut out = format!(
                    "OK objects={} attrs={} elems={} clobs={} clob_bytes={} clob_buffers={} defs={}",
                    s.objects,
                    s.attr_rows,
                    s.elem_rows,
                    s.clob_count,
                    s.clob_bytes,
                    s.clob_buffers,
                    s.attr_defs + s.elem_defs
                );
                // Full observability snapshot rides on the same line so
                // existing `k=v` parsers pick it up unchanged.
                for (name, value) in obs::global().snapshot_kv() {
                    out.push_str(&format!(" {name}={value}"));
                }
                writeln!(writer, "{out}")?;
            }
            "CHECKPOINT" => match catalog.checkpoint() {
                Ok(lsn) => writeln!(writer, "OK lsn={lsn}")?,
                Err(e) => err_reply(&mut writer, &e.to_string())?,
            },
            "SLOWLOG" if args.is_empty() => sized_reply(&mut writer, slowlog_dump(obs::global()))?,
            "SLOWLOG" => match args.trim().parse::<u64>() {
                Ok(ms) => {
                    obs::global().set_slow_threshold(Duration::from_millis(ms));
                    writeln!(writer, "OK threshold_ms={ms}")?;
                }
                Err(_) => malformed_reply(&mut writer, format_args!("bad threshold {args:?}"))?,
            },
            other => {
                names::SERVICE_ERRORS_UNKNOWN.incr();
                writeln!(writer, "ERR unknown command {other}")?;
            }
        }
    }
}

/// Whether a failed read or write only means the [`READ_POLL`] timer
/// fired (or a signal interrupted it), so it can be retried.
fn is_poll_wakeup(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted)
}

/// The connection's socket as a [`Write`] that retries each
/// [`READ_POLL`] wake-up until the server stops, so a client that
/// stopped reading cannot keep its thread, and with it the catalog,
/// alive past [`CatalogServer::stop`]. The retry sits inside `write`,
/// so `flush` and `write_all` keep the progress a timed-out write made;
/// a `write_all` on the timed-out socket itself would lose it.
struct PollWriter<'a> {
    stream: &'a TcpStream,
    shared: &'a Shared,
}

impl Write for PollWriter<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        loop {
            match self.stream.write(buf) {
                Err(e) if is_poll_wakeup(&e) && !self.shared.stopped.load(Ordering::Relaxed) => {}
                done => return done,
            }
        }
    }

    /// The socket's own vectored write, with [`PollWriter::write`]'s
    /// retry (the default would write only the first slice).
    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
        loop {
            match self.stream.write_vectored(bufs) {
                Err(e) if is_poll_wakeup(&e) && !self.shared.stopped.load(Ordering::Relaxed) => {}
                done => return done,
            }
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.stream.flush()
    }
}

/// Read one command line into `line`, returning to check for shutdown
/// at least every [`READ_POLL`], even while bytes trickle in. Returns
/// `false` when the connection should close: the client hung up, the
/// server stopped, or it is draining and no command has begun. Stops
/// early, with no `\n`, once `line` holds more than [`MAX_LINE`] bytes.
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
        if done || line.len() > MAX_LINE {
            return Ok(true);
        }
    }
}

/// Reply `ERR <one-line message>` for a failed catalog operation and
/// count it.
fn err_reply(writer: &mut impl Write, msg: &str) -> std::io::Result<()> {
    names::SERVICE_ERRORS_CATALOG.incr();
    writeln!(writer, "ERR {}", one_line(msg))
}

/// Reply `ERR <msg>` to a malformed request and count it.
fn malformed_reply(writer: &mut impl Write, msg: impl std::fmt::Display) -> std::io::Result<()> {
    names::SERVICE_ERRORS_MALFORMED.incr();
    writeln!(writer, "ERR {msg}")
}

/// The `SLOWLOG` body: one line per event in the slow ring.
fn slowlog_dump(reg: &obs::MetricsRegistry) -> String {
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
    out
}

/// Reply with a sized body — the `<results>` envelope of `FETCH` /
/// `SEARCH`, or the `SLOWLOG` dump: `OK <len>` then the body bytes. The
/// buffer is flushed first, then the header and body leave in one
/// vectored write: through the buffer, a body of its size or more would
/// go out as a second write, and under `TCP_NODELAY` the header alone
/// would wake the client.
fn sized_reply<W: Write>(writer: &mut BufWriter<W>, body: String) -> std::io::Result<()> {
    names::SERVICE_BODY_BYTES_OUT.add(body.len() as u64);
    let head = format!("OK {}\n", body.len());
    writer.flush()?;
    write_all_vectored(
        writer.get_mut(),
        &mut [IoSlice::new(head.as_bytes()), IoSlice::new(body.as_bytes())],
    )
}

/// `write_all` over several slices, each call a vectored write.
fn write_all_vectored(w: &mut impl Write, mut bufs: &mut [IoSlice<'_>]) -> std::io::Result<()> {
    while !bufs.is_empty() {
        match w.write_vectored(bufs) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
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
    let malformed = |msg: String| {
        names::SERVICE_ERRORS_MALFORMED.incr();
        msg
    };
    let len: usize = len_str
        .trim()
        .parse()
        .map_err(|_| malformed(format!("bad length {len_str:?}")))?;
    if len > MAX_BODY {
        names::SERVICE_ERRORS_OVERSIZED.incr();
        return Err(format!("body of {len} bytes exceeds the {MAX_BODY}-byte limit"));
    }
    let mut buf = vec![0u8; len];
    let mut filled = 0;
    while filled < len {
        if shared.stopped.load(Ordering::Relaxed) {
            names::SERVICE_SHED_DRAINING.incr();
            return Err("busy draining".into());
        }
        match reader.read(&mut buf[filled..]) {
            Ok(0) => return Err(malformed("short body: failed to fill whole buffer".into())),
            Ok(n) => filled += n,
            Err(e) if is_poll_wakeup(&e) => {}
            Err(e) => return Err(malformed(format!("short body: {e}"))),
        }
    }
    names::SERVICE_BODY_BYTES_IN.add(len as u64);
    String::from_utf8(buf).map_err(|_| malformed("body is not UTF-8".to_string()))
}

fn one_line(s: &str) -> String {
    s.replace('\n', " ")
}

#[cfg(test)]
mod tests {
    use super::{sized_reply, slowlog_dump, CatalogServer, ConnGuard};
    use catalog::catalog::CatalogConfig;
    use catalog::lead::lead_catalog;
    use std::io::{BufWriter, IoSlice, Write};
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    /// The open-connection count and gauge must not leak when a request
    /// handler panics: the drop guard releases both during unwinding.
    #[test]
    fn connection_gauge_survives_panics() {
        let cat = Arc::new(lead_catalog(CatalogConfig::default()).unwrap());
        let server = CatalogServer::start(cat, "127.0.0.1:0").expect("server starts");
        let shared = server.shared.clone();
        let gauge = &obs::names::SERVICE_CONNECTIONS;
        let before = gauge.get();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = ConnGuard::new(shared.clone());
            panic!("connection thread dies mid-request");
        }));
        assert!(outcome.is_err());
        assert_eq!(gauge.get(), before, "panic leaked the connection gauge");
        assert_eq!(shared.connections.load(Ordering::SeqCst), 0, "panic leaked the slot");
    }

    /// Records each write call's length and what reached it; accepts at
    /// most `limit` bytes per call.
    struct CountingWriter {
        writes: Vec<usize>,
        bytes: Vec<u8>,
        limit: usize,
    }

    impl CountingWriter {
        fn new(limit: usize) -> CountingWriter {
            CountingWriter { writes: Vec::new(), bytes: Vec::new(), limit }
        }
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            let mut n = 0;
            for b in bufs {
                let take = b.len().min(self.limit - n);
                self.bytes.extend_from_slice(&b[..take]);
                n += take;
            }
            self.writes.push(n);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_large_envelope_leaves_in_one_write() {
        let env = format!("<results>{}</results>", "x".repeat(100_000));
        // A `SLOWLOG` dump larger than the writer's buffer.
        let reg = obs::MetricsRegistry::new();
        for _ in 0..64 {
            reg.record_event("catalog.search", 1, Some("q".repeat(200)));
        }
        let dump = slowlog_dump(&reg);
        assert!(dump.len() > 8 * 1024, "{}", dump.len());
        for body in [env, dump] {
            let mut w = BufWriter::new(CountingWriter::new(usize::MAX));
            sized_reply(&mut w, body.clone()).unwrap();
            w.flush().unwrap();
            let head = format!("OK {}\n", body.len());
            assert_eq!(w.get_ref().writes, [head.len() + body.len()]);
            assert_eq!(w.get_ref().bytes, [head.as_bytes(), body.as_bytes()].concat());
        }
    }

    #[test]
    fn an_envelope_after_buffered_output_keeps_its_order() {
        let mut w = BufWriter::new(CountingWriter::new(usize::MAX));
        w.write_all(b"OK pong\n").unwrap();
        sized_reply(&mut w, "<results></results>".into()).unwrap();
        w.flush().unwrap();
        assert_eq!(w.get_ref().writes, [8, 25]);
        assert_eq!(w.get_ref().bytes, b"OK pong\nOK 19\n<results></results>");
    }

    #[test]
    fn a_short_vectored_write_is_resumed() {
        let env = "y".repeat(10_000);
        let mut w = BufWriter::new(CountingWriter::new(4096));
        sized_reply(&mut w, env.clone()).unwrap();
        let want = [format!("OK {}\n", env.len()).as_bytes(), env.as_bytes()].concat();
        assert_eq!(w.get_ref().writes, [4096, 4096, want.len() - 8192]);
        assert_eq!(w.get_ref().bytes, want);
    }
}
