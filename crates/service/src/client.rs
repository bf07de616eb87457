//! Blocking client for the catalog service protocol, plus a retrying
//! wrapper ([`RetryClient`]) with a fixed policy: jittered exponential
//! backoff, at most [`MAX_ATTEMPTS`] attempts within a 2 s retry budget.

use std::fmt;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Client-side error.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(std::io::Error),
    /// A socket read or write ran past the timeout set with
    /// [`CatalogClient::set_timeouts`]. The request may have been sent
    /// in part, or still be in flight with its reply arriving late, so
    /// the connection is out of step: drop it and reconnect.
    Timeout,
    /// The server shed the request before executing it (`ERR busy`
    /// in any of its forms: connection cap reached, queue-wait
    /// exceeded, draining). Always safe to retry.
    Busy(String),
    /// The request ran past its server-side deadline (`ERR deadline
    /// exceeded ...`). The server spent real work on it; retrying
    /// without a longer deadline will likely fail the same way.
    DeadlineExceeded(String),
    /// The server answered `ERR <message>` for any other reason.
    Server(String),
    /// The server's reply did not match the protocol.
    Protocol(String),
    /// The server closed the connection where a reply was expected
    /// (server shutdown, a crashed connection, or a `busy` rejection race) —
    /// distinct from [`ClientError::Protocol`] so callers can retry.
    Eof,
}

impl ClientError {
    /// Whether retrying could succeed. [`ClientError::Busy`] is always
    /// retryable — the server shed the request *before* executing it.
    /// `Eof`, `Timeout` and transient transport errors are retryable
    /// only for idempotent operations: the request may have executed
    /// before the connection died, so a non-idempotent retry risks
    /// duplicating it. Deadline, server, and protocol errors are not
    /// retryable.
    pub fn is_retryable(&self, idempotent: bool) -> bool {
        match self {
            ClientError::Busy(_) => true,
            ClientError::Eof | ClientError::Timeout => idempotent,
            ClientError::Io(e) => {
                idempotent
                    && matches!(
                        e.kind(),
                        std::io::ErrorKind::ConnectionRefused
                            | std::io::ErrorKind::ConnectionReset
                            | std::io::ErrorKind::BrokenPipe
                    )
            }
            _ => false,
        }
    }
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Timeout => write!(f, "timed out waiting for the server"),
            ClientError::Busy(m) => write!(f, "server busy: {m}"),
            ClientError::DeadlineExceeded(m) => write!(f, "deadline exceeded: {m}"),
            ClientError::Server(m) => write!(f, "server error: {m}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Eof => write!(f, "connection closed by server"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        // A socket timeout reports `WouldBlock` on Unix and `TimedOut`
        // on Windows.
        match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => ClientError::Timeout,
            _ => ClientError::Io(e),
        }
    }
}

/// Classify an `ERR <message>` reply into a typed error by its prefix
/// (the server's shed replies all start with `busy`, its cancellation
/// replies with `deadline exceeded`).
fn classify_server_err(msg: &str) -> ClientError {
    if msg.starts_with("busy") {
        ClientError::Busy(msg.to_string())
    } else if msg.starts_with("deadline") {
        ClientError::DeadlineExceeded(msg.to_string())
    } else {
        ClientError::Server(msg.to_string())
    }
}

/// Result alias for client calls.
pub type Result<T> = std::result::Result<T, ClientError>;

/// A connected catalog client. Each request is assembled in `out` and
/// leaves in one write, so a command line and its body share a segment
/// where they fit in one.
pub struct CatalogClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    out: Vec<u8>,
}

impl CatalogClient {
    /// Connect to a catalog server.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<CatalogClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(CatalogClient {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            out: Vec::new(),
        })
    }

    /// Connect with read/write timeouts, so a stalled or overloaded
    /// server surfaces as [`ClientError::Timeout`] instead of hanging
    /// the caller forever.
    pub fn connect_with_timeout(
        addr: impl ToSocketAddrs,
        timeout: std::time::Duration,
    ) -> Result<CatalogClient> {
        let mut client = Self::connect(addr)?;
        client.set_timeouts(Some(timeout))?;
        Ok(client)
    }

    /// Set (or with `None`, clear) both the read and write timeout on
    /// the underlying socket.
    pub fn set_timeouts(&mut self, timeout: Option<std::time::Duration>) -> Result<()> {
        self.writer.set_read_timeout(timeout)?;
        self.writer.set_write_timeout(timeout)?;
        Ok(())
    }

    /// Send one request: the command line, then `body` (empty for
    /// requests without one), in a single write. Bytes a failed write
    /// did not send are discarded with the next request's `clear`,
    /// never sent later.
    fn send(&mut self, line: fmt::Arguments<'_>, body: &[u8]) -> Result<()> {
        self.out.clear();
        self.out.write_fmt(line)?;
        self.out.push(b'\n');
        self.out.extend_from_slice(body);
        self.writer.write_all(&self.out)?;
        Ok(())
    }

    fn read_status(&mut self) -> Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(ClientError::Eof);
        }
        let line = line.trim_end();
        if let Some(rest) = line.strip_prefix("OK") {
            Ok(rest.trim_start().to_string())
        } else if let Some(err) = line.strip_prefix("ERR ") {
            Err(classify_server_err(err))
        } else {
            Err(ClientError::Protocol(format!("unexpected reply {line:?}")))
        }
    }

    fn read_sized_body(&mut self, header: &str) -> Result<String> {
        let len: usize = header
            .split_whitespace()
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| ClientError::Protocol(format!("bad length header {header:?}")))?;
        let mut buf = vec![0u8; len];
        self.reader.read_exact(&mut buf)?;
        String::from_utf8(buf).map_err(|_| ClientError::Protocol("body is not UTF-8".into()))
    }

    /// Liveness check.
    pub fn ping(&mut self) -> Result<()> {
        self.send(format_args!("PING"), &[])?;
        self.read_status().map(|_| ())
    }

    /// Ingest a metadata document; returns the assigned object id.
    pub fn ingest(&mut self, xml: &str) -> Result<i64> {
        self.send(format_args!("INGEST {}", xml.len()), xml.as_bytes())?;
        let rest = self.read_status()?;
        rest.parse()
            .map_err(|_| ClientError::Protocol(format!("bad object id {rest:?}")))
    }

    /// Append an attribute instance to an existing object.
    pub fn add_attribute(&mut self, object_id: i64, fragment_xml: &str) -> Result<()> {
        self.send(format_args!("ADD {object_id} {}", fragment_xml.len()), fragment_xml.as_bytes())?;
        self.read_status().map(|_| ())
    }

    /// Run a query (the `catalog::qparse` DSL); returns object ids.
    pub fn query(&mut self, dsl: &str) -> Result<Vec<i64>> {
        self.send(format_args!("QUERY {dsl}"), &[])?;
        self.read_query_reply()
    }

    /// [`CatalogClient::query`] with a per-request server-side deadline
    /// (overrides the server's configured default).
    pub fn query_with_deadline(&mut self, dsl: &str, deadline_ms: u64) -> Result<Vec<i64>> {
        self.send(format_args!("DEADLINE {deadline_ms} QUERY {dsl}"), &[])?;
        self.read_query_reply()
    }

    fn read_query_reply(&mut self) -> Result<Vec<i64>> {
        let rest = self.read_status()?;
        let mut toks = rest.split_whitespace();
        let n: usize = toks
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| ClientError::Protocol(format!("bad count in {rest:?}")))?;
        let ids: std::result::Result<Vec<i64>, _> = toks.map(|t| t.parse::<i64>()).collect();
        let ids = ids.map_err(|_| ClientError::Protocol(format!("bad id list in {rest:?}")))?;
        if ids.len() != n {
            return Err(ClientError::Protocol(format!("count {n} != ids {}", ids.len())));
        }
        Ok(ids)
    }

    /// Fetch reconstructed documents wrapped in a `<results>` envelope.
    pub fn fetch(&mut self, ids: &[i64]) -> Result<String> {
        let list: Vec<String> = ids.iter().map(|i| i.to_string()).collect();
        self.send(format_args!("FETCH {}", list.join(",")), &[])?;
        let header = self.read_status()?;
        self.read_sized_body(&header)
    }

    /// Query and fetch in one round trip.
    pub fn search(&mut self, dsl: &str) -> Result<String> {
        self.send(format_args!("SEARCH {dsl}"), &[])?;
        let header = self.read_status()?;
        self.read_sized_body(&header)
    }

    /// [`CatalogClient::search`] with a per-request server-side
    /// deadline (overrides the server's configured default).
    pub fn search_with_deadline(&mut self, dsl: &str, deadline_ms: u64) -> Result<String> {
        self.send(format_args!("DEADLINE {deadline_ms} SEARCH {dsl}"), &[])?;
        let header = self.read_status()?;
        self.read_sized_body(&header)
    }

    /// Server-side statistics as `key=value` pairs.
    pub fn stats(&mut self) -> Result<Vec<(String, u64)>> {
        self.send(format_args!("STATS"), &[])?;
        let rest = self.read_status()?;
        Ok(rest
            .split_whitespace()
            .filter_map(|kv| {
                let (k, v) = kv.split_once('=')?;
                Some((k.to_string(), v.parse().ok()?))
            })
            .collect())
    }

    /// Ask a durable server to checkpoint: flush pending commits and
    /// compact the write-ahead log into a snapshot. Returns the
    /// checkpointed LSN; errors if the server's catalog is in-memory.
    pub fn checkpoint(&mut self) -> Result<u64> {
        self.send(format_args!("CHECKPOINT"), &[])?;
        let rest = self.read_status()?;
        rest.strip_prefix("lsn=")
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| ClientError::Protocol(format!("bad checkpoint reply {rest:?}")))
    }

    /// Dump the server's slow-query ring, one event per line.
    pub fn slowlog(&mut self) -> Result<String> {
        self.send(format_args!("SLOWLOG"), &[])?;
        let header = self.read_status()?;
        self.read_sized_body(&header)
    }

    /// Set the server's slow-query threshold in milliseconds
    /// (0 disables the slow log).
    pub fn set_slow_threshold_ms(&mut self, ms: u64) -> Result<()> {
        self.send(format_args!("SLOWLOG {ms}"), &[])?;
        self.read_status().map(|_| ())
    }

    /// Close the session politely.
    pub fn quit(mut self) -> Result<()> {
        self.send(format_args!("QUIT"), &[])?;
        self.read_status().map(|_| ())
    }
}

/// Attempts [`RetryClient`] makes per call, the first one included.
pub const MAX_ATTEMPTS: u32 = 4;

/// Backoff before the first retry; it doubles per retry.
const BASE_BACKOFF: Duration = Duration::from_millis(10);

/// Ceiling on any single backoff.
const MAX_BACKOFF: Duration = Duration::from_millis(500);

/// Wall-clock budget across all attempts of one call: once spent, the
/// last error is returned even if attempts remain.
const RETRY_BUDGET: Duration = Duration::from_secs(2);

/// Backoff before retry number `retry` (1-based), jittered to 50–100%
/// of the exponential value so synchronized clients spread out instead
/// of re-stampeding a recovering server.
fn backoff(retry: u32, rng: &mut Xorshift64) -> Duration {
    let exp = BASE_BACKOFF
        .saturating_mul(1u32 << retry.saturating_sub(1).min(16))
        .min(MAX_BACKOFF);
    let nanos = exp.as_nanos() as u64;
    Duration::from_nanos(nanos / 2 + rng.next() % (nanos / 2 + 1))
}

/// Minimal xorshift PRNG for backoff jitter — statistical quality is
/// irrelevant here, only de-synchronization.
struct Xorshift64(u64);

impl Xorshift64 {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// A reconnecting, retrying catalog client.
///
/// Wraps [`CatalogClient`] with a fixed retry policy: retryable errors
/// (see [`ClientError::is_retryable`]) are retried with jittered
/// exponential backoff, up to [`MAX_ATTEMPTS`] attempts within a 2 s
/// retry budget; the connection is rebuilt after transport errors.
/// Idempotent reads (`ping`/`query`/`fetch`/`search`/`stats`) retry on
/// `Busy`, `Eof`, and timeouts; mutations (`ingest`/`add_attribute`)
/// retry **only** on `Busy` — a shed request provably never executed,
/// while a torn connection may have committed, and a blind retry would
/// ingest the document twice.
pub struct RetryClient {
    addr: std::net::SocketAddr,
    timeout: Option<Duration>,
    conn: Option<CatalogClient>,
    rng: Xorshift64,
}

impl RetryClient {
    /// Client for `addr`. Connections are established lazily, so this
    /// never fails.
    pub fn new(addr: std::net::SocketAddr) -> RetryClient {
        // Seed from the address and process id: distinct clients (and
        // distinct runs) jitter differently without needing an RNG dep.
        let seed = (std::process::id() as u64) << 17 ^ (addr.port() as u64) << 1 | 1;
        RetryClient { addr, timeout: None, conn: None, rng: Xorshift64(seed) }
    }

    /// Apply a socket read/write timeout to every connection.
    pub fn with_timeout(mut self, timeout: Duration) -> RetryClient {
        self.timeout = Some(timeout);
        self
    }

    fn connect(&mut self) -> Result<&mut CatalogClient> {
        if self.conn.is_none() {
            let client = match self.timeout {
                Some(t) => CatalogClient::connect_with_timeout(self.addr, t)?,
                None => CatalogClient::connect(self.addr)?,
            };
            self.conn = Some(client);
        }
        Ok(self.conn.as_mut().expect("connection just established"))
    }

    /// Run `op` under the retry policy. `idempotent` widens the
    /// retryable set to include torn connections and timeouts.
    fn call<T>(
        &mut self,
        idempotent: bool,
        op: impl Fn(&mut CatalogClient) -> Result<T>,
    ) -> Result<T> {
        let started = Instant::now();
        let mut attempt = 1u32;
        loop {
            let result = self.connect().and_then(&op);
            let err = match result {
                Ok(v) => return Ok(v),
                Err(e) => e,
            };
            // Anything but an `ERR` reply poisons the connection: it is
            // torn, out of step, or (after a timeout) still owes a late
            // reply that would be read as the next request's. Drop it
            // so the next attempt reconnects.
            if !matches!(
                err,
                ClientError::Busy(_) | ClientError::DeadlineExceeded(_) | ClientError::Server(_)
            ) {
                self.conn = None;
            }
            if attempt >= MAX_ATTEMPTS || !err.is_retryable(idempotent) {
                return Err(err);
            }
            let wait = backoff(attempt, &mut self.rng);
            if started.elapsed() + wait > RETRY_BUDGET {
                return Err(err);
            }
            std::thread::sleep(wait);
            attempt += 1;
        }
    }

    /// [`CatalogClient::ping`] with retries.
    pub fn ping(&mut self) -> Result<()> {
        self.call(true, |c| c.ping())
    }

    /// [`CatalogClient::query`] with retries.
    pub fn query(&mut self, dsl: &str) -> Result<Vec<i64>> {
        self.call(true, |c| c.query(dsl))
    }

    /// [`CatalogClient::query_with_deadline`] with retries.
    pub fn query_with_deadline(&mut self, dsl: &str, deadline_ms: u64) -> Result<Vec<i64>> {
        self.call(true, |c| c.query_with_deadline(dsl, deadline_ms))
    }

    /// [`CatalogClient::fetch`] with retries.
    pub fn fetch(&mut self, ids: &[i64]) -> Result<String> {
        self.call(true, |c| c.fetch(ids))
    }

    /// [`CatalogClient::search`] with retries.
    pub fn search(&mut self, dsl: &str) -> Result<String> {
        self.call(true, |c| c.search(dsl))
    }

    /// [`CatalogClient::stats`] with retries.
    pub fn stats(&mut self) -> Result<Vec<(String, u64)>> {
        self.call(true, |c| c.stats())
    }

    /// [`CatalogClient::ingest`] with retries on `Busy` only (see the
    /// type docs for why torn connections are not retried).
    pub fn ingest(&mut self, xml: &str) -> Result<i64> {
        self.call(false, |c| c.ingest(xml))
    }

    /// [`CatalogClient::add_attribute`] with retries on `Busy` only.
    pub fn add_attribute(&mut self, object_id: i64, fragment_xml: &str) -> Result<()> {
        self.call(false, |c| c.add_attribute(object_id, fragment_xml))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_errors_classify_by_prefix() {
        assert!(matches!(classify_server_err("busy"), ClientError::Busy(_)));
        assert!(matches!(classify_server_err("busy queue-wait exceeded"), ClientError::Busy(_)));
        assert!(matches!(classify_server_err("busy draining"), ClientError::Busy(_)));
        assert!(matches!(
            classify_server_err("deadline exceeded: after 12ms"),
            ClientError::DeadlineExceeded(_)
        ));
        assert!(matches!(classify_server_err("no such object: 9"), ClientError::Server(_)));
    }

    #[test]
    fn retryability_matrix() {
        let busy = ClientError::Busy("busy".into());
        assert!(busy.is_retryable(true));
        assert!(busy.is_retryable(false)); // shed before execution
        assert!(ClientError::Eof.is_retryable(true));
        assert!(!ClientError::Eof.is_retryable(false)); // may have executed
        for kind in [std::io::ErrorKind::WouldBlock, std::io::ErrorKind::TimedOut] {
            let timeout = ClientError::from(std::io::Error::from(kind));
            assert!(matches!(timeout, ClientError::Timeout), "{kind:?} maps to Timeout");
        }
        assert!(ClientError::Timeout.is_retryable(true));
        assert!(!ClientError::Timeout.is_retryable(false)); // may have executed
        let reset = ClientError::Io(std::io::Error::from(std::io::ErrorKind::ConnectionReset));
        assert!(reset.is_retryable(true));
        assert!(!reset.is_retryable(false));
        let deadline = ClientError::DeadlineExceeded("after 10ms".into());
        assert!(!deadline.is_retryable(true));
        assert!(!ClientError::Server("bad query".into()).is_retryable(true));
    }

    #[test]
    fn backoff_is_exponential_jittered_and_capped() {
        let mut rng = Xorshift64(42);
        for retry in 1..=10u32 {
            let exp = BASE_BACKOFF.saturating_mul(1u32 << (retry - 1).min(16)).min(MAX_BACKOFF);
            for _ in 0..20 {
                let b = backoff(retry, &mut rng);
                assert!(b <= exp, "retry {retry}: {b:?} > {exp:?}");
                assert!(b >= exp / 2, "retry {retry}: {b:?} < half of {exp:?}");
                assert!(b <= MAX_BACKOFF + Duration::from_nanos(1));
            }
        }
    }

    #[test]
    fn retry_budget_bounds_total_wait() {
        // A listener that never accepts or answers, and a 0.9 s socket
        // timeout: each attempt times out after 0.9 s, so the 2 s
        // budget ends the call after 3 attempts, before MAX_ATTEMPTS.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = RetryClient::new(addr).with_timeout(Duration::from_millis(900));
        let started = Instant::now();
        let err = client.ping().unwrap_err();
        let took = started.elapsed();
        assert!(matches!(err, ClientError::Timeout), "{err}");
        // The budget is checked before each backoff, so the call ends
        // at most one attempt past it.
        let bound = RETRY_BUDGET + Duration::from_millis(900 + 500);
        assert!(took < bound, "took {took:?}, more than {bound:?}");
        listener.set_nonblocking(true).unwrap();
        let attempts = std::iter::from_fn(|| listener.accept().ok()).count();
        assert_eq!(
            attempts, 3,
            "the budget must end the call before MAX_ATTEMPTS ({MAX_ATTEMPTS})"
        );
    }
}
