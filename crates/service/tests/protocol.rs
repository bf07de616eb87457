//! Protocol robustness and admission tests: malformed frames,
//! oversized bodies, mid-frame disconnects, pipelined requests, the
//! connection cap, and the client's distinct EOF / timeout errors.

use catalog::catalog::CatalogConfig;
use catalog::lead::{lead_catalog, FIG3_DOCUMENT};
use service::client::{ClientError, MAX_ATTEMPTS};
use service::{CatalogClient, CatalogServer, RetryClient, MAX_CONNECTIONS};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn start() -> CatalogServer {
    let cat = Arc::new(lead_catalog(CatalogConfig::default()).unwrap());
    CatalogServer::start(cat, "127.0.0.1:0").unwrap()
}

/// Raw protocol connection for sending deliberately broken frames.
struct Raw {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Raw {
    fn connect(server: &CatalogServer) -> Raw {
        let stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        Raw { reader: BufReader::new(stream.try_clone().unwrap()), writer: stream }
    }

    fn send(&mut self, bytes: &[u8]) {
        self.writer.write_all(bytes).unwrap();
        self.writer.flush().unwrap();
    }

    fn read_line(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).unwrap();
        line.trim_end().to_string()
    }
}

#[test]
fn malformed_length_prefix_is_an_error_not_a_hang() {
    let server = start();
    let mut c = Raw::connect(&server);
    c.send(b"INGEST notanumber\n");
    let reply = c.read_line();
    assert!(reply.starts_with("ERR"), "bad length must be rejected: {reply:?}");
    // The connection survives for the next request.
    c.send(b"PING\n");
    assert_eq!(c.read_line(), "OK pong");
}

#[test]
fn oversized_body_is_rejected_without_allocation() {
    let server = start();
    let mut c = Raw::connect(&server);
    // 1 TiB prefix: must be rejected from the header alone.
    c.send(b"INGEST 1099511627776\n");
    let reply = c.read_line();
    assert!(
        reply.starts_with("ERR") && reply.contains("exceeds"),
        "oversized body must be rejected: {reply:?}"
    );
    c.send(b"PING\n");
    assert_eq!(c.read_line(), "OK pong");
}

#[test]
fn negative_and_garbage_prefixes_are_rejected() {
    let server = start();
    // `ADD nope 10` announces a body, so it sends its 10 bytes.
    for prefix in ["INGEST -5\n", "INGEST \n", "ADD 1 huge\n", "ADD nope 10\n0123456789", "ADD 1\n"]
    {
        let mut c = Raw::connect(&server);
        c.send(prefix.as_bytes());
        let reply = c.read_line();
        assert!(reply.starts_with("ERR"), "{prefix:?} must be rejected, got {reply:?}");
    }
}

#[test]
fn bad_add_id_still_consumes_the_body() {
    let server = start();
    let mut c = Raw::connect(&server);
    // The 10-byte body holds a command line; it must be read as body
    // bytes, not run as a `QUIT`.
    c.send(b"ADD nope 10\nQUIT\nxxxxx");
    assert_eq!(c.read_line(), "ERR bad object id");
    c.send(b"PING\n");
    assert_eq!(c.read_line(), "OK pong", "the connection must stay framed");
}

#[test]
fn bad_deadline_still_consumes_the_body() {
    let server = start();
    let mut c = Raw::connect(&server);
    // The wrapped command announces a 10-byte body holding a command
    // line; it must be read as body bytes, not run as a `QUIT`.
    for frame in [&b"DEADLINE abc INGEST 10\nQUIT\nxxxxx"[..], b"DEADLINE 0 ADD 1 10\nQUIT\nxxxxx"]
    {
        c.send(frame);
        let reply = c.read_line();
        assert!(reply.starts_with("ERR bad deadline"), "{reply:?}");
        c.send(b"PING\n");
        assert_eq!(c.read_line(), "OK pong", "the connection must stay framed");
    }
}

#[test]
fn valid_deadline_on_a_mutation_reads_and_stores_the_body() {
    let server = start();
    let mut c = Raw::connect(&server);
    let doc = FIG3_DOCUMENT.as_bytes();
    let mut frame = format!("DEADLINE 5000 INGEST {}\n", doc.len()).into_bytes();
    frame.extend_from_slice(doc);
    c.send(&frame);
    let reply = c.read_line();
    let id: i64 = reply
        .strip_prefix("OK ")
        .and_then(|id| id.parse().ok())
        .unwrap_or_else(|| panic!("INGEST under a deadline: {reply:?}"));
    c.send(b"PING\n");
    assert_eq!(c.read_line(), "OK pong", "the connection must stay framed");

    let fragment = "<theme><themekt>CF</themekt><themekey>prefixed</themekey></theme>";
    c.send(format!("DEADLINE 5000 ADD {id} {}\n{fragment}", fragment.len()).as_bytes());
    assert_eq!(c.read_line(), "OK", "ADD under a deadline");
    c.send(b"PING\n");
    assert_eq!(c.read_line(), "OK pong", "the connection must stay framed");

    let mut client = CatalogClient::connect(server.addr()).unwrap();
    assert_eq!(client.query("grid@ARPS[dx=1000]").unwrap(), vec![id], "the document is stored");
    assert_eq!(
        client.query("theme[themekey='prefixed']").unwrap(),
        vec![id],
        "so is the attribute"
    );
}

#[test]
fn overlong_command_line_is_refused_and_closed() {
    let server = start();
    let oversized = || obs::names::SERVICE_ERRORS_OVERSIZED.get();
    let before = oversized();
    let mut c = Raw::connect(&server);
    // One byte past the 1 MiB cap and no `\n`: the server has read
    // every byte sent when it refuses, so it closes cleanly.
    c.send(&vec![b'A'; (1 << 20) + 1]);
    let reply = c.read_line();
    assert!(reply.starts_with("ERR command line exceeds"), "{reply:?}");
    let mut rest = Vec::new();
    c.reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "the connection must close after the refusal");
    // Other tests in this binary may bump the counter too.
    assert!(oversized() > before, "the refusal counts as oversized");
    let mut fresh = Raw::connect(&server);
    fresh.send(b"PING\n");
    assert_eq!(fresh.read_line(), "OK pong");
}

#[test]
fn deadline_prefix_must_be_a_positive_number() {
    let server = start();
    let mut c = Raw::connect(&server);
    let malformed = || obs::names::SERVICE_ERRORS_MALFORMED.get();
    let before = malformed();
    // `DEADLINE 0` would otherwise lift the server's default deadline.
    for ms in ["abc", "0"] {
        c.send(format!("DEADLINE {ms} QUERY grid@ARPS[dx=1000]\n").as_bytes());
        let reply = c.read_line();
        assert!(reply.starts_with("ERR bad deadline"), "DEADLINE {ms}: {reply:?}");
    }
    // Other tests in this binary may bump the counter too.
    assert!(malformed() >= before + 2, "both rejections count as malformed");
    c.send(b"DEADLINE 5000 QUERY grid@ARPS[dx=1000]\n");
    let reply = c.read_line();
    assert!(reply.starts_with("OK"), "a positive deadline is accepted: {reply:?}");
}

#[test]
fn mid_frame_disconnect_leaves_server_healthy() {
    let server = start();
    {
        let mut c = Raw::connect(&server);
        // Promise 1000 body bytes, send 10, then vanish.
        c.send(b"INGEST 1000\n<LEADreso");
    } // dropped: mid-frame disconnect
    {
        // Promise a body and send nothing at all.
        let mut c = Raw::connect(&server);
        c.send(b"ADD 1 50\n");
    }
    // The server keeps serving new connections correctly.
    let mut c = CatalogClient::connect(server.addr()).unwrap();
    let id = c.ingest(FIG3_DOCUMENT).unwrap();
    assert_eq!(c.query("grid@ARPS[dx=1000]").unwrap(), vec![id]);
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let server = start();
    let mut c = Raw::connect(&server);
    // Three commands in one write; replies must come back in order.
    c.send(b"PING\nPING\nSTATS\n");
    assert_eq!(c.read_line(), "OK pong");
    assert_eq!(c.read_line(), "OK pong");
    let stats = c.read_line();
    assert!(stats.starts_with("OK objects="), "pipelined STATS reply: {stats:?}");
    // Pipeline a body-carrying request followed by another command.
    let doc = FIG3_DOCUMENT.as_bytes();
    let mut frame = format!("INGEST {}\n", doc.len()).into_bytes();
    frame.extend_from_slice(doc);
    frame.extend_from_slice(b"PING\n");
    c.send(&frame);
    assert_eq!(c.read_line(), "OK 1");
    assert_eq!(c.read_line(), "OK pong");
}

#[test]
fn connection_cap_rejects_with_busy_and_frees_on_quit() {
    let server = start();
    let rejected_before = obs::names::SERVICE_POOL_REJECTED.get();
    // Fill every connection slot; a PING round trip on the last one
    // proves the accept thread has counted them all.
    let _open: Vec<TcpStream> = (1..MAX_CONNECTIONS)
        .map(|_| TcpStream::connect(server.addr()).unwrap())
        .collect();
    let mut last = Raw::connect(&server);
    last.send(b"PING\n");
    assert_eq!(last.read_line(), "OK pong");
    // One more is refused at once, not stalled.
    let mut refused = Raw::connect(&server);
    assert_eq!(refused.read_line(), "ERR busy");
    // The refusal is counted and visible in STATS. (Other tests in
    // this binary may bump the counter too.)
    last.send(b"STATS\n");
    let stats = last.read_line();
    assert!(stats.contains("service.pool.size="), "permit count in STATS: {stats}");
    let rejected: u64 = stats
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix("service.pool.rejected="))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("service.pool.rejected missing from STATS: {stats}"));
    assert!(rejected > rejected_before, "the refused connection must be counted: {stats}");

    // One QUIT frees a slot: a new connection is served once the
    // quitting connection's thread has ended.
    last.send(b"QUIT\n");
    assert_eq!(last.read_line(), "OK bye");
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        match CatalogClient::connect(server.addr()).and_then(|mut c| c.ping()) {
            Ok(()) => break,
            Err(e) if std::time::Instant::now() < deadline => {
                // Refused while the slot is still held: back off.
                assert!(!matches!(e, ClientError::Server(_)), "unexpected reply: {e:?}");
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => panic!("a freed slot must admit a new connection, got {e:?}"),
        }
    }
}

#[test]
fn client_reports_eof_distinctly() {
    // A listener that accepts and immediately hangs up.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let t = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        drop(stream);
    });
    let mut c = CatalogClient::connect(addr).unwrap();
    t.join().unwrap();
    match c.ping() {
        Err(ClientError::Eof) => {}
        other => panic!("expected ClientError::Eof, got {other:?}"),
    }
}

#[test]
fn client_timeouts_surface_as_typed_timeout_errors() {
    // A listener that accepts and never replies.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mut c = CatalogClient::connect_with_timeout(addr, Duration::from_millis(100)).unwrap();
    // Hold the accepted connection open, silently, until the client is done.
    let (_silent, _) = listener.accept().unwrap();
    let start = std::time::Instant::now();
    match c.ping() {
        Err(ClientError::Timeout) => {}
        other => panic!("expected ClientError::Timeout, got {other:?}"),
    }
    assert!(start.elapsed() < Duration::from_secs(5), "timeout must fire promptly");
}

#[test]
fn retry_client_reconnects_after_a_timeout() {
    // A listener that never accepts or replies: every attempt times out.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mut client = RetryClient::new(addr).with_timeout(Duration::from_millis(50));
    let err = client.ping().unwrap_err();
    assert!(matches!(err, ClientError::Timeout), "expected Timeout, got {err:?}");
    // Each retry opened a new connection rather than waiting on the
    // timed-out one, where a late reply could answer the wrong request.
    listener.set_nonblocking(true).unwrap();
    let connections = std::iter::from_fn(|| listener.accept().ok()).count();
    assert_eq!(connections, MAX_ATTEMPTS as usize, "one connection per attempt");
}
