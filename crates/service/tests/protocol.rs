//! Protocol robustness and admission tests: malformed frames,
//! oversized bodies, mid-frame disconnects, pipelined requests, the
//! connection cap, and the client's distinct EOF / timeout errors.

use catalog::catalog::CatalogConfig;
use catalog::lead::{lead_catalog, FIG3_DOCUMENT};
use service::client::ClientError;
use service::{CatalogClient, CatalogServer, MAX_CONNECTIONS};
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
fn deadline_prefix_must_be_a_positive_number() {
    let server = start();
    let mut c = Raw::connect(&server);
    let malformed = || obs::global().counter("service.errors.malformed").get();
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
    let rejected_before = obs::global().counter("service.pool.rejected").get();
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
fn client_timeouts_surface_as_io_errors() {
    // A listener that accepts and never replies.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let t = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        // Hold the connection open, silently, until the client is done.
        let mut buf = [0u8; 64];
        let _ = (&stream).read(&mut buf);
        std::thread::sleep(Duration::from_millis(400));
        drop(stream);
    });
    let mut c = CatalogClient::connect_with_timeout(addr, Duration::from_millis(100)).unwrap();
    let start = std::time::Instant::now();
    match c.ping() {
        Err(ClientError::Io(e)) => {
            assert!(
                matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut),
                "expected a timeout error, got {e:?}"
            );
        }
        other => panic!("expected a timeout Io error, got {other:?}"),
    }
    assert!(start.elapsed() < Duration::from_secs(5), "timeout must fire promptly");
    t.join().unwrap();
}
