//! Library mode: the traced run's in-process replay.
//!
//! Each request makes the public calls the server makes for it, with a
//! root span `req.<op>` and a child span around every call into a
//! layer. For an ingest the document is also parsed on its own first,
//! in a span `xmlkit.parse` outside the request, so the parse share of
//! `MetadataCatalog::shred_only` can be attributed: shred self time is
//! that call's time minus the separate parse.

use crate::gen::{Req, PAGE};
use crate::trace::Tracer;
use catalog::catalog::MetadataCatalog;
use catalog::qparse::parse_query;
use catalog::reqctx::RequestCtx;
use catalog::response::{build_documents_ctx, build_response_envelope_ctx};
use std::time::Duration;
use xmlkit::dom::Document;

/// The server's default request deadline.
const DEADLINE: Duration = Duration::from_millis(5_000);

/// Which part of the library phase a request belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// The traced set-up load.
    Load,
    /// Replay of the wire requests.
    Replay,
    /// The fixed read probe every workload runs.
    Probe,
}

/// Facts about one library-mode request that spans do not carry.
#[derive(Debug, Clone)]
pub struct LibReq {
    pub req: u64,
    pub op: &'static str,
    pub phase: Phase,
    /// Pool of a lookup QUERY (`None` otherwise).
    pub hot: Option<bool>,
    /// Documents a SEARCH or FETCH returned.
    pub docs_out: usize,
    /// Bytes of the assembled response (SEARCH/FETCH).
    pub bytes_out: usize,
    /// XML bytes ingested.
    pub xml_in: usize,
    pub ok: bool,
}

impl LibReq {
    fn new(req: u64, op: &'static str, phase: Phase) -> LibReq {
        LibReq { req, op, phase, hot: None, docs_out: 0, bytes_out: 0, xml_in: 0, ok: true }
    }
}

/// Run `req` in-process, recording spans into `t`.
pub fn serve(
    cat: &MetadataCatalog,
    req: &Req,
    ingest_set: &[String],
    phase: Phase,
    t: &mut Tracer,
    log: &mut Vec<LibReq>,
) {
    match req {
        Req::Query { dsl, hot } => {
            let mut r = query(cat, dsl, phase, t).0;
            r.hot = *hot;
            log.push(r);
        }
        Req::Search { dsl } => {
            let rid = t.request_id();
            let mut r = LibReq::new(rid, "search", phase);
            r.ok = t.span(rid, "req.search", |t| {
                let ctx = RequestCtx::deadline_in(DEADLINE).describe(dsl.as_str());
                let Ok(q) = t.span(rid, "qparse.parse", |_| parse_query(dsl)) else { return false };
                let Ok(ids) = t.span(rid, "match.query", |_| cat.query_ctx(&q, &ctx)) else {
                    return false;
                };
                let env = t.span(rid, "response.search", |_| {
                    build_response_envelope_ctx(cat.db(), &ids, &ctx)
                });
                match env {
                    Ok(env) => {
                        r.docs_out = ids.len();
                        r.bytes_out = env.len();
                        true
                    }
                    Err(_) => false,
                }
            });
            log.push(r);
        }
        Req::Page { dsl } => {
            let (r, ids) = query(cat, dsl, phase, t);
            log.push(r);
            let page: Vec<i64> = ids.into_iter().take(PAGE).collect();
            if !page.is_empty() {
                log.push(fetch(cat, &page, phase, t));
            }
        }
        Req::Ingest(i) => log.push(ingest(cat, &ingest_set[*i], phase, t)),
        Req::Checkpoint => {
            let rid = t.request_id();
            let mut r = LibReq::new(rid, "checkpoint", phase);
            r.ok = t.span(rid, "req.checkpoint", |t| {
                t.span(rid, "wal.checkpoint", |_| cat.checkpoint()).is_ok()
            });
            log.push(r);
        }
    }
}

/// QUERY: parse, match, and format the reply line as the server does.
fn query(cat: &MetadataCatalog, dsl: &str, phase: Phase, t: &mut Tracer) -> (LibReq, Vec<i64>) {
    let rid = t.request_id();
    let mut r = LibReq::new(rid, "query", phase);
    let ids = t.span(rid, "req.query", |t| {
        let ctx = RequestCtx::deadline_in(DEADLINE).describe(dsl);
        let q = t.span(rid, "qparse.parse", |_| parse_query(dsl)).ok()?;
        let ids = t.span(rid, "match.query", |_| cat.query_ctx(&q, &ctx)).ok()?;
        let list: Vec<String> = ids.iter().map(|i| i.to_string()).collect();
        std::hint::black_box(format!("OK {} {}\n", ids.len(), list.join(" ")));
        Some(ids)
    });
    r.ok = ids.is_some();
    (r, ids.unwrap_or_default())
}

/// FETCH: rebuild the documents and wrap them as the server does.
fn fetch(cat: &MetadataCatalog, ids: &[i64], phase: Phase, t: &mut Tracer) -> LibReq {
    let rid = t.request_id();
    let mut r = LibReq::new(rid, "fetch", phase);
    r.ok = t.span(rid, "req.fetch", |t| {
        let ctx = RequestCtx::deadline_in(DEADLINE);
        let Ok(docs) = t.span(rid, "response.fetch", |_| build_documents_ctx(cat.db(), ids, &ctx))
        else {
            return false;
        };
        let mut out = String::from("<results>");
        for (id, doc) in &docs {
            out.push_str(&format!("<object id=\"{id}\">"));
            out.push_str(doc);
            out.push_str("</object>");
        }
        out.push_str("</results>");
        r.docs_out = docs.len();
        r.bytes_out = out.len();
        true
    });
    r
}

/// INGEST: the separate attribution parse, then shred and apply.
fn ingest(cat: &MetadataCatalog, xml: &str, phase: Phase, t: &mut Tracer) -> LibReq {
    let rid = t.request_id();
    let mut r = LibReq::new(rid, "ingest", phase);
    r.xml_in = xml.len();
    let parsed = t.span(rid, "xmlkit.parse", |_| Document::parse(xml).map(std::hint::black_box));
    r.ok = parsed.is_ok()
        && t.span(rid, "req.ingest", |t| {
            let Ok(sh) = t.span(rid, "catalog.shred", |_| cat.shred_only(xml)) else {
                return false;
            };
            t.span(rid, "store.apply", |_| cat.apply(&sh, None, None)).is_ok()
        });
    r
}

/// The traced set-up load: what `ingest_batch(.., 2)` does through
/// public calls — parse and shred on two threads, then apply in corpus
/// order — followed by the checkpoint. Tracers 0 and 1 shred, `main`
/// applies.
pub fn load(
    cat: &MetadataCatalog,
    corpus: &[String],
    main: &mut Tracer,
    shredders: [&mut Tracer; 2],
    log: &mut Vec<LibReq>,
) -> Result<(), String> {
    let half = corpus.len().div_ceil(2);
    let parts: Vec<Vec<_>> = std::thread::scope(|s| {
        let handles: Vec<_> = corpus
            .chunks(half.max(1))
            .zip(shredders)
            .map(|(part, t)| {
                s.spawn(move || {
                    part.iter()
                        .map(|xml| {
                            let rid = t.request_id();
                            let parsed = t.span(rid, "xmlkit.parse", |_| {
                                Document::parse(xml).map(std::hint::black_box)
                            });
                            let sh = t.span(rid, "req.load", |t| {
                                t.span(rid, "catalog.shred", |_| cat.shred_only(xml))
                            });
                            (rid, xml.len(), parsed.is_ok(), sh)
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("shred thread panicked")).collect()
    });
    for (rid, len, parsed, sh) in parts.into_iter().flatten() {
        let sh = sh.map_err(|e| format!("shred: {e}"))?;
        let mut r = LibReq::new(rid, "load", Phase::Load);
        r.xml_in = len;
        r.ok = parsed;
        main.span(rid, "store.apply", |_| cat.apply(&sh, None, None))
            .map_err(|e| format!("apply: {e}"))?;
        log.push(r);
    }
    let rid = main.request_id();
    let mut r = LibReq::new(rid, "checkpoint", Phase::Load);
    r.ok = main.span(rid, "req.checkpoint", |t| {
        t.span(rid, "wal.checkpoint", |_| cat.checkpoint()).is_ok()
    });
    log.push(r);
    Ok(())
}
