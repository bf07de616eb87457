//! Wire-level catalog benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path catbench/Cargo.toml -- \
//!     --workload <lookup|retrieve|ingest|mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run generates its corpus and request streams from `--seed`,
//! then does a warm-up round and [`ROUNDS`] measured rounds. A round
//! sets up a fresh durable catalog
//! (timed: `setup_s`), serves it on loopback, drives it from two
//! closed-loop `CatalogClient` connections for its share of `--seconds`
//! (the write workloads instead until their fixed document set is
//! acknowledged), then checks a seeded sample of the replies. See
//! `README.md` for the workloads and metrics.
//!
//! With `--trace 1` the wire windows alternate untraced and traced
//! slots, and a library-mode phase replays the last round's requests
//! in-process with a span around every call into a layer; the run then
//! reports per-layer metrics instead of end-to-end ones and writes its
//! spans to `.bench_out/`.
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! The exit code is 0 only when every request succeeded and every
//! check passed.

mod check;
mod gen;
mod library;
mod stats;
mod trace;
mod wire;

use gen::{Pools, Req, Workload, CORPUS_DOCS};
use library::{LibReq, Phase};
use stats::{mean, median, percentile};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;
use trace::{SpanRec, Tracer};
use wire::{Conn, ConnResult, Op, Sample, CONNECTIONS};
use xmlkit::dom::Document;

/// Measured set-ups (and windows) per run. An extra first round warms
/// the process up (heap growth, first-touch page faults) and is not
/// reported; without it the first round ran about 10 % slower.
const ROUNDS: usize = 3;
/// `ingest` ingests this many new documents per second of window.
const INGEST_DOCS_PER_S: f64 = 2_800.0;
/// `mixed`'s writer ingests this many new documents per second of window.
const MIXED_DOCS_PER_S: f64 = 400.0;
/// Acknowledged ingests between CHECKPOINTs in `ingest`: one per round
/// at `--seconds 10`, so the window is not mostly snapshot writing.
const CHECKPOINT_EVERY: usize = 8_000;
/// Replayed-in-process read probe of the traced run: lookup QUERYs,
/// SEARCHes and pages.
const PROBE_QUERIES: usize = 64;
const PROBE_SEARCHES: usize = 8;
const PROBE_PAGES: usize = 8;
/// Distinct lookup queries `EXPLAIN ANALYZE` samples.
const EXPLAIN_SAMPLE: usize = 32;
/// Acknowledged ingests re-read after reopening the directory.
const REOPEN_SAMPLE: usize = 8;
/// Working directories, relative to the directory the benchmark runs in.
const DATA_DIR: &str = ".bench_data";
const OUT_DIR: &str = ".bench_out";

/// The percentile the `round` lines report as `tail_us`.
const TAIL_PCT: f64 = 90.0;

/// The percentile the per-op `<op>_tail_us` lines report, fixed per
/// (op, workload) the same way.
fn op_tail_pct(w: Workload, op: Op) -> f64 {
    match (w, op) {
        (Workload::Lookup, Op::Query) => 99.0,
        (Workload::Retrieve, Op::Search) => 95.0,
        (Workload::Retrieve, _) => 90.0,
        (Workload::Ingest, _) => 99.0,
        (Workload::Mixed, Op::Query) => 95.0,
        (Workload::Mixed, Op::Ingest) => 99.0,
        _ => 90.0,
    }
}

#[derive(Clone, Copy)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds {s} out of range"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn main() {
    let code = match parse_args().and_then(|a| run(&a)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("catbench: {e}");
            2
        }
    };
    let _ = std::fs::remove_dir_all(DATA_DIR);
    std::process::exit(code);
}

/// Inputs shared by every round of a run.
struct Inputs {
    args: Args,
    gen: workload::DocGenerator,
    corpus: Vec<String>,
    corpus_dom: Vec<Document>,
    corpus_bytes: usize,
    pools: Pools,
    ingest_set: Vec<String>,
    window_s: f64,
}

/// What one round measured.
struct Round {
    setup_s: f64,
    window_s: f64,
    /// The round's median latency of its data requests, and process
    /// CPU time per completed one.
    p50_us: f64,
    cpu_us_per_op: f64,
    samples: Vec<Sample>,
    conns: Vec<ConnResult>,
    space_amp: f64,
    mismatches: Vec<String>,
    /// Shed and error counters of the server, as deltas over the window.
    shed: u64,
    spans: Vec<SpanRec>,
}

fn run(a: &Args) -> Result<i32, String> {
    let args = *a;
    let gen = gen::doc_generator(args.seed);
    let checked = gen::self_test(&gen, args.seed)?;
    let corpus = gen.corpus(CORPUS_DOCS);
    let corpus_dom = corpus
        .iter()
        .map(|x| Document::parse(x).map_err(|e| format!("corpus: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let corpus_bytes = corpus.iter().map(String::len).sum();
    let pools = Pools::new(&gen, args.seed);
    let window_s = args.seconds / ROUNDS as f64;
    let ingest_docs = match args.workload {
        Workload::Ingest => ((INGEST_DOCS_PER_S * window_s) as usize).max(CONNECTIONS),
        Workload::Mixed => ((MIXED_DOCS_PER_S * window_s) as usize).max(1),
        _ => 0,
    };
    let ingest_set = (0..ingest_docs).map(|i| gen.generate(CORPUS_DOCS + i)).collect();
    let inp = Inputs { args, gen, corpus, corpus_dom, corpus_bytes, pools, ingest_set, window_s };
    println!(
        "catbench workload={} seed={} seconds={} trace={} rounds={ROUNDS} corpus_docs={CORPUS_DOCS} \
         corpus_bytes={} ingest_docs_per_round={ingest_docs} connections={CONNECTIONS} render_self_test={checked}",
        inp.args.workload.name(),
        inp.args.seed,
        inp.args.seconds,
        inp.args.trace as u8,
        inp.corpus_bytes,
    );

    let _ = std::fs::remove_dir_all(DATA_DIR);
    let epoch = Instant::now();
    let warm_up = round(&inp, 0, epoch)?;
    let mut rounds = Vec::with_capacity(ROUNDS);
    for r in 1..=ROUNDS {
        rounds.push(round(&inp, r, epoch)?);
    }

    let samples: Vec<Sample> = rounds.iter().flat_map(|r| r.samples.iter().copied()).collect();
    let failed_reqs = samples.iter().filter(|s| s.us.is_infinite()).count();
    let mismatches: Vec<&String> = rounds.iter().flat_map(|r| &r.mismatches).collect();
    for m in &mismatches {
        eprintln!("catbench: mismatch: {m}");
    }
    for f in rounds.iter().flat_map(|r| r.conns.iter().flat_map(|c| &c.failures)).take(10) {
        eprintln!("catbench: failed request: {f}");
    }
    // The warm-up round's requests and checks still count as attempted
    // and failed.
    let warm_failed = warm_up.samples.iter().filter(|s| s.us.is_infinite()).count();
    for m in &warm_up.mismatches {
        eprintln!("catbench: mismatch in warm-up: {m}");
    }
    let mut attempted = samples.len() + warm_up.samples.len();
    let mut failed = failed_reqs + mismatches.len() + warm_failed + warm_up.mismatches.len();
    let window_total: f64 = rounds.iter().map(|r| r.window_s).sum();

    report_ops(&inp, &rounds, &samples, window_total, failed, attempted);

    let metrics: Vec<(&str, f64, &str)> = if inp.args.trace {
        let last = rounds.last().expect("at least one round");
        let lib = library_phase(&inp, last, epoch)?;
        // A call that fails in-process is as wrong as a failed reply.
        let lib_failed = lib.log.iter().filter(|r| !r.ok).count();
        if lib_failed > 0 {
            eprintln!("catbench: {lib_failed} library-mode requests failed");
        }
        attempted += lib.log.len();
        failed += lib_failed;
        let reply_bytes = rounds.iter().flat_map(|r| &r.conns).map(|c| c.reply_bytes).sum();
        let mut spans: Vec<SpanRec> = rounds.into_iter().flat_map(|r| r.spans).collect();
        let m = layer_metrics(&samples, reply_bytes, &lib)?;
        spans.extend(lib.spans);
        let path = Path::new(OUT_DIR).join(format!(
            "trace-{}-{}.tsv",
            inp.args.workload.name(),
            inp.args.seed
        ));
        trace::write_tsv(&path, &spans).map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("spans={} written={}", spans.len(), path.display());
        m
    } else {
        // Each figure is the median over the measured rounds, so a burst
        // of interference that slows one round does not move it.
        let over_rounds = |f: fn(&Round) -> f64| -> f64 {
            median(&rounds.iter().map(f).collect::<Vec<_>>()).expect("at least one round")
        };
        vec![
            ("setup_s", over_rounds(|r| r.setup_s), "s"),
            ("p50_us", over_rounds(|r| r.p50_us), "us"),
            ("cpu_us_per_op", over_rounds(|r| r.cpu_us_per_op), "us"),
            ("space_amp", over_rounds(|r| r.space_amp), "ratio"),
        ]
    };

    let correct = failed == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_num(*v))
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(if correct { 0 } else { 1 })
}

/// A JSON number (a failed request's infinite latency becomes 1e300).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "1e300".into()
    }
}

/// Run one round: set up, drive the window, check, tear down.
fn round(inp: &Inputs, r: usize, epoch: Instant) -> Result<Round, String> {
    let a = &inp.args;
    let dir = Path::new(DATA_DIR).join(format!("round-{r}"));
    let mut served = wire::setup(&dir, &inp.gen, &inp.corpus)?;
    let setup_s = served.setup_s;
    let objects_before = if a.workload.writes() {
        let s = served.clients[0].stats().map_err(|e| format!("STATS: {e}"))?;
        wire::stat(&s, "objects").ok_or("STATS has no object count")?
    } else {
        0
    };
    let kv0 = obs::global().snapshot_kv();
    let stop = AtomicBool::new(false);
    let mut tracers: Vec<Option<Tracer>> = (0..CONNECTIONS)
        .map(|c| a.trace.then(|| Tracer::new(epoch, 10 + (r * CONNECTIONS + c) as u64)))
        .collect();
    let cpu0 = process_cpu_s()?;
    let start = Instant::now();
    let deadline = start + std::time::Duration::from_secs_f64(inp.window_s);
    let conns: Vec<ConnResult> = std::thread::scope(|s| {
        let handles: Vec<_> = served
            .clients
            .iter_mut()
            .zip(tracers.iter_mut())
            .enumerate()
            .map(|(c, (client, tracer))| {
                let stream = gen::stream(
                    a.workload,
                    &inp.pools,
                    a.seed,
                    r,
                    c,
                    inp.ingest_set.len(),
                    CHECKPOINT_EVERY,
                );
                let stop = &stop;
                let conn = Conn {
                    client,
                    ingest_set: &inp.ingest_set,
                    deadline,
                    stop,
                    tracer: tracer.as_mut(),
                    sample_seed: a.seed ^ ((r * CONNECTIONS + c) as u64) << 32,
                };
                s.spawn(move || {
                    let out = conn.run(stream, start);
                    if a.workload == Workload::Mixed && c == 0 {
                        stop.store(true, Ordering::SeqCst);
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect()
    });
    let window_s = start.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s()? - cpu0;
    let kv1 = obs::global().snapshot_kv();
    let shed =
        delta(&kv0, &kv1, |k| k.starts_with("service.shed.") || k == "service.pool.rejected");

    let acks: Vec<(usize, i64)> = conns.iter().flat_map(|c| c.acks.iter().copied()).collect();
    let acked_bytes: usize = acks.iter().map(|(i, _)| inp.ingest_set[*i].len()).sum();
    let space_amp = served.catalog.approx_bytes() as f64 / (inp.corpus_bytes + acked_bytes) as f64;

    let mut mismatches = Vec::new();
    let truth = check::Truth::new(
        &inp.corpus_dom,
        &inp.corpus,
        &served.ids,
        &inp.ingest_set,
        acks.iter().copied(),
    );
    for (k, reply) in conns.iter().flat_map(|c| &c.replies).enumerate() {
        if let Err(e) = truth.check_reply(reply, (a.seed as usize).wrapping_add(k * 7)) {
            mismatches.push(format!("round {r}: {e}"));
        }
    }
    if a.workload.writes() {
        let s = served.clients[0].stats().map_err(|e| format!("STATS: {e}"))?;
        let after = wire::stat(&s, "objects").ok_or("STATS has no object count")?;
        if after - objects_before != acks.len() as u64 {
            mismatches.push(format!(
                "round {r}: STATS object delta {} != {} acknowledged ingests",
                after - objects_before,
                acks.len()
            ));
        }
    }
    for client in served.clients.drain(..) {
        let _ = client.quit();
    }
    served.server.stop();
    let ids = std::mem::take(&mut served.ids);
    drop(served);

    if a.workload.writes() {
        // The stopped server checkpointed; reopening must recover every
        // acknowledged ingest.
        let reopened = wire::open_catalog(&dir)?;
        let objects = reopened.stats().objects;
        if objects != CORPUS_DOCS + acks.len() {
            mismatches.push(format!(
                "round {r}: reopened catalog holds {objects} objects, expected {}",
                CORPUS_DOCS + acks.len()
            ));
        }
        let step = (acks.len() / REOPEN_SAMPLE).max(1);
        let sample: Vec<i64> = acks.iter().step_by(step).map(|(_, id)| *id).collect();
        let truth = check::Truth::new(
            &inp.corpus_dom,
            &inp.corpus,
            &ids,
            &inp.ingest_set,
            acks.iter().copied(),
        );
        match reopened.fetch_documents(&sample) {
            Ok(docs) => {
                for (id, xml) in docs {
                    if let Err(e) = truth.check_document(id, &xml) {
                        mismatches.push(format!("round {r}: after reopen: {e}"));
                    }
                }
            }
            Err(e) => mismatches.push(format!("round {r}: fetch after reopen: {e}")),
        }
    }
    std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;

    let us: Vec<f64> =
        samples_of(&conns).filter(|s| s.op != Op::Checkpoint).map(|s| s.us).collect();
    let ok = us.iter().filter(|u| u.is_finite()).count();
    let (p50_us, tail_us) = match (median(&us), percentile(&us, TAIL_PCT)) {
        (Some(p50), Some(tail)) => (p50, tail),
        _ => return Err(format!("round {r} completed no requests")),
    };
    let cpu_us_per_op = cpu_s * 1e6 / ok.max(1) as f64;
    println!(
        "round {r} setup_s={setup_s:.4} window_s={window_s:.3} ops={ok} ops_per_s={:.1} \
         p50_us={p50_us:.1} tail_us={tail_us:.1} p95_us={:.1} p99_us={:.1} cpu_us_per_op={cpu_us_per_op:.1}",
        ok as f64 / window_s,
        percentile(&us, 95.0).unwrap_or(f64::NAN),
        percentile(&us, 99.0).unwrap_or(f64::NAN),
    );
    let samples = samples_of(&conns).collect();
    let spans = tracers.into_iter().flatten().flat_map(|t| t.spans).collect();
    Ok(Round {
        setup_s,
        window_s,
        p50_us,
        cpu_us_per_op,
        samples,
        conns,
        space_amp,
        mismatches,
        shed,
        spans,
    })
}

fn samples_of(conns: &[ConnResult]) -> impl Iterator<Item = Sample> + '_ {
    conns.iter().flat_map(|c| c.samples.iter().copied())
}

/// CPU time this process has used, all threads (dead ones included),
/// from the `utime` and `stime` fields of `/proc/self/stat`. Linux
/// reports them in USER_HZ = 100 ticks per second, and leaves out time
/// a hypervisor stole from the virtual CPU.
fn process_cpu_s() -> Result<f64, String> {
    let stat =
        std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).ok_or("malformed /proc/self/stat")?;
    let f: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the line; the state
    // (field 3) is index 0 here.
    let ticks =
        |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok()).ok_or("malformed /proc/self/stat");
    Ok((ticks(11)? + ticks(12)?) as f64 / 100.0)
}

/// Sum of the counters selected by `pick`, `after` minus `before`.
fn delta(before: &[(String, u64)], after: &[(String, u64)], pick: impl Fn(&str) -> bool) -> u64 {
    let b: HashMap<&str, u64> = before.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    after
        .iter()
        .filter(|(k, _)| pick(k))
        .map(|(k, v)| v.saturating_sub(b.get(k.as_str()).copied().unwrap_or(0)))
        .sum()
}

/// Print the per-op end-to-end table and the named metrics, each with
/// its unit and sample count.
fn report_ops(
    inp: &Inputs,
    rounds: &[Round],
    samples: &[Sample],
    window_total: f64,
    failed: usize,
    attempted: usize,
) {
    let w = inp.args.workload;
    let setups: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    println!("metric setup_s {:.4} s n={}", median(&setups).unwrap_or(f64::NAN), setups.len());
    for op in Op::DATA.into_iter().chain([Op::Checkpoint]) {
        let us: Vec<f64> = samples.iter().filter(|s| s.op == op).map(|s| s.us).collect();
        if us.is_empty() {
            continue;
        }
        let pct = op_tail_pct(w, op);
        let (p50, tail) =
            (median(&us).unwrap_or(f64::NAN), percentile(&us, pct).unwrap_or(f64::NAN));
        println!("metric {}_p50_us {p50:.1} us n={}", op.name(), us.len());
        println!("metric {}_tail_us {tail:.1} us n={} percentile=p{pct}", op.name(), us.len());
    }
    let ok =
        |ops: &[Op]| samples.iter().filter(|s| ops.contains(&s.op) && s.us.is_finite()).count();
    let reads = ok(&[Op::Query, Op::Search, Op::Fetch]);
    println!("metric reads_per_s {:.1} 1/s n={reads}", reads as f64 / window_total);
    let docs = ok(&[Op::Ingest]);
    println!("metric ingest_docs_per_s {:.1} 1/s n={docs}", docs as f64 / window_total);
    println!(
        "metric error_rate {:.6} ratio n={attempted} failed={failed}",
        failed as f64 / attempted.max(1) as f64
    );
    let amps: Vec<f64> = rounds.iter().map(|r| r.space_amp).collect();
    println!("metric space_amp {:.4} ratio n={}", median(&amps).unwrap_or(f64::NAN), amps.len());
    let shed: u64 = rounds.iter().map(|r| r.shed).sum();
    let checked: usize = rounds.iter().flat_map(|r| &r.conns).map(|c| c.replies.len()).sum();
    println!(
        "checks replies={checked} mismatches={} shed={shed}",
        rounds.iter().map(|r| r.mismatches.len()).sum::<usize>()
    );
}

/// What the traced run's library phase recorded.
struct Lib {
    spans: Vec<SpanRec>,
    log: Vec<LibReq>,
    /// Program counters, as deltas over the phase.
    kv: Vec<(String, u64)>,
    kv_before: Vec<(String, u64)>,
    /// Rows the sampled match plans examined, and the hits they found.
    rows_examined: u64,
    explain_hits: u64,
    disk_bytes: u64,
}

/// The traced run's library phase on a fresh directory: the set-up
/// load, a replay of the last round's requests on two threads, and
/// the read probe.
fn library_phase(inp: &Inputs, last: &Round, epoch: Instant) -> Result<Lib, String> {
    let dir = Path::new(DATA_DIR).join("library");
    let _ = std::fs::remove_dir_all(&dir);
    let cat = wire::open_catalog(&dir)?;
    inp.gen.register_defs(&cat).map_err(|e| format!("register definitions: {e}"))?;
    let kv_before = obs::global().snapshot_kv();
    let mut main_t = Tracer::new(epoch, 0);
    let (mut s0, mut s1) = (Tracer::new(epoch, 1), Tracer::new(epoch, 2));
    let mut log = Vec::new();
    library::load(&cat, &inp.corpus, &mut main_t, [&mut s0, &mut s1], &mut log)?;

    let replayed: Vec<(Tracer, Vec<LibReq>)> = std::thread::scope(|s| {
        let handles: Vec<_> = last
            .conns
            .iter()
            .enumerate()
            .map(|(c, conn)| {
                let (cat, set) = (&cat, &inp.ingest_set);
                s.spawn(move || {
                    let mut t = Tracer::new(epoch, 3 + c as u64);
                    let mut log = Vec::new();
                    for req in &conn.sent {
                        library::serve(cat, req, set, Phase::Replay, &mut t, &mut log);
                    }
                    (t, log)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("replay thread panicked")).collect()
    });

    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(inp.args.seed ^ 0x9_0be);
    let mut probe: Vec<Req> = (0..PROBE_QUERIES)
        .map(|k| {
            let (dsl, hot) = inp.pools.lookup(k, &mut rng);
            Req::Query { dsl, hot: Some(hot) }
        })
        .collect();
    probe.extend((0..PROBE_SEARCHES).map(|_| Req::Search { dsl: inp.pools.range(&mut rng) }));
    probe.extend((0..PROBE_PAGES).map(|_| Req::Page { dsl: inp.pools.range(&mut rng) }));
    for req in &probe {
        library::serve(&cat, req, &inp.ingest_set, Phase::Probe, &mut main_t, &mut log);
    }
    let kv_after = obs::global().snapshot_kv();

    // Off the timed path: rows the match plans of distinct lookup
    // queries examine, from EXPLAIN ANALYZE.
    let (mut rows_examined, mut explain_hits) = (0u64, 0u64);
    let per_pool = EXPLAIN_SAMPLE / 2 / inp.pools.hot.len();
    let sample = inp
        .pools
        .hot
        .iter()
        .chain(&inp.pools.cold)
        .flat_map(|p| p.iter().take(per_pool));
    for dsl in sample {
        let q = catalog::qparse::parse_query(dsl).map_err(|e| format!("{dsl}: {e}"))?;
        let hits = cat.query(&q).map_err(|e| format!("{dsl}: {e}"))?.len() as u64;
        let text = cat.explain_analyze(&q).map_err(|e| format!("{dsl}: {e}"))?;
        rows_examined += leaf_rows(&text);
        explain_hits += hits;
    }
    drop(cat);
    let disk_bytes = dir_bytes(&dir);
    let _ = std::fs::remove_dir_all(&dir);

    let mut spans = main_t.spans;
    spans.extend(s0.spans);
    spans.extend(s1.spans);
    for (t, l) in replayed {
        spans.extend(t.spans);
        log.extend(l);
    }
    Ok(Lib { spans, log, kv: kv_after, kv_before, rows_examined, explain_hits, disk_bytes })
}

/// Rows emitted by the access-path leaves (scans and index lookups) of
/// an `EXPLAIN ANALYZE` rendering.
fn leaf_rows(text: &str) -> u64 {
    text.lines()
        .filter(|l| {
            let l = l.trim_start();
            l.starts_with("Scan ") || l.starts_with("IndexLookup ") || l.starts_with("IndexRange ")
        })
        .filter_map(|l| {
            let rest = &l[l.find("(rows=")? + 6..];
            rest[..rest.find(|c: char| !c.is_ascii_digit())?].parse::<u64>().ok()
        })
        .sum()
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| entries.flatten().filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum())
        .unwrap_or(0)
}

/// Per-layer metrics of a traced run, and the per-op layer split of
/// the replayed requests (printed).
fn layer_metrics(
    wire_samples: &[Sample],
    reply_bytes: u64,
    lib: &Lib,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let us = |s: &SpanRec| s.dur_ns() as f64 / 1e3;
    let reqs: HashMap<u64, &LibReq> = lib.log.iter().map(|r| (r.req, r)).collect();
    let durs =
        |name: &str| -> Vec<f64> { lib.spans.iter().filter(|s| s.name == name).map(us).collect() };
    let sum = |xs: &[f64]| xs.iter().sum::<f64>();
    let need =
        |v: Option<f64>, what: &str| v.ok_or(format!("traced run has no samples for {what}"));
    let d = |key: &str| delta(&lib.kv_before, &lib.kv, |k| k == key) as f64;
    let parse_of: HashMap<u64, f64> = lib
        .spans
        .iter()
        .filter(|s| s.name == "xmlkit.parse")
        .map(|s| (s.req, us(s)))
        .collect();

    // Per-op split of the replay: layer self times add up to the
    // request time (the separate ingest parse is moved from shred to
    // xmlkit).
    let own = trace::self_times(&lib.spans);
    let mut split: HashMap<&str, HashMap<&str, f64>> = HashMap::new();
    let mut n_of: HashMap<&str, usize> = HashMap::new();
    for s in &lib.spans {
        let Some(r) = reqs.get(&s.req).filter(|r| r.phase == Phase::Replay) else { continue };
        let self_us = own[&s.id] as f64 / 1e3;
        let layer = match s.name {
            n if n.starts_with("req.") => {
                *split.entry(r.op).or_default().entry("request").or_default() += us(s);
                *n_of.entry(r.op).or_default() += 1;
                "other"
            }
            "xmlkit.parse" => "xmlkit",
            "catalog.shred" => {
                let p = parse_of.get(&s.req).copied().unwrap_or(0.0);
                *split.entry(r.op).or_default().entry("shred").or_default() += self_us - p;
                continue;
            }
            "qparse.parse" => "qparse",
            "match.query" => "match",
            "response.search" | "response.fetch" => "response",
            "store.apply" => "store",
            "wal.checkpoint" => "wal",
            _ => "other",
        };
        *split.entry(r.op).or_default().entry(layer).or_default() += self_us;
    }
    let mut ops: Vec<_> = split.into_iter().collect();
    ops.sort_by_key(|(op, _)| *op);
    let wire_p50 = |op: Op| {
        median(
            &wire_samples
                .iter()
                .filter(|s| s.op == op && !s.traced)
                .map(|s| s.us)
                .collect::<Vec<_>>(),
        )
    };
    let lib_roots = |op: &str| -> Vec<f64> {
        lib.spans
            .iter()
            .filter(|s| s.name.strip_prefix("req.") == Some(op))
            .filter(|s| reqs.get(&s.req).is_some_and(|r| r.phase == Phase::Replay))
            .map(us)
            .collect()
    };
    for (op, layers) in &ops {
        let n = n_of.get(op).copied().unwrap_or(0).max(1) as f64;
        let total = layers.get("request").copied().unwrap_or(0.0);
        let parts: f64 = layers.iter().filter(|(k, _)| **k != "request").map(|(_, v)| v).sum();
        let mut names: Vec<_> = layers.iter().filter(|(k, _)| **k != "request").collect();
        names.sort_by_key(|(k, _)| **k);
        let cols: Vec<String> = names.iter().map(|(k, v)| format!("{k}={:.1}", *v / n)).collect();
        println!(
            "split op={op} n={} request_us={:.1} {} layers_sum_us={:.1}",
            n as usize,
            total / n,
            cols.join(" "),
            parts / n
        );
        let wire_op = Op::DATA.into_iter().find(|o| o.name() == *op);
        if let (Some(w), Some(l)) = (wire_op.and_then(wire_p50), median(&lib_roots(op))) {
            println!(
                "split op={op} service_overhead_us={:.1} wire_p50_us={w:.1} library_p50_us={l:.1}",
                w - l
            );
        }
    }

    // Service: wire p50 minus library p50 over all data requests.
    let untraced: Vec<f64> = wire_samples
        .iter()
        .filter(|s| s.op != Op::Checkpoint && !s.traced)
        .map(|s| s.us)
        .collect();
    let traced: Vec<f64> = wire_samples
        .iter()
        .filter(|s| s.op != Op::Checkpoint && s.traced)
        .map(|s| s.us)
        .collect();
    let lib_all: Vec<f64> = ["query", "search", "fetch", "ingest"]
        .iter()
        .flat_map(|op| lib_roots(op))
        .collect();
    let wire_p50_all = need(median(&untraced), "untraced wire requests")?;
    let traced_p50 = need(median(&traced), "traced wire requests")?;
    let lib_p50 = need(median(&lib_all), "replayed requests")?;
    let ok_reqs = wire_samples
        .iter()
        .filter(|s| s.op != Op::Checkpoint && s.us.is_finite())
        .count();

    // Matching.
    let matches: Vec<&SpanRec> = lib.spans.iter().filter(|s| s.name == "match.query").collect();
    let pool_us = |hot: bool| -> Vec<f64> {
        matches
            .iter()
            .filter(|s| reqs.get(&s.req).and_then(|r| r.hot) == Some(hot))
            .map(|s| us(s))
            .collect()
    };
    let match_us: Vec<f64> = matches.iter().map(|s| us(s)).collect();
    let (hits, misses) = (d("catalog.plan_cache.hit"), d("catalog.plan_cache.miss"));

    // Responses.
    let resp: Vec<f64> =
        lib.spans.iter().filter(|s| s.name.starts_with("response.")).map(us).collect();
    let docs_out: usize = lib.log.iter().map(|r| r.docs_out).sum();
    let bytes_out: usize = lib.log.iter().map(|r| r.bytes_out).sum();

    // Ingest side: everything the phase ingested (set-up load + replay).
    let parses = durs("xmlkit.parse");
    let xml_in: usize = lib.log.iter().map(|r| r.xml_in).sum();
    let shred: Vec<f64> = lib
        .spans
        .iter()
        .filter(|s| s.name == "catalog.shred")
        .map(|s| us(s) - parse_of.get(&s.req).copied().unwrap_or(0.0))
        .collect();
    let applies = durs("store.apply");
    let docs_in = applies.len() as f64;
    let checkpoints = durs("wal.checkpoint");
    println!(
        "layers parses={} applies={} checkpoints={} matches={} responses={} xml_in={xml_in} docs_out={docs_out} \
         explain_queries={EXPLAIN_SAMPLE} wal_checkpoints={}",
        parses.len(),
        applies.len(),
        checkpoints.len(),
        match_us.len(),
        resp.len(),
        d("wal.checkpoints")
    );

    Ok(vec![
        ("service.overhead_us", wire_p50_all - lib_p50, "us"),
        ("service.reply_bytes_per_req", reply_bytes as f64 / ok_reqs.max(1) as f64, "bytes"),
        ("trace.overhead_pct", (traced_p50 - wire_p50_all) / wire_p50_all * 100.0, "%"),
        ("qparse.parse_us", need(median(&durs("qparse.parse")), "qparse.parse")?, "us"),
        ("plan_cache.hit_ratio", hits / (hits + misses).max(1.0), "ratio"),
        ("match.query_us", need(median(&match_us), "match.query")?, "us"),
        ("match.query_tail_us", need(percentile(&match_us, 95.0), "match.query")?, "us"),
        ("match.hot_us", need(median(&pool_us(true)), "hot-pool matches")?, "us"),
        ("match.cold_us", need(median(&pool_us(false)), "cold-pool matches")?, "us"),
        (
            "match.rows_examined_per_hit",
            lib.rows_examined as f64 / lib.explain_hits.max(1) as f64,
            "ratio",
        ),
        (
            "match.keyed_ratio",
            d("minidb.semijoin.keyed") / d("minidb.semijoin.count").max(1.0),
            "ratio",
        ),
        ("response.search_us", need(median(&durs("response.search")), "response.search")?, "us"),
        ("response.fetch_us", need(median(&durs("response.fetch")), "response.fetch")?, "us"),
        ("response.us_per_doc", sum(&resp) / docs_out.max(1) as f64, "us"),
        ("response.bytes_per_doc", bytes_out as f64 / docs_out.max(1) as f64, "bytes"),
        ("xmlkit.parse_us_per_doc", need(mean(&parses), "xmlkit.parse")?, "us"),
        ("xmlkit.parse_mb_s", xml_in as f64 / sum(&parses), "MB/s"),
        ("shred.us_per_doc", need(mean(&shred), "catalog.shred")?, "us"),
        (
            "shred.rows_per_doc",
            (d("catalog.shred.attr_rows") + d("catalog.shred.elem_rows")) / docs_in.max(1.0),
            "count",
        ),
        (
            "shred.clob_bytes_per_doc_byte",
            d("catalog.clob.bytes_written") / xml_in.max(1) as f64,
            "ratio",
        ),
        ("store.apply_us", need(median(&applies), "store.apply")?, "us"),
        ("store.apply_tail_us", need(percentile(&applies, 95.0), "store.apply")?, "us"),
        ("wal.bytes_per_doc_byte", d("wal.bytes") / xml_in.max(1) as f64, "ratio"),
        ("wal.fsyncs_per_doc", d("wal.fsyncs") / docs_in.max(1.0), "ratio"),
        ("wal.checkpoint_ms", need(median(&checkpoints), "wal.checkpoint")? / 1e3, "ms"),
        ("disk.bytes_per_doc_byte", lib.disk_bytes as f64 / xml_in.max(1) as f64, "ratio"),
    ])
}
