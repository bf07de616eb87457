//! The E1–E9 and perf experiment implementations behind the harness
//! binary. Each returns a [`Table`] whose rendering is recorded in
//! EXPERIMENTS.md.

use crate::table::{fmt_bytes, fmt_rate, fmt_secs, Table};
use crate::{all_backends, generator, hybrid_backend, load, median_secs};
use baselines::doc_order::DocOrderStore;
use baselines::CatalogBackend;
use catalog::catalog::CatalogConfig;
use catalog::engine::MatchStrategy;
use catalog::error::Result;
use obs::names;
use workload::{DocGenerator, QueryGenerator, QueryShape, WorkloadConfig};

/// Experiment scale: `Quick` for smoke runs, `Full` for the recorded
/// evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small corpora, fast.
    Quick,
    /// The sizes recorded in EXPERIMENTS.md.
    Full,
}

impl Scale {
    fn pick(self, quick: usize, full: usize) -> usize {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// E1 — ingest throughput vs corpus size, per backend.
///
/// Claims: hybrid pays the double write (CLOB + shred) but stays within
/// a small factor of single-CLOB; the native-XML DOM store is memory
/// cheap to load but loses at query time (E2); see §1/§6.
pub fn e1_ingest(scale: Scale) -> Result<Table> {
    let sizes = match scale {
        Scale::Quick => vec![100, 300],
        Scale::Full => vec![100, 500, 1000, 2000],
    };
    let mut t = Table::new(&["backend", "docs", "ingest time", "docs/s"]);
    for &n in &sizes {
        let generator = generator(default());
        let corpus = generator.corpus(n);
        for b in all_backends(&generator)? {
            let secs = load(b.as_ref(), &corpus)?;
            t.row(vec![
                b.name().to_string(),
                n.to_string(),
                fmt_secs(secs),
                fmt_rate(n as f64 / secs),
            ]);
        }
    }
    Ok(t)
}

/// E2 — query latency by shape/selectivity, per backend, plus the
/// hybrid's strategy ablation (Exact vs Counted).
pub fn e2_query(scale: Scale) -> Result<(Table, Table)> {
    let n = scale.pick(300, 2000);
    let reps = scale.pick(5, 15);
    let generator = generator(default());
    let corpus = generator.corpus(n);
    let backends = all_backends(&generator)?;
    for b in &backends {
        load(b.as_ref(), &corpus)?;
    }
    let shapes: Vec<(&str, QueryShape)> = vec![
        ("theme eq (~2%)", QueryShape::ThemeEq),
        ("dyn eq (~1%)", QueryShape::DynamicEq),
        ("dyn range 10%", QueryShape::DynamicRange(10)),
        ("dyn range 50%", QueryShape::DynamicRange(50)),
        ("nested depth 1", QueryShape::Nested(1)),
        ("conjunctive x2", QueryShape::Conjunctive(2)),
    ];
    let mut t = Table::new(&["query shape", "backend", "median latency", "hits"]);
    for (label, shape) in &shapes {
        // Same queries for every backend.
        let queries = QueryGenerator::new(&generator, 1234).batch(*shape, reps);
        for b in &backends {
            let mut hits = 0usize;
            let secs = median_secs(1, || {
                hits = 0;
                for q in &queries {
                    hits += b.query(q).expect("query").len();
                }
            }) / queries.len() as f64;
            t.row(vec![
                label.to_string(),
                b.name().to_string(),
                fmt_secs(secs),
                (hits / queries.len()).to_string(),
            ]);
        }
    }

    // Strategy ablation on the hybrid catalog.
    let hybrid = hybrid_backend(&generator)?;
    for d in &corpus {
        hybrid.ingest(d)?;
    }
    let cat = hybrid.catalog();
    let mut abl = Table::new(&["query shape", "strategy", "median latency"]);
    for (label, shape) in
        [("dyn eq", QueryShape::DynamicEq), ("nested depth 1", QueryShape::Nested(1))]
    {
        let queries = QueryGenerator::new(&generator, 99).batch(shape, reps);
        for (sname, strat) in [("exact", MatchStrategy::Exact), ("counted", MatchStrategy::Counted)]
        {
            let secs = median_secs(1, || {
                for q in &queries {
                    cat.query_with(q, strat).expect("query");
                }
            }) / queries.len() as f64;
            abl.row(vec![label.to_string(), sname.to_string(), fmt_secs(secs)]);
        }
    }
    Ok((t, abl))
}

/// E3 — nested-query latency vs sub-attribute depth.
///
/// Claim: the instance inverted list makes hybrid latency flat in
/// nesting depth; the edge table (and the inlining backend's recursive
/// `attr` table) pay one self-join per level (§3, §6).
pub fn e3_depth(scale: Scale) -> Result<Table> {
    let n = scale.pick(100, 400);
    let reps = scale.pick(3, 9);
    let depths = match scale {
        Scale::Quick => vec![1, 2, 4],
        Scale::Full => vec![1, 2, 3, 4, 5, 6],
    };
    let mut t = Table::new(&["depth", "backend", "median latency", "hits"]);
    for &depth in &depths {
        let cfg = WorkloadConfig { sub_depth: depth, dynamics_per_doc: 2, ..default() };
        let generator = generator(cfg);
        let corpus = generator.corpus(n);
        let backends = all_backends(&generator)?;
        for b in &backends {
            load(b.as_ref(), &corpus)?;
        }
        let queries = QueryGenerator::new(&generator, 7).batch(QueryShape::Nested(depth), reps);
        for b in &backends {
            // Only the relational backends are interesting here, but we
            // report all for completeness.
            let mut hits = 0usize;
            let secs = median_secs(1, || {
                hits = 0;
                for q in &queries {
                    hits += b.query(q).expect("query").len();
                }
            }) / queries.len() as f64;
            t.row(vec![
                depth.to_string(),
                b.name().to_string(),
                fmt_secs(secs),
                (hits / queries.len()).to_string(),
            ]);
        }
    }
    Ok(t)
}

/// E4 — response construction time vs result-set size.
///
/// Claim: the hybrid builds tagged responses with set operations over
/// the CLOB index + global ordering (no external tagger); inlining and
/// edge must reassemble trees in application code (§5, §6, \[24\]).
pub fn e4_response(scale: Scale) -> Result<Table> {
    let n = scale.pick(300, 1000);
    let generator = generator(default());
    let corpus = generator.corpus(n);
    let backends = all_backends(&generator)?;
    for b in &backends {
        load(b.as_ref(), &corpus)?;
    }
    let sizes = match scale {
        Scale::Quick => vec![1, 10, 100],
        Scale::Full => vec![1, 10, 100, 1000],
    };
    let mut t = Table::new(&["result size", "backend", "median build time", "bytes"]);
    for &k in &sizes {
        let k = k.min(n);
        let ids: Vec<i64> = (1..=k as i64).collect();
        for b in &backends {
            let mut bytes = 0usize;
            let secs = median_secs(scale.pick(3, 7), || {
                let docs = b.reconstruct(&ids).expect("reconstruct");
                bytes = docs.iter().map(|(_, d)| d.len()).sum();
            });
            t.row(vec![k.to_string(), b.name().to_string(), fmt_secs(secs), fmt_bytes(bytes)]);
        }
    }
    Ok(t)
}

/// E5 — dynamic-attribute definition growth.
///
/// Claim: new metadata concepts must not grow the schema (§3). The
/// hybrid's table count is constant while definitions grow as rows; a
/// schema-encoded (inlined) design would add tables per concept, and
/// the community schema itself "would grow to an unmanageable size".
pub fn e5_dynamic(scale: Scale) -> Result<Table> {
    let pools = match scale {
        Scale::Quick => vec![4, 16, 64],
        Scale::Full => vec![4, 16, 64, 128, 256],
    };
    let n = scale.pick(100, 400);
    let reps = scale.pick(5, 11);
    let mut t = Table::new(&[
        "distinct defs",
        "hybrid tables",
        "hybrid def rows",
        "schema-encoded tables*",
        "dyn-eq latency",
    ]);
    for &pool in &pools {
        let cfg = WorkloadConfig { distinct_dynamics: pool, ..default() };
        let generator = generator(cfg);
        let hybrid = hybrid_backend(&generator)?;
        for d in generator.corpus(n) {
            hybrid.ingest(&d)?;
        }
        let stats = hybrid.catalog().stats();
        // What shared inlining would need if every dynamic definition
        // were encoded in the schema: one table per repeating concept
        // root plus one per (repeating) sub-attribute.
        let encoded_tables: usize = 14
            + generator
                .specs()
                .iter()
                .map(|s| {
                    fn subs(s: &catalog::defs::DynamicAttrSpec) -> usize {
                        s.subs.len() + s.subs.iter().map(subs).sum::<usize>()
                    }
                    1 + subs(s)
                })
                .sum::<usize>();
        let queries = QueryGenerator::new(&generator, 5).batch(QueryShape::DynamicEq, reps);
        let cat = hybrid.catalog();
        let secs = median_secs(1, || {
            for q in &queries {
                cat.query(q).expect("query");
            }
        }) / queries.len() as f64;
        t.row(vec![
            pool.to_string(),
            stats.table_count.to_string(),
            (stats.attr_defs + stats.elem_defs).to_string(),
            encoded_tables.to_string(),
            fmt_secs(secs),
        ]);
    }
    Ok(t)
}

/// E6 — storage footprint per backend, with the hybrid's split.
///
/// Claim: the hybrid accepts CLOB+shred duplication as the price of
/// fast queries *and* cheap responses; because at most one attribute
/// lies on any root-leaf path, CLOBs never overlap (§6 vs \[15\]).
pub fn e6_storage(scale: Scale) -> Result<Table> {
    let n = scale.pick(300, 1000);
    let generator = generator(default());
    let corpus = generator.corpus(n);
    let raw: usize = corpus.iter().map(|d| d.len()).sum();
    let mut t = Table::new(&["backend", "bytes", "vs raw XML", "tables"]);
    t.row(vec!["raw XML corpus".into(), fmt_bytes(raw), "1.00x".into(), "-".into()]);
    for b in all_backends(&generator)? {
        load(b.as_ref(), &corpus)?;
        let bytes = b.storage_bytes();
        t.row(vec![
            b.name().to_string(),
            fmt_bytes(bytes),
            format!("{:.2}x", bytes as f64 / raw as f64),
            b.table_count().to_string(),
        ]);
    }
    // Hybrid breakdown.
    let hybrid = hybrid_backend(&generator)?;
    for d in &corpus {
        hybrid.ingest(d)?;
    }
    let stats = hybrid.catalog().stats();
    t.row(vec![
        "hybrid: CLOB heap".into(),
        fmt_bytes(stats.clob_bytes),
        format!("{:.2}x", stats.clob_bytes as f64 / raw as f64),
        "-".into(),
    ]);
    t.row(vec![
        "hybrid: shredded rows".into(),
        fmt_bytes(hybrid.storage_bytes().saturating_sub(stats.clob_bytes)),
        format!(
            "{:.2}x",
            hybrid.storage_bytes().saturating_sub(stats.clob_bytes) as f64 / raw as f64
        ),
        "-".into(),
    ]);
    Ok(t)
}

/// E7 — ordering maintenance: appending one attribute to an object.
///
/// Claim: with the schema-level global ordering, adding an attribute
/// writes only new rows; with document-level ordering (Tatarinov \[19\]),
/// a mid-document insert renumbers every subsequent node, so the cost
/// grows with document size (§2, §6).
pub fn e7_ordering(scale: Scale) -> Result<Table> {
    let themes = match scale {
        Scale::Quick => vec![4, 16],
        Scale::Full => vec![4, 16, 64, 128],
    };
    let reps = scale.pick(5, 11);
    let mut t = Table::new(&[
        "doc nodes",
        "hybrid add_attribute",
        "doc-order mid insert",
        "rows renumbered",
    ]);
    for &tp in &themes {
        let cfg = WorkloadConfig { themes_per_doc: tp, keys_per_theme: 4, ..default() };
        let generator = generator(cfg);
        let doc = generator.generate(0);
        let nodes = xmlkit::Document::parse(&doc)?
            .descendants(xmlkit::Document::parse(&doc)?.root())
            .count();

        // Hybrid: append a theme attribute (new rows only).
        let cat = generator.catalog(CatalogConfig::default())?;
        let id = cat.ingest(&doc)?;
        let frag = "<theme><themekt>CF NetCDF</themekt><themekey>appended</themekey></theme>";
        let hybrid_secs = median_secs(reps, || {
            cat.add_attribute(id, frag).expect("add_attribute");
        });

        // Document-level ordering: insert the same fragment mid-document.
        let store = DocOrderStore::new()?;
        let oid = store.ingest(&doc)?;
        let mid = (nodes / 2) as i64;
        let mut renumbered = 0usize;
        let docorder_secs = median_secs(reps, || {
            renumbered = store.insert_subtree(oid, mid, frag, 4).expect("insert_subtree");
        });

        t.row(vec![
            nodes.to_string(),
            fmt_secs(hybrid_secs),
            fmt_secs(docorder_secs),
            renumbered.to_string(),
        ]);
    }
    Ok(t)
}

/// E8 — concurrent throughput under grid load.
///
/// Claim: a grid catalog must sustain many concurrent users (§1, \[7\]).
/// Readers share the database's one visibility gate, so pure read
/// throughput holds under thread pressure; an ingest holds the gate
/// exclusively and shuts readers out, which a 90/10 read/write mix shows.
pub fn e8_concurrent(scale: Scale) -> Result<Table> {
    let n = scale.pick(200, 800);
    let window = std::time::Duration::from_millis(scale.pick(250, 900) as u64);
    let generator = std::sync::Arc::new(generator(default()));
    let cat = std::sync::Arc::new(generator.catalog(CatalogConfig::default())?);
    let corpus = generator.corpus(n);
    cat.ingest_batch(&corpus, 4)?;

    let mut t = Table::new(&["threads", "mix", "ops/s", "speedup vs 1"]);
    for mix in ["100% query", "90/10 query/ingest"] {
        let mut base: Option<f64> = None;
        for &threads in &[1usize, 2, 4, 8] {
            let done = std::sync::atomic::AtomicUsize::new(0);
            let start = std::time::Instant::now();
            std::thread::scope(|s| {
                for w in 0..threads {
                    let cat = cat.clone();
                    let generator = generator.clone();
                    let done = &done;
                    s.spawn(move || {
                        let mut qg = QueryGenerator::new(&generator, 41 + w as u64);
                        let mut i = 0usize;
                        let mut next_doc = 10_000 + w * 100_000;
                        while start.elapsed() < window {
                            let write = mix.starts_with("90") && i % 10 == 9;
                            if write {
                                cat.ingest(&generator.generate(next_doc)).expect("ingest");
                                next_doc += 1;
                            } else {
                                let q = qg.generate(QueryShape::DynamicEq);
                                cat.query(&q).expect("query");
                            }
                            i += 1;
                            done.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                    });
                }
            });
            let secs = start.elapsed().as_secs_f64();
            let rate = done.load(std::sync::atomic::Ordering::Relaxed) as f64 / secs;
            let speedup = match base {
                None => {
                    base = Some(rate);
                    1.0
                }
                Some(b) => rate / b,
            };
            t.row(vec![
                threads.to_string(),
                mix.to_string(),
                fmt_rate(rate),
                format!("{speedup:.2}x"),
            ]);
        }
    }
    Ok(t)
}

/// One measurement of the match-plan perf experiment: one workload.
#[derive(Debug, Clone)]
pub struct PerfEntry {
    /// Workload label (stable across runs; perfcheck joins on it).
    pub workload: String,
    /// Median per-query latency in microseconds (per document for
    /// `ingest-apply`).
    pub median_us: f64,
    /// 95th-percentile per-query latency in microseconds, over every
    /// individually-timed query execution across all repetitions.
    pub p95_us: f64,
    /// 99th-percentile per-query latency in microseconds.
    pub p99_us: f64,
    /// Total hits across the query batch; for `ingest-apply`, the rows
    /// inserted.
    pub hits: usize,
}

/// Perf — match-plan latency of the set-oriented executor, and the
/// in-memory store apply of an ingest.
///
/// Runs the Fig-4 nested and multi-criterion workloads through
/// `MetadataCatalog::query_with(.., MatchStrategy::Exact)`. Each timed
/// call plans the query against the definitions registry, then runs
/// its semi-join pipeline, as the server does per request. The
/// `ingest-apply` entry times [`MetadataCatalog::apply`] of one
/// document at a time, after the corpus is bulk-loaded (see
/// `perf_apply`). The entries feed `BENCH_perf.json`.
///
/// [`MetadataCatalog::apply`]: catalog::catalog::MetadataCatalog::apply
pub fn perf(scale: Scale) -> Result<(Table, Vec<PerfEntry>)> {
    let n = scale.pick(150, 1500);
    // Quick runs time many cheap queries over the small corpus: enough
    // samples that p95 and p99 are different ranks, and a per-pass mean
    // that a few slow queries do not swing.
    let reps = scale.pick(64, 15);
    let workloads: Vec<(&str, WorkloadConfig, QueryShape)> = vec![
        ("fig4-nested-d1", WorkloadConfig { sub_depth: 1, ..default() }, QueryShape::Nested(1)),
        (
            "nested-d3",
            WorkloadConfig { sub_depth: 3, dynamics_per_doc: 2, ..default() },
            QueryShape::Nested(3),
        ),
        ("conjunctive-x2", default(), QueryShape::Conjunctive(2)),
        ("conjunctive-x4", default(), QueryShape::Conjunctive(4)),
        ("dyn-eq", default(), QueryShape::DynamicEq),
    ];
    let mut t = Table::new(&["workload", "median", "p95 / p99", "hits"]);
    let mut entries = Vec::new();
    for (label, cfg, shape) in workloads {
        let generator = generator(cfg);
        let hybrid = hybrid_backend(&generator)?;
        for d in generator.corpus(n) {
            hybrid.ingest(&d)?;
        }
        let cat = hybrid.catalog();
        let queries = QueryGenerator::new(&generator, 1234).batch(shape, reps);
        // Time every query execution individually: batch medians hide
        // tail latency, and the tail is where governance (deadlines,
        // budgets) bites. Per-pass totals still give the median; the
        // pooled samples give p95/p99.
        let mut hits = 0usize;
        let mut pass_secs = Vec::new();
        let mut samples_us = Vec::new();
        for _ in 0..scale.pick(11, 5) {
            hits = 0;
            let pass0 = std::time::Instant::now();
            for q in &queries {
                let t0 = std::time::Instant::now();
                hits += cat.query_with(q, MatchStrategy::Exact).expect("query").len();
                samples_us.push(t0.elapsed().as_secs_f64() * 1e6);
            }
            pass_secs.push(pass0.elapsed().as_secs_f64());
        }
        pass_secs.sort_by(|a, b| a.total_cmp(b));
        let secs = pass_secs[pass_secs.len() / 2] / queries.len() as f64;
        let (p95, p99) =
            (crate::percentile(&mut samples_us, 0.95), crate::percentile(&mut samples_us, 0.99));
        t.row(vec![
            label.to_string(),
            fmt_secs(secs),
            format!("{} / {}", fmt_secs(p95 / 1e6), fmt_secs(p99 / 1e6)),
            hits.to_string(),
        ]);
        entries.push(PerfEntry {
            workload: label.to_string(),
            median_us: secs * 1e6,
            p95_us: p95,
            p99_us: p99,
            hits,
        });
    }
    let apply = perf_apply(n, scale.pick(600, 1500))?;
    t.row(vec![
        apply.workload.clone(),
        fmt_secs(apply.median_us / 1e6),
        format!("{} / {}", fmt_secs(apply.p95_us / 1e6), fmt_secs(apply.p99_us / 1e6)),
        apply.hits.to_string(),
    ]);
    entries.push(apply);
    Ok((t, entries))
}

/// The `ingest-apply` perf entry: bulk-load `n` corpus documents into an
/// in-memory catalog (`ingest_batch` on 2 threads), shred the next
/// `m` generated documents, then time `apply` of each one by one. The
/// apply is the share of an ingest that runs under the exclusive
/// visibility gate: the row inserts with their index maintenance, and
/// the CLOB put. Its latencies are per document, and its `hits` is the
/// number of rows the applies inserted, which the seeded corpus fixes.
fn perf_apply(n: usize, m: usize) -> Result<PerfEntry> {
    let generator = generator(default());
    let cat = generator.catalog(CatalogConfig::default())?;
    cat.ingest_batch(&generator.corpus(n), 2)?;
    let docs = (n..n + m)
        .map(|i| cat.shred_only(&generator.generate(i)))
        .collect::<Result<Vec<_>>>()?;
    let mut samples_us = Vec::with_capacity(m);
    let mut rows = 0;
    for d in &docs {
        let t0 = std::time::Instant::now();
        cat.apply(d, None, None)?;
        samples_us.push(t0.elapsed().as_secs_f64() * 1e6);
        // The object row, then one row per CLOB, attribute, element
        // and ancestor link.
        rows += 1 + d.clob_rows.len() + d.attrs.len() + d.elems.len() + d.ancestors.len();
    }
    Ok(PerfEntry {
        workload: "ingest-apply".to_string(),
        median_us: crate::percentile(&mut samples_us, 0.5),
        p95_us: crate::percentile(&mut samples_us, 0.95),
        p99_us: crate::percentile(&mut samples_us, 0.99),
        hits: rows,
    })
}

/// E9 — durability cost: ingest throughput in-memory vs through the
/// write-ahead log with fsync-per-commit vs group commit, plus the
/// checkpoint (log → snapshot compaction) latency at each setting.
///
/// Claims: fsync-per-commit makes every acked ingest crash-safe but
/// pays one fsync per document; group commit amortizes the fsync over
/// a batch at the cost of losing acked-but-unsynced tail commits in a
/// crash (recovery still yields a committed prefix — see the
/// fault-injection suites in `minidb/tests/wal_crash.rs` and
/// `catalog/tests/durability_props.rs`).
pub fn e9_durability(scale: Scale) -> Result<Table> {
    use catalog::catalog::MetadataCatalog;
    use minidb::{StdVfs, SyncPolicy, WalOptions};

    let n = scale.pick(80, 400);
    let generator = generator(default());
    let corpus = generator.corpus(n);
    let mut t =
        Table::new(&["mode", "docs", "ingest time", "docs/s", "fsyncs", "wal bytes", "checkpoint"]);

    // In-memory baseline: same catalog, no durability layer.
    {
        let cat = generator.catalog(CatalogConfig::default())?;
        let t0 = std::time::Instant::now();
        for d in &corpus {
            cat.ingest(d)?;
        }
        let secs = t0.elapsed().as_secs_f64();
        t.row(vec![
            "in-memory".into(),
            n.to_string(),
            fmt_secs(secs),
            fmt_rate(n as f64 / secs),
            "-".into(),
            "-".into(),
            "-".into(),
        ]);
    }

    let modes = [
        ("wal fsync/commit", SyncPolicy::EveryCommit),
        ("wal group(8)", SyncPolicy::Batched(8)),
        ("wal group(32)", SyncPolicy::Batched(32)),
    ];
    for (i, (name, sync)) in modes.into_iter().enumerate() {
        let dir = std::env::temp_dir().join(format!("mylead-e9-{i}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cat = MetadataCatalog::open_with(
            std::sync::Arc::new(StdVfs::new(&dir)?),
            WalOptions { sync },
            catalog::lead::lead_partition(),
            CatalogConfig::default(),
        )?;
        generator.register_defs(&cat)?;
        let fsyncs0 = names::WAL_FSYNCS.get();
        let bytes0 = names::WAL_BYTES.get();
        let t0 = std::time::Instant::now();
        for d in &corpus {
            cat.ingest(d)?;
        }
        let secs = t0.elapsed().as_secs_f64();
        let t1 = std::time::Instant::now();
        cat.checkpoint()?;
        let ck = t1.elapsed().as_secs_f64();
        t.row(vec![
            name.to_string(),
            n.to_string(),
            fmt_secs(secs),
            fmt_rate(n as f64 / secs),
            (names::WAL_FSYNCS.get() - fsyncs0).to_string(),
            fmt_bytes((names::WAL_BYTES.get() - bytes0) as usize),
            fmt_secs(ck),
        ]);
        drop(cat);
        std::fs::remove_dir_all(&dir).ok();
    }
    Ok(t)
}

/// Render perf entries as the `BENCH_perf.json` document (hand-rolled —
/// the workspace has no JSON dependency). Consumed by the `perfcheck`
/// CI gate; keep the field set in sync with its parser. Every entry's
/// `style` is `"semijoin"`, the only plan style, `ingest-apply`'s too;
/// the field keeps the v1 schema, whose older files also carried
/// `"materialized"` rows.
pub fn render_perf_json(scale: Scale, entries: &[PerfEntry]) -> String {
    let mut out = String::from("{\n  \"schema\": \"mylead-bench-perf/v1\",\n");
    out.push_str(&format!(
        "  \"scale\": \"{}\",\n  \"entries\": [\n",
        match scale {
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    ));
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 == entries.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"workload\": \"{}\", \"style\": \"semijoin\", \"median_us\": {:.3}, \
             \"p95_us\": {:.3}, \"p99_us\": {:.3}, \"hits\": {}}}{comma}\n",
            e.workload, e.median_us, e.p95_us, e.p99_us, e.hits
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn default() -> WorkloadConfig {
    WorkloadConfig::default()
}

/// Figure reproduction summary (architecture figures, checked by tests;
/// the harness prints where each lives).
pub fn figures() -> Table {
    let mut t = Table::new(&["paper artifact", "reproduced by", "checked in"]);
    t.row(vec![
        "Fig 1 hybrid pipeline".into(),
        "shred → query → response round trip".into(),
        "crates/catalog/tests/pipeline.rs::fig1_roundtrip_...".into(),
    ]);
    t.row(vec![
        "Fig 2 LEAD schema + ordering".into(),
        "lead::lead_partition(), theme = order 10, 23 nodes".into(),
        "crates/catalog/src/lead.rs::fig2_global_ordering_anchors".into(),
    ]);
    t.row(vec![
        "Fig 3 document shredding".into(),
        "lead::FIG3_DOCUMENT → CLOBs(4)+attrs(5)+elems(11)+anc(1)".into(),
        "crates/catalog/src/shred.rs tests; examples/shred_walkthrough.rs".into(),
    ]);
    t.row(vec![
        "Fig 4 query process".into(),
        "MetadataCatalog::query_with (Exact & Counted strategies)".into(),
        "crates/catalog/tests/pipeline.rs::fig4_query_...".into(),
    ]);
    t.row(vec![
        "§4 XQuery & Java API".into(),
        "query::ObjectQuery builder; lead::fig4_query()".into(),
        "examples/quickstart.rs".into(),
    ]);
    t
}

/// Helper used by the DocGenerator in E7 (re-exported for benches).
pub fn doc_generator(cfg: WorkloadConfig) -> DocGenerator {
    DocGenerator::new(cfg)
}
