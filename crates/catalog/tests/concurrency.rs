//! Deterministic concurrent stress harness (the ISSUE-4 tentpole).
//!
//! Seeded multi-threaded workloads — ingesters (with adds and
//! deletes), queriers, dynamic-definition registrars, and a
//! checkpointer — run against one catalog and are checked two ways:
//!
//! * **live invariants**: no query or scan ever observes a torn object
//!   (an object id whose attribute / element / ancestor / CLOB rows
//!   are not a whole number of committed ingest + add units), and
//!   aggregate stats always describe a committed state;
//! * **serial oracle**: after the threads join, the surviving objects
//!   must match, id for id and byte for byte, a catalog that applied
//!   the same surviving operations serially.
//!
//! The workload is driven by per-thread `StdRng`s derived from one
//! seed (`STRESS_SEED` env var overrides; the seed is printed so any
//! failure can be replayed).

use catalog::lead::{lead_partition, register_arps_defs, DETAILED_PATH};
use catalog::prelude::*;
use minidb::{Database, MemVfs, Plan, WalOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use xmlkit::ValueType;

const WRITERS: usize = 8;
const READERS: usize = 8;
const INGESTS_PER_WRITER: usize = 120;
const READS_PER_READER: usize = 1000;
const REGISTRATIONS: usize = 24;

fn seed_from_env() -> u64 {
    std::env::var("STRESS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE)
}

/// The grid-spacing variants; a document's variant fixes its content,
/// so queries can be checked against the ingest log exactly.
const DX: [i64; 4] = [1000, 2000, 3000, 4000];
const DZMIN: [i64; 2] = [100, 200];
const VARIANTS: usize = DX.len() * DZMIN.len();

fn variant_doc(v: usize) -> String {
    let (dx, dzmin) = (DX[v % DX.len()], DZMIN[v / DX.len()]);
    format!(
        "<LEADresource><resourceID>run-{dx}-{dzmin}</resourceID><data>\
         <geospatial><eainfo><detailed>\
         <enttyp><enttypl>grid</enttypl><enttypds>ARPS</enttypds></enttyp>\
         <attr><attrlabl>grid-stretching</attrlabl><attrdefs>ARPS</attrdefs>\
         <attr><attrlabl>dzmin</attrlabl><attrdefs>ARPS</attrdefs><attrv>{dzmin}.000</attrv></attr>\
         </attr>\
         <attr><attrlabl>dx</attrlabl><attrdefs>ARPS</attrdefs><attrv>{dx}.000</attrv></attr>\
         </detailed></eainfo></geospatial></data></LEADresource>"
    )
}

fn variant_query(v: usize) -> ObjectQuery {
    let (dx, dzmin) = (DX[v % DX.len()], DZMIN[v / DX.len()]);
    ObjectQuery::new().attr(
        AttrQuery::new("grid")
            .source("ARPS")
            .elem(ElemCond::eq_num("dx", dx as f64))
            .sub(
                AttrQuery::new("grid-stretching")
                    .source("ARPS")
                    .elem(ElemCond::eq_num("dzmin", dzmin as f64)),
            ),
    )
}

/// The fragment `ADD` appends (one `theme` attribute instance).
const THEME_FRAG: &str =
    "<theme><themekt>CF</themekt><themekey>convective_precipitation_amount</themekey></theme>";

/// Committed row counts of one base document (`k_*`) and of one added
/// theme fragment (`a_*`), measured on a scratch catalog. Every
/// committed object must hold exactly `k + n·a` rows per table for one
/// integer `n ≥ 0` — anything else is a torn write.
#[derive(Debug, Clone, Copy)]
struct Shape {
    k: [i64; 4],
    a: [i64; 4],
}

const SHAPE_TABLES: [&str; 4] = ["attrs", "elems", "attr_anc", "clobs"];

fn measure_shape() -> Shape {
    let probe = MetadataCatalog::new(lead_partition(), CatalogConfig::default()).unwrap();
    register_arps_defs(&probe).unwrap();
    let counts = |cat: &MetadataCatalog| {
        let s = cat.stats();
        [s.attr_rows as i64, s.elem_rows as i64, s.ancestor_rows as i64, s.clob_count as i64]
    };
    let id = probe.ingest(&variant_doc(0)).unwrap();
    let base = counts(&probe);
    probe.add_attribute(id, THEME_FRAG).unwrap();
    let after = counts(&probe);
    let a = [after[0] - base[0], after[1] - base[1], after[2] - base[2], after[3] - base[3]];
    assert!(a[0] > 0, "a theme add must contribute attribute rows");
    Shape { k: base, a }
}

fn scan(table: &str) -> Plan {
    Plan::Scan { table: table.into(), filter: None }
}

/// The torn-object detector: under one read transaction, group every
/// instance table by object id and check the `k + n·a` pattern.
fn assert_no_torn_objects(db: &Database, shape: &Shape, seed: u64, when: &str) {
    let rt = db.begin_read();
    let ids: HashSet<i64> = rt
        .execute(&scan("objects"))
        .expect("objects scan")
        .rows
        .iter()
        .filter_map(|r| r[0].as_i64())
        .collect();
    let mut per: HashMap<i64, [i64; 4]> = HashMap::new();
    for (ti, table) in SHAPE_TABLES.iter().enumerate() {
        for row in rt.execute(&scan(table)).expect("instance scan").rows {
            if let Some(id) = row[0].as_i64() {
                per.entry(id).or_default()[ti] += 1;
            }
        }
    }
    drop(rt);
    for id in per.keys() {
        assert!(
            ids.contains(id),
            "[seed={seed}] {when}: instance rows for object {id} with no objects row (torn write)"
        );
    }
    for id in &ids {
        let c = per.get(id).unwrap_or_else(|| {
            panic!("[seed={seed}] {when}: object {id} visible with no instance rows (torn write)")
        });
        let extra = c[0] - shape.k[0];
        assert!(
            extra >= 0 && extra % shape.a[0] == 0,
            "[seed={seed}] {when}: object {id} has {} attr rows (base {}, add unit {}) — torn",
            c[0],
            shape.k[0],
            shape.a[0]
        );
        let n = extra / shape.a[0];
        for ti in 1..4 {
            assert_eq!(
                c[ti],
                shape.k[ti] + n * shape.a[ti],
                "[seed={seed}] {when}: object {id} ({}+{n} adds) has inconsistent {} rows — torn",
                shape.k[ti],
                SHAPE_TABLES[ti]
            );
        }
    }
}

/// Aggregate form of the same invariant: total instance rows must be a
/// committed combination of whole documents and whole adds.
fn assert_stats_consistent(cat: &MetadataCatalog, shape: &Shape, seed: u64) {
    let s = cat.stats();
    let extra = s.attr_rows as i64 - s.objects as i64 * shape.k[0];
    assert!(extra >= 0 && extra % shape.a[0] == 0, "[seed={seed}] stats saw a torn state: {s:?}");
    let n = extra / shape.a[0];
    assert_eq!(
        s.clob_count as i64,
        s.objects as i64 * shape.k[3] + n * shape.a[3],
        "[seed={seed}] stats clob count inconsistent with {n} adds: {s:?}"
    );
}

#[derive(Debug, Clone)]
struct Rec {
    id: i64,
    variant: usize,
    adds: usize,
    deleted: bool,
}

fn writer_thread(
    cat: Arc<MetadataCatalog>,
    seed: u64,
    w: usize,
    ops: Arc<AtomicUsize>,
) -> Vec<Rec> {
    let mut rng = StdRng::seed_from_u64(seed ^ (w as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut mine: Vec<Rec> = Vec::new();
    for _ in 0..INGESTS_PER_WRITER {
        let variant = rng.gen_range(0..VARIANTS);
        let id = cat.ingest(&variant_doc(variant)).expect("concurrent ingest");
        ops.fetch_add(1, Ordering::Relaxed);
        mine.push(Rec { id, variant, adds: 0, deleted: false });
        if rng.gen_bool(0.2) {
            let j = rng.gen_range(0..mine.len());
            if !mine[j].deleted {
                cat.add_attribute(mine[j].id, THEME_FRAG).expect("concurrent add");
                mine[j].adds += 1;
                ops.fetch_add(1, Ordering::Relaxed);
            }
        }
        if rng.gen_bool(0.12) {
            let j = rng.gen_range(0..mine.len());
            if !mine[j].deleted {
                cat.delete_object(mine[j].id).expect("concurrent delete");
                mine[j].deleted = true;
                ops.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    mine
}

fn reader_thread(
    cat: Arc<MetadataCatalog>,
    shape: Shape,
    seed: u64,
    r: usize,
    iters: usize,
    ops: Arc<AtomicUsize>,
) {
    let mut rng =
        StdRng::seed_from_u64(seed ^ (r as u64 + 101).wrapping_mul(0xD1B5_4A32_D192_ED03));
    for _ in 0..iters {
        match rng.gen_range(0..20u32) {
            0 => {
                assert_no_torn_objects(cat.db(), &shape, seed, "live scan");
                ops.fetch_add(1, Ordering::Relaxed);
            }
            1 | 2 => {
                assert_stats_consistent(&cat, &shape, seed);
                ops.fetch_add(1, Ordering::Relaxed);
            }
            n => {
                let v = rng.gen_range(0..VARIANTS);
                let ids = cat.query(&variant_query(v)).expect("concurrent query");
                ops.fetch_add(1, Ordering::Relaxed);
                if n < 6 {
                    let (dx, _) = (DX[v % DX.len()], DZMIN[v / DX.len()]);
                    let marker = format!("<attrv>{dx}.000</attrv>");
                    // A bounded sample keeps the harness fast while
                    // still fetching thousands of documents overall.
                    let sample = &ids[..ids.len().min(12)];
                    for (id, xml) in cat.fetch_documents(sample).expect("concurrent fetch") {
                        ops.fetch_add(1, Ordering::Relaxed);
                        // Empty means the object was deleted between the
                        // query and the fetch; anything else must be the
                        // complete document.
                        assert!(
                            xml.is_empty()
                                || (xml.starts_with("<LEADresource>")
                                    && xml.ends_with("</LEADresource>")
                                    && xml.contains(&marker)),
                            "[seed={seed}] fetched a torn document for object {id}: {xml:?}"
                        );
                    }
                }
            }
        }
    }
}

/// The tentpole test: ≥8 writers and ≥8 readers over ≥10k operations,
/// with a dynamic-def registrar and a checkpointer in the mix, checked
/// live and against a serial oracle.
#[test]
fn stress_concurrent_workload_matches_serial_oracle() {
    let seed = seed_from_env();
    eprintln!("concurrency stress seed = {seed} (set STRESS_SEED to replay)");
    let shape = measure_shape();
    let ops = Arc::new(AtomicUsize::new(0));

    let cat = Arc::new(
        MetadataCatalog::open_with(
            Arc::new(MemVfs::new()),
            WalOptions::default(),
            lead_partition(),
            CatalogConfig::default(),
        )
        .unwrap(),
    );
    register_arps_defs(&cat).unwrap();

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let (cat, ops) = (cat.clone(), ops.clone());
            std::thread::spawn(move || writer_thread(cat, seed, w, ops))
        })
        .collect();
    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let (cat, ops) = (cat.clone(), ops.clone());
            std::thread::spawn(move || reader_thread(cat, shape, seed, r, READS_PER_READER, ops))
        })
        .collect();
    let registrar = {
        let (cat, ops) = (cat.clone(), ops.clone());
        std::thread::spawn(move || {
            for k in 0..REGISTRATIONS {
                cat.register_dynamic(
                    DETAILED_PATH,
                    &DynamicAttrSpec::new(format!("stress{k}"), "ARPS")
                        .element("v", ValueType::Float),
                    DefLevel::Admin,
                )
                .expect("concurrent register");
                ops.fetch_add(1, Ordering::Relaxed);
                // Plan against the definitions just registered.
                cat.query(&variant_query(k % VARIANTS)).expect("post-register query");
                ops.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        })
    };
    let done = Arc::new(AtomicBool::new(false));
    let checkpointer = {
        let (cat, ops, done) = (cat.clone(), ops.clone(), done.clone());
        std::thread::spawn(move || {
            while !done.load(Ordering::Relaxed) {
                cat.checkpoint().expect("concurrent checkpoint");
                ops.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
        })
    };

    let mut log: Vec<Rec> = Vec::new();
    for w in writers {
        log.extend(w.join().expect("writer thread panicked — torn write detected"));
    }
    for r in readers {
        r.join().expect("reader thread panicked — invariant violated");
    }
    registrar.join().expect("registrar thread panicked");
    done.store(true, Ordering::Relaxed);
    checkpointer.join().expect("checkpointer thread panicked");

    let total_ops = ops.load(Ordering::Relaxed);
    eprintln!("concurrency stress: {total_ops} operations");
    assert!(total_ops >= 10_000, "[seed={seed}] harness too small: {total_ops} ops");

    // Final torn-object sweep.
    assert_no_torn_objects(cat.db(), &shape, seed, "final scan");

    // Exact query results against the ingest log.
    log.sort_by_key(|r| r.id);
    let survivors: Vec<&Rec> = log.iter().filter(|r| !r.deleted).collect();
    for v in 0..VARIANTS {
        let expect: Vec<i64> = survivors.iter().filter(|r| r.variant == v).map(|r| r.id).collect();
        let got = cat.query(&variant_query(v)).unwrap();
        assert_eq!(got, expect, "[seed={seed}] variant {v} query diverged from the ingest log");
    }

    // Serial oracle: replay the surviving operations into a fresh
    // catalog, then compare aggregate state and every document byte
    // for byte (oracle ids are dense 1..=n in survivor order).
    let oracle = MetadataCatalog::new(lead_partition(), CatalogConfig::default()).unwrap();
    register_arps_defs(&oracle).unwrap();
    for k in 0..REGISTRATIONS {
        oracle
            .register_dynamic(
                DETAILED_PATH,
                &DynamicAttrSpec::new(format!("stress{k}"), "ARPS").element("v", ValueType::Float),
                DefLevel::Admin,
            )
            .unwrap();
    }
    for rec in &survivors {
        let oid = oracle.ingest(&variant_doc(rec.variant)).unwrap();
        for _ in 0..rec.adds {
            oracle.add_attribute(oid, THEME_FRAG).unwrap();
        }
    }
    let (s, o) = (cat.stats(), oracle.stats());
    // clob_bytes is excluded: the CLOB heap does not reclaim deleted
    // objects' bytes, so the stressed catalog's heap is larger.
    assert_eq!(
        (s.objects, s.attr_rows, s.elem_rows, s.ancestor_rows, s.clob_count),
        (o.objects, o.attr_rows, o.elem_rows, o.ancestor_rows, o.clob_count),
        "[seed={seed}] final state diverged from the serial oracle"
    );
    assert_eq!(
        (s.attr_defs, s.elem_defs, s.table_count),
        (o.attr_defs, o.elem_defs, o.table_count)
    );

    let ids: Vec<i64> = survivors.iter().map(|r| r.id).collect();
    let got_docs = cat.fetch_documents(&ids).unwrap();
    let oracle_ids: Vec<i64> = (1..=survivors.len() as i64).collect();
    let oracle_docs = oracle.fetch_documents(&oracle_ids).unwrap();
    assert_eq!(got_docs.len(), oracle_docs.len());
    for (k, ((id, xml), (_, oxml))) in got_docs.iter().zip(oracle_docs.iter()).enumerate() {
        assert_eq!(*id, survivors[k].id);
        assert_eq!(xml, oxml, "[seed={seed}] document {id} diverged from the serial oracle replay");
    }
}

/// `register_dynamic` racing query planning must never hide a committed
/// object. Observable contract: once an ingest matching query `q` has
/// returned, every later `q` includes that object — even while another
/// thread keeps changing the definitions registry.
#[test]
fn queries_see_every_committed_ingest_while_defs_change() {
    let seed = seed_from_env();
    eprintln!("defs-change race seed = {seed}");
    let cat = Arc::new(MetadataCatalog::new(lead_partition(), CatalogConfig::default()).unwrap());
    register_arps_defs(&cat).unwrap();

    let committed = Arc::new(AtomicUsize::new(0));
    let stop = Arc::new(AtomicBool::new(false));

    // Registrar + ingester: register a definition, then commit a
    // matching document, then register again — every query that starts
    // after the ingest must see that document.
    let mutator = {
        let (cat, committed) = (cat.clone(), committed.clone());
        std::thread::spawn(move || {
            for k in 0..60 {
                cat.register_dynamic(
                    DETAILED_PATH,
                    &DynamicAttrSpec::new(format!("racer{k}"), "ARPS")
                        .element("val", ValueType::Float),
                    DefLevel::Admin,
                )
                .expect("register");
                cat.ingest(&variant_doc(0)).expect("ingest");
                committed.fetch_add(1, Ordering::SeqCst);
            }
        })
    };
    let queriers: Vec<_> = (0..4)
        .map(|_| {
            let (cat, committed, stop) = (cat.clone(), committed.clone(), stop.clone());
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let floor = committed.load(Ordering::SeqCst);
                    let ids = cat.query(&variant_query(0)).expect("query");
                    assert!(
                        ids.len() >= floor,
                        "query returned {} matches but {floor} were committed before it \
                         started — a committed ingest was not visible",
                        ids.len()
                    );
                }
            })
        })
        .collect();
    mutator.join().expect("mutator panicked");
    stop.store(true, Ordering::Relaxed);
    for q in queriers {
        q.join().expect("querier missed a committed ingest");
    }
    assert_eq!(cat.query(&variant_query(0)).unwrap().len(), 60);
}

/// Satellite: crash (fsynced-state copy) in the middle of the stress
/// workload, recover, and verify the torn-object invariants hold on
/// the recovered catalog — concurrency must not weaken durability.
#[test]
fn crash_during_stress_workload_recovers_atomically() {
    let seed = seed_from_env().wrapping_add(1);
    eprintln!("crash-during-stress seed = {seed}");
    let shape = measure_shape();
    let vfs = MemVfs::new();
    let cat = Arc::new(
        MetadataCatalog::open_with(
            Arc::new(vfs.clone()),
            WalOptions::default(),
            lead_partition(),
            CatalogConfig::default(),
        )
        .unwrap(),
    );
    register_arps_defs(&cat).unwrap();
    let ops = Arc::new(AtomicUsize::new(0));

    let writers: Vec<_> = (0..4)
        .map(|w| {
            let (cat, ops) = (cat.clone(), ops.clone());
            std::thread::spawn(move || writer_thread(cat, seed, w, ops))
        })
        .collect();
    let readers: Vec<_> = (0..2)
        .map(|r| {
            let (cat, ops) = (cat.clone(), ops.clone());
            std::thread::spawn(move || reader_thread(cat, shape, seed, r, 150, ops))
        })
        .collect();

    // Take crash images while writers are demonstrably mid-flight.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    let mut images = Vec::new();
    for threshold in [300, 700] {
        while ops.load(Ordering::Relaxed) < threshold {
            assert!(
                std::time::Instant::now() < deadline,
                "[seed={seed}] workload stalled below {threshold} ops"
            );
            std::thread::yield_now();
        }
        images.push(vfs.crashed_copy());
    }

    for w in writers {
        w.join().expect("writer panicked");
    }
    for r in readers {
        r.join().expect("reader panicked");
    }
    images.push(vfs.crashed_copy()); // quiescent image too

    for (i, image) in images.into_iter().enumerate() {
        let recovered = MetadataCatalog::open_with(
            Arc::new(image),
            WalOptions::default(),
            lead_partition(),
            CatalogConfig::default(),
        )
        .unwrap_or_else(|e| panic!("[seed={seed}] crash image {i} failed to recover: {e}"));
        assert_no_torn_objects(recovered.db(), &shape, seed, "recovered scan");
        assert_stats_consistent(&recovered, &shape, seed);
        // Every recovered object fetches as a complete document.
        let rt = recovered.db().begin_read();
        let ids: Vec<i64> = rt
            .execute(&scan("objects"))
            .unwrap()
            .rows
            .iter()
            .filter_map(|r| r[0].as_i64())
            .collect();
        drop(rt);
        for (id, xml) in recovered.fetch_documents(&ids).unwrap() {
            assert!(
                xml.starts_with("<LEADresource>") && xml.ends_with("</LEADresource>"),
                "[seed={seed}] crash image {i}: recovered object {id} is torn: {xml:?}"
            );
        }
    }
}
