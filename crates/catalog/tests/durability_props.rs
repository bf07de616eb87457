//! Catalog-level crash-recovery property tests (random workloads).
//!
//! A random ingest / delete-object / register-dynamic workload runs
//! against a durable catalog on an in-memory VFS. Crashes are then
//! simulated at every operation boundary (exact prefix of the WAL) and
//! at sampled offsets *inside* each operation's log records. Recovery
//! must reproduce exactly the committed prefix — byte-identical store
//! state against an uncrashed oracle catalog that applied the same
//! prefix — and a crash mid-operation must never expose a partial
//! ingest (the torn transaction disappears entirely). A fault on any
//! write-side call of a fresh catalog's bootstrap leaves it empty or
//! complete.
//! On a [`FaultyVfs`], a commit whose log append or fsync fails once
//! refuses every later write until a reopen, which finds exactly the
//! acked state.

use catalog::lead::{fig4_query, lead_partition, register_arps_defs, DETAILED_PATH, FIG3_DOCUMENT};
use catalog::prelude::*;
use minidb::vfs::{Fault, FaultyVfs, Lasting};
use minidb::wal::WAL_FILE;
use minidb::{MemVfs, Plan, Vfs, WalOptions};
use proptest::collection::vec;
use proptest::prelude::*;
use std::sync::Arc;
use xmlkit::ValueType;

/// Small LEAD document parameterized by grid spacing and keyword.
fn doc(i: usize, dx: u8, key: u8) -> String {
    let dx = 250.0 * ((dx % 4) + 1) as f64;
    let key = ["rain", "snow", "wind"][key as usize % 3];
    format!(
        "<LEADresource><resourceID>run-{i}</resourceID><data>\
         <idinfo><keywords><theme><themekt>CF</themekt><themekey>{key}</themekey>\
         </theme></keywords></idinfo>\
         <geospatial><eainfo><detailed>\
         <enttyp><enttypl>grid</enttypl><enttypds>ARPS</enttypds></enttyp>\
         <attr><attrlabl>dx</attrlabl><attrdefs>ARPS</attrdefs><attrv>{dx}</attrv></attr>\
         </detailed></eainfo></geospatial></data></LEADresource>"
    )
}

/// Interpret one op code against a catalog. Both the durable catalog
/// and the oracle run exactly this interpreter, so their mutation
/// sequences are identical.
fn apply_op(
    cat: &MetadataCatalog,
    i: usize,
    op: &(u32, u8, u8),
    live: &mut Vec<i64>,
    n_reg: &mut u32,
) -> Result<()> {
    let (code, p1, p2) = *op;
    match code {
        0..=54 => {
            let id = cat.ingest(&doc(i, p1, p2))?;
            live.push(id);
        }
        55..=74 => {
            if live.is_empty() {
                let id = cat.ingest(&doc(i, p1, p2))?;
                live.push(id);
            } else {
                let id = live.remove(p1 as usize % live.len());
                cat.delete_object(id)?;
            }
        }
        _ => {
            *n_reg += 1;
            cat.register_dynamic(
                DETAILED_PATH,
                &DynamicAttrSpec::new(format!("dyn{n_reg}"), "WRF").element("x", ValueType::Float),
                DefLevel::User("keisha".into()),
            )?;
        }
    }
    Ok(())
}

/// A durable LEAD catalog on `vfs`.
fn open(vfs: Arc<dyn Vfs>) -> Result<MetadataCatalog> {
    MetadataCatalog::open_with(
        vfs,
        WalOptions::default(),
        lead_partition(),
        CatalogConfig::default(),
    )
}

fn recover_image(wal_prefix: &[u8]) -> Vec<u8> {
    let vfs = MemVfs::new();
    vfs.overwrite(WAL_FILE, wal_prefix.to_vec());
    let cat = open(Arc::new(vfs)).expect("recovery must succeed at any crash point");
    cat.db().state_image().expect("state image")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// For every op boundary and sampled mid-op WAL offsets, recovery
    /// equals the oracle that applied exactly the committed prefix.
    #[test]
    fn crash_recovery_is_prefix_consistent(
        ops in vec((0u32..100, 0u8..250, 0u8..250), 8..18),
    ) {
        let vfs = MemVfs::new();
        let cat = open(Arc::new(vfs.clone()))
        .unwrap();
        register_arps_defs(&cat).unwrap();

        let oracle = MetadataCatalog::new(lead_partition(), CatalogConfig::default()).unwrap();
        register_arps_defs(&oracle).unwrap();

        // `boundaries[k]` = (synced WAL length, oracle image) after the
        // bootstrap + first k ops.
        let wal_len = |v: &MemVfs| v.file(WAL_FILE).unwrap().len();
        let mut boundaries = vec![(wal_len(&vfs), oracle.db().state_image().unwrap())];
        let (mut live_d, mut reg_d) = (Vec::new(), 0u32);
        let (mut live_o, mut reg_o) = (Vec::new(), 0u32);
        for (i, op) in ops.iter().enumerate() {
            apply_op(&cat, i, op, &mut live_d, &mut reg_d).expect("durable op");
            apply_op(&oracle, i, op, &mut live_o, &mut reg_o).expect("oracle op");
            boundaries.push((wal_len(&vfs), oracle.db().state_image().unwrap()));
        }
        prop_assert_eq!(&live_d, &live_o, "durable and oracle ids must match");
        let wal = vfs.file(WAL_FILE).unwrap();

        for w in boundaries.windows(2) {
            let (start, ref image) = w[0];
            let (end, _) = w[1];
            // Crash exactly at the op boundary: full committed prefix.
            prop_assert_eq!(&recover_image(&wal[..start]), image, "boundary at {}", start);
            // Crash inside the next op's log records: the torn
            // transaction vanishes entirely — no partial ingest, no
            // partial delete, no half-refreshed definition mirror.
            let span = end - start;
            for frac in [1, 2, 3] {
                let off = start + span * frac / 4;
                if off > start && off < end {
                    prop_assert_eq!(
                        &recover_image(&wal[..off]),
                        image,
                        "mid-op offset {} in ({}, {})", off, start, end
                    );
                }
            }
        }
        // And the complete log recovers the full final state.
        let (final_len, ref final_image) = boundaries[boundaries.len() - 1];
        prop_assert_eq!(final_len, wal.len());
        prop_assert_eq!(&recover_image(&wal), final_image);
    }
}

/// A fresh catalog's bootstrap is one commit, so a crash anywhere in
/// its write leaves a directory that is either empty (and bootstraps
/// again) or complete: never tables without their ordering rows or
/// definition mirror. Every write-side call of a fresh open fails in
/// turn with every fault of its kind (a torn or failed append, a failed
/// fsync, rename, `create` or `open_append`), each taking the file
/// system down; each crashed directory must reopen and serve Fig 4 with
/// its wrapper tags.
#[test]
fn crash_during_bootstrap_leaves_empty_or_complete() {
    let clean = FaultyVfs::new(MemVfs::new());
    let cat = open(Arc::new(clean.clone())).unwrap();
    assert_eq!(cat.db().last_lsn(), 1, "bootstrap must be one commit");
    let complete = cat.db().state_image().unwrap();
    let empty = minidb::Database::new().state_image().unwrap();
    for fault in Fault::ALL {
        for nth in 1..=clean.calls(fault.call()) {
            let case = format!("{fault:?} at call {nth} of {:?}", fault.call());
            let faulty = FaultyVfs::new(MemVfs::new()).fail(fault, nth, Lasting::Fatal);
            assert!(open(Arc::new(faulty.clone())).is_err(), "{case}: the open must fail");
            let crashed = faulty.inner().crashed_copy();
            let image =
                minidb::Database::open_with(Arc::new(crashed.clone()), WalOptions::default())
                    .unwrap_or_else(|e| panic!("{case}: {e}"))
                    .state_image()
                    .unwrap();
            assert!(image == empty || image == complete, "{case}: neither empty nor complete");
            let cat = open(Arc::new(crashed)).unwrap_or_else(|e| panic!("{case}: {e}"));
            register_arps_defs(&cat).unwrap();
            let id = cat.ingest(FIG3_DOCUMENT).unwrap();
            assert_eq!(cat.query(&fig4_query()).unwrap(), vec![id], "{case}");
            let doc = cat.fetch_documents(&[id]).unwrap().remove(0).1;
            assert!(doc.starts_with("<LEADresource>"), "{case}: {}", &doc[..40.min(doc.len())]);
        }
    }
    drop(cat);
}

/// Checkpoint + tail replay end to end at the catalog level, including
/// the `wal.recovered_records` observability counter.
#[test]
fn checkpoint_then_crash_recovers_acked_ingests() {
    let vfs = MemVfs::new();
    let cat = open(Arc::new(vfs.clone())).unwrap();
    register_arps_defs(&cat).unwrap();
    assert!(cat.is_durable());

    let mut ids = Vec::new();
    for _ in 0..5 {
        ids.push(cat.ingest(FIG3_DOCUMENT).unwrap());
    }
    cat.checkpoint().unwrap();
    for _ in 0..3 {
        ids.push(cat.ingest(FIG3_DOCUMENT).unwrap());
    }
    drop(cat); // crash: no checkpoint after the last three ingests

    let before = obs::names::WAL_RECOVERED_RECORDS.get();
    let recovered = open(Arc::new(vfs.crashed_copy())).unwrap();
    let replayed = obs::names::WAL_RECOVERED_RECORDS.get() - before;
    assert!(replayed > 0, "the post-checkpoint tail must replay through the WAL");
    assert_eq!(recovered.stats().objects, 8);
    assert_eq!(recovered.query(&fig4_query()).unwrap(), ids);
    // The recovered catalog keeps working durably.
    let id9 = recovered.ingest(FIG3_DOCUMENT).unwrap();
    assert_eq!(id9, ids[ids.len() - 1] + 1);
}

/// Once an ingest's commit fails on a failed append or fsync of the
/// log, the catalog refuses every later write, and the reopened catalog
/// holds exactly the acked objects and definitions, reopened after a
/// crash or from the file system as it is (after a failed fsync the
/// failed ingest's bytes may be there anyway, so it may be too).
#[test]
fn a_failed_commit_refuses_every_later_write() {
    for fault in [Fault::ShortAppend, Fault::FailedSync] {
        let vfs = FaultyVfs::new(MemVfs::new());
        let cat = open(Arc::new(vfs.clone())).unwrap();
        register_arps_defs(&cat).unwrap();
        let acked = cat.ingest(&doc(0, 0, 0)).unwrap();
        let defs = |cat: &MetadataCatalog| (cat.stats().attr_defs, cat.stats().elem_defs);
        let acked_defs = defs(&cat);

        let vfs = vfs.fail(fault, 1, Lasting::Transient);
        cat.ingest(&doc(1, 1, 1)).expect_err("the commit fails");
        let spec = DynamicAttrSpec::new("late", "WRF").element("x", ValueType::Float);
        let refusals = [
            cat.ingest(&doc(2, 2, 2)).map(|_| ()),
            cat.add_attribute(
                acked,
                "<theme><themekt>CF</themekt><themekey>hail</themekey></theme>",
            ),
            cat.register_dynamic(DETAILED_PATH, &spec, DefLevel::User("keisha".into()))
                .map(|_| ()),
        ];
        for (what, refused) in ["ingest", "add_attribute", "register_dynamic"].iter().zip(refusals)
        {
            match refused {
                Err(e) => assert!(e.to_string().contains("reopen"), "{fault:?} {what}: {e}"),
                Ok(()) => panic!("{fault:?}: {what} acked after a failed commit"),
            }
        }
        drop(cat);

        let dirs: [(&str, Arc<dyn Vfs>); 2] =
            [("crashed", Arc::new(vfs.inner().crashed_copy())), ("live", Arc::new(vfs))];
        for (from, dir) in dirs {
            let cat = open(dir).unwrap_or_else(|e| panic!("{fault:?}: reopen {from}: {e}"));
            let objects = cat.db().execute(&Plan::Scan { table: "objects".into(), filter: None });
            let ids: Vec<i64> =
                objects.unwrap().rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
            let failed_present = fault == Fault::FailedSync && ids == [acked, acked + 1];
            assert!(ids == [acked] || failed_present, "{fault:?}, {from}: objects {ids:?}");
            assert_eq!(defs(&cat), acked_defs, "{fault:?}, {from}");
        }
    }
}
