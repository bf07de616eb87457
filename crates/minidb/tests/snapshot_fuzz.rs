//! Snapshot robustness fuzzing: truncated, bit-flipped, and
//! length-bombed `MDB1` images must fail with a clean [`DbError`] —
//! never a panic, never an attempt at an OOM-sized allocation.
//!
//! The snapshot format carries a trailing CRC32 over the whole image,
//! so every single-bit flip is *provably* detected: either the parse
//! trips over broken framing first, or the trailer check refuses the
//! image.

use minidb::prelude::*;
use minidb::wal::{MemVfs, SNAPSHOT_FILE, WAL_FILE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A populated database: two tables with rows, NULLs, an index, and a
/// few CLOBs, checkpointed so `vfs` holds a real recovery snapshot.
fn snapshot_image() -> Vec<u8> {
    let vfs = MemVfs::new();
    let db = Database::open_with(Arc::new(vfs.clone()), WalOptions::default()).unwrap();
    db.create_table(
        "objects",
        TableSchema::new(vec![
            Column::new("id", DataType::Int),
            Column::nullable("name", DataType::Text),
            Column::nullable("doc", DataType::Clob),
        ]),
    )
    .unwrap();
    db.create_table(
        "attrs",
        TableSchema::new(vec![
            Column::new("object_id", DataType::Int),
            Column::new("weight", DataType::Float),
            Column::new("flag", DataType::Bool),
        ]),
    )
    .unwrap();
    db.create_index("objects", "objects_id", &["id"], true).unwrap();
    for i in 0..40i64 {
        let loc = db.put_clob(format!("<file id='{i}' size='{}'/>", i * 37).into_bytes()).unwrap();
        let name = if i % 5 == 0 { Value::Null } else { Value::Str(format!("lfn/{i}")) };
        db.insert("objects", vec![vec![Value::Int(i), name, Value::Int(loc as i64)]])
            .unwrap();
        db.insert(
            "attrs",
            vec![vec![Value::Int(i), Value::Float(i as f64 * 0.5), Value::Bool(i % 2 == 0)]],
        )
        .unwrap();
    }
    db.checkpoint().unwrap();
    vfs.file(SNAPSHOT_FILE).expect("checkpoint wrote a snapshot")
}

/// Attempt recovery from the given snapshot bytes (with an empty,
/// valid WAL beside them, so any failure is the snapshot's).
fn try_load(snapshot: Vec<u8>, wal: &[u8]) -> Result<Database> {
    let vfs = MemVfs::new();
    vfs.overwrite(SNAPSHOT_FILE, snapshot);
    vfs.overwrite(WAL_FILE, wal.to_vec());
    Database::open_with(Arc::new(vfs), WalOptions::default())
}

/// A valid empty WAL whose base LSN admits the snapshot (fresh-file
/// header as written right after a checkpoint at any LSN).
fn empty_wal() -> Vec<u8> {
    let vfs = MemVfs::new();
    let db = Database::open_with(Arc::new(vfs.clone()), WalOptions::default()).unwrap();
    drop(db);
    vfs.file(WAL_FILE).unwrap()
}

#[test]
fn intact_snapshot_loads() {
    let image = snapshot_image();
    let db = try_load(image, &empty_wal()).expect("pristine snapshot must load");
    let rs = db.execute_sql("SELECT COUNT(*) FROM objects").unwrap();
    assert_eq!(rs.rows[0][0], Value::Int(40));
}

#[test]
fn truncation_at_every_offset_is_a_clean_error() {
    let image = snapshot_image();
    let wal = empty_wal();
    for cut in 0..image.len() {
        match try_load(image[..cut].to_vec(), &wal) {
            Err(_) => {}
            Ok(_) => panic!("snapshot truncated to {cut}/{} bytes was accepted", image.len()),
        }
    }
}

#[test]
fn bit_flip_at_every_offset_is_a_clean_error() {
    let image = snapshot_image();
    let wal = empty_wal();
    for pos in 0..image.len() {
        let mut bad = image.clone();
        bad[pos] ^= 1 << (pos % 8);
        match try_load(bad, &wal) {
            Err(DbError::Io(m)) => panic!("flip at {pos}: surfaced as I/O error: {m}"),
            Err(_) => {} // Parse / Corrupt / schema-level: all clean rejections
            Ok(_) => panic!("flip at {pos} went undetected (CRC trailer must catch it)"),
        }
    }
}

#[test]
fn huge_length_prefixes_are_rejected_without_allocating() {
    let image = snapshot_image();
    let wal = empty_wal();
    // Splat 0xFF over 8 bytes at a spread of interior positions: any
    // length prefix it lands on becomes ~2^64 and must be refused by
    // the bounded decoder (and everything else by the CRC trailer) —
    // quickly, and without a giant `Vec::with_capacity`.
    for start in (16..image.len().saturating_sub(8)).step_by(61) {
        let mut bad = image.clone();
        bad[start..start + 8].fill(0xFF);
        assert!(try_load(bad, &wal).is_err(), "0xFF splat at {start} was accepted");
    }
}

#[test]
fn random_corruption_never_panics() {
    let image = snapshot_image();
    let wal = empty_wal();
    let seed = std::env::var("PROPTEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xF00D);
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..300 {
        let mut bad = image.clone();
        // 1..=4 random splats of 1..=16 random bytes each; sometimes
        // also truncate.
        for _ in 0..rng.gen_range(1..=4u32) {
            let start = rng.gen_range(0..bad.len());
            let len = rng.gen_range(1..=16usize).min(bad.len() - start);
            for b in &mut bad[start..start + len] {
                *b = rng.gen_range(0..=255u32) as u8;
            }
        }
        if rng.gen_bool(0.3) {
            let cut = rng.gen_range(0..bad.len());
            bad.truncate(cut);
        }
        // Corrupt images must be rejected; the astronomically unlikely
        // (and deterministic, given the seed) case where the splats
        // reproduce the original bytes would load fine — allow Ok.
        let _ = try_load(bad, &wal);
    }
}

#[test]
fn on_disk_open_rejects_corruption_too() {
    let dir = std::env::temp_dir().join(format!("minidb-snapfuzz-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let image = snapshot_image();
    let wal = empty_wal();
    // The snapshot image sits next to a valid empty WAL, so any
    // failure to open is the snapshot's.
    let open_with_snapshot = |snapshot: &[u8]| {
        std::fs::write(dir.join(SNAPSHOT_FILE), snapshot).unwrap();
        std::fs::write(dir.join(WAL_FILE), &wal).unwrap();
        Database::open(&dir)
    };

    assert!(open_with_snapshot(&image[..image.len() / 2]).is_err(), "truncated file accepted");

    let mut flipped = image.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x40;
    assert!(open_with_snapshot(&flipped).is_err(), "bit-flipped file accepted");

    let db = open_with_snapshot(&image).expect("pristine file must load");
    let rs = db.execute_sql("SELECT COUNT(*) FROM attrs").unwrap();
    assert_eq!(rs.rows[0][0], Value::Int(40));
    std::fs::remove_dir_all(&dir).ok();
}
