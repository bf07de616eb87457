//! End-to-end tests of the `mylead` CLI binary (spawned as a process).

use std::io::BufRead;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_mylead")
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mylead-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(bin()).args(args).output().expect("spawn mylead");
    let text =
        format!("{}{}", String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
    (out.status.success(), text)
}

const DOC: &str = "<LEADresource><resourceID>cli</resourceID><data>\
<idinfo><keywords><theme><themekt>CF</themekt><themekey>rain</themekey></theme></keywords></idinfo>\
<geospatial><eainfo><detailed>\
<enttyp><enttypl>grid</enttypl><enttypds>ARPS</enttypds></enttyp>\
<attr><attrlabl>dx</attrlabl><attrdefs>ARPS</attrdefs><attrv>1000</attrv></attr>\
</detailed></eainfo></geospatial></data></LEADresource>";

#[test]
fn init_ingest_query_fetch_stats_sql() {
    let dir = tmpdir("full");
    let snap = dir.join("cat.db");
    let snap_s = snap.to_str().unwrap();
    let docfile = dir.join("doc.xml");
    std::fs::write(&docfile, DOC).unwrap();

    let (ok, out) = run(&["init", "-s", snap_s]);
    assert!(ok, "{out}");

    let (ok, out) = run(&["ingest", "-s", snap_s, docfile.to_str().unwrap()]);
    assert!(ok, "{out}");
    assert!(out.contains("object 1"), "{out}");

    let (ok, out) = run(&["query", "-s", snap_s, "grid@ARPS[dx=1000]"]);
    assert!(ok, "{out}");
    assert!(out.contains("[1]"), "{out}");

    let (ok, out) = run(&["search", "-s", snap_s, "theme[themekey='rain']"]);
    assert!(ok, "{out}");
    assert!(out.contains("<LEADresource>"), "{out}");

    let (ok, out) = run(&["fetch", "-s", snap_s, "1"]);
    assert!(ok, "{out}");
    assert!(out.contains("<resourceID>cli</resourceID>"), "{out}");

    let (ok, out) = run(&["stats", "-s", snap_s]);
    assert!(ok, "{out}");
    assert!(out.contains("objects        1"), "{out}");

    let (ok, out) = run(&["sql", "-s", snap_s, "SELECT COUNT(*) FROM clobs"]);
    assert!(ok, "{out}");
    assert!(out.contains("3"), "{out}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn add_appends_and_persists() {
    let dir = tmpdir("add");
    let snap = dir.join("cat.db");
    let snap_s = snap.to_str().unwrap();
    let docfile = dir.join("doc.xml");
    std::fs::write(&docfile, DOC).unwrap();
    let frag = dir.join("frag.xml");
    std::fs::write(&frag, "<theme><themekt>CF</themekt><themekey>late</themekey></theme>").unwrap();

    assert!(run(&["init", "-s", snap_s]).0);
    assert!(run(&["ingest", "-s", snap_s, docfile.to_str().unwrap()]).0);
    let (ok, out) = run(&["add", "-s", snap_s, "1", frag.to_str().unwrap()]);
    assert!(ok, "{out}");
    let (ok, out) = run(&["query", "-s", snap_s, "theme[themekey='late']"]);
    assert!(ok, "{out}");
    assert!(out.contains("[1]"), "{out}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn errors_exit_nonzero() {
    let dir = tmpdir("err");
    let snap = dir.join("cat.db");
    let snap_s = snap.to_str().unwrap();
    // Missing snapshot.
    let (ok, out) = run(&["query", "-s", snap_s, "theme[themekey='x']"]);
    assert!(!ok, "{out}");
    // Bad command.
    assert!(!run(&["nonsense", "-s", snap_s]).0);
    // init twice fails.
    assert!(run(&["init", "-s", snap_s]).0);
    let (ok, out) = run(&["init", "-s", snap_s]);
    assert!(!ok, "{out}");
    // Bad query DSL.
    let (ok, out) = run(&["query", "-s", snap_s, "[[["]);
    assert!(!ok, "{out}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Kills the child process when dropped, so a failing assertion never
/// leaves a server running.
struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn killed_server_loses_no_acked_ingest() {
    let dir = tmpdir("kill");
    let cat = dir.join("cat.d");
    let cat_s = cat.to_str().unwrap();
    assert!(run(&["init", "-s", cat_s]).0);

    let mut server = KillOnDrop(
        Command::new(bin())
            .args(["serve", "-s", cat_s, "127.0.0.1:0"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn mylead serve"),
    );
    let mut stdout = std::io::BufReader::new(server.0.stdout.take().unwrap());
    let mut banner = String::new();
    stdout.read_line(&mut banner).unwrap();
    // "serving catalog <dir> on <addr> (...)"
    let addr = banner
        .split(" on ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no address in banner {banner:?}"))
        .to_string();

    // While the server runs, the directory is locked against a second
    // opener, and the error points at the wire.
    let (ok, out) = run(&["stats", "-s", cat_s]);
    assert!(!ok && out.contains("locked") && out.contains("over the wire"), "{out}");

    // Ingest in a loop until the server dies, recording every ack.
    let acked = Arc::new(Mutex::new(Vec::new()));
    let writer = {
        let acked = acked.clone();
        std::thread::spawn(move || {
            let mut c = mylead::service::CatalogClient::connect(addr.as_str()).unwrap();
            while let Ok(id) = c.ingest(DOC) {
                acked.lock().unwrap().push(id);
            }
        })
    };
    let deadline = Instant::now() + Duration::from_secs(60);
    while acked.lock().unwrap().len() < 20 {
        assert!(Instant::now() < deadline, "server acked fewer than 20 ingests in 60 s");
        std::thread::sleep(Duration::from_millis(5));
    }
    // SIGKILL mid-stream: no drain, no checkpoint, no signal handler.
    drop(server);
    writer.join().unwrap();
    let acked = acked.lock().unwrap().clone();
    assert!(acked.len() >= 20);

    // Reopening recovers every acknowledged ingest from the WAL.
    let (ok, out) = run(&["query", "-s", cat_s, "grid@ARPS[dx=1000]"]);
    assert!(ok, "{out}");
    let found: Vec<i64> = out
        .split_once('[')
        .and_then(|(_, rest)| rest.split_once(']'))
        .map(|(list, _)| list.split(", ").filter_map(|n| n.parse().ok()).collect())
        .unwrap_or_default();
    let lost: Vec<i64> = acked.iter().filter(|id| !found.contains(id)).copied().collect();
    assert!(lost.is_empty(), "acked ingests {lost:?} lost after SIGKILL ({out})");
    let last = acked.last().unwrap().to_string();
    let (ok, out) = run(&["fetch", "-s", cat_s, &last]);
    assert!(ok && out.contains("<resourceID>cli</resourceID>"), "{out}");
    std::fs::remove_dir_all(&dir).ok();
}
