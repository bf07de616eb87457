//! `mylead` — command-line front end for the hybrid metadata catalog.
//!
//! The catalog lives in a directory (created by `init`) holding the
//! write-ahead log and its checkpoint snapshot. Every command opens the
//! directory, which recovers the committed state; every mutation is
//! fsynced to the log before it is reported, so nothing acknowledged is
//! lost even if the process is killed:
//!
//! ```text
//! mylead init      -s cat.d
//! mylead ingest    -s cat.d doc1.xml doc2.xml ...
//! mylead add       -s cat.d <object-id> fragment.xml
//! mylead query     -s cat.d "grid@ARPS[dx=1000]{grid-stretching@ARPS[dzmin=100]}"
//! mylead analyze   -s cat.d "grid@ARPS[dx=1000]{grid-stretching@ARPS[dzmin=100]}"
//! mylead search    -s cat.d "theme[themekey~'%rain%']"
//! mylead fetch     -s cat.d 1 2 3
//! mylead stats     -s cat.d [server-addr]
//! mylead sql       -s cat.d "SELECT COUNT(*) FROM clobs"
//! mylead serve     -s cat.d 127.0.0.1:7070
//! ```
//!
//! A directory is open in one process at a time: while `serve` runs,
//! the other commands refuse it, and the live catalog is read over the
//! wire instead (`mylead stats -s cat.d <server-addr>`, or any
//! `CatalogClient`). `serve` checkpoints every 30 s so the log and
//! restart recovery stay short.
//!
//! `analyze` runs the query with per-operator profiling and prints the
//! annotated plan (`EXPLAIN ANALYZE`). `stats` with a server address
//! reads a live server's `STATS` line, which carries the full
//! observability registry snapshot; without one it prints local table
//! stats plus whatever the registry recorded in this process.
//!
//! `init` builds a catalog over the Fig-2 LEAD schema with the ARPS
//! definitions registered and auto-registration of new dynamic
//! attributes enabled (pass `--strict` to disable). Dynamic attributes
//! are read from the fixed FGDC tags (`enttyp`/`enttypl`/`enttypds`,
//! `attr`/`attrlabl`/`attrdefs`/`attrv`). Content no definition matches
//! is always kept CLOB-only, never rejected, and a value that does not
//! fit its element's type keeps its string with a NULL number; the
//! catalog's whole configuration is `CatalogConfig { auto_register }`.

use mylead::catalog::catalog::{CatalogConfig, MetadataCatalog};
use mylead::catalog::error::CatalogError;
use mylead::catalog::lead::{lead_partition, register_arps_defs};
use mylead::catalog::qparse::parse_query;
use std::io::Write;
use std::process::ExitCode;

/// Print a line, ignoring broken pipes (`mylead ... | head` must not
/// panic when the reader closes early).
fn say(text: std::fmt::Arguments<'_>) {
    let mut out = std::io::stdout().lock();
    let _ = out.write_fmt(text);
    let _ = out.write_all(b"\n");
}

macro_rules! say {
    ($($arg:tt)*) => { say(format_args!($($arg)*)) };
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("mylead: {msg}");
            ExitCode::FAILURE
        }
    }
}

struct Args {
    command: String,
    /// Catalog directory (`-s/--snapshot`).
    dir: String,
    strict: bool,
    rest: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().ok_or_else(usage)?;
    let mut dir = None;
    let mut strict = false;
    let mut rest = Vec::new();
    while let Some(a) = argv.next() {
        match a.as_str() {
            "-s" | "--snapshot" => {
                dir = Some(argv.next().ok_or("missing value after --snapshot")?);
            }
            "--strict" => strict = true,
            _ => rest.push(a),
        }
    }
    Ok(Args {
        command,
        dir: dir.ok_or("every command needs --snapshot <dir> (or -s)")?,
        strict,
        rest,
    })
}

fn usage() -> String {
    "usage: mylead <init|ingest|add|query|analyze|search|fetch|stats|sql|serve> -s <dir> [args...]"
        .to_string()
}

fn config(strict: bool) -> CatalogConfig {
    CatalogConfig { auto_register: !strict }
}

/// Open the catalog directory named by `-s`.
fn open(args: &Args) -> Result<MetadataCatalog, String> {
    let dir = &args.dir;
    MetadataCatalog::open(dir, lead_partition(), config(args.strict)).map_err(|e| match e {
        CatalogError::Db(minidb::DbError::Locked(_)) => format!(
            "cannot open catalog {dir}: {e}; a running server's catalog is read over \
             the wire (mylead stats -s {dir} <server-addr>)"
        ),
        e => format!("cannot open catalog {dir}: {e}"),
    })
}

/// Open an existing catalog directory; commands other than `init`
/// never create one.
fn open_existing(args: &Args) -> Result<MetadataCatalog, String> {
    let dir = &args.dir;
    if !std::path::Path::new(dir).is_dir() {
        return Err(format!(
            "{dir} is not a catalog directory (`mylead init -s <dir>` creates one)"
        ));
    }
    open(args)
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    match args.command.as_str() {
        "init" => {
            if std::path::Path::new(&args.dir).exists() {
                return Err(format!("{} already exists", args.dir));
            }
            let cat = open(&args)?;
            register_arps_defs(&cat).map_err(|e| e.to_string())?;
            say!("initialized LEAD catalog at {}", args.dir);
            Ok(())
        }
        "ingest" => {
            if args.rest.is_empty() {
                return Err("ingest needs at least one XML file".into());
            }
            let cat = open_existing(&args)?;
            // Each ingest commits on its own, so objects reported before
            // a failing file stay in the catalog.
            for path in &args.rest {
                let xml = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                let id = cat.ingest(&xml).map_err(|e| format!("{path}: {e}"))?;
                say!("{path} -> object {id}");
            }
            Ok(())
        }
        "add" => {
            let [id_str, path] = args.rest.as_slice() else {
                return Err("add needs <object-id> <fragment.xml>".into());
            };
            let id: i64 = id_str.parse().map_err(|_| format!("bad object id {id_str}"))?;
            let cat = open_existing(&args)?;
            let xml = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            cat.add_attribute(id, &xml).map_err(|e| e.to_string())?;
            say!("added attribute to object {id}");
            Ok(())
        }
        "query" => {
            let dsl = args.rest.join(" ");
            let q = parse_query(&dsl).map_err(|e| e.to_string())?;
            let cat = open_existing(&args)?;
            let ids = cat.query(&q).map_err(|e| e.to_string())?;
            say!("{} object(s): {:?}", ids.len(), ids);
            Ok(())
        }
        "analyze" => {
            let dsl = args.rest.join(" ");
            let q = parse_query(&dsl).map_err(|e| e.to_string())?;
            let cat = open_existing(&args)?;
            let text = cat.explain_analyze(&q).map_err(|e| e.to_string())?;
            say!("{}", text.trim_end());
            Ok(())
        }
        "search" => {
            let dsl = args.rest.join(" ");
            let q = parse_query(&dsl).map_err(|e| e.to_string())?;
            let cat = open_existing(&args)?;
            for (id, doc) in cat.search(&q).map_err(|e| e.to_string())? {
                say!("--- object {id} ---");
                match mylead::xmlkit::Document::parse(&doc) {
                    Ok(d) => say!(
                        "{}",
                        mylead::xmlkit::writer::to_pretty_string(&d, d.root()).trim_end()
                    ),
                    Err(_) => say!("{doc}"),
                }
            }
            Ok(())
        }
        "fetch" => {
            let ids: Result<Vec<i64>, _> = args.rest.iter().map(|s| s.parse::<i64>()).collect();
            let ids = ids.map_err(|_| "fetch needs numeric object ids".to_string())?;
            let cat = open_existing(&args)?;
            for (id, doc) in cat.fetch_documents(&ids).map_err(|e| e.to_string())? {
                say!("--- object {id} ---");
                say!("{doc}");
            }
            Ok(())
        }
        "stats" => {
            // With a server address, read the live server's STATS line
            // (it carries the full observability registry snapshot).
            if let Some(addr) = args.rest.first() {
                let mut c = service::CatalogClient::connect(addr.as_str())
                    .map_err(|e| format!("cannot reach server at {addr}: {e}"))?;
                for (k, v) in c.stats().map_err(|e| e.to_string())? {
                    say!("{k}={v}");
                }
                return c.quit().map(|_| ()).map_err(|e| e.to_string());
            }
            let cat = open_existing(&args)?;
            let s = cat.stats();
            say!("objects        {}", s.objects);
            say!("attribute rows {}", s.attr_rows);
            say!("element rows   {}", s.elem_rows);
            say!("inverted rows  {}", s.ancestor_rows);
            say!("CLOBs          {} ({} bytes)", s.clob_count, s.clob_bytes);
            say!("definitions    {} attrs, {} elems", s.attr_defs, s.elem_defs);
            let registry = obs::global().render_text();
            if !registry.trim().is_empty() {
                say!("-- observability registry --");
                say!("{}", registry.trim_end());
            }
            Ok(())
        }
        "sql" => {
            let stmt = args.rest.join(" ");
            let cat = open_existing(&args)?;
            let rs = cat.db().execute_sql(&stmt).map_err(|e| e.to_string())?;
            say!("{}", rs.to_text().trim_end());
            Ok(())
        }
        "serve" => {
            let addr = args.rest.first().cloned().unwrap_or_else(|| "127.0.0.1:7070".into());
            let cat = std::sync::Arc::new(open_existing(&args)?);
            let server =
                service::CatalogServer::start(cat.clone(), &addr).map_err(|e| e.to_string())?;
            say!(
                "serving catalog {} on {} (Ctrl-C to stop; every acked write is durable)",
                args.dir,
                server.addr()
            );
            loop {
                std::thread::sleep(std::time::Duration::from_secs(30));
                if let Err(e) = cat.checkpoint() {
                    eprintln!("checkpoint failed: {e}");
                }
            }
        }
        other => Err(format!("unknown command {other}\n{}", usage())),
    }
}
