//! Evaluation harness: prints the tables recorded in EXPERIMENTS.md —
//! the figure reproduction index (`figs`), experiments `e1`–`e9` and the
//! `perf` match-latency benchmark. `all` (or no name) runs every one.
//!
//! ```sh
//! cargo run --release -p mylead-bench --bin harness -- all
//! cargo run --release -p mylead-bench --bin harness -- e2 e3 --quick
//! ```
//!
//! `--json` additionally dumps the observability registry accumulated
//! across the run (catalog spans, per-layer counters, latency
//! histograms) to `BENCH_obs.json` for machine consumption, and — when
//! the `perf` experiment ran — its match-latency entries to
//! `BENCH_perf.json` (checked in CI by the `perfcheck` binary).
//!
//! The process exits with status 1 when any requested experiment fails
//! or is unknown, after running the others.

use benchkit::experiments::{self, Scale};
use benchkit::table::Table;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json = args.iter().any(|a| a == "--json");
    let scale = if quick { Scale::Quick } else { Scale::Full };
    let mut wanted: Vec<String> = args.iter().filter(|a| !a.starts_with("--")).cloned().collect();
    if wanted.is_empty() || wanted.iter().any(|w| w == "all") {
        wanted = ["figs", "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "perf"]
            .iter()
            .map(|s| s.to_string())
            .collect();
    }

    let mut perf_entries: Vec<experiments::PerfEntry> = Vec::new();
    let mut failed: Vec<&str> = Vec::new();
    println!("mylead evaluation harness — scale: {scale:?}\n");
    for w in &wanted {
        let t0 = std::time::Instant::now();
        let print = |t: Table| println!("{}", t.render());
        let outcome = match w.as_str() {
            "figs" => {
                println!("== Figure reproduction index ==");
                print(experiments::figures());
                Ok(())
            }
            "e1" => {
                println!("== E1: ingest throughput (docs/s; higher is better) ==");
                experiments::e1_ingest(scale).map(print)
            }
            "e2" => {
                println!("== E2: query latency by shape (per-query median; lower is better) ==");
                experiments::e2_query(scale).map(|(t, abl)| {
                    print(t);
                    println!("-- E2b: hybrid matching-strategy ablation --");
                    print(abl);
                })
            }
            "e3" => {
                println!("== E3: nested-query latency vs sub-attribute depth ==");
                experiments::e3_depth(scale).map(print)
            }
            "e4" => {
                println!("== E4: response construction vs result size ==");
                experiments::e4_response(scale).map(print)
            }
            "e5" => {
                println!("== E5: dynamic definition growth (* = tables a schema-encoded/inlined design would need) ==");
                experiments::e5_dynamic(scale).map(print)
            }
            "e6" => {
                println!("== E6: storage footprint ==");
                experiments::e6_storage(scale).map(print)
            }
            "e7" => {
                println!("== E7: ordering maintenance on attribute insert ==");
                experiments::e7_ordering(scale).map(print)
            }
            "e8" => {
                println!("== E8: concurrent throughput (hybrid catalog) ==");
                experiments::e8_concurrent(scale).map(print)
            }
            "e9" => {
                println!("== E9: durability cost (WAL fsync policies vs in-memory) ==");
                experiments::e9_durability(scale).map(print)
            }
            "perf" => {
                println!("== Perf: match-plan latency (plan + semi-join pipeline per query) ==");
                experiments::perf(scale).map(|(t, entries)| {
                    print(t);
                    perf_entries = entries;
                })
            }
            other => {
                eprintln!("unknown experiment: {other} (use e1..e9, figs, perf, all)");
                failed.push(w.as_str());
                continue;
            }
        };
        if let Err(e) = outcome {
            eprintln!("{w} failed: {e}");
            failed.push(w.as_str());
        }
        eprintln!("[{w} took {:.1}s]\n", t0.elapsed().as_secs_f64());
    }

    if json {
        let path = "BENCH_obs.json";
        match std::fs::write(path, obs::global().render_json()) {
            Ok(()) => eprintln!("[observability registry written to {path}]"),
            Err(e) => eprintln!("[cannot write {path}: {e}]"),
        }
        if !perf_entries.is_empty() {
            let path = "BENCH_perf.json";
            match std::fs::write(path, experiments::render_perf_json(scale, &perf_entries)) {
                Ok(()) => eprintln!("[perf comparison written to {path}]"),
                Err(e) => eprintln!("[cannot write {path}: {e}]"),
            }
        }
    }
    if !failed.is_empty() {
        eprintln!("failed: {}", failed.join(", "));
        std::process::exit(1);
    }
}
