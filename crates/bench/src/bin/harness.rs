//! Evaluation harness: prints the E1–E8 tables recorded in
//! EXPERIMENTS.md.
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

use benchkit::experiments::{self, Scale};

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
    println!("mylead evaluation harness — scale: {scale:?}\n");
    for w in &wanted {
        let t0 = std::time::Instant::now();
        match w.as_str() {
            "figs" => {
                println!("== Figure reproduction index ==");
                println!("{}", experiments::figures().render());
            }
            "e1" => {
                println!("== E1: ingest throughput (docs/s; higher is better) ==");
                match experiments::e1_ingest(scale) {
                    Ok(t) => println!("{}", t.render()),
                    Err(e) => eprintln!("e1 failed: {e}"),
                }
            }
            "e2" => {
                println!("== E2: query latency by shape (per-query median; lower is better) ==");
                match experiments::e2_query(scale) {
                    Ok((t, abl)) => {
                        println!("{}", t.render());
                        println!("-- E2b: hybrid matching-strategy ablation --");
                        println!("{}", abl.render());
                    }
                    Err(e) => eprintln!("e2 failed: {e}"),
                }
            }
            "e3" => {
                println!("== E3: nested-query latency vs sub-attribute depth ==");
                match experiments::e3_depth(scale) {
                    Ok(t) => println!("{}", t.render()),
                    Err(e) => eprintln!("e3 failed: {e}"),
                }
            }
            "e4" => {
                println!("== E4: response construction vs result size ==");
                match experiments::e4_response(scale) {
                    Ok(t) => println!("{}", t.render()),
                    Err(e) => eprintln!("e4 failed: {e}"),
                }
            }
            "e5" => {
                println!("== E5: dynamic definition growth (* = tables a schema-encoded/inlined design would need) ==");
                match experiments::e5_dynamic(scale) {
                    Ok(t) => println!("{}", t.render()),
                    Err(e) => eprintln!("e5 failed: {e}"),
                }
            }
            "e6" => {
                println!("== E6: storage footprint ==");
                match experiments::e6_storage(scale) {
                    Ok(t) => println!("{}", t.render()),
                    Err(e) => eprintln!("e6 failed: {e}"),
                }
            }
            "e7" => {
                println!("== E7: ordering maintenance on attribute insert ==");
                match experiments::e7_ordering(scale) {
                    Ok(t) => println!("{}", t.render()),
                    Err(e) => eprintln!("e7 failed: {e}"),
                }
            }
            "e8" => {
                println!("== E8: concurrent throughput (hybrid catalog) ==");
                match experiments::e8_concurrent(scale) {
                    Ok(t) => println!("{}", t.render()),
                    Err(e) => eprintln!("e8 failed: {e}"),
                }
            }
            "e9" => {
                println!("== E9: durability cost (WAL fsync policies vs in-memory) ==");
                match experiments::e9_durability(scale) {
                    Ok(t) => println!("{}", t.render()),
                    Err(e) => eprintln!("e9 failed: {e}"),
                }
            }
            "perf" => {
                println!("== Perf: match-plan latency (plan + semi-join pipeline per query) ==");
                match experiments::perf(scale) {
                    Ok((t, entries)) => {
                        println!("{}", t.render());
                        perf_entries = entries;
                    }
                    Err(e) => eprintln!("perf failed: {e}"),
                }
            }
            other => eprintln!("unknown experiment: {other} (use e1..e9, figs, perf, all)"),
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
}
