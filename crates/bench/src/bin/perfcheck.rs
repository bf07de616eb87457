//! CI gate over `BENCH_perf.json` (the harness `perf` experiment: match
//! latency per workload, and `ingest-apply`, the in-memory apply of one
//! ingested document).
//!
//! ```sh
//! perfcheck <current.json> [baseline.json] [--max-regress 2.0]
//! ```
//!
//! Fails (exit 1) when the current file is malformed, or — given a
//! baseline — when the two files differ in scale (a quick run against a
//! full-scale baseline could only catch a slowdown of many times), when
//! any workload's median latency regressed more than `--max-regress`
//! times against it, or when its hits differ (the corpus and queries are
//! seeded, so hits are exact).

use std::collections::BTreeMap;
use std::process::ExitCode;

/// Entries `(median_us, p95_us, p99_us, hits)` keyed by
/// workload.
type Entries = BTreeMap<String, (f64, f64, f64, usize)>;

/// A parsed perf file: its scale (`"quick"` / `"full"`) and entries.
struct PerfFile {
    scale: String,
    entries: Entries,
}

/// Minimal parser for the exact shape `render_perf_json` emits — one
/// entry object per line. Anything surprising is a hard error: the file
/// is machine-written, so leniency only hides breakage.
fn parse(text: &str) -> Result<PerfFile, String> {
    if !text.contains("\"schema\": \"mylead-bench-perf/v1\"") {
        return Err("missing or unknown schema marker".into());
    }
    fn field<'a>(line: &'a str, name: &str) -> Result<&'a str, String> {
        let tag = format!("\"{name}\": ");
        let start =
            line.find(&tag).ok_or_else(|| format!("no field {name:?} in {line:?}"))? + tag.len();
        let rest = &line[start..];
        let end = rest.find([',', '}']).ok_or_else(|| format!("unterminated field {name:?}"))?;
        Ok(rest[..end].trim().trim_matches('"'))
    }
    let mut out = Entries::new();
    for line in text.lines().filter(|l| l.trim_start().starts_with("{\"workload\"")) {
        let workload = field(line, "workload")?.to_string();
        if field(line, "style")? != "semijoin" {
            return Err(format!("unknown plan style in {line:?}"));
        }
        let num = |name: &str| -> Result<f64, String> {
            let v: f64 =
                field(line, name)?.parse().map_err(|e| format!("bad {name} in {line:?}: {e}"))?;
            if !(v.is_finite() && v >= 0.0) {
                return Err(format!("non-finite {name} in {line:?}"));
            }
            Ok(v)
        };
        let (median_us, p95_us, p99_us) = (num("median_us")?, num("p95_us")?, num("p99_us")?);
        if p99_us < p95_us {
            return Err(format!("p99 below p95 in {line:?}"));
        }
        let hits: usize =
            field(line, "hits")?.parse().map_err(|e| format!("bad hits in {line:?}: {e}"))?;
        out.insert(workload, (median_us, p95_us, p99_us, hits));
    }
    if out.is_empty() {
        return Err("no perf entries found".into());
    }
    let scale = text
        .lines()
        .find(|l| l.trim_start().starts_with("\"scale\""))
        .ok_or_else(|| "no scale field".to_string())
        .and_then(|l| field(l, "scale"))?;
    Ok(PerfFile { scale: scale.to_string(), entries: out })
}

fn check(current: &PerfFile, baseline: Option<&PerfFile>, max_regress: f64) -> Vec<String> {
    let mut problems = Vec::new();
    let Some(base) = baseline else { return problems };
    if base.scale != current.scale {
        problems.push(format!(
            "a {} run cannot be checked against a {} baseline",
            current.scale, base.scale
        ));
        return problems;
    }
    for (workload, &(semi, _, _, hits)) in &current.entries {
        if let Some(&(base_semi, _, _, base_hits)) = base.entries.get(workload) {
            if semi > base_semi * max_regress {
                problems.push(format!(
                    "{workload}: median {semi:.1}us regressed >{max_regress}x vs baseline {base_semi:.1}us"
                ));
            }
            if hits != base_hits {
                problems.push(format!(
                    "{workload}: hits {hits} differ from the baseline's {base_hits}"
                ));
            }
        }
    }
    problems
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut max_regress = 2.0f64;
    let mut paths: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--max-regress" {
            match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => max_regress = v,
                None => {
                    eprintln!("--max-regress needs a number");
                    return ExitCode::FAILURE;
                }
            }
        } else {
            paths.push(a);
        }
    }
    let (Some(current_path), baseline_path) = (paths.first(), paths.get(1)) else {
        eprintln!("usage: perfcheck <current.json> [baseline.json] [--max-regress 2.0]");
        return ExitCode::FAILURE;
    };

    let load = |path: &str| -> Result<PerfFile, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let current = match load(current_path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfcheck: {e}");
            return ExitCode::FAILURE;
        }
    };
    let baseline = match baseline_path {
        Some(p) => match load(p) {
            Ok(b) => Some(b),
            Err(e) => {
                eprintln!("perfcheck: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    let problems = check(&current, baseline.as_ref(), max_regress);
    for (workload, (semi, p95, p99, hits)) in &current.entries {
        println!("{workload}: median {semi:.1}us (p95 {p95:.1}us, p99 {p99:.1}us), hits {hits}");
    }
    if problems.is_empty() {
        println!("perfcheck: OK ({} workloads, max regress {max_regress}x)", current.entries.len());
        ExitCode::SUCCESS
    } else {
        for p in &problems {
            eprintln!("perfcheck: FAIL {p}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> String {
        benchkit::experiments::render_perf_json(
            benchkit::experiments::Scale::Quick,
            &[benchkit::experiments::PerfEntry {
                workload: "w".into(),
                median_us: 40.0,
                p95_us: 55.0,
                p99_us: 62.0,
                hits: 7,
            }],
        )
    }

    #[test]
    fn parses_renderer_output() {
        let file = parse(&sample()).unwrap();
        assert_eq!(file.scale, "quick");
        assert_eq!(file.entries["w"], (40.0, 55.0, 62.0, 7));
        assert!(check(&file, None, 2.0).is_empty());
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse("{}").is_err());
        assert!(parse(&sample().replace("mylead-bench-perf/v1", "other")).is_err());
        assert!(parse(&sample().replace("40.000", "oops")).is_err());
        // Tail fields are required and must be ordered.
        assert!(parse(&sample().replace("\"p95_us\": 55.000", "\"p95_us\": 70.000")).is_err());
        assert!(parse(&sample().replace(", \"p95_us\": 55.000", "")).is_err());
        assert!(parse(&sample().replace("semijoin", "materialized")).is_err());
    }

    #[test]
    fn flags_regressions() {
        let entries = parse(&sample()).unwrap();
        let slow = parse(&sample().replace("40.000", "250.000")).unwrap();
        // Vs baseline: semi-join regressed >2x.
        assert!(!check(&slow, Some(&entries), 2.0).is_empty());
        assert!(check(&entries, Some(&entries), 2.0).is_empty());
        // Hits differing from the baseline are a failure, and so is a
        // baseline of another scale, even with nothing slower.
        let bad_hits = parse(&sample().replacen("\"hits\": 7", "\"hits\": 3", 1)).unwrap();
        assert!(!check(&bad_hits, Some(&entries), 2.0).is_empty());
        let full = parse(&sample().replace("\"quick\"", "\"full\"")).unwrap();
        assert!(!check(&entries, Some(&full), 2.0).is_empty());
    }
}
