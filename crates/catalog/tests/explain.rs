//! `EXPLAIN ANALYZE` over the catalog's query path, pinned on the
//! paper's Fig-4 nested dynamic-attribute query.

use catalog::lead::{fig4_query, lead_catalog, FIG3_DOCUMENT};
use catalog::prelude::*;

#[test]
fn explain_analyze_annotates_fig4_plan() {
    let cat = lead_catalog(CatalogConfig::default()).unwrap();
    let id = cat.ingest(FIG3_DOCUMENT).unwrap();
    let q = fig4_query();
    assert_eq!(cat.query(&q).unwrap(), vec![id], "fig-4 query matches the fig-3 document");

    let text = cat.explain_analyze(&q).unwrap();
    let lines: Vec<&str> = text.lines().collect();

    // Every operator line carries actual rows and a timing.
    assert!(lines.len() >= 8, "nested query should plan several operators:\n{text}");
    for line in &lines {
        assert!(
            line.contains("(rows=") && line.contains("time="),
            "unannotated line {line:?} in:\n{text}"
        );
    }

    // Golden shape: sorted distinct object ids at the root, built from
    // element-condition scans joined through the inverted list.
    assert!(lines[0].starts_with("Sort"), "root is the object-id sort:\n{text}");
    assert!(lines[0].contains("(rows=1 "), "one matching object at the root:\n{text}");
    assert!(lines[1].trim_start().starts_with("Distinct"), "{text}");
    assert!(text.contains("Scan elems"), "element conditions scan `elems`:\n{text}");
    assert!(
        text.contains("Scan attr_anc"),
        "nested sub-attribute criteria go through the inverted list:\n{text}"
    );
    assert!(text.contains("HashSemiJoin"), "match path runs as semi-joins:\n{text}");

    // The dx=1000 element condition emits exactly one instance row.
    assert!(
        lines.iter().any(|l| l.contains("Scan elems") && l.contains("rows=1 ")),
        "fig-3 document has one dx=1000 element:\n{text}"
    );

    // Every scan names its access path, and the numeric equality leaves
    // key `elems_by_def` on (elem_id, value_num).
    for line in lines.iter().filter(|l| l.trim_start().starts_with("Scan ")) {
        assert!(line.contains(" via "), "scan without an access path {line:?} in:\n{text}");
    }
    assert!(
        lines.iter().any(|l| l.contains("Scan elems")
            && l.contains("via index elems_by_def key=[Int(")
            && l.contains(", Float(1000.0)]")),
        "dx=1000 is a two-column key lookup:\n{text}"
    );
    // Each inverted-list scan keys `anc_by_link` on its (child,
    // ancestor) definition pair, not on the child definition alone.
    for line in lines.iter().filter(|l| l.trim_start().starts_with("Scan attr_anc")) {
        let keyed = line
            .split_once("via index anc_by_link key=[Int(")
            .and_then(|(_, rest)| rest.split_once(')'))
            .is_some_and(|(id, rest)| id.parse::<i64>().is_ok() && rest.starts_with(", Int("));
        assert!(keyed, "link scan keyed on one definition only {line:?} in:\n{text}");
    }
}

#[test]
fn string_equality_and_range_leaves_are_keyed() {
    let cat = lead_catalog(CatalogConfig::default()).unwrap();
    let id = cat.ingest(FIG3_DOCUMENT).unwrap();
    let scan_line = |dsl: &str| {
        let q = parse_query(dsl).unwrap();
        assert_eq!(cat.query(&q).unwrap(), vec![id], "{dsl} matches the fig-3 document");
        let text = cat.explain_analyze(&q).unwrap();
        text.lines()
            .find(|l| l.contains("Scan elems"))
            .unwrap_or_else(|| panic!("no elems scan for {dsl}:\n{text}"))
            .to_string()
    };
    // A keyword equality keys all three columns: the implied value_num
    // of a non-numeric string is NULL.
    let theme = scan_line("theme[themekey='air_pressure_at_cloud_base']");
    assert!(
        theme.contains("via index elems_by_def key=[Int(")
            && theme.contains(", Null, Str(\"air_pressure_at_cloud_base\")]"),
        "{theme}"
    );
    // A numeric string equality implies its parsed value instead.
    let numeric = scan_line("grid@ARPS[dx='1000.000']");
    assert!(numeric.contains(", Float(1000.0), Str(\"1000.000\")]"), "{numeric}");
    // A range bounds the walk on value_num after the elem_id prefix.
    let range = scan_line("grid@ARPS[dx=500..1500]");
    assert!(
        range.contains("via index elems_by_def key=[Int(")
            && range.contains("range=[Float(500.0), Float(1500.0)]"),
        "{range}"
    );
}

#[test]
fn explain_matches_executed_strategy() {
    // explain_analyze runs the plan query() executes: its root row
    // count is query()'s answer.
    let cat = lead_catalog(CatalogConfig::default()).unwrap();
    cat.ingest(FIG3_DOCUMENT).unwrap();
    let q = fig4_query();
    let hits = cat.query(&q).unwrap().len();
    let text = cat.explain_analyze(&q).unwrap();
    let root = text.lines().next().unwrap();
    assert!(root.contains(&format!("(rows={hits} ")), "root rows != {hits}:\n{text}");
    assert!(text.contains("Scan attr_anc"), "{text}");
}
