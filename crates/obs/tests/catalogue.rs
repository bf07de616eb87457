//! The instrument catalogue and its documentation are one list:
//! `obs::names::ALL` and the instrument table of DESIGN.md §8 name the
//! same instruments, each once, with the same kind.

use std::collections::BTreeMap;

use obs::names::ALL;

const DESIGN: &str = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md"));

/// The `(name, kind)` rows of the `| name | kind | where recorded |`
/// table in DESIGN.md §8, in order.
fn documented() -> Vec<(String, String)> {
    let start = DESIGN.find("\n## 8. ").expect("DESIGN.md has a §8");
    let section = &DESIGN[start + 1..];
    let section = &section[..section.find("\n## ").unwrap_or(section.len())];
    let mut lines = section.lines().skip_while(|l| l.trim() != "| name | kind | where recorded |");
    assert!(lines.next().is_some(), "§8 has no instrument table");
    assert!(lines.next().is_some_and(|l| l.starts_with("|---")), "table has no rule line");
    lines
        .take_while(|l| l.starts_with('|'))
        .map(|row| {
            let cells: Vec<&str> = row.split('|').map(str::trim).collect();
            let name = cells[1]
                .strip_prefix('`')
                .and_then(|c| c.strip_suffix('`'))
                .unwrap_or_else(|| panic!("name cell is not one code span: {row}"));
            (name.to_string(), cells[2].to_string())
        })
        .collect()
}

/// Each name once, or the names that repeat.
fn unique(rows: Vec<(String, String)>) -> Result<BTreeMap<String, String>, Vec<String>> {
    let mut map = BTreeMap::new();
    let mut repeated = Vec::new();
    for (name, kind) in rows {
        if map.insert(name.clone(), kind).is_some() {
            repeated.push(name);
        }
    }
    if repeated.is_empty() {
        Ok(map)
    } else {
        Err(repeated)
    }
}

#[test]
fn design_table_and_catalogue_list_the_same_instruments() {
    let docs = unique(documented()).unwrap_or_else(|r| panic!("DESIGN §8 repeats {r:?}"));
    let code = unique(ALL.iter().map(|i| (i.name().to_string(), i.kind().to_string())).collect())
        .unwrap_or_else(|r| panic!("obs::names::ALL repeats {r:?}"));
    let undocumented: Vec<&String> = code.keys().filter(|n| !docs.contains_key(*n)).collect();
    let unrecorded: Vec<&String> = docs.keys().filter(|n| !code.contains_key(*n)).collect();
    assert!(undocumented.is_empty(), "in obs::names but not in DESIGN §8: {undocumented:?}");
    assert!(unrecorded.is_empty(), "in DESIGN §8 but not in obs::names: {unrecorded:?}");
    for (name, kind) in &code {
        assert_eq!(&docs[name], kind, "{name} has another kind in DESIGN §8");
    }
}

/// The check itself catches a repeated name.
#[test]
fn the_comparison_catches_repeats() {
    let row = |n: &str| (n.to_string(), "counter".to_string());
    assert_eq!(unique(vec![row("a.b"), row("c.d"), row("a.b")]), Err(vec!["a.b".to_string()]));
    assert!(unique(vec![row("a.b"), row("c.d")]).is_ok());
}
