//! Shredding walkthrough: what Figures 2 and 3 look like inside the
//! catalog's relational store.
//!
//! Prints the Fig-2 partition (roles + global ordering with last-child
//! orders), then ingests the Fig-3 document and dumps the shredded
//! tables through the engine's plan API (scans, joins on definition
//! ids to name the rows, projections and sorts).
//!
//! ```sh
//! cargo run --example shred_walkthrough
//! ```

use mylead::catalog::lead::{lead_catalog, lead_partition, FIG3_DOCUMENT};
use mylead::catalog::ordering::GlobalOrdering;
use mylead::catalog::partition::NodeRole;
use mylead::catalog::prelude::*;
use mylead::minidb::{Database, Expr, Plan};

fn scan(table: &str) -> Plan {
    Plan::Scan { table: table.into(), filter: None }
}

/// Keep the columns at the given positions, under the given names.
fn cols(plan: Plan, cols: &[(usize, &str)]) -> Plan {
    plan.project(cols.iter().map(|&(i, name)| (Expr::col(i), name.to_string())).collect())
}

/// Sort ascending by the columns at the given positions.
fn sorted(plan: Plan, by: &[usize]) -> Plan {
    Plan::Sort { input: Box::new(plan), keys: by.iter().map(|&c| (c, false)).collect() }
}

fn show(db: &Database, plan: Plan) -> Result<()> {
    print!("{}", db.execute(&plan)?.to_text());
    Ok(())
}

fn main() -> Result<()> {
    // --- Figure 2: partition + global ordering -----------------------
    let partition = lead_partition();
    let ordering = GlobalOrdering::new(&partition);
    println!("Fig 2 — global schema ordering (wrappers and attribute roots only):");
    println!("{:<6} {:<14} {:<6} {:<6} role", "order", "tag", "last", "depth");
    for node in ordering.nodes() {
        let role = match partition.role(node.node) {
            NodeRole::Wrapper => "wrapper",
            NodeRole::AttributeRoot { dynamic: true } => "attribute (dynamic)",
            NodeRole::AttributeRoot { dynamic: false } => "attribute",
            _ => unreachable!("only wrappers/roots are ordered"),
        };
        println!("{:<6} {:<14} {:<6} {:<6} {role}", node.order, node.tag, node.last, node.depth);
    }
    println!("\n(theme carries global order 10, as the paper states in §3)\n");

    // --- Figure 3: shred the example document ------------------------
    let cat = lead_catalog(CatalogConfig::default())?;
    let id = cat.ingest(FIG3_DOCUMENT)?;
    println!("ingested Fig-3 document as object {id}\n");

    let db = cat.db();
    println!("attribute definitions (structural + registered dynamic):");
    let defs = cols(
        scan("attr_defs"),
        &[
            (0, "attr_id"),
            (1, "name"),
            (2, "source"),
            (3, "parent"),
            (4, "schema_order"),
            (5, "dynamic"),
        ],
    );
    show(db, sorted(defs, &[0]))?;

    // Joined columns follow the left input's: `attr_defs` (8 columns)
    // joined after `clobs` (5) starts at 5, so its `name` is column 6.
    println!("\nCLOB index (one row per attribute instance; bytes live in the CLOB heap):");
    let clobs = scan("clobs").hash_join(scan("attr_defs"), vec![1], vec![0]);
    let clobs = cols(clobs, &[(0, "object_id"), (6, "name"), (2, "schema_order"), (3, "clob_seq")]);
    show(db, sorted(clobs, &[2, 3]))?;

    println!("\nshredded element rows (the query side; note typed numeric column):");
    let elems = scan("elems").hash_join(scan("attr_defs"), vec![1], vec![0]).hash_join(
        scan("elem_defs"),
        vec![3],
        vec![0],
    );
    let elems = cols(
        elems,
        &[
            (8, "attribute"),
            (2, "attr_seq"),
            (17, "element"),
            (4, "elem_seq"),
            (5, "value_str"),
            (6, "value_num"),
        ],
    );
    show(db, sorted(elems, &[0, 1, 3]))?;

    println!("\ninstance-level inverted list (sub-attribute → ancestors, distance):");
    let anc = scan("attr_anc").hash_join(scan("attr_defs"), vec![1], vec![0]).hash_join(
        scan("attr_defs"),
        vec![3],
        vec![0],
    );
    let anc = cols(
        anc,
        &[(7, "sub_attribute"), (2, "seq"), (15, "ancestor"), (4, "anc_seq"), (5, "distance")],
    );
    show(db, anc)?;

    println!("\nschema-level ancestor inverted list feeds response tagging:");
    let theme = Plan::Scan { table: "order_anc".into(), filter: Some(Expr::col_eq(0, 10)) };
    let tagged = theme.hash_join(scan("schema_order"), vec![0], vec![0]).hash_join(
        scan("schema_order"),
        vec![1],
        vec![0],
    );
    show(db, cols(tagged, &[(0, "order_id"), (3, "tag"), (1, "anc_order"), (8, "anc_tag")]))?;
    Ok(())
}
