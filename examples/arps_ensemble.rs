//! Domain scenario: cataloging an ARPS forecast ensemble.
//!
//! A scientist runs a 60-member parameter sweep, catalogs every run's
//! metadata as it is generated (the paper's "capture metadata when it
//! is first generated" motivation), then mines the ensemble:
//! which runs used 1 km grid spacing with fine vertical stretching?
//! Which ones are still running? Finally a *new* model version
//! introduces parameters the schema never anticipated — handled by
//! registering a dynamic attribute at user level, no schema change.
//!
//! ```sh
//! cargo run --example arps_ensemble
//! ```

use mylead::catalog::lead::{lead_catalog, DETAILED_PATH};
use mylead::catalog::prelude::*;
use mylead::minidb::{Expr, Plan, ResultSet, Value};
use mylead::xmlkit::ValueType;
use std::collections::BTreeMap;

fn run_doc(member: usize, dx: f64, dzmin: f64, progress: &str) -> String {
    format!(
        "<LEADresource><resourceID>ens-{member:03}</resourceID><data>\
         <idinfo>\
         <status><progress>{progress}</progress><update>hourly</update></status>\
         <keywords><theme><themekt>CF NetCDF</themekt>\
         <themekey>convective_precipitation_amount</themekey></theme></keywords>\
         </idinfo>\
         <geospatial><eainfo><detailed>\
         <enttyp><enttypl>grid</enttypl><enttypds>ARPS</enttypds></enttyp>\
         <attr><attrlabl>grid-stretching</attrlabl><attrdefs>ARPS</attrdefs>\
           <attr><attrlabl>dzmin</attrlabl><attrdefs>ARPS</attrdefs><attrv>{dzmin}</attrv></attr>\
           <attr><attrlabl>reference-height</attrlabl><attrdefs>ARPS</attrdefs><attrv>0</attrv></attr>\
         </attr>\
         <attr><attrlabl>dx</attrlabl><attrdefs>ARPS</attrdefs><attrv>{dx}</attrv></attr>\
         </detailed></eainfo></geospatial></data></LEADresource>"
    )
}

fn main() -> Result<()> {
    let cat = lead_catalog(CatalogConfig::default())?;

    // Catalog the ensemble: dx ∈ {250, 500, 1000, 2000}, dzmin ∈ {20, 50, 100}.
    let mut n = 0;
    for (m, dx) in [250.0, 500.0, 1000.0, 2000.0].iter().enumerate() {
        for (k, dzmin) in [20.0, 50.0, 100.0].iter().enumerate() {
            for r in 0..5 {
                let member = m * 15 + k * 5 + r;
                let progress = if member % 7 == 0 { "running" } else { "complete" };
                cat.ingest_as(
                    &run_doc(member, *dx, *dzmin, progress),
                    "keisha",
                    &format!("ens-{member:03}"),
                )?;
                n += 1;
            }
        }
    }
    println!("cataloged {n} ensemble members\n");

    // Q1: the paper's canonical question.
    let q1 = ObjectQuery::new().attr(
        AttrQuery::new("grid").source("ARPS").elem(ElemCond::eq_num("dx", 1000.0)).sub(
            AttrQuery::new("grid-stretching")
                .source("ARPS")
                .elem(ElemCond::eq_num("dzmin", 100.0)),
        ),
    );
    println!("dx=1000m & dzmin=100m       → {} runs", cat.query(&q1)?.len());

    // Q2: coarse grids, any stretching.
    let q2 = ObjectQuery::new().attr(AttrQuery::new("grid").source("ARPS").elem(ElemCond::num(
        "dx",
        QOp::Ge,
        1000.0,
    )));
    println!("dx >= 1000m                 → {} runs", cat.query(&q2)?.len());

    // Q3: fine vertical resolution on runs that are still going.
    let q3 = ObjectQuery::new()
        .attr(AttrQuery::new("status").elem(ElemCond::eq_str("progress", "running")))
        .attr(AttrQuery::new("grid").source("ARPS").sub(
            AttrQuery::new("grid-stretching").source("ARPS").elem(ElemCond::num(
                "dzmin",
                QOp::Le,
                20.0,
            )),
        ));
    let running = cat.query(&q3)?;
    println!("running & dzmin <= 20m      → {} runs: {running:?}", running.len());

    // A new model version introduces soil-physics parameters the LEAD
    // schema never anticipated: register a *user-level* dynamic
    // attribute — the schema is untouched.
    cat.register_dynamic(
        DETAILED_PATH,
        &DynamicAttrSpec::new("soil-physics", "ARPS-5.3")
            .element("nzsoil", ValueType::Int)
            .element("dzsoil", ValueType::Float),
        DefLevel::User("keisha".into()),
    )?;
    let id = cat.ingest_as(
        "<LEADresource><resourceID>ens-soil</resourceID><data>\
         <idinfo><keywords/></idinfo>\
         <geospatial><eainfo><detailed>\
         <enttyp><enttypl>soil-physics</enttypl><enttypds>ARPS-5.3</enttypds></enttyp>\
         <attr><attrlabl>nzsoil</attrlabl><attrdefs>ARPS-5.3</attrdefs><attrv>20</attrv></attr>\
         <attr><attrlabl>dzsoil</attrlabl><attrdefs>ARPS-5.3</attrdefs><attrv>0.05</attrv></attr>\
         </detailed></eainfo></geospatial></data></LEADresource>",
        "keisha",
        "ens-soil",
    )?;
    let q4 = ObjectQuery::new().attr(
        AttrQuery::new("soil-physics").source("ARPS-5.3").elem(ElemCond::num(
            "nzsoil",
            QOp::Ge,
            10.0,
        )),
    );
    println!("\nnew soil-physics attribute (user-level, no schema change):");
    println!("nzsoil >= 10                → {:?} (expected [{id}])", cat.query(&q4)?);

    // Inspect the store: every `dx` element row, counted per value.
    println!("\nmost common grid spacings across the ensemble:");
    let dx_defs = Plan::Scan { table: "elem_defs".into(), filter: Some(Expr::col_eq(2, "dx")) };
    let dx_rows = Plan::Scan { table: "elems".into(), filter: None }
        .hash_join(dx_defs, vec![3], vec![0])
        .project(vec![(Expr::col(6), "dx".into())]);
    let mut runs: BTreeMap<Value, i64> = BTreeMap::new();
    for row in cat.db().execute(&dx_rows)?.rows {
        *runs.entry(row[0].clone()).or_default() += 1;
    }
    let mut rows: Vec<Vec<Value>> =
        runs.into_iter().map(|(dx, n)| vec![dx, Value::Int(n)]).collect();
    // Most runs first; ties keep the map's ascending dx order.
    rows.sort_by(|a, b| b[1].cmp(&a[1]));
    print!("{}", ResultSet { columns: vec!["dx".into(), "runs".into()], rows }.to_text());
    Ok(())
}
