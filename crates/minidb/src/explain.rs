//! Plan rendering, `EXPLAIN ANALYZE`-style.
//!
//! [`explain_analyze`] runs a [`Plan`] and renders it as an indented
//! operator tree, each line annotated with the operator's actual output
//! rows and inclusive wall time; each `Scan` line also names the access
//! path it took (see [`crate::access`]). Tests use it to pin plan
//! shapes and access paths, the CLI's `analyze` command prints it, and
//! the benchmark reads its per-scan row counts.

use crate::access::AccessPath;
use crate::db::{Database, ReadTxn};
use crate::error::Result;
use crate::exec::Plan;
use crate::expr::{CmpOp, Expr};
use crate::profile::{format_nanos, PlanProfile};

/// Execute `plan` on `db` and render its tree with actual per-operator
/// stats: `(rows=<emitted> time=<inclusive wall time>)`. Each `Scan`
/// line also names its access path, `via index <name> key=[..]
/// range=..` or `via full scan`, and its stats add the rows that path
/// visited before the filter ran, `(rows=<emitted> visited=<visited>
/// time=..)`, so a scan whose key stops short of the filter's selective
/// terms shows up, and so does a walk that returns extra rows.
///
/// Timings are inclusive — an operator's time contains its inputs' —
/// so the root line reads as total execution time and hot subtrees
/// stay hot at every level up.
pub fn explain_analyze(plan: &Plan, db: &Database) -> Result<String> {
    let (_, profile) = db.execute_profiled(plan)?;
    // Access paths depend on the tables' index definitions only, so a
    // second read after the profiled run names the paths it took.
    let rt = db.begin_read();
    let mut out = String::new();
    walk(plan, 0, &mut out, &profile, &rt, &mut Vec::new());
    Ok(out)
}

fn pad(depth: usize, out: &mut String) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn node_label(plan: &Plan) -> String {
    match plan {
        Plan::Scan { table, filter } => match filter {
            Some(f) => format!("Scan {table} filter={}", expr_str(f)),
            None => format!("Scan {table}"),
        },
        Plan::Values { columns, rows } => {
            format!("Values [{}] x{}", columns.join(", "), rows.len())
        }
        Plan::Project { exprs, .. } => {
            let cols: Vec<String> =
                exprs.iter().map(|(e, n)| format!("{n}={}", expr_str(e))).collect();
            format!("Project [{}]", cols.join(", "))
        }
        Plan::HashJoin { left_keys, right_keys, .. } => {
            format!("HashJoin on {left_keys:?}={right_keys:?}")
        }
        Plan::HashSemiJoin { probe_keys, build_keys, anti, .. } => {
            let op = if *anti { "HashAntiJoin" } else { "HashSemiJoin" };
            format!("{op} on {probe_keys:?}={build_keys:?}")
        }
        Plan::Sort { keys, .. } => format!("Sort {keys:?}"),
        Plan::Distinct { .. } => "Distinct".to_string(),
    }
}

/// Inputs in execution-path order (joins: left = 0, right = 1) —
/// must match `Database::exec_node`'s child numbering.
fn node_children(plan: &Plan) -> Vec<&Plan> {
    match plan {
        Plan::Scan { .. } | Plan::Values { .. } => vec![],
        Plan::Project { input, .. } | Plan::Sort { input, .. } | Plan::Distinct { input } => {
            vec![input]
        }
        Plan::HashJoin { left, right, .. } => vec![left, right],
        Plan::HashSemiJoin { probe, build, .. } => vec![probe, build],
    }
}

fn walk(
    plan: &Plan,
    depth: usize,
    out: &mut String,
    profile: &PlanProfile,
    rt: &ReadTxn<'_>,
    path: &mut Vec<u16>,
) {
    pad(depth, out);
    out.push_str(&node_label(plan));
    if let Plan::Scan { table, filter } = plan {
        if let Ok(t) = rt.table(table) {
            out.push_str(&format!(" via {}", AccessPath::choose(t, filter.as_ref())));
        }
    }
    match profile.get(path) {
        Some(stats) => {
            out.push_str(&format!(" (rows={}", stats.rows_out));
            if let Some(visited) = stats.visited {
                out.push_str(&format!(" visited={visited}"));
            }
            out.push_str(&format!(" time={})", format_nanos(stats.nanos)));
        }
        None => out.push_str(" (not executed)"),
    }
    out.push('\n');
    for (input_no, child) in node_children(plan).into_iter().enumerate() {
        path.push(input_no as u16);
        walk(child, depth + 1, out, profile, rt, path);
        path.pop();
    }
}

/// Compact one-line rendering of an expression.
pub fn expr_str(e: &Expr) -> String {
    match e {
        Expr::Col(i) => format!("#{i}"),
        Expr::Lit(v) => format!("{v:?}"),
        Expr::Cmp(op, a, b) => {
            let o = match op {
                CmpOp::Eq => "=",
                CmpOp::Ne => "<>",
                CmpOp::Lt => "<",
                CmpOp::Le => "<=",
                CmpOp::Gt => ">",
                CmpOp::Ge => ">=",
            };
            format!("({} {o} {})", expr_str(a), expr_str(b))
        }
        Expr::And(a, b) => format!("({} AND {})", expr_str(a), expr_str(b)),
        Expr::Or(a, b) => format!("({} OR {})", expr_str(a), expr_str(b)),
        Expr::Not(a) => format!("NOT {}", expr_str(a)),
        Expr::Like(a, p) => format!("({} LIKE {p:?})", expr_str(a)),
        Expr::IsNull(a) => format!("({} IS NULL)", expr_str(a)),
        Expr::Between(x, lo, hi) => {
            format!("({} BETWEEN {} AND {})", expr_str(x), expr_str(lo), expr_str(hi))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_tree() {
        use crate::table::{Column, TableSchema};
        use crate::value::DataType;

        let db = Database::new();
        for t in ["t", "u"] {
            let cols = vec![Column::new("a", DataType::Int), Column::new("b", DataType::Int)];
            db.create_table(t, TableSchema::new(cols)).unwrap();
        }
        let plan = Plan::Scan { table: "t".into(), filter: Some(Expr::col_eq(0, 1)) }.hash_join(
            Plan::Scan { table: "u".into(), filter: None },
            vec![0],
            vec![1],
        );
        let plan = Plan::Sort { input: Box::new(plan), keys: vec![(0, false)] }
            .project(vec![(Expr::col(1), "n".into())]);
        let text = explain_analyze(&plan, &db).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("Project [n=#1]"), "{text}");
        assert!(lines[1].starts_with("  Sort [(0, false)]"), "{text}");
        assert!(lines[2].starts_with("    HashJoin on [0]=[1]"), "{text}");
        assert!(lines[3].starts_with("      Scan t filter=(#0 = Int(1))"), "{text}");
        assert!(lines[4].starts_with("      Scan u"), "{text}");
    }

    #[test]
    fn analyze_annotates_every_operator() {
        use crate::table::{Column, TableSchema};
        use crate::value::DataType;

        let db = Database::new();
        db.create_table(
            "t",
            TableSchema::new(vec![
                Column::new("id", DataType::Int),
                Column::new("k", DataType::Int),
            ]),
        )
        .unwrap();
        db.insert("t", (0..10).map(|i| vec![i.into(), (i % 3).into()])).unwrap();
        let plan = Plan::Distinct {
            input: Box::new(
                Plan::Scan { table: "t".into(), filter: None }
                    .project(vec![(Expr::col(1), "k".into())]),
            ),
        };
        let text = explain_analyze(&plan, &db).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        // Same tree shape as EXPLAIN, each line annotated with stats.
        assert!(lines[0].starts_with("Distinct") && lines[0].contains("(rows=3 time="));
        assert!(
            lines[1].trim_start().starts_with("Project [k=#1]") && lines[1].contains("rows=10")
        );
        assert!(lines[2].trim_start().starts_with("Scan t") && lines[2].contains("rows=10"));
        // The scan names its access path: no filter, no index.
        assert!(lines[2].contains("Scan t via full scan (rows=10"), "{text}");
        // With an index the filtered scan names the index and key.
        db.create_index("t", "by_k", &["k"], false).unwrap();
        let keyed = Plan::Scan { table: "t".into(), filter: Some(Expr::col_eq(1, 0)) };
        let text = explain_analyze(&keyed, &db).unwrap();
        assert!(text.contains("via index by_k key=[Int(0)] (rows=4 visited=4 time="), "{text}");
        // A scan's stats count the rows its path visited before the
        // filter ran: here every row, for one match.
        let full = Plan::Scan { table: "t".into(), filter: Some(Expr::col_eq(0, 3)) };
        let text = explain_analyze(&full, &db).unwrap();
        assert!(text.contains("via full scan (rows=1 visited=10 time="), "{text}");
    }

    #[test]
    fn profiled_execution_matches_plain() {
        use crate::table::{Column, TableSchema};
        use crate::value::DataType;

        let db = Database::new();
        db.create_table("t", TableSchema::new(vec![Column::new("id", DataType::Int)]))
            .unwrap();
        db.insert("t", (0..5).map(|i| vec![i.into()])).unwrap();
        let plan = Plan::Scan { table: "t".into(), filter: None }.hash_join(
            Plan::Scan { table: "t".into(), filter: None },
            vec![0],
            vec![0],
        );
        let plain = db.execute(&plan).unwrap();
        let (profiled, profile) = db.execute_profiled(&plan).unwrap();
        assert_eq!(plain.rows, profiled.rows);
        // Root + both join inputs, addressed by path.
        assert_eq!(profile.len(), 3);
        assert_eq!(profile.root().unwrap().rows_out, 5);
        assert_eq!(profile.get(&[0]).unwrap().rows_out, 5);
        assert_eq!(profile.get(&[1]).unwrap().rows_out, 5);
        // Inclusive timing: the root covers its inputs.
        let root = profile.root().unwrap();
        assert!(root.nanos >= profile.get(&[0]).unwrap().nanos);
    }

    #[test]
    fn expr_rendering() {
        let e = Expr::and(
            Expr::col_eq(0, "x"),
            Expr::Between(Box::new(Expr::col(1)), Box::new(Expr::lit(1)), Box::new(Expr::lit(2))),
        );
        assert_eq!(expr_str(&e), "((#0 = Str(\"x\")) AND (#1 BETWEEN Int(1) AND Int(2)))");
    }
}
