//! Name binding and logical-to-physical planning for SQL statements.

use super::ast::*;
use crate::db::Database;
use crate::error::{DbError, Result};
use crate::exec::{AggCall, AggFunc, JoinKind, Plan, ResultSet};
use crate::expr::{ArithOp, CmpOp, Expr};
use crate::table::{Column, TableSchema};
use crate::value::Value;

/// One visible column during binding: `(binding, column name)`.
#[derive(Debug, Clone)]
struct Scope {
    cols: Vec<(String, String)>,
}

/// The schema of table `name`, cloned out of a short-lived read so the
/// binder holds no gate while the statement later executes.
fn schema_of(db: &Database, name: &str) -> Result<TableSchema> {
    Ok(db.begin_read().table(name)?.schema.clone())
}

impl Scope {
    fn from_table(db: &Database, tref: &TableRef) -> Result<Scope> {
        let schema = schema_of(db, &tref.name)?;
        let binding = tref.binding().to_string();
        Ok(Scope {
            cols: schema.columns.iter().map(|c| (binding.clone(), c.name.clone())).collect(),
        })
    }

    fn concat(&self, other: &Scope) -> Scope {
        let mut cols = self.cols.clone();
        cols.extend(other.cols.iter().cloned());
        Scope { cols }
    }

    fn arity(&self) -> usize {
        self.cols.len()
    }

    fn resolve(&self, table: Option<&str>, name: &str) -> Result<usize> {
        let matches: Vec<usize> = self
            .cols
            .iter()
            .enumerate()
            .filter(|(_, (b, c))| c == name && table.map(|t| t == b).unwrap_or(true))
            .map(|(i, _)| i)
            .collect();
        match matches.len() {
            0 => Err(DbError::NoSuchColumn(match table {
                Some(t) => format!("{t}.{name}"),
                None => name.to_string(),
            })),
            1 => Ok(matches[0]),
            _ => Err(DbError::Plan(format!("ambiguous column {name}"))),
        }
    }
}

/// Bind a scalar SQL expression (no aggregates allowed) to positions.
fn bind(e: &SqlExpr, scope: &Scope) -> Result<Expr> {
    match e {
        SqlExpr::Col { table, name } => Ok(Expr::Col(scope.resolve(table.as_deref(), name)?)),
        SqlExpr::Lit(v) => Ok(Expr::Lit(v.clone())),
        SqlExpr::Binary { op, lhs, rhs } => {
            let l = bind(lhs, scope)?;
            let r = bind(rhs, scope)?;
            bin_op(op, l, r)
        }
        SqlExpr::Not(x) => Ok(Expr::Not(Box::new(bind(x, scope)?))),
        SqlExpr::IsNull { expr, negated } => {
            let inner = Expr::IsNull(Box::new(bind(expr, scope)?));
            Ok(if *negated { Expr::Not(Box::new(inner)) } else { inner })
        }
        SqlExpr::Like { expr, pattern } => {
            Ok(Expr::Like(Box::new(bind(expr, scope)?), pattern.clone()))
        }
        SqlExpr::Between { expr, lo, hi } => Ok(Expr::Between(
            Box::new(bind(expr, scope)?),
            Box::new(bind(lo, scope)?),
            Box::new(bind(hi, scope)?),
        )),
        SqlExpr::InList { expr, list } => {
            Ok(Expr::InList(Box::new(bind(expr, scope)?), list.clone()))
        }
        SqlExpr::Agg { .. } => Err(DbError::Plan("aggregate not allowed here".into())),
    }
}

fn bin_op(op: &str, l: Expr, r: Expr) -> Result<Expr> {
    Ok(match op {
        "AND" => Expr::And(Box::new(l), Box::new(r)),
        "OR" => Expr::Or(Box::new(l), Box::new(r)),
        "=" => Expr::Cmp(CmpOp::Eq, Box::new(l), Box::new(r)),
        "<>" => Expr::Cmp(CmpOp::Ne, Box::new(l), Box::new(r)),
        "<" => Expr::Cmp(CmpOp::Lt, Box::new(l), Box::new(r)),
        "<=" => Expr::Cmp(CmpOp::Le, Box::new(l), Box::new(r)),
        ">" => Expr::Cmp(CmpOp::Gt, Box::new(l), Box::new(r)),
        ">=" => Expr::Cmp(CmpOp::Ge, Box::new(l), Box::new(r)),
        "+" => Expr::Arith(ArithOp::Add, Box::new(l), Box::new(r)),
        "-" => Expr::Arith(ArithOp::Sub, Box::new(l), Box::new(r)),
        "*" => Expr::Arith(ArithOp::Mul, Box::new(l), Box::new(r)),
        "/" => Expr::Arith(ArithOp::Div, Box::new(l), Box::new(r)),
        "%" => Expr::Arith(ArithOp::Mod, Box::new(l), Box::new(r)),
        other => return Err(DbError::Plan(format!("unknown operator {other}"))),
    })
}

/// Does the expression contain an aggregate call?
fn has_agg(e: &SqlExpr) -> bool {
    match e {
        SqlExpr::Agg { .. } => true,
        SqlExpr::Col { .. } | SqlExpr::Lit(_) => false,
        SqlExpr::Binary { lhs, rhs, .. } => has_agg(lhs) || has_agg(rhs),
        SqlExpr::Not(x) => has_agg(x),
        SqlExpr::IsNull { expr, .. } => has_agg(expr),
        SqlExpr::Like { expr, .. } => has_agg(expr),
        SqlExpr::Between { expr, lo, hi } => has_agg(expr) || has_agg(lo) || has_agg(hi),
        SqlExpr::InList { expr, .. } => has_agg(expr),
    }
}

/// Rewrite an expression over the *output* of an Aggregate node:
/// group-by columns map to positions `0..groups`, aggregate calls to
/// `groups + index-in-aggs` (registering new aggregates as found).
struct AggRewriter<'a> {
    group_exprs: &'a [SqlExpr],
    input_scope: &'a Scope,
    aggs: Vec<(SqlExpr, AggCall)>,
}

impl<'a> AggRewriter<'a> {
    fn new(group_exprs: &'a [SqlExpr], input_scope: &'a Scope) -> Self {
        AggRewriter { group_exprs, input_scope, aggs: Vec::new() }
    }

    fn rewrite(&mut self, e: &SqlExpr) -> Result<Expr> {
        // A group-by expression anywhere maps to its output position.
        if let Some(pos) = self.group_exprs.iter().position(|g| g == e) {
            return Ok(Expr::Col(pos));
        }
        match e {
            SqlExpr::Agg { func, arg, distinct } => {
                let func_enum = match func.as_str() {
                    "COUNT" => AggFunc::Count,
                    "SUM" => AggFunc::Sum,
                    "MIN" => AggFunc::Min,
                    "MAX" => AggFunc::Max,
                    "AVG" => AggFunc::Avg,
                    other => return Err(DbError::Plan(format!("unknown aggregate {other}"))),
                };
                let bound_arg = match arg {
                    None => None,
                    Some(a) => Some(bind(a, self.input_scope)?),
                };
                // Deduplicate structurally identical aggregate calls.
                if let Some(pos) = self.aggs.iter().position(|(orig, _)| orig == e) {
                    return Ok(Expr::Col(self.group_exprs.len() + pos));
                }
                let idx = self.aggs.len();
                self.aggs.push((
                    e.clone(),
                    AggCall {
                        func: func_enum,
                        arg: bound_arg,
                        name: format!("agg{idx}"),
                        distinct: *distinct,
                    },
                ));
                Ok(Expr::Col(self.group_exprs.len() + idx))
            }
            SqlExpr::Lit(v) => Ok(Expr::Lit(v.clone())),
            SqlExpr::Col { table, name } => Err(DbError::Plan(format!(
                "column {}{name} must appear in GROUP BY or inside an aggregate",
                table.as_deref().map(|t| format!("{t}.")).unwrap_or_default()
            ))),
            SqlExpr::Binary { op, lhs, rhs } => {
                let l = self.rewrite(lhs)?;
                let r = self.rewrite(rhs)?;
                bin_op(op, l, r)
            }
            SqlExpr::Not(x) => Ok(Expr::Not(Box::new(self.rewrite(x)?))),
            SqlExpr::IsNull { expr, negated } => {
                let inner = Expr::IsNull(Box::new(self.rewrite(expr)?));
                Ok(if *negated { Expr::Not(Box::new(inner)) } else { inner })
            }
            SqlExpr::Like { expr, pattern } => {
                Ok(Expr::Like(Box::new(self.rewrite(expr)?), pattern.clone()))
            }
            SqlExpr::Between { expr, lo, hi } => Ok(Expr::Between(
                Box::new(self.rewrite(expr)?),
                Box::new(self.rewrite(lo)?),
                Box::new(self.rewrite(hi)?),
            )),
            SqlExpr::InList { expr, list } => {
                Ok(Expr::InList(Box::new(self.rewrite(expr)?), list.clone()))
            }
        }
    }
}

/// Split a join condition into equi-key pairs and a residual predicate.
fn split_join_keys(
    on: &SqlExpr,
    left: &Scope,
    right: &Scope,
) -> (Vec<(usize, usize)>, Vec<SqlExpr>) {
    fn conjuncts(e: &SqlExpr, out: &mut Vec<SqlExpr>) {
        if let SqlExpr::Binary { op, lhs, rhs } = e {
            if op == "AND" {
                conjuncts(lhs, out);
                conjuncts(rhs, out);
                return;
            }
        }
        out.push(e.clone());
    }
    let mut terms = Vec::new();
    conjuncts(on, &mut terms);
    let mut keys = Vec::new();
    let mut residual = Vec::new();
    for t in terms {
        let mut taken = false;
        if let SqlExpr::Binary { op, lhs, rhs } = &t {
            if op == "=" {
                if let (
                    SqlExpr::Col { table: lt, name: ln },
                    SqlExpr::Col { table: rt, name: rn },
                ) = (lhs.as_ref(), rhs.as_ref())
                {
                    let l_in_left = left.resolve(lt.as_deref(), ln).ok();
                    let r_in_right = right.resolve(rt.as_deref(), rn).ok();
                    if let (Some(a), Some(b)) = (l_in_left, r_in_right) {
                        keys.push((a, b));
                        taken = true;
                    } else {
                        let l_in_right = right.resolve(lt.as_deref(), ln).ok();
                        let r_in_left = left.resolve(rt.as_deref(), rn).ok();
                        if let (Some(b), Some(a)) = (l_in_right, r_in_left) {
                            keys.push((a, b));
                            taken = true;
                        }
                    }
                }
            }
        }
        if !taken {
            residual.push(t);
        }
    }
    (keys, residual)
}

/// Plan a SELECT into a physical plan; returns the plan and whether the
/// statement is a query (always true here, kept for symmetry).
pub fn plan_select(db: &Database, sel: &SelectStmt) -> Result<Plan> {
    // FROM and JOINs.
    let mut scope = Scope::from_table(db, &sel.from)?;
    let mut plan = Plan::Scan { table: sel.from.name.clone(), filter: None };
    for j in &sel.joins {
        let right_scope = Scope::from_table(db, &j.table)?;
        let right_plan = Plan::Scan { table: j.table.name.clone(), filter: None };
        let (keys, residual) = split_join_keys(&j.on, &scope, &right_scope);
        let kind = if j.left_outer { JoinKind::Left } else { JoinKind::Inner };
        let joined_scope = scope.concat(&right_scope);
        if keys.is_empty() {
            let pred = bind(&j.on, &joined_scope)?;
            plan = Plan::NestedLoopJoin {
                left: Box::new(plan),
                right: Box::new(right_plan),
                pred: Some(pred),
                kind,
            };
        } else {
            let left_arity = scope.arity();
            plan = Plan::HashJoin {
                left: Box::new(plan),
                right: Box::new(right_plan),
                left_keys: keys.iter().map(|(a, _)| *a).collect(),
                right_keys: keys.iter().map(|(_, b)| *b).collect(),
                kind,
            };
            if !residual.is_empty() {
                // Residual conditions reference the concatenated row.
                let _ = left_arity;
                let pred = bind(
                    &SqlExpr::Binary {
                        op: "AND".into(),
                        lhs: Box::new(residual[0].clone()),
                        rhs: Box::new(residual.iter().skip(1).fold(
                            SqlExpr::Lit(Value::Bool(true)),
                            |acc, t| SqlExpr::Binary {
                                op: "AND".into(),
                                lhs: Box::new(acc),
                                rhs: Box::new(t.clone()),
                            },
                        )),
                    },
                    &joined_scope,
                )?;
                if kind == JoinKind::Left {
                    return Err(DbError::Plan(
                        "non-equi residual conditions on LEFT JOIN are not supported".into(),
                    ));
                }
                plan = plan.filter(pred);
            }
        }
        scope = joined_scope;
    }

    // WHERE — push into a bare scan so index routing can kick in.
    if let Some(w) = &sel.where_ {
        let pred = bind(w, &scope)?;
        plan = match plan {
            Plan::Scan { table, filter: None } => Plan::Scan { table, filter: Some(pred) },
            other => other.filter(pred),
        };
    }

    let is_agg_query = !sel.group_by.is_empty()
        || sel
            .items
            .iter()
            .any(|i| matches!(i, SelectItem::Expr { expr, .. } if has_agg(expr)))
        || sel.having.as_ref().map(has_agg).unwrap_or(false);

    // Projections and (optionally) aggregation.
    let mut out_names: Vec<String> = Vec::new();
    if is_agg_query {
        let mut rewriter = AggRewriter::new(&sel.group_by, &scope);
        let mut proj: Vec<(Expr, String)> = Vec::new();
        for item in &sel.items {
            match item {
                SelectItem::Star => {
                    return Err(DbError::Plan("SELECT * is not valid with GROUP BY".into()));
                }
                SelectItem::Expr { expr, alias } => {
                    let bound = rewriter.rewrite(expr)?;
                    let name = alias.clone().unwrap_or_else(|| derive_name(expr));
                    out_names.push(name.clone());
                    proj.push((bound, name));
                }
            }
        }
        let having = match &sel.having {
            None => None,
            Some(h) => Some(rewriter.rewrite(h)?),
        };
        let group_cols: Vec<usize> = sel
            .group_by
            .iter()
            .map(|g| match g {
                SqlExpr::Col { table, name } => scope.resolve(table.as_deref(), name),
                _ => Err(DbError::Plan("GROUP BY supports plain columns only".into())),
            })
            .collect::<Result<_>>()?;
        let aggs: Vec<AggCall> = rewriter.aggs.into_iter().map(|(_, c)| c).collect();
        plan = plan.aggregate(group_cols, aggs);
        if let Some(h) = having {
            plan = plan.filter(h);
        }
        plan = plan.project(proj);
    } else {
        let mut proj: Vec<(Expr, String)> = Vec::new();
        for item in &sel.items {
            match item {
                SelectItem::Star => {
                    for (i, (_, name)) in scope.cols.iter().enumerate() {
                        proj.push((Expr::Col(i), name.clone()));
                        out_names.push(name.clone());
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    let bound = bind(expr, &scope)?;
                    let name = alias.clone().unwrap_or_else(|| derive_name(expr));
                    out_names.push(name.clone());
                    proj.push((bound, name));
                }
            }
        }
        plan = plan.project(proj);
    }

    if sel.distinct {
        plan = Plan::Distinct { input: Box::new(plan) };
    }

    // ORDER BY binds against output names (or bare column names that
    // made it through projection).
    if !sel.order_by.is_empty() {
        let mut keys = Vec::new();
        for (e, desc) in &sel.order_by {
            let pos = match e {
                SqlExpr::Col { name, .. } => {
                    // Qualified names match the bare output column: the
                    // projection drops qualifiers.
                    out_names.iter().position(|n| n == name).ok_or_else(|| {
                        DbError::Plan(format!("ORDER BY column {name} is not in the projection"))
                    })?
                }
                SqlExpr::Lit(Value::Int(i)) if *i >= 1 && (*i as usize) <= out_names.len() => {
                    (*i - 1) as usize
                }
                other => {
                    return Err(DbError::Plan(format!(
                        "ORDER BY supports projected columns or positions, got {other:?}"
                    )));
                }
            };
            keys.push((pos, *desc));
        }
        plan = Plan::Sort { input: Box::new(plan), keys };
    }

    if let Some(n) = sel.limit {
        plan = Plan::Limit { input: Box::new(plan), n };
    }
    Ok(plan)
}

fn derive_name(e: &SqlExpr) -> String {
    match e {
        SqlExpr::Col { name, .. } => name.clone(),
        SqlExpr::Agg { func, arg: None, .. } => format!("{}(*)", func.to_lowercase()),
        SqlExpr::Agg { func, arg: Some(a), distinct } => format!(
            "{}({}{})",
            func.to_lowercase(),
            if *distinct { "distinct " } else { "" },
            derive_name(a)
        ),
        _ => "expr".to_string(),
    }
}

/// Execute any parsed statement against the database.
pub fn execute_stmt(db: &Database, stmt: &Stmt) -> Result<ResultSet> {
    match stmt {
        Stmt::CreateTable { name, columns } => {
            let schema = TableSchema::new(
                columns
                    .iter()
                    .map(|(n, t, nullable)| Column {
                        name: n.clone(),
                        dtype: *t,
                        nullable: *nullable,
                    })
                    .collect(),
            );
            db.create_table(name.clone(), schema)?;
            Ok(ResultSet::default())
        }
        Stmt::CreateIndex { name, table, columns, unique } => {
            let cols: Vec<&str> = columns.iter().map(|s| s.as_str()).collect();
            db.create_index(table, name, &cols, *unique)?;
            Ok(ResultSet::default())
        }
        Stmt::DropTable { name } => {
            db.drop_table(name)?;
            Ok(ResultSet::default())
        }
        Stmt::Insert { table, columns, rows } => {
            let schema = schema_of(db, table)?;
            let reorder: Option<Vec<usize>> = match columns {
                None => None,
                Some(cols) => {
                    let positions: Vec<usize> =
                        cols.iter().map(|c| schema.col(c)).collect::<Result<_>>()?;
                    if positions.len() != schema.arity() {
                        return Err(DbError::Plan(
                            "INSERT column list must cover all columns".into(),
                        ));
                    }
                    Some(positions)
                }
            };
            let mut actual_rows = Vec::with_capacity(rows.len());
            for row in rows {
                let actual: Vec<Value> = match &reorder {
                    None => row.clone(),
                    Some(pos) => {
                        if row.len() != pos.len() {
                            return Err(DbError::SchemaMismatch(format!(
                                "expected {} values, got {}",
                                pos.len(),
                                row.len()
                            )));
                        }
                        let mut out = vec![Value::Null; pos.len()];
                        for (v, &p) in row.iter().zip(pos.iter()) {
                            out[p] = v.clone();
                        }
                        out
                    }
                };
                actual_rows.push(actual);
            }
            // Route through the database so durable mode logs the rows.
            let n = db.insert(table, actual_rows)? as i64;
            Ok(ResultSet { columns: vec!["inserted".into()], rows: vec![vec![Value::Int(n)]] })
        }
        Stmt::Update { table, sets, where_ } => {
            let schema = schema_of(db, table)?;
            let scope = Scope {
                cols: schema.columns.iter().map(|c| (table.clone(), c.name.clone())).collect(),
            };
            let positions: Vec<usize> =
                sets.iter().map(|(c, _)| schema.col(c)).collect::<Result<_>>()?;
            let pred = match where_ {
                None => None,
                Some(w) => Some(bind(w, &scope)?),
            };
            let bound_sets: Vec<(usize, Expr)> = positions
                .iter()
                .zip(sets.iter())
                .map(|(&pos, (_, e))| bind(e, &scope).map(|b| (pos, b)))
                .collect::<Result<_>>()?;
            // Route through the database so durable mode logs the update.
            let n = db.update_where(table, pred.as_ref(), &bound_sets)? as i64;
            Ok(ResultSet { columns: vec!["updated".into()], rows: vec![vec![Value::Int(n)]] })
        }
        Stmt::Delete { table, where_ } => {
            let n = match where_ {
                // Unqualified DELETE routes through the database so
                // durable mode logs the truncation.
                None => db.truncate_table(table)?,
                Some(w) => {
                    let schema = schema_of(db, table)?;
                    let scope = Scope {
                        cols: schema
                            .columns
                            .iter()
                            .map(|c| (table.clone(), c.name.clone()))
                            .collect(),
                    };
                    let pred = bind(w, &scope)?;
                    db.delete_where(table, &pred)?
                }
            };
            Ok(ResultSet {
                columns: vec!["deleted".into()],
                rows: vec![vec![Value::Int(n as i64)]],
            })
        }
        Stmt::Select(sel) => {
            let plan = plan_select(db, sel)?;
            db.execute(&plan)
        }
    }
}
