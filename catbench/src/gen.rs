//! Seeded inputs: the corpus generator, the query-text renderer, the
//! QUERY/SEARCH pools and the per-connection request streams.
//!
//! Everything here is a pure function of the `--seed` argument, so two
//! runs with the same seed send the same requests in the same order on
//! each connection (how many of them fit in the window is up to the
//! program under test).

use catalog::qparse::{normalize_query, parse_query};
use catalog::query::{AttrQuery, ElemCond, ObjectQuery, QOp, QValue};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use workload::{DocGenerator, QueryGenerator, QueryShape, WorkloadConfig};

/// Documents bulk-loaded at set-up.
pub const CORPUS_DOCS: usize = 2_000;
/// Distinct queries in the hot pool (fits the 128-entry plan cache).
pub const HOT_QUERIES: usize = 64;
/// Entries in the cold pool (far more than the plan cache holds).
pub const COLD_QUERIES: usize = 4_096;
/// Range queries SEARCH and paging draw from.
pub const RANGE_QUERIES: usize = 1_024;
/// Ids a paging QUERY fetches.
pub const PAGE: usize = 20;

/// The document generator of a seed: default knobs, seeded corpus.
pub fn doc_generator(seed: u64) -> DocGenerator {
    DocGenerator::new(WorkloadConfig { seed, ..WorkloadConfig::default() })
}

/// Render a query in the `catalog::qparse` DSL.
pub fn render(q: &ObjectQuery) -> String {
    q.attrs.iter().map(render_attr).collect::<Vec<_>>().join("; ")
}

fn render_attr(a: &AttrQuery) -> String {
    let mut s = a.name.clone();
    if let Some(src) = &a.source {
        s.push('@');
        s.push_str(src);
    }
    for c in &a.elems {
        s.push_str(&render_cond(c));
    }
    if !a.subs.is_empty() {
        s.push('{');
        s.push_str(&a.subs.iter().map(render_attr).collect::<Vec<_>>().join(", "));
        s.push('}');
    }
    s
}

fn render_value(v: &QValue) -> String {
    match v {
        // `Display` for f64 prints the shortest text that parses back to
        // the same value, and never an exponent.
        QValue::Num(n) => format!("{n}"),
        QValue::Str(s) if s.contains('\'') => format!("\"{s}\""),
        QValue::Str(s) => format!("'{s}'"),
    }
}

fn render_cond(c: &ElemCond) -> String {
    let op = match c.op {
        QOp::Exists => return format!("[{}]", c.name),
        QOp::Between => {
            let hi = c.value2.as_ref().map(render_value).unwrap_or_default();
            return format!("[{}={}..{}]", c.name, render_value(&c.value), hi);
        }
        QOp::Eq => "=",
        QOp::Ne => "!=",
        QOp::Lt => "<",
        QOp::Le => "<=",
        QOp::Gt => ">",
        QOp::Ge => ">=",
        QOp::Like => "~",
    };
    format!("[{}{op}{}]", c.name, render_value(&c.value))
}

/// The `lookup` shape classes, in an even mix: theme keyword equality,
/// dynamic equality, narrow dynamic range (1–3 % of the domain) and
/// nested `sub0` queries.
const LOOKUP_CLASSES: usize = 4;

fn lookup_shape(class: usize, rng: &mut StdRng) -> QueryShape {
    match class {
        0 => QueryShape::ThemeEq,
        1 => QueryShape::DynamicEq,
        2 => QueryShape::DynamicRange(rng.gen_range(1..=3)),
        _ => QueryShape::Nested(1),
    }
}

/// Seeded query texts every workload draws from. The lookup pools are
/// stratified by shape class, so every seed serves the same shape mix.
pub struct Pools {
    /// Distinct hot QUERY texts, per shape class.
    pub hot: Vec<Vec<String>>,
    /// Cold QUERY texts (mostly plan-cache misses), per shape class.
    pub cold: Vec<Vec<String>>,
    /// Dynamic range queries of 5–40 % of the value domain.
    pub ranges: Vec<String>,
}

impl Pools {
    /// Build the pools of a seed.
    pub fn new(gen: &DocGenerator, seed: u64) -> Pools {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x51ed_0001);
        let mut qg = QueryGenerator::new(gen, seed ^ 0x51ed_0002);
        let mut seen = HashSet::new();
        let mut hot = vec![Vec::new(); LOOKUP_CLASSES];
        for (class, pool) in hot.iter_mut().enumerate() {
            while pool.len() < HOT_QUERIES / LOOKUP_CLASSES {
                let q = qg.generate(lookup_shape(class, &mut rng));
                if seen.insert(normalize_query(&q)) {
                    pool.push(render(&q));
                }
            }
        }
        // Theme keywords have only a few hundred distinct values, so the
        // cold pool may repeat a text; it never repeats a hot one.
        let mut cold = vec![Vec::new(); LOOKUP_CLASSES];
        for (class, pool) in cold.iter_mut().enumerate() {
            while pool.len() < COLD_QUERIES / LOOKUP_CLASSES {
                let q = qg.generate(lookup_shape(class, &mut rng));
                if !seen.contains(&normalize_query(&q)) {
                    pool.push(render(&q));
                }
            }
        }
        let ranges = (0..RANGE_QUERIES)
            .map(|_| render(&qg.generate(QueryShape::DynamicRange(rng.gen_range(5..=40)))))
            .collect();
        Pools { hot, cold, ranges }
    }

    /// The `k`-th `lookup` QUERY of a stream: `(text, from the hot
    /// pool)`. Every 20 consecutive draws hold 5 of each shape class,
    /// 4 of them hot and 1 cold; the text within a pool is random.
    pub fn lookup(&self, k: usize, rng: &mut StdRng) -> (String, bool) {
        let class = k % LOOKUP_CLASSES;
        let hot = (k / LOOKUP_CLASSES) % 5 != 4;
        let pool = if hot { &self.hot[class] } else { &self.cold[class] };
        (pool[rng.gen_range(0..pool.len())].clone(), hot)
    }

    /// Draw one range query text.
    pub fn range(&self, rng: &mut StdRng) -> String {
        self.ranges[rng.gen_range(0..self.ranges.len())].clone()
    }
}

/// Check that every pool text parses back to the query it was rendered
/// from, for every shape the pools use. Returns the first mismatch.
pub fn self_test(gen: &DocGenerator, seed: u64) -> Result<usize, String> {
    let mut qg = QueryGenerator::new(gen, seed ^ 0x5e1f);
    let shapes = [
        QueryShape::ThemeEq,
        QueryShape::DynamicEq,
        QueryShape::DynamicRange(1),
        QueryShape::DynamicRange(3),
        QueryShape::DynamicRange(40),
        QueryShape::Nested(1),
        QueryShape::Nested(3),
        QueryShape::Conjunctive(2),
    ];
    let mut checked = 0;
    for shape in shapes {
        for q in qg.batch(shape, 32) {
            let text = render(&q);
            let back = parse_query(&text).map_err(|e| format!("{text:?} does not parse: {e}"))?;
            if normalize_query(&back) != normalize_query(&q) {
                return Err(format!("{shape:?}: {text:?} parses to a different query"));
            }
            checked += 1;
        }
    }
    Ok(checked)
}

/// One request a benchmark connection sends.
#[derive(Debug, Clone)]
pub enum Req {
    /// `QUERY`; `hot` says which pool the text came from (`None` for a
    /// range query).
    Query { dsl: String, hot: Option<bool> },
    /// `SEARCH`.
    Search { dsl: String },
    /// `QUERY` followed by a `FETCH` of its first [`PAGE`] ids.
    Page { dsl: String },
    /// `INGEST` of new document number `i` (an index into the round's
    /// ingest set).
    Ingest(usize),
    /// `CHECKPOINT`.
    Checkpoint,
}

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Lookup,
    Retrieve,
    Ingest,
    Mixed,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "lookup" => Some(Workload::Lookup),
            "retrieve" => Some(Workload::Retrieve),
            "ingest" => Some(Workload::Ingest),
            "mixed" => Some(Workload::Mixed),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Lookup => "lookup",
            Workload::Retrieve => "retrieve",
            Workload::Ingest => "ingest",
            Workload::Mixed => "mixed",
        }
    }

    /// Whether the workload ingests a fixed document set (its window
    /// ends when the set is acknowledged, not on a timer).
    pub fn writes(self) -> bool {
        matches!(self, Workload::Ingest | Workload::Mixed)
    }
}

/// What one connection sends: a fixed list, or an endless seeded
/// stream cut off by the end of the window.
pub enum Stream<'a> {
    Fixed(std::vec::IntoIter<Req>),
    /// `k` counts the requests drawn so far; fixed patterns over it set
    /// the op and shape mix exactly, the rng picks texts.
    Endless {
        workload: Workload,
        pools: &'a Pools,
        rng: StdRng,
        k: usize,
    },
}

impl Iterator for Stream<'_> {
    type Item = Req;

    fn next(&mut self) -> Option<Req> {
        match self {
            Stream::Fixed(it) => it.next(),
            Stream::Endless { workload, pools, rng, k } => {
                let i = *k;
                *k += 1;
                Some(match workload {
                    Workload::Lookup => {
                        let (dsl, hot) = pools.lookup(i, rng);
                        Req::Query { dsl, hot: Some(hot) }
                    }
                    // 3 in 4 SEARCH, 1 in 4 a page.
                    Workload::Retrieve if i % 4 == 3 => Req::Page { dsl: pools.range(rng) },
                    Workload::Retrieve => Req::Search { dsl: pools.range(rng) },
                    // The reading connection of `mixed`: 1 in 10 SEARCH,
                    // the rest lookup QUERYs.
                    Workload::Ingest | Workload::Mixed if i % 10 == 9 => {
                        Req::Search { dsl: pools.range(rng) }
                    }
                    Workload::Ingest | Workload::Mixed => {
                        let (dsl, hot) = pools.lookup(i - i / 10, rng);
                        Req::Query { dsl, hot: Some(hot) }
                    }
                })
            }
        }
    }
}

/// The stream of connection `conn` (0 or 1) in one round.
/// `ingest_docs` is the size of the round's ingest set and
/// `checkpoint_every` the acknowledged ingests between CHECKPOINTs.
pub fn stream<'a>(
    workload: Workload,
    pools: &'a Pools,
    seed: u64,
    round: usize,
    conn: usize,
    ingest_docs: usize,
    checkpoint_every: usize,
) -> Stream<'a> {
    let rng = StdRng::seed_from_u64(seed ^ ((round as u64) << 8 | conn as u64) ^ 0x5eed_c0de);
    match (workload, conn) {
        (Workload::Ingest, _) => {
            // Both connections split the set; connection 0 also sends
            // the CHECKPOINTs, after every `checkpoint_every / 2` of its
            // own ingests (so about every `checkpoint_every` overall).
            let mut reqs = Vec::new();
            for (k, i) in (conn..ingest_docs).step_by(2).enumerate() {
                reqs.push(Req::Ingest(i));
                if conn == 0 && (k + 1) % (checkpoint_every / 2).max(1) == 0 {
                    reqs.push(Req::Checkpoint);
                }
            }
            Stream::Fixed(reqs.into_iter())
        }
        (Workload::Mixed, 0) => {
            Stream::Fixed((0..ingest_docs).map(Req::Ingest).collect::<Vec<_>>().into_iter())
        }
        _ => Stream::Endless { workload, pools, rng, k: 0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendered_queries_parse_back() {
        let gen = doc_generator(7);
        assert!(self_test(&gen, 7).unwrap() > 0);
        let pools = Pools::new(&gen, 7);
        for text in pools.hot.iter().chain(&pools.cold).flatten().chain(&pools.ranges) {
            parse_query(text).unwrap();
        }
    }

    #[test]
    fn streams_repeat_per_seed() {
        let gen = doc_generator(3);
        let pools = Pools::new(&gen, 3);
        let a: Vec<String> = stream(Workload::Retrieve, &pools, 3, 0, 1, 0, 1)
            .take(50)
            .map(|r| format!("{r:?}"))
            .collect();
        let b: Vec<String> = stream(Workload::Retrieve, &pools, 3, 0, 1, 0, 1)
            .take(50)
            .map(|r| format!("{r:?}"))
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn ingest_split_covers_the_set_once() {
        let gen = doc_generator(1);
        let pools = Pools::new(&gen, 1);
        let mut seen: Vec<usize> = (0..2)
            .flat_map(|c| stream(Workload::Ingest, &pools, 1, 0, c, 101, 10))
            .filter_map(|r| match r {
                Req::Ingest(i) => Some(i),
                _ => None,
            })
            .collect();
        seen.sort();
        assert_eq!(seen, (0..101).collect::<Vec<_>>());
    }
}
