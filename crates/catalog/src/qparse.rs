//! Textual query language for [`ObjectQuery`].
//!
//! The paper's users build queries through a GUI tool that "prompts the
//! user with the available attributes and elements"; programs use the
//! Java `MyFile`/`MyAttr` API. This module provides the textual
//! equivalent — handy for shells, tests, and examples:
//!
//! ```text
//! query := attr (';' attr)*                 -- conjunction of criteria
//! attr  := NAME ('@' SOURCE)? pred* subs?
//! pred  := '[' NAME (op value)? ']'         -- bare name = exists
//! op    := = | != | < | <= | > | >= | ~     -- '~' is LIKE
//! value := number | number '..' number | 'string' | "string"
//! subs  := '{' attr (',' attr)* '}'         -- nested sub-attributes
//! ```
//!
//! Examples:
//!
//! ```
//! use catalog::qparse::parse_query;
//! // the paper's §4 example
//! let q = parse_query("grid@ARPS[dx=1000]{grid-stretching@ARPS[dzmin=100]}").unwrap();
//! assert_eq!(q.attrs[0].subs.len(), 1);
//! // structural + range + like
//! parse_query("theme[themekey~'%rain%']; grid@ARPS[dx=250..1500]").unwrap();
//! ```

use crate::error::{CatalogError, Result};
use crate::query::{AttrQuery, ElemCond, ObjectQuery, QOp, QValue};

/// Maximum `{...}` sub-attribute nesting depth the parser accepts.
/// `attr()` recurses once per level, so without a cap an adversarial
/// `a{a{a{...` input drives unbounded stack growth; the schema
/// hierarchies the paper describes are a handful of levels deep.
pub const MAX_QUERY_DEPTH: usize = 16;

/// Maximum total criteria (attributes + element predicates) per query.
/// Each criterion becomes a subtree of the match plan, so an oversized
/// predicate list is a resource-exhaustion vector rather than a
/// plausible query.
pub const MAX_QUERY_CRITERIA: usize = 256;

/// Parse the query language into an [`ObjectQuery`].
pub fn parse_query(src: &str) -> Result<ObjectQuery> {
    let mut p = Parser { src, pos: 0, criteria: 0 };
    let mut q = ObjectQuery::new();
    loop {
        p.skip_ws();
        q = q.attr(p.attr(0)?);
        p.skip_ws();
        if !p.eat(';') {
            break;
        }
    }
    p.skip_ws();
    if p.pos != p.src.len() {
        return Err(p.err("trailing input"));
    }
    if q.attrs.is_empty() {
        return Err(CatalogError::BadQuery("empty query".into()));
    }
    Ok(q)
}

/// Render a query in a canonical text form.
///
/// Conjunctions are order-insensitive, so top-level criteria, element
/// conditions, and sibling sub-attribute criteria are each sorted —
/// semantically identical queries written in different orders normalize
/// to the same string, so the form can tell apart or deduplicate
/// queries. The format is `Debug`-based and not meant to be
/// re-parsed.
pub fn normalize_query(q: &ObjectQuery) -> String {
    let mut parts: Vec<String> = q.attrs.iter().map(normalize_attr).collect();
    parts.sort();
    parts.join(";")
}

fn normalize_attr(a: &AttrQuery) -> String {
    let mut s = a.name.clone();
    if let Some(src) = &a.source {
        s.push('@');
        s.push_str(src);
    }
    let mut elems: Vec<String> = a
        .elems
        .iter()
        .map(|c| format!("[{} {:?} {:?} {:?}]", c.name, c.op, c.value, c.value2))
        .collect();
    elems.sort();
    for e in &elems {
        s.push_str(e);
    }
    if a.direct_subs {
        s.push('!');
    }
    if !a.subs.is_empty() {
        let mut subs: Vec<String> = a.subs.iter().map(normalize_attr).collect();
        subs.sort();
        s.push('{');
        s.push_str(&subs.join(","));
        s.push('}');
    }
    s
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
    /// Criteria parsed so far (attributes + predicates), capped at
    /// [`MAX_QUERY_CRITERIA`].
    criteria: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> CatalogError {
        CatalogError::BadQuery(format!("{msg} at byte {} of query", self.pos))
    }

    fn peek(&self) -> Option<char> {
        self.src[self.pos..].chars().next()
    }

    fn eat(&mut self, c: char) -> bool {
        if self.peek() == Some(c) {
            self.pos += c.len_utf8();
            true
        } else {
            false
        }
    }

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(|c| c.is_whitespace()) {
            self.pos += 1;
        }
    }

    fn name(&mut self) -> Result<String> {
        self.skip_ws();
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_alphanumeric() || c == '_' || c == '-' || c == '.' {
                self.pos += c.len_utf8();
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        Ok(self.src[start..self.pos].to_string())
    }

    /// Count one parsed criterion against [`MAX_QUERY_CRITERIA`].
    fn bump_criteria(&mut self) -> Result<()> {
        self.criteria += 1;
        if self.criteria > MAX_QUERY_CRITERIA {
            return Err(CatalogError::BadQuery(format!(
                "query has more than {MAX_QUERY_CRITERIA} criteria"
            )));
        }
        Ok(())
    }

    fn attr(&mut self, depth: usize) -> Result<AttrQuery> {
        if depth >= MAX_QUERY_DEPTH {
            return Err(CatalogError::BadQuery(format!(
                "query nesting deeper than {MAX_QUERY_DEPTH} levels"
            )));
        }
        self.bump_criteria()?;
        let name = self.name()?;
        let mut aq = AttrQuery::new(name);
        if self.eat('@') {
            aq = aq.source(self.name()?);
        }
        loop {
            self.skip_ws();
            if self.eat('[') {
                self.bump_criteria()?;
                aq = aq.elem(self.pred()?);
            } else {
                break;
            }
        }
        self.skip_ws();
        if self.eat('{') {
            loop {
                self.skip_ws();
                aq = aq.sub(self.attr(depth + 1)?);
                self.skip_ws();
                if !self.eat(',') {
                    break;
                }
            }
            self.skip_ws();
            if !self.eat('}') {
                return Err(self.err("expected '}'"));
            }
        }
        Ok(aq)
    }

    fn pred(&mut self) -> Result<ElemCond> {
        let name = self.name()?;
        self.skip_ws();
        let op = if self.eat('~') {
            Some(QOp::Like)
        } else if self.eat('!') {
            if !self.eat('=') {
                return Err(self.err("expected '!='"));
            }
            Some(QOp::Ne)
        } else if self.eat('<') {
            Some(if self.eat('=') { QOp::Le } else { QOp::Lt })
        } else if self.eat('>') {
            Some(if self.eat('=') { QOp::Ge } else { QOp::Gt })
        } else if self.eat('=') {
            Some(QOp::Eq)
        } else {
            None
        };
        let cond = match op {
            None => ElemCond::exists(name),
            Some(op) => {
                self.skip_ws();
                let value = self.value()?;
                // Range syntax `a..b` promotes = to BETWEEN.
                if op == QOp::Eq && self.src[self.pos..].starts_with("..") {
                    self.pos += 2;
                    let hi = self.value()?;
                    let (QValue::Num(lo), QValue::Num(hi)) = (value.clone(), hi) else {
                        return Err(self.err("range bounds must be numeric"));
                    };
                    ElemCond::between(name, lo, hi)
                } else {
                    match (&op, &value) {
                        (QOp::Like, QValue::Str(p)) => ElemCond::like(name, p.clone()),
                        (QOp::Like, QValue::Num(_)) => {
                            return Err(self.err("'~' needs a string pattern"));
                        }
                        _ => ElemCond { name, op, value, value2: None },
                    }
                }
            }
        };
        self.skip_ws();
        if !self.eat(']') {
            return Err(self.err("expected ']'"));
        }
        Ok(cond)
    }

    fn value(&mut self) -> Result<QValue> {
        self.skip_ws();
        match self.peek() {
            Some(q @ ('\'' | '"')) => {
                self.pos += 1;
                let start = self.pos;
                let end =
                    self.src[start..].find(q).ok_or_else(|| self.err("unterminated string"))?;
                let s = self.src[start..start + end].to_string();
                self.pos = start + end + 1;
                Ok(QValue::Str(s))
            }
            Some(c) if c.is_ascii_digit() || c == '-' || c == '+' => {
                let start = self.pos;
                self.pos += 1;
                while let Some(c2) = self.peek() {
                    // Stop before '..' (range) but accept one '.' of a float.
                    if c2 == '.' && self.src[self.pos..].starts_with("..") {
                        break;
                    }
                    if c2.is_ascii_digit()
                        || c2 == '.'
                        || c2 == 'e'
                        || c2 == 'E'
                        || c2 == '-'
                        || c2 == '+'
                    {
                        self.pos += c2.len_utf8();
                    } else {
                        break;
                    }
                }
                self.src[start..self.pos]
                    .parse::<f64>()
                    .map(QValue::Num)
                    .map_err(|_| self.err("bad number"))
            }
            _ => Err(self.err("expected a value")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lead::fig4_query;

    #[test]
    fn parses_fig4_example() {
        let q = parse_query("grid@ARPS[dx=1000]{grid-stretching@ARPS[dzmin=100]}").unwrap();
        assert_eq!(q, fig4_query());
    }

    #[test]
    fn conjunction_and_whitespace() {
        let q = parse_query(" theme [ themekey = 'rain' ] ;  grid@ARPS [ dx >= 500 ] ").unwrap();
        assert_eq!(q.attrs.len(), 2);
        assert_eq!(q.attrs[0].name, "theme");
        assert_eq!(q.attrs[0].elems[0], ElemCond::eq_str("themekey", "rain"));
        assert_eq!(q.attrs[1].elems[0].op, QOp::Ge);
    }

    #[test]
    fn operators() {
        let q = parse_query("a[x!=1][y<2][z<=3][w>4][v>=5][u~'p%'][t]").unwrap();
        let ops: Vec<QOp> = q.attrs[0].elems.iter().map(|e| e.op).collect();
        assert_eq!(ops, vec![QOp::Ne, QOp::Lt, QOp::Le, QOp::Gt, QOp::Ge, QOp::Like, QOp::Exists]);
    }

    #[test]
    fn range_and_floats() {
        let q = parse_query("g@M[dx=250..1500][dz=0.5]").unwrap();
        assert_eq!(q.attrs[0].elems[0], ElemCond::between("dx", 250.0, 1500.0));
        assert_eq!(q.attrs[0].elems[1], ElemCond::eq_num("dz", 0.5));
    }

    #[test]
    fn nested_and_sibling_subs() {
        let q = parse_query("m@S{a@S{b@S[v=1]}, c@S[w=2]}").unwrap();
        let m = &q.attrs[0];
        assert_eq!(m.subs.len(), 2);
        assert_eq!(m.subs[0].subs[0].name, "b");
        assert_eq!(m.subs[1].name, "c");
    }

    #[test]
    fn string_sources_with_quotes() {
        let q = parse_query(r#"theme[themekt="CF NetCDF"]"#).unwrap();
        assert_eq!(q.attrs[0].elems[0], ElemCond::eq_str("themekt", "CF NetCDF"));
    }

    #[test]
    fn negative_numbers() {
        let q = parse_query("b[westbc=-105.5]").unwrap();
        assert_eq!(q.attrs[0].elems[0], ElemCond::eq_num("westbc", -105.5));
    }

    #[test]
    fn errors() {
        assert!(parse_query("").is_err());
        assert!(parse_query("a[").is_err());
        assert!(parse_query("a[x=]").is_err());
        assert!(parse_query("a[x~5]").is_err());
        assert!(parse_query("a{b").is_err());
        assert!(parse_query("a junk").is_err());
        assert!(parse_query("a[x='unterminated]").is_err());
        assert!(parse_query("a[x=1..'s']").is_err());
    }

    #[test]
    fn adversarial_nesting_is_depth_limited() {
        // At the limit: MAX_QUERY_DEPTH levels parse fine.
        let ok =
            format!("{}x{}", "a{".repeat(MAX_QUERY_DEPTH - 1), "}".repeat(MAX_QUERY_DEPTH - 1));
        parse_query(&ok).unwrap();
        // One past the limit: typed parse error, no unbounded recursion.
        let deep = format!("{}x{}", "a{".repeat(MAX_QUERY_DEPTH), "}".repeat(MAX_QUERY_DEPTH));
        let err = parse_query(&deep).unwrap_err();
        assert!(matches!(err, CatalogError::BadQuery(_)), "{err}");
        // A pathological unclosed tower (the stack-growth attack shape)
        // fails fast too instead of recursing to the end of the input.
        let tower = "a{".repeat(100_000);
        let err = parse_query(&tower).unwrap_err();
        assert!(matches!(err, CatalogError::BadQuery(_)), "{err}");
    }

    #[test]
    fn adversarial_predicate_lists_are_size_limited() {
        // A plausible many-predicate query still parses.
        let ok = format!("a{}", "[p=1]".repeat(100));
        parse_query(&ok).unwrap();
        // An oversized predicate list is rejected with a parse error.
        let big = format!("a{}", "[p=1]".repeat(MAX_QUERY_CRITERIA + 1));
        let err = parse_query(&big).unwrap_err();
        assert!(matches!(err, CatalogError::BadQuery(_)), "{err}");
        // Same cap applies across conjunctions of attributes.
        let wide = vec!["a"; MAX_QUERY_CRITERIA + 1].join(";");
        let err = parse_query(&wide).unwrap_err();
        assert!(matches!(err, CatalogError::BadQuery(_)), "{err}");
    }

    #[test]
    fn normalization_is_order_insensitive() {
        let a = parse_query("theme[themekey='rain']; grid@ARPS[dx=500][dz=1]").unwrap();
        let b = parse_query("grid@ARPS[dz=1][dx=500]; theme[themekey='rain']").unwrap();
        assert_eq!(normalize_query(&a), normalize_query(&b));
        let c = parse_query("grid@ARPS[dz=2][dx=500]; theme[themekey='rain']").unwrap();
        assert_ne!(normalize_query(&a), normalize_query(&c));
        // Nested sibling subs sort too.
        let d = parse_query("m@S{a@S[v=1], c@S[w=2]}").unwrap();
        let e = parse_query("m@S{c@S[w=2], a@S[v=1]}").unwrap();
        assert_eq!(normalize_query(&d), normalize_query(&e));
    }

    #[test]
    fn end_to_end_with_catalog() {
        let cat = crate::lead::lead_catalog(crate::catalog::CatalogConfig::default()).unwrap();
        let id = cat.ingest(crate::lead::FIG3_DOCUMENT).unwrap();
        let q = parse_query("grid@ARPS[dx=1000]{grid-stretching@ARPS[dzmin=100]}").unwrap();
        assert_eq!(cat.query(&q).unwrap(), vec![id]);
        let q2 = parse_query("theme[themekey~'%cloud%']").unwrap();
        assert_eq!(cat.query(&q2).unwrap(), vec![id]);
    }
}
