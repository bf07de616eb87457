//! Correctness checks on sampled replies, run after each timed window.
//!
//! QUERY ids are recomputed with the DOM matcher over the parsed
//! source documents; SEARCH and FETCH replies must hold the expected
//! objects, and one sampled document of each must equal its source
//! under xmlkit's canonical writer.

use crate::wire::Reply;
use baselines::dom_match::object_matches;
use catalog::qparse::parse_query;
use catalog::query::ObjectQuery;
use catalog::shred::DynamicConvention;
use std::collections::{BTreeSet, HashMap};
use xmlkit::dom::Document;

/// The source documents the served catalog holds.
pub struct Truth<'a> {
    corpus: &'a [Document],
    /// Object id → corpus index.
    corpus_ids: HashMap<i64, usize>,
    corpus_xml: &'a [String],
    ingest_set: &'a [String],
    /// Object id → ingest-set index, for acknowledged ingests.
    acked: HashMap<i64, usize>,
    cv: DynamicConvention,
}

impl<'a> Truth<'a> {
    pub fn new(
        corpus: &'a [Document],
        corpus_xml: &'a [String],
        ids: &[i64],
        ingest_set: &'a [String],
        acks: impl IntoIterator<Item = (usize, i64)>,
    ) -> Truth<'a> {
        Truth {
            corpus,
            corpus_ids: ids.iter().enumerate().map(|(k, &id)| (id, k)).collect(),
            corpus_xml,
            ingest_set,
            acked: acks.into_iter().map(|(i, id)| (id, i)).collect(),
            cv: DynamicConvention::default(),
        }
    }

    /// Source text of object `id`.
    fn source(&self, id: i64) -> Option<&str> {
        match self.corpus_ids.get(&id) {
            Some(&k) => Some(&self.corpus_xml[k]),
            None => self.acked.get(&id).map(|&i| self.ingest_set[i].as_str()),
        }
    }

    /// Check a QUERY result. Corpus objects must match exactly; objects
    /// ingested during the window may or may not be visible yet, so
    /// each returned one must be acknowledged and must match.
    pub fn check_ids(&self, q: &ObjectQuery, got: &[i64]) -> Result<(), String> {
        if got.windows(2).any(|w| w[0] >= w[1]) {
            return Err("ids not strictly ascending".into());
        }
        let want: BTreeSet<i64> = self
            .corpus_ids
            .iter()
            .filter(|(_, &k)| object_matches(&self.corpus[k], q, &self.cv))
            .map(|(&id, _)| id)
            .collect();
        let got_corpus: BTreeSet<i64> =
            got.iter().copied().filter(|id| self.corpus_ids.contains_key(id)).collect();
        if got_corpus != want {
            return Err(format!("{} corpus hits, expected {}", got_corpus.len(), want.len()));
        }
        for id in got.iter().filter(|id| !self.corpus_ids.contains_key(id)) {
            let i = self.acked.get(id).ok_or_else(|| format!("unknown object {id}"))?;
            let doc = Document::parse(&self.ingest_set[*i]).map_err(|e| e.to_string())?;
            if !object_matches(&doc, q, &self.cv) {
                return Err(format!("object {id} does not match"));
            }
        }
        Ok(())
    }

    /// Check that reconstructed document `xml` of object `id` equals
    /// its source under the canonical writer.
    pub fn check_document(&self, id: i64, xml: &str) -> Result<(), String> {
        let src = self.source(id).ok_or_else(|| format!("unknown object {id}"))?;
        if canonical(xml)? != canonical(src)? {
            return Err(format!("object {id} differs from its source"));
        }
        Ok(())
    }

    /// Check one sampled reply; `pick` chooses which returned document
    /// is compared with its source.
    pub fn check_reply(&self, reply: &Reply, pick: usize) -> Result<(), String> {
        let parse = |dsl: &str| parse_query(dsl).map_err(|e| format!("{dsl:?}: {e}"));
        let docs = match reply {
            Reply::Query { dsl, ids } => {
                return self.check_ids(&parse(dsl)?, ids).map_err(|e| format!("QUERY {dsl}: {e}"));
            }
            Reply::Search { dsl, body } => {
                let docs = split_envelope(body)?;
                let ids: Vec<i64> = docs.iter().map(|(id, _)| *id).collect();
                self.check_ids(&parse(dsl)?, &ids).map_err(|e| format!("SEARCH {dsl}: {e}"))?;
                docs
            }
            Reply::Fetch { ids, body } => {
                let docs = split_envelope(body)?;
                let got: Vec<i64> = docs.iter().map(|(id, _)| *id).collect();
                let mut want = ids.clone();
                want.sort_unstable();
                if got != want {
                    return Err(format!(
                        "FETCH returned {} objects, expected {}",
                        got.len(),
                        want.len()
                    ));
                }
                docs
            }
        };
        match docs.get(pick % docs.len().max(1)) {
            Some((id, xml)) => self.check_document(*id, xml),
            None => Ok(()),
        }
    }
}

/// Canonical text of a document: parsed, then written compactly.
pub fn canonical(xml: &str) -> Result<String, String> {
    let doc = Document::parse(xml).map_err(|e| format!("unparsable document: {e}"))?;
    Ok(xmlkit::writer::to_string(&doc, doc.root()))
}

/// Split a `<results><object id="N">…</object>…</results>` envelope.
pub fn split_envelope(body: &str) -> Result<Vec<(i64, &str)>, String> {
    let inner = body
        .strip_prefix("<results>")
        .and_then(|b| b.strip_suffix("</results>"))
        .ok_or("reply is not a <results> envelope")?;
    let mut out = Vec::new();
    let mut rest = inner;
    while !rest.is_empty() {
        let tail = rest.strip_prefix("<object id=\"").ok_or("expected <object id=")?;
        let (id, tail) = tail.split_once("\">").ok_or("unterminated object tag")?;
        let id: i64 = id.parse().map_err(|_| format!("bad object id {id:?}"))?;
        let (doc, tail) = tail.split_once("</object>").ok_or("unterminated object")?;
        out.push((id, doc));
        rest = tail;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_round_trip() {
        let body =
            "<results><object id=\"3\"><a>x</a></object><object id=\"7\"></object></results>";
        let docs = split_envelope(body).unwrap();
        assert_eq!(docs, vec![(3, "<a>x</a>"), (7, "")]);
        assert_eq!(split_envelope("<results></results>").unwrap(), vec![]);
        assert!(split_envelope("<oops/>").is_err());
    }
}
