//! DOM-level evaluation of [`ObjectQuery`] — the "XQuery FLWOR"
//! equivalent the CLOB-only and DOM-store baselines run per document,
//! and the reference the hybrid engine's two match strategies are
//! checked against.
//!
//! [`object_matches`] has the `Exact` strategy's semantics: hierarchical
//! matching with descendant sub-attribute linkage (or direct children
//! when the query demands it). [`object_matches_counted`] has Fig 4's
//! `Counted` semantics, where every descendant query node links straight
//! to the top attribute instance. Both coerce numbers exactly as the
//! shredded store's typed columns do.

use catalog::query::{AttrQuery, ElemCond, ObjectQuery, QOp, QValue};
use catalog::shred::DynamicConvention;
use xmlkit::dom::{Document, NodeId};

/// Does `value` satisfy the condition?
pub fn cond_matches(cond: &ElemCond, value: &str) -> bool {
    let num = value.trim().parse::<f64>().ok();
    match cond.op {
        QOp::Exists => true,
        QOp::Like => match &cond.value {
            QValue::Str(p) => minidb::expr::like_match(value, p),
            QValue::Num(_) => false,
        },
        QOp::Between => match (&cond.value, &cond.value2) {
            (QValue::Num(lo), Some(QValue::Num(hi))) => {
                num.map(|n| n >= *lo && n <= *hi).unwrap_or(false)
            }
            _ => false,
        },
        QOp::Eq | QOp::Ne | QOp::Lt | QOp::Le | QOp::Gt | QOp::Ge => {
            let ord = match &cond.value {
                QValue::Num(rhs) => match num {
                    Some(n) => n.partial_cmp(rhs),
                    None => None,
                },
                QValue::Str(rhs) => Some(value.cmp(rhs.as_str())),
            };
            let Some(ord) = ord else { return false };
            match cond.op {
                QOp::Eq => ord == std::cmp::Ordering::Equal,
                QOp::Ne => ord != std::cmp::Ordering::Equal,
                QOp::Lt => ord == std::cmp::Ordering::Less,
                QOp::Le => ord != std::cmp::Ordering::Greater,
                QOp::Gt => ord == std::cmp::Ordering::Greater,
                QOp::Ge => ord != std::cmp::Ordering::Less,
                _ => unreachable!(),
            }
        }
    }
}

/// Does the whole document satisfy the query (conjunctive top-level
/// attribute criteria) under `Exact` semantics?
pub fn object_matches(doc: &Document, q: &ObjectQuery, cv: &DynamicConvention) -> bool {
    q.attrs.iter().all(|aq| {
        let kind = Kind::top(aq);
        top_instances(doc, aq, cv, kind).any(|n| exact_matches(doc, n, aq, cv, kind))
    })
}

/// Does the whole document satisfy the query under Fig 4's `Counted`
/// semantics? A top attribute instance must satisfy its own element
/// conditions, and every descendant query node — at any depth — needs
/// *some* instance of its definition anywhere below that top instance
/// satisfying that node's element conditions. The instances need not
/// nest inside each other, and `direct_subs` is ignored.
pub fn object_matches_counted(doc: &Document, q: &ObjectQuery, cv: &DynamicConvention) -> bool {
    q.attrs.iter().all(|aq| {
        let kind = Kind::top(aq);
        top_instances(doc, aq, cv, kind)
            .any(|n| elems_match(doc, n, aq, cv, kind) && counted_subs(doc, &[n], aq, cv, kind))
    })
}

/// How a query node maps onto DOM nodes: a structural attribute by
/// tag, a dynamic one by the naming convention's label and source.
#[derive(Clone, Copy)]
enum Kind<'a> {
    Structural,
    Dynamic { source: &'a str },
}

impl<'a> Kind<'a> {
    fn top(aq: &'a AttrQuery) -> Kind<'a> {
        match &aq.source {
            None => Kind::Structural,
            Some(source) => Kind::Dynamic { source },
        }
    }

    /// A sub-attribute's kind: structural stays structural; a dynamic
    /// sub without its own source inherits its parent's.
    fn sub(self, sub: &'a AttrQuery) -> Kind<'a> {
        match self {
            Kind::Structural => Kind::Structural,
            Kind::Dynamic { source } => {
                Kind::Dynamic { source: sub.source.as_deref().unwrap_or(source) }
            }
        }
    }
}

/// Instances of a top-level criterion anywhere in the document.
fn top_instances<'d>(
    doc: &'d Document,
    aq: &'d AttrQuery,
    cv: &'d DynamicConvention,
    kind: Kind<'d>,
) -> impl Iterator<Item = NodeId> + 'd {
    doc.descendants(doc.root()).filter(move |&n| match kind {
        // Structural attribute: any element whose tag is the name.
        Kind::Structural => doc.node(n).name() == Some(aq.name.as_str()),
        // Dynamic attribute: any subtree whose head names it.
        Kind::Dynamic { source } => dynamic_head_matches(doc, n, cv, &aq.name, source),
    })
}

/// Instances of sub-criterion `sub` below `node`: its children when
/// `direct`, otherwise any proper descendant.
fn sub_instances(
    doc: &Document,
    node: NodeId,
    sub: &AttrQuery,
    cv: &DynamicConvention,
    kind: Kind<'_>,
    direct: bool,
) -> Vec<NodeId> {
    let tag = match kind {
        Kind::Structural => sub.name.as_str(),
        Kind::Dynamic { .. } => cv.node_tag.as_str(),
    };
    let candidates: Vec<NodeId> = if direct {
        doc.children_named(node, tag).collect()
    } else {
        doc.descendants(node)
            .filter(|&d| d != node && doc.node(d).name() == Some(tag))
            .collect()
    };
    match kind {
        Kind::Structural => candidates,
        Kind::Dynamic { source } => candidates
            .into_iter()
            .filter(|&c| {
                child_text_is(doc, c, &cv.name_tag, &sub.name) && source_matches(doc, c, cv, source)
            })
            .collect(),
    }
}

/// Does `node` satisfy the criterion's own element conditions?
fn elems_match(
    doc: &Document,
    node: NodeId,
    aq: &AttrQuery,
    cv: &DynamicConvention,
    kind: Kind<'_>,
) -> bool {
    aq.elems.iter().all(|cond| match kind {
        // Direct leaf children, or own text for leaf attributes whose
        // element shares the attribute name.
        Kind::Structural => {
            if cond.name == aq.name && doc.child_elements(node).next().is_none() {
                return cond_matches(cond, &doc.direct_text(node));
            }
            doc.children_named(node, &cond.name)
                .any(|c| cond_matches(cond, &doc.direct_text(c)))
        }
        // Attr children carrying a value with the right label.
        Kind::Dynamic { .. } => doc.children_named(node, &cv.node_tag).any(|c| {
            child_text_is(doc, c, &cv.name_tag, &cond.name)
                && doc
                    .child_named(c, &cv.value_tag)
                    .map(|v| cond_matches(cond, &doc.direct_text(v)))
                    .unwrap_or(matches!(cond.op, QOp::Exists))
        }),
    })
}

/// `Exact`: `node` satisfies the criterion's element conditions, and
/// each sub-criterion has an instance below *this* node satisfying the
/// sub-criterion's whole subtree.
fn exact_matches(
    doc: &Document,
    node: NodeId,
    aq: &AttrQuery,
    cv: &DynamicConvention,
    kind: Kind<'_>,
) -> bool {
    elems_match(doc, node, aq, cv, kind)
        && aq.subs.iter().all(|sub| {
            let sub_kind = kind.sub(sub);
            sub_instances(doc, node, sub, cv, sub_kind, aq.direct_subs)
                .into_iter()
                .any(|c| exact_matches(doc, c, sub, cv, sub_kind))
        })
}

/// `Counted`: each sub-criterion of `aq` has some instance below any
/// node of `scope` (the instances of `aq`'s definition under the top
/// instance) satisfying its element conditions, recursively — every
/// level is decided independently, against the same top instance.
fn counted_subs(
    doc: &Document,
    scope: &[NodeId],
    aq: &AttrQuery,
    cv: &DynamicConvention,
    kind: Kind<'_>,
) -> bool {
    aq.subs.iter().all(|sub| {
        let sub_kind = kind.sub(sub);
        let mut instances: Vec<NodeId> = scope
            .iter()
            .flat_map(|&n| sub_instances(doc, n, sub, cv, sub_kind, false))
            .collect();
        instances.sort_unstable();
        instances.dedup();
        instances.iter().any(|&c| elems_match(doc, c, sub, cv, sub_kind))
            && counted_subs(doc, &instances, sub, cv, sub_kind)
    })
}

fn dynamic_head_matches(
    doc: &Document,
    node: NodeId,
    cv: &DynamicConvention,
    name: &str,
    source: &str,
) -> bool {
    match &cv.head_wrapper {
        Some(head) => doc.child_named(node, head).is_some_and(|h| {
            child_text_is(doc, h, &cv.head_name_tag, name)
                && child_text_is(doc, h, &cv.head_source_tag, source)
        }),
        None => {
            child_text_is(doc, node, &cv.head_name_tag, name)
                && child_text_is(doc, node, &cv.head_source_tag, source)
        }
    }
}

fn child_text_is(doc: &Document, node: NodeId, tag: &str, expected: &str) -> bool {
    doc.child_named(node, tag).is_some_and(|c| doc.direct_text(c) == expected)
}

fn source_matches(doc: &Document, node: NodeId, cv: &DynamicConvention, source: &str) -> bool {
    match doc.child_named(node, &cv.source_tag) {
        Some(c) => doc.direct_text(c) == source,
        // A missing source tag inherits the parent's, which the caller
        // passed in as `source`.
        None => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catalog::lead::{fig4_query, FIG3_DOCUMENT};
    use catalog::query::{AttrQuery, ElemCond, ObjectQuery};

    fn doc() -> Document {
        Document::parse(FIG3_DOCUMENT).unwrap()
    }

    #[test]
    fn fig4_query_matches_fig3_document() {
        assert!(object_matches(&doc(), &fig4_query(), &DynamicConvention::default()));
    }

    #[test]
    fn wrong_value_rejects() {
        let q = ObjectQuery::new()
            .attr(AttrQuery::new("grid").source("ARPS").elem(ElemCond::eq_num("dx", 999.0)));
        assert!(!object_matches(&doc(), &q, &DynamicConvention::default()));
    }

    #[test]
    fn structural_theme_match() {
        let q = ObjectQuery::new().attr(
            AttrQuery::new("theme")
                .elem(ElemCond::eq_str("themekey", "air_pressure_at_cloud_base")),
        );
        assert!(object_matches(&doc(), &q, &DynamicConvention::default()));
        let q2 = ObjectQuery::new()
            .attr(AttrQuery::new("theme").elem(ElemCond::eq_str("themekey", "nope")));
        assert!(!object_matches(&doc(), &q2, &DynamicConvention::default()));
    }

    #[test]
    fn conjunction_requires_all() {
        let q = ObjectQuery::new()
            .attr(AttrQuery::new("theme").elem(ElemCond::like("themekey", "%cloud%")))
            .attr(AttrQuery::new("grid").source("ARPS").elem(ElemCond::eq_num("dz", 500.0)));
        assert!(object_matches(&doc(), &q, &DynamicConvention::default()));
        let q_bad = ObjectQuery::new()
            .attr(AttrQuery::new("theme").elem(ElemCond::like("themekey", "%cloud%")))
            .attr(AttrQuery::new("grid").source("ARPS").elem(ElemCond::eq_num("dz", 1.0)));
        assert!(!object_matches(&doc(), &q_bad, &DynamicConvention::default()));
    }

    #[test]
    fn cond_semantics() {
        assert!(cond_matches(&ElemCond::eq_num("x", 100.0), "100.000"));
        assert!(cond_matches(&ElemCond::between("x", 1.0, 2.0), "1.5"));
        assert!(!cond_matches(&ElemCond::between("x", 1.0, 2.0), "2.5"));
        assert!(cond_matches(&ElemCond::like("x", "a%c"), "abc"));
        assert!(cond_matches(&ElemCond::exists("x"), "anything"));
        assert!(!cond_matches(&ElemCond::eq_num("x", 1.0), "not-a-number"));
        assert!(cond_matches(&ElemCond::str("x", catalog::query::QOp::Gt, "abc"), "abd"));
    }

    #[test]
    fn nested_sub_attribute_hierarchical() {
        // dzmin lives under grid-stretching, not directly under grid.
        let q = ObjectQuery::new().attr(
            AttrQuery::new("grid").source("ARPS").sub(
                AttrQuery::new("grid-stretching")
                    .source("ARPS")
                    .elem(ElemCond::eq_num("reference-height", 0.0)),
            ),
        );
        assert!(object_matches(&doc(), &q, &DynamicConvention::default()));
        // Direct-children demand still finds it (grid-stretching IS a
        // direct child of the grid subtree root).
        let q_direct = ObjectQuery::new().attr(
            AttrQuery::new("grid")
                .source("ARPS")
                .direct()
                .sub(AttrQuery::new("grid-stretching").source("ARPS")),
        );
        assert!(object_matches(&doc(), &q_direct, &DynamicConvention::default()));
    }

    #[test]
    fn counted_accepts_split_partial_matches_exact_rejects() {
        // One layer has a=1 but no inner; another has inner b=2 but a=9.
        let split = Document::parse(
            "<LEADresource><data><geospatial><eainfo><detailed>\
             <enttyp><enttypl>model</enttypl><enttypds>T</enttypds></enttyp>\
             <attr><attrlabl>layer</attrlabl><attrdefs>T</attrdefs>\
             <attr><attrlabl>a</attrlabl><attrdefs>T</attrdefs><attrv>1</attrv></attr></attr>\
             <attr><attrlabl>layer</attrlabl><attrdefs>T</attrdefs>\
             <attr><attrlabl>a</attrlabl><attrdefs>T</attrdefs><attrv>9</attrv></attr>\
             <attr><attrlabl>inner</attrlabl><attrdefs>T</attrdefs>\
             <attr><attrlabl>b</attrlabl><attrdefs>T</attrdefs><attrv>2</attrv></attr></attr>\
             </attr></detailed></eainfo></geospatial></data></LEADresource>",
        )
        .unwrap();
        let q = |a: f64| {
            ObjectQuery::new().attr(
                AttrQuery::new("model").source("T").direct().sub(
                    AttrQuery::new("layer")
                        .source("T")
                        .elem(ElemCond::eq_num("a", a))
                        .sub(AttrQuery::new("inner").source("T").elem(ElemCond::eq_num("b", 2.0))),
                ),
            )
        };
        let cv = DynamicConvention::default();
        assert!(!object_matches(&split, &q(1.0), &cv));
        assert!(object_matches_counted(&split, &q(1.0), &cv));
        // Counted still needs every node's own conditions somewhere.
        assert!(!object_matches_counted(&split, &q(5.0), &cv));
        // Both strategies accept the Fig-4 query on the Fig-3 document.
        assert!(object_matches_counted(&doc(), &fig4_query(), &cv));
    }
}
