//! Hybrid shredding (§3).
//!
//! Every attribute instance in an incoming document is stored **twice**:
//!
//! 1. as a **CLOB** — the serialized subtree, keyed by (object, attr
//!    def, global schema order, same-sibling CLOB sequence) — used only
//!    to build query responses; and
//! 2. as **query rows** — attribute / element / ancestor-inverted-list
//!    tuples — used only to answer attribute queries.
//!
//! Because responses come from CLOBs, the query-side shredding does not
//! need to be lossless; and because dynamic attributes are resolved by
//! *(name, source)* values rather than their recursive `attr` structure,
//! "the recurrence disappears" — the inverted list rows flatten every
//! nesting level at insert time.

use crate::defs::{AttrId, DefsRegistry, DynamicAttrSpec, ElemId};
use crate::error::{CatalogError, Result};
use crate::ordering::{GlobalOrdering, OrderId};
use crate::partition::{NodeRole, Partition};
use std::collections::HashMap;
use xmlkit::dom::{Document, NodeId};
use xmlkit::schema::SchemaNodeId;
use xmlkit::{writer, ValueType};

/// The FGDC entity-and-attribute tags every `<eainfo>` uses, which
/// name a dynamic attribute and carry its values. The head `enttyp`
/// holds the attribute's own name (`enttypl`) and source (`enttypds`);
/// each nested `attr` is a sub-attribute or an element, named by
/// `attrlabl`, sourced by `attrdefs` (inherited when absent) and valued
/// by `attrv`.
pub const ENTTYP: &str = "enttyp";
/// Name of a dynamic attribute, inside [`ENTTYP`].
pub const ENTTYPL: &str = "enttypl";
/// Source of a dynamic attribute, inside [`ENTTYP`].
pub const ENTTYPDS: &str = "enttypds";
/// A nested sub-attribute or element of a dynamic attribute.
pub const ATTR: &str = "attr";
/// Name of an [`ATTR`].
pub const ATTRLABL: &str = "attrlabl";
/// Source of an [`ATTR`].
pub const ATTRDEFS: &str = "attrdefs";
/// Value of an [`ATTR`] that is an element.
pub const ATTRV: &str = "attrv";

/// Field-less marker for the FGDC tag set above. Dynamic attributes are
/// always read with those tags; the type remains only because the
/// benchmark client (`catbench`) still names it and calls `default()`,
/// which clippy accepts on a braced struct but not on a unit struct.
#[derive(Debug, Clone, Copy, Default)]
pub struct DynamicConvention {}

/// The number `value_num` holds for `n`, and the number a numeric query
/// literal compares as. The store orders floats with `total_cmp`, where
/// `-0 < 0` and NaN sorts above every number, so `-0` folds into `0`
/// and NaN is no number at all: a NULL `value_num`, a literal that
/// matches nothing.
pub(crate) fn stored_num(n: f64) -> Option<f64> {
    if n.is_nan() {
        None
    } else if n == 0.0 {
        Some(0.0)
    } else {
        Some(n)
    }
}

/// [`stored_num`] of an element's text; `None` when it is no number.
pub(crate) fn parse_num(text: &str) -> Option<f64> {
    text.trim().parse::<f64>().ok().and_then(stored_num)
}

/// One CLOB produced by shredding.
#[derive(Debug, Clone)]
pub struct ClobRow {
    /// Owning top-level attribute definition.
    pub attr_id: AttrId,
    /// Global order of the anchor node.
    pub order: OrderId,
    /// Same-sibling sequence among CLOBs at this order.
    pub clob_seq: i64,
    /// Serialized subtree.
    pub xml: String,
}

/// One attribute-instance row.
#[derive(Debug, Clone)]
pub struct AttrRow {
    /// Attribute definition.
    pub attr_id: AttrId,
    /// Same-sibling sequence among instances of this definition.
    pub seq: i64,
    /// CLOB sequence (top-level instances only).
    pub clob_seq: Option<i64>,
}

/// One element-instance row.
#[derive(Debug, Clone)]
pub struct ElemRow {
    /// Owning attribute definition.
    pub attr_id: AttrId,
    /// Owning attribute instance sequence.
    pub attr_seq: i64,
    /// Element definition.
    pub elem_id: ElemId,
    /// Local order within the attribute instance.
    pub elem_seq: i64,
    /// Raw string value.
    pub value: String,
    /// Numeric interpretation, when the value parses.
    pub num: Option<f64>,
}

/// One instance-level inverted-list row.
#[derive(Debug, Clone)]
pub struct AncRow {
    /// Sub-attribute instance (definition, sequence).
    pub attr_id: AttrId,
    /// Sequence of the sub-attribute instance.
    pub seq: i64,
    /// Ancestor attribute definition.
    pub anc_attr_id: AttrId,
    /// Ancestor instance sequence.
    pub anc_seq: i64,
    /// Levels between them (direct parent = 1).
    pub distance: i64,
}

/// Everything shredding one document produces (not yet inserted — the
/// catalog applies a `ShreddedDoc` in one transaction, which is what
/// makes parallel ingest effective: parse + shred runs outside the
/// database's lock).
#[derive(Debug, Default, Clone)]
pub struct ShreddedDoc {
    /// CLOBs for response building.
    pub clob_rows: Vec<ClobRow>,
    /// Attribute instances.
    pub attrs: Vec<AttrRow>,
    /// Element instances.
    pub elems: Vec<ElemRow>,
    /// Instance-level sub-attribute inverted list.
    pub ancestors: Vec<AncRow>,
    /// Paths stored CLOB-only because no definition matched.
    pub unmatched: Vec<String>,
    /// Dynamic specs inferred from unmatched subtrees (for optional
    /// auto-registration by the catalog).
    pub inferred: Vec<(SchemaNodeId, DynamicAttrSpec)>,
}

/// The shredder: partition + global ordering.
pub struct Shredder<'a> {
    partition: &'a Partition,
    ordering: &'a GlobalOrdering,
}

struct ShredState<'d> {
    doc: &'d Document,
    out: ShreddedDoc,
    /// Per-definition instance counters (same-sibling sequence).
    seq: HashMap<AttrId, i64>,
    /// Per-order CLOB counters (same-sibling CLOB sequence).
    clob_seq: HashMap<OrderId, i64>,
}

impl ShredState<'_> {
    fn next_seq(&mut self, attr: AttrId) -> i64 {
        let c = self.seq.entry(attr).or_insert(0);
        *c += 1;
        *c
    }

    fn next_clob_seq(&mut self, order: OrderId) -> i64 {
        let c = self.clob_seq.entry(order).or_insert(0);
        *c += 1;
        *c
    }

    fn emit_clob(&mut self, attr_id: AttrId, order: OrderId, dnode: NodeId) -> i64 {
        let clob_seq = self.next_clob_seq(order);
        let mut xml = String::with_capacity(256);
        writer::write_subtree(self.doc, dnode, &mut xml);
        self.out.clob_rows.push(ClobRow { attr_id, order, clob_seq, xml });
        clob_seq
    }

    /// Record an instance of sub-attribute `sub_id` nested in the
    /// instances of `chain` (outermost first): its `attrs` row and one
    /// inverted-list row per level above it. Returns its sequence.
    fn emit_sub(&mut self, sub_id: AttrId, chain: &[(AttrId, i64)]) -> i64 {
        let seq = self.next_seq(sub_id);
        self.out.attrs.push(AttrRow { attr_id: sub_id, seq, clob_seq: None });
        for (i, &(anc_attr_id, anc_seq)) in chain.iter().rev().enumerate() {
            self.out.ancestors.push(AncRow {
                attr_id: sub_id,
                seq,
                anc_attr_id,
                anc_seq,
                distance: (i + 1) as i64,
            });
        }
        seq
    }

    /// Record an element instance; a value that is no number keeps its
    /// string and gets a NULL `value_num`.
    fn emit_elem(
        &mut self,
        (attr_id, attr_seq): (AttrId, i64),
        elem_id: ElemId,
        elem_seq: i64,
        value: String,
    ) {
        let num = parse_num(&value);
        self.out
            .elems
            .push(ElemRow { attr_id, attr_seq, elem_id, elem_seq, value, num });
    }

    fn unmatched(&mut self, dnode: NodeId) {
        let path = self.doc.path_of(dnode);
        self.out.unmatched.push(path);
    }
}

impl<'a> Shredder<'a> {
    /// Create a shredder.
    pub fn new(partition: &'a Partition, ordering: &'a GlobalOrdering) -> Shredder<'a> {
        Shredder { partition, ordering }
    }

    /// Shred one parsed document against the registered definitions.
    pub fn shred(&self, doc: &Document, defs: &DefsRegistry) -> Result<ShreddedDoc> {
        let schema = self.partition.schema();
        let root_node = doc.root();
        let root_name = doc.node(root_node).name().unwrap_or("");
        if root_name != schema.node(schema.root()).name {
            return Err(CatalogError::UnknownElement { path: format!("/{root_name}") });
        }
        let mut state = ShredState {
            doc,
            out: ShreddedDoc::default(),
            seq: HashMap::new(),
            clob_seq: HashMap::new(),
        };
        self.walk_wrapper(&mut state, defs, root_node, schema.root())?;
        Ok(state.out)
    }

    /// Shred a single attribute-instance fragment (the paper's "as
    /// metadata attributes were inserted later", §5): `snode` is the
    /// attribute root the fragment instantiates, and the seed maps carry
    /// the object's current same-sibling counters so new instances
    /// continue the sequence — no existing row is touched, which is the
    /// E7 contrast with document-level ordering.
    pub fn shred_fragment(
        &self,
        doc: &Document,
        defs: &DefsRegistry,
        snode: SchemaNodeId,
        seq_seed: HashMap<AttrId, i64>,
        clob_seed: HashMap<OrderId, i64>,
    ) -> Result<ShreddedDoc> {
        let mut state =
            ShredState { doc, out: ShreddedDoc::default(), seq: seq_seed, clob_seq: clob_seed };
        match self.partition.role(snode) {
            NodeRole::AttributeRoot { dynamic: true } => {
                self.shred_dynamic(&mut state, defs, doc.root(), snode)?;
            }
            NodeRole::AttributeRoot { dynamic: false } => {
                self.shred_structural(&mut state, defs, doc.root(), snode)?;
            }
            _ => {
                return Err(CatalogError::BadQuery(format!(
                    "{} is not a metadata attribute root",
                    self.partition.schema().node(snode).name
                )));
            }
        }
        Ok(state.out)
    }

    /// Walk a wrapper instance, dispatching children to wrappers or
    /// attribute roots; children the schema lacks stay CLOB-only.
    fn walk_wrapper(
        &self,
        state: &mut ShredState<'_>,
        defs: &DefsRegistry,
        dnode: NodeId,
        snode: SchemaNodeId,
    ) -> Result<()> {
        let schema = self.partition.schema();
        let doc = state.doc;
        for child in doc.child_elements(dnode) {
            let tag = doc.node(child).name().unwrap_or("");
            let Some(schild) = schema.child_named(snode, tag) else {
                state.unmatched(child);
                continue;
            };
            match self.partition.role(schild) {
                NodeRole::Wrapper => self.walk_wrapper(state, defs, child, schild)?,
                NodeRole::AttributeRoot { dynamic } => {
                    if dynamic {
                        self.shred_dynamic(state, defs, child, schild)?;
                    } else {
                        self.shred_structural(state, defs, child, schild)?;
                    }
                }
                NodeRole::SubAttribute | NodeRole::Element => {
                    // Unreachable for valid partitions: sub-attributes and
                    // elements are only reachable through attribute roots.
                    return Err(CatalogError::UnknownElement { path: doc.path_of(child) });
                }
            }
        }
        Ok(())
    }

    /// Shred a structural attribute instance: CLOB + elements +
    /// (structurally defined) sub-attributes.
    fn shred_structural(
        &self,
        state: &mut ShredState<'_>,
        defs: &DefsRegistry,
        dnode: NodeId,
        snode: SchemaNodeId,
    ) -> Result<()> {
        let attr_id = defs.attr_for_node(snode).ok_or_else(|| {
            CatalogError::Definition(format!(
                "no definition for structural attribute {}",
                self.partition.schema().node(snode).name
            ))
        })?;
        let order = self.ordering.order_of(snode).expect("attribute roots are ordered");
        let clob_seq = state.emit_clob(attr_id, order, dnode);
        let seq = state.next_seq(attr_id);
        state.out.attrs.push(AttrRow { attr_id, seq, clob_seq: Some(clob_seq) });

        // Leaf attribute: the node is its own (single) element.
        if self.partition.schema().node(snode).is_leaf() {
            if let Some(elem_id) = defs.elem_for_node(snode) {
                state.emit_elem((attr_id, seq), elem_id, 1, state.doc.direct_text(dnode));
            }
            return Ok(());
        }
        self.shred_structural_children(state, defs, dnode, snode, &mut vec![(attr_id, seq)]);
        Ok(())
    }

    fn shred_structural_children(
        &self,
        state: &mut ShredState<'_>,
        defs: &DefsRegistry,
        dnode: NodeId,
        snode: SchemaNodeId,
        chain: &mut Vec<(AttrId, i64)>,
    ) {
        let schema = self.partition.schema();
        let owner = *chain.last().expect("chain starts at the attribute root");
        let doc = state.doc;
        let mut elem_seq = 0i64;
        for child in doc.child_elements(dnode) {
            let tag = doc.node(child).name().unwrap_or("");
            let Some(schild) = schema.child_named(snode, tag) else {
                state.unmatched(child);
                continue;
            };
            if schema.node(schild).is_leaf() {
                let Some(elem_id) = defs.elem_for_node(schild) else {
                    state.unmatched(child);
                    continue;
                };
                elem_seq += 1;
                state.emit_elem(owner, elem_id, elem_seq, doc.direct_text(child));
            } else {
                // Structural sub-attribute.
                let Some(sub_id) = defs.attr_for_node(schild) else {
                    state.unmatched(child);
                    continue;
                };
                let sub_seq = state.emit_sub(sub_id, chain);
                chain.push((sub_id, sub_seq));
                self.shred_structural_children(state, defs, child, schild, chain);
                chain.pop();
            }
        }
    }

    /// Shred a dynamic attribute instance (e.g. one LEAD `detailed`),
    /// resolved by the `(name, source)` its [`ENTTYP`] head carries.
    fn shred_dynamic(
        &self,
        state: &mut ShredState<'_>,
        defs: &DefsRegistry,
        dnode: NodeId,
        snode: SchemaNodeId,
    ) -> Result<()> {
        let doc = state.doc;
        let head = doc.child_named(dnode, ENTTYP).and_then(|h| {
            Some((read_child_text(doc, h, ENTTYPL)?, read_child_text(doc, h, ENTTYPDS)?))
        });
        let Some((name, source)) = head else {
            return self.keep_clob_only(state, defs, dnode, snode, doc.path_of(dnode));
        };
        let Some(attr_id) = defs.resolve_dynamic_top(snode, &name, &source) else {
            // Unregistered: report an inferred spec for the catalog to
            // register, if it auto-registers.
            state.out.inferred.push((snode, infer_spec(doc, dnode, &name, &source)));
            let unmatched = format!("{} ({name}, {source})", doc.path_of(dnode));
            return self.keep_clob_only(state, defs, dnode, snode, unmatched);
        };

        let order = self.ordering.order_of(snode).expect("attribute roots are ordered");
        let clob_seq = state.emit_clob(attr_id, order, dnode);
        let seq = state.next_seq(attr_id);
        state.out.attrs.push(AttrRow { attr_id, seq, clob_seq: Some(clob_seq) });
        self.shred_dynamic_nodes(state, defs, dnode, &source, &mut vec![(attr_id, seq)]);
        Ok(())
    }

    /// Keep a dynamic subtree that resolves to no definition as a CLOB
    /// anchored at the dynamic anchor's definition, so the document
    /// still reconstructs, and shred nothing of it for queries.
    fn keep_clob_only(
        &self,
        state: &mut ShredState<'_>,
        defs: &DefsRegistry,
        dnode: NodeId,
        snode: SchemaNodeId,
        unmatched: String,
    ) -> Result<()> {
        state.out.unmatched.push(unmatched);
        let anchor_def = defs
            .attr_for_node(snode)
            .ok_or_else(|| CatalogError::Definition("dynamic anchor has no definition".into()))?;
        let order = self.ordering.order_of(snode).expect("attribute roots are ordered");
        state.emit_clob(anchor_def, order, dnode);
        Ok(())
    }

    /// Walk the [`ATTR`] children of a dynamic node: valued ones become
    /// elements, ones with nested [`ATTR`]s become sub-attributes.
    fn shred_dynamic_nodes(
        &self,
        state: &mut ShredState<'_>,
        defs: &DefsRegistry,
        dnode: NodeId,
        default_source: &str,
        chain: &mut Vec<(AttrId, i64)>,
    ) {
        let doc = state.doc;
        let owner = *chain.last().expect("chain starts at the dynamic root");
        let mut elem_seq = 0i64;
        for child in doc.children_named(dnode, ATTR) {
            let Some(name) = read_child_text(doc, child, ATTRLABL) else {
                state.unmatched(child);
                continue;
            };
            let source =
                read_child_text(doc, child, ATTRDEFS).unwrap_or_else(|| default_source.to_string());
            let value = doc.child_named(child, ATTRV).map(|n| doc.direct_text(n));
            if doc.children_named(child, ATTR).next().is_some() {
                // Sub-attribute (paper: an attr with attr children).
                let Some(sub_id) = defs.resolve_dynamic_sub(owner.0, &name, &source) else {
                    state.unmatched(child);
                    continue;
                };
                let sub_seq = state.emit_sub(sub_id, chain);
                // A sub-attribute may also carry its own value element.
                if let (Some(v), Some(elem_id)) = (value, defs.resolve_elem(sub_id, &name)) {
                    state.emit_elem((sub_id, sub_seq), elem_id, 1, v);
                }
                chain.push((sub_id, sub_seq));
                self.shred_dynamic_nodes(state, defs, child, &source, chain);
                chain.pop();
            } else if let Some(v) = value {
                // Element (paper: an attr with an attrv child).
                let Some(elem_id) = defs.resolve_elem(owner.0, &name) else {
                    state.unmatched(child);
                    continue;
                };
                elem_seq += 1;
                state.emit_elem(owner, elem_id, elem_seq, v);
            } else {
                state.unmatched(child);
            }
        }
    }
}

/// Infer a registration spec from an unmatched dynamic subtree.
fn infer_spec(doc: &Document, dnode: NodeId, name: &str, source: &str) -> DynamicAttrSpec {
    fn walk(doc: &Document, node: NodeId, spec: &mut DynamicAttrSpec, source: &str) {
        for child in doc.children_named(node, ATTR) {
            let Some(name) = read_child_text(doc, child, ATTRLABL) else {
                continue;
            };
            let src = read_child_text(doc, child, ATTRDEFS).unwrap_or_else(|| source.to_string());
            if doc.children_named(child, ATTR).next().is_some() {
                let mut sub = DynamicAttrSpec::new(name, src.clone());
                walk(doc, child, &mut sub, &src);
                spec.subs.push(sub);
            } else if let Some(vn) = doc.child_named(child, ATTRV) {
                let dtype = match parse_num(&doc.direct_text(vn)) {
                    Some(_) => ValueType::Float,
                    None => ValueType::Str,
                };
                spec.elements.push((name, dtype));
            }
        }
    }
    let mut spec = DynamicAttrSpec::new(name, source);
    walk(doc, dnode, &mut spec, source);
    spec
}

fn read_child_text(doc: &Document, node: NodeId, tag: &str) -> Option<String> {
    doc.child_named(node, tag).map(|n| doc.direct_text(n)).filter(|s| !s.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defs::DefLevel;
    use crate::partition::PartitionSpec;
    use std::sync::Arc;
    use xmlkit::schema::Schema;

    fn setup() -> (Arc<Schema>, Partition, GlobalOrdering, DefsRegistry) {
        let s = Arc::new(
            Schema::parse_dsl(
                "root {
                    keywords? { theme* { themekt themekey+ } }
                    eainfo? {
                        detailed* {
                            enttyp { enttypl enttypds }
                            attr* { attrlabl attrdefs attrv? ^attr }
                        }
                    }
                 }",
            )
            .unwrap(),
        );
        let spec = PartitionSpec::default()
            .attr("/root/keywords/theme")
            .dynamic_attr("/root/eainfo/detailed");
        let p = Partition::new(s.clone(), &spec).unwrap();
        let o = GlobalOrdering::new(&p);
        let mut reg = DefsRegistry::from_partition(&p, &o);
        let anchor = s.resolve_path("/root/eainfo/detailed").unwrap();
        reg.register_dynamic(
            &p,
            &o,
            anchor,
            &DynamicAttrSpec::new("grid", "ARPS")
                .element("dx", ValueType::Float)
                .element("dz", ValueType::Float)
                .sub(
                    DynamicAttrSpec::new("grid-stretching", "ARPS")
                        .element("dzmin", ValueType::Float)
                        .element("reference-height", ValueType::Float),
                ),
            DefLevel::Admin,
        )
        .unwrap();
        (s, p, o, reg)
    }

    const DOC: &str = "<root>\
        <keywords>\
          <theme><themekt>CF</themekt><themekey>rain</themekey><themekey>snow</themekey></theme>\
          <theme><themekt>CF</themekt><themekey>wind</themekey></theme>\
        </keywords>\
        <eainfo>\
          <detailed>\
            <enttyp><enttypl>grid</enttypl><enttypds>ARPS</enttypds></enttyp>\
            <attr><attrlabl>grid-stretching</attrlabl><attrdefs>ARPS</attrdefs>\
              <attr><attrlabl>dzmin</attrlabl><attrdefs>ARPS</attrdefs><attrv>100.000</attrv></attr>\
              <attr><attrlabl>reference-height</attrlabl><attrdefs>ARPS</attrdefs><attrv>0</attrv></attr>\
            </attr>\
            <attr><attrlabl>dx</attrlabl><attrdefs>ARPS</attrdefs><attrv>1000.000</attrv></attr>\
            <attr><attrlabl>dz</attrlabl><attrdefs>ARPS</attrdefs><attrv>500.000</attrv></attr>\
          </detailed>\
        </eainfo>\
      </root>";

    fn shred_doc() -> (ShreddedDoc, DefsRegistry, GlobalOrdering, Arc<Schema>) {
        let (s, p, o, reg) = setup();
        let shredder = Shredder::new(&p, &o);
        let doc = Document::parse(DOC).unwrap();
        let out = shredder.shred(&doc, &reg).unwrap();
        (out, reg, o, s)
    }

    #[test]
    fn theme_clobs_with_sibling_sequence() {
        let (out, reg, o, s) = shred_doc();
        let theme_node = s.resolve_path("/root/keywords/theme").unwrap();
        let theme_id = reg.attr_for_node(theme_node).unwrap();
        let theme_order = o.order_of(theme_node).unwrap();
        let theme_clobs: Vec<_> = out.clob_rows.iter().filter(|c| c.attr_id == theme_id).collect();
        assert_eq!(theme_clobs.len(), 2);
        assert_eq!(theme_clobs[0].clob_seq, 1);
        assert_eq!(theme_clobs[1].clob_seq, 2);
        assert!(theme_clobs.iter().all(|c| c.order == theme_order));
        assert!(theme_clobs[0].xml.starts_with("<theme>"));
        assert!(theme_clobs[0].xml.contains("rain"));
    }

    #[test]
    fn theme_elements_shredded() {
        let (out, reg, _, s) = shred_doc();
        let theme_id = reg.attr_for_node(s.resolve_path("/root/keywords/theme").unwrap()).unwrap();
        let theme_elems: Vec<_> = out.elems.iter().filter(|e| e.attr_id == theme_id).collect();
        // theme1: kt + 2 keys; theme2: kt + 1 key
        assert_eq!(theme_elems.len(), 5);
        let t1: Vec<_> = theme_elems.iter().filter(|e| e.attr_seq == 1).collect();
        assert_eq!(t1.len(), 3);
        assert_eq!(t1[0].elem_seq, 1);
        assert_eq!(t1[1].value, "rain");
        assert_eq!(t1[2].value, "snow");
    }

    #[test]
    fn dynamic_resolved_by_name_source() {
        let (out, reg, _, _) = shred_doc();
        let grid = reg.find_attr("grid", Some("ARPS"), None).unwrap();
        let grid_rows: Vec<_> = out.attrs.iter().filter(|a| a.attr_id == grid.id).collect();
        assert_eq!(grid_rows.len(), 1);
        assert_eq!(grid_rows[0].seq, 1);
        assert!(grid_rows[0].clob_seq.is_some());
        // dx and dz elements on the grid instance
        let dx = reg.resolve_elem(grid.id, "dx").unwrap();
        let dx_row = out.elems.iter().find(|e| e.elem_id == dx).unwrap();
        assert_eq!(dx_row.num, Some(1000.0));
        assert_eq!(dx_row.value, "1000.000");
    }

    #[test]
    fn sub_attribute_inverted_list() {
        let (out, reg, _, _) = shred_doc();
        let grid = reg.find_attr("grid", Some("ARPS"), None).unwrap();
        let st = reg.resolve_dynamic_sub(grid.id, "grid-stretching", "ARPS").unwrap();
        let anc: Vec<_> = out.ancestors.iter().filter(|a| a.attr_id == st).collect();
        assert_eq!(anc.len(), 1);
        assert_eq!(anc[0].anc_attr_id, grid.id);
        assert_eq!(anc[0].distance, 1);
        // dzmin element belongs to the sub-attribute instance
        let dzmin = reg.resolve_elem(st, "dzmin").unwrap();
        let row = out.elems.iter().find(|e| e.elem_id == dzmin).unwrap();
        assert_eq!(row.attr_id, st);
        assert_eq!(row.num, Some(100.0));
    }

    #[test]
    fn recursion_disappears_no_recursive_rows() {
        // Deeper nesting: 3 levels; every level flattens into the
        // inverted list with increasing distance.
        let (s, p, o, mut reg) = setup();
        let anchor = s.resolve_path("/root/eainfo/detailed").unwrap();
        reg.register_dynamic(
            &p,
            &o,
            anchor,
            &DynamicAttrSpec::new("deep", "T").sub(
                DynamicAttrSpec::new("l1", "T")
                    .sub(DynamicAttrSpec::new("l2", "T").element("v", ValueType::Float)),
            ),
            DefLevel::Admin,
        )
        .unwrap();
        let doc = Document::parse(
            "<root><eainfo><detailed>\
               <enttyp><enttypl>deep</enttypl><enttypds>T</enttypds></enttyp>\
               <attr><attrlabl>l1</attrlabl><attrdefs>T</attrdefs>\
                 <attr><attrlabl>l2</attrlabl><attrdefs>T</attrdefs>\
                   <attr><attrlabl>v</attrlabl><attrdefs>T</attrdefs><attrv>7</attrv></attr>\
                 </attr>\
               </attr>\
             </detailed></eainfo></root>",
        )
        .unwrap();
        let out = Shredder::new(&p, &o).shred(&doc, &reg).unwrap();
        let deep = reg.find_attr("deep", Some("T"), None).unwrap();
        let l1 = reg.resolve_dynamic_sub(deep.id, "l1", "T").unwrap();
        let l2 = reg.resolve_dynamic_sub(l1, "l2", "T").unwrap();
        let l2_anc: Vec<_> = out.ancestors.iter().filter(|a| a.attr_id == l2).collect();
        assert_eq!(l2_anc.len(), 2);
        assert!(l2_anc.iter().any(|a| a.anc_attr_id == l1 && a.distance == 1));
        assert!(l2_anc.iter().any(|a| a.anc_attr_id == deep.id && a.distance == 2));
    }

    #[test]
    fn unregistered_dynamic_is_clob_only() {
        let (s, p, o, reg) = setup();
        let anchor = s.resolve_path("/root/eainfo/detailed").unwrap();
        let anchor_def = reg.attr_for_node(anchor).unwrap();
        let shred = |xml: &str| {
            let out = Shredder::new(&p, &o).shred(&Document::parse(xml).unwrap(), &reg).unwrap();
            // CLOB kept (anchored at the detailed definition), nothing shredded.
            assert_eq!(out.clob_rows.len(), 1, "{xml}");
            assert_eq!(out.clob_rows[0].attr_id, anchor_def, "{xml}");
            assert!(out.attrs.is_empty(), "{xml}");
            assert!(out.elems.is_empty(), "{xml}");
            assert_eq!(out.unmatched.len(), 1, "{xml}");
            out
        };
        let out = shred(
            "<root><eainfo><detailed>\
               <enttyp><enttypl>mystery</enttypl><enttypds>NOPE</enttypds></enttyp>\
               <attr><attrlabl>x</attrlabl><attrdefs>NOPE</attrdefs><attrv>1</attrv></attr>\
             </detailed></eainfo></root>",
        );
        // Inferred spec available for auto-registration.
        assert_eq!(out.inferred.len(), 1);
        let (inferred_anchor, spec) = &out.inferred[0];
        assert_eq!(*inferred_anchor, anchor);
        assert_eq!(spec.name, "mystery");
        assert_eq!(spec.elements.len(), 1);
        // No head, or a head without a source: nothing to resolve or infer.
        for xml in [
            "<root><eainfo><detailed>\
               <attr><attrlabl>dx</attrlabl><attrdefs>ARPS</attrdefs><attrv>1</attrv></attr>\
             </detailed></eainfo></root>",
            "<root><eainfo><detailed>\
               <enttyp><enttypl>grid</enttypl></enttyp>\
               <attr><attrlabl>dx</attrlabl><attrdefs>ARPS</attrdefs><attrv>1</attrv></attr>\
             </detailed></eainfo></root>",
        ] {
            assert!(shred(xml).inferred.is_empty(), "{xml}");
        }
    }

    #[test]
    fn type_validation() {
        let (s, p, o, mut reg) = setup();
        let anchor = s.resolve_path("/root/eainfo/detailed").unwrap();
        reg.register_dynamic(
            &p,
            &o,
            anchor,
            &DynamicAttrSpec::new("typed", "T").element("n", ValueType::Int),
            DefLevel::Admin,
        )
        .unwrap();
        let doc = Document::parse(
            "<root><eainfo><detailed>\
               <enttyp><enttypl>typed</enttypl><enttypds>T</enttypds></enttyp>\
               <attr><attrlabl>n</attrlabl><attrdefs>T</attrdefs><attrv>not-a-number</attrv></attr>\
             </detailed></eainfo></root>",
        )
        .unwrap();
        // Stored with its string and a NULL numeric.
        let out = Shredder::new(&p, &o).shred(&doc, &reg).unwrap();
        assert_eq!(out.elems.len(), 1);
        assert_eq!(out.elems[0].value, "not-a-number");
        assert_eq!(out.elems[0].num, None);
    }

    #[test]
    fn wrong_root_rejected() {
        let (_, p, o, reg) = setup();
        let doc = Document::parse("<other/>").unwrap();
        let err = Shredder::new(&p, &o).shred(&doc, &reg).unwrap_err();
        assert!(matches!(err, CatalogError::UnknownElement { .. }));
    }

    #[test]
    fn unknown_wrapper_child_is_unmatched() {
        let (_, p, o, reg) = setup();
        let doc = Document::parse("<root><bogus>1</bogus></root>").unwrap();
        let out = Shredder::new(&p, &o).shred(&doc, &reg).unwrap();
        assert_eq!(out.unmatched, vec!["/root/bogus"]);
    }

    #[test]
    fn multiple_dynamic_instances_clob_sequence() {
        let (s, p, o, mut reg) = setup();
        let anchor = s.resolve_path("/root/eainfo/detailed").unwrap();
        reg.register_dynamic(
            &p,
            &o,
            anchor,
            &DynamicAttrSpec::new("radar", "NEXRAD"),
            DefLevel::Admin,
        )
        .unwrap();
        let doc = Document::parse(
            "<root><eainfo>\
               <detailed><enttyp><enttypl>grid</enttypl><enttypds>ARPS</enttypds></enttyp></detailed>\
               <detailed><enttyp><enttypl>radar</enttypl><enttypds>NEXRAD</enttypds></enttyp></detailed>\
             </eainfo></root>",
        )
        .unwrap();
        let out = Shredder::new(&p, &o).shred(&doc, &reg).unwrap();
        // Different defs, but CLOB sequence is same-sibling order at the
        // shared anchor position: 1 then 2.
        assert_eq!(out.clob_rows.len(), 2);
        assert_eq!(out.clob_rows[0].clob_seq, 1);
        assert_eq!(out.clob_rows[1].clob_seq, 2);
        assert_ne!(out.clob_rows[0].attr_id, out.clob_rows[1].attr_id);
        // Each def's instance sequence restarts at 1.
        assert!(out.attrs.iter().all(|a| a.seq == 1));
    }
}
