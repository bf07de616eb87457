//! Metadata attribute and element definitions (§2, §3).
//!
//! The catalog keeps a registry of every attribute and element it can
//! shred. **Structural** definitions are derived from the partitioned
//! schema (one per attribute root / sub-attribute / element node).
//! **Dynamic** definitions are registered at run time — by
//! administrators (shared) or users (private) — and are resolved during
//! shredding by *(name, source)* taken from element values, not tags
//! (e.g. LEAD's `enttypl`/`enttypds` and `attrlabl`/`attrdefs`). This
//! is what lets ARPS and WRF both define a `dx` parameter without
//! colliding and without ever touching the community schema.
//!
//! [`DefsRegistry::register_dynamic`] is the one way a dynamic
//! definition enters the registry, live or on reopen (`crate::persist`
//! re-registers the specs the mirror tables store). It checks the whole
//! spec before it pushes anything, and ids follow push order, so the
//! same specs registered in the same order get the same ids.

use crate::error::{CatalogError, Result};
use crate::ordering::{GlobalOrdering, OrderId};
use crate::partition::{NodeRole, Partition};
use std::collections::{HashMap, HashSet};
use xmlkit::schema::{ChildRef, Schema, SchemaNodeId};
use xmlkit::ValueType;

/// Identifier of an attribute definition.
pub type AttrId = i64;

/// Identifier of an element definition.
pub type ElemId = i64;

/// Who owns a dynamic definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DefLevel {
    /// Shared, administrator-defined.
    Admin,
    /// Private to one user.
    User(String),
}

/// One metadata attribute definition.
#[derive(Debug, Clone)]
pub struct AttrDef {
    /// Internal id.
    pub id: AttrId,
    /// Concept name (element tag for structural; `enttypl`-style value
    /// for dynamic).
    pub name: String,
    /// Defining source/model (`None` for structural attributes, which
    /// the schema disambiguates by position).
    pub source: Option<String>,
    /// Parent attribute definition for sub-attributes.
    pub parent: Option<AttrId>,
    /// Global order of the anchor — where CLOBs for this attribute sit
    /// in reconstructed documents. `None` for sub-attributes.
    pub schema_order: Option<OrderId>,
    /// True for dynamic definitions.
    pub dynamic: bool,
    /// False to store CLOBs only and skip query-side shredding.
    pub queryable: bool,
    /// Ownership level.
    pub level: DefLevel,
}

impl AttrDef {
    /// True when this is a top-level attribute (not a sub-attribute).
    pub fn is_top(&self) -> bool {
        self.parent.is_none()
    }
}

/// One metadata element definition.
#[derive(Debug, Clone)]
pub struct ElemDef {
    /// Internal id.
    pub id: ElemId,
    /// Owning attribute definition.
    pub attr: AttrId,
    /// Element name.
    pub name: String,
    /// Defining source (dynamic elements; defaults to the attribute's).
    pub source: Option<String>,
    /// Declared value type, validated on insert.
    pub dtype: ValueType,
}

/// Specification used to register a dynamic attribute.
#[derive(Debug, Clone)]
pub struct DynamicAttrSpec {
    /// Concept name (matched against e.g. `enttypl`/`attrlabl` values).
    pub name: String,
    /// Defining source (matched against `enttypds`/`attrdefs` values).
    pub source: String,
    /// Typed elements this attribute may carry.
    pub elements: Vec<(String, ValueType)>,
    /// Nested sub-attributes.
    pub subs: Vec<DynamicAttrSpec>,
}

impl DynamicAttrSpec {
    /// New spec with no elements or subs.
    pub fn new(name: impl Into<String>, source: impl Into<String>) -> Self {
        DynamicAttrSpec {
            name: name.into(),
            source: source.into(),
            elements: Vec::new(),
            subs: Vec::new(),
        }
    }

    /// Add a typed element.
    pub fn element(mut self, name: impl Into<String>, dtype: ValueType) -> Self {
        self.elements.push((name.into(), dtype));
        self
    }

    /// Add a sub-attribute.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(mut self, sub: DynamicAttrSpec) -> Self {
        self.subs.push(sub);
        self
    }
}

/// The definition registry.
#[derive(Debug, Clone, Default)]
pub struct DefsRegistry {
    attrs: Vec<AttrDef>,
    elems: Vec<ElemDef>,
    /// Structural lookup: schema node → attr def.
    attr_by_node: HashMap<SchemaNodeId, AttrId>,
    /// Structural lookup: schema node → elem def.
    elem_by_node: HashMap<SchemaNodeId, ElemId>,
    /// Dynamic top-level lookup: (anchor, name, source) → attr def.
    dyn_top: HashMap<(SchemaNodeId, String, String), AttrId>,
    /// Dynamic sub-attribute lookup: (parent attr, name, source).
    dyn_sub: HashMap<(AttrId, String, String), AttrId>,
    /// Element lookup by owning attribute: (attr, name).
    elem_by_attr: HashMap<(AttrId, String), ElemId>,
}

impl DefsRegistry {
    /// Build the registry's structural definitions from a partition.
    pub fn from_partition(partition: &Partition, ordering: &GlobalOrdering) -> DefsRegistry {
        let mut reg = DefsRegistry::default();
        let schema = partition.schema();
        for node in schema.preorder() {
            let NodeRole::AttributeRoot { dynamic } = partition.role(node) else {
                continue;
            };
            let id = reg.push_attr(AttrDef {
                id: 0,
                name: schema.node(node).name.clone(),
                source: None,
                parent: None,
                schema_order: Some(ordering.order_of(node).expect("attr roots are ordered")),
                dynamic,
                queryable: !dynamic, // dynamic content is shredded
                // only under registered (name, source) defs
                level: DefLevel::Admin,
            });
            reg.attr_by_node.insert(node, id);
            if !dynamic {
                reg.register_structural(schema, node, id);
            }
        }
        reg
    }

    /// Push the structural definitions of `node`, part of attribute
    /// `attr`: a leaf is an element of `attr` (so a leaf attribute is an
    /// element of itself); an inner node's leaf children are elements,
    /// and each other child is a sub-attribute defined the same way.
    fn register_structural(&mut self, schema: &Schema, node: SchemaNodeId, attr: AttrId) {
        let n = schema.node(node);
        if n.is_leaf() {
            let elem =
                ElemDef { id: 0, attr, name: n.name.clone(), source: None, dtype: n.value_type };
            let eid = self.push_elem(elem);
            self.elem_by_node.insert(node, eid);
            return;
        }
        for c in &n.children {
            let ChildRef::Node(child) = *c else {
                continue; // recursion only occurs under dynamic roots
            };
            if schema.node(child).is_leaf() {
                self.register_structural(schema, child, attr);
                continue;
            }
            let sub = self.push_attr(AttrDef {
                id: 0,
                name: schema.node(child).name.clone(),
                source: None,
                parent: Some(attr),
                schema_order: None,
                dynamic: false,
                queryable: true,
                level: DefLevel::Admin,
            });
            self.attr_by_node.insert(child, sub);
            self.register_structural(schema, child, sub);
        }
    }

    fn push_attr(&mut self, mut def: AttrDef) -> AttrId {
        let id = (self.attrs.len() + 1) as AttrId;
        def.id = id;
        self.attrs.push(def);
        id
    }

    fn push_elem(&mut self, mut def: ElemDef) -> ElemId {
        let id = (self.elems.len() + 1) as ElemId;
        def.id = id;
        let key = (def.attr, def.name.clone());
        self.elems.push(def);
        self.elem_by_attr.insert(key, id);
        id
    }

    /// Register a dynamic attribute tree anchored at `anchor` (which
    /// must be a dynamic attribute root of the partition). All or
    /// nothing: the whole spec is checked before the first definition is
    /// pushed, so a rejected spec leaves the registry as it was.
    pub fn register_dynamic(
        &mut self,
        partition: &Partition,
        ordering: &GlobalOrdering,
        anchor: SchemaNodeId,
        spec: &DynamicAttrSpec,
        level: DefLevel,
    ) -> Result<AttrId> {
        if !partition.is_dynamic_root(anchor) {
            return Err(CatalogError::Definition(format!(
                "schema node {} is not a dynamic attribute root",
                partition.schema().node(anchor).name
            )));
        }
        let key = (anchor, spec.name.clone(), spec.source.clone());
        if self.dyn_top.contains_key(&key) {
            return Err(CatalogError::Definition(format!(
                "dynamic attribute ({}, {}) already registered",
                spec.name, spec.source
            )));
        }
        check_spec(spec)?;
        let id = self.push_attr(AttrDef {
            id: 0,
            name: spec.name.clone(),
            source: Some(spec.source.clone()),
            parent: None,
            schema_order: ordering.order_of(anchor),
            dynamic: true,
            queryable: true,
            level: level.clone(),
        });
        self.dyn_top.insert(key, id);
        self.register_dynamic_children(id, spec, &level);
        Ok(id)
    }

    /// Push the elements and sub-attributes of a checked spec under the
    /// fresh definition `parent`. Ids follow the spec in preorder: a
    /// node's elements, then each sub-attribute with its own subtree.
    fn register_dynamic_children(
        &mut self,
        parent: AttrId,
        spec: &DynamicAttrSpec,
        level: &DefLevel,
    ) {
        for (ename, dtype) in &spec.elements {
            self.push_elem(ElemDef {
                id: 0,
                attr: parent,
                name: ename.clone(),
                source: Some(spec.source.clone()),
                dtype: *dtype,
            });
        }
        for sub in &spec.subs {
            let id = self.push_attr(AttrDef {
                id: 0,
                name: sub.name.clone(),
                source: Some(sub.source.clone()),
                parent: Some(parent),
                schema_order: None,
                dynamic: true,
                queryable: true,
                level: level.clone(),
            });
            self.dyn_sub.insert((parent, sub.name.clone(), sub.source.clone()), id);
            self.register_dynamic_children(id, sub, level);
        }
    }

    /// Attribute definition by id.
    pub fn attr(&self, id: AttrId) -> Option<&AttrDef> {
        self.attrs.get((id - 1) as usize)
    }

    /// Element definition by id.
    pub fn elem(&self, id: ElemId) -> Option<&ElemDef> {
        self.elems.get((id - 1) as usize)
    }

    /// Structural attribute definition for a schema node.
    pub fn attr_for_node(&self, node: SchemaNodeId) -> Option<AttrId> {
        self.attr_by_node.get(&node).copied()
    }

    /// Structural element definition for a schema node.
    pub fn elem_for_node(&self, node: SchemaNodeId) -> Option<ElemId> {
        self.elem_by_node.get(&node).copied()
    }

    /// Resolve a dynamic top-level attribute by anchor + name + source.
    pub fn resolve_dynamic_top(
        &self,
        anchor: SchemaNodeId,
        name: &str,
        source: &str,
    ) -> Option<AttrId> {
        self.dyn_top.get(&(anchor, name.to_string(), source.to_string())).copied()
    }

    /// Resolve a dynamic sub-attribute by parent + name + source.
    pub fn resolve_dynamic_sub(&self, parent: AttrId, name: &str, source: &str) -> Option<AttrId> {
        self.dyn_sub.get(&(parent, name.to_string(), source.to_string())).copied()
    }

    /// Resolve an element by owning attribute + name.
    pub fn resolve_elem(&self, attr: AttrId, name: &str) -> Option<ElemId> {
        self.elem_by_attr.get(&(attr, name.to_string())).copied()
    }

    /// Resolve a *queryable* attribute by (name, source) regardless of
    /// nesting — used when shredding queries, which name attributes the
    /// way users think of them.
    pub fn find_attr(
        &self,
        name: &str,
        source: Option<&str>,
        parent: Option<AttrId>,
    ) -> Option<&AttrDef> {
        self.attrs.iter().find(|a| {
            a.name == name
                && a.source.as_deref() == source
                && (parent.is_none() || a.parent == parent)
                && (parent.is_some() || a.parent.is_none())
        })
    }

    /// Resolve an attribute by (name, source) anywhere *under* the
    /// given ancestor definition — queries may skip intervening
    /// sub-attribute levels, exactly as the instance inverted list
    /// does ("a sub-attribute and any parent metadata attribute as
    /// well as intervening sub-attributes", §3).
    pub fn find_attr_under(
        &self,
        name: &str,
        source: Option<&str>,
        ancestor: AttrId,
    ) -> Option<&AttrDef> {
        self.attrs.iter().find(|a| {
            if a.name != name || a.source.as_deref() != source {
                return false;
            }
            let mut cur = a.parent;
            while let Some(p) = cur {
                if p == ancestor {
                    return true;
                }
                cur = self.attr(p).and_then(|d| d.parent);
            }
            false
        })
    }

    /// All attribute definitions.
    pub fn attrs(&self) -> &[AttrDef] {
        &self.attrs
    }

    /// All element definitions.
    pub fn elems(&self) -> &[ElemDef] {
        &self.elems
    }

    /// Elements owned by an attribute definition.
    pub fn elems_of(&self, attr: AttrId) -> impl Iterator<Item = &ElemDef> {
        self.elems.iter().filter(move |e| e.attr == attr)
    }
}

/// Reject a spec that names an element twice on one node, or one
/// (name, source) sub-attribute twice under one parent: its
/// registration could not push every definition it asks for.
fn check_spec(spec: &DynamicAttrSpec) -> Result<()> {
    let (mut elems, mut subs) = (HashSet::new(), HashSet::new());
    let repeated = match spec.elements.iter().find(|(e, _)| !elems.insert(e)) {
        Some((e, _)) => Some(format!("element {e}")),
        None => spec
            .subs
            .iter()
            .find(|s| !subs.insert((&s.name, &s.source)))
            .map(|s| format!("sub-attribute ({}, {})", s.name, s.source)),
    };
    if let Some(what) = repeated {
        return Err(CatalogError::Definition(format!(
            "{what} repeated in ({}, {})",
            spec.name, spec.source
        )));
    }
    spec.subs.iter().try_for_each(check_spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::PartitionSpec;
    use std::sync::Arc;

    fn setup() -> (Arc<Schema>, Partition, GlobalOrdering, DefsRegistry) {
        let s = Arc::new(
            Schema::parse_dsl(
                "root {
                    id
                    status { progress update }
                    theme* { kt key+ }
                    detailed* {
                        enttyp { enttypl enttypds }
                        attr* { attrlabl attrdefs attrv? ^attr }
                    }
                 }",
            )
            .unwrap(),
        );
        let spec = PartitionSpec::default()
            .attr("/root/id")
            .attr("/root/status")
            .attr("/root/theme")
            .dynamic_attr("/root/detailed");
        let p = Partition::new(s.clone(), &spec).unwrap();
        let o = GlobalOrdering::new(&p);
        let reg = DefsRegistry::from_partition(&p, &o);
        (s, p, o, reg)
    }

    #[test]
    fn structural_defs_derived() {
        let (s, _, _, reg) = setup();
        // attrs: id, status, theme, detailed = 4 top-level
        let tops: Vec<_> = reg.attrs().iter().filter(|a| a.is_top()).collect();
        assert_eq!(tops.len(), 4);
        let status_node = s.resolve_path("/root/status").unwrap();
        let status = reg.attr_for_node(status_node).unwrap();
        let elems: Vec<_> = reg.elems_of(status).map(|e| e.name.clone()).collect();
        assert_eq!(elems, vec!["progress", "update"]);
        // theme elements
        let theme = reg.attr_for_node(s.resolve_path("/root/theme").unwrap()).unwrap();
        assert_eq!(reg.elems_of(theme).count(), 2);
        // leaf attribute `id` is its own element
        let id_attr = reg.attr_for_node(s.resolve_path("/root/id").unwrap()).unwrap();
        assert_eq!(reg.elems_of(id_attr).count(), 1);
    }

    #[test]
    fn dynamic_root_not_structurally_shredded() {
        let (s, _, _, reg) = setup();
        let detailed = reg.attr_for_node(s.resolve_path("/root/detailed").unwrap()).unwrap();
        let def = reg.attr(detailed).unwrap();
        assert!(def.dynamic);
        assert!(!def.queryable);
        assert_eq!(reg.elems_of(detailed).count(), 0);
    }

    #[test]
    fn register_and_resolve_dynamic() {
        let (s, p, o, mut reg) = setup();
        let anchor = s.resolve_path("/root/detailed").unwrap();
        let spec = DynamicAttrSpec::new("grid", "ARPS")
            .element("dx", ValueType::Float)
            .element("dz", ValueType::Float)
            .sub(
                DynamicAttrSpec::new("grid-stretching", "ARPS")
                    .element("dzmin", ValueType::Float)
                    .element("reference-height", ValueType::Float),
            );
        let grid = reg.register_dynamic(&p, &o, anchor, &spec, DefLevel::Admin).unwrap();

        assert_eq!(reg.resolve_dynamic_top(anchor, "grid", "ARPS"), Some(grid));
        assert_eq!(reg.resolve_dynamic_top(anchor, "grid", "WRF"), None);
        let sub = reg.resolve_dynamic_sub(grid, "grid-stretching", "ARPS").unwrap();
        assert_eq!(reg.attr(sub).unwrap().parent, Some(grid));
        assert!(reg.resolve_elem(grid, "dx").is_some());
        assert!(reg.resolve_elem(sub, "dzmin").is_some());
        assert!(reg.resolve_elem(grid, "dzmin").is_none());
        // schema_order of the dynamic def equals the anchor's order
        assert_eq!(reg.attr(grid).unwrap().schema_order, o.order_of(anchor));
    }

    #[test]
    fn same_name_different_source() {
        let (s, p, o, mut reg) = setup();
        let anchor = s.resolve_path("/root/detailed").unwrap();
        let a = reg
            .register_dynamic(
                &p,
                &o,
                anchor,
                &DynamicAttrSpec::new("grid", "ARPS"),
                DefLevel::Admin,
            )
            .unwrap();
        let w = reg
            .register_dynamic(&p, &o, anchor, &DynamicAttrSpec::new("grid", "WRF"), DefLevel::Admin)
            .unwrap();
        assert_ne!(a, w);
        assert_eq!(reg.resolve_dynamic_top(anchor, "grid", "WRF"), Some(w));
    }

    #[test]
    fn duplicate_registration_rejected() {
        let (s, p, o, mut reg) = setup();
        let anchor = s.resolve_path("/root/detailed").unwrap();
        reg.register_dynamic(
            &p,
            &o,
            anchor,
            &DynamicAttrSpec::new("grid", "ARPS"),
            DefLevel::Admin,
        )
        .unwrap();
        let err = reg
            .register_dynamic(
                &p,
                &o,
                anchor,
                &DynamicAttrSpec::new("grid", "ARPS"),
                DefLevel::Admin,
            )
            .unwrap_err();
        assert!(matches!(err, CatalogError::Definition(_)));
    }

    #[test]
    fn register_requires_dynamic_root() {
        let (s, p, o, mut reg) = setup();
        let status = s.resolve_path("/root/status").unwrap();
        let err = reg
            .register_dynamic(&p, &o, status, &DynamicAttrSpec::new("x", "Y"), DefLevel::Admin)
            .unwrap_err();
        assert!(matches!(err, CatalogError::Definition(_)));
    }

    #[test]
    fn user_level_defs() {
        let (s, p, o, mut reg) = setup();
        let anchor = s.resolve_path("/root/detailed").unwrap();
        let id = reg
            .register_dynamic(
                &p,
                &o,
                anchor,
                &DynamicAttrSpec::new("private", "ME"),
                DefLevel::User("alice".into()),
            )
            .unwrap();
        assert_eq!(reg.attr(id).unwrap().level, DefLevel::User("alice".into()));
    }

    #[test]
    fn find_attr_by_name_source() {
        let (s, p, o, mut reg) = setup();
        let anchor = s.resolve_path("/root/detailed").unwrap();
        let grid = reg
            .register_dynamic(
                &p,
                &o,
                anchor,
                &DynamicAttrSpec::new("grid", "ARPS").sub(DynamicAttrSpec::new("st", "ARPS")),
                DefLevel::Admin,
            )
            .unwrap();
        let found = reg.find_attr("grid", Some("ARPS"), None).unwrap();
        assert_eq!(found.id, grid);
        let sub = reg.find_attr("st", Some("ARPS"), Some(grid)).unwrap();
        assert_eq!(sub.parent, Some(grid));
        assert!(reg.find_attr("status", None, None).is_some());
        assert!(reg.find_attr("nothere", None, None).is_none());
    }
}
