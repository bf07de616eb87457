//! Schema model for schema-aware shredding.
//!
//! This is not full XML Schema: a grid metadata catalog needs exactly
//! the structural facts the partitioning rules consume — element
//! nesting, cardinality, whether a node declares XML attributes,
//! whether a node is a recursion point, and leaf value types. The model
//! is an arena tree mirroring [`crate::dom::Document`], built either
//! programmatically through [`SchemaBuilder`] or from a compact textual
//! DSL (see [`Schema::parse_dsl`]).
//!
//! DSL example (cardinality suffixes `?` optional, `*` zero-or-more,
//! `+` one-or-more; `@` marks declared XML attributes; `:int`/`:float`/
//! `:bool` type leaves; `^name` recurses to the named ancestor):
//!
//! ```text
//! LEADresource {
//!   resourceID
//!   data {
//!     keywords? { theme* { themekt themekey+ } }
//!     detailed* { attr* { attrlabl attrv:float ^attr } }
//!   }
//! }
//! ```

use crate::error::{ErrorKind, Result, XmlError};

/// Index of a node within a [`Schema`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SchemaNodeId(pub u32);

impl SchemaNodeId {
    /// Arena slot as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// How many instances of an element its parent may contain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cardinality {
    /// Exactly one (`minOccurs=1 maxOccurs=1`).
    One,
    /// Zero or one (`minOccurs=0`).
    Optional,
    /// Zero or more (`maxOccurs=unbounded`).
    Many,
    /// One or more.
    OneOrMore,
}

impl Cardinality {
    /// True when more than one sibling instance is allowed.
    #[inline]
    pub fn repeating(self) -> bool {
        matches!(self, Cardinality::Many | Cardinality::OneOrMore)
    }

    /// True when the element may be absent.
    #[inline]
    pub fn optional(self) -> bool {
        matches!(self, Cardinality::Optional | Cardinality::Many)
    }
}

/// Declared type of a leaf element's character data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ValueType {
    /// Free-form text (the default).
    #[default]
    Str,
    /// 64-bit integer.
    Int,
    /// 64-bit float.
    Float,
    /// Boolean (`true`/`false`/`0`/`1`).
    Bool,
}

impl ValueType {
    /// Short name used by the DSL and diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            ValueType::Str => "str",
            ValueType::Int => "int",
            ValueType::Float => "float",
            ValueType::Bool => "bool",
        }
    }

    /// The type whose [`ValueType::name`] is `name`.
    pub fn from_name(name: &str) -> Option<ValueType> {
        [ValueType::Str, ValueType::Int, ValueType::Float, ValueType::Bool]
            .into_iter()
            .find(|t| t.name() == name)
    }
}

/// A child slot of a schema node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChildRef {
    /// An ordinary child node.
    Node(SchemaNodeId),
    /// A recursive re-entry into the ancestor node (e.g. `attr` inside
    /// `attr`). Instances of the target may nest without bound.
    Recurse(SchemaNodeId),
}

impl ChildRef {
    /// The referenced node id regardless of variant.
    #[inline]
    pub fn id(self) -> SchemaNodeId {
        match self {
            ChildRef::Node(id) | ChildRef::Recurse(id) => id,
        }
    }
}

/// One element declaration in the schema tree.
#[derive(Debug, Clone)]
pub struct SchemaNode {
    /// Element tag name.
    pub name: String,
    /// Cardinality within the parent.
    pub cardinality: Cardinality,
    /// Child declarations in schema order.
    pub children: Vec<ChildRef>,
    /// Parent node, `None` for the root.
    pub parent: Option<SchemaNodeId>,
    /// True when the schema declares XML attribute nodes on this element.
    pub declares_xml_attrs: bool,
    /// Leaf value type (meaningful only for leaves).
    pub value_type: ValueType,
}

impl SchemaNode {
    /// A leaf holds character data and has no element children.
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }

    /// True when any child slot is a recursive re-entry.
    pub fn has_recursive_child(&self) -> bool {
        self.children.iter().any(|c| matches!(c, ChildRef::Recurse(_)))
    }
}

/// An arena schema tree.
#[derive(Debug, Clone)]
pub struct Schema {
    nodes: Vec<SchemaNode>,
    root: SchemaNodeId,
}

impl Schema {
    /// Root declaration id.
    #[inline]
    pub fn root(&self) -> SchemaNodeId {
        self.root
    }

    /// Borrow a declaration.
    #[inline]
    pub fn node(&self, id: SchemaNodeId) -> &SchemaNode {
        &self.nodes[id.index()]
    }

    /// Number of declarations.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the schema has no declarations (never after build).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Pre-order traversal of all declarations (recursion edges are not
    /// followed; each node is visited exactly once).
    pub fn preorder(&self) -> Vec<SchemaNodeId> {
        let mut out = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            out.push(id);
            for c in self.node(id).children.iter().rev() {
                if let ChildRef::Node(n) = c {
                    stack.push(*n);
                }
            }
        }
        out
    }

    /// Find the direct child declaration of `parent` named `name`,
    /// following recursion edges (so `attr` under `attr` resolves).
    pub fn child_named(&self, parent: SchemaNodeId, name: &str) -> Option<SchemaNodeId> {
        self.node(parent)
            .children
            .iter()
            .map(|c| c.id())
            .find(|id| self.node(*id).name == name)
    }

    /// Resolve an absolute `/`-separated path of tag names to a node.
    pub fn resolve_path(&self, path: &str) -> Option<SchemaNodeId> {
        let mut parts = path.split('/').filter(|p| !p.is_empty());
        let first = parts.next()?;
        if self.node(self.root).name != first {
            return None;
        }
        let mut cur = self.root;
        for part in parts {
            cur = self.child_named(cur, part)?;
        }
        Some(cur)
    }

    /// Depth of `id` (root = 0).
    pub fn depth_of(&self, id: SchemaNodeId) -> usize {
        let mut d = 0;
        let mut cur = id;
        while let Some(p) = self.node(cur).parent {
            d += 1;
            cur = p;
        }
        d
    }

    /// Ancestor chain of `id` from root to `id` inclusive.
    pub fn ancestry(&self, id: SchemaNodeId) -> Vec<SchemaNodeId> {
        let mut chain = vec![id];
        let mut cur = id;
        while let Some(p) = self.node(cur).parent {
            chain.push(p);
            cur = p;
        }
        chain.reverse();
        chain
    }

    /// Parse the compact schema DSL described at the module level.
    pub fn parse_dsl(src: &str) -> Result<Schema> {
        DslParser { src, pos: 0 }.parse()
    }
}

/// Incremental builder for [`Schema`] trees.
///
/// ```
/// use xmlkit::schema::{SchemaBuilder, Cardinality::*};
/// let mut b = SchemaBuilder::new("root");
/// let kw = b.child(b.root(), "keywords", Optional);
/// let theme = b.child(kw, "theme", Many);
/// b.leaf(theme, "themekt", One);
/// b.leaf(theme, "themekey", OneOrMore);
/// let schema = b.build();
/// assert_eq!(schema.len(), 5);
/// ```
pub struct SchemaBuilder {
    nodes: Vec<SchemaNode>,
}

impl SchemaBuilder {
    /// Start a schema whose root element is `name`.
    pub fn new(name: impl Into<String>) -> Self {
        SchemaBuilder {
            nodes: vec![SchemaNode {
                name: name.into(),
                cardinality: Cardinality::One,
                children: Vec::new(),
                parent: None,
                declares_xml_attrs: false,
                value_type: ValueType::Str,
            }],
        }
    }

    /// Root node id.
    pub fn root(&self) -> SchemaNodeId {
        SchemaNodeId(0)
    }

    /// Add an interior or leaf child; returns its id.
    pub fn child(
        &mut self,
        parent: SchemaNodeId,
        name: impl Into<String>,
        card: Cardinality,
    ) -> SchemaNodeId {
        let id = SchemaNodeId(self.nodes.len() as u32);
        self.nodes.push(SchemaNode {
            name: name.into(),
            cardinality: card,
            children: Vec::new(),
            parent: Some(parent),
            declares_xml_attrs: false,
            value_type: ValueType::Str,
        });
        self.nodes[parent.index()].children.push(ChildRef::Node(id));
        id
    }

    /// Add a leaf child (same as [`Self::child`]; reads better at call sites).
    pub fn leaf(
        &mut self,
        parent: SchemaNodeId,
        name: impl Into<String>,
        card: Cardinality,
    ) -> SchemaNodeId {
        self.child(parent, name, card)
    }

    /// Declare that `node` carries XML attribute nodes.
    pub fn with_xml_attrs(&mut self, node: SchemaNodeId) {
        self.nodes[node.index()].declares_xml_attrs = true;
    }

    /// Add a recursion edge: `parent` may contain instances of `target`,
    /// where `target` must be `parent` itself or one of its ancestors.
    pub fn recurse(&mut self, parent: SchemaNodeId, target: SchemaNodeId) -> Result<()> {
        let mut cur = Some(parent);
        let mut ok = false;
        while let Some(c) = cur {
            if c == target {
                ok = true;
                break;
            }
            cur = self.nodes[c.index()].parent;
        }
        if !ok {
            return Err(XmlError::new(
                ErrorKind::BadSchema,
                format!(
                    "recursion target {} is not an ancestor of {}",
                    self.nodes[target.index()].name,
                    self.nodes[parent.index()].name
                ),
            ));
        }
        self.nodes[parent.index()].children.push(ChildRef::Recurse(target));
        Ok(())
    }

    /// Finish the schema.
    pub fn build(self) -> Schema {
        Schema { nodes: self.nodes, root: SchemaNodeId(0) }
    }
}

struct DslParser<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> DslParser<'a> {
    fn parse(mut self) -> Result<Schema> {
        self.skip_ws();
        let (name, card, vt, xattrs) = self.ident()?;
        if card != Cardinality::One {
            return Err(XmlError::at(
                ErrorKind::BadSchema,
                self.pos,
                "root cannot carry a cardinality suffix",
            ));
        }
        let mut b = SchemaBuilder::new(name);
        if xattrs {
            b.with_xml_attrs(b.root());
        }
        let root = b.root();
        b.nodes[root.index()].value_type = vt;
        self.skip_ws();
        if self.peek() == Some('{') {
            self.body(&mut b, root)?;
        }
        self.skip_ws();
        if self.pos != self.src.len() {
            return Err(XmlError::at(
                ErrorKind::BadSchema,
                self.pos,
                "trailing input after schema",
            ));
        }
        Ok(b.build())
    }

    fn body(&mut self, b: &mut SchemaBuilder, parent: SchemaNodeId) -> Result<()> {
        debug_assert_eq!(self.peek(), Some('{'));
        self.pos += 1;
        loop {
            self.skip_ws();
            match self.peek() {
                Some('}') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some('^') => {
                    self.pos += 1;
                    let (target_name, _, _, _) = self.ident()?;
                    // Find nearest ancestor (inclusive) with this name.
                    let mut cur = Some(parent);
                    let mut found = None;
                    while let Some(c) = cur {
                        if b.nodes[c.index()].name == target_name {
                            found = Some(c);
                            break;
                        }
                        cur = b.nodes[c.index()].parent;
                    }
                    let target = found.ok_or_else(|| {
                        XmlError::at(
                            ErrorKind::BadSchema,
                            self.pos,
                            format!("^{target_name}: no such ancestor"),
                        )
                    })?;
                    b.recurse(parent, target)?;
                }
                Some(_) => {
                    let (name, card, vt, xattrs) = self.ident()?;
                    let id = b.child(parent, name, card);
                    b.nodes[id.index()].value_type = vt;
                    if xattrs {
                        b.with_xml_attrs(id);
                    }
                    self.skip_ws();
                    if self.peek() == Some('{') {
                        self.body(b, id)?;
                    }
                }
                None => {
                    return Err(XmlError::at(
                        ErrorKind::UnexpectedEof,
                        self.pos,
                        "unterminated '{'",
                    ));
                }
            }
        }
    }

    /// Parse `name` with optional `@`, `:type`, and cardinality suffix.
    fn ident(&mut self) -> Result<(String, Cardinality, ValueType, bool)> {
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
            return Err(XmlError::at(ErrorKind::BadSchema, self.pos, "expected element name"));
        }
        let name = self.src[start..self.pos].to_string();
        let mut xattrs = false;
        if self.peek() == Some('@') {
            xattrs = true;
            self.pos += 1;
        }
        let mut vt = ValueType::Str;
        if self.peek() == Some(':') {
            self.pos += 1;
            let tstart = self.pos;
            while let Some(c) = self.peek() {
                if c.is_ascii_alphabetic() {
                    self.pos += 1;
                } else {
                    break;
                }
            }
            let name = &self.src[tstart..self.pos];
            vt = ValueType::from_name(name).ok_or_else(|| {
                XmlError::at(ErrorKind::BadSchema, tstart, format!("unknown type {name}"))
            })?;
        }
        let card = match self.peek() {
            Some('?') => {
                self.pos += 1;
                Cardinality::Optional
            }
            Some('*') => {
                self.pos += 1;
                Cardinality::Many
            }
            Some('+') => {
                self.pos += 1;
                Cardinality::OneOrMore
            }
            _ => Cardinality::One,
        };
        Ok((name, card, vt, xattrs))
    }

    fn peek(&self) -> Option<char> {
        self.src[self.pos..].chars().next()
    }

    fn skip_ws(&mut self) {
        while let Some(c) = self.peek() {
            if c.is_whitespace() {
                self.pos += c.len_utf8();
            } else if c == '#' {
                // comment to end of line
                while let Some(c2) = self.peek() {
                    self.pos += c2.len_utf8();
                    if c2 == '\n' {
                        break;
                    }
                }
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DSL: &str = "
        root {
            id
            keywords? {
                theme* { themekt themekey+ }
            }
            detailed* {
                enttyp { enttypl enttypds }
                attr* {
                    attrlabl
                    attrv:float?
                    ^attr
                }
            }
        }
    ";

    #[test]
    fn builder_tree_shape() {
        let mut b = SchemaBuilder::new("r");
        let a = b.child(b.root(), "a", Cardinality::Many);
        b.leaf(a, "x", Cardinality::One);
        let s = b.build();
        assert_eq!(s.len(), 3);
        assert_eq!(s.node(s.root()).name, "r");
        let a_id = s.child_named(s.root(), "a").unwrap();
        assert!(s.node(a_id).cardinality.repeating());
        assert!(s.node(s.child_named(a_id, "x").unwrap()).is_leaf());
    }

    #[test]
    fn dsl_parses_and_resolves_paths() {
        let s = Schema::parse_dsl(DSL).unwrap();
        let theme = s.resolve_path("/root/keywords/theme").unwrap();
        assert_eq!(s.node(theme).cardinality, Cardinality::Many);
        let key = s.child_named(theme, "themekey").unwrap();
        assert_eq!(s.node(key).cardinality, Cardinality::OneOrMore);
        let attrv = s.resolve_path("/root/detailed/attr/attrv").unwrap();
        assert_eq!(s.node(attrv).value_type, ValueType::Float);
        assert_eq!(s.node(attrv).cardinality, Cardinality::Optional);
    }

    #[test]
    fn dsl_recursion_edge() {
        let s = Schema::parse_dsl(DSL).unwrap();
        let attr = s.resolve_path("/root/detailed/attr").unwrap();
        assert!(s.node(attr).has_recursive_child());
        // recursion resolves back to attr itself
        let rec = s
            .node(attr)
            .children
            .iter()
            .find_map(|c| match c {
                ChildRef::Recurse(t) => Some(*t),
                _ => None,
            })
            .unwrap();
        assert_eq!(rec, attr);
        // child_named follows the recursion edge
        assert_eq!(s.child_named(attr, "attr"), Some(attr));
    }

    #[test]
    fn preorder_visits_each_once() {
        let s = Schema::parse_dsl(DSL).unwrap();
        let order = s.preorder();
        assert_eq!(order.len(), s.len());
        let mut seen = std::collections::HashSet::new();
        assert!(order.iter().all(|id| seen.insert(*id)));
        assert_eq!(order[0], s.root());
    }

    #[test]
    fn recursion_must_target_ancestor() {
        let mut b = SchemaBuilder::new("r");
        let a = b.child(b.root(), "a", Cardinality::One);
        let x = b.child(b.root(), "x", Cardinality::One);
        assert!(b.recurse(a, x).is_err());
    }

    #[test]
    fn ancestry_and_depth() {
        let s = Schema::parse_dsl(DSL).unwrap();
        let key = s.resolve_path("/root/keywords/theme/themekey").unwrap();
        assert_eq!(s.depth_of(key), 3);
        let chain: Vec<_> = s.ancestry(key).iter().map(|id| s.node(*id).name.clone()).collect();
        assert_eq!(chain, vec!["root", "keywords", "theme", "themekey"]);
    }

    #[test]
    fn dsl_comments_and_xml_attr_marker() {
        let s = Schema::parse_dsl("r { # comment\n  e@ { v } }").unwrap();
        let e = s.resolve_path("/r/e").unwrap();
        assert!(s.node(e).declares_xml_attrs);
    }

    #[test]
    fn dsl_rejects_bad_input() {
        assert!(Schema::parse_dsl("r { unclosed").is_err());
        assert!(Schema::parse_dsl("r { x:nosuch }").is_err());
        assert!(Schema::parse_dsl("r {} trailing").is_err());
        assert!(Schema::parse_dsl("r* {}").is_err());
        assert!(Schema::parse_dsl("r { ^nothere }").is_err());
    }
}
