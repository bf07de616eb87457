//! Property tests for the schema model.

use proptest::prelude::*;
use xmlkit::schema::{Cardinality, ChildRef, Schema, SchemaBuilder};

#[derive(Debug, Clone)]
enum STree {
    Leaf(String, Cardinality),
    Node(String, Cardinality, Vec<STree>),
}

fn card() -> impl Strategy<Value = Cardinality> {
    prop_oneof![
        Just(Cardinality::One),
        Just(Cardinality::Optional),
        Just(Cardinality::Many),
        Just(Cardinality::OneOrMore),
    ]
}

fn stree() -> impl Strategy<Value = STree> {
    let leaf = ("[a-z][a-z0-9]{0,6}", card()).prop_map(|(n, c)| STree::Leaf(n, c));
    leaf.prop_recursive(3, 32, 4, |inner| {
        ("[a-z][a-z0-9]{0,6}", card(), proptest::collection::vec(inner, 1..4)).prop_map(
            |(n, c, kids)| {
                // Sibling names must be unique for child_named to be
                // deterministic.
                let mut kids = kids;
                kids.sort_by_key(|k| match k {
                    STree::Leaf(n, _) | STree::Node(n, _, _) => n.clone(),
                });
                kids.dedup_by(|a, b| {
                    let an = match a {
                        STree::Leaf(n, _) | STree::Node(n, _, _) => n.clone(),
                    };
                    let bn = match b {
                        STree::Leaf(n, _) | STree::Node(n, _, _) => n.clone(),
                    };
                    an == bn
                });
                STree::Node(n, c, kids)
            },
        )
    })
}

fn build(b: &mut SchemaBuilder, parent: xmlkit::SchemaNodeId, t: &STree) {
    match t {
        STree::Leaf(n, c) => {
            b.leaf(parent, n.clone(), *c);
        }
        STree::Node(n, c, kids) => {
            let id = b.child(parent, n.clone(), *c);
            for k in kids {
                build(b, id, k);
            }
        }
    }
}

proptest! {
    /// Preorder visits every node exactly once, parents before children.
    #[test]
    fn preorder_parent_before_child(t in stree()) {
        let mut b = SchemaBuilder::new("root");
        let root = b.root();
        build(&mut b, root, &t);
        let s = b.build();
        let order = s.preorder();
        prop_assert_eq!(order.len(), s.len());
        let pos: std::collections::HashMap<_, _> =
            order.iter().enumerate().map(|(i, id)| (*id, i)).collect();
        for id in s.preorder() {
            if let Some(p) = s.node(id).parent {
                prop_assert!(pos[&p] < pos[&id]);
            }
        }
    }

    /// resolve_path finds every node by its ancestry path.
    #[test]
    fn resolve_path_total(t in stree()) {
        let mut b = SchemaBuilder::new("root");
        let root = b.root();
        build(&mut b, root, &t);
        let s = b.build();
        for id in s.preorder() {
            let path: String = s
                .ancestry(id)
                .iter()
                .map(|n| format!("/{}", s.node(*n).name))
                .collect();
            prop_assert_eq!(s.resolve_path(&path), Some(id), "path {}", path);
        }
    }
}

#[test]
fn recursion_edges_never_appear_in_preorder() {
    let s = Schema::parse_dsl("r { a* { x ^a } }").unwrap();
    let order = s.preorder();
    assert_eq!(order.len(), 3); // r, a, x — the ^a edge is not a node
    let a = s.resolve_path("/r/a").unwrap();
    assert!(s.node(a).children.iter().any(|c| matches!(c, ChildRef::Recurse(_))));
}
