//! Pattern graphs: library gates expressed as trees of the base
//! functions (2-input NAND and inverter).
//!
//! A pattern graph is matched structurally against the subject graph, so
//! a wide gate must carry one pattern per distinct decomposition shape
//! or it will miss covers. Because NAND2 is commutative and the matcher
//! tries both child orders, only *unordered* binary tree shapes are
//! needed (Wedderburn–Etherington enumeration: 1, 1, 1, 2, 3, 6 shapes
//! for 1–6 leaves), not all Catalan bracketings.
//!
//! Construction goes through smart constructors that cancel double
//! inverters, mirroring the structural hashing of
//! [`lily_netlist::SubjectGraph`] — a pattern containing `INV(INV(x))`
//! could never match a strashed subject graph.

use std::fmt;

/// One node of a pattern tree.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PatternNode {
    /// A leaf bound to gate input pin `pin`.
    Leaf(usize),
    /// Inverter over a subtree.
    Inv(Box<PatternNode>),
    /// 2-input NAND over two subtrees (commutative for matching).
    Nand2(Box<PatternNode>, Box<PatternNode>),
}

impl PatternNode {
    /// Smart constructor: inverter with double-inverter cancellation.
    pub fn inv(node: PatternNode) -> PatternNode {
        match node {
            PatternNode::Inv(inner) => *inner,
            other => PatternNode::Inv(Box::new(other)),
        }
    }

    /// Smart constructor: NAND2.
    pub fn nand2(a: PatternNode, b: PatternNode) -> PatternNode {
        PatternNode::Nand2(Box::new(a), Box::new(b))
    }

    /// AND as `INV(NAND2(a, b))`.
    pub fn and2(a: PatternNode, b: PatternNode) -> PatternNode {
        Self::inv(Self::nand2(a, b))
    }

    /// OR as `NAND2(INV(a), INV(b))`.
    pub fn or2(a: PatternNode, b: PatternNode) -> PatternNode {
        PatternNode::nand2(Self::inv(a), Self::inv(b))
    }

    /// Evaluates the subtree given pin values.
    pub fn eval(&self, pins: &[bool]) -> bool {
        match self {
            PatternNode::Leaf(p) => pins[*p],
            PatternNode::Inv(a) => !a.eval(pins),
            PatternNode::Nand2(a, b) => !(a.eval(pins) && b.eval(pins)),
        }
    }

    /// Number of internal (base-gate) nodes.
    pub fn base_count(&self) -> usize {
        match self {
            PatternNode::Leaf(_) => 0,
            PatternNode::Inv(a) => 1 + a.base_count(),
            PatternNode::Nand2(a, b) => 1 + a.base_count() + b.base_count(),
        }
    }

    /// Number of leaves (pin references; repeated pins count repeatedly).
    pub fn leaf_count(&self) -> usize {
        match self {
            PatternNode::Leaf(_) => 1,
            PatternNode::Inv(a) => a.leaf_count(),
            PatternNode::Nand2(a, b) => a.leaf_count() + b.leaf_count(),
        }
    }

    /// Depth in base gates.
    pub fn depth(&self) -> usize {
        match self {
            PatternNode::Leaf(_) => 0,
            PatternNode::Inv(a) => 1 + a.depth(),
            PatternNode::Nand2(a, b) => 1 + a.depth().max(b.depth()),
        }
    }
}

impl fmt::Display for PatternNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatternNode::Leaf(p) => write!(f, "p{p}"),
            PatternNode::Inv(a) => write!(f, "!({a})"),
            PatternNode::Nand2(a, b) => write!(f, "nand({a},{b})"),
        }
    }
}

/// A complete pattern graph for one library gate.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PatternGraph {
    root: PatternNode,
    pins: usize,
}

impl PatternGraph {
    /// Wraps a pattern tree, recording the gate's pin count.
    ///
    /// # Panics
    ///
    /// Panics if the tree references a pin `>= pins` (a library
    /// construction bug).
    pub fn new(root: PatternNode, pins: usize) -> Self {
        fn check(n: &PatternNode, pins: usize) {
            match n {
                PatternNode::Leaf(p) => assert!(*p < pins, "pattern references pin {p} of {pins}"),
                PatternNode::Inv(a) => check(a, pins),
                PatternNode::Nand2(a, b) => {
                    check(a, pins);
                    check(b, pins);
                }
            }
        }
        check(&root, pins);
        Self { root, pins }
    }

    /// The root node.
    pub fn root(&self) -> &PatternNode {
        &self.root
    }

    /// Gate pin count (not the leaf count: leaves may repeat pins).
    pub fn pins(&self) -> usize {
        self.pins
    }

    /// Evaluates the pattern on one pin assignment.
    ///
    /// # Panics
    ///
    /// Panics if `pins.len() != self.pins()`.
    pub fn eval(&self, pins: &[bool]) -> bool {
        assert_eq!(pins.len(), self.pins, "pattern arity mismatch");
        self.root.eval(pins)
    }

    /// Number of base gates in the pattern (cost of the subject logic a
    /// match absorbs).
    pub fn base_count(&self) -> usize {
        self.root.base_count()
    }
}

/// An unordered binary tree shape over some number of leaves.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Shape {
    /// A leaf.
    Leaf,
    /// An internal node with two children.
    Node(Box<Shape>, Box<Shape>),
}

impl Shape {
    /// Number of leaves in the shape.
    pub fn leaves(&self) -> usize {
        match self {
            Shape::Leaf => 1,
            Shape::Node(a, b) => a.leaves() + b.leaves(),
        }
    }
}

/// Enumerates all unordered binary tree shapes with `k` leaves
/// (Wedderburn–Etherington numbers: 1, 1, 1, 2, 3, 6, 11 for k = 1..=7).
pub fn tree_shapes(k: usize) -> Vec<Shape> {
    assert!(k >= 1, "need at least one leaf");
    let mut table: Vec<Vec<Shape>> = vec![vec![], vec![Shape::Leaf]];
    for n in 2..=k {
        let mut shapes = Vec::new();
        for left in 1..=n / 2 {
            let right = n - left;
            for (li, l) in table[left].iter().enumerate() {
                for (ri, r) in table[right].iter().enumerate() {
                    if left == right && ri < li {
                        continue; // unordered: avoid mirrored duplicates
                    }
                    shapes.push(Shape::Node(Box::new(l.clone()), Box::new(r.clone())));
                }
            }
        }
        table.push(shapes);
    }
    table.pop().expect("k >= 1")
}

/// Builds the AND of the leaves of `shape` as a pattern subtree,
/// assigning pins from `next_pin` in left-to-right order.
fn and_tree(shape: &Shape, next_pin: &mut usize) -> PatternNode {
    match shape {
        Shape::Leaf => {
            let p = PatternNode::Leaf(*next_pin);
            *next_pin += 1;
            p
        }
        Shape::Node(l, r) => {
            let a = and_tree(l, next_pin);
            let b = and_tree(r, next_pin);
            PatternNode::and2(a, b)
        }
    }
}

/// Builds the OR of the leaves of `shape`.
fn or_tree(shape: &Shape, next_pin: &mut usize) -> PatternNode {
    match shape {
        Shape::Leaf => {
            let p = PatternNode::Leaf(*next_pin);
            *next_pin += 1;
            p
        }
        Shape::Node(l, r) => {
            let a = or_tree(l, next_pin);
            let b = or_tree(r, next_pin);
            PatternNode::or2(a, b)
        }
    }
}

/// All pattern graphs for a `k`-input NAND (one per tree shape).
pub fn nand_patterns(k: usize) -> Vec<PatternGraph> {
    assert!(k >= 2);
    tree_shapes(k)
        .iter()
        .map(|s| {
            let mut pin = 0;
            PatternGraph::new(PatternNode::inv(and_tree(s, &mut pin)), k)
        })
        .collect()
}

/// All pattern graphs for a `k`-input AND.
pub fn and_patterns(k: usize) -> Vec<PatternGraph> {
    assert!(k >= 2);
    tree_shapes(k)
        .iter()
        .map(|s| {
            let mut pin = 0;
            PatternGraph::new(and_tree(s, &mut pin), k)
        })
        .collect()
}

/// All pattern graphs for a `k`-input NOR.
pub fn nor_patterns(k: usize) -> Vec<PatternGraph> {
    assert!(k >= 2);
    tree_shapes(k)
        .iter()
        .map(|s| {
            let mut pin = 0;
            PatternGraph::new(PatternNode::inv(or_tree(s, &mut pin)), k)
        })
        .collect()
}

/// All pattern graphs for a `k`-input OR.
pub fn or_patterns(k: usize) -> Vec<PatternGraph> {
    assert!(k >= 2);
    tree_shapes(k)
        .iter()
        .map(|s| {
            let mut pin = 0;
            PatternGraph::new(or_tree(s, &mut pin), k)
        })
        .collect()
}

/// The inverter pattern.
pub fn inv_pattern() -> Vec<PatternGraph> {
    vec![PatternGraph::new(PatternNode::inv(PatternNode::Leaf(0)), 1)]
}

/// XOR2 pattern: `nand(nand(a, !b), nand(!a, b))` — the shape
/// [`lily_netlist::SubjectGraph::xor2`] emits.
pub fn xor2_patterns() -> Vec<PatternGraph> {
    let a = || PatternNode::Leaf(0);
    let b = || PatternNode::Leaf(1);
    let direct = PatternNode::nand2(
        PatternNode::nand2(a(), PatternNode::inv(b())),
        PatternNode::nand2(PatternNode::inv(a()), b()),
    );
    // The complement of the xnor shape.
    let via_xnor = PatternNode::inv(PatternNode::nand2(
        PatternNode::nand2(a(), b()),
        PatternNode::nand2(PatternNode::inv(a()), PatternNode::inv(b())),
    ));
    vec![PatternGraph::new(direct, 2), PatternGraph::new(via_xnor, 2)]
}

/// XNOR2 patterns: `nand(nand(a, b), nand(!a, !b))` plus the complement
/// of the XOR shape.
pub fn xnor2_patterns() -> Vec<PatternGraph> {
    let a = || PatternNode::Leaf(0);
    let b = || PatternNode::Leaf(1);
    let direct = PatternNode::nand2(
        PatternNode::nand2(a(), b()),
        PatternNode::nand2(PatternNode::inv(a()), PatternNode::inv(b())),
    );
    let via_xor = PatternNode::inv(PatternNode::nand2(
        PatternNode::nand2(a(), PatternNode::inv(b())),
        PatternNode::nand2(PatternNode::inv(a()), b()),
    ));
    vec![PatternGraph::new(direct, 2), PatternGraph::new(via_xor, 2)]
}

/// AOI pattern: `!(OR over groups of (AND over group))`. `groups` gives
/// the pin count of each AND group; a group of size 1 is a bare pin.
/// For example `aoi_patterns(&[2, 1])` is AOI21 = `!(p0·p1 + p2)`.
pub fn aoi_patterns(groups: &[usize]) -> Vec<PatternGraph> {
    let pins: usize = groups.iter().sum();
    let mut pin = 0usize;
    let mut terms = Vec::new();
    for &g in groups {
        let mut t = PatternNode::Leaf(pin);
        pin += 1;
        for _ in 1..g {
            let leaf = PatternNode::Leaf(pin);
            pin += 1;
            t = PatternNode::and2(t, leaf);
        }
        terms.push(t);
    }
    let mut or = terms[0].clone();
    for t in &terms[1..] {
        or = PatternNode::or2(or, t.clone());
    }
    vec![PatternGraph::new(PatternNode::inv(or), pins)]
}

/// OAI pattern: `!(AND over groups of (OR over group))`.
/// `oai_patterns(&[2, 1])` is OAI21 = `!((p0 + p1)·p2)`.
pub fn oai_patterns(groups: &[usize]) -> Vec<PatternGraph> {
    let pins: usize = groups.iter().sum();
    let mut pin = 0usize;
    let mut terms = Vec::new();
    for &g in groups {
        let mut t = PatternNode::Leaf(pin);
        pin += 1;
        for _ in 1..g {
            let leaf = PatternNode::Leaf(pin);
            pin += 1;
            t = PatternNode::or2(t, leaf);
        }
        terms.push(t);
    }
    let mut and = terms[0].clone();
    for t in &terms[1..] {
        and = PatternNode::and2(and, t.clone());
    }
    vec![PatternGraph::new(PatternNode::inv(and), pins)]
}

/// For each of `patterns`, the patterns of one gate, whether an earlier
/// one is the same tree up to the order of NAND2 operands.
///
/// This is what decides whether the structural matcher must check a
/// match against the matches of the gate's earlier patterns. It records
/// a match as its pin bindings plus the subject nodes its internal
/// nodes cover, in preorder, left operand first.
///
/// * A pattern never repeats its own matches. Two walks of it that first
///   differ at a NAND2, in which of two distinct children its left
///   operand took, record different nodes there: a covered node or a
///   pin binding.
/// * Call a match *degenerate* when it binds a node twice: it covers
///   one of its inputs, covers a node twice, or puts two pins on one
///   node. A match that is not degenerate fixes the tree that made it,
///   up to operand order. From the root down, each operand's subject
///   node is either covered (an internal node, found by its place in the
///   covered list) or an input (a leaf, whose pin is the one bound to
///   it), never both.
///
/// So a match of a pattern that no earlier pattern equals up to operand
/// order repeats an earlier match only if it is degenerate. Different
/// shapes do repeat on such graphs: nand4's balanced and chain shapes
/// record one match when the chain's first pin is also the balanced
/// shape's right operand.
pub fn same_as_earlier(patterns: &[PatternGraph]) -> Vec<bool> {
    let canon: Vec<String> = patterns.iter().map(|p| unordered(p.root())).collect();
    (0..canon.len()).map(|k| canon[..k].contains(&canon[k])).collect()
}

/// A pattern tree's form with every NAND2's operands in sorted order.
fn unordered(n: &PatternNode) -> String {
    match n {
        PatternNode::Leaf(p) => format!("p{p}"),
        PatternNode::Inv(a) => format!("!({})", unordered(a)),
        PatternNode::Nand2(a, b) => {
            let (x, y) = (unordered(a), unordered(b));
            let (x, y) = if x <= y { (x, y) } else { (y, x) };
            format!("nand({x},{y})")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_function(patterns: &[PatternGraph], k: usize, f: impl Fn(&[bool]) -> bool) {
        assert!(!patterns.is_empty());
        for p in patterns {
            assert_eq!(p.pins(), k);
            let mut vals = vec![false; k];
            for row in 0..(1u32 << k) {
                for (b, v) in vals.iter_mut().enumerate() {
                    *v = (row >> b) & 1 == 1;
                }
                assert_eq!(p.eval(&vals), f(&vals), "pattern {} row {row}", p.root());
            }
        }
    }

    #[test]
    fn only_a_repeated_or_commuted_pattern_is_the_same_as_an_earlier_one() {
        use crate::kinds::GateKind;
        use PatternNode::Leaf;
        let p = |root: PatternNode| PatternGraph::new(root, 3);
        let ab = PatternNode::and2(Leaf(0), Leaf(1));
        let left = p(PatternNode::nand2(ab.clone(), Leaf(2)));
        let commuted = p(PatternNode::nand2(Leaf(2), ab.clone()));
        let inverted = p(PatternNode::nand2(ab, PatternNode::inv(Leaf(2))));
        let cases = [
            (vec![left.clone(), left.clone()], [false, true]),
            (vec![left.clone(), commuted], [false, true]),
            (vec![left, inverted], [false, false]),
        ];
        for (patterns, want) in cases {
            assert_eq!(same_as_earlier(&patterns), want, "{}", patterns[1].root());
        }
        for kind in [GateKind::Nand(6), GateKind::Nor(6), GateKind::And(4), GateKind::Xor2] {
            let patterns = kind.patterns();
            assert!(patterns.len() > 1, "{}", kind.name());
            assert!(same_as_earlier(&patterns).iter().all(|&r| !r), "{}", kind.name());
        }
    }

    #[test]
    fn shape_counts_are_wedderburn_etherington() {
        assert_eq!(tree_shapes(1).len(), 1);
        assert_eq!(tree_shapes(2).len(), 1);
        assert_eq!(tree_shapes(3).len(), 1);
        assert_eq!(tree_shapes(4).len(), 2);
        assert_eq!(tree_shapes(5).len(), 3);
        assert_eq!(tree_shapes(6).len(), 6);
        for k in 1..=6 {
            for s in tree_shapes(k) {
                assert_eq!(s.leaves(), k);
            }
        }
    }

    #[test]
    fn nand_patterns_compute_nand() {
        for k in 2..=6 {
            assert_function(&nand_patterns(k), k, |v| !v.iter().all(|&x| x));
        }
    }

    #[test]
    fn nor_patterns_compute_nor() {
        for k in 2..=6 {
            assert_function(&nor_patterns(k), k, |v| !v.iter().any(|&x| x));
        }
    }

    #[test]
    fn and_or_patterns() {
        for k in 2..=4 {
            assert_function(&and_patterns(k), k, |v| v.iter().all(|&x| x));
            assert_function(&or_patterns(k), k, |v| v.iter().any(|&x| x));
        }
    }

    #[test]
    fn inverter_pattern() {
        assert_function(&inv_pattern(), 1, |v| !v[0]);
    }

    #[test]
    fn xor_xnor_patterns() {
        assert_function(&xor2_patterns(), 2, |v| v[0] ^ v[1]);
        assert_function(&xnor2_patterns(), 2, |v| !(v[0] ^ v[1]));
    }

    #[test]
    fn aoi_oai_patterns() {
        assert_function(&aoi_patterns(&[2, 1]), 3, |v| !((v[0] && v[1]) || v[2]));
        assert_function(&aoi_patterns(&[2, 2]), 4, |v| !((v[0] && v[1]) || (v[2] && v[3])));
        assert_function(&oai_patterns(&[2, 1]), 3, |v| !((v[0] || v[1]) && v[2]));
        assert_function(&oai_patterns(&[2, 2]), 4, |v| !((v[0] || v[1]) && (v[2] || v[3])));
        assert_function(&aoi_patterns(&[2, 2, 1]), 5, |v| {
            !((v[0] && v[1]) || (v[2] && v[3]) || v[4])
        });
    }

    #[test]
    fn patterns_have_no_double_inverters() {
        fn check(n: &PatternNode) {
            match n {
                PatternNode::Leaf(_) => {}
                PatternNode::Inv(a) => {
                    assert!(!matches!(**a, PatternNode::Inv(_)), "double inverter in pattern");
                    check(a);
                }
                PatternNode::Nand2(a, b) => {
                    check(a);
                    check(b);
                }
            }
        }
        for k in 2..=6 {
            for p in nand_patterns(k).iter().chain(&nor_patterns(k)) {
                check(p.root());
            }
        }
        for p in xor2_patterns().iter().chain(&xnor2_patterns()) {
            check(p.root());
        }
    }

    #[test]
    fn base_counts_make_sense() {
        // nand2: 1 base gate; nand3: nand2+inv+nand2 = 3.
        assert_eq!(nand_patterns(2)[0].base_count(), 1);
        assert_eq!(nand_patterns(3)[0].base_count(), 3);
        // inv: 1
        assert_eq!(inv_pattern()[0].base_count(), 1);
    }

    #[test]
    #[should_panic(expected = "pattern references pin")]
    fn out_of_range_pin_panics() {
        let _ = PatternGraph::new(PatternNode::Leaf(3), 2);
    }
}
