//! Logic cones, maximal trees, and the cone-ordering heuristic.
//!
//! MIS splits the inchoate network into *logic cones* — one per primary
//! output, containing the output's transitive fanin — and maps them one
//! at a time, allowing logic duplication across cone boundaries. DAGON
//! instead partitions into *maximal trees* at multi-fanout nodes. Both
//! partitions are provided here.
//!
//! Cones overlap heavily, so their members are not listed per cone:
//! [`ConeMembership`] keeps one bitset row per node, with bit `i` set
//! when cone `i` contains the node, built in one reverse-topological OR
//! pass.
//!
//! Section 3.5 of the paper orders cones so that the number of *exit
//! lines* (edges leaving an already-mapped cone into a not-yet-mapped
//! one) is minimized, making the fanin rectangles built during mapping
//! more trustworthy. [`exit_line_matrix`] and [`order_cones`] implement
//! that exactly: build the asymmetric matrix `E` and repeatedly extract
//! the row with minimum remaining row sum.

use crate::subject::{SubjectGraph, SubjectKind, SubjectNodeId};

/// One logic cone: a primary output plus its transitive fanin. Which
/// nodes that is lives in a [`ConeMembership`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cone {
    /// Index of the primary output this cone feeds.
    pub output_index: usize,
    /// The node driving the output.
    pub root: SubjectNodeId,
}

/// One maximal tree of the DAGON partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tree {
    /// The tree root: a multi-fanout node or a primary-output driver.
    pub root: SubjectNodeId,
    /// Non-input members in topological order (root last). Leaves of the
    /// tree (inputs or other trees' roots) are *not* members.
    pub members: Vec<SubjectNodeId>,
}

/// The logic cone of every primary output, in output order.
///
/// An output driven directly by a primary input has an empty cone
/// whose root is that input.
pub fn cones(g: &SubjectGraph) -> Vec<Cone> {
    g.outputs()
        .iter()
        .enumerate()
        .map(|(oi, o)| Cone { output_index: oi, root: o.driver })
        .collect()
}

/// Which of a list of cones contain each node: one word-packed bitset
/// row per node, bit `i` set when the `i`-th cone of the list contains
/// the node. Primary inputs belong to no cone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConeMembership {
    cones: usize,
    words: usize,
    rows: Vec<u64>,
}

impl ConeMembership {
    /// Computes the membership of `cones` (in that order) in one
    /// reverse-topological pass: a node's row is the OR of its fanouts'
    /// rows plus the bits of the cones it roots.
    pub fn new(g: &SubjectGraph, cones: &[Cone]) -> Self {
        let words = cones.len().div_ceil(64);
        let mut rows = vec![0u64; g.node_count() * words];
        let internal = |v: SubjectNodeId| !matches!(g.kind(v), SubjectKind::Input(_));
        for (i, c) in cones.iter().enumerate() {
            if internal(c.root) {
                rows[c.root.index() * words + i / 64] |= 1 << (i % 64);
            }
        }
        for v in (0..g.node_count()).rev().map(SubjectNodeId::from_index) {
            // A fanin has a smaller id than its fanouts: its row sits
            // below `v`'s.
            let (below, from_v) = rows.split_at_mut(v.index() * words);
            let rv = &from_v[..words];
            for u in g.kind(v).fanins().filter(|&u| internal(u)) {
                for (a, &b) in below[u.index() * words..][..words].iter_mut().zip(rv) {
                    *a |= b;
                }
            }
        }
        Self { cones: cones.len(), words, rows }
    }

    /// Number of cones.
    pub fn cone_count(&self) -> usize {
        self.cones
    }

    /// The bitset row of `v`: bit `i` (word `i / 64`, bit `i % 64`) is
    /// set when cone `i` contains `v`.
    pub fn row(&self, v: SubjectNodeId) -> &[u64] {
        &self.rows[v.index() * self.words..][..self.words]
    }

    /// Whether cone `cone` contains `v`.
    pub fn contains(&self, cone: usize, v: SubjectNodeId) -> bool {
        self.row(v)[cone / 64] >> (cone % 64) & 1 == 1
    }

    /// The first cone at or after `from` that contains `v`, if any.
    pub fn next_cone(&self, v: SubjectNodeId, from: usize) -> Option<usize> {
        let row = self.row(v);
        let mut w = from / 64;
        let mut bits = *row.get(w)? & (!0u64 << (from % 64));
        loop {
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
            w += 1;
            bits = *row.get(w)?;
        }
    }

    /// Number of cones at or after `from` that contain `v`.
    pub fn count_from(&self, v: SubjectNodeId, from: usize) -> usize {
        let row = self.row(v);
        let w = from / 64;
        let Some(&first) = row.get(w) else { return 0 };
        let rest: u32 = row[w + 1..].iter().map(|b| b.count_ones()).sum();
        (rest + (first >> (from % 64)).count_ones()) as usize
    }

    /// The members of cone `cone` in ascending id (topological) order,
    /// root last. Scans every row: for checks and tests, not for sweeps.
    pub fn members(&self, cone: usize) -> impl Iterator<Item = SubjectNodeId> + '_ {
        (0..self.rows.len() / self.words.max(1))
            .map(SubjectNodeId::from_index)
            .filter(move |&v| self.contains(cone, v))
    }

    /// Total number of (cone, member) pairs: the sum of all cone sizes.
    pub fn memberships(&self) -> usize {
        self.rows.iter().map(|b| b.count_ones() as usize).sum()
    }
}

/// Partitions the internal nodes into maximal trees by cutting every
/// multi-fanout edge (DAGON's partition). A node roots a tree when it
/// has more than one fanout edge, drives a primary output, or feeds
/// nothing at all.
pub fn maximal_trees(g: &SubjectGraph) -> Vec<Tree> {
    let fanout = g.fanout_counts();
    let orefs = g.output_ref_counts();
    let is_root = |n: SubjectNodeId| -> bool {
        if matches!(g.kind(n), SubjectKind::Input(_)) {
            return false;
        }
        let total = fanout[n.index()] + orefs[n.index()];
        total != 1 || orefs[n.index()] == 1
    };
    let mut trees = Vec::new();
    for n in g.node_ids() {
        if !is_root(n) {
            continue;
        }
        // Collect the tree hanging below this root: follow fanins while
        // they are single-fanout non-root internal nodes.
        let mut members = Vec::new();
        let mut stack = vec![n];
        while let Some(m) = stack.pop() {
            members.push(m);
            for f in g.kind(m).fanins() {
                if !matches!(g.kind(f), SubjectKind::Input(_)) && !is_root(f) {
                    stack.push(f);
                }
            }
        }
        members.sort_unstable();
        trees.push(Tree { root: n, members });
    }
    trees
}

/// The asymmetric exit-line matrix `E` of Section 3.5, row-major in
/// one flat array: `E[i][j]` is the number of edges from a node in cone
/// `i` to a node outside cone `i` that belongs to cone `j`. Diagonal
/// entries are zero.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExitLines {
    n: usize,
    e: Vec<u32>,
}

impl ExitLines {
    /// The `n × n` matrix with `E[i][j] = f(i, j)`.
    pub fn from_fn(n: usize, mut f: impl FnMut(usize, usize) -> u32) -> Self {
        Self { n, e: (0..n * n).map(|k| f(k / n, k % n)).collect() }
    }

    /// Number of cones (rows and columns).
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the matrix has no cones.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Row `i`: the exit lines from cone `i` into every cone.
    pub fn row(&self, i: usize) -> &[u32] {
        &self.e[i * self.n..][..self.n]
    }
}

/// Builds the exit-line matrix of the cones `m` describes.
///
/// An edge `u → v` adds one at every `(i, j)` with `i ∈ cones(u) ∖
/// cones(v)` and `j ∈ cones(v)`. Every node of a maximal tree has the
/// membership of the tree root (it feeds nothing else), so the edges
/// into one tree share their targets: their exits are counted per cone
/// first, and each exited cone's row then takes one pass over the
/// targets. The cost is one word-wise difference per edge plus the
/// entries actually incremented, not a scan of every cone per edge.
/// Primary inputs belong to no cone, so their edges never exit.
pub fn exit_line_matrix(g: &SubjectGraph, m: &ConeMembership) -> ExitLines {
    let n = m.cone_count();
    let mut e = vec![0u32; n * n];
    let mut exits = vec![0u32; n];
    let mut exited = Vec::new();
    let mut targets = Vec::new();
    for tree in maximal_trees(g) {
        let rv = m.row(tree.root);
        if rv.iter().all(|&b| b == 0) {
            continue;
        }
        for &v in &tree.members {
            for u in g.kind(v).fanins() {
                for i in set_bits(m.row(u).iter().zip(rv).map(|(&a, &b)| a & !b)) {
                    if exits[i] == 0 {
                        exited.push(i);
                    }
                    exits[i] += 1;
                }
            }
        }
        targets.clear();
        targets.extend(set_bits(rv.iter().copied()));
        for i in exited.drain(..) {
            let row = &mut e[i * n..][..n];
            for &j in &targets {
                row[j] += exits[i];
            }
            exits[i] = 0;
        }
    }
    ExitLines { n, e }
}

/// Indices of the set bits of a word-packed bitset, ascending.
fn set_bits(words: impl Iterator<Item = u64>) -> impl Iterator<Item = usize> {
    words.enumerate().flat_map(|(w, mut bits)| {
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                w * 64 + b
            })
        })
    })
}

/// The greedy cone ordering of Section 3.5: repeatedly select the row
/// with minimum remaining row sum (ties to the lower index), emit it,
/// and delete its row and column. Returns cone indices in mapping
/// order.
///
/// Runs in O(C²): every row sum is kept up to date by subtracting the
/// emitted cone's column instead of being recomputed per round.
pub fn order_cones(e: &ExitLines) -> Vec<usize> {
    let n = e.len();
    // row[i] = Σ e[i][j] over the cones j not yet emitted.
    let mut row: Vec<u64> = (0..n).map(|i| e.row(i).iter().map(|&x| u64::from(x)).sum()).collect();
    let mut emitted = vec![false; n];
    let mut order = Vec::with_capacity(n);
    while let Some(best) = (0..n).filter(|&i| !emitted[i]).min_by_key(|&i| (row[i], i)) {
        emitted[best] = true;
        order.push(best);
        for (i, r) in row.iter_mut().enumerate() {
            *r -= u64::from(e.row(i)[best]);
        }
    }
    order
}

/// Cost of a cone ordering: `Σ_{i<j} E(K_{π_i}, K_{π_j})` — the total
/// number of references from mapped cones to not-yet-mapped cones.
pub fn ordering_cost(e: &ExitLines, order: &[usize]) -> usize {
    let mut cost = 0;
    for (i, &a) in order.iter().enumerate() {
        let row = e.row(a);
        for &b in &order[i + 1..] {
            cost += row[b] as usize;
        }
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two outputs sharing a subgraph.
    fn shared_graph() -> SubjectGraph {
        let mut g = SubjectGraph::new("g");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let c = g.add_input("c");
        let shared = g.nand2(a, b);
        let y1 = g.inv(shared);
        let y2 = g.nand2(shared, c);
        g.set_output("y1", y1);
        g.set_output("y2", y2);
        g
    }

    #[test]
    fn cones_cover_tfi() {
        let g = shared_graph();
        let cs = cones(&g);
        assert_eq!(cs.len(), 2);
        let m = ConeMembership::new(&g, &cs);
        // Both cones contain the shared nand.
        let shared = SubjectNodeId::from_index(3);
        assert!(m.contains(0, shared) && m.contains(1, shared));
        assert_eq!(m.memberships(), 4);
        // Members are topologically sorted with the root last.
        for (i, c) in cs.iter().enumerate() {
            assert_eq!(m.members(i).count(), 2);
            assert_eq!(m.members(i).last(), Some(c.root));
        }
        // Inputs belong to no cone.
        assert!(m.row(SubjectNodeId::from_index(0)).iter().all(|&b| b == 0));
        assert_eq!((m.next_cone(shared, 0), m.next_cone(shared, 1)), (Some(0), Some(1)));
        assert_eq!(m.next_cone(shared, 2), None);
        assert_eq!((m.count_from(shared, 0), m.count_from(shared, 1)), (2, 1));
        assert_eq!(m.count_from(shared, 2), 0);
    }

    #[test]
    fn trees_break_at_multifanout() {
        let g = shared_graph();
        let ts = maximal_trees(&g);
        // shared (fanout 2), y1 (PO), y2 (PO) are roots -> 3 trees.
        assert_eq!(ts.len(), 3);
        for t in &ts {
            assert_eq!(*t.members.last().unwrap(), t.root);
        }
        // Every internal node appears in exactly one tree.
        let mut count = vec![0usize; g.node_count()];
        for t in &ts {
            for &m in &t.members {
                count[m.index()] += 1;
            }
        }
        for n in g.node_ids() {
            let expect = usize::from(!matches!(g.kind(n), SubjectKind::Input(_)));
            assert_eq!(count[n.index()], expect, "node {n}");
        }
    }

    #[test]
    fn long_chain_is_single_tree() {
        let mut g = SubjectGraph::new("g");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let n1 = g.nand2(a, b);
        let n2 = g.inv(n1);
        let n3 = g.nand2(n2, a);
        g.set_output("y", n3);
        let ts = maximal_trees(&g);
        assert_eq!(ts.len(), 1);
        assert_eq!(ts[0].members.len(), 3);
    }

    #[test]
    fn exit_lines_between_cones() {
        let g = shared_graph();
        let cs = cones(&g);
        let e = exit_line_matrix(&g, &ConeMembership::new(&g, &cs));
        // The shared nand belongs to both cones. Its edge into y2 leaves
        // cone 0 (y2 is outside it) and lands in cone 1, and symmetrically
        // for the edge into y1.
        assert_eq!(e.row(0), [0, 1]);
        assert_eq!(e.row(1), [1, 0]);
    }

    #[test]
    fn exit_lines_feed_forward_structure() {
        // K1's root feeds a node that only K2 contains.
        let mut g = SubjectGraph::new("g");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let y1 = g.nand2(a, b);
        let y2 = g.inv(y1);
        g.set_output("y1", y1);
        g.set_output("y2", y2);
        let cs = cones(&g);
        let e = exit_line_matrix(&g, &ConeMembership::new(&g, &cs));
        // Edge y1 -> y2 leaves cone 0 (y1's cone does not contain y2)
        // and lands in cone 1.
        assert_eq!(e.row(0), [0, 1]);
        assert_eq!(e.row(1), [0, 0]);
        // Greedy ordering maps cone 1 (the superset) first: its row sum
        // is 0 while cone 0's is 1... but mapping the superset first
        // means the edge is internal by the time cone 0 is processed.
        let order = order_cones(&e);
        assert_eq!(order, vec![1, 0]);
        assert_eq!(ordering_cost(&e, &order), 0);
        assert_eq!(ordering_cost(&e, &[0, 1]), 1);
    }

    #[test]
    fn greedy_ordering_beats_identity_on_chains() {
        // Chain of 4 cones each feeding the next: optimal order is
        // reverse topological.
        let e = ExitLines::from_fn(4, |i, j| if j == i + 1 { 3 } else { 0 });
        let order = order_cones(&e);
        assert_eq!(order, vec![3, 2, 1, 0]);
        assert_eq!(ordering_cost(&e, &order), 0);
        assert_eq!(ordering_cost(&e, &[0, 1, 2, 3]), 9);
    }

    #[test]
    fn pi_driven_output_gives_empty_cone() {
        let mut g = SubjectGraph::new("g");
        let a = g.add_input("a");
        g.set_output("y", a);
        let cs = cones(&g);
        assert_eq!(cs.len(), 1);
        assert_eq!(ConeMembership::new(&g, &cs).members(0).count(), 0);
        assert_eq!(cs[0].root, a);
    }
}
