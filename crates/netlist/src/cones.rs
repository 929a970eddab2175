//! Logic cones, maximal trees, and the cone-ordering heuristic.
//!
//! MIS splits the inchoate network into *logic cones* — one per primary
//! output, containing the output's transitive fanin — and maps them one
//! at a time, allowing logic duplication across cone boundaries. DAGON
//! instead partitions into *maximal trees* at multi-fanout nodes. Both
//! partitions are provided here.
//!
//! Section 3.5 of the paper orders cones so that the number of *exit
//! lines* (edges leaving an already-mapped cone into a not-yet-mapped
//! one) is minimized, making the fanin rectangles built during mapping
//! more trustworthy. [`exit_line_matrix`] and [`order_cones`] implement
//! that exactly: build the asymmetric matrix `E` and repeatedly extract
//! the row with minimum remaining row sum.

use crate::subject::{SubjectGraph, SubjectKind, SubjectNodeId};

/// One logic cone: a primary output plus its transitive fanin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cone {
    /// Index of the primary output this cone feeds.
    pub output_index: usize,
    /// The node driving the output.
    pub root: SubjectNodeId,
    /// All non-input member nodes in topological order (root last).
    pub members: Vec<SubjectNodeId>,
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

/// Extracts the logic cone of every primary output.
///
/// Outputs driven directly by a primary input produce an empty-member
/// cone whose root is that input.
pub fn cones(g: &SubjectGraph) -> Vec<Cone> {
    g.outputs()
        .iter()
        .enumerate()
        .map(|(oi, o)| {
            let mut seen = vec![false; g.node_count()];
            let mut stack = vec![o.driver];
            let mut members = Vec::new();
            while let Some(n) = stack.pop() {
                if seen[n.index()] {
                    continue;
                }
                seen[n.index()] = true;
                if !matches!(g.kind(n), SubjectKind::Input(_)) {
                    members.push(n);
                    stack.extend(g.kind(n).fanins());
                }
            }
            members.sort_unstable(); // creation order == topological order
            Cone { output_index: oi, root: o.driver, members }
        })
        .collect()
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

/// Builds the asymmetric exit-line matrix `E` of Section 3.5:
/// `E[i][j]` is the number of edges from a node in cone `i` to a node
/// outside cone `i` that belongs to cone `j`. Diagonal entries are zero.
///
/// Works from per-node cone-membership bitsets: an edge `u → v` adds one
/// at every `(i, j)` with `i ∈ cones(u) ∖ cones(v)` and `j ∈ cones(v)`,
/// so the cost is one word-wise difference per edge plus the entries
/// actually incremented, not a scan of every cone per edge.
pub fn exit_line_matrix(g: &SubjectGraph, cones: &[Cone]) -> Vec<Vec<usize>> {
    let words = cones.len().div_ceil(64);
    // Bit `i` of node `v`'s row is set when cone `i` contains `v`.
    // Primary inputs belong to no cone, so their edges never exit.
    let mut member = vec![0u64; g.node_count() * words];
    for (ci, cone) in cones.iter().enumerate() {
        for &m in &cone.members {
            member[m.index() * words + ci / 64] |= 1 << (ci % 64);
        }
    }
    let row = |v: SubjectNodeId| &member[v.index() * words..(v.index() + 1) * words];

    let mut e = vec![vec![0usize; cones.len()]; cones.len()];
    let mut targets = Vec::new();
    for v in g.node_ids() {
        let rv = row(v);
        targets.clear();
        targets.extend(set_bits(rv.iter().copied()));
        for u in g.kind(v).fanins() {
            let exits = row(u).iter().zip(rv).map(|(&a, &b)| a & !b);
            for i in set_bits(exits) {
                for &j in &targets {
                    e[i][j] += 1;
                }
            }
        }
    }
    e
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
pub fn order_cones(e: &[Vec<usize>]) -> Vec<usize> {
    let n = e.len();
    // row[i] = Σ e[i][j] over the cones j not yet emitted.
    let mut row: Vec<usize> = e.iter().map(|r| r.iter().sum()).collect();
    let mut emitted = vec![false; n];
    let mut order = Vec::with_capacity(n);
    for _ in 0..n {
        let best = (0..n)
            .filter(|&i| !emitted[i])
            .min_by_key(|&i| (row[i], i))
            .expect("a cone remains each round");
        emitted[best] = true;
        order.push(best);
        for (r, ei) in row.iter_mut().zip(e) {
            *r -= ei[best];
        }
    }
    order
}

/// Cost of a cone ordering: `Σ_{i<j} E(K_{π_i}, K_{π_j})` — the total
/// number of references from mapped cones to not-yet-mapped cones.
pub fn ordering_cost(e: &[Vec<usize>], order: &[usize]) -> usize {
    let mut cost = 0;
    for (i, &a) in order.iter().enumerate() {
        for &b in &order[i + 1..] {
            cost += e[a][b];
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
        // Both cones contain the shared nand.
        let shared = SubjectNodeId::from_index(3);
        assert!(cs[0].members.contains(&shared));
        assert!(cs[1].members.contains(&shared));
        assert_eq!(cs[0].members.len(), 2);
        assert_eq!(cs[1].members.len(), 2);
        // Members are topologically sorted with the root last.
        for c in &cs {
            assert_eq!(*c.members.last().unwrap(), c.root);
        }
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
        let e = exit_line_matrix(&g, &cs);
        // The shared nand belongs to both cones. Its edge into y2 leaves
        // cone 0 (y2 is outside it) and lands in cone 1, and symmetrically
        // for the edge into y1.
        assert_eq!(e[0][1], 1);
        assert_eq!(e[1][0], 1);
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
        let e = exit_line_matrix(&g, &cs);
        // Edge y1 -> y2 leaves cone 0 (y1's cone does not contain y2)
        // and lands in cone 1.
        assert_eq!(e[0][1], 1);
        assert_eq!(e[1][0], 0);
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
        let e = vec![vec![0, 3, 0, 0], vec![0, 0, 3, 0], vec![0, 0, 0, 3], vec![0, 0, 0, 0]];
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
        assert!(cs[0].members.is_empty());
        assert_eq!(cs[0].root, a);
    }
}
