//! The bitset exit-line matrix and the O(C²) cone ordering against the
//! naive references of Section 3.5, on seeded random subject graphs
//! whose cone counts straddle the 64-bit word boundaries of the
//! membership bitsets.

use lily_netlist::cones::{cones, exit_line_matrix, order_cones, Cone};
use lily_netlist::sim::XorShift64;
use lily_netlist::{SubjectGraph, SubjectKind, SubjectNodeId};

/// Reference `E`: for every edge, scan every cone for an exit and every
/// cone again for a landing.
fn naive_exit_lines(g: &SubjectGraph, cones: &[Cone]) -> Vec<Vec<usize>> {
    let in_cone = |ci: usize, n: SubjectNodeId| cones[ci].members.contains(&n);
    let mut e = vec![vec![0usize; cones.len()]; cones.len()];
    for v in g.node_ids() {
        for u in g.kind(v).fanins() {
            if matches!(g.kind(u), SubjectKind::Input(_)) {
                continue;
            }
            for (i, ei) in e.iter_mut().enumerate() {
                if in_cone(i, u) && !in_cone(i, v) {
                    for (j, eij) in ei.iter_mut().enumerate() {
                        if j != i && in_cone(j, v) {
                            *eij += 1;
                        }
                    }
                }
            }
        }
    }
    e
}

/// Reference ordering: recompute every remaining row sum each round.
fn naive_order(e: &[Vec<usize>]) -> Vec<usize> {
    let mut remaining: Vec<usize> = (0..e.len()).collect();
    let mut order = Vec::new();
    while !remaining.is_empty() {
        let (pos, &best) = remaining
            .iter()
            .enumerate()
            .min_by_key(|(_, &i)| (remaining.iter().map(|&j| e[i][j]).sum::<usize>(), i))
            .unwrap();
        order.push(best);
        remaining.remove(pos);
    }
    order
}

/// A random NAND/INV graph with exactly `outputs` primary outputs,
/// drivers drawn mostly from the deep end so cones overlap heavily.
/// Some outputs are driven straight by an input (empty cones).
fn random_graph(seed: u64, outputs: usize) -> SubjectGraph {
    let mut rng = XorShift64::new(seed);
    let mut g = SubjectGraph::new("cones");
    let mut nodes: Vec<SubjectNodeId> = (0..8).map(|i| g.add_input(format!("i{i}"))).collect();
    for _ in 0..(outputs * 3).max(24) {
        let a = nodes[rng.gen_index(nodes.len())];
        let n = if rng.gen_index(4) == 0 {
            g.inv(a)
        } else {
            let b = nodes[rng.gen_index(nodes.len())];
            g.nand2(a, b)
        };
        if !nodes.contains(&n) {
            nodes.push(n);
        }
    }
    for o in 0..outputs {
        let driver = match rng.gen_index(16) {
            0 => nodes[rng.gen_index(8)],
            1..=4 => nodes[rng.gen_index(nodes.len())],
            _ => nodes[nodes.len() - 1 - rng.gen_index(nodes.len().min(12))],
        };
        g.set_output(format!("y{o}"), driver);
    }
    g
}

#[test]
fn bitset_exit_line_matrix_matches_the_naive_scan() {
    for (seed, outputs) in [(1, 1), (2, 63), (3, 64), (4, 65), (5, 130), (6, 200)] {
        let g = random_graph(seed, outputs);
        let cs = cones(&g);
        assert_eq!(cs.len(), outputs);
        let e = exit_line_matrix(&g, &cs);
        assert_eq!(e, naive_exit_lines(&g, &cs), "{outputs} cones");
        if outputs > 1 {
            assert!(e.iter().flatten().any(|&x| x > 0), "{outputs} cones: no exit lines");
        }
    }
}

#[test]
fn incremental_ordering_matches_the_naive_greedy() {
    for (seed, outputs) in [(11, 1), (12, 63), (13, 64), (14, 65), (15, 130)] {
        let g = random_graph(seed, outputs);
        let e = exit_line_matrix(&g, &cones(&g));
        assert_eq!(order_cones(&e), naive_order(&e), "{outputs} cones");
    }
    // Dense random matrices with small entries: many tied row sums, so
    // the (row sum, index) tie-break is exercised on every round.
    let mut rng = XorShift64::new(99);
    for n in [0, 1, 2, 63, 64, 65, 129] {
        let e: Vec<Vec<usize>> =
            (0..n).map(|_| (0..n).map(|_| rng.gen_index(3)).collect()).collect();
        assert_eq!(order_cones(&e), naive_order(&e), "{n}x{n} matrix");
    }
}
