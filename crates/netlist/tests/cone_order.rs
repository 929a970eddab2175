//! Cone membership, the bitset exit-line matrix and the O(C²) cone
//! ordering against the naive references of Section 3.5, on seeded
//! random subject graphs whose cone counts straddle the 64-bit word
//! boundaries of the membership bitsets.

use lily_netlist::cones::{cones, exit_line_matrix, order_cones, ConeMembership, ExitLines};
use lily_netlist::sim::XorShift64;
use lily_netlist::{SubjectGraph, SubjectKind, SubjectNodeId};

/// Reference membership: per output, a DFS over the transitive fanin
/// of its driver, collecting every non-input node in ascending id
/// order. An input-driven output has an empty cone.
fn naive_cones(g: &SubjectGraph) -> Vec<Vec<SubjectNodeId>> {
    g.outputs()
        .iter()
        .map(|o| {
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
            members.sort_unstable();
            members
        })
        .collect()
}

/// Reference `E`: for every edge, scan every cone for an exit and every
/// cone again for a landing.
fn naive_exit_lines(g: &SubjectGraph, cones: &[Vec<SubjectNodeId>]) -> ExitLines {
    let in_cone = |ci: usize, n: SubjectNodeId| cones[ci].binary_search(&n).is_ok();
    let mut e = vec![vec![0u32; cones.len()]; cones.len()];
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
    ExitLines::from_fn(cones.len(), |i, j| e[i][j])
}

/// Reference ordering: recompute every remaining row sum each round.
fn naive_order(e: &ExitLines) -> Vec<usize> {
    let mut remaining: Vec<usize> = (0..e.len()).collect();
    let mut order = Vec::new();
    while !remaining.is_empty() {
        let (pos, &best) = remaining
            .iter()
            .enumerate()
            .min_by_key(|(_, &i)| (remaining.iter().map(|&j| e.row(i)[j]).sum::<u32>(), i))
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
fn bitset_membership_matches_the_naive_dfs() {
    let mut empty_cones = 0;
    for (seed, outputs) in [(21, 1), (22, 63), (23, 64), (24, 65), (25, 130), (26, 200)] {
        let g = random_graph(seed, outputs);
        let cs = cones(&g);
        assert_eq!(cs.len(), outputs);
        let naive = naive_cones(&g);
        empty_cones += naive.iter().filter(|c| c.is_empty()).count();
        let m = ConeMembership::new(&g, &cs);
        for (i, want) in naive.iter().enumerate() {
            assert_eq!(m.members(i).collect::<Vec<_>>(), *want, "cone {i} of {outputs}");
        }
        assert_eq!(m.memberships(), naive.iter().map(Vec::len).sum::<usize>());
        // Cones listed in another order get their bits in that order.
        let reversed: Vec<_> = cs.iter().rev().copied().collect();
        let r = ConeMembership::new(&g, &reversed);
        for (i, want) in naive.iter().rev().enumerate() {
            assert_eq!(r.members(i).collect::<Vec<_>>(), *want, "reversed cone {i} of {outputs}");
        }
        for v in g.node_ids() {
            for from in 0..=outputs {
                let want = (from..outputs).find(|&i| naive[i].binary_search(&v).is_ok());
                assert_eq!(m.next_cone(v, from), want, "{v} from {from} of {outputs}");
                let count = (from..outputs).filter(|&i| naive[i].binary_search(&v).is_ok());
                assert_eq!(m.count_from(v, from), count.count(), "{v} from {from} of {outputs}");
            }
        }
    }
    assert!(empty_cones > 0, "no input-driven output exercised");
}

#[test]
fn bitset_exit_line_matrix_matches_the_naive_scan() {
    for (seed, outputs) in [(1, 1), (2, 63), (3, 64), (4, 65), (5, 130), (6, 200)] {
        let g = random_graph(seed, outputs);
        let cs = cones(&g);
        assert_eq!(cs.len(), outputs);
        let e = exit_line_matrix(&g, &ConeMembership::new(&g, &cs));
        assert_eq!(e, naive_exit_lines(&g, &naive_cones(&g)), "{outputs} cones");
        if outputs > 1 {
            let any = (0..outputs).any(|i| e.row(i).iter().any(|&x| x > 0));
            assert!(any, "{outputs} cones: no exit lines");
        }
    }
}

#[test]
fn incremental_ordering_matches_the_naive_greedy() {
    for (seed, outputs) in [(11, 1), (12, 63), (13, 64), (14, 65), (15, 130)] {
        let g = random_graph(seed, outputs);
        let e = exit_line_matrix(&g, &ConeMembership::new(&g, &cones(&g)));
        assert_eq!(order_cones(&e), naive_order(&e), "{outputs} cones");
    }
    // Dense random matrices with small entries: many tied row sums, so
    // the (row sum, index) tie-break is exercised on every round.
    let mut rng = XorShift64::new(99);
    for n in [0, 1, 2, 63, 64, 65, 129] {
        let e = ExitLines::from_fn(n, |_, _| rng.gen_index(3) as u32);
        assert_eq!(order_cones(&e), naive_order(&e), "{n}x{n} matrix");
    }
}
