//! The signature-filtered cut kernel against the kernel it replaced.
//!
//! `reference` below is a verbatim copy of the earlier per-node step:
//! every merge candidate gets a heap leaf vector and a row-loop truth
//! table before any pruning. The new kernel must agree with it node by
//! node — cut sets, pruning counters and the dominated-cut log — on
//! random graphs whose node ids collide modulo 64, so leaf signatures
//! alias and only the exact subset walk can decide.

use lily_netlist::cuts::enumerate_node;
use lily_netlist::{
    Cut, CutConfig, CutScratch, CutSet, CutStats, SubjectGraph, SubjectNodeId, TruthTable,
};

/// The per-node enumeration step as it stood before leaf signatures
/// and stored-cut-only tables: verbatim apart from the scratch type,
/// whose private leaf pool is re-created here.
mod reference {
    use lily_netlist::func::{TruthTable, MAX_TT_INPUTS};
    use lily_netlist::SubjectNodeId;
    use lily_netlist::{Cut, CutConfig, CutCounts, CutSet, SubjectGraph, SubjectKind};

    #[derive(Default)]
    pub struct CutScratch {
        candidates: Vec<Cut>,
        leaf_pool: Vec<Vec<SubjectNodeId>>,
        union: Vec<SubjectNodeId>,
        pub record_dominated: bool,
        pub dominated_log: Vec<Cut>,
    }

    impl CutScratch {
        fn take_leaves(&mut self) -> Vec<SubjectNodeId> {
            match self.leaf_pool.pop() {
                Some(mut v) => {
                    v.clear();
                    v
                }
                None => Vec::new(),
            }
        }

        fn recycle(&mut self, cut: Cut) {
            self.leaf_pool.push(cut.leaves);
        }
    }

    pub fn enumerate_node(
        g: &SubjectGraph,
        v: SubjectNodeId,
        sets: &[CutSet],
        config: &CutConfig,
        scratch: &mut CutScratch,
    ) -> (CutSet, CutCounts) {
        let k = config.k.clamp(2, MAX_TT_INPUTS);
        let mut counts = CutCounts::default();
        scratch.dominated_log.clear();
        scratch.candidates.clear();

        let base_leaves: Vec<SubjectNodeId> = match g.kind(v) {
            SubjectKind::Input(_) => {
                let set = CutSet { cuts: vec![Cut::trivial(v)] };
                counts.kept = 1;
                return (set, counts);
            }
            SubjectKind::Inv(a) => {
                for c in &sets[a.index()].cuts {
                    let mut leaves = scratch.take_leaves();
                    leaves.extend_from_slice(&c.leaves);
                    scratch.candidates.push(Cut { leaves, table: c.table.not() });
                }
                vec![a]
            }
            SubjectKind::Nand2(a, b) => {
                for ca in &sets[a.index()].cuts {
                    for cb in &sets[b.index()].cuts {
                        match merge_nand2(ca, cb, k, scratch) {
                            Some(cut) => scratch.candidates.push(cut),
                            None => counts.pruned_width += 1,
                        }
                    }
                }
                if a == b {
                    vec![a]
                } else {
                    vec![a.min(b), a.max(b)]
                }
            }
        };

        let mut candidates = std::mem::take(&mut scratch.candidates);
        candidates.sort_by(|x, y| (x.leaves.len(), &x.leaves).cmp(&(y.leaves.len(), &y.leaves)));
        candidates.dedup_by(|x, y| x.leaves == y.leaves);

        let mut kept: Vec<Cut> = Vec::with_capacity(candidates.len().min(config.max_cuts + 1));
        for cut in candidates {
            let is_base = cut.leaves == base_leaves;
            if !is_base && kept.iter().any(|kc| kc.dominates(&cut)) {
                counts.pruned_dominated += 1;
                if scratch.record_dominated {
                    scratch.dominated_log.push(cut.clone());
                }
                scratch.recycle(cut);
                continue;
            }
            kept.push(cut);
        }

        let max_cuts = config.max_cuts.max(1);
        if kept.len() > max_cuts {
            let base_at = kept.iter().position(|c| c.leaves == base_leaves).unwrap_or(0);
            let mut stored = Vec::with_capacity(max_cuts);
            for (i, cut) in kept.into_iter().enumerate() {
                let cap = if base_at > i { max_cuts - 1 } else { max_cuts };
                if i == base_at || stored.len() < cap {
                    stored.push(cut);
                } else {
                    counts.pruned_overflow += 1;
                    scratch.recycle(cut);
                }
            }
            kept = stored;
        }

        let mut cuts = Vec::with_capacity(kept.len() + 1);
        cuts.push(Cut::trivial(v));
        if let Some(bi) = kept.iter().position(|c| c.leaves == base_leaves) {
            cuts.push(kept.remove(bi));
        }
        cuts.extend(kept);
        counts.kept = cuts.len();
        (CutSet { cuts }, counts)
    }

    fn merge_nand2(ca: &Cut, cb: &Cut, k: usize, scratch: &mut CutScratch) -> Option<Cut> {
        scratch.union.clear();
        let (la, lb) = (&ca.leaves, &cb.leaves);
        let (mut i, mut j) = (0, 0);
        while i < la.len() || j < lb.len() {
            match (la.get(i), lb.get(j)) {
                (Some(&x), Some(&y)) if x == y => {
                    scratch.union.push(x);
                    i += 1;
                    j += 1;
                }
                (Some(&x), Some(&y)) if x < y => {
                    scratch.union.push(x);
                    i += 1;
                }
                (Some(_), Some(_)) => {
                    scratch.union.push(lb[j]);
                    j += 1;
                }
                (Some(&x), None) => {
                    scratch.union.push(x);
                    i += 1;
                }
                (None, Some(&y)) => {
                    scratch.union.push(y);
                    j += 1;
                }
                (None, None) => break,
            }
            if scratch.union.len() > k {
                return None;
            }
        }
        let n = scratch.union.len();
        let union = &scratch.union;

        let mut pa = [0usize; MAX_TT_INPUTS];
        for (bit, l) in la.iter().enumerate() {
            pa[bit] = union.iter().position(|u| u == l).unwrap_or(0);
        }
        let mut pb = [0usize; MAX_TT_INPUTS];
        for (bit, l) in lb.iter().enumerate() {
            pb[bit] = union.iter().position(|u| u == l).unwrap_or(0);
        }

        let (ta, tb) = (ca.table.bits(), cb.table.bits());
        let table = TruthTable::from_fn(n, |r| {
            let mut ra = 0u64;
            for (bit, &p) in pa[..la.len()].iter().enumerate() {
                ra |= ((r >> p) & 1) << bit;
            }
            let mut rb = 0u64;
            for (bit, &p) in pb[..lb.len()].iter().enumerate() {
                rb |= ((r >> p) & 1) << bit;
            }
            !((ta >> ra) & 1 == 1 && (tb >> rb) & 1 == 1)
        });
        let mut leaves = scratch.take_leaves();
        leaves.extend_from_slice(&scratch.union);
        Some(Cut { leaves, table })
    }
}

/// xorshift64* — deterministic, dependency-free test randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A random graph over `inputs` primary inputs whose gates often pair
/// a node with one 64, 128 or 192 ids away, so cut leaves share
/// signature bits. The first gates pair inputs `i` and `i + 64`
/// directly; later fanins lean towards recent nodes for depth.
fn colliding_graph(rng: &mut Rng, inputs: usize, gates: usize) -> SubjectGraph {
    let mut g = SubjectGraph::new("alias");
    let mut nodes: Vec<SubjectNodeId> = (0..inputs).map(|i| g.add_input(format!("i{i}"))).collect();
    for i in 0..inputs.saturating_sub(64).min(16) {
        let n = g.nand2(nodes[i], nodes[i + 64]);
        nodes.push(n);
    }
    for _ in 0..gates {
        let len = nodes.len();
        let a = if rng.below(3) == 0 { rng.below(len) } else { len - 1 - rng.below(len.min(40)) };
        let n = match rng.below(5) {
            0 => g.inv(nodes[a]),
            1 | 2 => {
                let hop = 64 * (1 + rng.below(3));
                let b = if a >= hop { a - hop } else { (a + hop) % len };
                g.nand2(nodes[a], nodes[b])
            }
            _ => g.nand2(nodes[a], nodes[rng.below(len)]),
        };
        nodes.push(n);
    }
    // Outputs do not matter to enumeration; one keeps the graph valid.
    let out = *nodes.last().expect("graph has nodes");
    g.set_output("f", out);
    g
}

/// Runs both kernels over `g`, each on its own cut sets, and asserts
/// they agree at every node. Returns the whole-graph statistics.
fn compare_kernels(g: &SubjectGraph, config: &CutConfig, ctx: &str) -> CutStats {
    let mut new_sets: Vec<CutSet> = Vec::with_capacity(g.node_count());
    let mut ref_sets: Vec<CutSet> = Vec::with_capacity(g.node_count());
    let mut scratch = CutScratch::new();
    scratch.record_dominated = true;
    let mut ref_scratch = reference::CutScratch::default();
    ref_scratch.record_dominated = true;
    let mut stats = CutStats::default();
    for v in g.node_ids() {
        let (set, counts) = enumerate_node(g, v, &new_sets, config, &mut scratch);
        let (ref_set, ref_counts) =
            reference::enumerate_node(g, v, &ref_sets, config, &mut ref_scratch);
        assert_eq!(set, ref_set, "{ctx}: cut set of {v}");
        assert_eq!(counts, ref_counts, "{ctx}: counters of {v}");
        assert_eq!(scratch.dominated_log(), &ref_scratch.dominated_log[..], "{ctx}: log of {v}");
        stats.absorb(counts);
        new_sets.push(set);
        ref_sets.push(ref_set);
    }
    stats
}

#[test]
fn kernel_matches_reference_on_aliasing_graphs() {
    let mut rng = Rng(0x5197_a11a_5ed0_0064);
    let mut total = CutStats::default();
    for k in 2..=6 {
        for max_cuts in 1..=12 {
            let inputs = 96 + rng.below(140);
            let gates = 250 + rng.below(150);
            let g = colliding_graph(&mut rng, inputs, gates);
            let config = CutConfig { k, max_cuts };
            total.merge(&compare_kernels(&g, &config, &format!("k={k} max_cuts={max_cuts}")));
        }
    }
    // Every pruning path must actually have been exercised.
    assert!(total.pruned_width > 0 && total.pruned_dominated > 0 && total.pruned_overflow > 0);
}

#[test]
fn kernel_matches_reference_on_out_of_range_configs() {
    // k outside [2, 6] is clamped and max_cuts 0 reads as 1; a max_cuts
    // far past 255 must not overflow a fanin-cut index.
    let mut rng = Rng(0x00c0_ff16_0bad_0001);
    for (k, max_cuts) in [(0, 0), (1, 3), (9, 2), (6, 300), (64, 1000)] {
        let g = colliding_graph(&mut rng, 130, 220);
        compare_kernels(&g, &CutConfig { k, max_cuts }, &format!("k={k} max_cuts={max_cuts}"));
    }
    // An AND tree (NAND + inverter per level) over 16 inputs: its root
    // has over a thousand mutually non-dominating 6-cuts, so the
    // inverter above the last NAND and the NAND on top both index
    // fanin cuts far past 255.
    let mut g = SubjectGraph::new("and-tree");
    let mut level: Vec<SubjectNodeId> = (0..16).map(|i| g.add_input(format!("i{i}"))).collect();
    while level.len() > 1 {
        level = level
            .chunks(2)
            .map(|p| {
                let n = g.nand2(p[0], p[1]);
                g.inv(n)
            })
            .collect();
    }
    let x = g.add_input("x");
    let top = g.nand2(level[0], x);
    g.set_output("f", top);
    let stats = compare_kernels(&g, &CutConfig { k: 6, max_cuts: 1000 }, "and-tree");
    assert!(stats.max_per_node > 256, "largest set: {}", stats.max_per_node);
}

#[test]
fn signature_aliases_really_occur() {
    // Guard for the test above: some stored cut must hold two leaves
    // whose ids agree modulo 64, or the signature prefilters are never
    // contradicted by the exact checks.
    let mut rng = Rng(0x5197_a11a_5ed0_0064);
    let g = colliding_graph(&mut rng, 160, 300);
    let mut sets: Vec<CutSet> = Vec::new();
    let mut scratch = CutScratch::new();
    let mut aliased = 0;
    for v in g.node_ids() {
        let (set, _) = enumerate_node(&g, v, &sets, &CutConfig::default(), &mut scratch);
        aliased += set
            .cuts
            .iter()
            .filter(|c: &&Cut| {
                let sig = c.leaves.iter().fold(0u64, |s, l| s | 1 << (l.index() & 63));
                (sig.count_ones() as usize) < c.leaves.len()
            })
            .count();
        sets.push(set);
    }
    assert!(aliased > 0, "no stored cut aliases leaf signatures");
}

/// Row-loop embedding: variable `i` of `t` read at row bit `slots[i]`.
fn expand_rows(t: TruthTable, n: usize, slots: &[usize]) -> TruthTable {
    TruthTable::from_fn(n, |r| {
        let mut row = 0u64;
        for (bit, &p) in slots.iter().enumerate() {
            row |= ((r >> p) & 1) << bit;
        }
        (t.bits() >> row) & 1 == 1
    })
}

#[test]
fn expansion_matches_row_loop_on_every_sorted_embedding() {
    let mut rng = Rng(0xe4a1_d000_0000_0006);
    let mut embeddings = 0;
    for n in 0..=6usize {
        for mask in 0u32..(1 << n) {
            let slots: Vec<usize> = (0..n).filter(|&i| mask >> i & 1 == 1).collect();
            let m = slots.len();
            embeddings += 1;
            for _ in 0..16 {
                let t = TruthTable::new(m, rng.next()).expect("m <= 6");
                assert_eq!(
                    t.expand(n, &slots),
                    expand_rows(t, n, &slots),
                    "{t} into {slots:?}/{n}"
                );
            }
        }
    }
    // Σ_n 2^n embeddings of m ≤ n variables for n = 0..=6.
    assert_eq!(embeddings, 127);
}

#[test]
fn adjacent_swap_matches_row_loop() {
    let mut rng = Rng(0x5a4b_0000_0000_0001);
    for n in 2..=6usize {
        for j in 0..n - 1 {
            for _ in 0..64 {
                let t = TruthTable::new(n, rng.next()).expect("width");
                let slow = TruthTable::from_fn(n, |r| {
                    let (x, y) = ((r >> j) & 1, (r >> (j + 1)) & 1);
                    let row = (r & !(0b11 << j)) | (y << j) | (x << (j + 1));
                    (t.bits() >> row) & 1 == 1
                });
                assert_eq!(t.swap_adjacent(j), slow, "{t} swap {j}");
            }
        }
    }
}

/// Row-loop support test, the definition `depends_on` must agree with.
fn depends_rows(t: TruthTable, i: usize) -> bool {
    let stride = 1u64 << i;
    (0..1u64 << t.inputs())
        .filter(|row| row & stride == 0)
        .any(|row| (t.bits() >> row) & 1 != (t.bits() >> (row | stride)) & 1)
}

/// Row-loop restriction to `support`, other variables fixed to 0.
fn shrink_rows(t: TruthTable, support: &[usize]) -> TruthTable {
    TruthTable::from_fn(support.len(), |r| {
        let mut full = 0u64;
        for (bit, &i) in support.iter().enumerate() {
            full |= ((r >> bit) & 1) << i;
        }
        (t.bits() >> full) & 1 == 1
    })
}

fn check_support_kernels(t: TruthTable) {
    let n = t.inputs();
    for i in 0..n {
        assert_eq!(t.depends_on(i), depends_rows(t, i), "{t} var {i}");
    }
    for mask in 0u32..(1 << n) {
        let support: Vec<usize> = (0..n).filter(|&i| mask >> i & 1 == 1).collect();
        assert_eq!(t.shrink(&support), shrink_rows(t, &support), "{t} onto {support:?}");
    }
}

#[test]
fn support_kernels_match_row_loop_exhaustively_up_to_four_inputs() {
    for n in 1..=4usize {
        for bits in 0..1u64 << (1 << n) {
            check_support_kernels(TruthTable::new(n, bits).expect("width"));
        }
    }
}

#[test]
fn support_kernels_match_row_loop_on_random_wide_tables() {
    let mut rng = Rng(0xde9e_4d50_0000_0056);
    for n in [5usize, 6] {
        for _ in 0..10_000 {
            let mut bits = rng.next();
            // Sparse and dependency-poor tables too, not only dense ones.
            if rng.below(4) == 0 {
                let v = rng.below(n);
                let s = 1u32 << v;
                bits = (bits & neg_rows(v)) | ((bits & neg_rows(v)) << s);
            }
            check_support_kernels(TruthTable::new(n, bits).expect("width"));
        }
    }
}

/// Rows where variable `v` is clear.
fn neg_rows(v: usize) -> u64 {
    (0..64u64).filter(|r| r >> v & 1 == 0).fold(0, |m, r| m | 1 << r)
}
