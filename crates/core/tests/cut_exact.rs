//! Bit-exact pins of priority-cut enumeration.
//!
//! The `GOLDEN` table records, per (circuit, `CutConfig`), an FNV-1a
//! hash over every stored cut — leaf ids, table input count and bits,
//! and the cut's position within its node's set — plus every
//! `CutStats` field. The values were taken from the enumeration kernel
//! that merged every candidate into a heap leaf vector and a row-loop
//! truth table before pruning. The signature-filtered kernel must
//! reproduce each row exactly at any thread count.
//!
//! Regenerate with `cargo run --release --example golden_dump`.

use lily_core::CutIndex;
use lily_netlist::decompose::{decompose, DecomposeOrder};
use lily_netlist::{CutConfig, CutSet, Network, SubjectGraph};
use lily_workloads::{circuits, scale_circuit, ScaleFamily};

/// (circuit, k, max_cuts, set hash, nodes, kept, pruned_width,
/// pruned_dominated, pruned_overflow, max_per_node).
type CutRow = (&'static str, usize, usize, u64, usize, usize, usize, usize, usize, usize);

#[rustfmt::skip]
const GOLDEN: &[CutRow] = &[
    ("misex1", 6, 8, 0x3f48cbb31c090c65, 82, 603, 45, 326, 1453, 9),
    ("misex1", 3, 2, 0x9c5b857191cabf94, 82, 225, 44, 6, 188, 3),
    ("misex1", 6, 1, 0xb7f7063b9af60066, 82, 156, 0, 1, 128, 2),
    ("misex1", 4, 12, 0xeca2b30b2cbc9287, 82, 835, 2812, 51, 899, 13),
    ("C432", 6, 8, 0x61d58531c0da1818, 338, 2554, 128, 767, 7547, 9),
    ("C432", 3, 2, 0xaeb4ad10262d2752, 338, 922, 213, 27, 818, 3),
    ("C432", 6, 1, 0xc3cd4a76425c5de3, 338, 640, 0, 0, 566, 2),
    ("C432", 4, 12, 0xabbe22f68ef86af1, 338, 3601, 13554, 282, 3916, 13),
    ("random-dag-1000", 6, 8, 0xf09a97f9801377fd, 3723, 31302, 4131, 8975, 115207, 9),
    ("random-dag-1000", 3, 2, 0xc460915d06401266, 3723, 10757, 3719, 509, 10170, 3),
    ("random-dag-1000", 6, 1, 0xffca1a820e90d512, 3723, 7288, 0, 3, 7216, 2),
    ("random-dag-1000", 4, 12, 0x23153ccc03f083b5, 3723, 44612, 218156, 4994, 49688, 13),
    ("tree-adder-2000", 6, 8, 0x4a588a574cd8e512, 3639, 26994, 5979, 6955, 90801, 9),
    ("tree-adder-2000", 3, 2, 0x098a1d278e93d913, 3639, 10266, 3542, 738, 9431, 3),
    ("tree-adder-2000", 6, 1, 0xa208b3b62042323f, 3639, 7092, 0, 0, 6872, 2),
    ("tree-adder-2000", 4, 12, 0xdd772440ac1bf123, 3639, 37558, 176750, 3213, 33804, 13),
];

fn network(name: &str) -> Network {
    match name {
        "random-dag-1000" => scale_circuit(ScaleFamily::RandomDag, 1000, 7),
        "tree-adder-2000" => scale_circuit(ScaleFamily::TreeAdder, 2000, 3),
        _ => circuits::circuit(name),
    }
}

/// FNV-1a over every stored cut in node order, set lengths included so
/// a cut moving between sets changes the hash.
fn sets_hash(sets: &[CutSet]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for set in sets {
        mix(set.cuts.len() as u64);
        for cut in &set.cuts {
            mix(cut.leaves.len() as u64);
            for l in &cut.leaves {
                mix(l.index() as u64);
            }
            mix(cut.table.inputs() as u64);
            mix(cut.table.bits());
        }
    }
    h
}

#[test]
fn cut_sets_are_bit_exact_at_any_thread_count() {
    assert_eq!(GOLDEN.len(), 16, "four circuits by four configs");
    let graphs: Vec<(&str, SubjectGraph)> =
        ["misex1", "C432", "random-dag-1000", "tree-adder-2000"]
            .into_iter()
            .map(|name| {
                (name, decompose(&network(name), DecomposeOrder::Balanced).expect("decompose"))
            })
            .collect();
    for threads in [1, 2, 8] {
        lily_par::set_threads(Some(threads));
        for &(name, k, max_cuts, hash, nodes, kept, width, dominated, overflow, max_per_node) in
            GOLDEN
        {
            let g = &graphs.iter().find(|(n, _)| *n == name).expect("golden circuit").1;
            let idx = CutIndex::build(g, &CutConfig { k, max_cuts }).expect("enumerate");
            let s = &idx.stats;
            let ctx = format!("{name} k={k} max_cuts={max_cuts} at {threads} threads");
            assert_eq!(sets_hash(&idx.sets), hash, "{ctx}: cut sets");
            assert_eq!(s.nodes, nodes, "{ctx}: nodes");
            assert_eq!(s.kept, kept, "{ctx}: kept");
            assert_eq!(s.pruned_width, width, "{ctx}: pruned_width");
            assert_eq!(s.pruned_dominated, dominated, "{ctx}: pruned_dominated");
            assert_eq!(s.pruned_overflow, overflow, "{ctx}: pruned_overflow");
            assert_eq!(s.max_per_node, max_per_node, "{ctx}: max_per_node");
        }
    }
    lily_par::set_threads(None);
}
