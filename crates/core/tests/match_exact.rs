//! Bit-exact pins of structural match enumeration.
//!
//! The `GOLDEN` table records, per (circuit, library), an FNV-1a hash
//! over the whole structural match index — per node the match count,
//! then each match's gate, inputs and covered list in order — plus
//! `MatchIndex::total`. The values were taken from the enumerator that
//! stored every match as its own pair of heap vectors and collected the
//! left bindings of each NAND2 pattern eagerly. Any storage or
//! enumeration change must reproduce each row exactly at any thread
//! count.

use lily_cells::Library;
use lily_core::MatchIndex;
use lily_netlist::decompose::{decompose, DecomposeOrder};
use lily_netlist::{Network, SubjectGraph};
use lily_workloads::{circuits, scale_circuit, ScaleFamily};

/// (circuit, library, index hash, total matches).
type MatchRow = (&'static str, &'static str, u64, usize);

#[rustfmt::skip]
const GOLDEN: &[MatchRow] = &[
    ("misex1", "big", 0x0726318e2c1eb7e4, 2500),
    ("C432", "big", 0xb2fd79f3774c397a, 7607),
    ("C5315", "big", 0xef503c23aaac4e4c, 47948),
    ("random-dag-2000", "big", 0xeec6a545d1ae1a99, 235183),
    ("C432", "big_1u", 0xb2fd79f3774c397a, 7607),
];

fn network(name: &str) -> Network {
    match name {
        "random-dag-2000" => scale_circuit(ScaleFamily::RandomDag, 2000, 7),
        _ => circuits::circuit(name),
    }
}

fn library(name: &str) -> Library {
    match name {
        "big_1u" => Library::big_1u(),
        _ => Library::big(),
    }
}

/// FNV-1a over every node's match list in node order, list and slice
/// lengths included so a match moving between nodes, or a node moving
/// between a match's inputs and its covered list, changes the hash.
fn index_hash(g: &SubjectGraph, idx: &MatchIndex) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for v in g.node_ids() {
        mix(idx.at(v).len() as u64);
        for m in idx.at(v) {
            mix(m.gate.index() as u64);
            mix(m.inputs.len() as u64);
            for i in m.inputs.iter() {
                mix(i.index() as u64);
            }
            mix(m.covered.len() as u64);
            for c in m.covered.iter() {
                mix(c.index() as u64);
            }
        }
    }
    h
}

#[test]
fn match_index_is_bit_exact_at_any_thread_count() {
    assert_eq!(GOLDEN.len(), 5, "four circuits on big, one on big_1u");
    let graphs: Vec<(&str, SubjectGraph)> = ["misex1", "C432", "C5315", "random-dag-2000"]
        .into_iter()
        .map(|name| (name, decompose(&network(name), DecomposeOrder::Balanced).expect("decompose")))
        .collect();
    let libs = [("big", library("big")), ("big_1u", library("big_1u"))];
    for threads in [1, 2, 8] {
        lily_par::set_threads(Some(threads));
        for &(name, lib_name, hash, total) in GOLDEN {
            let g = &graphs.iter().find(|(n, _)| *n == name).expect("golden circuit").1;
            let lib = &libs.iter().find(|(n, _)| *n == lib_name).expect("golden library").1;
            let idx = MatchIndex::build(g, lib).expect("match");
            let ctx = format!("{name} on {lib_name} at {threads} threads");
            assert_eq!(
                (index_hash(g, &idx), idx.total()),
                (hash, total),
                "{ctx}: (hash, total); row ({name:?}, {lib_name:?}, {:#018x}, {})",
                index_hash(g, &idx),
                idx.total()
            );
        }
    }
    lily_par::set_threads(None);
}
