//! Regenerates the golden tables of `crates/check/tests/stage_equiv.rs`
//! (every headline flow metric as a raw `f64` bit pattern plus an FNV-1a
//! structural hash of the mapped netlist) and of
//! `crates/core/tests/cut_exact.rs` (an FNV-1a hash over every stored cut
//! plus the enumeration counters), and the multilevel pad/image hashes
//! of `crates/core/tests/placement_exact.rs`. Run after an *intentional*
//! numeric change and paste each block into its `GOLDEN` table.
#![allow(missing_docs)]

use lily::cells::Library;
use lily::core::flow::FlowOptions;
use lily::core::stage::{AssignPads, Decompose, SubjectPlace};
use lily::core::CutIndex;
use lily::core::FlowContext;
use lily::netlist::decompose::{decompose, DecomposeOrder};
use lily::netlist::{CutConfig, CutSet, Network};
use lily::place::Point;
use lily::workloads::{scale_circuit, ScaleFamily};

/// The golden circuits: the named seed circuits plus `random-dag-1000`,
/// a seeded 1000-node random DAG whose many overlapping output cones
/// exercise the covering DP's revisits, `random-dag-2000`, whose subject
/// graph crosses the multilevel placement threshold, and
/// `tree-adder-2000`, a deep, narrow prefix adder.
fn network(name: &str) -> Network {
    match name {
        "random-dag-1000" => scale_circuit(ScaleFamily::RandomDag, 1000, 7),
        "random-dag-2000" => scale_circuit(ScaleFamily::RandomDag, 2000, 7),
        "tree-adder-2000" => scale_circuit(ScaleFamily::TreeAdder, 2000, 3),
        _ => lily::workloads::circuits::circuit(name),
    }
}

/// FNV-1a over every stored cut in node order (the `cut_exact.rs` hash).
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

/// The `cut_exact.rs` rows: every golden circuit under four cut bounds.
fn cut_rows() {
    let configs = [
        CutConfig::default(),
        CutConfig { k: 3, max_cuts: 2 },
        CutConfig { k: 6, max_cuts: 1 },
        CutConfig { k: 4, max_cuts: 12 },
    ];
    for name in ["misex1", "C432", "random-dag-1000", "tree-adder-2000"] {
        let g = decompose(&network(name), DecomposeOrder::Balanced).unwrap();
        for config in &configs {
            let idx = CutIndex::build(&g, config).unwrap();
            let s = &idx.stats;
            println!(
                "(\"{name}\", {}, {}, {:#018x}, {}, {}, {}, {}, {}, {}),",
                config.k,
                config.max_cuts,
                sets_hash(&idx.sets),
                s.nodes,
                s.kept,
                s.pruned_width,
                s.pruned_dominated,
                s.pruned_overflow,
                s.max_per_node,
            );
        }
    }
}

fn main() {
    println!("// crates/check/tests/stage_equiv.rs");
    let structural: &[&str] = &["mis-area", "lily-area", "mis-delay", "lily-delay"];
    let cut: &[&str] = &["cut-area", "cut-delay"];
    let rows = [
        ("misex1", structural),
        ("b9", structural),
        ("9symml", structural),
        ("apex7", structural),
        ("C432", structural),
        ("misex1", cut),
        ("C432", cut),
        ("random-dag-1000", cut),
        ("random-dag-2000", &["cut-area"]),
    ];
    for (name, flows) in rows {
        let net = network(name);
        for &fname in flows {
            let (opts, lib) = match fname {
                "mis-area" => (FlowOptions::mis_area(), Library::big()),
                "lily-area" => (FlowOptions::lily_area(), Library::big()),
                "mis-delay" => (FlowOptions::mis_delay(), Library::big_1u()),
                "lily-delay" => (FlowOptions::lily_delay(), Library::big_1u()),
                "cut-area" => (FlowOptions::cut_area(), Library::big()),
                "cut-delay" => (FlowOptions::cut_delay(), Library::big_1u()),
                other => unreachable!("unknown flow {other}"),
            };
            let r = opts.run_detailed(&net, &lib).unwrap();
            let m = &r.metrics;
            // Structural hash of the mapped netlist: gates + positions.
            let mut h: u64 = 0xcbf29ce484222325;
            let mut mix = |x: u64| {
                h ^= x;
                h = h.wrapping_mul(0x100000001b3);
            };
            for c in r.mapped.cells() {
                mix(c.gate.index() as u64);
                mix(c.position.0.to_bits());
                mix(c.position.1.to_bits());
                for s in &c.fanins {
                    match *s {
                        lily::cells::SignalSource::Input(i) => mix(0x1000 + i as u64),
                        lily::cells::SignalSource::Cell(c) => mix(0x2000 + c.index() as u64),
                    }
                }
            }
            println!(
                "(\"{name}\", \"{fname}\", {}, {:#018x}, {:#018x}, {:#018x}, {:#018x}, {:#018x}),",
                m.cells,
                m.instance_area.to_bits(),
                m.chip_area.to_bits(),
                m.wire_length.to_bits(),
                m.critical_delay.to_bits(),
                h,
            );
        }
    }
    println!("// crates/core/tests/cut_exact.rs");
    cut_rows();
    println!("// crates/core/tests/placement_exact.rs");
    placement_hashes();
}

/// FNV-1a over the raw bits of a point list (the `placement_exact.rs`
/// hash).
fn points_hash(points: &[Point]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in points {
        for bits in [p.x.to_bits(), p.y.to_bits()] {
            h ^= bits;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The `placement_exact.rs` constants: the multilevel pad plan and
/// layout image of `random-dag-2000` under the cut-area flow.
fn placement_hashes() {
    let lib = Library::big();
    let mut ctx = FlowContext::new(&lib, FlowOptions::cut_area());
    let g = ctx.run(&Decompose, &network("random-dag-2000")).unwrap();
    let plan = ctx.run(&AssignPads, &*g).unwrap();
    let image = ctx.run(&SubjectPlace, (&*g, &plan)).unwrap();
    println!("const GOLDEN_PADS: u64 = {:#018x};", points_hash(plan.pads()));
    println!("const GOLDEN_IMAGE: u64 = {:#018x};", points_hash(&image.positions.unwrap()));
}
