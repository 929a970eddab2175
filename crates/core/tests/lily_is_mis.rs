//! The paper's central claim as an oracle: Lily is the MIS covering DP
//! plus a wire term. With the wire weight at zero and cone ordering off
//! (MIS covers cones in output order), Lily's area mode must choose
//! exactly MIS's cover: the same cells, gate by gate and fanin by fanin.

use lily_cells::Library;
use lily_core::{LayoutOptions, LilyMapper, MisMapper};
use lily_netlist::decompose::{decompose, DecomposeOrder};
use lily_netlist::Network;
use lily_place::Point;
use lily_workloads::{circuits, scale_circuit, ScaleFamily};

fn assert_same_cover(name: &str, net: &Network, lib: &Library) {
    let g = decompose(net, DecomposeOrder::Balanced).expect("decompose");
    // Any placement will do: a zero wire weight makes it irrelevant.
    let place: Vec<Point> = (0..g.node_count())
        .map(|i| Point::new((i % 64) as f64 * 40.0, (i / 64) as f64 * 40.0))
        .collect();
    let pads: Vec<Point> =
        (0..g.outputs().len()).map(|i| Point::new(3000.0, i as f64 * 30.0)).collect();
    let mis = MisMapper::new(lib).map(&g).expect("mis");
    let lily = LilyMapper::new(lib)
        .layout(LayoutOptions {
            wire_weight: 0.0,
            cone_ordering: false,
            ..LayoutOptions::default()
        })
        .map(&g, &place, &pads)
        .expect("lily");
    let (m, l) = (mis.mapped.cells(), lily.mapped.cells());
    assert_eq!(m.len(), l.len(), "{name}: cell count");
    for (i, (a, b)) in m.iter().zip(l).enumerate() {
        assert_eq!((a.gate, &a.fanins), (b.gate, &b.fanins), "{name}: cell {i}");
    }
}

#[test]
fn zero_wire_lily_chooses_the_mis_cover_cell_by_cell() {
    let lib = Library::big();
    for spec in &circuits::SPECS {
        assert_same_cover(spec.name, &circuits::circuit(spec.name), &lib);
    }
    assert_same_cover("random-dag-2000", &scale_circuit(ScaleFamily::RandomDag, 2000, 7), &lib);
}
