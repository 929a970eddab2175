//! The incremental covering DP's counters: overlapping cones reuse
//! stored solutions, the tree partition (one visit per node) never
//! does, and the counts — like the placed covers — are a deterministic
//! function of the input at 1, 2 and 8 threads.

use std::sync::{Mutex, PoisonError};

use lily_cells::{Library, SignalSource};
use lily_core::flow::FlowOptions;
use lily_core::PositionUpdate;
use lily_core::{CutMapper, LayoutOptions, LilyMapper, MapMode, MapResult, MapStats, Partition};
use lily_netlist::decompose::{decompose, DecomposeOrder};
use lily_netlist::{Network, SubjectGraph, SubjectKind};
use lily_place::Point;
use lily_route::WireModel;
use lily_workloads::{circuits, scale_circuit, ScaleFamily};

/// `lily_par::set_threads` is process-wide, so the two tests that
/// sweep the thread count take turns on this lock.
static THREAD_SWEEP: Mutex<()> = Mutex::new(());

fn flows() -> [(&'static str, FlowOptions, Library); 4] {
    [
        ("mis-area", FlowOptions::mis_area(), Library::big()),
        ("lily-area", FlowOptions::lily_area(), Library::big()),
        ("lily-delay", FlowOptions::lily_delay(), Library::big_1u()),
        ("cut-area", FlowOptions::cut_area(), Library::big()),
    ]
}

fn stats(net: &Network, opts: &FlowOptions, lib: &Library) -> MapStats {
    opts.run(net, lib).expect("flow").stats
}

#[test]
fn overlapping_cones_reuse_stored_solutions() {
    let net = circuits::circuit("C432");
    for (flow, opts, lib) in flows() {
        let s = stats(&net, &opts, &lib);
        assert!(s.scopes > 1, "{flow}: C432 should have many cones");
        assert!(s.dp_solves > 0, "{flow}: nothing solved");
        assert!(s.dp_reused > 0, "{flow}: no solution reused across cones");
    }
}

#[test]
fn tree_partition_solves_every_node_exactly_once() {
    let net = circuits::circuit("C432");
    for (flow, opts, lib) in flows() {
        let opts = FlowOptions { partition: Partition::Trees, ..opts };
        let g = decompose(&net, DecomposeOrder::Balanced).expect("decompose");
        let internal = g.node_ids().filter(|&v| !matches!(g.kind(v), SubjectKind::Input(_)));
        let s = stats(&net, &opts, &lib);
        assert_eq!(s.dp_reused, 0, "{flow}: trees never revisit a node");
        assert_eq!(s.dp_solves, internal.count(), "{flow}: one solve per internal node");
    }
}

#[test]
fn dp_counters_are_identical_at_any_thread_count() {
    let _sweep = THREAD_SWEEP.lock().unwrap_or_else(PoisonError::into_inner);
    let net = scale_circuit(ScaleFamily::RandomDag, 300, 3);
    for (flow, opts, lib) in flows() {
        lily_par::set_threads(Some(1));
        let base = stats(&net, &opts, &lib);
        assert!(base.dp_reused > 0, "{flow}");
        for threads in [2, 8] {
            lily_par::set_threads(Some(threads));
            assert_eq!(stats(&net, &opts, &lib), base, "{flow} at {threads} threads");
        }
    }
    lily_par::set_threads(None);
}

/// FNV-1a over the mapped cells (gate, position, fanins) and the
/// life-cycle, scope and ordering statistics.
fn cover_hash(r: &MapResult) -> u64 {
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
                SignalSource::Input(i) => mix(0x1000 + i as u64),
                SignalSource::Cell(c) => mix(0x2000 + c.index() as u64),
            }
        }
    }
    let l = r.stats.lifecycle;
    let ordering = r.stats.ordering_cost.unwrap_or(9999);
    for x in [l.hatched, l.doves, l.hawks, l.reincarnations, r.stats.scopes, ordering] {
        mix(x as u64);
    }
    h
}

/// A random DAG of `nodes` nodes (seed 1), decomposed, with a
/// deterministic scattered placement and a column of output pads.
fn placed_subject(nodes: usize) -> (SubjectGraph, Vec<Point>, Vec<Point>) {
    let net = scale_circuit(ScaleFamily::RandomDag, nodes, 1);
    let g = decompose(&net, DecomposeOrder::Balanced).expect("decompose");
    let place: Vec<Point> = (0..g.node_count())
        .map(|i| Point::new(((i * 37) % 23) as f64 * 50.0, ((i * 11) % 19) as f64 * 50.0))
        .collect();
    let pads: Vec<Point> =
        (0..g.outputs().len()).map(|i| Point::new(1200.0, i as f64 * 30.0)).collect();
    (g, place, pads)
}

#[test]
fn placed_covers_match_the_full_resolve_recordings() {
    // Hashes recorded with the covering DP re-solving every visited
    // node. Delay mode reads the unmapped-fanout load of the node itself,
    // so these configurations fail if a commit stops invalidating the
    // fanins of the nodes it changes.
    let (g, place, pads) = placed_subject(400);
    let (big, big_1u) = (Library::big(), Library::big_1u());
    let layout = |position_update, wire_model, cone_ordering| LayoutOptions {
        wire_weight: 2.0,
        wire_model,
        position_update,
        cone_ordering,
    };
    let lily = |lib, mode, lay| LilyMapper::new(lib).mode(mode).layout(lay).map(&g, &place, &pads);
    let steiner = WireModel::HalfPerimeterSteiner;
    let _sweep = THREAD_SWEEP.lock().unwrap_or_else(PoisonError::into_inner);
    for threads in [1, 2, 8] {
        lily_par::set_threads(Some(threads));
        let cases: [(&str, Result<MapResult, _>, u64); 8] = [
            (
                "lily area",
                lily(&big, MapMode::Area, layout(PositionUpdate::CmFans, steiner, true)),
                0x5895225b652a394d,
            ),
            (
                "lily area, merged",
                lily(&big, MapMode::Area, layout(PositionUpdate::CmMerged, steiner, true)),
                0xb58997365af72008,
            ),
            (
                "lily area, median, spanning tree",
                lily(
                    &big,
                    MapMode::Area,
                    layout(PositionUpdate::MedianFans, WireModel::SpanningTree, true),
                ),
                0xdb2625d43c360c85,
            ),
            (
                "lily delay",
                lily(&big_1u, MapMode::Delay, layout(PositionUpdate::CmFans, steiner, true)),
                0x02bab91b7090a79f,
            ),
            (
                "lily delay, output order",
                lily(&big_1u, MapMode::Delay, layout(PositionUpdate::CmFans, steiner, false)),
                0x5703381b97df4b04,
            ),
            (
                "lily delay, median, spanning tree",
                lily(
                    &big_1u,
                    MapMode::Delay,
                    layout(PositionUpdate::MedianFans, WireModel::SpanningTree, true),
                ),
                0x245e21f4413aff29,
            ),
            ("cut area", CutMapper::new(&big).map(&g, &place, &pads), 0x4d6538b777ac02ca),
            (
                "cut delay",
                CutMapper::new(&big_1u).mode(MapMode::Delay).map(&g, &place, &pads),
                0x53fec9dd003660a3,
            ),
        ];
        for (what, r, want) in cases {
            let r = r.expect("map");
            assert!(r.stats.dp_reused > 0, "{what}: no reuse exercised");
            assert_eq!(
                cover_hash(&r),
                want,
                "{what} at {threads} threads: cover differs from the full re-solve"
            );
        }
    }
    lily_par::set_threads(None);
}
