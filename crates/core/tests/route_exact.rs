//! Bit-exact pins of every route-estimate figure.
//!
//! The `GOLDEN` table records all six `RouteFigures` fields — as raw
//! `f64` bit patterns where they are floating point — from the
//! sequential route estimate that predates the parallel one (per-channel
//! event lists, an allocating 1-Steiner loop, one-net-at-a-time congestion
//! deposit). The parallel estimate must reproduce each figure exactly at
//! any thread count. `stage_equiv`'s goldens pin `wire_length` and
//! `chip_area`; this table adds the channel-model area and the peak
//! congestion, which nothing else pins.
//!
//! `random-dag-1000` and `tree-adder-2000` place on congestion grids
//! taller than one deposit stripe, so the striped deposit splits.

use lily_cells::Library;
use lily_core::flow::{run_flow, FlowOptions, FlowResult};
use lily_netlist::Network;
use lily_route::congestion::STRIPE_ROWS;
use lily_workloads::{circuits, scale_circuit, ScaleFamily};

/// (circuit, flow, wire_length, instance_area, chip_area,
/// chip_area_channeled, peak_congestion, nets) — `f64` fields as
/// `to_bits()`.
type RouteRow = (&'static str, &'static str, u64, u64, u64, u64, u64, usize);

#[rustfmt::skip]
const GOLDEN: &[RouteRow] = &[
    ("misex1", "lily-area", 0x40c8dc73ec1581e4, 0x4103a10000000000, 0x410e8172b74968d4, 0x411a7fc000000000, 0x3fd0ba73dbc73192, 34),
    ("C432", "mis-delay", 0x4101df2c315e1da2, 0x412ecc6000000000, 0x413f0976ab3259ee, 0x4154e73628000000, 0x3fdb649901f9da59, 223),
    ("random-dag-1000", "cut-area", 0x414180ab6f39a1d9, 0x415bdf8c00000000, 0x4176487901526d9e, 0x41a10b00cfd05f42, 0x3ff14f82925d7667, 1824),
    ("tree-adder-2000", "lily-delay", 0x4148a508a0b42883, 0x4166b06600000000, 0x4180744d464ed1ba, 0x41a9acbb1a2e8ba3, 0x3ff1187279641c7a, 2800),
];

fn network(name: &str) -> Network {
    match name {
        "random-dag-1000" => scale_circuit(ScaleFamily::RandomDag, 1000, 7),
        "tree-adder-2000" => scale_circuit(ScaleFamily::TreeAdder, 2000, 3),
        _ => circuits::circuit(name),
    }
}

fn flow_setup(flow: &str) -> (FlowOptions, Library) {
    match flow {
        "lily-area" => (FlowOptions::lily_area(), Library::big()),
        "mis-delay" => (FlowOptions::mis_delay(), Library::big_1u()),
        "cut-area" => (FlowOptions::cut_area(), Library::big()),
        "lily-delay" => (FlowOptions::lily_delay(), Library::big_1u()),
        other => panic!("unknown flow {other}"),
    }
}

/// A lower bound on the congestion grid's row count: the vertical span
/// of the placed cells in row heights.
fn placed_rows(r: &FlowResult, lib: &Library) -> f64 {
    let ys = r.mapped.cells().iter().map(|c| c.position.1);
    let span = ys.clone().fold(f64::NEG_INFINITY, f64::max) - ys.fold(f64::INFINITY, f64::min);
    span / lib.technology().row_height
}

#[test]
fn route_figures_are_bit_exact_at_any_thread_count() {
    let runs: Vec<(Network, FlowOptions, Library)> = GOLDEN
        .iter()
        .map(|&(name, flow, ..)| {
            let (opts, lib) = flow_setup(flow);
            (network(name), opts, lib)
        })
        .collect();
    for threads in [1, 2, 8] {
        lily_par::set_threads(Some(threads));
        for (&(name, flow, wire, inst, chip, channeled, peak, nets), (net, opts, lib)) in
            GOLDEN.iter().zip(&runs)
        {
            let r = run_flow(net, lib, opts).expect("flow");
            let m = &r.metrics;
            let ctx = format!("{name}/{flow} at {threads} threads");
            assert_eq!(m.wire_length.to_bits(), wire, "{ctx}: wire_length");
            assert_eq!(m.instance_area.to_bits(), inst, "{ctx}: instance_area");
            assert_eq!(m.chip_area.to_bits(), chip, "{ctx}: chip_area");
            assert_eq!(m.chip_area_channeled.to_bits(), channeled, "{ctx}: chip_area_channeled");
            assert_eq!(m.peak_congestion.to_bits(), peak, "{ctx}: peak_congestion");
            let route = m.stages.get("route-estimate").expect("route-estimate stage recorded");
            assert_eq!(route.size, nets, "{ctx}: nets");
            if name.contains('-') {
                let rows = placed_rows(&r, lib);
                assert!(rows > STRIPE_ROWS as f64, "{ctx}: {rows} rows fit one deposit stripe");
            }
        }
    }
    lily_par::set_threads(None);
}
