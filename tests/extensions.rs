//! Integration tests of the beyond-the-paper extensions running
//! through the full flows: fanout buffering, annealing placement, the
//! double-drive library, genlib-loaded libraries, the global router and
//! the channeled area metric.

use lily::cells::mapped::equiv_mapped_subject;
use lily::cells::{genlib, Library};
use lily::core::flow::{DetailedPlacer, FlowOptions, PhysicalOptions};
use lily::netlist::decompose::{decompose, DecomposeOrder};
use lily::workloads::circuits;

#[test]
fn fanout_buffering_flow_is_equivalent_and_respects_limits() {
    let lib = Library::big();
    let net = circuits::circuit("b9");
    let g = decompose(&net, DecomposeOrder::Balanced).unwrap();
    let r = FlowOptions { fanout_limit: Some(5), ..FlowOptions::lily_area() }
        .run_subject(&g, &lib)
        .unwrap();
    assert!(equiv_mapped_subject(&g, &r.mapped, &lib, 128, 31));
    for netp in r.mapped.nets() {
        let total = netp.sinks.len() + netp.output_sinks.len();
        assert!(total <= 5, "net with {total} sinks survived buffering");
    }
}

#[test]
fn annealing_placer_flow_runs_and_is_deterministic() {
    let lib = Library::big();
    let net = circuits::circuit("misex1");
    let opts = FlowOptions {
        detailed_placer: DetailedPlacer::Anneal { seed: 7 },
        ..FlowOptions::mis_area()
    };
    let a = opts.run(&net, &lib).unwrap();
    let b = opts.run(&net, &lib).unwrap();
    assert!((a.wire_length - b.wire_length).abs() < 1e-9);
    assert!(a.wire_length > 0.0);
}

#[test]
fn sized_library_delay_flow_is_equivalent() {
    let lib = Library::big_sized();
    let net = circuits::circuit("misex1");
    let g = decompose(&net, DecomposeOrder::Balanced).unwrap();
    let r = FlowOptions::lily_delay().run_subject(&g, &lib).unwrap();
    assert!(equiv_mapped_subject(&g, &r.mapped, &lib, 128, 5));
}

#[test]
fn genlib_library_drives_the_full_flow() {
    let text = genlib::write(&Library::big());
    let lib = genlib::parse(&text, "roundtrip", *Library::big().technology()).unwrap();
    let net = circuits::circuit("misex1");
    let g = decompose(&net, DecomposeOrder::Balanced).unwrap();
    let r = FlowOptions::mis_area().run_subject(&g, &lib).unwrap();
    assert!(equiv_mapped_subject(&g, &r.mapped, &lib, 128, 11));
    // Identical library parameters must reproduce the built-in result.
    let builtin = FlowOptions::mis_area().run_subject(&g, &Library::big()).unwrap();
    assert_eq!(r.metrics.cells, builtin.metrics.cells);
    assert!((r.metrics.instance_area - builtin.metrics.instance_area).abs() < 1e-6);
}

#[test]
fn global_router_flow_measures_comparable_wire() {
    let lib = Library::big();
    let net = circuits::circuit("b9");
    let g = decompose(&net, DecomposeOrder::Balanced).unwrap();
    let base = FlowOptions::mis_area().run_subject(&g, &lib).unwrap().metrics;
    let routed = FlowOptions {
        physical: PhysicalOptions { global_router: true, ..PhysicalOptions::default() },
        ..FlowOptions::mis_area()
    }
    .run_subject(&g, &lib)
    .unwrap()
    .metrics;
    assert!(routed.wire_length > 0.0);
    // Same netlist, same placement: the two wire models must agree
    // within a factor of two (pattern routing vs Steiner + detour).
    let ratio = routed.wire_length / base.wire_length;
    assert!((0.5..=2.0).contains(&ratio), "wire models diverged: ratio {ratio}");
}

#[test]
fn channeled_area_metric_is_populated() {
    let lib = Library::big();
    let net = circuits::circuit("misex1");
    let m = FlowOptions::lily_area().run(&net, &lib).unwrap();
    assert!(m.chip_area_channeled > m.instance_area);
    assert!(m.chip_area_channeled_mm2() > 0.0);
}
