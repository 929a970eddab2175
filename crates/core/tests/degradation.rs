//! Forced-degradation tests: each rung of the flow's
//! graceful-degradation ladder is exercised by a pathological input or
//! configuration, and the test asserts (a) the exact audit-trail entry
//! recorded in `FlowMetrics::degradations`, and (b) that the flow still
//! produces a valid mapped netlist (clean `lily-check` reports, finite
//! metrics).

use lily_cells::{GateKind, Library, Technology};
use lily_core::flow::{FlowOptions, FlowResult, PhysicalOptions};
use lily_netlist::decompose::{decompose, DecomposeOrder};
use lily_netlist::{Network, NodeFunc};
use lily_workloads::structured::flow_fixture as sample_network;

/// The result must still be a well-formed, functionally correct mapped
/// netlist despite the degradation.
fn assert_still_valid(net: &Network, lib: &Library, r: &FlowResult) {
    let g = decompose(net, DecomposeOrder::Balanced).unwrap();
    assert!(!lily_check::check_mapped(&r.mapped, lib).has_errors());
    assert!(!lily_check::check_mapped_subject(
        &g,
        &r.mapped,
        lib,
        lily_check::DEFAULT_VECTORS,
        lily_check::DEFAULT_SEED
    )
    .has_errors());
    assert!(r.metrics.cells > 0);
    assert!(r.metrics.instance_area.is_finite() && r.metrics.instance_area > 0.0);
    assert!(r.metrics.wire_length.is_finite());
    assert!(r.metrics.critical_delay.is_finite());
}

#[test]
fn degenerate_layout_image_falls_back_to_mis_mapper() {
    let lib = Library::big();
    let net = sample_network();
    // A non-finite grids-per-gate estimate poisons the pre-mapping
    // layout image, so Lily's global placement cannot run.
    let opts = FlowOptions {
        physical: PhysicalOptions { grids_per_base_gate: f64::NAN, ..PhysicalOptions::default() },
        ..FlowOptions::lily_area()
    };
    let r = opts.run_detailed(&net, &lib).unwrap();
    let d = &r.metrics.degradations;
    assert_eq!(d.len(), 1, "expected exactly one degradation, got {d:?}");
    assert_eq!(d[0].stage, "lily-global-place");
    assert_eq!(d[0].fallback, "mis-mapper");
    assert!(d[0].detail.contains("non-finite"), "detail: {}", d[0].detail);
    assert_still_valid(&net, &lib, &r);
}

#[test]
fn oversized_detailed_place_ships_legalized_rows() {
    let lib = Library::big();
    let net = sample_network();
    // A ceiling of zero forces the skip on any circuit; the flow must
    // ship the legalized rows with an audited degradation.
    let opts = FlowOptions {
        physical: PhysicalOptions { detailed_place_max_cells: 0, ..PhysicalOptions::default() },
        ..FlowOptions::lily_area()
    };
    let r = opts.run_detailed(&net, &lib).unwrap();
    let d = &r.metrics.degradations;
    assert_eq!(d.len(), 1, "expected exactly one degradation, got {d:?}");
    assert_eq!((d[0].stage, d[0].fallback), ("detailed-place", "legalized-only"));
    assert!(d[0].detail.contains("improvement ceiling"), "detail: {}", d[0].detail);
    assert_still_valid(&net, &lib, &r);
}

#[test]
fn oversized_cone_partition_demotes_to_trees() {
    let lib = Library::big();
    let net = sample_network();
    // A ceiling of zero demotes cones to maximal trees on any circuit;
    // the flow must still complete with an audited degradation.
    let opts = FlowOptions {
        physical: PhysicalOptions { cone_partition_max_nodes: 0, ..PhysicalOptions::default() },
        ..FlowOptions::cut_area()
    };
    let r = opts.run_detailed(&net, &lib).unwrap();
    let d = &r.metrics.degradations;
    assert_eq!(d.len(), 1, "expected exactly one degradation, got {d:?}");
    assert_eq!((d[0].stage, d[0].fallback), ("map", "tree-partition"));
    assert!(d[0].detail.contains("cone-partition ceiling"), "detail: {}", d[0].detail);
    // The demoted run must equal an explicitly tree-partitioned one.
    let explicit =
        FlowOptions { partition: lily_core::Partition::Trees, ..FlowOptions::cut_area() };
    let e = explicit.run_detailed(&net, &lib).unwrap();
    assert_eq!(r.metrics.cells, e.metrics.cells);
    assert_eq!(r.metrics.wire_length.to_bits(), e.metrics.wire_length.to_bits());
    assert_still_valid(&net, &lib, &r);
}

#[test]
fn overflowing_wire_load_falls_back_to_per_fanout() {
    // Astronomical interconnect capacitance makes every placement-derived
    // wire load infinite; the per-fanout model stays finite.
    let tech = Technology { cap_h: f64::MAX, cap_v: f64::MAX, ..Technology::mcnc_3u() };
    let lib = Library::from_kinds(
        "hot-wires",
        &[GateKind::Inv, GateKind::Nand(2), GateKind::Nand(3), GateKind::Nor(2)],
        tech,
    );
    let net = sample_network();
    let opts = FlowOptions::mis_area();
    let r = opts.run_detailed(&net, &lib).unwrap();
    let d = &r.metrics.degradations;
    assert_eq!(d.len(), 1, "expected exactly one degradation, got {d:?}");
    assert_eq!(d[0].stage, "wire-load");
    assert_eq!(d[0].fallback, "per-fanout");
    assert!(d[0].detail.contains("non-finite"), "detail: {}", d[0].detail);
    // The netlist stays functionally correct and the metrics finite.
    // (`check_mapped`'s load identity is rightly unhappy with this
    // library — its placement-aware loads are infinite by construction —
    // so only the simulation-based equivalence check applies here.)
    let g = decompose(&net, DecomposeOrder::Balanced).unwrap();
    assert!(lily_cells::mapped::equiv_mapped_subject(&g, &r.mapped, &lib, 128, 21));
    assert!(r.metrics.critical_delay.is_finite() && r.metrics.critical_delay > 0.0);
}

#[test]
fn clean_runs_record_no_degradations() {
    let lib = Library::big();
    let net = sample_network();
    for opts in [FlowOptions::mis_area(), FlowOptions::lily_area(), FlowOptions::lily_delay()] {
        let r = opts.run_detailed(&net, &lib).unwrap();
        assert!(r.metrics.degradations.is_empty(), "unexpected: {:?}", r.metrics.degradations);
    }
}

#[test]
fn empty_subject_graph_short_circuits() {
    // Outputs wired straight to inputs: zero base gates, zero metrics.
    let mut net = Network::new("wires-only");
    let a = net.add_input("a");
    let b = net.add_input("b");
    net.add_output("ya", a);
    net.add_output("yb", b);
    let lib = Library::big();
    let r = FlowOptions::lily_area().run_detailed(&net, &lib).unwrap();
    assert_eq!(r.metrics.cells, 0);
    assert_eq!(r.metrics.instance_area, 0.0);
    assert_eq!(r.metrics.critical_delay, 0.0);
    assert!(r.metrics.degradations.is_empty());
    assert_eq!(r.mapped.outputs.len(), 2);
}

#[test]
fn no_outputs_is_a_degenerate_input_error() {
    let mut net = Network::new("no-outputs");
    let a = net.add_input("a");
    let _ = net.add_node("g", NodeFunc::Inv, vec![a]).unwrap();
    let g = decompose(&net, DecomposeOrder::Balanced);
    assert!(
        matches!(g, Err(lily_netlist::NetlistError::Degenerate { .. })),
        "decompose should reject an output-less network: {g:?}"
    );
}
