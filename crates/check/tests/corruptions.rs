//! End-to-end corruption injection: run the real flow over bundled
//! workloads, corrupt each stage artifact through public APIs, and
//! assert that `lily-check` reports the exact diagnostic code — and
//! that the untouched artifacts report nothing at all.

use lily_cells::mapped::SignalSource;
use lily_cells::{CellId, GateId, Library, MappedNetwork};
use lily_check::{
    check_mapped, check_mapped_subject, check_network, check_network_subject, check_placement,
    check_subject, check_timing, Code, DEFAULT_SEED, DEFAULT_VECTORS,
};
use lily_core::flow::{FlowOptions, FlowResult};
use lily_netlist::decompose::{decompose, DecomposeOrder};
use lily_netlist::{SubjectGraph, SubjectNodeId};
use lily_place::{Point, Rect};
use lily_timing::{try_analyze, StaResult, WireLoad};

fn analyze(m: &MappedNetwork, lib: &Library) -> StaResult {
    try_analyze(m, lib, WireLoad::FromPlacement).expect("static timing analysis failed")
}

const VECTORS: usize = DEFAULT_VECTORS;

fn opts() -> FlowOptions {
    // Checkpoints off: these tests corrupt artifacts *after* the flow
    // and run the passes by hand.
    FlowOptions { verify: false, ..FlowOptions::lily_area() }
}

fn mapped_flow(name: &str) -> (SubjectGraph, FlowResult, Library) {
    let net = lily_workloads::circuits::circuit(name);
    let lib = Library::big();
    let g = decompose(&net, DecomposeOrder::Balanced).expect("decompose");
    let result = opts().run_subject(&g, &lib).expect("flow");
    (g, result, lib)
}

fn core_of(result: &FlowResult) -> Rect {
    let pads = result
        .mapped
        .input_positions
        .iter()
        .chain(result.mapped.output_positions.iter())
        .map(|&(x, y)| Point::new(x, y));
    Rect::bounding(pads).expect("pads")
}

// ---------------------------------------------------------------------
// Clean flows: every pass over every stage artifact reports nothing.
// ---------------------------------------------------------------------

#[test]
fn clean_flow_reports_zero_diagnostics() {
    for name in ["misex1", "b9", "apex7"] {
        let net = lily_workloads::circuits::circuit(name);
        let lib = Library::big();
        let g = decompose(&net, DecomposeOrder::Balanced).expect("decompose");
        let result = opts().run_subject(&g, &lib).expect("flow");
        let mapped = &result.mapped;

        let r = check_network(&net);
        assert!(r.is_clean(), "{name} network: {r}");
        let r = check_subject(&g);
        assert!(r.is_clean(), "{name} subject: {r}");
        let r = check_network_subject(&net, &g, VECTORS, DEFAULT_SEED);
        assert!(r.is_clean(), "{name} decompose-equiv: {r}");
        let r = check_mapped(mapped, &lib);
        assert!(r.is_clean(), "{name} mapped: {r}");
        let r = check_mapped_subject(&g, mapped, &lib, VECTORS, DEFAULT_SEED);
        assert!(r.is_clean(), "{name} cover-equiv: {r}");
        let r = check_placement(mapped, &lib, core_of(&result));
        assert!(r.is_clean(), "{name} placement: {r}");
        let sta = analyze(mapped, &lib);
        let r = check_timing(mapped, &sta);
        assert!(r.is_clean(), "{name} timing: {r}");
    }
}

#[test]
fn clean_flow_with_verify_checkpoints_succeeds() {
    for name in ["misex1", "b9"] {
        let net = lily_workloads::circuits::circuit(name);
        let lib = Library::big();
        let verified = FlowOptions { verify: true, ..FlowOptions::lily_area() };
        verified.run(&net, &lib).expect("verified flow");
        let verified = FlowOptions { verify: true, ..FlowOptions::mis_delay() };
        verified.run(&net, &lib).expect("verified flow");
    }
}

// ---------------------------------------------------------------------
// Subject-graph corruptions.
// ---------------------------------------------------------------------

#[test]
fn injected_cycle_is_sg001() {
    let net = lily_workloads::circuits::misex1();
    let mut g = decompose(&net, DecomposeOrder::Balanced).expect("decompose");
    // nand2 does not bounds-check operands: forge a forward reference,
    // which is how a cycle manifests in a creation-ordered arena.
    let a = g.inputs()[0];
    let forged = SubjectNodeId::from_index(g.node_count() + 1);
    let bad = g.nand2(a, forged);
    g.set_output("forged", bad);
    let r = check_subject(&g);
    assert!(r.has_code(Code::Sg001), "{r}");
    assert!(r.has_errors());
}

#[test]
fn injected_self_loop_is_sg001() {
    let net = lily_workloads::circuits::b9();
    let mut g = decompose(&net, DecomposeOrder::Balanced).expect("decompose");
    let this = SubjectNodeId::from_index(g.node_count());
    let looped = g.nand2(g.inputs()[0], this);
    g.set_output("looped", looped);
    let r = check_subject(&g);
    assert!(r.has_code(Code::Sg001), "{r}");
}

// ---------------------------------------------------------------------
// Mapped-netlist corruptions.
// ---------------------------------------------------------------------

#[test]
fn injected_mapped_cycle_is_map001() {
    let (_, mut result, lib) = mapped_flow("misex1");
    let mapped = &mut result.mapped;
    // Two cells reading each other.
    let n = mapped.cell_count();
    assert!(n >= 2);
    let a = CellId::from_index(n - 2);
    let b = CellId::from_index(n - 1);
    mapped.cells_mut()[n - 2].fanins[0] = SignalSource::Cell(b);
    mapped.cells_mut()[n - 1].fanins[0] = SignalSource::Cell(a);
    let r = check_mapped(mapped, &lib);
    assert!(r.has_code(Code::Map001), "{r}");
}

#[test]
fn injected_arity_violation_is_map002() {
    let (_, mut result, lib) = mapped_flow("misex1");
    let mapped = &mut result.mapped;
    mapped.cells_mut()[0].fanins.push(SignalSource::Input(0));
    let r = check_mapped(mapped, &lib);
    assert!(r.has_code(Code::Map002), "{r}");
}

#[test]
fn injected_unknown_gate_is_map004() {
    let (_, mut result, lib) = mapped_flow("misex1");
    let mapped = &mut result.mapped;
    mapped.cells_mut()[0].gate = GateId::from_index(lib.len() + 7);
    let r = check_mapped(mapped, &lib);
    assert!(r.has_code(Code::Map004), "{r}");
}

#[test]
fn injected_illegal_cover_is_map002_or_map004() {
    let (_, mut result, lib) = mapped_flow("b9");
    let mapped = &mut result.mapped;
    // Retarget a cell to a gate of different arity without fixing its
    // fanins: the cover no longer matches any library pattern.
    let victim = (0..mapped.cell_count())
        .find(|&i| {
            let g = mapped.cells()[i].gate;
            lib.gate(g).fanin() == 2
        })
        .expect("a 2-input cell");
    let inv = lib.inverter();
    mapped.cells_mut()[victim].gate = inv;
    let r = check_mapped(mapped, &lib);
    assert!(r.has_code(Code::Map002), "{r}");
}

#[test]
fn injected_nonequivalent_cover_is_eq002() {
    let (g, mut result, lib) = mapped_flow("misex1");
    let mapped = &mut result.mapped;
    // Swap two output drivers: structurally legal, functionally wrong.
    assert!(mapped.outputs.len() >= 2);
    let (a, b) = (mapped.outputs[0].1, mapped.outputs[1].1);
    assert_ne!(a, b, "need distinct drivers to corrupt");
    mapped.outputs[0].1 = b;
    mapped.outputs[1].1 = a;
    let r = check_mapped_subject(&g, mapped, &lib, VECTORS, DEFAULT_SEED);
    assert!(r.has_code(Code::Eq002), "{r}");
}

#[test]
fn injected_decompose_mismatch_is_eq001() {
    let net = lily_workloads::circuits::misex1();
    let g = decompose(&net, DecomposeOrder::Balanced).expect("decompose");
    // Check the subject graph of one circuit against a different network.
    let other = lily_workloads::circuits::b9();
    let r = check_network_subject(&other, &g, VECTORS, DEFAULT_SEED);
    assert!(r.has_code(Code::Eq001), "{r}");
}

// ---------------------------------------------------------------------
// Placement corruptions.
// ---------------------------------------------------------------------

#[test]
fn injected_overlap_is_pl002() {
    let (_, mut result, lib) = mapped_flow("misex1");
    let core = core_of(&result);
    let mapped = &mut result.mapped;
    // Pile two cells onto the same spot in the same row.
    let p = mapped.cells()[0].position;
    mapped.cells_mut()[1].position = p;
    let r = check_placement(mapped, &lib, core);
    assert!(r.has_code(Code::Pl002), "{r}");
}

#[test]
fn injected_escape_is_pl001() {
    let (_, mut result, lib) = mapped_flow("misex1");
    let core = core_of(&result);
    let mapped = &mut result.mapped;
    let y = mapped.cells()[0].position.1;
    mapped.cells_mut()[0].position = (core.urx + 500.0, y);
    let r = check_placement(mapped, &lib, core);
    assert!(r.has_code(Code::Pl001), "{r}");
}

#[test]
fn moved_pad_is_pl003() {
    let (_, mut result, lib) = mapped_flow("misex1");
    let core = core_of(&result);
    let mapped = &mut result.mapped;
    // Drag an input pad off the boundary into the interior.
    mapped.input_positions[0] = ((core.llx + core.urx) / 2.0, (core.lly + core.ury) / 2.0);
    let r = check_placement(mapped, &lib, core);
    assert!(r.has_code(Code::Pl003), "{r}");
}

// ---------------------------------------------------------------------
// Timing corruptions.
// ---------------------------------------------------------------------

#[test]
fn injected_stale_timing_is_tm004() {
    let (_, result, lib) = mapped_flow("misex1");
    let mapped = &result.mapped;
    let mut sta = analyze(mapped, &lib);
    sta.critical_delay += 1.0;
    let r = check_timing(mapped, &sta);
    assert!(r.has_code(Code::Tm004), "{r}");
}
