//! Bit-exact equivalence of the stage-graph flow engine against the
//! pre-refactor monolithic flow.
//!
//! The `GOLDEN` table below was produced by running the pre-refactor
//! `flow.rs` (commit `c81dc3b`) over the seed workloads and recording
//! every headline metric as its raw `f64` bit pattern plus an FNV-1a
//! structural hash of the mapped netlist (gates, positions, fanins).
//! The stage-graph engine must reproduce each number exactly — not
//! within a tolerance — so any accidental reordering of floating-point
//! work inside a stage shows up as a failure here.
//!
//! The `cut-area` / `cut-delay` rows were recorded with the covering DP
//! still re-solving every cone member on every visit, before it became
//! incremental; they pin the cut mapper's DP path to that oracle,
//! including on the heavily overlapping cones of `random-dag-1000`.
//!
//! `random-dag-2000` is the one row whose subject graph (7 437 movable
//! nodes) crosses `multilevel_threshold`, so it pins the clustered
//! multilevel pad ordering and subject placement as well.
//!
//! Regenerate with `cargo run --example golden_dump` after an
//! *intentional* numeric change.

use lily_cells::{Library, MappedNetwork, SignalSource};
use lily_core::flow::{compare_flows, run_flow, FlowOptions};
use lily_netlist::Network;
use lily_workloads::{circuits, scale_circuit, ScaleFamily};

/// (circuit, flow, cells, instance_area, chip_area, wire_length,
/// critical_delay, structural hash) — `f64` fields as `to_bits()`.
type GoldenRow = (&'static str, &'static str, usize, u64, u64, u64, u64, u64);

#[rustfmt::skip]
const GOLDEN: &[GoldenRow] = &[
    ("misex1", "mis-area", 29, 0x4103ec0000000000, 0x410e423f06fb0054, 0x40c7a0900ff4930a, 0x40400181047d3230, 0x8134e24fbabfde4a),
    ("misex1", "lily-area", 28, 0x4103a10000000000, 0x410e8172b74968d4, 0x40c8dc73ec1581e4, 0x403eed5a2f34eb01, 0x3ff8a72a19894601),
    ("misex1", "mis-delay", 41, 0x410b648000000000, 0x4115d0cd9390ebba, 0x40d28efa75dd8884, 0x401367b6faad9a52, 0xb6f3c7b2961b790f),
    ("misex1", "lily-delay", 41, 0x410a130000000000, 0x4114852d8d558b1e, 0x40d11ab1430cabb3, 0x40127b14ffbfd67e, 0x4c55673217ad367a),
    ("b9", "mis-area", 70, 0x4117700000000000, 0x41261265f0680d5b, 0x40e7aa0d9336f9f4, 0x4041a9c9ec91e487, 0x95dff346d96ae368),
    ("b9", "lily-area", 63, 0x41145c8000000000, 0x412412af78bcc1ac, 0x40e69c6c81af7188, 0x40429c61ed6ae4a6, 0xfcdc4d303437bba0),
    ("b9", "mis-delay", 127, 0x41242da000000000, 0x413407659ee642e6, 0x40f6b8316b32e20d, 0x401847095d948fab, 0x314c965a2eaa1e9e),
    ("b9", "lily-delay", 129, 0x4124370000000000, 0x41347d0fd6643a78, 0x40f7ba6d57c085a3, 0x40171e96e06bb067, 0xbdf909d6f6fb764d),
    ("9symml", "mis-area", 34, 0x41037b8000000000, 0x410b9c826b8fb2d4, 0x40c29497d148742e, 0x402ce7f1af9ee7d7, 0xa78799f834a2fbce),
    ("9symml", "lily-area", 34, 0x41037b8000000000, 0x410bf180135524ee, 0x40c356db99e72fd8, 0x402d0a6eef7be8cd, 0x1ae4fe4f509575c3),
    ("9symml", "mis-delay", 47, 0x410bfa8000000000, 0x4114f3e1ad9b1873, 0x40cfd52c3e32b8ea, 0x400efb3429857e00, 0x43f0554a992545cd),
    ("9symml", "lily-delay", 46, 0x410b3f0000000000, 0x41141df48facd126, 0x40cdafcbb55f29d0, 0x400ed532e0959d75, 0x21da364a12852e74),
    ("apex7", "mis-area", 131, 0x41242da000000000, 0x41347e937c5cdd60, 0x40f7c89a40d44325, 0x40472b3e81978b3b, 0x5659e266cde85c19),
    ("apex7", "lily-area", 118, 0x4121fb2000000000, 0x4131ecbe08e6a4f4, 0x40f46bd6efc60b53, 0x40441577519e6a04, 0xd9d064b68c099e12),
    ("apex7", "mis-delay", 215, 0x413110c000000000, 0x414175d32dafd700, 0x410467e2b191eb6e, 0x401f2891c0c263a4, 0xd18e181729b418e8),
    ("apex7", "lily-delay", 203, 0x412f4fa000000000, 0x413f9d57fde11930, 0x41023d2db46ef837, 0x401d5b4aadfd9cf0, 0x3e1d21f48a03cf3a),
    ("C432", "mis-area", 126, 0x412449c000000000, 0x4133aa8fc4493b2a, 0x40f5c3dae539abcd, 0x404588ae406444b3, 0x7a82c17a419717cd),
    ("C432", "lily-area", 121, 0x41241ae000000000, 0x4133e68bda7ae839, 0x40f68288cecfc9a7, 0x40469598f7217a7c, 0x62a9832a2eb04642),
    ("C432", "mis-delay", 200, 0x412ecc6000000000, 0x413f0976ab3259ee, 0x4101df2c315e1da2, 0x4019d15929b6c9c9, 0x8c66ee0b07131ed1),
    ("C432", "lily-delay", 198, 0x412e6ea000000000, 0x413e5d64f6259b0e, 0x41015017f4bd437e, 0x401a478b54e23772, 0x332103acde4e5618),
    ("misex1", "cut-area", 37, 0x4103c68000000000, 0x410dc26dbecdbd49, 0x40c6d21f6afad539, 0x40380a7168a9a12c, 0x8a1f63187e7d705f),
    ("misex1", "cut-delay", 56, 0x410c6b0000000000, 0x4115bfe9b4d1b324, 0x40d13c5f542874e4, 0x401548ffa60e82cf, 0x7f54c852e0f36a64),
    ("C432", "cut-area", 159, 0x4124fbe000000000, 0x4133f56c7ccb6c71, 0x40f5a365af87d34c, 0x4044298a76b69675, 0x97fe60dfb4f79fec),
    ("C432", "cut-delay", 202, 0x412a5e0000000000, 0x4138f331e18a909b, 0x40fae5044caa6f19, 0x4020969f3edd0fa8, 0x33403594d71da627),
    ("random-dag-1000", "cut-area", 1666, 0x415bdf8c00000000, 0x4176487901526d9e, 0x414180ab6f39a1d9, 0x4062ff7e56159f45, 0xf5ec4bc66c5dbb82),
    ("random-dag-1000", "cut-delay", 2294, 0x4163104600000000, 0x417e7e3971090e8f, 0x4147f4abeee5c77f, 0x403baeab91824af9, 0xe81dec971697eecf),
    ("random-dag-2000", "cut-area", 3669, 0x416f89a200000000, 0x4190f772c20c1f3f, 0x415dc5212940476c, 0x40665f7e93be21b9, 0xf9a84d5f46a70033),
];

fn flow_setup(flow: &str) -> (FlowOptions, Library) {
    match flow {
        "mis-area" => (FlowOptions::mis_area(), Library::big()),
        "lily-area" => (FlowOptions::lily_area(), Library::big()),
        "mis-delay" => (FlowOptions::mis_delay(), Library::big_1u()),
        "lily-delay" => (FlowOptions::lily_delay(), Library::big_1u()),
        "cut-area" => (FlowOptions::cut_area(), Library::big()),
        "cut-delay" => (FlowOptions::cut_delay(), Library::big_1u()),
        other => panic!("unknown flow {other}"),
    }
}

/// The golden circuits: the named seed circuits plus `random-dag-1000`,
/// a seeded 1000-node random DAG whose many overlapping output cones
/// exercise the covering DP's revisits, and `random-dag-2000`, which
/// takes the multilevel placement path.
fn network(name: &str) -> Network {
    match name {
        "random-dag-1000" => scale_circuit(ScaleFamily::RandomDag, 1000, 7),
        "random-dag-2000" => scale_circuit(ScaleFamily::RandomDag, 2000, 7),
        _ => circuits::circuit(name),
    }
}

/// FNV-1a over the mapped netlist's gates, positions, and fanins —
/// the same hash `examples/golden_dump.rs` records.
fn structural_hash(mapped: &MappedNetwork) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut mix = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x100000001b3);
    };
    for c in mapped.cells() {
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
    h
}

#[test]
fn stage_graph_flow_reproduces_pre_refactor_goldens() {
    for &(name, flow, cells, inst, chip, wire, delay, hash) in GOLDEN {
        let net = network(name);
        let (opts, lib) = flow_setup(flow);
        let r = run_flow(&net, &lib, &opts).expect("flow");
        let m = &r.metrics;
        let ctx = format!("{name}/{flow}");
        assert_eq!(m.cells, cells, "{ctx}: cells");
        assert_eq!(m.instance_area.to_bits(), inst, "{ctx}: instance_area");
        assert_eq!(m.chip_area.to_bits(), chip, "{ctx}: chip_area");
        assert_eq!(m.wire_length.to_bits(), wire, "{ctx}: wire_length");
        assert_eq!(m.critical_delay.to_bits(), delay, "{ctx}: critical_delay");
        assert_eq!(structural_hash(&r.mapped), hash, "{ctx}: mapped netlist structure");
    }
}

#[test]
fn cut_flow_is_check_clean_and_equivalent_on_the_golden_set() {
    // The cut-enumeration mapper is not pinned to the pre-refactor
    // goldens (it legitimately finds different covers); instead it must
    // produce a legal, lily-check-clean netlist that is logically
    // equivalent to the subject graph — and hence to what MIS and Lily
    // map — on every golden circuit, with clean cut sets.
    use lily_check::{check_cuts, check_mapped, check_mapped_subject};
    use lily_netlist::cuts::enumerate_cuts;
    use lily_netlist::decompose::{decompose, DecomposeOrder};
    use lily_netlist::CutConfig;

    for name in ["misex1", "b9", "9symml", "apex7", "C432"] {
        let net = circuits::circuit(name);
        let lib = Library::big();
        let opts = FlowOptions::cut_area();
        let g = decompose(&net, DecomposeOrder::Balanced).expect("decompose");

        let config = CutConfig::default();
        let (sets, stats) = enumerate_cuts(&g, &config);
        let r = check_cuts(&g, &sets, &config);
        assert!(r.is_clean(), "{name} cut sets: {r}");
        assert!(stats.kept >= g.node_count(), "{name}: fewer cuts than nodes");

        let res = opts.run_subject(&g, &lib).expect("cut flow");
        let r = check_mapped(&res.mapped, &lib);
        assert!(!r.has_errors(), "{name} mapped: {r}");
        let r = check_mapped_subject(&g, &res.mapped, &lib, 128, 21);
        assert!(r.is_clean(), "{name} equivalence: {r}");
        assert!(res.metrics.stats.cuts.is_some(), "{name}: cut stats missing");
    }
}

#[test]
fn compare_flows_matches_standalone_runs_bit_for_bit() {
    // Sharing the decomposition, pad plan, and subject placement image
    // between the two pipelines must not perturb either result: the
    // comparison entry point has to report exactly what two independent
    // runs would, at any thread count (above one it runs the two tails
    // concurrently).
    let net = circuits::circuit("misex1");
    let lib = Library::big();
    for threads in [1, 2, 8] {
        lily_par::set_threads(Some(threads));
        let cmp = compare_flows(&net, &lib, &FlowOptions::lily_area()).expect("compare");
        let mis = run_flow(&net, &lib, &FlowOptions::mis_area()).expect("mis");
        let lily = run_flow(&net, &lib, &FlowOptions::lily_area()).expect("lily");
        for (got, want, which) in [(&cmp.mis, &mis, "mis"), (&cmp.lily, &lily, "lily")] {
            assert_eq!(got.metrics.cells, want.metrics.cells, "{which}: cells");
            assert_eq!(
                got.metrics.wire_length.to_bits(),
                want.metrics.wire_length.to_bits(),
                "{which}: wire_length"
            );
            assert_eq!(
                got.metrics.critical_delay.to_bits(),
                want.metrics.critical_delay.to_bits(),
                "{which}: critical_delay"
            );
            assert_eq!(
                structural_hash(&got.mapped),
                structural_hash(&want.mapped),
                "{which}: mapped netlist structure"
            );
        }
    }
    lily_par::set_threads(None);
}

#[test]
fn stage_metrics_cover_every_stage_on_a_real_workload() {
    let net = circuits::circuit("misex1");
    let lib = Library::big();
    let r = run_flow(&net, &lib, &FlowOptions::lily_area()).expect("flow");
    let stages = &r.metrics.stages;
    for name in [
        "decompose",
        "assign-pads",
        "subject-place",
        "map",
        "legalize",
        "detailed-place",
        "route-estimate",
        "sta",
    ] {
        let rec = stages.get(name).unwrap_or_else(|| panic!("stage {name} missing"));
        assert!(rec.wall_ns > 0, "stage {name} reported zero wall time");
    }
    assert_eq!(stages.len(), 8);
}
