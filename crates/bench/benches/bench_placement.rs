//! Global placement scaling: the §5 runtime note says GORDIAN placed
//! the 1892-gate C5315 inchoate network in ~3 minutes on a DEC3100.
//! This bench measures our quadratic + bi-partitioning placer on
//! inchoate networks of growing size, including the C5315-scale point.
//!
//! The last two cases place one generated 5 000-node random DAG
//! (~20k movable subject nodes, above the flow's multilevel threshold)
//! twice: with the multilevel clustered placer and with flat CG, so the
//! multilevel speedup over flat is measured on the same problem.

use lily_bench::harness::Harness;
use lily_netlist::decompose::{decompose, DecomposeOrder};
use lily_place::global::try_global_place;
use lily_place::multilevel::{try_multilevel_place, MultilevelOptions};
use lily_place::{AreaModel, Rect, SubjectPlacement};
use lily_workloads::{circuits, scale_circuit, ScaleFamily};

fn main() {
    let h = Harness::new();
    for name in ["misex1", "C432", "C880", "C5315"] {
        let net = circuits::circuit(name);
        let g = decompose(&net, DecomposeOrder::Balanced).unwrap();
        let sp = SubjectPlacement::new(&g);
        let core = AreaModel::mcnc().core_region(g.base_gate_count() as f64 * 1.5 * 12.0 * 100.0);
        let mut problem = sp.problem.clone();
        problem.fixed = lily_place::pads::perimeter_points(core, problem.fixed.len());
        h.bench("global_placement", &format!("inchoate/{name}-{}", g.base_gate_count()), || {
            try_global_place(&problem, core).map_or(0, |gp| gp.positions.len())
        });
    }

    let net = scale_circuit(ScaleFamily::RandomDag, 5_000, 0x5CA1_E001);
    let g = decompose(&net, DecomposeOrder::Balanced).unwrap();
    let core = Rect::new(0.0, 0.0, 3000.0, 3000.0);
    let mut problem = SubjectPlacement::new(&g).problem.clone();
    problem.fixed = lily_place::pads::perimeter_points(core, problem.fixed.len());
    let id = format!("random-dag-5000-{}", problem.movable);
    h.bench("subject_placement", &format!("multilevel/{id}"), || {
        try_multilevel_place(&problem, &MultilevelOptions::for_region(core))
            .map_or(0, |mp| mp.positions.len())
    });
    h.bench("subject_placement", &format!("flat/{id}"), || {
        try_global_place(&problem, core).map_or(0, |gp| gp.positions.len())
    });
}
