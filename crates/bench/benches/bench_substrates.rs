//! Micro-benchmarks of the substrate algorithms: wire estimators
//! (HPWL / spanning tree / iterated 1-Steiner), the CG quadratic solve,
//! pattern-match enumeration, and global routing.

use lily_bench::harness::Harness;
use lily_cells::Library;
use lily_core::MatchIndex;
use lily_netlist::decompose::{decompose, DecomposeOrder};
use lily_place::{try_solve_quadratic, Point, SubjectPlacement};
use lily_route::{net_length, rsmt_length, WireModel};
use lily_workloads::circuits;

fn random_net(pins: usize, seed: u64) -> Vec<Point> {
    let mut s = seed | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    (0..pins).map(|_| Point::new((next() % 1000) as f64, (next() % 1000) as f64)).collect()
}

fn bench_wire_models(h: &Harness) {
    for pins in [3usize, 8, 16] {
        let net = random_net(pins, 42);
        for (label, model) in [
            ("hpwl_steiner", WireModel::HalfPerimeterSteiner),
            ("spanning_tree", WireModel::SpanningTree),
        ] {
            h.bench("wire_models", &format!("{label}/{pins}"), || net_length(model, &net));
        }
        h.bench("wire_models", &format!("rsmt/{pins}"), || rsmt_length(&net));
    }
}

fn bench_quadratic_solve(h: &Harness) {
    for name in ["C432", "C880"] {
        let net = circuits::circuit(name);
        let g = decompose(&net, DecomposeOrder::Balanced).unwrap();
        let sp = SubjectPlacement::new(&g);
        let mut problem = sp.problem.clone();
        let core = lily_place::Rect::new(0.0, 0.0, 3000.0, 3000.0);
        problem.fixed = lily_place::pads::perimeter_points(core, problem.fixed.len());
        h.bench("quadratic_solve", &format!("cg/{name}"), || {
            try_solve_quadratic(&problem, &[], &[]).map_or(0, |s| s.positions.len())
        });
    }
}

fn bench_matching(h: &Harness) {
    let lib = Library::big();
    for name in ["misex1", "C432"] {
        let net = circuits::circuit(name);
        let g = decompose(&net, DecomposeOrder::Balanced).unwrap();
        h.bench("match_enumeration", &format!("index/{name}"), || {
            MatchIndex::build(&g, &lib).unwrap().total()
        });
    }
}

fn bench_groute(h: &Harness) {
    use lily_route::GlobalRouteGrid;
    for nets_count in [50usize, 200] {
        let nets: Vec<Vec<Point>> =
            (0..nets_count).map(|i| random_net(3 + i % 5, i as u64 + 1)).collect();
        h.bench("global_router", &format!("route_all/{nets_count}"), || {
            let mut g = GlobalRouteGrid::new(
                lily_place::Rect::new(0.0, 0.0, 1000.0, 1000.0),
                20,
                20,
                4.0,
                4.0,
            );
            g.route_all(&nets).wirelength
        });
    }
}

fn main() {
    let h = Harness::new();
    bench_wire_models(&h);
    bench_quadratic_solve(&h);
    bench_matching(&h);
    bench_groute(&h);
}
