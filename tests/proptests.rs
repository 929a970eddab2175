//! Randomized property tests over the public API, driven by seeded
//! deterministic sweeps (the workspace builds offline, so no external
//! property-testing framework): decomposition and mapping preserve
//! function on arbitrary networks; the wire estimators obey their
//! ordering laws; legalization never overlaps; the Manhattan median is
//! optimal.

use lily::cells::mapped::equiv_mapped_subject;
use lily::cells::Library;
use lily::core::position::{manhattan_median, rect_distance_sum};
use lily::core::MisMapper;
use lily::netlist::decompose::{decompose, DecomposeOrder};
use lily::netlist::sim::{equiv_network_subject, XorShift64};
use lily::netlist::{Network, NodeFunc, NodeId};
use lily::place::legalize::{legalize, LegalizeOptions};
use lily::place::{Point, Rect};
use lily::route::{half_perimeter, rsmt_length, rst_length};

/// A random multi-level network: each internal node gets a function tag
/// and picks distinct fanins from the signals created so far.
fn random_network(seed: u64) -> Network {
    let mut rng = XorShift64::new(seed.wrapping_add(0x5EED));
    let inputs = rng.gen_range(2, 5);
    let node_budget = rng.gen_range(1, 24);
    let outputs = rng.gen_range(1, 3);
    let mut net = Network::new("prop");
    let mut signals: Vec<NodeId> = (0..inputs).map(|i| net.add_input(format!("i{i}"))).collect();
    for i in 0..node_budget {
        let k = (rng.gen_index(3) + 2).min(signals.len());
        let mut fanins: Vec<NodeId> = Vec::new();
        let mut guard = 0;
        while fanins.len() < k && guard < 32 {
            guard += 1;
            let s = signals[rng.gen_index(signals.len())];
            if !fanins.contains(&s) {
                fanins.push(s);
            }
        }
        if fanins.len() < 2 {
            continue;
        }
        let func = match rng.gen_index(6) {
            0 => NodeFunc::And,
            1 => NodeFunc::Or,
            2 => NodeFunc::Nand,
            3 => NodeFunc::Nor,
            4 => NodeFunc::Xor,
            _ => NodeFunc::Xnor,
        };
        let id = net.add_node(format!("n{i}"), func, fanins).expect("valid node");
        signals.push(id);
    }
    for oi in 0..outputs {
        let pick = signals[signals.len() - 1 - (oi % signals.len().min(3))];
        net.add_output(format!("o{oi}"), pick);
    }
    net
}

fn random_points(rng: &mut XorShift64, max: usize, extent: f64) -> Vec<Point> {
    let n = rng.gen_range(2, max - 1);
    (0..n)
        .map(|_| Point::new(rng.gen_range_f64(0.0, extent), rng.gen_range_f64(0.0, extent)))
        .collect()
}

#[test]
fn decomposition_preserves_function() {
    for seed in 0..48 {
        let net = random_network(seed);
        for order in [DecomposeOrder::Balanced, DecomposeOrder::Chain, DecomposeOrder::Shuffled(3)]
        {
            let g = decompose(&net, order).expect("decomposes");
            assert!(equiv_network_subject(&net, &g, 128, 0xF00D), "seed {seed} {order:?}");
        }
    }
}

#[test]
fn mapping_preserves_function() {
    let lib = Library::big();
    for seed in 0..32 {
        let net = random_network(seed);
        let g = decompose(&net, DecomposeOrder::Balanced).expect("decomposes");
        let r = MisMapper::new(&lib).map(&g).expect("maps");
        assert!(equiv_mapped_subject(&g, &r.mapped, &lib, 128, 0xBEEF), "seed {seed}");
    }
}

#[test]
fn wire_estimator_ordering() {
    // HPWL lower-bounds the Steiner tree, which lower-bounds the
    // spanning tree.
    let mut rng = XorShift64::new(0xE571);
    for _ in 0..48 {
        let pins = random_points(&mut rng, 12, 1000.0);
        let hp = half_perimeter(&pins);
        let steiner = rsmt_length(&pins);
        let spanning = rst_length(&pins);
        assert!(hp <= steiner + 1e-9, "hpwl {hp} > rsmt {steiner}");
        assert!(steiner <= spanning + 1e-9, "rsmt {steiner} > rst {spanning}");
    }
}

#[test]
fn legalization_never_overlaps() {
    let mut rng = XorShift64::new(0x1E6A);
    for case in 0..48 {
        let desired = random_points(&mut rng, 40, 1000.0);
        let n = desired.len();
        let widths: Vec<f64> = (0..n).map(|_| rng.gen_range_f64(12.0, 60.0)).collect();
        let core = Rect::new(0.0, 0.0, 4000.0, 800.0);
        let legal = legalize(&widths, &desired, &LegalizeOptions { core, row_height: 100.0 });
        for row in &legal.rows {
            for w in row.windows(2) {
                let (a, b) = (w[0], w[1]);
                let gap = (legal.positions[b].x - widths[b] / 2.0)
                    - (legal.positions[a].x + widths[a] / 2.0);
                assert!(gap >= -1e-6, "case {case}: overlap, gap {gap}");
            }
        }
        // Every cell assigned to exactly one row.
        let total: usize = legal.rows.iter().map(Vec::len).sum();
        assert_eq!(total, n, "case {case}");
    }
}

#[test]
fn manhattan_median_is_optimal() {
    let mut rng = XorShift64::new(0x3ED1);
    for case in 0..64 {
        let rects: Vec<Rect> = (0..rng.gen_range(1, 5))
            .map(|_| {
                let x = rng.gen_range_f64(0.0, 900.0);
                let y = rng.gen_range_f64(0.0, 900.0);
                let w = rng.gen_range_f64(1.0, 100.0);
                let h = rng.gen_range_f64(1.0, 100.0);
                Rect::new(x, y, x + w, y + h)
            })
            .collect();
        let median = manhattan_median(&rects, Point::default());
        let best = rect_distance_sum(&rects, median);
        let probe = Point::new(rng.gen_range_f64(0.0, 1000.0), rng.gen_range_f64(0.0, 1000.0));
        assert!(
            best <= rect_distance_sum(&rects, probe) + 1e-9,
            "case {case}: median {median:?} beaten by {probe:?}"
        );
    }
}

#[test]
fn blif_roundtrip() {
    for seed in 0..32 {
        let net = random_network(seed);
        let text = lily::netlist::blif::write(&net);
        let back = lily::netlist::blif::parse(&text).expect("reparses");
        assert_eq!(back.input_count(), net.input_count());
        assert_eq!(back.output_count(), net.output_count());
        // Functional equality via decomposition of both.
        let g1 = decompose(&net, DecomposeOrder::Balanced).expect("orig");
        let g2 = decompose(&back, DecomposeOrder::Balanced).expect("back");
        let ni = net.input_count();
        let mut rng = XorShift64::new(99);
        for _ in 0..2 {
            let ins: Vec<u64> = (0..ni).map(|_| rng.next_u64()).collect();
            assert_eq!(
                lily::netlist::sim::simulate_subject64(&g1, &ins),
                lily::netlist::sim::simulate_subject64(&g2, &ins),
                "seed {seed}"
            );
        }
    }
}
