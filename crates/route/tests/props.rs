//! Randomized tests of the wire estimators, driven by seeded
//! deterministic sweeps: metric laws that must hold for any pin set.

use lily_netlist::sim::XorShift64;
use lily_place::Point;
use lily_route::{
    channel_densities, chung_hwang_factor, half_perimeter, net_length, rsmt_length, rst_length,
    WireModel,
};

fn random_pins(rng: &mut XorShift64, max: usize) -> Vec<Point> {
    let n = rng.gen_range(2, max - 1);
    (0..n)
        .map(|_| Point::new(rng.gen_range_f64(0.0, 500.0), rng.gen_range_f64(0.0, 500.0)))
        .collect()
}

#[test]
fn estimator_ordering_law() {
    let mut rng = XorShift64::new(31);
    for _ in 0..96 {
        let pins = random_pins(&mut rng, 10);
        let hp = half_perimeter(&pins);
        let steiner = rsmt_length(&pins);
        let spanning = rst_length(&pins);
        assert!(hp <= steiner + 1e-9);
        assert!(steiner <= spanning + 1e-9);
        // The spanning tree of n pins is at most (n-1) × the bbox
        // half-perimeter (each edge is at most hp long).
        assert!(spanning <= hp * (pins.len() as f64 - 1.0) + 1e-9);
    }
}

#[test]
fn estimates_are_translation_invariant() {
    let mut rng = XorShift64::new(32);
    for _ in 0..96 {
        let pins = random_pins(&mut rng, 8);
        let dx = rng.gen_range_f64(-100.0, 100.0);
        let dy = rng.gen_range_f64(-100.0, 100.0);
        let moved: Vec<Point> = pins.iter().map(|p| Point::new(p.x + dx, p.y + dy)).collect();
        for model in [WireModel::HalfPerimeterSteiner, WireModel::SpanningTree] {
            let a = net_length(model, &pins);
            let b = net_length(model, &moved);
            assert!((a - b).abs() < 1e-6, "{model:?}: {a} vs {b}");
        }
        // The iterated 1-Steiner heuristic is NOT translation
        // invariant: near-equal-gain candidate ties flip under float
        // rounding and the greedy diverges. Only its bounds must hold.
        let b = rsmt_length(&moved);
        assert!(half_perimeter(&moved) <= b + 1e-9);
        assert!(b <= rst_length(&moved) + 1e-9);
    }
}

#[test]
fn estimates_scale_linearly() {
    let mut rng = XorShift64::new(33);
    for _ in 0..96 {
        let pins = random_pins(&mut rng, 8);
        let k = rng.gen_range_f64(0.1, 10.0);
        let scaled: Vec<Point> = pins.iter().map(|p| Point::new(p.x * k, p.y * k)).collect();
        for model in [WireModel::HalfPerimeterSteiner, WireModel::SpanningTree] {
            let a = net_length(model, &pins);
            let b = net_length(model, &scaled);
            assert!((a * k - b).abs() < 1e-6 * (1.0 + a * k), "{model:?}");
        }
    }
}

#[test]
fn spanning_tree_is_permutation_invariant() {
    let mut rng = XorShift64::new(34);
    for _ in 0..96 {
        let pins = random_pins(&mut rng, 9);
        let mut shuffled = pins.clone();
        // Deterministic Fisher-Yates.
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.gen_index(i + 1));
        }
        assert!((rst_length(&pins) - rst_length(&shuffled)).abs() < 1e-6);
    }
}

#[test]
fn steiner_factor_monotone() {
    let mut rng = XorShift64::new(35);
    for _ in 0..96 {
        let a = rng.gen_range(1, 499);
        let b = rng.gen_range(1, 499);
        let (lo, hi) = (a.min(b), a.max(b));
        assert!(chung_hwang_factor(lo) <= chung_hwang_factor(hi) + 1e-12);
    }
}

#[test]
fn channel_density_monotone_in_nets() {
    let mut rng = XorShift64::new(36);
    for _ in 0..96 {
        let nets: Vec<Vec<Point>> =
            (0..rng.gen_range(1, 7)).map(|_| random_pins(&mut rng, 5)).collect();
        let rows = [100.0, 300.0];
        let all = channel_densities(&rows, &nets);
        let fewer = channel_densities(&rows, &nets[..nets.len() - 1]);
        for (a, f) in all.iter().zip(&fewer) {
            assert!(a >= f, "dropping a net increased density");
        }
    }
}
