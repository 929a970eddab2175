//! Randomized tests of the placement substrate, driven by seeded
//! deterministic sweeps: annealing never worsens the placement it
//! returns, the CG solver solves random SPD systems, and legalization is
//! complete.

use lily_netlist::sim::XorShift64;
use lily_place::anneal::{try_anneal, AnnealOptions};
use lily_place::legalize::{legalize, LegalizeOptions};
use lily_place::sparse::{cg_solve, CsrBuilder};
use lily_place::{PinRef, Point, Rect};

fn random_points(rng: &mut XorShift64, max: usize, w: f64, h: f64) -> Vec<Point> {
    let n = rng.gen_range(2, max - 1);
    (0..n).map(|_| Point::new(rng.gen_range_f64(0.0, w), rng.gen_range_f64(0.0, h))).collect()
}

#[test]
fn anneal_never_returns_a_worse_placement() {
    let mut rng = XorShift64::new(21);
    for _ in 0..32 {
        let core = Rect::new(0.0, 0.0, 800.0, 400.0);
        let mut p = random_points(&mut rng, 16, 800.0, 400.0);
        let n = p.len();
        // A ring of 2-pin nets.
        let nets: Vec<Vec<PinRef>> =
            (0..n).map(|i| vec![PinRef::Movable(i), PinRef::Movable((i + 1) % n)]).collect();
        let opts = AnnealOptions {
            seed: rng.next_u64(),
            steps: 6,
            moves_per_cell: 4,
            ..AnnealOptions::for_core(core)
        };
        let stats = try_anneal(&mut p, &nets, &[], &opts).expect("annealing failed");
        assert!(stats.final_hpwl <= stats.initial_hpwl + 1e-9);
        for pt in &p {
            assert!(core.contains(*pt));
        }
    }
}

#[test]
fn cg_solves_random_spd_systems() {
    let mut rng = XorShift64::new(23);
    for _ in 0..32 {
        let n = rng.gen_range(3, 9);
        let mut b = CsrBuilder::new(n);
        // Diagonally dominant: diag + weak chain springs.
        for i in 0..n {
            b.add(i, i, rng.gen_range_f64(1.0, 10.0) + 2.0);
        }
        for i in 0..n - 1 {
            b.add(i, i + 1, -1.0);
            b.add(i + 1, i, -1.0);
        }
        let a = b.build();
        let rhs: Vec<f64> = (0..n).map(|_| rng.gen_range_f64(-5.0, 5.0)).collect();
        let x = cg_solve(&a, &rhs, &vec![0.0; n], 1e-10, 500).expect("never cancelled").x;
        // Residual must be tiny.
        let mut ax = vec![0.0; n];
        a.mul(&x, &mut ax);
        for i in 0..n {
            assert!((ax[i] - rhs[i]).abs() < 1e-6, "residual at {i}");
        }
    }
}

#[test]
fn legalization_is_complete_and_in_core() {
    let mut rng = XorShift64::new(24);
    for _ in 0..32 {
        let desired = random_points(&mut rng, 30, 800.0, 400.0);
        let n = desired.len();
        let widths = vec![rng.gen_range_f64(12.0, 48.0); n];
        let core = Rect::new(0.0, 0.0, 3000.0, 600.0);
        let legal =
            legalize(&widths, &desired, &LegalizeOptions { core, row_height: 100.0, passes: 0 });
        let assigned: usize = legal.rows.iter().map(Vec::len).sum();
        assert_eq!(assigned, n);
        for (r, cells) in legal.rows.iter().enumerate() {
            for &c in cells {
                assert!((legal.positions[c].y - legal.row_y[r]).abs() < 1e-9);
            }
        }
    }
}
