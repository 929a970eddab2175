//! The route-estimate kernels against the straightforward versions
//! they replaced, compared bit for bit on seeded random inputs.
//!
//! Each `naive` item below is the earlier implementation, kept as the
//! reference: per-channel event lists for the channel densities, an
//! allocating Prim and 1-Steiner loop, and one-net-at-a-time congestion
//! deposit and overflow. The rewritten kernels must agree with them exactly —
//! `==` on integers, `to_bits` on floats — not within a tolerance.

use lily_netlist::sim::XorShift64;
use lily_place::{Point, Rect};
use lily_route::congestion::{deposit_rows, STRIPE_ROWS};
use lily_route::{channel_densities, rsmt_length, rsmt_length_with, CongestionGrid, RsmtScratch};

mod naive {
    use super::*;

    pub fn rst_edges(pins: &[Point]) -> Vec<(usize, usize)> {
        let n = pins.len();
        if n < 2 {
            return Vec::new();
        }
        let mut in_tree = vec![false; n];
        let mut best_dist = vec![f64::INFINITY; n];
        let mut best_parent = vec![0usize; n];
        in_tree[0] = true;
        for j in 1..n {
            best_dist[j] = pins[0].manhattan(pins[j]);
        }
        let mut edges = Vec::with_capacity(n - 1);
        for _ in 1..n {
            let mut pick = usize::MAX;
            let mut pick_d = f64::INFINITY;
            for j in 0..n {
                if !in_tree[j] && best_dist[j] < pick_d {
                    pick = j;
                    pick_d = best_dist[j];
                }
            }
            in_tree[pick] = true;
            edges.push((best_parent[pick], pick));
            for j in 0..n {
                if !in_tree[j] {
                    let d = pins[pick].manhattan(pins[j]);
                    if d < best_dist[j] {
                        best_dist[j] = d;
                        best_parent[j] = pick;
                    }
                }
            }
        }
        edges
    }

    pub fn rst_length(pins: &[Point]) -> f64 {
        rst_edges(pins).iter().map(|&(a, b)| pins[a].manhattan(pins[b])).sum()
    }

    pub fn channel_densities(row_ys: &[f64], nets: &[Vec<Point>]) -> Vec<usize> {
        let channel_of = |y: f64| -> usize { row_ys.iter().filter(|&&ry| ry < y).count() };
        let mut events: Vec<Vec<(f64, i32)>> = vec![Vec::new(); row_ys.len() + 1];
        for pins in nets {
            let Some(bbox) = Rect::bounding(pins.iter().copied()) else {
                continue;
            };
            if pins.len() < 2 {
                continue;
            }
            let lo = channel_of(bbox.lly);
            let hi = channel_of(bbox.ury);
            for ev in &mut events[lo..=hi.max(lo)] {
                ev.push((bbox.llx, 1));
                ev.push((bbox.urx, -1));
            }
        }
        events
            .into_iter()
            .map(|mut ev| {
                ev.sort_by(|a, b| {
                    a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal).then(a.1.cmp(&b.1))
                });
                let mut cur = 0i32;
                let mut max = 0i32;
                for (_, d) in ev {
                    cur += d;
                    max = max.max(cur);
                }
                max as usize
            })
            .collect()
    }

    pub fn rsmt_length(pins: &[Point]) -> f64 {
        if pins.len() < 3 || pins.len() > 24 {
            return rst_length(pins);
        }
        let mut nodes: Vec<Point> = pins.to_vec();
        let mut best = rst_length(&nodes);
        loop {
            let (mut gain, mut pick) = (1e-9, None);
            let mut xs: Vec<f64> = nodes.iter().map(|p| p.x).collect();
            let mut ys: Vec<f64> = nodes.iter().map(|p| p.y).collect();
            xs.sort_by(|a, b| a.total_cmp(b));
            xs.dedup();
            ys.sort_by(|a, b| a.total_cmp(b));
            ys.dedup();
            for &x in &xs {
                for &y in &ys {
                    let cand = Point::new(x, y);
                    if nodes.iter().any(|p| p.manhattan(cand) == 0.0) {
                        continue;
                    }
                    nodes.push(cand);
                    let len = rst_length(&nodes);
                    nodes.pop();
                    if best - len > gain {
                        gain = best - len;
                        pick = Some(cand);
                    }
                }
            }
            match pick {
                Some(p) => {
                    nodes.push(p);
                    best -= gain;
                }
                None => break,
            }
        }
        best
    }

    /// The one-net-at-a-time congestion grid.
    pub struct Grid {
        pub region: Rect,
        pub nx: usize,
        pub ny: usize,
        pub demand: Vec<f64>,
        pub capacity: f64,
    }

    impl Grid {
        fn bin_of(&self, p: Point) -> (usize, usize) {
            let fx = ((p.x - self.region.llx) / self.region.width()).clamp(0.0, 1.0 - 1e-12);
            let fy = ((p.y - self.region.lly) / self.region.height()).clamp(0.0, 1.0 - 1e-12);
            ((fx * self.nx as f64) as usize, (fy * self.ny as f64) as usize)
        }

        fn bins_of_bbox(&self, pins: &[Point]) -> Option<(usize, usize, usize, usize)> {
            let r = Rect::bounding(pins.iter().copied())?;
            let (x0, y0) = self.bin_of(Point::new(r.llx, r.lly));
            let (x1, y1) = self.bin_of(Point::new(r.urx, r.ury));
            Some((x0, y0, x1, y1))
        }

        pub fn deposit(&mut self, pins: &[Point], wire_length: f64) {
            let Some((x0, y0, x1, y1)) = self.bins_of_bbox(pins) else {
                return;
            };
            if pins.len() < 2 {
                return;
            }
            let bins = ((x1 - x0 + 1) * (y1 - y0 + 1)) as f64;
            let share = wire_length / bins;
            for y in y0..=y1 {
                for x in x0..=x1 {
                    self.demand[y * self.nx + x] += share;
                }
            }
        }

        pub fn overflow(&self, pins: &[Point]) -> f64 {
            let Some((x0, y0, x1, y1)) = self.bins_of_bbox(pins) else {
                return 0.0;
            };
            let mut total = 0.0;
            let mut count = 0usize;
            for y in y0..=y1 {
                for x in x0..=x1 {
                    let d = self.demand[y * self.nx + x];
                    total += (d / self.capacity - 1.0).max(0.0);
                    count += 1;
                }
            }
            if count == 0 {
                0.0
            } else {
                total / count as f64
            }
        }

        pub fn routed_length(&self, pins: &[Point], steiner_length: f64, detour_gain: f64) -> f64 {
            steiner_length * (1.0 + detour_gain * self.overflow(pins))
        }
    }
}

/// A point on a coarse lattice inside `[-50, 550)²`, so nets share
/// coordinates (equal-x ties, duplicate pins) and stray past the rows.
fn lattice_point(rng: &mut XorShift64) -> Point {
    Point::new(rng.gen_range(0, 60) as f64 * 10.0 - 50.0, rng.gen_range(0, 60) as f64 * 10.0 - 50.0)
}

fn random_point(rng: &mut XorShift64) -> Point {
    Point::new(rng.gen_range_f64(-50.0, 550.0), rng.gen_range_f64(-50.0, 550.0))
}

/// A seeded net mix: 0- and 1-pin nets, nets inside one row band,
/// lattice nets with ties, and continuous nets.
fn random_nets(rng: &mut XorShift64, count: usize, max_pins: usize) -> Vec<Vec<Point>> {
    (0..count)
        .map(|_| {
            let pins = rng.gen_range(0, max_pins);
            match rng.gen_index(4) {
                0 => {
                    // Flat net: every pin on one y, inside one row band.
                    let y = rng.gen_range_f64(-50.0, 550.0);
                    (0..pins).map(|_| Point::new(rng.gen_range_f64(-50.0, 550.0), y)).collect()
                }
                1 | 2 => (0..pins).map(|_| lattice_point(rng)).collect(),
                _ => (0..pins).map(|_| random_point(rng)).collect(),
            }
        })
        .collect()
}

#[test]
fn channel_sweep_matches_per_channel_lists() {
    let mut rng = XorShift64::new(0x5eed_c4a1);
    for round in 0..60 {
        let rows = rng.gen_range(1, 12);
        // Rows on the same 10-unit lattice as the pins, so pins sit
        // exactly on row center lines too; some rows repeat.
        let mut row_ys: Vec<f64> = (0..rows).map(|_| rng.gen_range(0, 50) as f64 * 10.0).collect();
        row_ys.sort_by(f64::total_cmp);
        let count = rng.gen_range(0, 80);
        let nets = random_nets(&mut rng, count, 7);
        assert_eq!(
            channel_densities(&row_ys, &nets),
            naive::channel_densities(&row_ys, &nets),
            "round {round}: rows {row_ys:?}"
        );
    }
}

#[test]
fn channel_sweep_edge_cases() {
    let rows = [100.0, 200.0, 300.0];
    let line = |x0: f64, x1: f64, y0: f64, y1: f64| vec![Point::new(x0, y0), Point::new(x1, y1)];
    let cases: Vec<Vec<Vec<Point>>> = vec![
        // Equal-x open/close ties, in both insertion orders.
        vec![line(0.0, 10.0, 50.0, 50.0), line(10.0, 20.0, 50.0, 50.0)],
        vec![line(10.0, 20.0, 50.0, 50.0), line(0.0, 10.0, 50.0, 50.0)],
        vec![line(5.0, 5.0, 50.0, 250.0), line(5.0, 5.0, 150.0, 350.0), line(5.0, 9.0, 0.0, 0.0)],
        // Below every row, above every row, and spanning all of them.
        vec![line(0.0, 40.0, -80.0, -10.0), line(20.0, 60.0, 400.0, 900.0)],
        vec![line(0.0, 40.0, -80.0, 900.0), line(30.0, 70.0, 100.0, 300.0)],
        // Pins exactly on row center lines.
        vec![line(0.0, 40.0, 100.0, 200.0), line(10.0, 50.0, 200.0, 300.0)],
        // 0- and 1-pin nets contribute nothing.
        vec![vec![], vec![Point::new(5.0, 150.0)], line(0.0, 1.0, 150.0, 150.0)],
    ];
    for nets in &cases {
        assert_eq!(
            channel_densities(&rows, nets),
            naive::channel_densities(&rows, nets),
            "{nets:?}"
        );
    }
}

#[test]
fn scratch_rsmt_matches_allocating_one_steiner() {
    let mut rng = XorShift64::new(0x5eed_57e1);
    // One scratch across every net: buffers left over from a larger
    // net must not leak into a smaller one.
    let mut scratch = RsmtScratch::default();
    for pins in 0..=36 {
        for lattice in [true, false] {
            let net: Vec<Point> = if lattice {
                (0..pins).map(|_| lattice_point(&mut rng)).collect()
            } else {
                (0..pins).map(|_| random_point(&mut rng)).collect()
            };
            let want = naive::rsmt_length(&net).to_bits();
            assert_eq!(rsmt_length_with(&net, &mut scratch).to_bits(), want, "{net:?}");
            assert_eq!(rsmt_length(&net).to_bits(), want, "{net:?}");
            assert_eq!(lily_route::rst_length(&net).to_bits(), naive::rst_length(&net).to_bits());
            assert_eq!(lily_route::rst::rst_edges(&net), naive::rst_edges(&net));
        }
    }
}

/// Builds matching grids, deposits `nets` one at a time into the naive
/// grid and in stripes (visited last stripe first, to show the stripe
/// schedule does not matter) into the real one, and compares demand,
/// summaries, and routed lengths bit for bit.
fn check_striped_grid(rng: &mut XorShift64, nx: usize, ny: usize) {
    let region = Rect::new(0.0, 0.0, 500.0, 500.0);
    let capacity = rng.gen_range_f64(20.0, 200.0);
    let mut grid = CongestionGrid::new(region, nx, ny, capacity);
    let mut naive = naive::Grid { region, nx, ny, demand: vec![0.0; nx * ny], capacity };
    let nets = random_nets(rng, 120, 9);
    let lengths: Vec<f64> = nets.iter().map(|_| rng.gen_range_f64(0.0, 900.0)).collect();

    for (pins, &len) in nets.iter().zip(&lengths) {
        naive.deposit(pins, len);
    }
    let boxes: Vec<_> = nets.iter().map(|n| grid.bin_box(n)).collect();
    let deposits: Vec<_> = nets
        .iter()
        .zip(&boxes)
        .zip(&lengths)
        .filter(|((pins, _), _)| pins.len() >= 2)
        .filter_map(|((_, b), &len)| b.map(|b| (b, b.share(len))))
        .collect();
    let (w, demand) = grid.rows_mut();
    assert_eq!(w, nx);
    let stripes: Vec<(usize, &mut [f64])> =
        demand.chunks_mut(STRIPE_ROWS * nx).enumerate().collect();
    for (i, rows) in stripes.into_iter().rev() {
        deposit_rows(nx, i * STRIPE_ROWS, rows, &deposits);
    }

    let ctx = format!("{nx}x{ny} grid");
    let bits = |d: &[f64]| d.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(grid.rows_mut().1), bits(&naive.demand), "{ctx}: demand");
    let table = grid.overflow_table();
    for ((pins, &len), &b) in nets.iter().zip(&lengths).zip(&boxes) {
        let want = naive.routed_length(pins, len, 0.25).to_bits();
        assert_eq!(table.routed_length(b, len, 0.25).to_bits(), want, "{ctx}: {pins:?}");
        assert_eq!(grid.routed_length(pins, len, 0.25).to_bits(), want, "{ctx}: {pins:?}");
    }

    // The one-net `deposit` is the single-stripe case of the same kernel.
    let mut single = CongestionGrid::new(region, nx, ny, capacity);
    for (pins, &len) in nets.iter().zip(&lengths) {
        single.deposit(pins, len);
    }
    assert_eq!(bits(single.rows_mut().1), bits(&naive.demand), "{ctx}: one-net deposit");
}

#[test]
fn striped_deposit_and_overflow_table_match_one_net_at_a_time() {
    let mut rng = XorShift64::new(0x5eed_9e1d);
    // Row counts below, at, just past and well past a stripe, none but
    // one a multiple of the stripe height.
    for ny in [1, STRIPE_ROWS - 1, STRIPE_ROWS, STRIPE_ROWS + 1, 2 * STRIPE_ROWS + 5, 61] {
        for nx in [1, 7, 24] {
            check_striped_grid(&mut rng, nx, ny);
        }
    }
}
