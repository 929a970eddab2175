//! Bottom-up I/O pad assignment driven by network connectivity — the
//! paper's reference \[20\] (Pedram, Bhat, Choudhary).
//!
//! Prior to mapping, Lily needs pad positions on the chip boundary. The
//! bottom-up procedure implemented here: place pads uniformly on the
//! boundary in declaration order, solve the quadratic placement once,
//! compute the barycenter of each pad's connected modules, then re-order
//! the pads around the boundary by the barycenter angles so each pad
//! sits on the side of the core its logic gravitates to.

use crate::geom::{Point, Rect};
use crate::quadratic::{try_solve_quadratic_under, PinRef, PlacementProblem};

/// `n` evenly spaced positions along the perimeter of `core`, starting
/// at the middle of the left edge and proceeding counter-clockwise.
pub fn perimeter_points(core: Rect, n: usize) -> Vec<Point> {
    if n == 0 {
        return Vec::new();
    }
    let perim = 2.0 * (core.width() + core.height());
    let step = perim / n as f64;
    (0..n)
        .map(|i| {
            let mut d = i as f64 * step;
            // Walk the boundary counter-clockwise from the left-middle:
            // down the left edge, along the bottom, up the right, along
            // the top, back down the left.
            let h2 = core.height() / 2.0;
            if d < h2 {
                return Point::new(core.llx, core.lly + h2 - d);
            }
            d -= h2;
            if d < core.width() {
                return Point::new(core.llx + d, core.lly);
            }
            d -= core.width();
            if d < core.height() {
                return Point::new(core.urx, core.lly + d);
            }
            d -= core.height();
            if d < core.width() {
                return Point::new(core.urx - d, core.ury);
            }
            d -= core.width();
            Point::new(core.llx, core.ury - d)
        })
        .collect()
}

/// Angle of the perimeter parameterization used by
/// [`perimeter_points`], for ordering (radians from the core center).
fn angle_from_center(core: Rect, p: Point) -> f64 {
    let c = core.center();
    (p.y - c.y).atan2(p.x - c.x)
}

/// Assigns every pad of `problem` a boundary position of `core`, driven
/// by the connectivity structure (see module docs). Returns the new pad
/// positions, parallel to `problem.fixed`.
///
/// The incoming `problem.fixed` positions are used only as the seed
/// ordering; pass placeholder zeros on first use.
///
/// When the interior quadratic solve fails (malformed problem,
/// divergence), the uniform perimeter seed ordering is returned as a
/// graceful fallback — every pad still gets a finite boundary slot.
pub fn assign_pads(problem: &PlacementProblem, core: Rect) -> Vec<Point> {
    let n_pads = problem.fixed.len();
    if n_pads == 0 {
        return Vec::new();
    }
    // Seed: uniform boundary slots in declaration order.
    let seed = perimeter_points(core, n_pads);
    let seeded = PlacementProblem { fixed: seed.clone(), ..problem.clone() };
    // The ordering solve is not cancellable: it always completes (or
    // falls back to the seed), whatever the caller's ambient token.
    let never = lily_fault::CancelToken::never();
    let positions = match try_solve_quadratic_under(&seeded, &[], &[], &never) {
        Ok(solve) => solve.positions,
        Err(_) => return seed,
    };
    order_pads(problem, core, &positions, &seed)
}

/// [`assign_pads`] with the interior module positions supplied by the
/// caller instead of the internal flat quadratic solve — the scale
/// path: at 10⁵ modules the flat solve inside [`assign_pads`] costs
/// more than the whole multilevel placement, and any placement of
/// comparable quality yields the same barycenter ordering.
///
/// `interior` must hold one position per movable module; a
/// length-mismatched or non-finite set falls back to the uniform
/// perimeter seed, like a failed solve in [`assign_pads`].
pub fn assign_pads_with_interior(
    problem: &PlacementProblem,
    core: Rect,
    interior: &[Point],
) -> Vec<Point> {
    let n_pads = problem.fixed.len();
    if n_pads == 0 {
        return Vec::new();
    }
    let seed = perimeter_points(core, n_pads);
    if interior.len() != problem.movable
        || interior.iter().any(|p| !(p.x.is_finite() && p.y.is_finite()))
    {
        return seed;
    }
    order_pads(problem, core, interior, &seed)
}

/// The connectivity-driven ordering shared by [`assign_pads`] and
/// [`assign_pads_with_interior`]: barycenters of each pad's connected
/// modules under `positions`, angle keys refined by affinity diffusion,
/// pads mapped onto angle-sorted perimeter slots.
fn order_pads(
    problem: &PlacementProblem,
    core: Rect,
    positions: &[Point],
    seed: &[Point],
) -> Vec<Point> {
    let n_pads = problem.fixed.len();
    let net_pads = NetPads::new(problem);
    // Barycenter of the movable modules each pad connects to.
    let mut sums: Vec<(f64, f64, usize)> = vec![(0.0, 0.0, 0); n_pads];
    for (ni, net) in problem.nets.iter().enumerate() {
        let pads = net_pads.of(ni);
        if pads.is_empty() {
            continue;
        }
        for pin in net {
            if let PinRef::Movable(m) = pin {
                for &pad in pads {
                    sums[pad].0 += positions[*m].x;
                    sums[pad].1 += positions[*m].y;
                    sums[pad].2 += 1;
                }
            }
        }
    }
    let centroids: Vec<Point> = sums
        .iter()
        .enumerate()
        .map(|(i, &(sx, sy, k))| {
            if k == 0 {
                seed[i] // unconnected pad keeps its seed slot
            } else {
                Point::new(sx / k as f64, sy / k as f64)
            }
        })
        .collect();

    // Order pads by a connectivity-aware key: start from the barycenter
    // angle (geometry) and refine it by diffusion over the pad-affinity
    // graph (pads sharing modules pull toward the same key). The
    // diffusion resolves configurations where barycenter angles are
    // degenerate (symmetric designs) while reducing to the pure angle
    // ordering when pads share no modules.
    let affinity = pad_affinity(problem, &net_pads);
    let seed: Vec<f64> =
        (0..n_pads).map(|p| angle_from_center(core, centroids[p]) + 1e-9 * p as f64).collect();
    let key = diffuse(&affinity, &seed, 30);

    let slots = perimeter_points(core, n_pads);
    let mut slot_order: Vec<usize> = (0..n_pads).collect();
    slot_order.sort_by(|&a, &b| {
        angle_from_center(core, slots[a])
            .partial_cmp(&angle_from_center(core, slots[b]))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut pad_order: Vec<usize> = (0..n_pads).collect();
    pad_order.sort_by(|&a, &b| {
        key[a].partial_cmp(&key[b]).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b))
    });

    let mut out = vec![Point::default(); n_pads];
    for (slot, pad) in slot_order.into_iter().zip(pad_order) {
        out[pad] = slots[slot];
    }
    out
}

/// The pads of every net, in pin order: net `i`'s pads are
/// `pads[start[i]..start[i + 1]]`.
struct NetPads {
    start: Vec<usize>,
    pads: Vec<usize>,
}

impl NetPads {
    fn new(problem: &PlacementProblem) -> Self {
        let mut start = Vec::with_capacity(problem.nets.len() + 1);
        let mut pads = Vec::new();
        start.push(0);
        for net in &problem.nets {
            pads.extend(net.iter().filter_map(|p| match p {
                PinRef::Fixed(i) => Some(*i),
                PinRef::Movable(_) => None,
            }));
            start.push(pads.len());
        }
        Self { start, pads }
    }

    fn of(&self, net: usize) -> &[usize] {
        &self.pads[self.start[net]..self.start[net + 1]]
    }
}

/// Pad-to-pad affinity: weight 1 per movable module that two pads share
/// a net-neighborhood with, counted once per pair of incidences (a
/// module reaching a pad through two nets counts twice). Each pad's
/// neighbors are in ascending order, the order [`diffuse`] sums in.
fn pad_affinity(problem: &PlacementProblem, net_pads: &NetPads) -> Vec<Vec<(usize, f64)>> {
    // Pads adjacent to each module (one net hop), one entry per
    // (net, pad) incidence.
    let mut pads_of_module: Vec<Vec<usize>> = vec![Vec::new(); problem.movable];
    for (ni, net) in problem.nets.iter().enumerate() {
        for pin in net {
            if let PinRef::Movable(m) = pin {
                pads_of_module[*m].extend_from_slice(net_pads.of(ni));
            }
        }
    }
    // Every ordered pair of distinct pads sharing a module; sorting
    // groups each pad's neighbors in ascending order, and the run
    // length of a pair is its (integer, hence order-free) weight.
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for pads in &pads_of_module {
        for (i, &a) in pads.iter().enumerate() {
            for &b in &pads[i + 1..] {
                if a != b {
                    pairs.push((a, b));
                    pairs.push((b, a));
                }
            }
        }
    }
    pairs.sort_unstable();
    let mut adj: Vec<Vec<(usize, f64)>> = vec![Vec::new(); problem.fixed.len()];
    for run in pairs.chunk_by(|x, y| x == y) {
        let (a, b) = run[0];
        adj[a].push((b, run.len() as f64));
    }
    adj
}

/// A few rounds of neighbor averaging, re-centered and re-scaled each
/// round so the vector converges toward the dominant non-constant mode
/// of the affinity graph (a cheap Fiedler-style ordering).
fn diffuse(adj: &[Vec<(usize, f64)>], seed: &[f64], rounds: usize) -> Vec<f64> {
    let n = seed.len();
    let mut x = seed.to_vec();
    for _ in 0..rounds {
        let mut y = vec![0.0; n];
        for p in 0..n {
            let wsum: f64 = adj[p].iter().map(|&(_, w)| w).sum();
            if wsum == 0.0 {
                y[p] = x[p];
            } else {
                let avg: f64 = adj[p].iter().map(|&(q, w)| w * x[q]).sum::<f64>() / wsum;
                y[p] = 0.5 * x[p] + 0.5 * avg;
            }
        }
        let mean = y.iter().sum::<f64>() / n as f64;
        for v in &mut y {
            *v -= mean;
        }
        let norm = y.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm < 1e-12 {
            return x; // fully degenerate: keep the previous ordering
        }
        // Preserve the seed's scale so tie-break epsilons stay tiny.
        for v in &mut y {
            *v /= norm;
        }
        x = y;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perimeter_points_lie_on_boundary() {
        let core = Rect::new(0.0, 0.0, 100.0, 60.0);
        for n in [1, 2, 5, 16] {
            let pts = perimeter_points(core, n);
            assert_eq!(pts.len(), n);
            for p in pts {
                let on_x = (p.x - core.llx).abs() < 1e-9 || (p.x - core.urx).abs() < 1e-9;
                let on_y = (p.y - core.lly).abs() < 1e-9 || (p.y - core.ury).abs() < 1e-9;
                assert!(on_x || on_y, "{p:?} not on boundary");
                assert!(core.contains(p));
            }
        }
    }

    #[test]
    fn perimeter_points_are_distinct() {
        let core = Rect::new(0.0, 0.0, 10.0, 10.0);
        let pts = perimeter_points(core, 8);
        for i in 0..8 {
            for j in i + 1..8 {
                assert!(pts[i].manhattan(pts[j]) > 1e-9, "duplicate slots {i},{j}");
            }
        }
    }

    #[test]
    fn connected_pads_gravitate_together() {
        // Pads 0..4 (interleaved with 4..8 in declaration order) feed
        // module 0; pads 4..8 feed module 1. The two modules are
        // unconnected, so each group should occupy a contiguous arc of
        // the boundary rather than stay interleaved.
        let core = Rect::new(0.0, 0.0, 100.0, 100.0);
        let mut nets = Vec::new();
        let group = |pad: usize| usize::from(pad % 2 == 1); // interleaved declaration
        for pad in 0..8 {
            nets.push(vec![PinRef::Fixed(pad), PinRef::Movable(group(pad))]);
        }
        let problem = PlacementProblem { movable: 2, fixed: vec![Point::default(); 8], nets };
        let pads = assign_pads(&problem, core);
        // Order the pads around the boundary by angle and check each
        // group is cyclically contiguous.
        let mut by_angle: Vec<usize> = (0..8).collect();
        by_angle.sort_by(|&a, &b| {
            angle_from_center(core, pads[a]).partial_cmp(&angle_from_center(core, pads[b])).unwrap()
        });
        let groups: Vec<usize> = by_angle.iter().map(|&p| group(p)).collect();
        // Count group changes around the cycle: contiguous groups change
        // exactly twice.
        let changes = (0..8).filter(|&i| groups[i] != groups[(i + 1) % 8]).count();
        assert_eq!(changes, 2, "groups interleaved on boundary: {groups:?}");
    }

    #[test]
    fn supplied_interior_matches_internal_solve() {
        // Feeding the internal solve's own positions through the
        // external entry point must reproduce assign_pads exactly.
        let core = Rect::new(0.0, 0.0, 100.0, 100.0);
        let mut nets = Vec::new();
        for pad in 0..8 {
            nets.push(vec![PinRef::Fixed(pad), PinRef::Movable(pad % 3)]);
        }
        let problem = PlacementProblem { movable: 3, fixed: vec![Point::default(); 8], nets };
        let seed = perimeter_points(core, 8);
        let seeded = PlacementProblem { fixed: seed, ..problem.clone() };
        let interior = crate::quadratic::try_solve_quadratic(&seeded, &[], &[]).unwrap().positions;
        assert_eq!(
            assign_pads_with_interior(&problem, core, &interior),
            assign_pads(&problem, core)
        );
    }

    #[test]
    fn bad_interior_falls_back_to_uniform_seed() {
        let core = Rect::new(0.0, 0.0, 10.0, 10.0);
        let problem = PlacementProblem {
            movable: 2,
            fixed: vec![Point::default(); 4],
            nets: vec![vec![PinRef::Fixed(0), PinRef::Movable(0)]],
        };
        let seed = perimeter_points(core, 4);
        // Wrong length and NaN positions both fall back to the seed.
        assert_eq!(assign_pads_with_interior(&problem, core, &[Point::default()]), seed);
        let nan = vec![Point::new(f64::NAN, 0.0), Point::default()];
        assert_eq!(assign_pads_with_interior(&problem, core, &nan), seed);
    }

    /// The original pair count: pads of each module by inverting the
    /// per-pad module lists, pairs tallied in an ordered map.
    fn reference_affinity(problem: &PlacementProblem) -> Vec<Vec<(usize, f64)>> {
        let n_pads = problem.fixed.len();
        let mut modules_of_pad: Vec<Vec<usize>> = vec![Vec::new(); n_pads];
        for net in &problem.nets {
            let pads: Vec<usize> = net
                .iter()
                .filter_map(|p| match p {
                    PinRef::Fixed(i) => Some(*i),
                    PinRef::Movable(_) => None,
                })
                .collect();
            for pin in net {
                if let PinRef::Movable(m) = pin {
                    for &pad in &pads {
                        modules_of_pad[pad].push(*m);
                    }
                }
            }
        }
        let mut pads_of_module: Vec<Vec<usize>> = vec![Vec::new(); problem.movable];
        for (pad, mods) in modules_of_pad.iter().enumerate() {
            for &m in mods {
                pads_of_module[m].push(pad);
            }
        }
        let mut weight = std::collections::BTreeMap::new();
        for pads in &pads_of_module {
            for i in 0..pads.len() {
                for j in i + 1..pads.len() {
                    let (a, b) = (pads[i].min(pads[j]), pads[i].max(pads[j]));
                    if a != b {
                        *weight.entry((a, b)).or_insert(0.0) += 1.0;
                    }
                }
            }
        }
        let mut adj: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n_pads];
        for ((a, b), w) in weight {
            adj[a].push((b, w));
            adj[b].push((a, w));
        }
        adj
    }

    #[test]
    fn affinity_matches_the_ordered_map_count() {
        // Random problems with multi-pad nets, repeated pins, pad-only
        // nets, and modules reaching one pad through several nets.
        let mut rng = lily_netlist::sim::XorShift64::new(0xaff1);
        for round in 0..40 {
            let movable = 1 + rng.gen_index(12);
            let n_pads = 1 + rng.gen_index(10);
            let nets: Vec<Vec<PinRef>> = (0..rng.gen_index(4 * (round + 1)))
                .map(|_| {
                    (0..2 + rng.gen_index(5))
                        .map(|_| {
                            if rng.gen_index(3) == 0 {
                                PinRef::Fixed(rng.gen_index(n_pads))
                            } else {
                                PinRef::Movable(rng.gen_index(movable))
                            }
                        })
                        .collect()
                })
                .collect();
            let problem = PlacementProblem { movable, fixed: vec![Point::default(); n_pads], nets };
            let got = pad_affinity(&problem, &NetPads::new(&problem));
            assert_eq!(got, reference_affinity(&problem), "round {round}");
        }
    }

    #[test]
    fn pad_count_is_preserved() {
        let core = Rect::new(0.0, 0.0, 10.0, 10.0);
        let problem = PlacementProblem {
            movable: 1,
            fixed: vec![Point::default(); 5],
            nets: vec![vec![PinRef::Fixed(0), PinRef::Movable(0)]],
        };
        let pads = assign_pads(&problem, core);
        assert_eq!(pads.len(), 5);
        assert!(assign_pads(&PlacementProblem { movable: 0, fixed: vec![], nets: vec![] }, core)
            .is_empty());
    }
}
