//! Balanced global placement by quadratic optimization and recursive
//! bi-partitioning (GORDIAN-style, the paper's reference \[21\]).
//!
//! The loop alternates a global quadratic solve with a partitioning step
//! that halves every oversized region by module count along its wider
//! axis, then re-solves with anchor springs pulling each module toward
//! its region's center. The result is the *balanced point placement*
//! Lily needs: uniform module density with the connectivity structure of
//! the network preserved (paper Section 3.1 explains why detailed
//! placement would be premature here).

use crate::error::PlaceError;
use crate::geom::{Point, Rect};
use crate::quadratic::{try_solve_quadratic_under, Anchor, PlacementProblem};
use lily_fault::CancelToken;

/// Stop partitioning when a region holds at most this many modules
/// (the paper's "user-specified parameter"; 1 plus row assignment
/// would amount to a detailed placement).
const MIN_REGION: usize = 4;

/// Anchor spring weight at level 0; doubles each level.
const ANCHOR_WEIGHT: f64 = 0.02;

/// Hard cap on partitioning levels.
const MAX_LEVELS: usize = 12;

/// The result of global placement.
#[derive(Debug, Clone)]
pub struct GlobalPlacement {
    /// Final module positions (inside the core region).
    pub positions: Vec<Point>,
    /// Leaf regions and the modules assigned to each.
    pub regions: Vec<(Rect, Vec<usize>)>,
    /// Number of solve/partition rounds performed.
    pub levels: usize,
    /// Total conjugate-gradient iterations spent across all rounds (the
    /// budget-spend report of the resource guard).
    pub cg_iterations: usize,
}

/// Fallible balanced global placement into the core `region`. See the
/// module docs for the algorithm.
///
/// The partitioning depth is already capped at 12 levels; each
/// quadratic solve is additionally guarded by the conjugate-gradient
/// iteration budget and NaN detection of [`try_solve_quadratic`](crate::quadratic::try_solve_quadratic), and
/// the region the solver must place into is checked for finite
/// geometry up front. The calling thread's
/// ambient cancellation token is polled once per CG iteration and once
/// per partitioning level.
///
/// # Errors
///
/// * [`PlaceError::InvalidProblem`] — the problem fails validation.
/// * [`PlaceError::NonFinite`] — the core region or a pad coordinate is
///   NaN/∞.
/// * [`PlaceError::SolverDiverged`] — a quadratic solve diverged.
/// * [`PlaceError::Cancelled`] — the ambient token tripped.
pub fn try_global_place(
    problem: &PlacementProblem,
    region: Rect,
) -> Result<GlobalPlacement, PlaceError> {
    try_global_place_under(problem, region, &lily_fault::ambient_token())
}

/// [`try_global_place`] polling `cancel`: the body the multilevel
/// placer calls with the token its public entry point snapshot.
pub(crate) fn try_global_place_under(
    problem: &PlacementProblem,
    region: Rect,
    cancel: &CancelToken,
) -> Result<GlobalPlacement, PlaceError> {
    let n = problem.movable;
    if n == 0 {
        return Ok(GlobalPlacement {
            positions: Vec::new(),
            regions: Vec::new(),
            levels: 0,
            cg_iterations: 0,
        });
    }
    let r = region;
    if ![r.llx, r.lly, r.urx, r.ury].iter().all(|v| v.is_finite()) {
        return Err(PlaceError::NonFinite { context: "core region" });
    }
    let mut cg_iterations = 0usize;
    let first = try_solve_quadratic_under(problem, &[], &[], cancel)?;
    cg_iterations += first.iterations;
    let mut positions = first.positions;
    let mut regions: Vec<(Rect, Vec<usize>)> = vec![(region, (0..n).collect())];
    let mut level = 0usize;

    while level < MAX_LEVELS && regions.iter().any(|(_, m)| m.len() > MIN_REGION) {
        let mut next: Vec<(Rect, Vec<usize>)> = Vec::with_capacity(regions.len() * 2);
        for (rect, modules) in &regions {
            if modules.len() <= MIN_REGION {
                next.push((*rect, modules.clone()));
                continue;
            }
            // Cut perpendicular to the wider side, splitting modules at
            // the median of their current coordinates.
            let axis = if rect.width() >= rect.height() { 0 } else { 1 };
            let mut sorted = modules.clone();
            sorted.sort_by(|&a, &b| {
                let ka = if axis == 0 { positions[a].x } else { positions[a].y };
                let kb = if axis == 0 { positions[b].x } else { positions[b].y };
                ka.partial_cmp(&kb).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b))
            });
            let half = sorted.len() / 2;
            let (lo, hi) = rect.split(axis);
            next.push((lo, sorted[..half].to_vec()));
            next.push((hi, sorted[half..].to_vec()));
        }
        regions = next;
        level += 1;

        let w = ANCHOR_WEIGHT * (1 << level.min(20)) as f64;
        let mut anchors = Vec::with_capacity(n);
        for (rect, modules) in &regions {
            let c = rect.center();
            for &m in modules {
                anchors.push(Anchor { module: m, target: c, weight: w });
            }
        }
        if cancel.is_cancelled() {
            return Err(PlaceError::Cancelled { context: "global-placement" });
        }
        let solve = try_solve_quadratic_under(problem, &anchors, &positions, cancel)?;
        cg_iterations += solve.iterations;
        positions = solve.positions;
    }

    // Keep every module inside its assigned region (the solve is
    // unconstrained, anchors only pull).
    for (rect, modules) in &regions {
        for &m in modules {
            positions[m] = rect.clamp(positions[m]);
        }
    }
    Ok(GlobalPlacement { positions, regions, levels: level, cg_iterations })
}

/// A coarse balance metric: the ratio of the most-loaded to the
/// least-loaded quadrant of the core (1.0 is perfectly balanced). Used
/// by tests and the placement benches.
pub fn quadrant_balance(positions: &[Point], core: Rect) -> f64 {
    let c = core.center();
    let mut counts = [0usize; 4];
    for p in positions {
        let q = (usize::from(p.x > c.x)) | (usize::from(p.y > c.y) << 1);
        counts[q] += 1;
    }
    let max = *counts.iter().max().unwrap_or(&0) as f64;
    let min = *counts.iter().min().unwrap_or(&0) as f64;
    if min == 0.0 {
        f64::INFINITY
    } else {
        max / min
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quadratic::PinRef;

    fn global_place(problem: &PlacementProblem, region: Rect) -> GlobalPlacement {
        try_global_place(problem, region).expect("global placement failed")
    }

    /// A 2D grid graph with pads on four corners: a placement whose
    /// natural solution spreads over the whole region.
    fn grid_problem(side: usize, core: Rect) -> PlacementProblem {
        let idx = |r: usize, c: usize| r * side + c;
        let mut nets = Vec::new();
        for r in 0..side {
            for c in 0..side {
                if c + 1 < side {
                    nets.push(vec![PinRef::Movable(idx(r, c)), PinRef::Movable(idx(r, c + 1))]);
                }
                if r + 1 < side {
                    nets.push(vec![PinRef::Movable(idx(r, c)), PinRef::Movable(idx(r + 1, c))]);
                }
            }
        }
        let fixed = vec![
            Point::new(core.llx, core.lly),
            Point::new(core.urx, core.lly),
            Point::new(core.llx, core.ury),
            Point::new(core.urx, core.ury),
        ];
        nets.push(vec![PinRef::Fixed(0), PinRef::Movable(idx(0, 0))]);
        nets.push(vec![PinRef::Fixed(1), PinRef::Movable(idx(0, side - 1))]);
        nets.push(vec![PinRef::Fixed(2), PinRef::Movable(idx(side - 1, 0))]);
        nets.push(vec![PinRef::Fixed(3), PinRef::Movable(idx(side - 1, side - 1))]);
        PlacementProblem { movable: side * side, fixed, nets }
    }

    #[test]
    fn placement_is_balanced_and_inside() {
        let core = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        let p = grid_problem(8, core);
        let g = global_place(&p, core);
        assert_eq!(g.positions.len(), 64);
        for pt in &g.positions {
            assert!(core.contains(*pt), "{pt:?} outside core");
        }
        let balance = quadrant_balance(&g.positions, core);
        assert!(balance <= 1.5, "quadrant balance {balance}");
    }

    #[test]
    fn partitioning_bounds_region_occupancy() {
        let core = Rect::new(0.0, 0.0, 100.0, 100.0);
        let p = grid_problem(6, core);
        let g = global_place(&p, core);
        for (_, modules) in &g.regions {
            assert!(modules.len() <= MIN_REGION, "region holds {}", modules.len());
        }
        // Every module assigned exactly once.
        let mut seen = vec![false; p.movable];
        for (_, modules) in &g.regions {
            for &m in modules {
                assert!(!seen[m]);
                seen[m] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn connectivity_is_respected() {
        // Two clusters each tied to opposite pads end up on opposite
        // sides.
        let core = Rect::new(0.0, 0.0, 100.0, 100.0);
        let mut nets = Vec::new();
        for i in 0..4 {
            nets.push(vec![PinRef::Fixed(0), PinRef::Movable(i)]);
            nets.push(vec![PinRef::Fixed(1), PinRef::Movable(4 + i)]);
        }
        // Intra-cluster cliques.
        for i in 0..4 {
            for j in i + 1..4 {
                nets.push(vec![PinRef::Movable(i), PinRef::Movable(j)]);
                nets.push(vec![PinRef::Movable(4 + i), PinRef::Movable(4 + j)]);
            }
        }
        let p = PlacementProblem {
            movable: 8,
            fixed: vec![Point::new(0.0, 50.0), Point::new(100.0, 50.0)],
            nets,
        };
        let g = global_place(&p, core);
        for i in 0..4 {
            assert!(
                g.positions[i].x < g.positions[4 + i].x,
                "cluster separation violated: {:?}",
                g.positions
            );
        }
    }

    #[test]
    fn empty_problem() {
        let core = Rect::new(0.0, 0.0, 10.0, 10.0);
        let g = global_place(&PlacementProblem::default(), core);
        assert!(g.positions.is_empty());
    }

    #[test]
    fn quadrant_balance_metric() {
        let core = Rect::new(0.0, 0.0, 10.0, 10.0);
        let even = vec![
            Point::new(2.0, 2.0),
            Point::new(8.0, 2.0),
            Point::new(2.0, 8.0),
            Point::new(8.0, 8.0),
        ];
        assert!((quadrant_balance(&even, core) - 1.0).abs() < 1e-12);
        let lopsided = vec![Point::new(2.0, 2.0); 4];
        assert!(quadrant_balance(&lopsided, core).is_infinite());
    }
}
