//! Quadratic placement: minimize the squared-Euclidean wire length of a
//! hypergraph with fixed pads.
//!
//! Each net is expanded into a clique of 2-pin springs with weight
//! `2 / |net|` (the standard clique model), which makes the objective
//! separable in x and y; each axis is an SPD linear system solved by
//! conjugate gradients.

use crate::error::PlaceError;
use crate::geom::Point;
use crate::sparse::{cg_solve_under, CsrBuilder};
use lily_fault::CancelToken;

/// A pin of a placement net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PinRef {
    /// A movable module, by index.
    Movable(usize),
    /// A fixed location (pad), by index into
    /// [`PlacementProblem::fixed`].
    Fixed(usize),
}

/// A placement instance: movable modules, fixed pads, and hypernets.
#[derive(Debug, Clone, Default)]
pub struct PlacementProblem {
    /// Number of movable modules.
    pub movable: usize,
    /// Fixed pad positions.
    pub fixed: Vec<Point>,
    /// Nets, each a list of at least two pins.
    pub nets: Vec<Vec<PinRef>>,
}

impl PlacementProblem {
    /// Validates indices.
    ///
    /// # Errors
    ///
    /// [`PlaceError::InvalidProblem`] naming the first defective net.
    pub fn validate(&self) -> Result<(), PlaceError> {
        let invalid = |message: String| PlaceError::InvalidProblem { message };
        for (ni, net) in self.nets.iter().enumerate() {
            if net.len() < 2 {
                return Err(invalid(format!("net {ni} has fewer than two pins")));
            }
            for pin in net {
                match *pin {
                    PinRef::Movable(i) if i >= self.movable => {
                        return Err(invalid(format!("net {ni}: movable index {i} out of range")))
                    }
                    PinRef::Fixed(i) if i >= self.fixed.len() => {
                        return Err(invalid(format!("net {ni}: fixed index {i} out of range")))
                    }
                    _ => {}
                }
            }
        }
        Ok(())
    }

    /// Total squared-Euclidean objective of a candidate placement under
    /// the clique model (for tests and convergence tracking).
    pub fn quadratic_cost(&self, positions: &[Point]) -> f64 {
        let pos = |p: &PinRef| match *p {
            PinRef::Movable(i) => positions[i],
            PinRef::Fixed(i) => self.fixed[i],
        };
        let mut cost = 0.0;
        for net in &self.nets {
            let w = 2.0 / net.len() as f64;
            for i in 0..net.len() {
                for j in i + 1..net.len() {
                    let a = pos(&net[i]);
                    let b = pos(&net[j]);
                    cost += w * ((a.x - b.x).powi(2) + (a.y - b.y).powi(2));
                }
            }
        }
        cost
    }
}

/// An extra spring pulling one movable module toward a fixed point
/// (used by the partitioning placer to enforce region assignment).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Anchor {
    /// The movable module.
    pub module: usize,
    /// Target location.
    pub target: Point,
    /// Spring weight.
    pub weight: f64,
}

/// A quadratic-placement solution with the solver evidence attached.
#[derive(Debug, Clone, PartialEq)]
pub struct QuadraticSolve {
    /// Solved module positions.
    pub positions: Vec<Point>,
    /// Total conjugate-gradient iterations spent (both axes).
    pub iterations: usize,
    /// Worst relative residual across the two axis solves.
    pub residual: f64,
    /// Whether both axis solves converged to tolerance.
    pub converged: bool,
}

/// Relative residual above which an unconverged quadratic solve is
/// rejected as diverged (placement only needs a few digits; a stalled
/// solve at 1e-6 is still a fine point placement).
const ACCEPTABLE_RESIDUAL: f64 = 1e-3;

/// Fallible quadratic placement: validates the problem, checks every
/// fixed pad and anchor for finite coordinates, and verifies the
/// conjugate-gradient solves produced a finite, usably-converged
/// solution.
///
/// Modules with no connectivity at all sit at the centroid of the fixed
/// pads (the Laplacian row is regularized with a tiny anchor there).
/// Start from `warm` (pass an empty slice for a cold start at the pad
/// centroid). The calling thread's ambient cancellation token is
/// polled once per CG iteration.
///
/// # Errors
///
/// * [`PlaceError::InvalidProblem`] — validation failure.
/// * [`PlaceError::NonFinite`] — a pad or anchor coordinate (or weight)
///   is NaN/∞.
/// * [`PlaceError::SolverDiverged`] — CG blew up or stalled with a
///   relative residual above `1e-3`.
/// * [`PlaceError::Cancelled`] — the ambient token tripped mid-solve.
pub fn try_solve_quadratic(
    problem: &PlacementProblem,
    anchors: &[Anchor],
    warm: &[Point],
) -> Result<QuadraticSolve, PlaceError> {
    try_solve_quadratic_under(problem, anchors, warm, &lily_fault::ambient_token())
}

/// [`try_solve_quadratic`] polling `cancel`: the body the placers call
/// with the token their public entry point snapshot.
pub(crate) fn try_solve_quadratic_under(
    problem: &PlacementProblem,
    anchors: &[Anchor],
    warm: &[Point],
    cancel: &CancelToken,
) -> Result<QuadraticSolve, PlaceError> {
    let (solve, finite) = solve_axes(problem, anchors, warm, cancel)?;
    let usable = finite && solve.residual.is_finite() && solve.residual <= ACCEPTABLE_RESIDUAL;
    if !usable {
        return Err(PlaceError::SolverDiverged {
            solver: "conjugate-gradient",
            iterations: solve.iterations,
            residual: solve.residual,
        });
    }
    Ok(solve)
}

/// Weight of the whisper-weight anchor every module gets at the pad
/// centroid, so isolated components stay solvable.
pub(crate) const REGULARIZATION: f64 = 1e-6;

/// The centroid of the pads (the origin when there are none): where
/// unconnected modules settle and cold starts begin.
pub(crate) fn pad_centroid(fixed: &[Point]) -> Point {
    if fixed.is_empty() {
        Point::new(0.0, 0.0)
    } else {
        let sx: f64 = fixed.iter().map(|p| p.x).sum();
        let sy: f64 = fixed.iter().map(|p| p.y).sum();
        Point::new(sx / fixed.len() as f64, sy / fixed.len() as f64)
    }
}

/// Body of the quadratic entry points: builds the clique Laplacian and
/// runs both axis CG solves with a `4n + 200` iteration budget. Returns
/// the solve plus a flag telling whether every solved coordinate is
/// finite; the acceptance policy is the caller's.
fn solve_axes(
    problem: &PlacementProblem,
    anchors: &[Anchor],
    warm: &[Point],
    cancel: &CancelToken,
) -> Result<(QuadraticSolve, bool), PlaceError> {
    problem.validate()?;
    let n = problem.movable;
    if n == 0 {
        let empty =
            QuadraticSolve { positions: Vec::new(), iterations: 0, residual: 0.0, converged: true };
        return Ok((empty, true));
    }
    if !problem.fixed.iter().all(|p| p.x.is_finite() && p.y.is_finite()) {
        return Err(PlaceError::NonFinite { context: "pad coordinates" });
    }
    if !anchors
        .iter()
        .all(|a| a.target.x.is_finite() && a.target.y.is_finite() && a.weight.is_finite())
    {
        return Err(PlaceError::NonFinite { context: "anchor targets" });
    }
    let centroid = pad_centroid(&problem.fixed);

    let mut builder = CsrBuilder::new(n);
    let mut bx = vec![0.0; n];
    let mut by = vec![0.0; n];

    for net in &problem.nets {
        let w = 2.0 / net.len() as f64;
        for i in 0..net.len() {
            for j in i + 1..net.len() {
                match (net[i], net[j]) {
                    (PinRef::Movable(a), PinRef::Movable(b)) => {
                        if a != b {
                            builder.add_spring(a, b, w);
                        }
                    }
                    (PinRef::Movable(a), PinRef::Fixed(f))
                    | (PinRef::Fixed(f), PinRef::Movable(a)) => {
                        builder.add_anchor(a, w);
                        bx[a] += w * problem.fixed[f].x;
                        by[a] += w * problem.fixed[f].y;
                    }
                    (PinRef::Fixed(_), PinRef::Fixed(_)) => {}
                }
            }
        }
    }
    for a in anchors {
        builder.add_anchor(a.module, a.weight);
        bx[a.module] += a.weight * a.target.x;
        by[a.module] += a.weight * a.target.y;
    }
    for i in 0..n {
        builder.add_anchor(i, REGULARIZATION);
        bx[i] += REGULARIZATION * centroid.x;
        by[i] += REGULARIZATION * centroid.y;
    }

    let a = builder.build();
    let warm_ok = warm.len() == n && warm.iter().all(|p| p.x.is_finite() && p.y.is_finite());
    let (x0, y0): (Vec<f64>, Vec<f64>) = if warm_ok {
        (warm.iter().map(|p| p.x).collect(), warm.iter().map(|p| p.y).collect())
    } else {
        (vec![centroid.x; n], vec![centroid.y; n])
    };
    let max_iter = 4 * n + 200;
    let cancelled = |_| PlaceError::Cancelled { context: "conjugate-gradient" };
    let sx = cg_solve_under(&a, &bx, &x0, 1e-8, max_iter, cancel).map_err(cancelled)?;
    let sy = cg_solve_under(&a, &by, &y0, 1e-8, max_iter, cancel).map_err(cancelled)?;
    let iterations = sx.iterations + sy.iterations;
    let residual = sx.residual.max(sy.residual);
    let finite = sx.x.iter().all(|v| v.is_finite()) && sy.x.iter().all(|v| v.is_finite());
    let solve = QuadraticSolve {
        positions: sx.x.into_iter().zip(sy.x).map(|(x, y)| Point::new(x, y)).collect(),
        iterations,
        residual,
        converged: sx.converged && sy.converged,
    };
    Ok((solve, finite))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve_quadratic(p: &PlacementProblem, anchors: &[Anchor], warm: &[Point]) -> Vec<Point> {
        try_solve_quadratic(p, anchors, warm).expect("quadratic placement failed").positions
    }

    #[test]
    fn single_module_between_two_pads() {
        let p = PlacementProblem {
            movable: 1,
            fixed: vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)],
            nets: vec![
                vec![PinRef::Movable(0), PinRef::Fixed(0)],
                vec![PinRef::Movable(0), PinRef::Fixed(1)],
            ],
        };
        let pos = solve_quadratic(&p, &[], &[]);
        assert!((pos[0].x - 5.0).abs() < 1e-6, "{:?}", pos);
        assert!(pos[0].y.abs() < 1e-6);
    }

    #[test]
    fn chain_spreads_between_pads() {
        // pad0 - m0 - m1 - m2 - pad1 with equal springs: even spacing.
        let p = PlacementProblem {
            movable: 3,
            fixed: vec![Point::new(0.0, 0.0), Point::new(8.0, 0.0)],
            nets: vec![
                vec![PinRef::Fixed(0), PinRef::Movable(0)],
                vec![PinRef::Movable(0), PinRef::Movable(1)],
                vec![PinRef::Movable(1), PinRef::Movable(2)],
                vec![PinRef::Movable(2), PinRef::Fixed(1)],
            ],
        };
        let pos = solve_quadratic(&p, &[], &[]);
        assert!((pos[0].x - 2.0).abs() < 1e-4, "{:?}", pos);
        assert!((pos[1].x - 4.0).abs() < 1e-4);
        assert!((pos[2].x - 6.0).abs() < 1e-4);
    }

    #[test]
    fn anchors_pull_modules() {
        let p = PlacementProblem {
            movable: 1,
            fixed: vec![Point::new(0.0, 0.0)],
            nets: vec![vec![PinRef::Movable(0), PinRef::Fixed(0)]],
        };
        let strong = Anchor { module: 0, target: Point::new(10.0, 10.0), weight: 100.0 };
        let pos = solve_quadratic(&p, &[strong], &[]);
        assert!(pos[0].x > 9.0 && pos[0].y > 9.0, "{:?}", pos);
    }

    #[test]
    fn disconnected_module_sits_at_centroid() {
        let p = PlacementProblem {
            movable: 2,
            fixed: vec![Point::new(0.0, 0.0), Point::new(10.0, 10.0)],
            nets: vec![vec![PinRef::Movable(0), PinRef::Fixed(0)]],
        };
        let pos = solve_quadratic(&p, &[], &[]);
        // Module 1 has no nets: regularized to the pad centroid.
        assert!((pos[1].x - 5.0).abs() < 1e-3 && (pos[1].y - 5.0).abs() < 1e-3);
    }

    #[test]
    fn validation_errors() {
        let p =
            PlacementProblem { movable: 1, fixed: vec![], nets: vec![vec![PinRef::Movable(0)]] };
        assert!(p.validate().is_err());
        let p2 = PlacementProblem {
            movable: 1,
            fixed: vec![],
            nets: vec![vec![PinRef::Movable(0), PinRef::Movable(5)]],
        };
        assert!(p2.validate().is_err());
    }

    #[test]
    fn quadratic_cost_decreases_at_optimum() {
        let p = PlacementProblem {
            movable: 1,
            fixed: vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)],
            nets: vec![
                vec![PinRef::Movable(0), PinRef::Fixed(0)],
                vec![PinRef::Movable(0), PinRef::Fixed(1)],
            ],
        };
        let opt = solve_quadratic(&p, &[], &[]);
        let bad = vec![Point::new(0.0, 7.0)];
        assert!(p.quadratic_cost(&opt) < p.quadratic_cost(&bad));
    }

    #[test]
    fn cancelled_token_stops_the_solve() {
        let p = PlacementProblem {
            movable: 2,
            fixed: vec![Point::new(0.0, 0.0), Point::new(8.0, 0.0)],
            nets: vec![
                vec![PinRef::Fixed(0), PinRef::Movable(0)],
                vec![PinRef::Movable(0), PinRef::Movable(1)],
                vec![PinRef::Movable(1), PinRef::Fixed(1)],
            ],
        };
        let token = CancelToken::new();
        token.cancel();
        let got = {
            let _scope = lily_fault::set_ambient(token);
            try_solve_quadratic(&p, &[], &[])
        };
        assert!(
            matches!(got, Err(PlaceError::Cancelled { context: "conjugate-gradient" })),
            "{got:?}"
        );
        // Outside the cancelled scope the ambient token never trips.
        assert!(try_solve_quadratic(&p, &[], &[]).is_ok());
    }
}
