//! Dynamic placement-position updates for candidate matches
//! (paper Section 3.2).
//!
//! When match `m` is evaluated at node `v`, the prospective gate needs a
//! position before wire lengths can be estimated:
//!
//! * **CM-of-Merged** — the center of mass of the `placePositions` of
//!   the nodes merged into the match. Always refers back to the
//!   balanced global placement, so the evolving placement stays
//!   balanced, at the cost of pessimistic wire estimates.
//! * **CM-of-Fans** — the position minimizing wire length to the
//!   match's fanins and fanouts. The exact solution under the Manhattan
//!   norm is the separable median over the fanin/fanout rectangle
//!   corners; under the Euclidean norm the paper approximates each
//!   rectangle by its center and takes the center of mass. Both are
//!   provided ([`PositionUpdate::MedianFans`] and
//!   [`PositionUpdate::CmFans`]).

use lily_place::{Point, Rect};

/// Which dynamic position-update rule the Lily mapper uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PositionUpdate {
    /// Center of mass of the merged nodes' `placePositions`.
    CmMerged,
    /// Center of mass of the fanin/fanout rectangle centers (the
    /// paper's Euclidean approximation; their reported configuration).
    #[default]
    CmFans,
    /// Exact Manhattan-median of the fanin/fanout rectangle corners
    /// (the paper's separable `Σ|x_i − x|` solution).
    MedianFans,
}

/// Center of mass of a point set; `fallback` when empty.
pub fn center_of_mass(points: &[Point], fallback: Point) -> Point {
    if points.is_empty() {
        return fallback;
    }
    let n = points.len() as f64;
    Point::new(
        points.iter().map(|p| p.x).sum::<f64>() / n,
        points.iter().map(|p| p.y).sum::<f64>() / n,
    )
}

/// The point minimizing the sum of Manhattan distances to a set of
/// rectangles: per axis, the median of the rectangles' low and high
/// coordinates (paper Section 3.2: *"the solution is the median point
/// for the sorted list of x_i's"*). `fallback` when empty.
pub fn manhattan_median(rects: &[Rect], fallback: Point) -> Point {
    manhattan_median_with(rects, fallback, &mut Vec::new(), &mut Vec::new())
}

/// [`manhattan_median`] sorting in the caller-owned coordinate buffers
/// `xs` and `ys` (overwritten).
pub fn manhattan_median_with(
    rects: &[Rect],
    fallback: Point,
    xs: &mut Vec<f64>,
    ys: &mut Vec<f64>,
) -> Point {
    if rects.is_empty() {
        return fallback;
    }
    xs.clear();
    xs.extend(rects.iter().flat_map(|r| [r.llx, r.urx]));
    ys.clear();
    ys.extend(rects.iter().flat_map(|r| [r.lly, r.ury]));
    Point::new(median(xs), median(ys))
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Sum of Manhattan distances from `p` to each rectangle (the objective
/// [`manhattan_median`] minimizes); exposed for tests and experiments.
pub fn rect_distance_sum(rects: &[Rect], p: Point) -> f64 {
    rects.iter().map(|r| r.manhattan_dist(p)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn center_of_mass_basics() {
        let pts = [Point::new(0.0, 0.0), Point::new(10.0, 0.0), Point::new(5.0, 6.0)];
        let c = center_of_mass(&pts, Point::default());
        assert!((c.x - 5.0).abs() < 1e-12);
        assert!((c.y - 2.0).abs() < 1e-12);
        assert_eq!(center_of_mass(&[], Point::new(1.0, 2.0)), Point::new(1.0, 2.0));
    }

    #[test]
    fn median_of_point_rects_is_pointwise_median() {
        let rects: Vec<Rect> =
            [1.0, 5.0, 9.0].iter().map(|&x| Rect::at(Point::new(x, x))).collect();
        let m = manhattan_median(&rects, Point::default());
        assert_eq!(m, Point::new(5.0, 5.0));
    }

    #[test]
    fn median_is_optimal_for_rect_distance() {
        // Compare the median against a grid of alternatives.
        let rects = vec![
            Rect::new(0.0, 0.0, 2.0, 2.0),
            Rect::new(8.0, 1.0, 10.0, 4.0),
            Rect::new(3.0, 7.0, 5.0, 9.0),
        ];
        let m = manhattan_median(&rects, Point::default());
        let best = rect_distance_sum(&rects, m);
        for x in 0..=10 {
            for y in 0..=10 {
                let p = Point::new(x as f64, y as f64);
                assert!(
                    best <= rect_distance_sum(&rects, p) + 1e-9,
                    "median {m:?} beaten by {p:?}"
                );
            }
        }
    }

    #[test]
    fn median_inside_single_rect_costs_zero() {
        let rects = vec![Rect::new(0.0, 0.0, 4.0, 4.0)];
        let m = manhattan_median(&rects, Point::default());
        assert_eq!(rect_distance_sum(&rects, m), 0.0);
    }

    #[test]
    fn fallbacks_on_empty_input() {
        let f = Point::new(3.0, 4.0);
        assert_eq!(manhattan_median(&[], f), f);
    }
}
