//! Rectilinear (Manhattan) minimum spanning trees.
//!
//! The paper's alternative wiring model (Section 3.4): *"finding the
//! rectilinear spanning tree connecting all pins on a given net"*. Nets
//! in this code base have at most a few hundred pins, so Prim's O(n²)
//! algorithm with dense distance evaluation is the right tool.
//!
//! The iterated 1-Steiner heuristic in [`crate::rsmt`] scores every
//! Hanan candidate with this plain spanning-tree length over the pins
//! plus the Steiner points added so far. Steiner points are never
//! pruned: one whose tree degree later drops to 1 or 2 keeps its edges
//! in the total.

use lily_place::Point;

/// Length of the rectilinear minimum spanning tree over `pins`.
/// Zero for fewer than two pins.
pub fn rst_length(pins: &[Point]) -> f64 {
    rst_length_with(pins, &mut PrimScratch::default())
}

/// Reusable buffers for [`crate::net_length_with`] and the spanning
/// trees of [`crate::rsmt_length_with`]: Prim's state and the tree's
/// edge lengths in pick order.
#[derive(Debug, Clone, Default)]
pub struct PrimScratch {
    prim: Prim,
    edge_len: Vec<f64>,
}

/// [`rst_length`] over caller-owned buffers.
///
/// Sums the edge lengths in pick order, the order [`rst_edges`] lists
/// the edges, so the result is bit-identical to summing over
/// [`rst_edges`]. A picked vertex's best distance *is* its edge length:
/// both are `pins[parent].manhattan(pins[child])`.
pub(crate) fn rst_length_with(pins: &[Point], scratch: &mut PrimScratch) -> f64 {
    let PrimScratch { prim, edge_len } = scratch;
    edge_len.clear();
    prim.run(pins, |_, _, d| edge_len.push(d));
    edge_len.iter().sum()
}

/// The edge list `(parent, child)` of a rectilinear MST over `pins`
/// (Prim's algorithm from pin 0). Empty for fewer than two pins.
pub fn rst_edges(pins: &[Point]) -> Vec<(usize, usize)> {
    let mut edges = Vec::with_capacity(pins.len().saturating_sub(1));
    Prim::default().run(pins, |parent, child, _| edges.push((parent, child)));
    edges
}

/// Prim's algorithm over dense Manhattan distances, with its buffers.
#[derive(Debug, Clone, Default)]
struct Prim {
    in_tree: Vec<bool>,
    best_dist: Vec<f64>,
    best_parent: Vec<usize>,
}

impl Prim {
    /// Grows the MST from pin 0, calling `edge(parent, child, length)`
    /// for each tree edge in pick order. No edges for fewer than two
    /// pins.
    fn run(&mut self, pins: &[Point], mut edge: impl FnMut(usize, usize, f64)) {
        let n = pins.len();
        if n < 2 {
            return;
        }
        let Prim { in_tree, best_dist, best_parent } = self;
        in_tree.clear();
        in_tree.resize(n, false);
        best_dist.clear();
        best_dist.resize(n, f64::INFINITY);
        best_parent.clear();
        best_parent.resize(n, 0);
        in_tree[0] = true;
        for j in 1..n {
            best_dist[j] = pins[0].manhattan(pins[j]);
        }
        for _ in 1..n {
            let mut pick = usize::MAX;
            let mut pick_d = f64::INFINITY;
            for j in 0..n {
                if !in_tree[j] && best_dist[j] < pick_d {
                    pick = j;
                    pick_d = best_dist[j];
                }
            }
            debug_assert_ne!(pick, usize::MAX);
            in_tree[pick] = true;
            edge(best_parent[pick], pick, pick_d);
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degenerate_nets() {
        assert_eq!(rst_length(&[]), 0.0);
        assert_eq!(rst_length(&[Point::new(1.0, 1.0)]), 0.0);
        assert!(rst_edges(&[Point::new(1.0, 1.0)]).is_empty());
    }

    #[test]
    fn two_pins() {
        let pins = [Point::new(0.0, 0.0), Point::new(3.0, 4.0)];
        assert!((rst_length(&pins) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn collinear_pins_chain() {
        let pins = [
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(5.0, 0.0),
            Point::new(2.0, 0.0),
        ];
        assert!((rst_length(&pins) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn l_shape() {
        let pins = [Point::new(0.0, 0.0), Point::new(4.0, 0.0), Point::new(4.0, 3.0)];
        assert!((rst_length(&pins) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn star_configuration() {
        // Center plus 4 arms of length 5: MST = 20.
        let pins = [
            Point::new(0.0, 0.0),
            Point::new(5.0, 0.0),
            Point::new(-5.0, 0.0),
            Point::new(0.0, 5.0),
            Point::new(0.0, -5.0),
        ];
        assert!((rst_length(&pins) - 20.0).abs() < 1e-12);
    }

    #[test]
    fn edges_form_spanning_tree() {
        let pins: Vec<Point> =
            (0..10).map(|i| Point::new((i * 7 % 10) as f64, (i * 3 % 10) as f64)).collect();
        let edges = rst_edges(&pins);
        assert_eq!(edges.len(), 9);
        // Union-find connectivity check.
        let mut parent: Vec<usize> = (0..10).collect();
        fn find(p: &mut Vec<usize>, x: usize) -> usize {
            if p[x] != x {
                let r = find(p, p[x]);
                p[x] = r;
            }
            p[x]
        }
        for &(a, b) in &edges {
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            assert_ne!(ra, rb, "cycle in MST");
            parent[ra] = rb;
        }
    }

    #[test]
    fn duplicate_points_cost_nothing() {
        let pins = [Point::new(1.0, 1.0), Point::new(1.0, 1.0), Point::new(4.0, 1.0)];
        assert!((rst_length(&pins) - 3.0).abs() < 1e-12);
    }
}
