//! Rectilinear Steiner minimal tree heuristic: iterated 1-Steiner.
//!
//! The final interconnection length reported by the paper's tables is
//! measured after global + detailed routing (TimberWolf + YACR). A good
//! rectilinear Steiner tree is the standard stand-in: the iterated
//! 1-Steiner heuristic of Kahng–Robins repeatedly inserts the Hanan
//! grid point that most reduces the spanning-tree length, and is within
//! a few percent of optimal on real nets.

use crate::rst::{rst_length_with, PrimScratch};
use lily_place::Point;

/// Nets above this many pins skip the 1-Steiner phase: the quadratic
/// candidate scan gets expensive, and large nets are rare.
const MAX_EXACT_PINS: usize = 24;

/// Length of a heuristic rectilinear Steiner minimal tree over `pins`.
///
/// Uses iterated 1-Steiner on the Hanan grid for nets up to 24 pins,
/// falling back to the plain spanning tree beyond that.
pub fn rsmt_length(pins: &[Point]) -> f64 {
    rsmt_length_with(pins, &mut RsmtScratch::default())
}

/// Reusable buffers for [`rsmt_length_with`]: the tree's nodes, the
/// Hanan grid coordinates, and the spanning-tree scratch.
#[derive(Debug, Clone, Default)]
pub struct RsmtScratch {
    nodes: Vec<Point>,
    xs: Vec<f64>,
    ys: Vec<f64>,
    prim: PrimScratch,
}

/// [`rsmt_length`] over caller-owned buffers: allocation-free once the
/// buffers have grown to the largest net seen.
pub fn rsmt_length_with(pins: &[Point], scratch: &mut RsmtScratch) -> f64 {
    let RsmtScratch { nodes, xs, ys, prim } = scratch;
    if pins.len() < 3 || pins.len() > MAX_EXACT_PINS {
        return rst_length_with(pins, prim);
    }
    nodes.clear();
    nodes.extend_from_slice(pins);
    let mut best = rst_length_with(nodes, prim);
    // Iterate until no Hanan candidate helps. Each round adds at most
    // one Steiner point; nets are small, so this terminates quickly.
    loop {
        let (mut gain, mut pick) = (1e-9, None);
        // Hanan grid of the *original* pins plus added Steiner points.
        hanan_axis(xs, nodes.iter().map(|p| p.x));
        hanan_axis(ys, nodes.iter().map(|p| p.y));
        for &x in xs.iter() {
            for &y in ys.iter() {
                let cand = Point::new(x, y);
                if nodes.iter().any(|p| p.manhattan(cand) == 0.0) {
                    continue;
                }
                nodes.push(cand);
                let len = rst_length_with(nodes, prim);
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

/// Fills `axis` with the sorted, deduplicated `coords`.
fn hanan_axis(axis: &mut Vec<f64>, coords: impl Iterator<Item = f64>) {
    axis.clear();
    axis.extend(coords);
    // Equal keys under `total_cmp` are bit-identical, so an unstable
    // sort yields the same sequence a stable one would.
    axis.sort_unstable_by(f64::total_cmp);
    axis.dedup();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rst::rst_length;

    #[test]
    fn small_nets_match_rst() {
        let pins = [Point::new(0.0, 0.0), Point::new(3.0, 4.0)];
        assert_eq!(rsmt_length(&pins), rst_length(&pins));
    }

    #[test]
    fn steiner_point_helps_on_t_configuration() {
        // Three pins forming a T: RST = 3 edges of the bounding
        // structure, RSMT saves by meeting at the T junction.
        let pins = [Point::new(0.0, 0.0), Point::new(10.0, 0.0), Point::new(5.0, 5.0)];
        let rst = rst_length(&pins);
        let rsmt = rsmt_length(&pins);
        // RST: 10 (bottom) + 10 (diag as L) = 10 + 10 = 20; RSMT joins
        // at (5,0): 10 + 5 = 15.
        assert!(rsmt < rst, "rsmt {rsmt} !< rst {rst}");
        assert!((rsmt - 15.0).abs() < 1e-9, "rsmt {rsmt}");
    }

    #[test]
    fn cross_configuration() {
        // 4 pins at the compass points: optimal Steiner point at center.
        let pins = [
            Point::new(0.0, 5.0),
            Point::new(10.0, 5.0),
            Point::new(5.0, 0.0),
            Point::new(5.0, 10.0),
        ];
        let rsmt = rsmt_length(&pins);
        assert!((rsmt - 20.0).abs() < 1e-9, "rsmt {rsmt}");
    }

    #[test]
    fn rsmt_never_exceeds_rst() {
        // Deterministic pseudo-random nets.
        let mut seed = 12345u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..20 {
            let n = 3 + (next() % 8) as usize;
            let pins: Vec<Point> =
                (0..n).map(|_| Point::new((next() % 100) as f64, (next() % 100) as f64)).collect();
            let rst = rst_length(&pins);
            let rsmt = rsmt_length(&pins);
            assert!(rsmt <= rst + 1e-9, "rsmt {rsmt} > rst {rst} for {pins:?}");
            // And never below the theoretical HPWL lower... HPWL is a
            // lower bound only for the Steiner tree of the net.
            let hp = crate::hpwl::half_perimeter(&pins);
            assert!(rsmt + 1e-9 >= hp, "rsmt {rsmt} < hpwl {hp}");
        }
    }

    #[test]
    fn big_nets_fall_back_to_rst() {
        let pins: Vec<Point> =
            (0..40).map(|i| Point::new((i % 7) as f64 * 3.0, (i / 7) as f64 * 2.0)).collect();
        assert_eq!(rsmt_length(&pins), rst_length(&pins));
    }
}
