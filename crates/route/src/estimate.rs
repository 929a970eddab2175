//! The net-length estimators the mapper chooses between (paper §3.4).

use crate::hpwl::half_perimeter;
use crate::rst::{rst_length_with, PrimScratch};
use crate::steiner_factor::chung_hwang_factor;
use lily_place::Point;

/// Which wiring model to use when estimating a net's length.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WireModel {
    /// Half-perimeter of the enclosing rectangle multiplied by the
    /// Chung–Hwang pin-count factor — Lily's primary model and the one
    /// used for the published results.
    #[default]
    HalfPerimeterSteiner,
    /// Rectilinear minimum spanning tree — the paper's alternative
    /// model.
    SpanningTree,
}

/// Estimated length of a net under the chosen model.
pub fn net_length(model: WireModel, pins: &[Point]) -> f64 {
    net_length_with(model, pins, &mut PrimScratch::default())
}

/// [`net_length`] over caller-owned spanning-tree buffers:
/// allocation-free once the buffers have grown to the largest net seen,
/// and bit-identical.
pub fn net_length_with(model: WireModel, pins: &[Point], scratch: &mut PrimScratch) -> f64 {
    match model {
        WireModel::HalfPerimeterSteiner => {
            half_perimeter(pins) * chung_hwang_factor(pins.len().max(1))
        }
        WireModel::SpanningTree => rst_length_with(pins, scratch),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rsmt::rsmt_length;

    #[test]
    fn scratch_variant_is_bit_identical() {
        let mut scratch = PrimScratch::default();
        for n in [0usize, 1, 2, 5, 9, 30] {
            let pins: Vec<Point> =
                (0..n).map(|i| Point::new(((i * 7) % 11) as f64, ((i * 5) % 13) as f64)).collect();
            for model in [WireModel::HalfPerimeterSteiner, WireModel::SpanningTree] {
                let want = net_length(model, &pins).to_bits();
                assert_eq!(net_length_with(model, &pins, &mut scratch).to_bits(), want);
            }
        }
    }

    #[test]
    fn models_agree_on_two_pin_nets() {
        let pins = [Point::new(0.0, 0.0), Point::new(5.0, 5.0)];
        let a = net_length(WireModel::HalfPerimeterSteiner, &pins);
        let b = net_length(WireModel::SpanningTree, &pins);
        let c = rsmt_length(&pins);
        assert!((a - 10.0).abs() < 1e-12);
        assert!((b - 10.0).abs() < 1e-12);
        assert!((c - 10.0).abs() < 1e-12);
    }

    #[test]
    fn hpwl_model_applies_factor_on_big_nets() {
        let pins: Vec<Point> = (0..6).map(|i| Point::new(i as f64, (i % 2) as f64)).collect();
        let base = half_perimeter(&pins);
        let est = net_length(WireModel::HalfPerimeterSteiner, &pins);
        assert!(est > base, "factor must inflate 6-pin nets");
    }

    #[test]
    fn spanning_tree_upper_bounds_steiner() {
        let pins = [Point::new(0.0, 0.0), Point::new(10.0, 0.0), Point::new(5.0, 5.0)];
        let st = net_length(WireModel::SpanningTree, &pins);
        let sm = rsmt_length(&pins);
        assert!(sm <= st);
    }
}
