//! The standard-cell layout image and chip-area model.
//!
//! Section 3.1: *"The actual area of the image is estimated by accurate
//! area predictors for standard cell based designs such as that in
//! \[15\]"* (Pedram & Preas, ICCAD-89). The model here follows that
//! lineage: the core is sized from the total cell area and an expected
//! routing overhead; after routing, the final chip area is the cell area
//! plus the area consumed by the measured wire length at the routing
//! pitch.

use crate::geom::Rect;

/// Parameters of the area model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaModel {
    /// Standard-cell row height (µm).
    pub row_height: f64,
    /// Chip area consumed per µm of routed wire (µm) — the routing
    /// pitch.
    pub wire_pitch: f64,
    /// Expected fraction of the core occupied by cells before routing
    /// is known (sizes the layout image).
    pub utilization: f64,
    /// Core aspect ratio (width / height).
    pub aspect: f64,
}

impl AreaModel {
    /// Defaults matching `lily_cells::Technology::mcnc_3u`-era designs.
    pub const fn mcnc() -> Self {
        Self { row_height: 100.0, wire_pitch: 7.0, utilization: 0.40, aspect: 1.0 }
    }

    /// Estimates the layout image (core region) for a design with the
    /// given total cell area — the region global placement places into.
    ///
    /// The height is rounded up to a whole number of rows.
    ///
    /// Non-finite or negative `total_cell_area` is clamped to zero, which
    /// yields the minimum (one-row-square) core; callers who care detect
    /// the degenerate input before sizing the core.
    pub fn core_region(&self, total_cell_area: f64) -> Rect {
        let total_cell_area = if total_cell_area.is_finite() && total_cell_area > 0.0 {
            total_cell_area
        } else {
            0.0
        };
        let core_area = (total_cell_area / self.utilization).max(self.row_height * self.row_height);
        let height_raw = (core_area / self.aspect).sqrt();
        let rows = (height_raw / self.row_height).ceil().max(1.0);
        let height = rows * self.row_height;
        let width = core_area / height;
        Rect::new(0.0, 0.0, width, height)
    }

    /// Final chip area after routing: cell area plus wire-consumed area
    /// (µm²). This is the "final chip area" column of Table 1.
    pub fn chip_area(&self, total_cell_area: f64, total_wire_length: f64) -> f64 {
        total_cell_area + total_wire_length * self.wire_pitch
    }
}

impl Default for AreaModel {
    fn default() -> Self {
        Self::mcnc()
    }
}

/// Converts µm² to the mm² the paper's tables use.
pub fn um2_to_mm2(um2: f64) -> f64 {
    um2 / 1.0e6
}

/// Converts µm to the mm the paper's wire-length column uses.
pub fn um_to_mm(um: f64) -> f64 {
    um / 1.0e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_region_has_requested_area() {
        let m = AreaModel::mcnc();
        let cell_area = 1.0e6; // 1 mm² of cells
        let core = m.core_region(cell_area);
        let expect = cell_area / m.utilization;
        assert!((core.area() - expect).abs() / expect < 0.02, "area {}", core.area());
        // Whole rows.
        let rows = core.height() / m.row_height;
        assert!((rows - rows.round()).abs() < 1e-9);
    }

    #[test]
    fn chip_area_adds_routing() {
        let m = AreaModel::mcnc();
        let a = m.chip_area(1000.0, 0.0);
        assert!((a - 1000.0).abs() < 1e-12);
        let b = m.chip_area(1000.0, 100.0);
        assert!((b - (1000.0 + 700.0)).abs() < 1e-12);
    }

    #[test]
    fn tiny_designs_get_minimum_core() {
        let m = AreaModel::mcnc();
        let core = m.core_region(0.0);
        assert!(core.area() > 0.0);
        assert!(core.height() >= m.row_height);
    }

    #[test]
    fn unit_conversions() {
        assert!((um2_to_mm2(2.0e6) - 2.0).abs() < 1e-12);
        assert!((um_to_mm(1500.0) - 1.5).abs() < 1e-12);
    }
}
