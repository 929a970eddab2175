//! A bin-grid congestion model.
//!
//! The paper measures interconnect after real global/detailed routing;
//! routed length exceeds the Steiner estimate where the router detours
//! around congested regions. This module spreads each net's demand over
//! the bins its bounding box covers, computes per-bin overflow against
//! a uniform capacity, and converts the overflow a net sees into a
//! detour factor on its Steiner length.
//!
//! Besides the one-net-at-a-time [`CongestionGrid::deposit`] and
//! [`CongestionGrid::routed_length`], the grid exposes the sequential
//! pieces of a bit-exact parallel estimate: each net's [`BinBox`],
//! a deposit over one horizontal stripe of [`STRIPE_ROWS`] bin rows
//! ([`deposit_rows`]), and a per-bin [`OverflowTable`]. A stripe walks
//! every net in net order, so each bin receives the same additions in
//! the same order however the stripes are spread over threads.

use lily_place::{Point, Rect};

/// Bin rows per deposit stripe: the grain of the parallel deposit. Any
/// split into whole rows gives the same sums, because every stripe adds
/// its nets in net order; the height is a constant so the split never
/// depends on the thread count either.
pub const STRIPE_ROWS: usize = 16;

/// The inclusive range of bins a net's bounding box covers, columns
/// `x0..=x1` by rows `y0..=y1` of the grid that made it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BinBox {
    x0: usize,
    y0: usize,
    x1: usize,
    y1: usize,
}

impl BinBox {
    /// The demand each covered bin receives when `wire_length` is
    /// spread uniformly over the box.
    pub fn share(&self, wire_length: f64) -> f64 {
        let bins = ((self.x1 - self.x0 + 1) * (self.y1 - self.y0 + 1)) as f64;
        wire_length / bins
    }

    /// Mean of `value(bin index)` over the box on a grid `nx` bins
    /// wide, summed in row-major order; 0 for an empty box.
    fn mean(&self, nx: usize, value: impl Fn(usize) -> f64) -> f64 {
        let mut total = 0.0;
        let mut count = 0usize;
        for y in self.y0..=self.y1 {
            for x in self.x0..=self.x1 {
                total += value(y * nx + x);
                count += 1;
            }
        }
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    }
}

/// Adds each `(box, share)` deposit, in order, to the bins of `rows` —
/// whole bin rows `row0..` of a grid `nx` bins wide — that its box
/// covers.
pub fn deposit_rows(nx: usize, row0: usize, rows: &mut [f64], deposits: &[(BinBox, f64)]) {
    let row_end = row0 + rows.len() / nx;
    for &(b, share) in deposits {
        for y in b.y0.max(row0)..=b.y1.min(row_end.saturating_sub(1)) {
            let base = (y - row0) * nx;
            for bin in &mut rows[base + b.x0..=base + b.x1] {
                *bin += share;
            }
        }
    }
}

/// Per-bin overflow ratios (`demand / capacity − 1`, clamped at 0) of
/// a [`CongestionGrid`], computed once for many routed-length queries.
#[derive(Debug, Clone)]
pub struct OverflowTable {
    nx: usize,
    ratio: Vec<f64>,
}

impl OverflowTable {
    /// [`CongestionGrid::routed_length`] of a net with bin box `bbox`
    /// (`None` for a pinless net), bit-identical to the grid's own.
    pub fn routed_length(
        &self,
        bbox: Option<BinBox>,
        steiner_length: f64,
        detour_gain: f64,
    ) -> f64 {
        let overflow = bbox.map_or(0.0, |b| b.mean(self.nx, |i| self.ratio[i]));
        steiner_length * (1.0 + detour_gain * overflow)
    }
}

/// A bin's overflow ratio.
fn overflow_ratio(demand: f64, capacity: f64) -> f64 {
    (demand / capacity - 1.0).max(0.0)
}

/// A uniform grid accumulating routing demand.
#[derive(Debug, Clone)]
pub struct CongestionGrid {
    region: Rect,
    nx: usize,
    ny: usize,
    demand: Vec<f64>,
    capacity: f64,
}

impl CongestionGrid {
    /// Creates an `nx × ny` grid over `region` with per-bin `capacity`
    /// (in the same units as deposited demand, e.g. µm of wire).
    ///
    /// # Panics
    ///
    /// Panics if the grid is empty or the region degenerate.
    pub fn new(region: Rect, nx: usize, ny: usize, capacity: f64) -> Self {
        assert!(nx > 0 && ny > 0, "empty congestion grid");
        assert!(region.width() > 0.0 && region.height() > 0.0, "degenerate region");
        Self { region, nx, ny, demand: vec![0.0; nx * ny], capacity }
    }

    /// A grid sized for a given core: bins of roughly `bin_target` µm,
    /// with capacity `supply_per_um2 · bin_area`.
    pub fn for_core(region: Rect, bin_target: f64, supply_per_um2: f64) -> Self {
        let nx = ((region.width() / bin_target).ceil() as usize).max(1);
        let ny = ((region.height() / bin_target).ceil() as usize).max(1);
        let bin_area = (region.width() / nx as f64) * (region.height() / ny as f64);
        Self::new(region, nx, ny, supply_per_um2 * bin_area)
    }

    fn bin_of(&self, p: Point) -> (usize, usize) {
        let fx = ((p.x - self.region.llx) / self.region.width()).clamp(0.0, 1.0 - 1e-12);
        let fy = ((p.y - self.region.lly) / self.region.height()).clamp(0.0, 1.0 - 1e-12);
        ((fx * self.nx as f64) as usize, (fy * self.ny as f64) as usize)
    }

    /// The bins covered by the bounding box of `pins`; `None` for no
    /// pins.
    pub fn bin_box(&self, pins: &[Point]) -> Option<BinBox> {
        let r = Rect::bounding(pins.iter().copied())?;
        let (x0, y0) = self.bin_of(Point::new(r.llx, r.lly));
        let (x1, y1) = self.bin_of(Point::new(r.urx, r.ury));
        Some(BinBox { x0, y0, x1, y1 })
    }

    /// Deposits `wire_length` of demand uniformly over the bins covered
    /// by the net's bounding box. Nets with < 2 pins deposit nothing.
    pub fn deposit(&mut self, pins: &[Point], wire_length: f64) {
        let Some(b) = self.bin_box(pins) else {
            return;
        };
        if pins.len() < 2 {
            return;
        }
        deposit_rows(self.nx, 0, &mut self.demand, &[(b, b.share(wire_length))]);
    }

    /// The grid width in bins and its demand, row-major, for
    /// [`deposit_rows`] over stripes of [`STRIPE_ROWS`] rows.
    pub fn rows_mut(&mut self) -> (usize, &mut [f64]) {
        (self.nx, &mut self.demand)
    }

    /// Mean overflow ratio (`demand / capacity − 1`, clamped at 0) over
    /// the bins covered by the net's bounding box.
    pub fn overflow(&self, pins: &[Point]) -> f64 {
        self.bin_box(pins)
            .map_or(0.0, |b| b.mean(self.nx, |i| overflow_ratio(self.demand[i], self.capacity)))
    }

    /// Routed length model: the Steiner estimate inflated by the detour
    /// factor `1 + detour_gain · overflow`.
    pub fn routed_length(&self, pins: &[Point], steiner_length: f64, detour_gain: f64) -> f64 {
        steiner_length * (1.0 + detour_gain * self.overflow(pins))
    }

    /// The per-bin overflow ratios of the current demand.
    pub fn overflow_table(&self) -> OverflowTable {
        let ratio = self.demand.iter().map(|&d| overflow_ratio(d, self.capacity)).collect();
        OverflowTable { nx: self.nx, ratio }
    }

    /// Peak bin utilization (`demand / capacity`), a congestion summary
    /// statistic.
    pub fn peak_utilization(&self) -> f64 {
        self.demand.iter().fold(0.0f64, |a, &d| a.max(d / self.capacity))
    }

    /// Fraction of bins over capacity.
    pub fn overflow_fraction(&self) -> f64 {
        let over = self.demand.iter().filter(|&&d| d > self.capacity).count();
        over as f64 / self.demand.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> CongestionGrid {
        CongestionGrid::new(Rect::new(0.0, 0.0, 100.0, 100.0), 10, 10, 50.0)
    }

    #[test]
    fn deposit_and_overflow() {
        let mut g = grid();
        let pins = [Point::new(5.0, 5.0), Point::new(5.0, 6.0)]; // one bin
        assert_eq!(g.overflow(&pins), 0.0);
        g.deposit(&pins, 40.0);
        assert_eq!(g.overflow(&pins), 0.0); // under capacity
        g.deposit(&pins, 60.0);
        assert!((g.overflow(&pins) - 1.0).abs() < 1e-9); // 100/50 - 1
    }

    #[test]
    fn demand_spreads_over_bbox() {
        let mut g = grid();
        let pins = [Point::new(5.0, 5.0), Point::new(25.0, 5.0)]; // 3 bins wide
        g.deposit(&pins, 90.0);
        let one_bin = [Point::new(5.0, 5.0), Point::new(6.0, 5.0)];
        // Each of the three bins got 30 -> under capacity 50.
        assert_eq!(g.overflow(&one_bin), 0.0);
        assert!((g.peak_utilization() - 0.6).abs() < 1e-9);
    }

    #[test]
    fn routed_length_inflates_with_congestion() {
        let mut g = grid();
        let pins = [Point::new(5.0, 5.0), Point::new(5.0, 6.0)];
        g.deposit(&pins, 150.0); // 3x capacity -> overflow 2
        let routed = g.routed_length(&pins, 100.0, 0.25);
        assert!((routed - 150.0).abs() < 1e-9, "routed {routed}");
    }

    #[test]
    fn boundary_points_are_clamped() {
        let mut g = grid();
        let pins = [Point::new(100.0, 100.0), Point::new(99.0, 99.0)];
        g.deposit(&pins, 10.0); // must not panic / index out of range
        assert!(g.peak_utilization() > 0.0);
    }

    #[test]
    fn overflow_fraction_counts_bins() {
        let mut g = grid();
        assert_eq!(g.overflow_fraction(), 0.0);
        g.deposit(&[Point::new(5.0, 5.0), Point::new(5.0, 6.0)], 60.0);
        assert!((g.overflow_fraction() - 0.01).abs() < 1e-9); // 1 of 100
    }

    #[test]
    fn for_core_sizes_bins() {
        let g = CongestionGrid::for_core(Rect::new(0.0, 0.0, 95.0, 45.0), 10.0, 0.1);
        assert_eq!(g.nx, 10);
        assert_eq!(g.ny, 5);
    }
}
