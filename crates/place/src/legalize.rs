//! Row-based detailed placement (legalization) of a mapped netlist.
//!
//! Both evaluation pipelines of the paper finish with detailed placement
//! and routing. This module is the stand-in for the TimberWolf-era
//! detailed placers: cells are assigned to standard-cell rows near their
//! global positions, packed without overlap, and improved by greedy
//! HPWL-reducing swaps.

use crate::geom::{Point, Rect};
use crate::quadratic::PinRef;

/// Options for [`legalize`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LegalizeOptions {
    /// Core region to fill.
    pub core: Rect,
    /// Standard-cell row height (µm).
    pub row_height: f64,
}

/// Rounds of median relocation and adjacent swaps in [`improve`].
const IMPROVEMENT_PASSES: usize = 2;

/// A legalized placement.
#[derive(Debug, Clone)]
pub struct Legalized {
    /// Final cell positions (cell centers).
    pub positions: Vec<Point>,
    /// Cells of each row, left to right.
    pub rows: Vec<Vec<usize>>,
    /// Row center-line y coordinates.
    pub row_y: Vec<f64>,
}

/// Assigns every cell to a row near its desired position and packs rows
/// left-to-right in desired-x order, distributing whitespace evenly.
///
/// `widths[i]` is cell `i`'s width (µm); `desired[i]` its global
/// position.
///
/// # Panics
///
/// Panics if `widths.len() != desired.len()` or the core has
/// non-positive size.
pub fn legalize(widths: &[f64], desired: &[Point], opts: &LegalizeOptions) -> Legalized {
    assert_eq!(widths.len(), desired.len(), "widths/positions length mismatch");
    assert!(opts.core.width() > 0.0 && opts.core.height() > 0.0, "empty core");
    let n = widths.len();
    let n_rows = ((opts.core.height() / opts.row_height).floor() as usize).max(1);
    let row_y: Vec<f64> =
        (0..n_rows).map(|r| opts.core.lly + (r as f64 + 0.5) * opts.row_height).collect();

    // Assign cells to rows in y order, balancing total width per row.
    // The balance target can exceed the physical row capacity when the
    // core is undersized for the netlist; a hard capacity check keeps
    // every row (except a possibly overfull last row) packable without
    // spilling past the right core edge.
    let total_width: f64 = widths.iter().sum();
    let target = total_width / n_rows as f64;
    let capacity = opts.core.width();
    let mut by_y: Vec<usize> = (0..n).collect();
    by_y.sort_by(|&a, &b| {
        desired[a].y.partial_cmp(&desired[b].y).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b))
    });
    let mut rows: Vec<Vec<usize>> = vec![Vec::new(); n_rows];
    let mut row = 0usize;
    let mut acc = 0.0;
    for &cell in &by_y {
        let balance_full = acc + widths[cell] / 2.0 > target;
        let capacity_full = !rows[row].is_empty() && acc + widths[cell] > capacity;
        if (balance_full || capacity_full) && row + 1 < n_rows {
            row += 1;
            acc = 0.0;
        }
        rows[row].push(cell);
        acc += widths[cell];
    }

    let mut positions = vec![Point::default(); n];
    for (r, cells) in rows.iter_mut().enumerate() {
        pack_row(cells, widths, desired, opts.core, row_y[r], &mut positions);
    }
    Legalized { positions, rows, row_y }
}

/// Sorts a row's cells by desired x and packs them without overlap
/// while staying as close to the desired positions as possible
/// (Abacus-style): a left-to-right pass pushes cells right of their
/// predecessors, a right-to-left pass pushes them left of their
/// successors, and the average of the two legal placements is taken
/// (both are monotone with the same widths, so the average is legal
/// too).
fn pack_row(
    cells: &mut [usize],
    widths: &[f64],
    desired: &[Point],
    core: Rect,
    y: f64,
    positions: &mut [Point],
) {
    cells.sort_by(|&a, &b| {
        desired[a].x.partial_cmp(&desired[b].x).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b))
    });
    if cells.is_empty() {
        return;
    }
    // Forward pass: left edges at max(desired, previous end), capped so
    // that this cell and everything after it still fit before the right
    // core edge (the cap is waived only when the row is overfull).
    let total: f64 = cells.iter().map(|&c| widths[c]).sum();
    let mut fwd = Vec::with_capacity(cells.len());
    let mut cursor = core.llx;
    let mut suffix = total;
    for &c in cells.iter() {
        let want = desired[c].x - widths[c] / 2.0;
        let cap = core.urx - suffix;
        let x = want.max(cursor).min(cap.max(cursor));
        fwd.push(x);
        cursor = x + widths[c];
        suffix -= widths[c];
    }
    // Backward pass: right edges at min(desired, next start), capped so
    // that this cell and everything before it still fit after the left
    // core edge.
    let mut bwd = vec![0.0; cells.len()];
    let mut cursor = core.urx;
    let mut prefix = total;
    for (i, &c) in cells.iter().enumerate().rev() {
        let want = desired[c].x + widths[c] / 2.0;
        let cap = core.llx + prefix;
        let x = want.min(cursor).max(cap.min(cursor));
        bwd[i] = x - widths[c];
        cursor = bwd[i];
        prefix -= widths[c];
    }
    for (i, &c) in cells.iter().enumerate() {
        let left = (fwd[i] + bwd[i]) / 2.0;
        positions[c] = Point::new(left + widths[c] / 2.0, y);
    }
}

/// Total half-perimeter wire length of `nets`, with movable pins read
/// from `positions` and fixed pins from `fixed`.
pub fn hpwl(nets: &[Vec<PinRef>], positions: &[Point], fixed: &[Point]) -> f64 {
    nets.iter()
        .filter_map(|net| {
            Rect::bounding(net.iter().map(|p| match p {
                PinRef::Movable(i) => positions[*i],
                PinRef::Fixed(i) => fixed[*i],
            }))
            .map(|r| r.half_perimeter())
        })
        .sum()
}

/// Detailed-placement improvement: alternating median relocation and
/// adjacent-swap passes.
///
/// Each median pass moves every cell to the median of the other pins of
/// its nets (the optimal single-cell location under HPWL) and
/// re-legalizes; each swap pass exchanges adjacent same-row cells when
/// that lowers the HPWL of their nets. The loop keeps the best
/// placement seen and stops when a full round yields no improvement or
/// after two rounds. This stands in for the annealing-based detailed
/// placers of the paper's era and, importantly, converges to similar
/// quality from different starting placements (low noise).
pub fn improve(
    legal: &Legalized,
    widths: &[f64],
    nets: &[Vec<PinRef>],
    fixed: &[Point],
    opts: &LegalizeOptions,
) -> Legalized {
    let mut best = legal.clone();
    let mut best_cost = hpwl(nets, &best.positions, fixed);
    // Index nets by movable module once.
    let mut touching: Vec<Vec<usize>> = vec![Vec::new(); widths.len()];
    for (ni, net) in nets.iter().enumerate() {
        for p in net {
            if let PinRef::Movable(m) = p {
                touching[*m].push(ni);
            }
        }
    }

    for _ in 0..IMPROVEMENT_PASSES {
        // Median relocation: optimal per-cell location given the rest.
        let mut desired = best.positions.clone();
        for cell in 0..widths.len() {
            let mut xs = Vec::new();
            let mut ys = Vec::new();
            for &ni in &touching[cell] {
                for p in &nets[ni] {
                    let q = match p {
                        PinRef::Movable(i) if *i == cell => continue,
                        PinRef::Movable(i) => best.positions[*i],
                        PinRef::Fixed(i) => fixed[*i],
                    };
                    xs.push(q.x);
                    ys.push(q.y);
                }
            }
            if !xs.is_empty() {
                xs.sort_by(|a, b| a.total_cmp(b));
                ys.sort_by(|a, b| a.total_cmp(b));
                desired[cell] = Point::new(xs[xs.len() / 2], ys[ys.len() / 2]);
            }
        }
        let relocated = legalize(widths, &desired, opts);
        let swapped = swap_pass(&relocated, widths, nets, fixed, &touching);
        let cost = hpwl(nets, &swapped.positions, fixed);
        if cost + 1e-9 < best_cost {
            best = swapped;
            best_cost = cost;
        } else {
            break;
        }
    }
    // One final swap polish on the best solution.
    let polished = swap_pass(&best, widths, nets, fixed, &touching);
    if hpwl(nets, &polished.positions, fixed) < best_cost {
        polished
    } else {
        best
    }
}

/// One sweep of adjacent-swap improvement within rows.
fn swap_pass(
    legal: &Legalized,
    widths: &[f64],
    nets: &[Vec<PinRef>],
    fixed: &[Point],
    touching: &[Vec<usize>],
) -> Legalized {
    let mut out = legal.clone();
    let local_cost = |cells: &[usize], positions: &[Point]| -> f64 {
        let mut seen: Vec<usize> =
            cells.iter().flat_map(|&c| touching[c].iter().copied()).collect();
        seen.sort_unstable();
        seen.dedup();
        seen.iter()
            .filter_map(|&ni| {
                Rect::bounding(nets[ni].iter().map(|p| match p {
                    PinRef::Movable(i) => positions[*i],
                    PinRef::Fixed(i) => fixed[*i],
                }))
                .map(|r| r.half_perimeter())
            })
            .sum()
    };

    for _ in 0..4 {
        let mut improved = false;
        for r in 0..out.rows.len() {
            for i in 0..out.rows[r].len().saturating_sub(1) {
                let a = out.rows[r][i];
                let b = out.rows[r][i + 1];
                let before = local_cost(&[a, b], &out.positions);
                // Swap by re-packing the pair inside its combined span
                // (left edge of `a` to right edge of `b`): exchanging
                // centers directly would leak unequal widths onto the
                // neighbors.
                let (pa, pb) = (out.positions[a], out.positions[b]);
                let left = pa.x - widths[a] / 2.0;
                out.positions[b] = Point::new(left + widths[b] / 2.0, pb.y);
                out.positions[a] = Point::new(left + widths[b] + widths[a] / 2.0, pa.y);
                let after = local_cost(&[a, b], &out.positions);
                if after + 1e-9 < before {
                    out.rows[r].swap(i, i + 1);
                    improved = true;
                } else {
                    out.positions[a] = pa;
                    out.positions[b] = pb;
                }
            }
        }
        if !improved {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> LegalizeOptions {
        LegalizeOptions { core: Rect::new(0.0, 0.0, 100.0, 40.0), row_height: 10.0 }
    }

    #[test]
    fn rows_have_no_overlap() {
        let widths = vec![10.0; 12];
        let desired: Vec<Point> =
            (0..12).map(|i| Point::new((i % 4) as f64 * 25.0, (i / 4) as f64 * 13.0)).collect();
        let legal = legalize(&widths, &desired, &opts());
        for (r, cells) in legal.rows.iter().enumerate() {
            for w in cells.windows(2) {
                let (a, b) = (w[0], w[1]);
                let gap = (legal.positions[b].x - widths[b] / 2.0)
                    - (legal.positions[a].x + widths[a] / 2.0);
                assert!(gap >= -1e-9, "overlap in row {r}");
            }
            for &c in cells {
                assert!((legal.positions[c].y - legal.row_y[r]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn cells_stay_near_desired_rows() {
        let widths = vec![5.0; 8];
        let desired: Vec<Point> =
            (0..8).map(|i| Point::new(50.0, if i < 4 { 5.0 } else { 35.0 })).collect();
        let legal = legalize(&widths, &desired, &opts());
        // Low cells in low rows, high cells in high rows.
        for i in 0..4 {
            assert!(legal.positions[i].y < legal.positions[i + 4].y);
        }
    }

    #[test]
    fn hpwl_counts_fixed_pins() {
        let nets = vec![vec![PinRef::Movable(0), PinRef::Fixed(0)]];
        let positions = vec![Point::new(0.0, 0.0)];
        let fixed = vec![Point::new(3.0, 4.0)];
        assert!((hpwl(&nets, &positions, &fixed) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn improvement_reduces_hpwl() {
        // Two cells whose desired order conflicts with their nets: cell 0
        // tied to a pad on the right, cell 1 to a pad on the left.
        let widths = vec![10.0, 10.0];
        let desired = vec![Point::new(10.0, 5.0), Point::new(20.0, 5.0)];
        let o = LegalizeOptions { core: Rect::new(0.0, 0.0, 100.0, 10.0), row_height: 10.0 };
        let legal = legalize(&widths, &desired, &o);
        let fixed = vec![Point::new(100.0, 5.0), Point::new(0.0, 5.0)];
        let nets = vec![
            vec![PinRef::Movable(0), PinRef::Fixed(0)],
            vec![PinRef::Movable(1), PinRef::Fixed(1)],
        ];
        let before = hpwl(&nets, &legal.positions, &fixed);
        let better = improve(&legal, &widths, &nets, &fixed, &o);
        let after = hpwl(&nets, &better.positions, &fixed);
        assert!(after < before, "{after} !< {before}");
    }

    #[test]
    fn single_row_core() {
        let widths = vec![4.0; 3];
        let desired = vec![Point::new(1.0, 1.0), Point::new(2.0, 1.0), Point::new(3.0, 1.0)];
        let o = LegalizeOptions { core: Rect::new(0.0, 0.0, 50.0, 8.0), row_height: 10.0 };
        let legal = legalize(&widths, &desired, &o);
        assert_eq!(legal.rows.len(), 1);
        assert_eq!(legal.rows[0].len(), 3);
    }

    #[test]
    fn overfull_balance_target_respects_row_capacity() {
        // 4 rows × 100 µm of capacity but 480 µm of cells: the balance
        // target (120) exceeds what a row can physically hold, so the
        // hard capacity check must advance early — only the final
        // spill row may end up overfull.
        let widths = vec![30.0; 16];
        let desired: Vec<Point> = (0..16).map(|i| Point::new(i as f64, 1.0)).collect();
        let legal = legalize(&widths, &desired, &opts());
        for (r, cells) in legal.rows.iter().enumerate() {
            let load: f64 = cells.iter().map(|&c| widths[c]).sum();
            if r + 1 < legal.rows.len() {
                assert!(load <= 100.0 + 1e-9, "row {r} overfull: {load}");
            }
        }
        // All 16 cells still placed exactly once.
        let placed: usize = legal.rows.iter().map(Vec::len).sum();
        assert_eq!(placed, 16);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_inputs_panic() {
        let _ = legalize(&[1.0], &[], &opts());
    }
}
