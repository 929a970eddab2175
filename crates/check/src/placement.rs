//! Geometric checks over a placed mapped netlist (`PL*` codes):
//! finite coordinates, core containment, row-overlap freedom after
//! legalization, pad fixedness on the core boundary, and multilevel
//! cluster-hierarchy well-formedness.

use crate::diag::{Code, Diagnostic, Locus, Report};
use lily_cells::{Library, MappedNetwork};
use lily_place::multilevel::ClusterHierarchy;
use lily_place::{Point, Rect};

/// Checks the placement of a [`MappedNetwork`] against a core region.
///
/// * `PL004` — every coordinate (cells and pads) must be finite.
/// * `PL001` — every cell footprint (center ± half its gate width, one
///   row tall) must lie inside `core`.
/// * `PL002` — cells sharing a row (identical y) must not overlap in x.
/// * `PL003` — every I/O pad must sit exactly on the core boundary.
///
/// Cell widths come from the library (`grids × grid_width`), matching
/// what the legalizer packs. All comparisons use a relative tolerance
/// of `1e-6` of the core extent.
pub fn check_placement(mapped: &MappedNetwork, lib: &Library, core: Rect) -> Report {
    let mut report = Report::new();
    let tech = lib.technology();
    let eps = 1e-6 * (1.0 + core.width().max(core.height()));

    let mut finite = true;
    for (ci, cell) in mapped.cells().iter().enumerate() {
        let (x, y) = cell.position;
        if !x.is_finite() || !y.is_finite() {
            report.push(Diagnostic::new(
                Code::Pl004,
                Locus::Cell(ci),
                format!("cell position ({x}, {y}) is not finite"),
            ));
            finite = false;
        }
    }
    for (i, &(x, y)) in mapped.input_positions.iter().enumerate() {
        if !x.is_finite() || !y.is_finite() {
            report.push(Diagnostic::new(
                Code::Pl004,
                Locus::Input(i),
                format!("input pad position ({x}, {y}) is not finite"),
            ));
            finite = false;
        }
    }
    for (i, &(x, y)) in mapped.output_positions.iter().enumerate() {
        if !x.is_finite() || !y.is_finite() {
            report.push(Diagnostic::new(
                Code::Pl004,
                Locus::Output(i),
                format!("output pad position ({x}, {y}) is not finite"),
            ));
            finite = false;
        }
    }
    if !finite {
        return report;
    }

    // PL001: every cell inside the core.
    let width_of = |ci: usize| -> f64 {
        let gate = mapped.cells()[ci].gate;
        if gate.index() < lib.len() {
            lib.gate(gate).grids() as f64 * tech.grid_width
        } else {
            0.0
        }
    };
    for (ci, cell) in mapped.cells().iter().enumerate() {
        let (x, y) = cell.position;
        let half = width_of(ci) / 2.0;
        if x - half < core.llx - eps
            || x + half > core.urx + eps
            || y < core.lly - eps
            || y > core.ury + eps
        {
            report.push(Diagnostic::new(
                Code::Pl001,
                Locus::Cell(ci),
                format!(
                    "cell at ({x}, {y}) (width {}) leaves the core \
                     [{}, {}] × [{}, {}]",
                    2.0 * half,
                    core.llx,
                    core.urx,
                    core.lly,
                    core.ury
                ),
            ));
        }
    }

    // PL002: no overlap within a row. Legalized cells in one row share an
    // exact y coordinate, so rows are grouped by the bit pattern of y.
    let mut rows: std::collections::BTreeMap<u64, Vec<usize>> = std::collections::BTreeMap::new();
    for (ci, cell) in mapped.cells().iter().enumerate() {
        rows.entry(cell.position.1.to_bits()).or_default().push(ci);
    }
    for cells in rows.values_mut() {
        cells.sort_by(|&a, &b| {
            mapped.cells()[a]
                .position
                .0
                .partial_cmp(&mapped.cells()[b].position.0)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        for w in cells.windows(2) {
            let (a, b) = (w[0], w[1]);
            let right_edge = mapped.cells()[a].position.0 + width_of(a) / 2.0;
            let left_edge = mapped.cells()[b].position.0 - width_of(b) / 2.0;
            if left_edge < right_edge - eps {
                report.push(
                    Diagnostic::new(
                        Code::Pl002,
                        Locus::Cell(b),
                        format!(
                            "cells {a} and {b} overlap by {} in row y = {}",
                            right_edge - left_edge,
                            mapped.cells()[b].position.1
                        ),
                    )
                    .with_hint("run legalization before accepting the placement"),
                );
            }
        }
    }

    // PL003: pads sit on the core boundary.
    let mut pad = |locus: Locus, x: f64, y: f64| {
        let inside = x >= core.llx - eps
            && x <= core.urx + eps
            && y >= core.lly - eps
            && y <= core.ury + eps;
        let on_edge = (x - core.llx).abs() <= eps
            || (x - core.urx).abs() <= eps
            || (y - core.lly).abs() <= eps
            || (y - core.ury).abs() <= eps;
        if !(inside && on_edge) {
            report.push(Diagnostic::new(
                Code::Pl003,
                locus,
                format!("pad at ({x}, {y}) is not on the core boundary"),
            ));
        }
    };
    let in_pads: Vec<(usize, (f64, f64))> =
        mapped.input_positions.iter().copied().enumerate().collect();
    for (i, (x, y)) in in_pads {
        pad(Locus::Input(i), x, y);
    }
    let out_pads: Vec<(usize, (f64, f64))> =
        mapped.output_positions.iter().copied().enumerate().collect();
    for (i, (x, y)) in out_pads {
        pad(Locus::Output(i), x, y);
    }
    report
}

/// Checks a multilevel placement's coarsening history and per-level
/// position snapshots.
///
/// * `PL005` — every level's parent map must cover exactly the module
///   count of the finer level, point into `0..n_clusters`, leave no
///   cluster empty (each node in exactly one cluster per level), and
///   strictly shrink the graph.
/// * `PL006` — every interpolated/refined position snapshot (coarsest
///   first; one per level plus the coarsest solve) must be finite and
///   inside `core` (tolerance `1e-6` of the core extent).
///
/// `n_modules` is the finest-level (original) module count;
/// `level_positions` may be empty when only the hierarchy needs
/// checking.
pub fn check_hierarchy(
    hierarchy: &ClusterHierarchy,
    n_modules: usize,
    level_positions: &[Vec<Point>],
    core: Rect,
) -> Report {
    let mut report = Report::new();
    let mut fine = n_modules;
    let mut level_sizes = vec![n_modules];
    for (li, level) in hierarchy.levels.iter().enumerate() {
        if level.parent.len() != fine {
            report.push(Diagnostic::new(
                Code::Pl005,
                Locus::Whole,
                format!(
                    "level {li}: parent map covers {} modules, expected {fine}",
                    level.parent.len()
                ),
            ));
            break;
        }
        let mut seen = vec![false; level.n_clusters];
        for (m, &c) in level.parent.iter().enumerate() {
            if c >= level.n_clusters {
                report.push(Diagnostic::new(
                    Code::Pl005,
                    Locus::Node(m),
                    format!("level {li}: module {m} points at cluster {c} of {}", level.n_clusters),
                ));
            } else {
                seen[c] = true;
            }
        }
        for (c, &s) in seen.iter().enumerate() {
            if !s {
                report.push(Diagnostic::new(
                    Code::Pl005,
                    Locus::Whole,
                    format!("level {li}: cluster {c} is empty"),
                ));
            }
        }
        if level.n_clusters >= fine && fine > 0 {
            report.push(
                Diagnostic::new(
                    Code::Pl005,
                    Locus::Whole,
                    format!(
                        "level {li}: {} clusters do not shrink {fine} modules",
                        level.n_clusters
                    ),
                )
                .with_hint("each matching pass must strictly coarsen the graph"),
            );
        }
        fine = level.n_clusters;
        level_sizes.push(level.n_clusters);
    }

    // Snapshots run coarsest-first: snapshot k covers the level with
    // `level_sizes[levels - k]` modules.
    let eps = 1e-6 * (1.0 + core.width().max(core.height()));
    if !level_positions.is_empty() && level_positions.len() != hierarchy.levels.len() + 1 {
        report.push(Diagnostic::new(
            Code::Pl006,
            Locus::Whole,
            format!(
                "{} position snapshots for {} coarsening levels (want levels + 1)",
                level_positions.len(),
                hierarchy.levels.len()
            ),
        ));
    }
    for (k, snapshot) in level_positions.iter().enumerate() {
        if let Some(&want) = level_sizes.len().checked_sub(k + 1).map(|i| &level_sizes[i]) {
            if snapshot.len() != want {
                report.push(Diagnostic::new(
                    Code::Pl006,
                    Locus::Whole,
                    format!("snapshot {k} holds {} positions, expected {want}", snapshot.len()),
                ));
                continue;
            }
        }
        for (m, p) in snapshot.iter().enumerate() {
            if !(p.x.is_finite() && p.y.is_finite()) {
                report.push(Diagnostic::new(
                    Code::Pl006,
                    Locus::Node(m),
                    format!("snapshot {k}: position ({}, {}) is not finite", p.x, p.y),
                ));
            } else if p.x < core.llx - eps
                || p.x > core.urx + eps
                || p.y < core.lly - eps
                || p.y > core.ury + eps
            {
                report.push(Diagnostic::new(
                    Code::Pl006,
                    Locus::Node(m),
                    format!("snapshot {k}: position ({}, {}) leaves the core", p.x, p.y),
                ));
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use lily_cells::{MappedCell, SignalSource};

    fn placed(lib: &Library, positions: &[(f64, f64)]) -> MappedNetwork {
        let mut m = MappedNetwork::new("t", vec!["a".into()]);
        m.input_positions = vec![(0.0, 50.0)];
        let inv = lib.inverter();
        let mut src = SignalSource::Input(0);
        for &p in positions {
            let c = m.add_cell(MappedCell { gate: inv, fanins: vec![src], position: p });
            src = SignalSource::Cell(c);
        }
        m.add_output("y", src);
        m.output_positions[0] = (100.0, 50.0);
        m
    }

    fn core() -> Rect {
        Rect::new(0.0, 0.0, 100.0, 100.0)
    }

    #[test]
    fn disjoint_cells_are_clean() {
        let lib = Library::tiny();
        let m = placed(&lib, &[(20.0, 50.0), (60.0, 50.0)]);
        let r = check_placement(&m, &lib, core());
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn same_position_is_pl002() {
        let lib = Library::tiny();
        let m = placed(&lib, &[(20.0, 50.0), (20.0, 50.0)]);
        assert!(check_placement(&m, &lib, core()).has_code(Code::Pl002));
    }

    #[test]
    fn escaped_cell_is_pl001() {
        let lib = Library::tiny();
        let m = placed(&lib, &[(500.0, 50.0)]);
        assert!(check_placement(&m, &lib, core()).has_code(Code::Pl001));
    }

    #[test]
    fn interior_pad_is_pl003() {
        let lib = Library::tiny();
        let mut m = placed(&lib, &[(20.0, 50.0)]);
        m.input_positions[0] = (50.0, 50.0);
        assert!(check_placement(&m, &lib, core()).has_code(Code::Pl003));
    }

    #[test]
    fn nan_position_is_pl004() {
        let lib = Library::tiny();
        let m = placed(&lib, &[(f64::NAN, 50.0)]);
        let r = check_placement(&m, &lib, core());
        assert!(r.has_code(Code::Pl004));
        assert!(!r.has_code(Code::Pl001));
    }

    mod hierarchy {
        use super::*;
        use lily_place::multilevel::ClusterLevel;

        /// 8 modules → 4 clusters → 2 clusters, with in-core snapshots.
        fn sample() -> (ClusterHierarchy, usize, Vec<Vec<Point>>) {
            let h = ClusterHierarchy {
                levels: vec![
                    ClusterLevel { parent: vec![0, 0, 1, 1, 2, 2, 3, 3], n_clusters: 4 },
                    ClusterLevel { parent: vec![0, 0, 1, 1], n_clusters: 2 },
                ],
            };
            let at = |n: usize| (0..n).map(|i| Point::new(10.0 + i as f64, 50.0)).collect();
            (h, 8, vec![at(2), at(4), at(8)])
        }

        #[test]
        fn well_formed_hierarchy_is_clean() {
            let (h, n, snaps) = sample();
            let r = check_hierarchy(&h, n, &snaps, core());
            assert!(r.is_clean(), "{r}");
        }

        #[test]
        fn out_of_range_parent_is_pl005() {
            let (mut h, n, snaps) = sample();
            h.levels[0].parent[3] = 9; // points past n_clusters = 4
            let r = check_hierarchy(&h, n, &snaps, core());
            assert!(r.has_code(Code::Pl005), "{r}");
        }

        #[test]
        fn empty_cluster_is_pl005() {
            let (mut h, n, snaps) = sample();
            h.levels[0].parent[2] = 0; // cluster 1 loses a member...
            h.levels[0].parent[3] = 0; // ...and then the other: empty
            let r = check_hierarchy(&h, n, &snaps, core());
            assert!(r.has_code(Code::Pl005), "{r}");
        }

        #[test]
        fn wrong_parent_map_size_is_pl005() {
            let (mut h, n, snaps) = sample();
            h.levels[1].parent.pop(); // covers 3 modules, finer level has 4
            let r = check_hierarchy(&h, n, &snaps, core());
            assert!(r.has_code(Code::Pl005), "{r}");
        }

        #[test]
        fn non_shrinking_level_is_pl005() {
            let (mut h, n, snaps) = sample();
            // A level that maps 4 modules onto 4 singleton clusters.
            h.levels[1] = ClusterLevel { parent: vec![0, 1, 2, 3], n_clusters: 4 };
            let r = check_hierarchy(&h, n, &[], core());
            assert!(r.has_code(Code::Pl005), "{r}");
            let _ = snaps;
        }

        #[test]
        fn non_finite_snapshot_position_is_pl006() {
            let (h, n, mut snaps) = sample();
            snaps[1][2] = Point::new(f64::NAN, 50.0);
            let r = check_hierarchy(&h, n, &snaps, core());
            assert!(r.has_code(Code::Pl006), "{r}");
        }

        #[test]
        fn out_of_core_snapshot_position_is_pl006() {
            let (h, n, mut snaps) = sample();
            snaps[2][7] = Point::new(5000.0, 50.0);
            let r = check_hierarchy(&h, n, &snaps, core());
            assert!(r.has_code(Code::Pl006), "{r}");
        }

        #[test]
        fn snapshot_count_mismatch_is_pl006() {
            let (h, n, mut snaps) = sample();
            snaps.pop();
            let r = check_hierarchy(&h, n, &snaps, core());
            assert!(r.has_code(Code::Pl006), "{r}");
        }

        #[test]
        fn real_multilevel_placement_passes() {
            // The checker must accept what the placer actually builds.
            let core = Rect::new(0.0, 0.0, 800.0, 800.0);
            let side = 20;
            let idx = |r: usize, c: usize| r * side + c;
            let mut nets = Vec::new();
            for r in 0..side {
                for c in 0..side {
                    if c + 1 < side {
                        nets.push(vec![
                            lily_place::PinRef::Movable(idx(r, c)),
                            lily_place::PinRef::Movable(idx(r, c + 1)),
                        ]);
                    }
                    if r + 1 < side {
                        nets.push(vec![
                            lily_place::PinRef::Movable(idx(r, c)),
                            lily_place::PinRef::Movable(idx(r + 1, c)),
                        ]);
                    }
                }
            }
            let problem = lily_place::PlacementProblem {
                movable: side * side,
                fixed: vec![Point::new(core.llx, core.lly), Point::new(core.urx, core.ury)],
                nets,
            };
            let m = lily_place::try_multilevel_place(&problem, core).expect("multilevel placement");
            let r = check_hierarchy(&m.hierarchy, problem.movable, &m.level_positions, core);
            assert!(r.is_clean(), "{r}");
        }
    }
}
