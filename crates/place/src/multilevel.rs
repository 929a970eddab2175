//! Multilevel clustered global placement for large instances.
//!
//! Flat GORDIAN-style placement ([`crate::global`]) re-solves the full
//! quadratic system at every partitioning level, with a CG budget that
//! grows linearly in the module count — fine for the paper's benchmark
//! sizes (hundreds of gates), hopeless at 10⁵ modules. This module
//! implements the standard multilevel answer in the GORDIAN lineage:
//!
//! 1. **Coarsen** — repeated deterministic first-choice clustering:
//!    scan modules in index order and merge each unclustered module
//!    with its most strongly connected eligible neighbor under the
//!    clique model (ties to the lowest index) — pairing with an
//!    unclustered neighbor or absorbing into a clustered one under a
//!    small arity cap — producing a cluster hierarchy.
//! 2. **Solve** — run the flat partitioning placer on the coarsest
//!    cluster graph (a few hundred clusters, so the `O(n)` CG budget is
//!    cheap there).
//! 3. **Interpolate → refine** — walk back down the hierarchy: each
//!    module starts at its cluster's position, is anchored there with a
//!    small spring, and a *bounded* number of CG iterations per level
//!    smooths the placement against the finer connectivity.
//!
//! Coarsening and every level's matrix depend only on the nets, not on
//! where the pads are, so [`MultilevelSystem::prepare`] does them once
//! and [`MultilevelSystem::solve`] runs steps 2–3 for given pad
//! positions; the flow orders its pads with one solve and places the
//! subject graph with another.
//!
//! Every step is sequential or built on the deterministic `lily-par`
//! kernels, so the result is byte-identical at any `LILY_THREADS` —
//! the coarsening order, match selection, and interpolation are pure
//! functions of the problem, and the CG refinement inherits the fixed
//! chunking of [`crate::sparse`].

use crate::error::PlaceError;
use crate::geom::{Point, Rect};
use crate::global::try_global_place_under;
use crate::quadratic::{pad_centroid, PinRef, PlacementProblem, REGULARIZATION};
use crate::sparse::{cg_solve_under, CsrMatrix};
use lily_fault::CancelToken;
use lily_par::ParOptions;

/// Stop coarsening once a level has at most this many clusters; the
/// flat partitioning placer runs there.
const COARSE_TARGET: usize = 192;
/// Hard cap on coarsening levels (clustering at least halves the module
/// count per level, so this is never reached in practice).
const MAX_LEVELS: usize = 24;
/// Conjugate-gradient iterations per axis spent refining the level just
/// below the coarsest solve; each finer level gets half the previous
/// level's budget, floored at [`REFINE_ITERS_FLOOR`]. Fine levels start
/// from an interpolated warm start and only need smoothing, while
/// per-iteration cost doubles level to level — the decaying schedule
/// keeps total refinement work `O(n)` instead of `O(n · REFINE_ITERS)`.
const REFINE_ITERS: usize = 48;
/// Lower bound on the per-level refinement budget.
const REFINE_ITERS_FLOOR: usize = 8;
/// Spring weight anchoring each module to its interpolated position
/// during refinement (keeps the coarse level's spreading).
const REFINE_ANCHOR_WEIGHT: f64 = 0.05;
/// Nets with more pins than this are ignored when scoring matches — a
/// huge net says almost nothing about which two of its pins belong
/// together, and its clique expansion is quadratic.
const MATCH_NET_CAP: usize = 32;

/// One coarsening step: how the modules of a finer level map onto the
/// clusters of the next-coarser level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterLevel {
    /// `parent[i]` is the coarser-level cluster of finer-level module
    /// `i`; every value is `< n_clusters`.
    pub parent: Vec<usize>,
    /// Number of clusters at the coarser level.
    pub n_clusters: usize,
}

/// The full coarsening history: `levels[0]` maps the original modules,
/// `levels.last()` maps into the coarsest cluster graph.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClusterHierarchy {
    /// Per-level parent maps, finest first.
    pub levels: Vec<ClusterLevel>,
}

impl ClusterHierarchy {
    /// Number of clusters at the coarsest level (the original module
    /// count when no coarsening happened and `n_modules` is given).
    pub fn coarsest_len(&self, n_modules: usize) -> usize {
        self.levels.last().map_or(n_modules, |l| l.n_clusters)
    }
}

/// The result of multilevel placement.
#[derive(Debug, Clone)]
pub struct MultilevelPlacement {
    /// Final module positions (inside the core region).
    pub positions: Vec<Point>,
    /// The coarsening history (for diagnostics — `lily-check` verifies
    /// its well-formedness).
    pub hierarchy: ClusterHierarchy,
    /// Positions after refinement at every level, coarsest first; the
    /// last entry equals [`MultilevelPlacement::positions`].
    pub level_positions: Vec<Vec<Point>>,
    /// Total conjugate-gradient iterations across the coarsest solve
    /// and all refinement levels.
    pub cg_iterations: usize,
}

/// Fallible multilevel clustered global placement: [`MultilevelSystem::prepare`]
/// followed by [`MultilevelSystem::solve`] against the problem's own
/// pads. See the module docs for the algorithm.
///
/// # Errors
///
/// * [`PlaceError::InvalidProblem`] — the problem fails validation.
/// * [`PlaceError::NonFinite`] — the core region, a pad coordinate, or
///   a refined position is NaN/∞.
/// * [`PlaceError::SolverDiverged`] — the coarsest-level solve diverged.
/// * [`PlaceError::Cancelled`] — the calling thread's ambient
///   cancellation token tripped (it is polled once per coarsening and
///   refinement level and once per CG iteration).
pub fn try_multilevel_place(
    problem: &PlacementProblem,
    region: Rect,
) -> Result<MultilevelPlacement, PlaceError> {
    MultilevelSystem::prepare(problem, region)?.solve(&problem.fixed)
}

/// The pad-independent half of a multilevel placement: the cluster
/// hierarchy, the coarsest cluster problem, and every refinement
/// level's assembled matrix. Only the right-hand sides of the
/// quadratic systems depend on where the pads are, so one prepared
/// system serves any number of [`MultilevelSystem::solve`] calls with
/// different pad positions (the flow orders the pads with one solve
/// and places the subject graph with another).
#[derive(Debug)]
pub struct MultilevelSystem {
    region: Rect,
    n_pads: usize,
    hierarchy: ClusterHierarchy,
    /// The problem the flat placer solves; its pads are placeholders,
    /// replaced by each solve's.
    coarsest: PlacementProblem,
    /// One assembled system per hierarchy level, finest first.
    levels: Vec<LevelSystem>,
}

/// The refinement system of one hierarchy level: the clique Laplacian
/// plus fixed-pin diagonal, refine anchors and regularization, and the
/// fixed-pin springs the right-hand side sums over.
#[derive(Debug)]
struct LevelSystem {
    matrix: CsrMatrix,
    /// Module `m`'s fixed-pin springs `(weight, pad)` in assembly order
    /// are `pad_springs[pad_start[m]..pad_start[m + 1]]`.
    pad_start: Vec<usize>,
    pad_springs: Vec<(f64, usize)>,
}

impl LevelSystem {
    /// Assembles `fine`'s refinement matrix row by row. Its entries are
    /// those a triplet list would get from a sweep over the nets — the
    /// clique springs and fixed-pin diagonal of every pin pair `(i, j)`,
    /// `i < j`, then every module's refine anchor, then the
    /// regularization — and each row's duplicates are summed in that
    /// sweep order, so the values are bit-identical to the per-solve
    /// assembly this replaces.
    fn assemble(fine: &PlacementProblem, anchor_weight: f64) -> Self {
        let n = fine.movable;
        // The nets on each module, ascending, each once.
        let mut start = vec![0usize; n + 1];
        let mut last = vec![usize::MAX; n];
        for (ni, net) in fine.nets.iter().enumerate() {
            for pin in net {
                if let PinRef::Movable(m) = *pin {
                    if last[m] != ni {
                        last[m] = ni;
                        start[m + 1] += 1;
                    }
                }
            }
        }
        for m in 0..n {
            start[m + 1] += start[m];
        }
        let mut fill = start.clone();
        let mut nets_of = vec![0usize; start[n]];
        last.fill(usize::MAX);
        for (ni, net) in fine.nets.iter().enumerate() {
            for pin in net {
                if let PinRef::Movable(m) = *pin {
                    if last[m] != ni {
                        last[m] = ni;
                        nets_of[fill[m]] = ni;
                        fill[m] += 1;
                    }
                }
            }
        }
        drop((last, fill));

        let mut row_ptr = Vec::with_capacity(n + 1);
        let (mut col, mut val) = (Vec::new(), Vec::new());
        let mut pad_start = Vec::with_capacity(n + 1);
        let mut pad_springs = Vec::new();
        row_ptr.push(0);
        pad_start.push(0);
        // Row scratch: distinct columns in first-seen order, and each
        // column's slot in it (reset after every row).
        let mut row: Vec<(usize, f64)> = Vec::new();
        let mut slot_of = vec![usize::MAX; n];
        let mut at: Vec<usize> = Vec::new();
        for r in 0..n {
            for &ni in &nets_of[start[r]..start[r + 1]] {
                let net = &fine.nets[ni];
                let w = 2.0 / net.len() as f64;
                let mut visit = |i: usize, j: usize| match (net[i], net[j]) {
                    (PinRef::Movable(a), PinRef::Movable(b)) => {
                        if a != b {
                            merge(&mut row, &mut slot_of, r, w);
                            merge(&mut row, &mut slot_of, if a == r { b } else { a }, -w);
                        }
                    }
                    (PinRef::Movable(_), PinRef::Fixed(f))
                    | (PinRef::Fixed(f), PinRef::Movable(_)) => {
                        merge(&mut row, &mut slot_of, r, w);
                        pad_springs.push((w, f));
                    }
                    (PinRef::Fixed(_), PinRef::Fixed(_)) => {}
                };
                // The pairs with `r` on either side, in sweep order.
                at.clear();
                at.extend((0..net.len()).filter(|&k| net[k] == PinRef::Movable(r)));
                for i in 0..net.len() {
                    if net[i] == PinRef::Movable(r) {
                        (i + 1..net.len()).for_each(|j| visit(i, j));
                    } else {
                        at.iter().filter(|&&j| j > i).for_each(|&j| visit(i, j));
                    }
                }
            }
            merge(&mut row, &mut slot_of, r, anchor_weight);
            merge(&mut row, &mut slot_of, r, REGULARIZATION);
            for &(c, _) in &row {
                slot_of[c] = usize::MAX;
            }
            row.sort_unstable_by_key(|e| e.0);
            col.extend(row.iter().map(|e| e.0));
            val.extend(row.iter().map(|e| e.1));
            row.clear();
            row_ptr.push(col.len());
            pad_start.push(pad_springs.len());
        }
        Self { matrix: CsrMatrix::from_rows(row_ptr, col, val), pad_start, pad_springs }
    }

    /// One bounded refinement solve: up to `max_iter` CG iterations per
    /// axis from the interpolated positions, each module anchored to
    /// its interpolated position. Any finite result is accepted,
    /// converged or not — the warm start is already good, and a full
    /// convergence gate would force `O(n)` iterations per level.
    fn refine(
        &self,
        pads: &[Point],
        centroid: Point,
        interpolated: &[Point],
        anchor_weight: f64,
        max_iter: usize,
        cancel: &CancelToken,
    ) -> Result<(Vec<Point>, usize), PlaceError> {
        if !interpolated.iter().all(|p| p.x.is_finite() && p.y.is_finite()) {
            return Err(PlaceError::NonFinite { context: "anchor targets" });
        }
        let n = interpolated.len();
        let mut bx = vec![0.0; n];
        let mut by = vec![0.0; n];
        for m in 0..n {
            for &(w, f) in &self.pad_springs[self.pad_start[m]..self.pad_start[m + 1]] {
                bx[m] += w * pads[f].x;
                by[m] += w * pads[f].y;
            }
            bx[m] += anchor_weight * interpolated[m].x;
            by[m] += anchor_weight * interpolated[m].y;
            bx[m] += REGULARIZATION * centroid.x;
            by[m] += REGULARIZATION * centroid.y;
        }
        let x0: Vec<f64> = interpolated.iter().map(|p| p.x).collect();
        let y0: Vec<f64> = interpolated.iter().map(|p| p.y).collect();
        let cancelled = |_| PlaceError::Cancelled { context: "conjugate-gradient" };
        let sx =
            cg_solve_under(&self.matrix, &bx, &x0, 1e-8, max_iter, cancel).map_err(cancelled)?;
        let sy =
            cg_solve_under(&self.matrix, &by, &y0, 1e-8, max_iter, cancel).map_err(cancelled)?;
        if !(sx.x.iter().all(|v| v.is_finite()) && sy.x.iter().all(|v| v.is_finite())) {
            return Err(PlaceError::NonFinite { context: "refined positions" });
        }
        let positions = sx.x.into_iter().zip(sy.x).map(|(x, y)| Point::new(x, y)).collect();
        Ok((positions, sx.iterations + sy.iterations))
    }
}

/// Adds `v` at column `c` of the row being assembled: the first value
/// opens the column's slot, later ones add to it in arrival order.
fn merge(row: &mut Vec<(usize, f64)>, slot_of: &mut [usize], c: usize, v: f64) {
    match slot_of[c] {
        usize::MAX => {
            slot_of[c] = row.len();
            row.push((c, v));
        }
        s => row[s].1 += v,
    }
}

impl MultilevelSystem {
    /// Validates `problem` and `region`, coarsens the problem into a
    /// cluster hierarchy, and assembles every refinement level. The
    /// problem's pad positions are not read.
    ///
    /// # Errors
    ///
    /// * [`PlaceError::InvalidProblem`] — the problem fails validation.
    /// * [`PlaceError::NonFinite`] — the core region is NaN/∞.
    /// * [`PlaceError::Cancelled`] — the calling thread's ambient
    ///   cancellation token tripped mid-coarsening.
    pub fn prepare(problem: &PlacementProblem, region: Rect) -> Result<Self, PlaceError> {
        let cancel = lily_fault::ambient_token();
        problem.validate()?;
        let r = region;
        if ![r.llx, r.lly, r.urx, r.ury].iter().all(|v| v.is_finite()) {
            return Err(PlaceError::NonFinite { context: "core region" });
        }

        // Coarsen. `coarse[k]` is the problem after k+1 matchings; the
        // original problem stays borrowed as level 0.
        let mut hierarchy = ClusterHierarchy::default();
        let mut coarse: Vec<PlacementProblem> = Vec::new();
        loop {
            let cur: &PlacementProblem = coarse.last().unwrap_or(problem);
            if cur.movable <= COARSE_TARGET || hierarchy.levels.len() >= MAX_LEVELS {
                break;
            }
            if cancel.is_cancelled() {
                return Err(PlaceError::Cancelled { context: "multilevel-coarsen" });
            }
            let level = match_level(cur, MATCH_NET_CAP);
            // Matching that barely shrinks the graph (pathologically
            // sparse connectivity) would loop forever; stop and solve
            // what we have.
            if level.n_clusters * 20 > cur.movable * 19 {
                break;
            }
            let next = project_problem(cur, &level);
            hierarchy.levels.push(level);
            coarse.push(next);
        }

        // Assemble each level from the problem it refines; the levels
        // are independent, so they assemble in parallel.
        let coarsest = coarse.pop().unwrap_or_else(|| problem.clone());
        let fines: Vec<&PlacementProblem> = if hierarchy.levels.is_empty() {
            Vec::new()
        } else {
            std::iter::once(problem).chain(&coarse).collect()
        };
        let levels = lily_par::par_map(&ParOptions::current(), &fines, |fine| {
            LevelSystem::assemble(fine, REFINE_ANCHOR_WEIGHT)
        });
        Ok(Self { region, n_pads: problem.fixed.len(), hierarchy, coarsest, levels })
    }

    /// Places the prepared problem against `pads`: the flat
    /// partitioning placer on the coarsest level, then interpolation
    /// and bounded refinement back down to the original modules.
    ///
    /// # Errors
    ///
    /// * [`PlaceError::InvalidProblem`] — `pads` has the wrong length.
    /// * [`PlaceError::NonFinite`] — a pad coordinate, an interpolated
    ///   anchor, or a refined position is NaN/∞.
    /// * [`PlaceError::SolverDiverged`] — the coarsest-level solve
    ///   diverged.
    /// * [`PlaceError::Cancelled`] — the calling thread's ambient
    ///   cancellation token tripped mid-placement.
    pub fn solve(&self, pads: &[Point]) -> Result<MultilevelPlacement, PlaceError> {
        let cancel = lily_fault::ambient_token();
        if pads.len() != self.n_pads {
            return Err(PlaceError::InvalidProblem {
                message: format!("{} pad positions for {} pads", pads.len(), self.n_pads),
            });
        }
        if self.coarsest.movable == 0 {
            return Ok(MultilevelPlacement {
                positions: Vec::new(),
                hierarchy: ClusterHierarchy::default(),
                level_positions: Vec::new(),
                cg_iterations: 0,
            });
        }
        if !pads.iter().all(|p| p.x.is_finite() && p.y.is_finite()) {
            return Err(PlaceError::NonFinite { context: "pad coordinates" });
        }
        let r = self.region;

        // Solve the coarsest level with the flat partitioning placer.
        let coarsest = PlacementProblem { fixed: pads.to_vec(), ..self.coarsest.clone() };
        let g = try_global_place_under(&coarsest, r, &cancel)?;
        let mut cg_iterations = g.cg_iterations;
        let mut positions = g.positions;
        let mut level_positions: Vec<Vec<Point>> = vec![positions.clone()];

        // Interpolate and refine back down: level k of the hierarchy
        // maps problem k (0 = original) onto problem k+1's clusters.
        // The iteration budget halves with each finer level (floored),
        // V-cycle style: the interpolated warm start is already good,
        // and an iteration at the finest level costs as much as the
        // whole rest of the hierarchy.
        let centroid = pad_centroid(pads);
        for (k, level) in self.hierarchy.levels.iter().enumerate().rev() {
            if cancel.is_cancelled() {
                return Err(PlaceError::Cancelled { context: "multilevel-refine" });
            }
            let interpolated: Vec<Point> = level.parent.iter().map(|&c| positions[c]).collect();
            let depth = self.hierarchy.levels.len() - 1 - k;
            let iters = (REFINE_ITERS >> depth).max(REFINE_ITERS_FLOOR);
            let (refined, spent) = self.levels[k].refine(
                pads,
                centroid,
                &interpolated,
                REFINE_ANCHOR_WEIGHT,
                iters,
                &cancel,
            )?;
            cg_iterations += spent;
            positions = refined.into_iter().map(|p| r.clamp(p)).collect();
            level_positions.push(positions.clone());
        }

        Ok(MultilevelPlacement {
            positions,
            hierarchy: self.hierarchy.clone(),
            level_positions,
            cg_iterations,
        })
    }
}

/// Most fine modules one cluster may absorb in a single
/// [`match_level`] pass. Pure pair matching stalls on dense coarse
/// graphs — once every neighbor of an unmatched module is matched,
/// shrinkage collapses and the "coarsest" level is left thousands of
/// clusters wide. Letting a module join an already-formed cluster
/// keeps coarsening moving; the cap stops hub clusters from swallowing
/// whole neighborhoods and degenerating the hierarchy into a star.
const CLUSTER_ARITY_CAP: usize = 4;

/// One deterministic first-choice clustering pass: scan modules in
/// index order, merge each unclustered module with its heaviest
/// eligible neighbor (clique-model edge weights, ties to the lowest
/// index) — an unclustered neighbor founds a new pair, a clustered one
/// absorbs the module into its cluster while the cluster is under
/// [`CLUSTER_ARITY_CAP`]. Modules with no eligible neighbor become
/// singleton clusters.
fn match_level(problem: &PlacementProblem, net_cap: usize) -> ClusterLevel {
    let n = problem.movable;
    // Incidence lists over the nets small enough to score.
    let mut degree = vec![0usize; n];
    let scored: Vec<&Vec<PinRef>> =
        problem.nets.iter().filter(|net| net.len() >= 2 && net.len() <= net_cap).collect();
    for net in &scored {
        for pin in net.iter() {
            if let PinRef::Movable(m) = *pin {
                degree[m] += 1;
            }
        }
    }
    let mut start = vec![0usize; n + 1];
    for i in 0..n {
        start[i + 1] = start[i] + degree[i];
    }
    let mut incident = vec![0u32; start[n]];
    let mut fill = start.clone();
    for (ni, net) in scored.iter().enumerate() {
        for pin in net.iter() {
            if let PinRef::Movable(m) = *pin {
                incident[fill[m]] = ni as u32;
                fill[m] += 1;
            }
        }
    }

    let mut parent = vec![usize::MAX; n];
    let mut n_clusters = 0usize;
    let mut cluster_arity: Vec<u8> = Vec::new();
    // Dense scratch: accumulated weight per neighbor plus the touched
    // list, reset between modules (O(touched), not O(n)).
    let mut weight = vec![0.0f64; n];
    let mut touched: Vec<usize> = Vec::new();
    for u in 0..n {
        if parent[u] != usize::MAX {
            continue;
        }
        touched.clear();
        for &ni in &incident[start[u]..start[u + 1]] {
            let net = scored[ni as usize];
            let w = 2.0 / net.len() as f64;
            for pin in net.iter() {
                let v = match *pin {
                    PinRef::Movable(v) if v != u => v,
                    _ => continue,
                };
                if weight[v] == 0.0 {
                    touched.push(v);
                }
                weight[v] += w;
            }
        }
        // Heaviest eligible neighbor, ties to the lowest index. The
        // touched list is in first-encounter order, so an explicit
        // index tie-break keeps the choice independent of net ordering.
        let mut best: Option<(f64, usize)> = None;
        for &v in &touched {
            let eligible =
                parent[v] == usize::MAX || (cluster_arity[parent[v]] as usize) < CLUSTER_ARITY_CAP;
            if eligible {
                let better = match best {
                    None => true,
                    Some((bw, bv)) => weight[v] > bw || (weight[v] == bw && v < bv),
                };
                if better {
                    best = Some((weight[v], v));
                }
            }
            weight[v] = 0.0;
        }
        match best {
            Some((_, v)) if parent[v] == usize::MAX => {
                let c = n_clusters;
                n_clusters += 1;
                parent[u] = c;
                parent[v] = c;
                cluster_arity.push(2);
            }
            Some((_, v)) => {
                let c = parent[v];
                parent[u] = c;
                cluster_arity[c] += 1;
            }
            None => {
                let c = n_clusters;
                n_clusters += 1;
                parent[u] = c;
                cluster_arity.push(1);
            }
        }
    }
    ClusterLevel { parent, n_clusters }
}

/// Projects a problem through a matching: pins map onto clusters, nets
/// deduplicate, and nets that collapse below two distinct pins (or lose
/// every movable pin) drop out.
fn project_problem(fine: &PlacementProblem, level: &ClusterLevel) -> PlacementProblem {
    let mut nets: Vec<Vec<PinRef>> = Vec::with_capacity(fine.nets.len());
    let mut mapped: Vec<(u8, usize)> = Vec::new();
    for net in &fine.nets {
        mapped.clear();
        for pin in net {
            mapped.push(match *pin {
                PinRef::Movable(m) => (0, level.parent[m]),
                PinRef::Fixed(f) => (1, f),
            });
        }
        mapped.sort_unstable();
        mapped.dedup();
        if mapped.len() < 2 || mapped.iter().all(|&(kind, _)| kind == 1) {
            continue;
        }
        nets.push(
            mapped
                .iter()
                .map(|&(kind, i)| if kind == 0 { PinRef::Movable(i) } else { PinRef::Fixed(i) })
                .collect(),
        );
    }
    PlacementProblem { movable: level.n_clusters, fixed: fine.fixed.clone(), nets }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 2D grid graph with pads on four corners (same shape the flat
    /// placer's tests use, scaled up so coarsening actually happens).
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

    fn assert_hierarchy_well_formed(h: &ClusterHierarchy, n_modules: usize) {
        let mut fine = n_modules;
        for (li, level) in h.levels.iter().enumerate() {
            assert_eq!(level.parent.len(), fine, "level {li}: parent map size");
            let mut seen = vec![false; level.n_clusters];
            for &c in &level.parent {
                assert!(c < level.n_clusters, "level {li}: cluster {c} out of range");
                seen[c] = true;
            }
            assert!(seen.iter().all(|&s| s), "level {li}: empty cluster");
            assert!(level.n_clusters < fine, "level {li}: no shrinkage");
            fine = level.n_clusters;
        }
    }

    #[test]
    fn multilevel_places_inside_core_with_real_coarsening() {
        let core = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        let p = grid_problem(24, core); // 576 modules > COARSE_TARGET
        let m = try_multilevel_place(&p, core).expect("multilevel");
        assert_eq!(m.positions.len(), p.movable);
        assert!(!m.hierarchy.levels.is_empty(), "expected at least one coarsening level");
        assert!(m.hierarchy.coarsest_len(p.movable) <= COARSE_TARGET * 2);
        assert_hierarchy_well_formed(&m.hierarchy, p.movable);
        for pt in &m.positions {
            assert!(core.contains(*pt), "{pt:?} outside core");
        }
        // Every per-level snapshot is finite and in-core.
        assert_eq!(m.level_positions.len(), m.hierarchy.levels.len() + 1);
        assert_eq!(m.level_positions.last().unwrap(), &m.positions);
        // Connectivity preserved: corner modules end up near their pads.
        let d00 = m.positions[0].manhattan(Point::new(0.0, 0.0));
        let d_far = m.positions[0].manhattan(Point::new(1000.0, 1000.0));
        assert!(d00 < d_far, "corner module drifted: {:?}", m.positions[0]);
    }

    #[test]
    fn multilevel_is_deterministic() {
        let core = Rect::new(0.0, 0.0, 500.0, 500.0);
        let p = grid_problem(20, core);
        let a = try_multilevel_place(&p, core).expect("first run");
        let b = try_multilevel_place(&p, core).expect("second run");
        assert_eq!(a.hierarchy, b.hierarchy);
        assert_eq!(a.cg_iterations, b.cg_iterations);
        for (x, y) in a.positions.iter().zip(&b.positions) {
            assert_eq!(x.x.to_bits(), y.x.to_bits());
            assert_eq!(x.y.to_bits(), y.y.to_bits());
        }
    }

    #[test]
    fn small_problems_skip_coarsening() {
        let core = Rect::new(0.0, 0.0, 100.0, 100.0);
        let p = grid_problem(4, core); // 16 modules <= COARSE_TARGET
        let m = try_multilevel_place(&p, core).expect("small");
        assert!(m.hierarchy.levels.is_empty());
        assert_eq!(m.level_positions.len(), 1);
        for pt in &m.positions {
            assert!(core.contains(*pt));
        }
    }

    #[test]
    fn empty_problem() {
        let core = Rect::new(0.0, 0.0, 10.0, 10.0);
        let m = try_multilevel_place(&PlacementProblem::default(), core).expect("empty");
        assert!(m.positions.is_empty());
        assert!(m.hierarchy.levels.is_empty());
    }

    #[test]
    fn cancelled_token_stops_multilevel() {
        let core = Rect::new(0.0, 0.0, 100.0, 100.0);
        let p = grid_problem(20, core);
        let token = CancelToken::new();
        token.cancel();
        let _scope = lily_fault::set_ambient(token);
        let got = try_multilevel_place(&p, core);
        assert!(matches!(got, Err(PlaceError::Cancelled { .. })), "{got:?}");
    }

    #[test]
    fn one_prepared_system_solves_any_pads_like_a_fresh_placement() {
        let core = Rect::new(0.0, 0.0, 800.0, 800.0);
        let p = grid_problem(24, core);
        let system = MultilevelSystem::prepare(&p, core).expect("prepare");
        let mut rotated = p.fixed.clone();
        rotated.rotate_left(1);
        for pads in [p.fixed.clone(), rotated] {
            let fresh = PlacementProblem { fixed: pads.clone(), ..p.clone() };
            let want = try_multilevel_place(&fresh, core).expect("fresh");
            let got = system.solve(&pads).expect("prepared");
            assert!(!got.hierarchy.levels.is_empty());
            assert_eq!(got.hierarchy, want.hierarchy);
            assert_eq!(got.cg_iterations, want.cg_iterations);
            let bits = |m: &MultilevelPlacement| -> Vec<(u64, u64)> {
                m.level_positions.iter().flatten().map(|q| (q.x.to_bits(), q.y.to_bits())).collect()
            };
            assert_eq!(bits(&got), bits(&want));
        }
        // Every solve re-checks its pads.
        let short = system.solve(&p.fixed[1..]);
        assert!(matches!(short, Err(PlaceError::InvalidProblem { .. })), "{short:?}");
        let mut nan = p.fixed.clone();
        nan[2].y = f64::NAN;
        let got = system.solve(&nan);
        assert!(matches!(got, Err(PlaceError::NonFinite { context: "pad coordinates" })));
        let token = CancelToken::new();
        token.cancel();
        let _scope = lily_fault::set_ambient(token);
        let got = system.solve(&p.fixed);
        assert!(matches!(got, Err(PlaceError::Cancelled { .. })), "{got:?}");
    }

    /// A matrix row's `(column, value bits)` entries.
    type Row = Vec<(usize, u64)>;
    /// A module's fixed-pin springs as `(weight bits, pad)`.
    type Springs = Vec<(u64, usize)>;

    /// The per-solve assembly the prepared levels replace: triplets in
    /// net-sweep order, each row stably sorted by column and its
    /// duplicates summed left to right; plus each module's fixed-pin
    /// springs in the same order.
    fn reference_level(p: &PlacementProblem, anchor_weight: f64) -> (Vec<Row>, Vec<Springs>) {
        let n = p.movable;
        let mut triplets: Vec<(usize, usize, f64)> = Vec::new();
        let mut springs: Vec<Springs> = vec![Vec::new(); n];
        for net in &p.nets {
            let w = 2.0 / net.len() as f64;
            for i in 0..net.len() {
                for j in i + 1..net.len() {
                    match (net[i], net[j]) {
                        (PinRef::Movable(a), PinRef::Movable(b)) if a != b => {
                            triplets.extend([(a, a, w), (b, b, w), (a, b, -w), (b, a, -w)]);
                        }
                        (PinRef::Movable(a), PinRef::Fixed(f))
                        | (PinRef::Fixed(f), PinRef::Movable(a)) => {
                            triplets.push((a, a, w));
                            springs[a].push((w.to_bits(), f));
                        }
                        _ => {}
                    }
                }
            }
        }
        triplets.extend((0..n).map(|m| (m, m, anchor_weight)));
        triplets.extend((0..n).map(|m| (m, m, REGULARIZATION)));
        let rows = (0..n)
            .map(|r| {
                let mut row: Vec<(usize, f64)> =
                    triplets.iter().filter(|t| t.0 == r).map(|t| (t.1, t.2)).collect();
                row.sort_by_key(|e| e.0);
                let mut merged: Vec<(usize, f64)> = Vec::new();
                for (c, v) in row {
                    match merged.last_mut() {
                        Some(last) if last.0 == c => last.1 += v,
                        _ => merged.push((c, v)),
                    }
                }
                merged.into_iter().map(|(c, v)| (c, v.to_bits())).collect()
            })
            .collect();
        (rows, springs)
    }

    #[test]
    fn assembled_levels_match_the_triplet_sweep() {
        // Random problems with repeated pins, pad-only pairs, and large
        // nets, plus a grid's whole hierarchy.
        let mut rng = lily_netlist::sim::XorShift64::new(0x1e7e1);
        let mut problems: Vec<PlacementProblem> = (0..30)
            .map(|round| {
                let movable = 1 + rng.gen_index(20);
                let fixed = vec![Point::default(); 1 + rng.gen_index(4)];
                let nets = (0..1 + rng.gen_index(3 * (round + 1)))
                    .map(|_| {
                        (0..2 + rng.gen_index(if round % 5 == 0 { 40 } else { 5 }))
                            .map(|_| match rng.gen_index(4) {
                                0 => PinRef::Fixed(rng.gen_index(fixed.len())),
                                _ => PinRef::Movable(rng.gen_index(movable)),
                            })
                            .collect()
                    })
                    .collect();
                PlacementProblem { movable, fixed, nets }
            })
            .collect();
        let core = Rect::new(0.0, 0.0, 500.0, 500.0);
        let grid = grid_problem(20, core);
        let mut cur = grid.clone();
        while cur.movable > 8 {
            let level = match_level(&cur, 32);
            cur = project_problem(&cur, &level);
            problems.push(cur.clone());
        }
        problems.push(grid);
        for (k, p) in problems.iter().enumerate() {
            let level = LevelSystem::assemble(p, 0.05);
            let (rows, springs) = reference_level(p, 0.05);
            for r in 0..p.movable {
                let (cols, vals) = level.matrix.row(r);
                let got: Row = cols.iter().zip(vals).map(|(&c, v)| (c, v.to_bits())).collect();
                assert_eq!(got, rows[r], "problem {k}, row {r}");
                let got: Springs = level.pad_springs[level.pad_start[r]..level.pad_start[r + 1]]
                    .iter()
                    .map(|&(w, f)| (w.to_bits(), f))
                    .collect();
                assert_eq!(got, springs[r], "problem {k}, springs of {r}");
            }
        }
    }

    #[test]
    fn bounded_refine_accepts_unconverged_solves() {
        // A long chain needs many CG iterations to converge; a bounded
        // refinement solve must return the partial (finite) result
        // instead of rejecting it as diverged.
        let m = 32;
        let mut nets = vec![vec![PinRef::Fixed(0), PinRef::Movable(0)]];
        for i in 0..m - 1 {
            nets.push(vec![PinRef::Movable(i), PinRef::Movable(i + 1)]);
        }
        nets.push(vec![PinRef::Movable(m - 1), PinRef::Fixed(1)]);
        let p = PlacementProblem {
            movable: m,
            fixed: vec![Point::new(0.0, 0.0), Point::new(100.0, 0.0)],
            nets,
        };
        let level = LevelSystem::assemble(&p, 0.0);
        let centroid = pad_centroid(&p.fixed);
        let cold = vec![centroid; m];
        let never = CancelToken::never();
        let strict = crate::quadratic::try_solve_quadratic(&p, &[], &[]).expect("strict");
        let (partial, iterations) =
            level.refine(&p.fixed, centroid, &cold, 0.0, 2, &never).expect("bounded refine");
        assert!(iterations <= 4, "spent {iterations} iterations");
        assert!(partial.iter().all(|pt| pt.x.is_finite() && pt.y.is_finite()));
        let off = partial.iter().zip(&strict.positions).any(|(a, b)| (a.x - b.x).abs() > 1e-3);
        assert!(off, "2 iterations cannot converge a 32-chain");
        // With a generous budget the same solve converges to the strict
        // solver's answer.
        let (full, _) =
            level.refine(&p.fixed, centroid, &cold, 0.0, 4 * m + 200, &never).expect("full");
        for (a, b) in full.iter().zip(&strict.positions) {
            assert!((a.x - b.x).abs() < 1e-6 && (a.y - b.y).abs() < 1e-6);
        }
    }

    #[test]
    fn matching_respects_connectivity() {
        // Two 2-cliques and an isolated module: the cliques pair up, the
        // loner stays a singleton.
        let p = PlacementProblem {
            movable: 5,
            fixed: vec![Point::new(0.0, 0.0)],
            nets: vec![
                vec![PinRef::Movable(0), PinRef::Movable(1)],
                vec![PinRef::Movable(2), PinRef::Movable(3)],
                vec![PinRef::Movable(4), PinRef::Fixed(0)],
            ],
        };
        let level = match_level(&p, 32);
        assert_eq!(level.parent[0], level.parent[1]);
        assert_eq!(level.parent[2], level.parent[3]);
        assert_ne!(level.parent[4], level.parent[0]);
        assert_ne!(level.parent[4], level.parent[2]);
        assert_eq!(level.n_clusters, 3);
    }

    #[test]
    fn projection_drops_internal_nets() {
        let p = PlacementProblem {
            movable: 4,
            fixed: vec![Point::new(0.0, 0.0)],
            nets: vec![
                vec![PinRef::Movable(0), PinRef::Movable(1)], // collapses
                vec![PinRef::Movable(0), PinRef::Movable(2)], // survives
                vec![PinRef::Movable(3), PinRef::Fixed(0)],   // survives
            ],
        };
        let level = ClusterLevel { parent: vec![0, 0, 1, 2], n_clusters: 3 };
        let coarse = project_problem(&p, &level);
        assert_eq!(coarse.movable, 3);
        assert_eq!(coarse.nets.len(), 2);
        assert_eq!(coarse.nets[0], vec![PinRef::Movable(0), PinRef::Movable(1)]);
        assert_eq!(coarse.nets[1], vec![PinRef::Movable(2), PinRef::Fixed(0)]);
    }
}
