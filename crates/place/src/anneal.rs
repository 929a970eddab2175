//! Simulated-annealing placement refinement — a small TimberWolf-style
//! stand-in (the paper's detailed placement era was annealing-based).
//!
//! The annealer perturbs cell positions with two move types — pairwise
//! swaps and bounded displacements — accepting uphill moves with the
//! Metropolis criterion under a geometric cooling schedule. Cost is the
//! half-perimeter wire length of the nets touching the moved cells, so
//! each move is evaluated incrementally. The result is re-legalized by
//! the caller (positions drift off-row during annealing).
//!
//! Everything is deterministic in the seed.

use crate::error::PlaceError;
use crate::geom::{Point, Rect};
use crate::quadratic::PinRef;
use lily_netlist::sim::XorShift64;

/// Options for [`try_anneal`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnealOptions {
    /// RNG seed.
    pub seed: u64,
    /// Moves attempted per cell per temperature step.
    pub moves_per_cell: usize,
    /// Geometric cooling factor per step (0 < cooling < 1).
    pub cooling: f64,
    /// Temperature steps.
    pub steps: usize,
    /// Region the cells must stay inside.
    pub core: Rect,
    /// Hard budget on attempted moves across the whole run (`None` for
    /// the full schedule). When the budget runs out mid-schedule the
    /// annealer stops, restores the best placement seen so far, and
    /// reports [`AnnealStats::budget_exhausted`] so the caller can fall
    /// back to a cheaper refiner.
    pub max_moves: Option<u64>,
}

impl AnnealOptions {
    /// A light default schedule for a given core.
    pub fn for_core(core: Rect) -> Self {
        Self { seed: 1, moves_per_cell: 8, cooling: 0.85, steps: 24, core, max_moves: None }
    }
}

/// Statistics from an annealing run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnealStats {
    /// HPWL before.
    pub initial_hpwl: f64,
    /// HPWL after.
    pub final_hpwl: f64,
    /// Accepted / attempted move ratio over the whole run.
    pub acceptance: f64,
    /// Moves attempted (the budget-spend report of the resource guard).
    pub moves_attempted: u64,
    /// Whether [`AnnealOptions::max_moves`] ran out before the schedule
    /// finished.
    pub budget_exhausted: bool,
}

/// How many attempted moves pass between cancellation polls in
/// [`try_anneal`] — frequent enough for sub-millisecond reaction, rare
/// enough to stay invisible in profiles.
const CANCEL_POLL_MOVES: u64 = 256;

/// Fallible annealing refinement: validates options and input
/// coordinates, then runs the schedule under the optional move budget.
///
/// Budget exhaustion is a *graceful* outcome, not an error: the best
/// placement found before the budget ran out is kept and
/// [`AnnealStats::budget_exhausted`] is set — the caller decides whether
/// to degrade to another refiner.
///
/// The calling thread's ambient cancellation token is polled every
/// `CANCEL_POLL_MOVES` attempted moves. A cancelled run abandons the
/// refinement; `positions` are left in a valid (finite, in-core) but
/// partially-annealed state.
///
/// # Errors
///
/// * [`PlaceError::InvalidOptions`] — `cooling` outside `(0, 1)`.
/// * [`PlaceError::NonFinite`] — a position or fixed-pin coordinate is
///   NaN/∞.
/// * [`PlaceError::Cancelled`] — the ambient token tripped
///   mid-schedule.
pub fn try_anneal(
    positions: &mut [Point],
    nets: &[Vec<PinRef>],
    fixed: &[Point],
    opts: &AnnealOptions,
) -> Result<AnnealStats, PlaceError> {
    let cancel = lily_fault::ambient_token();
    if !(opts.cooling > 0.0 && opts.cooling < 1.0) {
        return Err(PlaceError::InvalidOptions {
            message: format!("cooling must be in (0, 1), got {}", opts.cooling),
        });
    }
    if !positions.iter().all(|p| p.x.is_finite() && p.y.is_finite()) {
        return Err(PlaceError::NonFinite { context: "anneal positions" });
    }
    if !fixed.iter().all(|p| p.x.is_finite() && p.y.is_finite()) {
        return Err(PlaceError::NonFinite { context: "anneal fixed pins" });
    }
    let n = positions.len();
    let mut rng = XorShift64::new(opts.seed);
    let mut touching: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (ni, net) in nets.iter().enumerate() {
        for p in net {
            if let PinRef::Movable(m) = p {
                touching[*m].push(ni);
            }
        }
    }
    let net_len = |ni: usize, positions: &[Point]| -> f64 {
        Rect::bounding(nets[ni].iter().map(|p| match p {
            PinRef::Movable(i) => positions[*i],
            PinRef::Fixed(i) => fixed[*i],
        }))
        .map_or(0.0, |r| r.half_perimeter())
    };
    let local = |cells: &[usize], positions: &[Point]| -> f64 {
        let mut seen: Vec<usize> =
            cells.iter().flat_map(|&c| touching[c].iter().copied()).collect();
        seen.sort_unstable();
        seen.dedup();
        seen.iter().map(|&ni| net_len(ni, positions)).sum()
    };
    let total =
        |positions: &[Point]| -> f64 { (0..nets.len()).map(|ni| net_len(ni, positions)).sum() };

    let initial_hpwl = total(positions);
    if n < 2 {
        return Ok(AnnealStats {
            initial_hpwl,
            final_hpwl: initial_hpwl,
            acceptance: 0.0,
            moves_attempted: 0,
            budget_exhausted: false,
        });
    }
    if opts.max_moves == Some(0) {
        // A zero budget is exhausted before the first move.
        return Ok(AnnealStats {
            initial_hpwl,
            final_hpwl: initial_hpwl,
            acceptance: 0.0,
            moves_attempted: 0,
            budget_exhausted: true,
        });
    }

    // Initial temperature: the mean |delta| of a short random-swap walk.
    let mut probe = 0.0;
    for _ in 0..32 {
        let a = rng.gen_index(n);
        let b = rng.gen_index(n);
        if a == b {
            continue;
        }
        let before = local(&[a, b], positions);
        positions.swap(a, b);
        let after = local(&[a, b], positions);
        positions.swap(a, b);
        probe += (after - before).abs();
    }
    let mut temp = (probe / 32.0).max(1.0);
    let mut window = opts.core.width().max(opts.core.height()) / 2.0;

    let mut accepted = 0usize;
    let mut attempted = 0u64;
    let mut budget_exhausted = false;
    let mut best_positions = positions.to_vec();
    let mut best_cost = initial_hpwl;
    'schedule: for _ in 0..opts.steps {
        for _ in 0..opts.moves_per_cell * n {
            if let Some(budget) = opts.max_moves {
                if attempted >= budget {
                    budget_exhausted = true;
                    break 'schedule;
                }
            }
            if attempted.is_multiple_of(CANCEL_POLL_MOVES) && cancel.is_cancelled() {
                return Err(PlaceError::Cancelled { context: "anneal" });
            }
            attempted += 1;
            if rng.gen_bool(0.5) {
                // Pairwise swap.
                let a = rng.gen_index(n);
                let b = rng.gen_index(n);
                if a == b {
                    continue;
                }
                let before = local(&[a, b], positions);
                positions.swap(a, b);
                let delta = local(&[a, b], positions) - before;
                if delta <= 0.0 || rng.gen_bool((-delta / temp).exp().clamp(0.0, 1.0)) {
                    accepted += 1;
                } else {
                    positions.swap(a, b);
                }
            } else {
                // Bounded displacement.
                let a = rng.gen_index(n);
                let old = positions[a];
                let dx = rng.gen_range_f64(-window, window);
                let dy = rng.gen_range_f64(-window, window);
                let cand = opts.core.clamp(Point::new(old.x + dx, old.y + dy));
                let before = local(&[a], positions);
                positions[a] = cand;
                let delta = local(&[a], positions) - before;
                if delta <= 0.0 || rng.gen_bool((-delta / temp).exp().clamp(0.0, 1.0)) {
                    accepted += 1;
                } else {
                    positions[a] = old;
                }
            }
        }
        temp *= opts.cooling;
        window = (window * 0.9).max(opts.core.width() / 50.0);
        // Keep the best placement seen at each temperature step.
        let cost = total(positions);
        if cost < best_cost {
            best_cost = cost;
            best_positions.copy_from_slice(positions);
        }
    }
    // When the budget cut the schedule short, the end-of-step best
    // bookkeeping may not have seen the current positions; fold them in.
    if budget_exhausted && total(positions) < best_cost {
        best_positions.copy_from_slice(positions);
    }
    positions.copy_from_slice(&best_positions);
    let final_hpwl = total(positions);
    Ok(AnnealStats {
        initial_hpwl,
        final_hpwl,
        acceptance: if attempted == 0 { 0.0 } else { accepted as f64 / attempted as f64 },
        moves_attempted: attempted,
        budget_exhausted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn anneal(
        positions: &mut [Point],
        nets: &[Vec<PinRef>],
        fixed: &[Point],
        opts: &AnnealOptions,
    ) -> AnnealStats {
        try_anneal(positions, nets, fixed, opts).expect("annealing failed")
    }

    /// A shuffled chain: pad — c0 — c1 — … — pad, with cells placed in
    /// scrambled order so there is a lot to recover.
    fn chain(n: usize) -> (Vec<Point>, Vec<Vec<PinRef>>, Vec<Point>, Rect) {
        let core = Rect::new(0.0, 0.0, 1000.0, 200.0);
        let fixed = vec![Point::new(0.0, 100.0), Point::new(1000.0, 100.0)];
        let mut nets = vec![vec![PinRef::Fixed(0), PinRef::Movable(0)]];
        for i in 0..n - 1 {
            nets.push(vec![PinRef::Movable(i), PinRef::Movable(i + 1)]);
        }
        nets.push(vec![PinRef::Movable(n - 1), PinRef::Fixed(1)]);
        // Scrambled initial positions (deterministic).
        let positions: Vec<Point> = (0..n)
            .map(|i| Point::new(((i * 613) % 997) as f64, ((i * 331) % 199) as f64))
            .collect();
        (positions, nets, fixed, core)
    }

    #[test]
    fn annealing_reduces_hpwl_substantially() {
        let (mut positions, nets, fixed, core) = chain(24);
        let stats = anneal(&mut positions, &nets, &fixed, &AnnealOptions::for_core(core));
        assert!(
            stats.final_hpwl < stats.initial_hpwl * 0.7,
            "anneal too weak: {} -> {}",
            stats.initial_hpwl,
            stats.final_hpwl
        );
        assert!(stats.acceptance > 0.0);
    }

    #[test]
    fn annealing_is_deterministic() {
        let (positions, nets, fixed, core) = chain(12);
        let mut a = positions.clone();
        let mut b = positions;
        let opts = AnnealOptions::for_core(core);
        anneal(&mut a, &nets, &fixed, &opts);
        anneal(&mut b, &nets, &fixed, &opts);
        assert_eq!(a, b);
    }

    #[test]
    fn cells_stay_inside_core() {
        let (mut positions, nets, fixed, core) = chain(16);
        anneal(&mut positions, &nets, &fixed, &AnnealOptions::for_core(core));
        for p in &positions {
            assert!(core.contains(*p), "{p:?} escaped the core");
        }
    }

    #[test]
    fn trivial_instances_are_noops() {
        let core = Rect::new(0.0, 0.0, 10.0, 10.0);
        let mut empty: Vec<Point> = vec![];
        let stats = anneal(&mut empty, &[], &[], &AnnealOptions::for_core(core));
        assert_eq!(stats.initial_hpwl, stats.final_hpwl);
        let mut one = vec![Point::new(5.0, 5.0)];
        let stats = anneal(&mut one, &[], &[], &AnnealOptions::for_core(core));
        assert_eq!(stats.acceptance, 0.0);
    }

    #[test]
    fn bad_cooling_is_a_typed_error() {
        let core = Rect::new(0.0, 0.0, 10.0, 10.0);
        let mut p = vec![Point::default(); 2];
        let opts = AnnealOptions { cooling: 1.5, ..AnnealOptions::for_core(core) };
        let got = try_anneal(&mut p, &[], &[], &opts);
        match got {
            Err(PlaceError::InvalidOptions { message }) => assert!(message.contains("cooling")),
            other => panic!("expected InvalidOptions, got {other:?}"),
        }
    }

    #[test]
    fn cancelled_token_stops_the_schedule() {
        let (mut positions, nets, fixed, core) = chain(16);
        let token = lily_fault::CancelToken::new();
        token.cancel();
        let got = {
            let _scope = lily_fault::set_ambient(token);
            try_anneal(&mut positions, &nets, &fixed, &AnnealOptions::for_core(core))
        };
        assert!(matches!(got, Err(PlaceError::Cancelled { context: "anneal" })), "{got:?}");
        // Positions are still finite and usable after abandonment.
        assert!(positions.iter().all(|p| p.x.is_finite() && p.y.is_finite()));
    }
}
