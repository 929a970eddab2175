//! Dependency-free memory accounting for resource-governed admission.
//!
//! The serve daemon must never accept a job whose peak working set would
//! push the process past its operator-configured budget: on the scale
//! axis a single 10⁶-node flow holds tens of millions of live match
//! records, and the kernel's OOM killer is not a typed error. This
//! module provides the two halves of that governance:
//!
//! * **Cost estimators** ([`estimate_subject_nodes`],
//!   [`estimate_peak_bytes`]) — a coarse linear model from *parsed
//!   network node count* to peak live bytes, fitted against the
//!   subject-graph node counts that decompose produces on the
//!   generated `random-dag` workloads (10³ to 10⁶ network nodes all
//!   expand 3.8–4.19×, under the 5× the model charges; the unit tests
//!   re-derive the 10³, 5·10³ and 2·10⁴ points).
//! * **A process-wide gauge** ([`MemGauge`]) — an atomic ledger of
//!   estimated bytes reserved by admitted jobs, with RAII release
//!   ([`MemReservation`]) so a panicking or cancelled worker can never
//!   leak budget.
//!
//! The estimators are deliberately *pessimistic linear*: admission
//! control wants a cheap upper bound computed before any real work, not
//! an exact allocator profile. Everything here is integer arithmetic on
//! `u64` — no floats, so the model itself is trivially deterministic.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Subject-graph expansion factor: NAND2/INV decomposition multiplies
/// the network node count by ≈3.8–4.19 on the generated `random-dag`
/// workloads at seed `0x5CA1_E001` (1 000 → 3 797, 5 000 → 20 013,
/// 20 000 → 81 663, 100 000 → 414 025 (4.14×), 10⁶ → 4 187 926
/// (4.19×)). The ratio creeps up with size, so it is rounded up to 5:
/// the estimate stays an upper bound through 10⁶ network nodes.
pub const SUBJECT_EXPANSION: u64 = 5;

/// Estimated peak live bytes per *subject* node, summed over the two
/// heaviest concurrently-live stages (matching bindings + placement
/// points + cut/truth-table pools). Fitted pessimistically: the cut
/// mapper holds up to `max_cuts`(=8) cuts × leaves + truth tables per
/// node, the matcher a binding vector, the placer three f64 vectors.
pub const BYTES_PER_SUBJECT_NODE: u64 = 512;

/// Fixed per-job overhead: parsed network, library index, request and
/// reply buffers, checkpoint codec scratch. One MiB flat.
pub const JOB_BASE_BYTES: u64 = 1 << 20;

/// Estimated subject-graph node count for a network of `net_nodes`
/// parsed nodes (primary inputs + internal nodes).
#[must_use]
pub fn estimate_subject_nodes(net_nodes: u64) -> u64 {
    net_nodes.saturating_mul(SUBJECT_EXPANSION).saturating_add(64)
}

/// Estimated peak live bytes for one flow over a network of
/// `net_nodes` parsed nodes. Monotone and saturating: feeding it
/// wire-controlled garbage cannot overflow or go backwards.
#[must_use]
pub fn estimate_peak_bytes(net_nodes: u64) -> u64 {
    estimate_subject_nodes(net_nodes)
        .saturating_mul(BYTES_PER_SUBJECT_NODE)
        .saturating_add(JOB_BASE_BYTES)
}

/// Typed refusal from [`MemGauge::try_reserve`]: granting `requested`
/// bytes would push `used` past `budget`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemExceeded {
    /// Bytes the caller asked for.
    pub requested: u64,
    /// Bytes already reserved when the request was refused.
    pub used: u64,
    /// The configured ceiling.
    pub budget: u64,
}

impl std::fmt::Display for MemExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "memory budget exceeded: requested {} bytes with {}/{} reserved",
            self.requested, self.used, self.budget
        )
    }
}

impl std::error::Error for MemExceeded {}

/// An atomic ledger of estimated bytes reserved by in-flight jobs.
///
/// The gauge tracks *estimates*, not allocator truth: its job is to
/// bound the sum of admitted peak working sets, which is what admission
/// control can actually reason about before running a flow.
#[derive(Debug)]
pub struct MemGauge {
    budget: u64,
    used: AtomicU64,
}

impl MemGauge {
    /// A shared gauge with the given byte budget.
    #[must_use]
    pub fn new(budget: u64) -> Arc<Self> {
        Arc::new(MemGauge { budget, used: AtomicU64::new(0) })
    }

    /// The configured ceiling in bytes.
    #[must_use]
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Bytes currently reserved.
    #[must_use]
    pub fn used(&self) -> u64 {
        self.used.load(Ordering::Acquire)
    }

    /// Reserves `bytes` against the budget, or explains why not. The
    /// reservation releases itself on drop — including across panics
    /// and cancellations.
    pub fn try_reserve(self: &Arc<Self>, bytes: u64) -> Result<MemReservation, MemExceeded> {
        let mut used = self.used.load(Ordering::Acquire);
        loop {
            let refused = MemExceeded { requested: bytes, used, budget: self.budget };
            let next = used.checked_add(bytes).ok_or(refused)?;
            if next > self.budget {
                return Err(refused);
            }
            match self.used.compare_exchange_weak(used, next, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => return Ok(MemReservation { gauge: Arc::clone(self), bytes }),
                Err(actual) => used = actual,
            }
        }
    }
}

/// RAII handle for bytes reserved on a [`MemGauge`]; releases on drop.
#[derive(Debug)]
pub struct MemReservation {
    gauge: Arc<MemGauge>,
    bytes: u64,
}

impl MemReservation {
    /// Bytes this reservation holds.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl Drop for MemReservation {
    fn drop(&mut self) {
        self.gauge.used.fetch_sub(self.bytes, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimators_are_monotone_and_saturating() {
        let mut last = 0;
        for nodes in [0u64, 64, 1_000, 100_000, 1_000_000, u64::MAX] {
            let est = estimate_peak_bytes(nodes);
            assert!(est >= last, "estimate must be monotone in node count");
            last = est;
        }
        assert_eq!(estimate_peak_bytes(u64::MAX), u64::MAX);
    }

    #[test]
    fn estimator_tracks_random_dag_subject_sizes() {
        use lily_netlist::decompose::{decompose, DecomposeOrder};
        use lily_workloads::{scale_circuit, ScaleFamily};
        for target in [1_000, 5_000, 20_000] {
            let net = scale_circuit(ScaleFamily::RandomDag, target, 0x5CA1_E001);
            let observed = decompose(&net, DecomposeOrder::Balanced)
                .expect("generated DAGs decompose")
                .node_count() as u64;
            let est = estimate_subject_nodes(net.node_count() as u64);
            // The model must be an upper bound...
            assert!(est >= observed, "{target}: {est} < {observed} subject nodes");
            // ...but not absurdly loose (within 2x of observed).
            assert!(est <= 2 * observed, "{target}: {est} > 2 x {observed} subject nodes");
        }
    }

    #[test]
    fn gauge_admits_up_to_budget_and_releases_on_drop() {
        let gauge = MemGauge::new(1_000);
        let a = gauge.try_reserve(600).expect("first reservation fits");
        assert_eq!(gauge.used(), 600);
        let refused = gauge.try_reserve(600).expect_err("second must exceed");
        assert_eq!(refused, MemExceeded { requested: 600, used: 600, budget: 1_000 });
        let b = gauge.try_reserve(400).expect("exact fit is admitted");
        assert_eq!(gauge.used(), 1_000);
        drop(a);
        assert_eq!(gauge.used(), 400);
        drop(b);
        assert_eq!(gauge.used(), 0);
    }

    #[test]
    fn gauge_refuses_overflowing_requests() {
        let gauge = MemGauge::new(u64::MAX);
        let _held = gauge.try_reserve(u64::MAX - 1).expect("fits");
        let refused = gauge.try_reserve(u64::MAX).expect_err("would overflow");
        assert_eq!(refused.requested, u64::MAX);
    }

    #[test]
    fn reservation_releases_across_threads() {
        let gauge = MemGauge::new(10_000);
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let g = Arc::clone(&gauge);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        if let Ok(r) = g.try_reserve(1_000) {
                            assert!(g.used() >= r.bytes());
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("no panics under contention");
        }
        assert_eq!(gauge.used(), 0, "all reservations must release");
    }
}
