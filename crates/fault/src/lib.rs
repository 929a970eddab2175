//! Deterministic fault injection and cooperative cancellation.
//!
//! The flow engine is a long pipeline whose robustness story — the
//! error taxonomy, the degradation ladder, the deterministic runtime —
//! is only trustworthy if it can be *exercised*. This crate provides
//! the two primitives the chaos harness is built on:
//!
//! * [`CancelToken`] — a cooperative cancellation flag with an optional
//!   wall-clock deadline. Kernels (CG iterations, the
//!   match-enumeration loop) poll it at safe points and return a typed
//!   [`Cancelled`] error instead of running to completion. A token
//!   travels either explicitly (placement kernels take `&CancelToken`)
//!   or ambiently (a thread-local installed per stage attempt, see
//!   [`ambient_token`]).
//! * [`FaultPlan`] — a seeded, fully deterministic schedule of injected
//!   faults. Each [`Fault`] is selected by `(stage, invocation_index)`:
//!   the flow engine arms the plan once per stage *attempt*, so the
//!   same plan replays bit-exactly at any thread count, and a fault
//!   aimed at invocation 0 exercises the retry path while the retry
//!   itself (invocation 1) runs clean.
//!
//! Determinism rules: fault *selection* never consults the clock, the
//! thread count, or any global mutable state — only the plan and the
//! per-stage invocation counter. The only non-deterministic fault
//! effects are wall-clock ones (`Latency`, real deadlines), which by
//! design never change computed values, only timings.
//!
//! The crate is dependency-free and knows nothing about the flow's
//! artifact types; the flow engine interprets armed faults.

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Error returned by cancellation poll points: the surrounding stage
/// was cancelled (deadline expired or a `Cancel` fault fired).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled;

impl fmt::Display for Cancelled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "operation cancelled")
    }
}

impl std::error::Error for Cancelled {}

#[derive(Debug)]
struct TokenInner {
    flag: AtomicBool,
    deadline: Option<Instant>,
    /// Cancellation chains upward: a child is cancelled whenever its
    /// parent is. [`CancelToken::never`] terminates the chain.
    parent: CancelToken,
}

/// A cooperative cancellation token.
///
/// Cheap to clone (an `Arc`); the default [`CancelToken::never`] form
/// carries no allocation at all and every poll is a branch on `None`,
/// so threading tokens through hot kernels costs nothing when
/// cancellation is off.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Option<Arc<TokenInner>>,
}

impl CancelToken {
    /// A token that can never be cancelled (the no-op default).
    pub fn never() -> Self {
        Self { inner: None }
    }

    /// A cancellable token with no deadline.
    pub fn new() -> Self {
        CancelToken::never().child()
    }

    /// A cancellable token that additionally expires `deadline` from
    /// now. `Duration::ZERO` expires immediately — the deterministic
    /// way to test deadline handling without real waiting.
    pub fn with_deadline(deadline: Duration) -> Self {
        CancelToken::never().child_with_deadline(deadline)
    }

    /// A cancellable token linked under `self`: cancelling (or
    /// expiring) the parent cancels the child, while cancelling the
    /// child leaves the parent untouched. This is how a long-lived
    /// scope (a server's per-request token) reaches into nested scopes
    /// (per-stage attempt tokens) without them knowing about it.
    pub fn child(&self) -> Self {
        Self {
            inner: Some(Arc::new(TokenInner {
                flag: AtomicBool::new(false),
                deadline: None,
                parent: self.clone(),
            })),
        }
    }

    /// A [`child`](Self::child) that additionally expires `deadline`
    /// from now (whichever of the own deadline, the parent's deadline,
    /// or an explicit cancel comes first wins).
    pub fn child_with_deadline(&self, deadline: Duration) -> Self {
        Self {
            inner: Some(Arc::new(TokenInner {
                flag: AtomicBool::new(false),
                deadline: Some(Instant::now() + deadline),
                parent: self.clone(),
            })),
        }
    }

    /// Requests cancellation (no-op on a [`never`](Self::never) token).
    pub fn cancel(&self) {
        if let Some(inner) = &self.inner {
            inner.flag.store(true, Ordering::Release);
        }
    }

    /// Whether the token has been cancelled, its deadline has passed,
    /// or any ancestor in its parent chain is cancelled.
    pub fn is_cancelled(&self) -> bool {
        match &self.inner {
            None => false,
            Some(inner) => {
                inner.flag.load(Ordering::Acquire)
                    || inner.deadline.is_some_and(|d| Instant::now() >= d)
                    || inner.parent.is_cancelled()
            }
        }
    }

    /// Whether this token carries *its own* deadline and that deadline
    /// has passed (used to distinguish deadline hits from explicit
    /// cancellation in audits). Deliberately does not consult the
    /// parent chain: an expired ancestor reads as plain cancellation
    /// here, so a stage-deadline audit never blames an outer scope's
    /// deadline on the stage.
    pub fn deadline_expired(&self) -> bool {
        self.inner.as_ref().is_some_and(|inner| inner.deadline.is_some_and(|d| Instant::now() >= d))
    }

    /// Poll point: `Err(Cancelled)` once the token is cancelled.
    pub fn check(&self) -> Result<(), Cancelled> {
        if self.is_cancelled() {
            Err(Cancelled)
        } else {
            Ok(())
        }
    }
}

thread_local! {
    /// The ambient token for code that cannot take an explicit token
    /// parameter (the match-enumeration loop beneath the `map` stage).
    /// Installed per stage attempt by the flow engine.
    static AMBIENT: RefCell<CancelToken> = RefCell::new(CancelToken::never());
}

/// The current thread's ambient cancellation token (a clone; polling
/// it observes later [`cancel`](CancelToken::cancel) calls).
pub fn ambient_token() -> CancelToken {
    AMBIENT.with(|t| t.borrow().clone())
}

/// Installs `token` as the current thread's ambient token for the
/// guard's lifetime; the previous token is restored on drop (also on
/// unwind).
pub fn set_ambient(token: CancelToken) -> AmbientGuard {
    let prev = AMBIENT.with(|t| t.replace(token));
    AmbientGuard { prev: Some(prev) }
}

/// RAII guard restoring the previous ambient token (see
/// [`set_ambient`]).
#[derive(Debug)]
pub struct AmbientGuard {
    prev: Option<CancelToken>,
}

impl Drop for AmbientGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            AMBIENT.with(|t| *t.borrow_mut() = prev);
        }
    }
}

/// What an injected fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The stage fails outright with a typed injection error.
    StageError,
    /// The stage's solver reports divergence (exercises the
    /// solver-fallback rungs of the degradation ladder).
    SolverDiverged,
    /// Placement / timing values are poisoned with NaN (exercises the
    /// non-finite guards and their ladder rungs).
    NanPoison,
    /// The stage sleeps this many milliseconds before running (wall
    /// time only — never changes computed values).
    Latency(u64),
    /// The stage attempt's cancellation token is tripped before the
    /// stage body runs (exercises the cooperative-cancel + retry path).
    Cancel,
    /// This many `lily-par` workers close without claiming work
    /// (exercises the runtime's self-scheduling recovery; results stay
    /// byte-identical).
    CloseWorkers(u32),
    /// The stage *stalls* — a cancellable sleep of up to this many
    /// milliseconds that polls the attempt's token and returns early
    /// (as a typed cancel) if something like the serve watchdog trips
    /// it. Without an external cancel it degenerates to latency, so
    /// the kind is benign.
    WatchdogTrip(u64),
    /// A durable-write layer (the serve job journal) writes its next
    /// record *torn* — header intact, payload truncated — as if the
    /// process died mid-write. Inert inside flows: only the journal
    /// layer consumes it, and replay must skip the torn record.
    TornWrite,
}

impl FaultKind {
    /// Stable kind name for replay files and reports.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::StageError => "stage-error",
            FaultKind::SolverDiverged => "solver-diverged",
            FaultKind::NanPoison => "nan-poison",
            FaultKind::Latency(_) => "latency",
            FaultKind::Cancel => "cancel",
            FaultKind::CloseWorkers(_) => "close-workers",
            FaultKind::WatchdogTrip(_) => "watchdog-trip",
            FaultKind::TornWrite => "torn-write",
        }
    }

    /// The kind's numeric parameter (latency or stall millis, worker
    /// count; 0 for parameterless kinds).
    pub fn param(&self) -> u64 {
        match self {
            FaultKind::Latency(ms) | FaultKind::WatchdogTrip(ms) => *ms,
            FaultKind::CloseWorkers(n) => u64::from(*n),
            _ => 0,
        }
    }

    /// Reconstructs a kind from its `(name, param)` pair (the replay
    /// file encoding). `None` for unknown names.
    pub fn from_name(name: &str, param: u64) -> Option<Self> {
        Some(match name {
            "stage-error" => FaultKind::StageError,
            "solver-diverged" => FaultKind::SolverDiverged,
            "nan-poison" => FaultKind::NanPoison,
            "latency" => FaultKind::Latency(param),
            "cancel" => FaultKind::Cancel,
            "close-workers" => FaultKind::CloseWorkers(u32::try_from(param).ok()?),
            "watchdog-trip" => FaultKind::WatchdogTrip(param),
            "torn-write" => FaultKind::TornWrite,
            _ => return None,
        })
    }

    /// Whether the kind can only degrade a flow (exercise a ladder
    /// rung) but never fail it: a benign plan made of these kinds must
    /// leave a flow that succeeds without faults still succeeding.
    pub fn is_benign(&self) -> bool {
        matches!(
            self,
            FaultKind::SolverDiverged
                | FaultKind::NanPoison
                | FaultKind::Latency(_)
                | FaultKind::CloseWorkers(_)
                | FaultKind::WatchdogTrip(_)
                | FaultKind::TornWrite
        )
    }
}

/// One scheduled fault: fires when stage `stage` runs its
/// `invocation`-th attempt (0-based, counted per stage name).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fault {
    /// Stage name the fault targets (`"map"`, `"legalize"`, ...).
    pub stage: String,
    /// 0-based attempt index within that stage; retries re-arm, so
    /// invocation 1 targets the first retry.
    pub invocation: u32,
    /// What happens when the fault fires.
    pub kind: FaultKind,
}

/// The stage names fault plans draw from (the full detailed pipeline).
pub const STAGE_NAMES: [&str; 8] = [
    "decompose",
    "assign-pads",
    "subject-place",
    "map",
    "legalize",
    "detailed-place",
    "route-estimate",
    "sta",
];

/// xorshift64* — the workspace's standard seeded generator, local to
/// this crate so it stays dependency-free.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        // splitmix64 scramble: nearby seeds get unrelated streams and a
        // zero seed still yields a nonzero state.
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        Self((z ^ (z >> 31)) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// A deterministic schedule of injected faults.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a fault to the schedule.
    pub fn push(&mut self, stage: impl Into<String>, invocation: u32, kind: FaultKind) {
        self.faults.push(Fault { stage: stage.into(), invocation, kind });
    }

    /// Whether the plan schedules no faults.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The scheduled faults, in schedule order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// A seeded random plan of 1–3 faults. With `benign_only`, every
    /// kind is degradation-class ([`FaultKind::is_benign`]) and every
    /// fault targets invocation 0, so a flow that succeeds without
    /// faults must still succeed (possibly degraded). Otherwise
    /// error-class kinds and retry invocations are in play and the
    /// flow may fail — but only with a typed error.
    pub fn random(seed: u64, benign_only: bool) -> Self {
        let mut rng = Rng::new(seed ^ PLAN_SEED_TAG);
        let mut plan = Self::new();
        let count = 1 + rng.below(3);
        for _ in 0..count {
            let stage = STAGE_NAMES[rng.below(STAGE_NAMES.len() as u64) as usize];
            let kind = if benign_only {
                match rng.below(5) {
                    0 => FaultKind::SolverDiverged,
                    1 => FaultKind::NanPoison,
                    2 => FaultKind::Latency(rng.below(3)),
                    3 => FaultKind::WatchdogTrip(1 + rng.below(3)),
                    _ => FaultKind::CloseWorkers(1 + rng.below(3) as u32),
                }
            } else {
                match rng.below(7) {
                    0 => FaultKind::SolverDiverged,
                    1 => FaultKind::NanPoison,
                    2 => FaultKind::Latency(rng.below(3)),
                    3 => FaultKind::CloseWorkers(1 + rng.below(3) as u32),
                    4 => FaultKind::StageError,
                    5 => FaultKind::WatchdogTrip(1 + rng.below(3)),
                    _ => FaultKind::Cancel,
                }
            };
            let invocation = if benign_only { 0 } else { rng.below(2) as u32 };
            plan.push(stage, invocation, kind);
        }
        plan
    }
}

/// Seed-whitening tag separating fault-plan streams from other users
/// of the same fuzz seed.
const PLAN_SEED_TAG: u64 = 0x5eed_fa17_0000_0001;

/// One fault that actually fired, for the post-run report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FiredFault {
    /// Stage the fault fired in.
    pub stage: String,
    /// The stage attempt it fired on.
    pub invocation: u32,
    /// What fired.
    pub kind: FaultKind,
}

/// Shared handle to the fired-fault log: clone it before handing the
/// [`Injector`] to a flow, read it after the flow returns.
#[derive(Debug, Clone, Default)]
pub struct FiredLog {
    fired: Arc<Mutex<Vec<FiredFault>>>,
}

impl FiredLog {
    fn push(&self, stage: &str, invocation: u32, kind: FaultKind) {
        if let Ok(mut fired) = self.fired.lock() {
            fired.push(FiredFault { stage: stage.to_string(), invocation, kind });
        }
    }

    /// Snapshot of everything that has fired so far.
    pub fn report(&self) -> FaultReport {
        FaultReport { fired: self.fired.lock().map(|f| f.clone()).unwrap_or_default() }
    }
}

/// The post-run fault report: which scheduled faults actually fired
/// (were consumed by a stage), in firing order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Fired faults, in firing order.
    pub fired: Vec<FiredFault>,
}

impl FaultReport {
    /// How many degradation-class faults fired (each must be matched
    /// by an audited degradation or a typed error).
    pub fn degradation_class(&self) -> usize {
        self.fired
            .iter()
            .filter(|f| matches!(f.kind, FaultKind::SolverDiverged | FaultKind::NanPoison))
            .count()
    }

    /// How many error-class faults fired.
    pub fn error_class(&self) -> usize {
        self.fired
            .iter()
            .filter(|f| matches!(f.kind, FaultKind::StageError | FaultKind::Cancel))
            .count()
    }
}

/// The per-flow fault injector: owns a plan, counts stage invocations,
/// and arms the matching faults at each stage attempt.
#[derive(Debug, Default)]
pub struct Injector {
    plan: FaultPlan,
    invocations: Vec<(String, u32)>,
    log: FiredLog,
}

impl Injector {
    /// An injector for `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        Self { plan, invocations: Vec::new(), log: FiredLog::default() }
    }

    /// The shared fired-fault log (clone before running the flow).
    pub fn log(&self) -> FiredLog {
        self.log.clone()
    }

    /// Called once per stage attempt by the flow engine: bumps the
    /// stage's invocation counter and returns the faults armed for
    /// this attempt. Selection depends only on `(stage, invocation)`
    /// and the plan — never on time or thread count.
    pub fn arm(&mut self, stage: &str) -> ArmedFaults {
        let invocation = match self.invocations.iter_mut().find(|(s, _)| s == stage) {
            Some((_, n)) => {
                let inv = *n;
                *n += 1;
                inv
            }
            None => {
                self.invocations.push((stage.to_string(), 1));
                0
            }
        };
        let mut armed = ArmedFaults::idle();
        armed.stage = stage.to_string();
        armed.invocation = invocation;
        armed.log = self.log.clone();
        for f in self.plan.faults() {
            if f.stage == stage && f.invocation == invocation {
                match f.kind {
                    FaultKind::StageError => armed.error = true,
                    FaultKind::SolverDiverged => armed.solver_diverged = true,
                    FaultKind::NanPoison => armed.nan = true,
                    FaultKind::Latency(ms) => armed.latency_ms = armed.latency_ms.max(ms),
                    FaultKind::Cancel => armed.cancel = true,
                    FaultKind::CloseWorkers(n) => armed.close_workers += n,
                    FaultKind::WatchdogTrip(ms) => armed.stall_ms = armed.stall_ms.max(ms),
                    // Inert inside flows: the serve journal layer
                    // consumes torn-write faults from the plan itself.
                    FaultKind::TornWrite => {}
                }
            }
        }
        armed
    }
}

/// The faults armed for one stage attempt. Boundary faults (`error`,
/// `latency`, `cancel`, `close_workers`) are consumed by the flow
/// engine at the stage boundary; kernel faults (`solver_diverged`,
/// `nan`) are consumed inside the stage body via the
/// `take_*` methods, which also log the firing.
#[derive(Debug, Default)]
pub struct ArmedFaults {
    /// Fail the stage attempt with a typed injection error.
    pub error: bool,
    solver_diverged: bool,
    nan: bool,
    /// Sleep this long (ms) before running the attempt.
    pub latency_ms: u64,
    /// Stall (cancellably) up to this long (ms) before running the
    /// attempt, polling the attempt token — the watchdog-trip fault.
    pub stall_ms: u64,
    /// Trip the attempt's cancellation token before the body runs.
    pub cancel: bool,
    /// Close this many runtime workers before the body runs.
    pub close_workers: u32,
    stage: String,
    invocation: u32,
    log: FiredLog,
}

impl ArmedFaults {
    /// An attempt with nothing armed.
    pub fn idle() -> Self {
        Self::default()
    }

    /// The 0-based stage attempt these faults were armed for.
    pub fn invocation(&self) -> u32 {
        self.invocation
    }

    fn consume(&self, kind: FaultKind) {
        self.log.push(&self.stage, self.invocation, kind);
    }

    /// Consumes an armed `SolverDiverged` fault (logs the firing).
    pub fn take_solver_diverged(&mut self) -> bool {
        if self.solver_diverged {
            self.solver_diverged = false;
            self.consume(FaultKind::SolverDiverged);
            true
        } else {
            false
        }
    }

    /// Consumes an armed `NanPoison` fault (logs the firing).
    pub fn take_nan(&mut self) -> bool {
        if self.nan {
            self.nan = false;
            self.consume(FaultKind::NanPoison);
            true
        } else {
            false
        }
    }

    /// Logs a boundary fault the flow engine consumed directly.
    pub fn note_boundary(&self, kind: FaultKind) {
        self.consume(kind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_token_is_free_and_uncancellable() {
        let t = CancelToken::never();
        t.cancel();
        assert!(!t.is_cancelled());
        assert!(t.check().is_ok());
        assert!(!t.deadline_expired());
    }

    #[test]
    fn cancel_flag_trips_clones() {
        let t = CancelToken::new();
        let c = t.clone();
        assert!(c.check().is_ok());
        t.cancel();
        assert!(c.is_cancelled());
        assert_eq!(c.check(), Err(Cancelled));
    }

    #[test]
    fn zero_deadline_expires_immediately() {
        let t = CancelToken::with_deadline(Duration::ZERO);
        assert!(t.is_cancelled());
        assert!(t.deadline_expired());
        // A generous deadline does not trip.
        let t = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(!t.is_cancelled());
        assert!(!t.deadline_expired());
        t.cancel();
        assert!(t.is_cancelled());
        assert!(!t.deadline_expired());
    }

    #[test]
    fn cancel_after_expiry_stays_cancelled_and_expired() {
        // Cancelling a token whose deadline already passed must not
        // disturb either observation: it stays cancelled and the
        // deadline stays expired (the audit classification is stable).
        let t = CancelToken::with_deadline(Duration::ZERO);
        assert!(t.is_cancelled());
        t.cancel();
        assert!(t.is_cancelled());
        assert!(t.deadline_expired());
        assert_eq!(t.check(), Err(Cancelled));
    }

    #[test]
    fn child_inherits_parent_cancellation_not_vice_versa() {
        let parent = CancelToken::new();
        let child = parent.child();
        assert!(!child.is_cancelled());
        child.cancel();
        assert!(child.is_cancelled());
        assert!(!parent.is_cancelled(), "cancelling a child must not cancel the parent");

        let child2 = parent.child();
        parent.cancel();
        assert!(child2.is_cancelled(), "parent cancellation reaches children");
        // Grandchildren created after the fact see it too.
        assert!(child2.child().is_cancelled());
    }

    #[test]
    fn parent_deadline_cancels_child_but_is_not_the_childs_deadline() {
        let parent = CancelToken::with_deadline(Duration::ZERO);
        let child = parent.child();
        assert!(child.is_cancelled(), "expired parent deadline cancels the child");
        assert!(!child.deadline_expired(), "the child has no deadline of its own");
        assert!(parent.deadline_expired());

        // A zero-duration child deadline under a healthy parent is its
        // own deadline hit.
        let healthy = CancelToken::new();
        let hurried = healthy.child_with_deadline(Duration::ZERO);
        assert!(hurried.is_cancelled());
        assert!(hurried.deadline_expired());
        assert!(!healthy.is_cancelled());
    }

    #[test]
    fn child_of_never_behaves_like_a_fresh_token() {
        let child = CancelToken::never().child();
        assert!(!child.is_cancelled());
        child.cancel();
        assert!(child.is_cancelled());
        assert!(!child.deadline_expired());
    }

    #[test]
    fn ambient_token_nests_and_restores() {
        assert!(!ambient_token().is_cancelled());
        let outer = CancelToken::new();
        {
            let _g = set_ambient(outer.clone());
            let inner = CancelToken::new();
            {
                let _g2 = set_ambient(inner.clone());
                inner.cancel();
                assert!(ambient_token().is_cancelled());
            }
            assert!(!ambient_token().is_cancelled());
            outer.cancel();
            assert!(ambient_token().is_cancelled());
        }
        assert!(!ambient_token().is_cancelled());
    }

    #[test]
    fn nested_ambient_guards_restore_through_three_scopes() {
        // The serving pattern: a process token, a per-request token
        // nested inside it, and a per-stage-attempt token nested inside
        // that. Each scope's guard must restore exactly the token it
        // shadowed, and parent cancellation must stay observable from
        // the innermost ambient clone.
        let process = CancelToken::new();
        {
            let _g0 = set_ambient(process.clone());
            let request = ambient_token().child();
            {
                let _g1 = set_ambient(request.clone());
                let attempt = ambient_token().child();
                {
                    let _g2 = set_ambient(attempt.clone());
                    assert!(!ambient_token().is_cancelled());
                    // Cancelling the *request* is seen by the attempt's
                    // ambient clone through the parent chain.
                    request.cancel();
                    assert!(ambient_token().is_cancelled());
                }
                assert!(ambient_token().is_cancelled(), "request scope is cancelled");
            }
            assert!(!ambient_token().is_cancelled(), "process scope is untouched");
        }
        assert!(!ambient_token().is_cancelled());
        assert!(!process.is_cancelled());
    }

    #[test]
    fn zero_duration_deadline_on_ambient_child_is_immediate() {
        let _g = set_ambient(CancelToken::new());
        let attempt = ambient_token().child_with_deadline(Duration::ZERO);
        assert!(attempt.is_cancelled());
        assert!(attempt.deadline_expired());
        // Expiry of the attempt does not leak upward into the ambient.
        assert!(!ambient_token().is_cancelled());
    }

    #[test]
    fn plan_random_is_deterministic_and_benign_when_asked() {
        let a = FaultPlan::random(42, true);
        let b = FaultPlan::random(42, true);
        assert_eq!(a, b);
        assert!(!a.is_empty() && a.faults().len() <= 3);
        for f in a.faults() {
            assert!(f.kind.is_benign(), "{:?} not benign", f.kind);
            assert_eq!(f.invocation, 0);
            assert!(STAGE_NAMES.contains(&f.stage.as_str()));
        }
        let c = FaultPlan::random(43, true);
        assert_ne!(a, c, "different seeds should give different plans");
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in [
            FaultKind::StageError,
            FaultKind::SolverDiverged,
            FaultKind::NanPoison,
            FaultKind::Latency(17),
            FaultKind::Cancel,
            FaultKind::CloseWorkers(3),
            FaultKind::WatchdogTrip(250),
            FaultKind::TornWrite,
        ] {
            assert_eq!(FaultKind::from_name(kind.name(), kind.param()), Some(kind));
        }
        assert_eq!(FaultKind::from_name("bogus", 0), None);
    }

    #[test]
    fn injector_arms_by_stage_and_invocation() {
        let mut plan = FaultPlan::new();
        plan.push("map", 0, FaultKind::SolverDiverged);
        plan.push("map", 1, FaultKind::StageError);
        plan.push("sta", 0, FaultKind::NanPoison);
        let mut inj = Injector::new(plan);
        let log = inj.log();

        let mut first = inj.arm("map");
        assert!(!first.error);
        assert!(first.take_solver_diverged());
        assert!(!first.take_solver_diverged(), "consumed once");

        let second = inj.arm("map");
        assert!(second.error);
        second.note_boundary(FaultKind::StageError);

        let mut sta = inj.arm("sta");
        assert!(sta.take_nan());
        let other = inj.arm("decompose");
        assert!(!other.error && other.latency_ms == 0);

        let report = log.report();
        assert_eq!(report.fired.len(), 3);
        assert_eq!(report.degradation_class(), 2);
        assert_eq!(report.error_class(), 1);
        assert_eq!(report.fired[0].stage, "map");
        assert_eq!(report.fired[1].invocation, 1);
    }
}
