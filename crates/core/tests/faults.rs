//! Chaos-mode invariants of the stage-graph flow: fault-plan replay is
//! bit-identical at any thread count, injected transient failures are
//! retried and recovered, deadlines convert cooperative cancellation
//! into typed `StageDeadline` errors, and the merged degradation audit
//! of a comparison under a fault plan is thread-count-invariant.
//!
//! These tests flip the process-global `lily_par` thread override, but
//! every assertion is an *equality across thread counts* — the
//! determinism contract makes the override's value irrelevant to the
//! expected results, so concurrently running tests cannot interfere.

use std::time::Duration;

use lily_cells::Library;
use lily_core::flow::{FlowOptions, FlowResult, FlowRun};
use lily_core::MapError;
use lily_fault::{FaultKind, FaultPlan, FaultReport};
use lily_workloads::circuits;

/// A plan mixing every benign fault class across different stages.
fn mixed_benign_plan() -> FaultPlan {
    let mut plan = FaultPlan::new();
    plan.push("subject-place", 0, FaultKind::SolverDiverged);
    plan.push("legalize", 0, FaultKind::NanPoison);
    plan.push("map", 0, FaultKind::Latency(5));
    plan.push("sta", 0, FaultKind::CloseWorkers(2));
    plan
}

/// The run policy that arms `plan`.
fn chaos(plan: &FaultPlan) -> FlowRun {
    FlowRun { faults: plan.clone(), ..FlowRun::default() }
}

fn run_at(threads: usize, opts: &FlowOptions, plan: &FaultPlan) -> (FlowResult, FaultReport) {
    let lib = Library::big();
    let net = circuits::misex1();
    lily_par::set_threads(Some(threads));
    let (result, report) = chaos(plan).single(&net, &lib, opts);
    lily_par::set_threads(None);
    (result.expect("benign plan must not fail the flow"), report)
}

#[test]
fn chaos_replay_is_identical_at_any_thread_count() {
    let opts = FlowOptions::lily_area();
    let plan = mixed_benign_plan();
    let (base, base_report) = run_at(1, &opts, &plan);
    assert!(!base_report.fired.is_empty(), "the mixed plan must fire at least one fault");
    for threads in [2usize, 8] {
        let (run, report) = run_at(threads, &opts, &plan);
        assert_eq!(report, base_report, "fired-fault report differs at {threads} threads");
        assert_eq!(run.metrics.cells, base.metrics.cells, "threads={threads}");
        assert_eq!(
            run.metrics.wire_length.to_bits(),
            base.metrics.wire_length.to_bits(),
            "threads={threads}"
        );
        assert_eq!(
            run.metrics.critical_delay.to_bits(),
            base.metrics.critical_delay.to_bits(),
            "threads={threads}"
        );
        assert_eq!(
            run.metrics.chip_area_channeled.to_bits(),
            base.metrics.chip_area_channeled.to_bits(),
            "threads={threads}"
        );
        assert_eq!(run.metrics.degradations, base.metrics.degradations, "threads={threads}");
        assert_eq!(run.metrics.retries, base.metrics.retries, "threads={threads}");
        assert_eq!(run.mapped.cell_count(), base.mapped.cell_count(), "threads={threads}");
    }
}

#[test]
fn injected_stage_error_is_retried_and_recovers() {
    let lib = Library::big();
    let net = circuits::misex1();
    let opts = FlowOptions::lily_area();
    let mut plan = FaultPlan::new();
    plan.push("map", 0, FaultKind::StageError);

    let (result, report) = chaos(&plan).single(&net, &lib, &opts);
    let run = result.expect("a single transient stage error must be retried away");
    assert_eq!(report.error_class(), 1, "the injected stage error must fire exactly once");
    assert!(run.metrics.retries >= 1, "recovery must be visible in the retry counter");

    // The retried attempt runs fault-free, so the result matches a
    // clean flow bit-for-bit.
    let clean = opts.run_detailed(&net, &lib).expect("clean flow");
    assert_eq!(run.metrics.cells, clean.metrics.cells);
    assert_eq!(run.metrics.wire_length.to_bits(), clean.metrics.wire_length.to_bits());
    assert_eq!(run.metrics.critical_delay.to_bits(), clean.metrics.critical_delay.to_bits());
    assert_eq!(run.metrics.degradations, clean.metrics.degradations);
}

#[test]
fn injected_errors_beyond_the_retry_budget_stay_typed() {
    let lib = Library::big();
    let net = circuits::misex1();
    let opts = FlowOptions::lily_area();
    // Fail every attempt the default policy is willing to make.
    let mut plan = FaultPlan::new();
    for invocation in 0..=opts.stage_retries {
        plan.push("decompose", invocation, FaultKind::StageError);
    }
    let (result, report) = chaos(&plan).single(&net, &lib, &opts);
    match result {
        Err(MapError::FaultInjected { stage: "decompose", .. }) => {}
        other => panic!("expected FaultInjected for decompose, got {other:?}"),
    }
    assert_eq!(report.error_class() as u32, opts.stage_retries + 1);
}

#[test]
fn zero_deadline_surfaces_as_stage_deadline() {
    let lib = Library::big();
    let net = circuits::misex1();
    let mut opts = FlowOptions::lily_area();
    opts.stage_deadline = Some(Duration::ZERO);
    // An already-expired deadline trips the first cancellation-aware
    // kernel on every attempt; whether some stages limp through on a
    // degradation rung or the flow fails outright, the deadline
    // machinery must be visible as typed `StageDeadline` state.
    match opts.run_detailed(&net, &lib) {
        Err(MapError::StageDeadline { deadline_ms, .. }) => assert_eq!(deadline_ms, 0),
        Err(other) => panic!("expected StageDeadline, got {other}"),
        Ok(run) => assert!(
            run.metrics.deadline_hits > 0,
            "flow absorbed the zero deadline without recording a single hit"
        ),
    }
}

#[test]
fn latency_fault_trips_a_real_deadline_then_recovers() {
    let lib = Library::big();
    let net = circuits::misex1();
    let mut opts = FlowOptions::lily_area();
    // Generous for the real work, far below the injected latency. The
    // deadline token is armed before the latency is served, so attempt
    // 0 of `map` expires; the cancellation-aware matcher observes it,
    // the attempt converts to StageDeadline, and the fault (pinned to
    // invocation 0) does not re-fire on the retry.
    opts.stage_deadline = Some(Duration::from_millis(1500));
    let mut plan = FaultPlan::new();
    plan.push("map", 0, FaultKind::Latency(2500));
    let (result, report) = chaos(&plan).single(&net, &lib, &opts);
    let run = result.expect("the retry must clear the latency fault");
    let latency_fired =
        report.fired.iter().filter(|f| matches!(f.kind, FaultKind::Latency(_))).count();
    assert_eq!(latency_fired, 1, "the latency fault must fire once: {report:?}");
    assert!(run.metrics.deadline_hits >= 1, "the overrun must be counted");
    assert!(run.metrics.retries >= 1, "the recovery retry must be counted");
}

#[test]
fn compare_flows_chaos_audit_is_identical_at_any_thread_count() {
    let lib = Library::big();
    let net = circuits::misex1();
    let opts = FlowOptions::lily_area();
    let plan = mixed_benign_plan();

    lily_par::set_threads(Some(1));
    let (base, base_report) = chaos(&plan).compare(&net, &lib, &opts);
    lily_par::set_threads(None);
    let base = base.expect("benign plan must not fail the comparison");
    assert!(
        !base.degradations.is_empty(),
        "the mixed plan must push at least one flow down a degradation rung"
    );
    // The merged audit is ordered shared → mis → lily.
    let rank = |flow: &str| match flow {
        "shared" => 0,
        "mis" => 1,
        _ => 2,
    };
    assert!(
        base.degradations.windows(2).all(|w| rank(w[0].flow) <= rank(w[1].flow)),
        "merged audit must be ordered shared/mis/lily: {:?}",
        base.degradations
    );

    for threads in [2usize, 8] {
        lily_par::set_threads(Some(threads));
        let (cmp, report) = chaos(&plan).compare(&net, &lib, &opts);
        lily_par::set_threads(None);
        let cmp = cmp.expect("benign plan must not fail the comparison");
        assert_eq!(report, base_report, "fired report differs at {threads} threads");
        assert_eq!(cmp.degradations, base.degradations, "audit differs at {threads} threads");
        for (b, p) in [(&base.mis, &cmp.mis), (&base.lily, &cmp.lily)] {
            assert_eq!(b.metrics.cells, p.metrics.cells, "threads={threads}");
            assert_eq!(
                b.metrics.wire_length.to_bits(),
                p.metrics.wire_length.to_bits(),
                "threads={threads}"
            );
            assert_eq!(
                b.metrics.critical_delay.to_bits(),
                p.metrics.critical_delay.to_bits(),
                "threads={threads}"
            );
        }
    }
}
