//! Table-driven coverage of the [`MapError`] taxonomy: every variant's
//! `Display` rendering carries its identifying details, and every
//! `From` conversion preserves the inner error's information.

use std::error::Error;

use lily_core::MapError;

/// Every `MapError` variant paired with the substrings its `Display`
/// output must carry. Adding a variant without extending this table is
/// the kind of drift this test exists to catch — the `match` in
/// `variant_name` is exhaustive, so the compiler flags it first.
fn display_table() -> Vec<(MapError, Vec<&'static str>)> {
    vec![
        (
            MapError::IncompleteLibrary { missing: "2-input NAND" },
            vec!["library", "missing", "2-input NAND"],
        ),
        (MapError::NoMatch { node: 17 }, vec!["no pattern", "node 17"]),
        (MapError::MissingPlacement { expected: 9, got: 4 }, vec!["needs 9 positions", "got 4"]),
        (MapError::Netlist(lily_netlist::NetlistError::UnknownNode { id: 5 }), vec!["5"]),
        (MapError::Library(lily_cells::LibraryError::NoInverter), vec!["inverter"]),
        (
            MapError::SolverDiverged {
                solver: "conjugate-gradient",
                iterations: 250,
                residual: 3.5,
            },
            vec!["conjugate-gradient", "diverged", "250 iterations", "3.5"],
        ),
        (
            MapError::BudgetExhausted { resource: "anneal moves", spent: 80, budget: 80 },
            vec!["anneal moves", "budget exhausted", "spent 80 of 80"],
        ),
        (
            MapError::DegenerateInput { stage: "decompose", message: "no primary outputs".into() },
            vec!["degenerate input", "decompose", "no primary outputs"],
        ),
        (MapError::NonFiniteValue { context: "wire length" }, vec!["non-finite", "wire length"]),
        (
            MapError::Verify { stage: "cover-equiv", report: lily_check::Report::new() },
            vec!["verification failed", "cover-equiv"],
        ),
        (MapError::Cancelled { context: "stage `map`" }, vec!["stage `map`", "cancelled"]),
        (
            MapError::StageDeadline { stage: "legalize", deadline_ms: 125 },
            vec!["legalize", "125 ms", "deadline"],
        ),
        (
            MapError::FaultInjected { stage: "sta", invocation: 2 },
            vec!["injected fault", "sta", "attempt 2"],
        ),
        (
            MapError::Interrupted { stage: "map" },
            vec!["interrupted", "map", "checkpoint saved", "resume"],
        ),
        (
            MapError::Checkpoint { context: "save", message: "disk full".into() },
            vec!["checkpoint", "save", "disk full"],
        ),
    ]
}

/// Names every variant of `e` so the test can assert the table covers
/// the whole taxonomy; being an exhaustive `match`, it fails to compile
/// the moment a variant is added.
fn variant_name(e: &MapError) -> &'static str {
    match e {
        MapError::IncompleteLibrary { .. } => "IncompleteLibrary",
        MapError::NoMatch { .. } => "NoMatch",
        MapError::MissingPlacement { .. } => "MissingPlacement",
        MapError::Netlist(..) => "Netlist",
        MapError::Library(..) => "Library",
        MapError::SolverDiverged { .. } => "SolverDiverged",
        MapError::BudgetExhausted { .. } => "BudgetExhausted",
        MapError::DegenerateInput { .. } => "DegenerateInput",
        MapError::NonFiniteValue { .. } => "NonFiniteValue",
        MapError::Verify { .. } => "Verify",
        MapError::Cancelled { .. } => "Cancelled",
        MapError::StageDeadline { .. } => "StageDeadline",
        MapError::FaultInjected { .. } => "FaultInjected",
        MapError::Interrupted { .. } => "Interrupted",
        MapError::Checkpoint { .. } => "Checkpoint",
    }
}

#[test]
fn every_variant_renders_its_details() {
    let table = display_table();
    let mut seen: Vec<&'static str> = Vec::new();
    for (err, expected) in &table {
        let rendered = err.to_string();
        assert!(!rendered.is_empty(), "{}: empty Display", variant_name(err));
        for needle in expected {
            assert!(
                rendered.contains(needle),
                "{}: Display `{rendered}` misses `{needle}`",
                variant_name(err)
            );
        }
        seen.push(variant_name(err));
    }
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(seen.len(), table.len(), "a variant appears twice in the table");
}

#[test]
fn netlist_conversions_preserve_details() {
    // Degenerate netlists fold into DegenerateInput with the message
    // intact; everything else wraps verbatim and keeps its source.
    let e = MapError::from(lily_netlist::NetlistError::Degenerate {
        message: "every output is constant".into(),
    });
    match &e {
        MapError::DegenerateInput { stage, message } => {
            assert_eq!(*stage, "netlist");
            assert_eq!(message, "every output is constant");
        }
        other => panic!("expected DegenerateInput, got {other:?}"),
    }
    let inner = lily_netlist::NetlistError::UnknownNode { id: 12 };
    let rendered = inner.to_string();
    let e = MapError::from(inner);
    assert_eq!(e.to_string(), rendered, "Netlist wrapper must render the inner error verbatim");
    assert!(e.source().is_some(), "Netlist wrapper must chain its source");
}

#[test]
fn library_conversions_chain_their_source() {
    let e = MapError::from(lily_cells::LibraryError::NoInverter);
    assert!(matches!(e, MapError::Library(..)));
    assert!(e.source().is_some());
}

#[test]
fn place_conversions_preserve_details() {
    use lily_place::PlaceError as P;
    let cases: Vec<(P, MapError)> = vec![
        (
            P::SolverDiverged { solver: "cg", iterations: 99, residual: 0.25 },
            MapError::SolverDiverged { solver: "cg", iterations: 99, residual: 0.25 },
        ),
        (
            P::BudgetExhausted { resource: "cg iterations", spent: 10, budget: 10 },
            MapError::BudgetExhausted { resource: "cg iterations", spent: 10, budget: 10 },
        ),
        (P::NonFinite { context: "pad ring" }, MapError::NonFiniteValue { context: "pad ring" }),
        (
            P::InvalidProblem { message: "zero rows".into() },
            MapError::DegenerateInput { stage: "placement", message: "zero rows".into() },
        ),
        (
            P::Cancelled { context: "conjugate-gradient" },
            MapError::Cancelled { context: "conjugate-gradient" },
        ),
    ];
    for (place, expected) in cases {
        assert_eq!(MapError::from(place), expected);
    }
}

#[test]
fn timing_conversions_preserve_details() {
    use lily_timing::TimingError as T;
    let e = MapError::from(T::InvalidNetwork { message: "no cells".into() });
    assert_eq!(e, MapError::DegenerateInput { stage: "sta", message: "no cells".into() });
    let e = MapError::from(T::Cyclic { cell: 7 });
    match &e {
        MapError::DegenerateInput { stage: "sta", message } => {
            assert!(message.contains("cycle"), "cycle detail lost: {message}");
            assert!(message.contains('7'), "cell id lost: {message}");
        }
        other => panic!("expected DegenerateInput, got {other:?}"),
    }
    let e = MapError::from(T::NonFinite { context: "arrival time" });
    assert_eq!(e, MapError::NonFiniteValue { context: "arrival time" });
}

#[test]
fn non_source_variants_have_no_source() {
    // Only the wrapper variants chain a source; structured leaves don't.
    let e = MapError::Checkpoint { context: "open", message: "permission denied".into() };
    assert!(e.source().is_none());
    let e = MapError::Interrupted { stage: "decompose" };
    assert!(e.source().is_none());
}
