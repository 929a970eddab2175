//! Mapper error type.

use std::error::Error;
use std::fmt;

/// Errors raised by the technology mappers and flows.
#[derive(Debug, Clone, PartialEq)]
pub enum MapError {
    /// The library cannot implement the base functions: it must contain
    /// an inverter and a 2-input NAND for covering to be total.
    IncompleteLibrary {
        /// What is missing.
        missing: &'static str,
    },
    /// A subject node had no match at all (should be impossible with a
    /// complete library; indicates a matcher bug or exotic graph).
    NoMatch {
        /// The uncoverable node's index.
        node: usize,
    },
    /// The layout-driven mapper was invoked without placement positions
    /// for every subject node.
    MissingPlacement {
        /// Expected position count.
        expected: usize,
        /// Provided position count.
        got: usize,
    },
    /// A netlist-level error surfaced during the flow.
    Netlist(lily_netlist::NetlistError),
    /// A library-level error surfaced during the flow (malformed gate
    /// parameters, duplicate names, missing inverter).
    Library(lily_cells::LibraryError),
    /// An iterative solver (placement CG, annealing schedule) failed to
    /// converge and no fallback remained.
    SolverDiverged {
        /// Which solver diverged.
        solver: &'static str,
        /// Iterations spent before giving up.
        iterations: usize,
        /// Final residual (NaN when the iteration blew up).
        residual: f64,
    },
    /// A resource budget (solver iterations, annealer moves) ran out and
    /// no fallback remained.
    BudgetExhausted {
        /// Which resource ran out.
        resource: &'static str,
        /// Amount spent before exhaustion.
        spent: u64,
        /// The configured budget.
        budget: u64,
    },
    /// The input is well-formed but has nothing to map (e.g. no primary
    /// outputs), or an option combination makes the request meaningless.
    DegenerateInput {
        /// Which stage rejected the input.
        stage: &'static str,
        /// What makes it degenerate.
        message: String,
    },
    /// A NaN or infinity appeared in a computation whose result the flow
    /// must trust (positions, delays, areas) and no fallback remained.
    NonFiniteValue {
        /// Which quantity went non-finite.
        context: &'static str,
    },
    /// A verification checkpoint between flow stages found invariant
    /// violations (see [`FlowOptions::verify`]).
    ///
    /// [`FlowOptions::verify`]: crate::flow::FlowOptions::verify
    Verify {
        /// Which checkpoint failed (`"network"`, `"subject"`,
        /// `"decompose-equiv"`, `"mapped"`, `"cover-equiv"`,
        /// `"placement"`, or `"timing"`).
        stage: &'static str,
        /// The failing diagnostics.
        report: lily_check::Report,
    },
    /// A stage was cooperatively cancelled (its cancellation token
    /// tripped) and retries were exhausted.
    Cancelled {
        /// What was cancelled (stage or kernel name).
        context: &'static str,
    },
    /// A stage overran its [`FlowOptions::stage_deadline`] and retries
    /// were exhausted.
    ///
    /// [`FlowOptions::stage_deadline`]: crate::flow::FlowOptions::stage_deadline
    StageDeadline {
        /// The stage that timed out.
        stage: &'static str,
        /// The configured deadline, milliseconds.
        deadline_ms: u64,
    },
    /// A deterministic fault-injection plan forced this stage to fail
    /// (chaos testing; never raised in production flows).
    FaultInjected {
        /// The stage the fault targeted.
        stage: &'static str,
        /// The stage attempt the fault fired on.
        invocation: u32,
    },
    /// A checkpointed flow stopped on purpose after completing the
    /// requested stage (`lily-check --kill-after`); resume from the
    /// same checkpoint directory to continue.
    Interrupted {
        /// The last completed (and checkpointed) stage.
        stage: &'static str,
    },
    /// The checkpoint directory could not be read or written (I/O
    /// trouble; *corrupt* checkpoint artifacts never error — they are
    /// discarded and the stage recomputes, with a `"checkpoint" →
    /// "recomputed"` degradation audit entry).
    Checkpoint {
        /// What the checkpoint layer was doing (`"open"`, `"save"`).
        context: &'static str,
        /// The underlying failure.
        message: String,
    },
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::IncompleteLibrary { missing } => {
                write!(f, "library cannot cover the base functions: missing {missing}")
            }
            MapError::NoMatch { node } => write!(f, "no pattern matches subject node {node}"),
            MapError::MissingPlacement { expected, got } => {
                write!(f, "layout-driven mapping needs {expected} positions, got {got}")
            }
            MapError::Netlist(e) => write!(f, "{e}"),
            MapError::Library(e) => write!(f, "{e}"),
            MapError::SolverDiverged { solver, iterations, residual } => {
                write!(f, "{solver} diverged after {iterations} iterations (residual {residual})")
            }
            MapError::BudgetExhausted { resource, spent, budget } => {
                write!(f, "{resource} budget exhausted: spent {spent} of {budget}")
            }
            MapError::DegenerateInput { stage, message } => {
                write!(f, "degenerate input at {stage}: {message}")
            }
            MapError::NonFiniteValue { context } => {
                write!(f, "non-finite value in {context}")
            }
            MapError::Verify { stage, report } => {
                write!(f, "verification failed at the `{stage}` checkpoint:\n{report}")
            }
            MapError::Cancelled { context } => {
                write!(f, "{context} cancelled before completion")
            }
            MapError::StageDeadline { stage, deadline_ms } => {
                write!(f, "stage `{stage}` exceeded its {deadline_ms} ms deadline")
            }
            MapError::FaultInjected { stage, invocation } => {
                write!(f, "injected fault failed stage `{stage}` (attempt {invocation})")
            }
            MapError::Interrupted { stage } => {
                write!(
                    f,
                    "flow interrupted after stage `{stage}` (checkpoint saved; resume to continue)"
                )
            }
            MapError::Checkpoint { context, message } => {
                write!(f, "checkpoint {context} failed: {message}")
            }
        }
    }
}

impl Error for MapError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MapError::Netlist(e) => Some(e),
            MapError::Library(e) => Some(e),
            _ => None,
        }
    }
}

impl From<lily_netlist::NetlistError> for MapError {
    fn from(e: lily_netlist::NetlistError) -> Self {
        match e {
            lily_netlist::NetlistError::Degenerate { message } => {
                MapError::DegenerateInput { stage: "netlist", message }
            }
            other => MapError::Netlist(other),
        }
    }
}

impl From<lily_cells::LibraryError> for MapError {
    fn from(e: lily_cells::LibraryError) -> Self {
        MapError::Library(e)
    }
}

impl From<lily_place::PlaceError> for MapError {
    fn from(e: lily_place::PlaceError) -> Self {
        use lily_place::PlaceError as P;
        match e {
            P::SolverDiverged { solver, iterations, residual } => {
                MapError::SolverDiverged { solver, iterations, residual }
            }
            P::BudgetExhausted { resource, spent, budget } => {
                MapError::BudgetExhausted { resource, spent, budget }
            }
            P::NonFinite { context } => MapError::NonFiniteValue { context },
            P::InvalidProblem { message } => {
                MapError::DegenerateInput { stage: "placement", message }
            }
            P::Cancelled { context } => MapError::Cancelled { context },
        }
    }
}

impl From<lily_timing::TimingError> for MapError {
    fn from(e: lily_timing::TimingError) -> Self {
        use lily_timing::TimingError as T;
        match e {
            T::InvalidNetwork { message } => MapError::DegenerateInput { stage: "sta", message },
            T::Cyclic { cell } => MapError::DegenerateInput {
                stage: "sta",
                message: format!("combinational cycle through cell {cell}"),
            },
            T::NonFinite { context } => MapError::NonFiniteValue { context },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let errs: Vec<MapError> = vec![
            MapError::IncompleteLibrary { missing: "inverter" },
            MapError::NoMatch { node: 3 },
            MapError::MissingPlacement { expected: 5, got: 0 },
            MapError::Netlist(lily_netlist::NetlistError::UnknownNode { id: 1 }),
            MapError::Library(lily_cells::LibraryError::NoInverter),
            MapError::SolverDiverged { solver: "cg", iterations: 100, residual: f64::NAN },
            MapError::BudgetExhausted { resource: "anneal moves", spent: 5, budget: 5 },
            MapError::DegenerateInput { stage: "netlist", message: "no outputs".into() },
            MapError::NonFiniteValue { context: "critical delay" },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn degenerate_netlist_errors_convert_to_degenerate_input() {
        let e =
            MapError::from(lily_netlist::NetlistError::Degenerate { message: "no outputs".into() });
        assert!(matches!(e, MapError::DegenerateInput { stage: "netlist", .. }));
    }

    #[test]
    fn place_errors_convert_structurally() {
        let e = MapError::from(lily_place::PlaceError::SolverDiverged {
            solver: "conjugate-gradient",
            iterations: 42,
            residual: 1.0,
        });
        assert!(matches!(e, MapError::SolverDiverged { iterations: 42, .. }));
        let e = MapError::from(lily_place::PlaceError::BudgetExhausted {
            resource: "anneal moves",
            spent: 7,
            budget: 7,
        });
        assert!(matches!(e, MapError::BudgetExhausted { spent: 7, .. }));
        let e = MapError::from(lily_place::PlaceError::NonFinite { context: "pad coordinates" });
        assert!(matches!(e, MapError::NonFiniteValue { context: "pad coordinates" }));
    }

    #[test]
    fn source_chains_netlist_errors() {
        let e = MapError::from(lily_netlist::NetlistError::UnknownNode { id: 1 });
        assert!(Error::source(&e).is_some());
    }
}
