//! Structured errors of the placement substrate.
//!
//! Every fallible placement entry point (`try_solve_quadratic`,
//! `try_global_place`, `try_anneal`) reports one of these instead of
//! panicking, so the flow above can degrade gracefully (see the
//! degradation ladder in `lily-core`).

use std::error::Error;
use std::fmt;

/// Errors raised by the placement solvers and refiners.
#[derive(Debug, Clone, PartialEq)]
pub enum PlaceError {
    /// The placement problem failed validation (bad pin indices,
    /// undersized nets).
    InvalidProblem {
        /// Human-readable description.
        message: String,
    },
    /// An iterative solver failed to converge within its iteration
    /// budget, or its residual became non-finite.
    SolverDiverged {
        /// Which solver diverged (`"conjugate-gradient"`, …).
        solver: &'static str,
        /// Iterations spent before giving up.
        iterations: usize,
        /// Final residual norm (may be NaN/∞ when the solve blew up).
        residual: f64,
    },
    /// A resource budget was exhausted before the algorithm finished.
    BudgetExhausted {
        /// Which budget ran out (`"anneal-moves"`, …).
        resource: &'static str,
        /// Amount spent.
        spent: u64,
        /// The configured budget.
        budget: u64,
    },
    /// A non-finite coordinate or weight was encountered where a finite
    /// value is required.
    NonFinite {
        /// Where the value was seen (`"pad coordinates"`, …).
        context: &'static str,
    },
    /// A cooperative cancellation token tripped (stage deadline or an
    /// injected cancel fault) while a kernel was running.
    Cancelled {
        /// Which kernel observed the cancellation
        /// (`"conjugate-gradient"`, `"anneal"`, …).
        context: &'static str,
    },
}

impl fmt::Display for PlaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlaceError::InvalidProblem { message } => {
                write!(f, "invalid placement problem: {message}")
            }
            PlaceError::SolverDiverged { solver, iterations, residual } => {
                write!(f, "{solver} diverged after {iterations} iterations (residual {residual})")
            }
            PlaceError::BudgetExhausted { resource, spent, budget } => {
                write!(f, "{resource} budget exhausted ({spent} of {budget} spent)")
            }
            PlaceError::NonFinite { context } => {
                write!(f, "non-finite value in {context}")
            }
            PlaceError::Cancelled { context } => {
                write!(f, "{context} cancelled before completion")
            }
        }
    }
}

impl Error for PlaceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let errs = [
            PlaceError::InvalidProblem { message: "net 0 too small".into() },
            PlaceError::SolverDiverged {
                solver: "conjugate-gradient",
                iterations: 12,
                residual: f64::NAN,
            },
            PlaceError::BudgetExhausted { resource: "anneal-moves", spent: 10, budget: 10 },
            PlaceError::NonFinite { context: "pad coordinates" },
            PlaceError::Cancelled { context: "anneal" },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PlaceError>();
    }
}
