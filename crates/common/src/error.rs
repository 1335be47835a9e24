//! Workspace-wide error type.
//!
//! Every fallible public API in the RLD workspace returns [`Result<T>`],
//! which uses [`RldError`] as its error type. The enum is deliberately
//! flat: callers in benches and examples mostly want a readable message,
//! while tests match on the variant.

use std::fmt;

/// Convenience alias used throughout the workspace.
pub type Result<T> = std::result::Result<T, RldError>;

/// Errors produced by the RLD library.
#[derive(Debug, Clone, PartialEq)]
pub enum RldError {
    /// A query was malformed (e.g. an operator references an unknown stream).
    InvalidQuery(String),
    /// A parameter-space construction argument was out of range.
    InvalidParameterSpace(String),
    /// The logical plan generator could not produce a plan.
    PlanGeneration(String),
    /// No physical plan satisfies the resource constraints (Def. 3 in the paper).
    Infeasible(String),
    /// A runtime / simulation configuration error.
    Runtime(String),
    /// An identifier (operator, stream, node) was not found.
    NotFound(String),
    /// Generic invalid-argument error.
    InvalidArgument(String),
}

impl fmt::Display for RldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RldError::InvalidQuery(msg) => write!(f, "invalid query: {msg}"),
            RldError::InvalidParameterSpace(msg) => {
                write!(f, "invalid parameter space: {msg}")
            }
            RldError::PlanGeneration(msg) => write!(f, "plan generation failed: {msg}"),
            RldError::Infeasible(msg) => write!(f, "no feasible physical plan: {msg}"),
            RldError::Runtime(msg) => write!(f, "runtime error: {msg}"),
            RldError::NotFound(msg) => write!(f, "not found: {msg}"),
            RldError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl std::error::Error for RldError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_readable() {
        let e = RldError::InvalidQuery("no operators".into());
        assert_eq!(e.to_string(), "invalid query: no operators");
        let e = RldError::Infeasible("10 operators on 1 node".into());
        assert!(e.to_string().starts_with("no feasible physical plan"));
    }

    #[test]
    fn errors_are_comparable_and_cloneable() {
        let a = RldError::NotFound("op7".into());
        let b = a.clone();
        assert_eq!(a, b);
        assert_ne!(a, RldError::NotFound("op8".into()));
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn std::error::Error> = Box::new(RldError::Runtime("boom".into()));
        assert!(e.to_string().contains("boom"));
    }
}
