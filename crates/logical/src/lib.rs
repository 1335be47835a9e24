//! # rld-logical
//!
//! Robust logical plan generation (§4 of the paper).
//!
//! Given a query, a parameter space and a robustness threshold ε, the
//! algorithms in this crate produce a *robust logical solution*: a set of
//! logical plans, each associated with the parameter-space regions where it
//! is ε-robust (Definition 1), that together cover the space.
//!
//! Four generators are provided, matching the paper's experimental
//! comparison (§6.3):
//!
//! * [`exhaustive::ExhaustiveSearch`] (ES) — optimize at every grid cell;
//!   the quality baseline.
//! * [`random::RandomSearch`] (RS) — optimize at uniformly sampled cells and
//!   stop after a run of calls that discover nothing new.
//! * [`wrp::WeightedRobustPartitioning`] (WRP, Algorithm 2) — recursive
//!   weight-driven space partitioning.
//! * [`erp::EarlyTerminatedRobustPartitioning`] (ERP, Algorithm 3) — WRP plus
//!   the aging-counter early-termination rule whose probabilistic guarantees
//!   are Theorems 1 and 2.
//!
//! Supporting machinery: [`robustness::RobustnessChecker`] (Definition 1 with
//! memoized optimizer calls), [`solution::RobustLogicalSolution`] — the plans
//! with their robust regions *and* the partition tree WRP/ERP built to find
//! them, from which it answers coverage, plan volumes and weights, the
//! entries covering a point and ERP's unexplored mass — the
//! [`evaluator::CoverageEvaluator`] that measures true space coverage for the
//! experiments, and [`stats::SearchStats`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod erp;
pub mod evaluator;
pub mod exhaustive;
pub mod random;
pub mod robustness;
pub mod solution;
pub mod stats;
pub mod wrp;

pub use erp::{EarlyTerminatedRobustPartitioning, ErpConfig};
pub use evaluator::CoverageEvaluator;
pub use exhaustive::ExhaustiveSearch;
pub use random::RandomSearch;
pub use robustness::RobustnessChecker;
pub use solution::{RobustLogicalSolution, SolutionEntry};
pub use stats::SearchStats;
pub use wrp::WeightedRobustPartitioning;

use rld_common::Result;

/// Common interface implemented by the four logical-solution generators, so
/// the benchmark harness can sweep over them uniformly.
pub trait LogicalPlanGenerator {
    /// Human-readable algorithm name (`"ES"`, `"RS"`, `"WRP"`, `"ERP"`).
    fn name(&self) -> &'static str;

    /// Produce a robust logical solution for the configured space, together
    /// with search statistics (optimizer calls made, plans found, ...).
    fn generate(&self) -> Result<(RobustLogicalSolution, SearchStats)>;

    /// Produce a solution using at most `max_calls` optimizer calls
    /// (used for the coverage-versus-calls experiment, Figure 11).
    fn generate_with_budget(
        &self,
        max_calls: usize,
    ) -> Result<(RobustLogicalSolution, SearchStats)>;
}
