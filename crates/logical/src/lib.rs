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
//! All four answer one call, [`LogicalPlanGenerator::generate`], with an
//! optional optimizer-call budget.
//!
//! [`robustness::RobustnessChecker`] is the one place Definition 1 is
//! evaluated: it memoizes the optimum per grid point, checks a plan at a
//! point or over a region, and measures a solution's true coverage for the
//! experiments (built over an optimizer of its own there, so its calls are
//! not charged to the solver under test).
//! [`solution::RobustLogicalSolution`] holds the plans with their robust
//! regions *and* the partition tree WRP/ERP built to find them, from which
//! it answers claimed coverage, plan volumes and weights, the entries
//! covering a point and ERP's unexplored mass; [`stats::SearchStats`]
//! reports what a search spent.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod erp;
pub mod exhaustive;
pub mod random;
pub mod robustness;
pub mod solution;
pub mod stats;
pub mod wrp;

pub use erp::{EarlyTerminatedRobustPartitioning, ErpConfig};
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
    /// with search statistics (optimizer calls made, plans found, ...). With
    /// a `budget` it starts no new probe once it has made that many
    /// optimizer calls (the coverage-versus-calls experiment, Figure 11).
    fn generate(&self, budget: Option<usize>) -> Result<(RobustLogicalSolution, SearchStats)>;
}
