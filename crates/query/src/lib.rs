//! # rld-query
//!
//! The logical query-plan model used by RLD:
//!
//! * [`plan::LogicalPlan`] — an ordering of a query's commutative operators
//!   (the paper's `lp`, e.g. `op3 → op2 → op1`).
//! * [`cost::CostModel`] — the streaming SPJ cost model of §2.3: plan cost at
//!   a statistics snapshot, per-operator loads (needed by physical planning),
//!   and output rates. Costs are monotone in every selectivity and input
//!   rate, the property the paper's Principles 1–2 rely on.
//!   [`cost::PlanCostKernel`] is one plan's cost compiled over a parameter
//!   space and costed a grid of points at a time, for the weight
//!   assignment's thousands of evaluations per plan.
//! * [`optimizer::JoinOrderOptimizer`] — the "standard query optimizer used as
//!   a black box" (§3): given a statistics snapshot it returns the cheapest
//!   operator ordering, and it counts how many times it has been invoked,
//!   which is the x-axis of Figures 10–12.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cost;
pub mod optimizer;
pub mod plan;

pub use cost::{CostModel, PlanCostKernel};
pub use optimizer::{JoinOrderOptimizer, Optimizer};
pub use plan::LogicalPlan;
