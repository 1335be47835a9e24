//! # rld-physical
//!
//! Robust physical plan generation (§5 of the paper) plus the two
//! state-of-the-art baselines used in the runtime evaluation (§6.5).
//!
//! A *physical plan* assigns every query operator to exactly one machine
//! (Definition 3). Given a robust logical solution (from `rld-logical`), the
//! planners in this crate try to find a single physical plan that *supports*
//! as many of the robust logical plans as possible — weighted by the
//! probability that runtime statistics fall into each plan's robust region —
//! subject to per-machine resource limits:
//!
//! * [`llf::llf_assign`] — Largest Load First list scheduling, the packing
//!   primitive used by GreedyPhy.
//! * [`greedy::GreedyPhy`] — Algorithm 4: drop the least-weighted logical
//!   plan until LLF succeeds on the remaining plans' worst-case loads.
//! * [`optprune::OptPrune`] — Algorithm 5: branch-and-bound over machine
//!   configurations, using the GreedyPhy score as the pruning bound; optimal
//!   (Theorem 3) but with bounded practical cost.
//! * [`exhaustive::ExhaustivePhysicalSearch`] — enumerate every assignment
//!   (ground truth for small instances, the ES baseline of Figures 13–14).
//! * [`rod::RodPlanner`] — the resilient-operator-distribution baseline
//!   (Xing et al.): a single balanced placement for a single logical plan.
//! * [`dyn_dist::DynPlanner`] — the Borealis-style dynamic load distribution
//!   baseline: reacts to overload at runtime by migrating operators.
//! * [`availability::ClusterView`] — the runtime availability overlay
//!   (crashed / degraded nodes) that fault-aware strategies balance against.
//!
//! The shared [`support::SupportModel`] precomputes each logical plan's
//! worst-case per-operator loads and occurrence weight, and scores physical
//! plans by the total weight of the logical plans they support.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod availability;
pub mod cluster;
pub mod dyn_dist;
pub mod exhaustive;
pub mod greedy;
pub mod llf;
pub mod naive;
pub mod optprune;
pub mod plan;
pub mod rod;
pub mod support;

pub use availability::ClusterView;
pub use cluster::Cluster;
pub use dyn_dist::{DynPlanner, MigrationDecision};
pub use exhaustive::ExhaustivePhysicalSearch;
pub use greedy::GreedyPhy;
pub use llf::llf_assign;
pub use naive::{llf_assign_naive, NaiveGreedyPhy, NaiveOptPrune};
pub use optprune::OptPrune;
pub use plan::PhysicalPlan;
pub use rod::RodPlanner;
pub use support::{PhysicalSearchStats, PlanLoadProfile, SupportModel};

use rld_common::Result;

/// Common interface for physical plan generators so the benchmark harness can
/// sweep over GreedyPhy / OptPrune / exhaustive search uniformly.
pub trait PhysicalPlanGenerator {
    /// Human-readable algorithm name (`"GreedyPhy"`, `"OptPrune"`, `"ES"`).
    fn name(&self) -> &'static str;

    /// Produce a physical plan for the given support model and cluster,
    /// together with search statistics.
    fn generate(
        &self,
        model: &SupportModel,
        cluster: &Cluster,
    ) -> Result<(PhysicalPlan, PhysicalSearchStats)>;
}
