//! ROD — the resilient operator distribution baseline (Xing et al., VLDB'06).
//!
//! ROD produces a single static operator placement intended to stay feasible
//! under load variations, but (per the paper's comparison in §7) it
//!
//! 1. considers only the *physical* placement of a *single* logical plan —
//!    it never switches plan orderings at runtime,
//! 2. assumes each operator's load is a linear function of input rates with
//!    fixed costs and selectivities, and
//! 3. does not migrate operators when the workload drifts outside what the
//!    placement can absorb.
//!
//! Our reimplementation captures those characteristics: it takes the
//! optimizer's plan at the single-point estimates, computes each operator's
//! load at those estimates, and balances the loads across nodes with Largest
//! Load First (maximizing headroom on every node, which is the essence of
//! ROD's feasible-set maximization for a homogeneous cluster). The resulting
//! `(logical plan, physical plan)` pair is what the runtime simulator executes
//! for the ROD arm of Figures 15–16.

use crate::cluster::Cluster;
use crate::llf::llf_assign;
use crate::plan::PhysicalPlan;
use rld_common::{Query, Result, RldError, StatsSnapshot};
use rld_query::{CostModel, JoinOrderOptimizer, LogicalPlan, Optimizer};

/// The ROD baseline planner.
#[derive(Debug, Clone, Copy, Default)]
pub struct RodPlanner;

/// The output of ROD planning: one logical plan and one static placement.
#[derive(Debug, Clone, PartialEq)]
// rld-allow(V1): returned by the public `RodPlanner::plan`
pub struct RodPlan {
    /// The single logical plan ROD executes for the query's lifetime.
    pub logical: LogicalPlan,
    /// The static operator placement.
    pub physical: PhysicalPlan,
    /// The per-operator loads (at the estimate point) the placement balanced.
    pub loads: Vec<f64>,
}

impl RodPlanner {
    /// Create a ROD planner.
    pub fn new() -> Self {
        Self
    }

    /// Plan for a query given its single-point statistics and a cluster.
    ///
    /// `headroom` scales the estimated loads before packing (ROD plans for
    /// some slack above the estimates); `1.0` means no slack. Returns an error
    /// if even the scaled loads cannot be packed.
    pub fn plan(
        &self,
        query: &Query,
        stats: &StatsSnapshot,
        cluster: &Cluster,
        headroom: f64,
    ) -> Result<RodPlan> {
        if headroom <= 0.0 || !headroom.is_finite() {
            return Err(RldError::InvalidArgument(format!(
                "headroom must be positive and finite, got {headroom}"
            )));
        }
        let optimizer = JoinOrderOptimizer::new(query.clone());
        let logical = optimizer.optimize(stats)?;
        let cost_model = CostModel::new(query.clone());
        let loads: Vec<f64> = cost_model
            .operator_loads(&logical, stats)?
            .into_iter()
            .map(|l| l * headroom)
            .collect();
        let physical = llf_assign(query, &loads, cluster)?.ok_or_else(|| {
            RldError::Infeasible(format!(
                "ROD cannot place {} operators with headroom {headroom} on {} nodes",
                query.num_operators(),
                cluster.num_nodes()
            ))
        })?;
        Ok(RodPlan {
            logical,
            physical,
            loads,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::llf::node_loads;

    #[test]
    fn rod_produces_balanced_single_plan() {
        let q = Query::q1_stock_monitoring();
        let stats = q.default_stats();
        let cluster = Cluster::homogeneous(3, 1e6).unwrap();
        let plan = RodPlanner::new().plan(&q, &stats, &cluster, 1.0).unwrap();
        assert_eq!(plan.logical.len(), q.num_operators());
        assert_eq!(plan.physical.num_operators(), q.num_operators());
        // Its logical plan is the optimum at the estimate point.
        let opt = JoinOrderOptimizer::new(q.clone());
        assert_eq!(plan.logical, opt.optimize(&stats).unwrap());
        // Loads within capacity.
        let per_node = node_loads(&plan.physical, &plan.loads);
        assert!(per_node.iter().all(|l| *l <= 1e6));
    }

    #[test]
    fn headroom_scales_loads() {
        let q = Query::q1_stock_monitoring();
        let stats = q.default_stats();
        let cluster = Cluster::homogeneous(3, 1e6).unwrap();
        let tight = RodPlanner::new().plan(&q, &stats, &cluster, 1.0).unwrap();
        let slack = RodPlanner::new().plan(&q, &stats, &cluster, 2.0).unwrap();
        let t: f64 = tight.loads.iter().sum();
        let s: f64 = slack.loads.iter().sum();
        assert!((s - 2.0 * t).abs() < 1e-6);
    }

    #[test]
    fn infeasible_cluster_reports_error() {
        let q = Query::q1_stock_monitoring();
        let stats = q.default_stats();
        let cluster = Cluster::homogeneous(2, 1e-6).unwrap();
        assert!(matches!(
            RodPlanner::new().plan(&q, &stats, &cluster, 1.0),
            Err(RldError::Infeasible(_))
        ));
        assert!(RodPlanner::new().plan(&q, &stats, &cluster, 0.0).is_err());
    }
}
