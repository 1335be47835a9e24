//! The pluggable distribution-strategy seam of the runtime.
//!
//! The paper's §6.5 comparison pits three deployment policies against each
//! other (RLD, ROD, DYN). Early versions of this simulator hard-wired them as
//! a closed enum inside the tick loop, which meant every new policy or
//! workload scenario required editing the engine core. [`DistributionStrategy`]
//! is the open seam instead: the simulator only ever talks to the trait, so a
//! new policy (see [`crate::strategies::HybridStrategy`] for the proof) plugs
//! in without touching the loop.
//!
//! A strategy answers three questions per tick:
//!
//! 1. **Routing** — which logical plan should this batch flow through, given
//!    the monitor's (stale, smoothed) view of the statistics? The answer is
//!    a position in the strategy's fixed plan table
//!    ([`DistributionStrategy::plans`]): RLD picks each batch's plan from the
//!    robust plans chosen at compile time (§3), so a route is an index.
//! 2. **Placement** — which node hosts which operator right now? The
//!    placement changes only through the decisions
//!    [`DistributionStrategy::maybe_migrate`] and
//!    [`DistributionStrategy::on_cluster_change`] return; the runtime core
//!    rebuilds its cached per-plan load vectors when a tick returns any, and
//!    a backend its per-plan hops.
//! 3. **Overheads** — what does the policy itself cost (plan classification,
//!    operator migrations)? The simulator charges these as node work.

use rld_common::{Query, Result, StatsSnapshot};
use rld_physical::{Cluster, ClusterView, MigrationDecision, PhysicalPlan};
use rld_query::{CostModel, LogicalPlan};

/// Everything a strategy may consult when deciding whether to adapt its
/// placement at a point in simulated time. Bundled so that growing the
/// runtime surface does not ripple through every strategy signature.
pub struct RuntimeContext<'a> {
    /// Current simulated time in seconds.
    pub t_secs: f64,
    /// The continuous query being executed.
    pub query: &'a Query,
    /// The cost model used to estimate per-operator loads.
    pub cost_model: &'a CostModel,
    /// The cluster the query is deployed on.
    pub cluster: &'a Cluster,
}

/// A deployment policy the simulator can exercise: how tuple batches are
/// routed onto logical plans and how (or whether) the operator placement
/// adapts at runtime.
///
/// Implementations must be deterministic: the same sequence of calls with the
/// same inputs must produce the same decisions, so that simulation runs are
/// reproducible per seed.
///
/// **A placement changes only through returned decisions.** [`Self::physical`]
/// may differ from its value at the end of the previous tick only by the
/// decisions [`Self::maybe_migrate`] or [`Self::on_cluster_change`] returned
/// this tick, already applied. The runtime core and the backends key what
/// they derive from the placement (per-node load vectors, per-plan hops) on
/// that rule: they rebuild it on a tick that returns decisions and never
/// compare placements, so a placement changed any other way goes unseen.
pub trait DistributionStrategy {
    /// The policy's short name as used in the paper's figures (e.g. `"RLD"`).
    fn name(&self) -> &str;

    /// The current operator placement.
    fn physical(&self) -> &PhysicalPlan;

    /// The strategy's plan table: every logical plan a batch can be routed
    /// through, fixed for the strategy's lifetime — the robust solution's
    /// entries for RLD and HYB (distinct plans by construction), one plan
    /// for ROD and DYN.
    fn plans(&self) -> &[LogicalPlan];

    /// The index into [`Self::plans`] of the plan the next batch should be
    /// routed through, given the monitored statistics. Returns `None` only
    /// when the table is empty (an empty robust solution).
    fn plan_for_batch(&mut self, monitored: &StatsSnapshot) -> Option<usize>;

    /// Per-batch routing overhead as a fraction of the batch's query work
    /// (the paper measured ≈ 2% for RLD's classifier; zero for static
    /// policies).
    fn classification_overhead(&self) -> f64 {
        0.0
    }

    /// Number of times the routed logical plan changed between consecutive
    /// batches.
    fn plan_switches(&self) -> u64 {
        0
    }

    /// Total operator migrations performed so far.
    fn migrations(&self) -> u64 {
        0
    }

    /// Give the strategy a chance to adapt its placement. Returned decisions
    /// must already be applied to [`Self::physical`]; the simulator only
    /// charges their cost.
    ///
    /// The default is the static policies' answer: never migrate.
    fn maybe_migrate(
        &mut self,
        _ctx: &RuntimeContext<'_>,
        _monitored: &StatsSnapshot,
    ) -> Result<Vec<MigrationDecision>> {
        Ok(Vec::new())
    }

    /// Notify the strategy that the cluster's availability changed (a node
    /// crashed, recovered, degraded, or was restored by the fault plane).
    /// Called once per tick in which at least one fault event fired, with
    /// the up-to-date availability `view`. As with
    /// [`Self::maybe_migrate`], returned decisions must already be applied
    /// to [`Self::physical`]; the simulator only charges their cost.
    ///
    /// The default is the static policies' answer — ride the fault out
    /// without reacting (RLD and ROD keep their placement and simply lose
    /// the tuples routed through a dead node). Adaptive strategies (DYN,
    /// HYB) fail over here by migrating operators off dead nodes.
    fn on_cluster_change(
        &mut self,
        _ctx: &RuntimeContext<'_>,
        _view: &ClusterView,
        _monitored: &StatsSnapshot,
    ) -> Result<Vec<MigrationDecision>> {
        Ok(Vec::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rld_common::NodeId;

    /// A minimal strategy exercising every trait default.
    struct Fixed {
        logical: LogicalPlan,
        physical: PhysicalPlan,
    }

    impl DistributionStrategy for Fixed {
        fn name(&self) -> &str {
            "FIXED"
        }
        fn physical(&self) -> &PhysicalPlan {
            &self.physical
        }
        fn plans(&self) -> &[LogicalPlan] {
            std::slice::from_ref(&self.logical)
        }
        fn plan_for_batch(&mut self, _monitored: &StatsSnapshot) -> Option<usize> {
            Some(0)
        }
    }

    #[test]
    fn trait_defaults_describe_a_static_policy() {
        let q = Query::q1_stock_monitoring();
        let mapping: Vec<NodeId> = (0..q.num_operators()).map(|_| NodeId::new(0)).collect();
        let physical = PhysicalPlan::from_mapping(&q, &mapping, 1).unwrap();
        let mut s = Fixed {
            logical: LogicalPlan::identity(&q),
            physical,
        };
        assert_eq!(s.classification_overhead(), 0.0);
        assert_eq!(s.plan_switches(), 0);
        assert_eq!(s.migrations(), 0);
        let cm = CostModel::new(q.clone());
        let cluster = Cluster::homogeneous(1, 1.0).unwrap();
        let ctx = RuntimeContext {
            t_secs: 0.0,
            query: &q,
            cost_model: &cm,
            cluster: &cluster,
        };
        assert!(s
            .maybe_migrate(&ctx, &q.default_stats())
            .unwrap()
            .is_empty());
        let mut view = ClusterView::all_up(&cluster);
        view.set_up(NodeId::new(0), false);
        assert!(s
            .on_cluster_change(&ctx, &view, &q.default_stats())
            .unwrap()
            .is_empty());
        assert_eq!(s.plan_for_batch(&q.default_stats()), Some(0));
    }
}
