//! DYN — Borealis-style dynamic load distribution, the migrating baseline.

use crate::strategy::{DistributionStrategy, RuntimeContext};
use rld_common::{Result, StatsSnapshot};
use rld_physical::{ClusterView, MigrationDecision, PhysicalPlan};
use rld_query::LogicalPlan;

/// One logical plan, but the placement is rebalanced at runtime by migrating
/// operators off overloaded nodes every `rebalance_period_secs` — and off
/// *dead* nodes immediately whenever the fault plane changes the cluster.
pub struct DynStrategy {
    logical: LogicalPlan,
    physical: PhysicalPlan,
    rebalance_period_secs: f64,
    last_rebalance_at: f64,
    migrations: u64,
    /// Latest availability view the simulator reported; `None` until the
    /// first cluster change (i.e. a fully healthy cluster).
    view: Option<ClusterView>,
}

impl DynStrategy {
    /// Build the DYN deployment from its initial plan and placement. A
    /// rebalance period below 0.1 s is raised to 0.1 s, a floor on how often
    /// the controller re-plans; callers refuse a NaN, zero or negative period
    /// before they get here (`f64::max` would turn a NaN into the floor too).
    pub fn new(logical: LogicalPlan, physical: PhysicalPlan, rebalance_period_secs: f64) -> Self {
        Self {
            logical,
            physical,
            rebalance_period_secs: rebalance_period_secs.max(0.1),
            last_rebalance_at: f64::NEG_INFINITY,
            migrations: 0,
            view: None,
        }
    }

    /// How often the controller re-evaluates the placement, in seconds.
    pub fn rebalance_period_secs(&self) -> f64 {
        self.rebalance_period_secs
    }
}

impl DistributionStrategy for DynStrategy {
    fn name(&self) -> &str {
        "DYN"
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

    fn migrations(&self) -> u64 {
        self.migrations
    }

    fn maybe_migrate(
        &mut self,
        ctx: &RuntimeContext<'_>,
        monitored: &StatsSnapshot,
    ) -> Result<Vec<MigrationDecision>> {
        if ctx.t_secs - self.last_rebalance_at < self.rebalance_period_secs {
            return Ok(Vec::new());
        }
        self.last_rebalance_at = ctx.t_secs;
        let capacities = super::rebalance_capacities(ctx, self.view.as_ref());
        let decisions = super::rebalance_round(
            ctx,
            monitored,
            &self.logical,
            &mut self.physical,
            &capacities,
        )?;
        self.migrations += decisions.len() as u64;
        Ok(decisions)
    }

    fn on_cluster_change(
        &mut self,
        ctx: &RuntimeContext<'_>,
        view: &ClusterView,
        monitored: &StatsSnapshot,
    ) -> Result<Vec<MigrationDecision>> {
        self.view = Some(view.clone());
        if view.down_nodes().is_empty() {
            // Degrade/restore only: the stored view steers the next periodic
            // rebalance; there is nothing to evacuate.
            return Ok(Vec::new());
        }
        // Fail over immediately: operators stranded on dead nodes process
        // nothing, so evacuation does not wait for the rebalance period.
        let loads = ctx.cost_model.operator_loads(&self.logical, monitored)?;
        let decisions = super::evacuate_down_nodes(ctx.query, &mut self.physical, &loads, view)?;
        self.migrations += decisions.len() as u64;
        Ok(decisions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rld_common::{Query, StatKey};
    use rld_physical::{Cluster, DynPlanner};
    use rld_query::{CostModel, JoinOrderOptimizer, Optimizer};

    #[test]
    fn dyn_migrates_under_overload_and_respects_the_period() {
        let q = Query::q1_stock_monitoring();
        // Capacity chosen so the default-stat loads roughly fit, then we
        // triple the rates so one node overloads.
        let cost_model = CostModel::new(q.clone());
        let opt = JoinOrderOptimizer::new(q.clone());
        let lp = opt.optimize(&q.default_stats()).unwrap();
        let loads = cost_model.operator_loads(&lp, &q.default_stats()).unwrap();
        let total: f64 = loads.iter().sum();
        let cluster = Cluster::homogeneous(4, total * 0.7).unwrap();
        let (logical, physical) =
            DynPlanner::initial_plan(&q, &q.default_stats(), &cluster).unwrap();
        let mut s = DynStrategy::new(logical, physical, 1.0);
        assert_eq!(s.name(), "DYN");

        let mut surged = q.default_stats();
        surged.set(
            StatKey::InputRate(q.driving_stream),
            q.streams[0].rate_estimate * 3.0,
        );
        let ctx = RuntimeContext {
            t_secs: 10.0,
            query: &q,
            cost_model: &cost_model,
            cluster: &cluster,
        };
        let placement_before = s.physical().clone();
        let decisions = s.maybe_migrate(&ctx, &surged).unwrap();
        // Either it migrated, or the placement was already as balanced as it
        // can be; both are valid, but the bookkeeping must be consistent.
        assert_eq!(s.migrations(), decisions.len() as u64);
        if decisions.is_empty() {
            assert_eq!(*s.physical(), placement_before);
        } else {
            assert_ne!(*s.physical(), placement_before);
        }
        // Within the rebalance period, no second migration round happens.
        let ctx = RuntimeContext {
            t_secs: 10.5,
            ..ctx
        };
        let again = s.maybe_migrate(&ctx, &surged).unwrap();
        assert!(again.is_empty());
    }

    #[test]
    fn dyn_evacuates_a_crashed_node_immediately() {
        let q = Query::q1_stock_monitoring();
        let cost_model = CostModel::new(q.clone());
        let cluster = Cluster::homogeneous(3, 1e6).unwrap();
        let (logical, physical) =
            DynPlanner::initial_plan(&q, &q.default_stats(), &cluster).unwrap();
        let mut s = DynStrategy::new(logical, physical, 5.0);
        // Find a node hosting at least one operator and crash it.
        let victim = (0..3)
            .map(rld_common::NodeId::new)
            .find(|n| !s.physical().operators_on(*n).is_empty())
            .expect("some node hosts operators");
        let mut view = rld_physical::ClusterView::all_up(&cluster);
        view.set_up(victim, false);
        let ctx = RuntimeContext {
            t_secs: 3.0,
            query: &q,
            cost_model: &cost_model,
            cluster: &cluster,
        };
        let decisions = s
            .on_cluster_change(&ctx, &view, &q.default_stats())
            .unwrap();
        assert!(!decisions.is_empty(), "stranded operators must move");
        assert!(decisions.iter().all(|d| d.from == victim));
        assert!(decisions.iter().all(|d| d.to != victim));
        assert!(s.physical().operators_on(victim).is_empty());
        assert_eq!(s.migrations(), decisions.len() as u64);
        // The stored view keeps later rebalance rounds off the dead node.
        let ctx = RuntimeContext {
            t_secs: 10.0,
            ..ctx
        };
        for d in s.maybe_migrate(&ctx, &q.default_stats()).unwrap() {
            assert_ne!(d.to, victim);
        }
    }
}
