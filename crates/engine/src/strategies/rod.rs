//! ROD — Resilient Operator Distribution (Xing et al.), the static baseline.

use crate::strategy::DistributionStrategy;
use rld_common::StatsSnapshot;
use rld_physical::PhysicalPlan;
use rld_query::LogicalPlan;

/// One logical plan, one static placement, no runtime adaptation at all.
pub struct RodStrategy {
    logical: LogicalPlan,
    physical: PhysicalPlan,
}

impl RodStrategy {
    /// Build the ROD deployment from its fixed logical plan and placement.
    pub fn new(logical: LogicalPlan, physical: PhysicalPlan) -> Self {
        Self { logical, physical }
    }
}

impl DistributionStrategy for RodStrategy {
    fn name(&self) -> &str {
        "ROD"
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

#[cfg(test)]
mod tests {
    use super::*;
    use rld_common::{OperatorId, Query, StatKey};
    use rld_physical::{Cluster, RodPlanner};

    #[test]
    fn rod_never_changes_plan() {
        let q = Query::q1_stock_monitoring();
        let cluster = Cluster::homogeneous(3, 1e9).unwrap();
        let rod = RodPlanner::new()
            .plan(&q, &q.default_stats(), &cluster, 1.0)
            .unwrap();
        let mut s = RodStrategy::new(rod.logical.clone(), rod.physical.clone());
        assert_eq!(s.name(), "ROD");
        assert_eq!(s.plans(), std::slice::from_ref(&rod.logical));
        let a = s.plan_for_batch(&q.default_stats()).unwrap();
        let mut shifted = q.default_stats();
        shifted.set(StatKey::Selectivity(OperatorId::new(0)), 0.05);
        let b = s.plan_for_batch(&shifted).unwrap();
        assert_eq!((a, b), (0, 0));
        assert_eq!(s.classification_overhead(), 0.0);
        assert_eq!(s.plan_switches(), 0);
        assert_eq!(s.migrations(), 0);
    }
}
