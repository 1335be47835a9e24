//! RLD — Robust Load Distribution, the paper's contribution.

use crate::classifier::OnlineClassifier;
use crate::strategy::DistributionStrategy;
use rld_common::{Query, StatsSnapshot};
use rld_logical::RobustLogicalSolution;
use rld_paramspace::ParameterSpace;
use rld_physical::PhysicalPlan;
use rld_query::{CostModel, LogicalPlan};
use std::sync::Arc;

/// A fixed physical plan supporting a set of robust logical plans, switched
/// per batch by the online classifier. The placement never changes at
/// runtime; the only overhead is classification.
pub struct RldStrategy {
    classifier: OnlineClassifier,
    physical: PhysicalPlan,
    classification_overhead: f64,
}

impl RldStrategy {
    /// Build the RLD deployment. The classifier routes each batch to the
    /// cheapest robust plan covering the monitored statistics, using the
    /// query's cost model.
    pub fn new(
        query: &Query,
        space: ParameterSpace,
        solution: RobustLogicalSolution,
        physical: PhysicalPlan,
        classification_overhead: f64,
    ) -> Self {
        Self {
            classifier: OnlineClassifier::new(space, solution, CostModel::new(query.clone())),
            physical,
            classification_overhead: classification_overhead.max(0.0),
        }
    }

    /// The per-batch plan selector.
    pub fn classifier(&self) -> &OnlineClassifier {
        &self.classifier
    }
}

impl DistributionStrategy for RldStrategy {
    fn name(&self) -> &str {
        "RLD"
    }

    fn physical(&self) -> &PhysicalPlan {
        &self.physical
    }

    fn plan_for_batch(&mut self, monitored: &StatsSnapshot) -> Option<Arc<LogicalPlan>> {
        self.classifier.classify(monitored)
    }

    fn classification_overhead(&self) -> f64 {
        self.classification_overhead
    }

    fn plan_switches(&self) -> u64 {
        self.classifier.plan_switches() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rld_common::UncertaintyLevel;
    use rld_logical::{EarlyTerminatedRobustPartitioning, ErpConfig, LogicalPlanGenerator};
    use rld_paramspace::OccurrenceModel;
    use rld_physical::{Cluster, GreedyPhy, PhysicalPlanGenerator, SupportModel};
    use rld_query::JoinOrderOptimizer;

    fn build_rld() -> (Query, RldStrategy) {
        let q = Query::q1_stock_monitoring();
        let est = q
            .selectivity_estimates(2, UncertaintyLevel::new(3))
            .unwrap();
        let space = ParameterSpace::from_estimates(&est, q.default_stats(), 9).unwrap();
        let opt = JoinOrderOptimizer::new(q.clone());
        let erp =
            EarlyTerminatedRobustPartitioning::new(&opt, &space, ErpConfig::with_epsilon(0.2));
        let (solution, _) = erp.generate().unwrap();
        let model = SupportModel::build(&q, &space, &solution, OccurrenceModel::Normal).unwrap();
        let cluster = Cluster::homogeneous(4, 1e9).unwrap();
        let (pp, _) = GreedyPhy::new().generate(&model, &cluster).unwrap();
        let strategy = RldStrategy::new(&q, space, solution, pp, 0.02);
        (q, strategy)
    }

    #[test]
    fn rld_classifies_batches_and_never_migrates() {
        let (q, mut s) = build_rld();
        assert_eq!(s.name(), "RLD");
        assert!(s.plan_for_batch(&q.default_stats()).is_some());
        assert!((s.classification_overhead() - 0.02).abs() < 1e-12);
        assert_eq!(s.migrations(), 0);
    }

    #[test]
    fn negative_overhead_is_clamped() {
        let (q, s2) = build_rld();
        let est = q
            .selectivity_estimates(2, UncertaintyLevel::new(3))
            .unwrap();
        let space = ParameterSpace::from_estimates(&est, q.default_stats(), 9).unwrap();
        let s = RldStrategy::new(
            &q,
            space,
            s2.classifier.solution().clone(),
            s2.physical.clone(),
            -1.0,
        );
        assert_eq!(s.classification_overhead(), 0.0);
    }
}
