//! HYB — robust classification with a migration escape hatch.
//!
//! RLD's guarantee only holds while the monitored statistics stay inside the
//! modelled parameter space: the paper itself notes that truly unexpected
//! fluctuations would still require migration. The hybrid strategy closes
//! that gap, occupying the middle of the static↔dynamic adaptivity spectrum:
//!
//! * While the monitored statistics fall inside some plan's ε-robust region,
//!   it behaves exactly like RLD — per-batch classification over a fixed
//!   placement, no migration, no migration overhead.
//! * Only when the statistics escape **every** robust region (drift outside
//!   the modelled space, or into an uncovered hole of it) does it fall back
//!   to DYN-style rebalancing, migrating operators off overloaded nodes at
//!   most once per rebalance period until the statistics return.
//! * When the statistics come back inside the regions after such an
//!   excursion, the strategy migrates the displaced operators **back** to the
//!   robust placement (paying those migrations once), because the robust
//!   physical plan — not whatever the excursion left behind — is what was
//!   chosen to support every robust logical plan under the node capacities.

use crate::classifier::OnlineClassifier;
use crate::strategy::{DistributionStrategy, RuntimeContext};
use rld_common::{Query, Result, StatsSnapshot};
use rld_logical::RobustLogicalSolution;
use rld_paramspace::ParameterSpace;
use rld_physical::{ClusterView, MigrationDecision, PhysicalPlan};
use rld_query::{CostModel, LogicalPlan};

/// RLD classification plus DYN-style migration restricted to the moments
/// when the monitored statistics fall outside every robust region.
pub struct HybridStrategy {
    classifier: OnlineClassifier,
    /// The current placement; deviates from `robust_physical` only during
    /// (and immediately after) an out-of-region excursion.
    physical: PhysicalPlan,
    /// The compile-time robust placement, restored once the statistics
    /// return inside the robust regions.
    robust_physical: PhysicalPlan,
    classification_overhead: f64,
    rebalance_period_secs: f64,
    last_rebalance_at: f64,
    migrations: u64,
    /// Latest availability view the simulator reported; `None` until the
    /// first cluster change (i.e. a fully healthy cluster).
    view: Option<ClusterView>,
}

impl HybridStrategy {
    /// Build the hybrid deployment from an RLD compile-time solution; the
    /// out-of-region fallback is the DYN migration controller. A rebalance
    /// period below 0.1 s is raised to 0.1 s, the floor
    /// [`DynStrategy::new`](crate::DynStrategy::new) keeps; callers refuse a
    /// NaN, zero or negative period before they get here (`f64::max` would
    /// turn a NaN into the floor too).
    pub fn new(
        query: &Query,
        space: ParameterSpace,
        solution: RobustLogicalSolution,
        physical: PhysicalPlan,
        classification_overhead: f64,
        rebalance_period_secs: f64,
    ) -> Self {
        Self {
            classifier: OnlineClassifier::new(space, solution, CostModel::new(query.clone())),
            robust_physical: physical.clone(),
            physical,
            classification_overhead: classification_overhead.max(0.0),
            rebalance_period_secs: rebalance_period_secs.max(0.1),
            last_rebalance_at: f64::NEG_INFINITY,
            migrations: 0,
            view: None,
        }
    }

    /// Whether the cluster (as last reported) is fully healthy — the only
    /// condition under which restoring the compile-time robust placement is
    /// sound, since that placement assumed every node's nominal capacity.
    fn cluster_healthy(&self) -> bool {
        self.view
            .as_ref()
            .is_none_or(ClusterView::all_nodes_healthy)
    }

    /// The per-batch plan selector.
    pub fn classifier(&self) -> &OnlineClassifier {
        &self.classifier
    }
}

impl DistributionStrategy for HybridStrategy {
    fn name(&self) -> &str {
        "HYB"
    }

    fn physical(&self) -> &PhysicalPlan {
        &self.physical
    }

    fn plans(&self) -> &[LogicalPlan] {
        self.classifier.plans()
    }

    fn plan_for_batch(&mut self, monitored: &StatsSnapshot) -> Option<usize> {
        self.classifier.classify(monitored)
    }

    fn classification_overhead(&self) -> f64 {
        self.classification_overhead
    }

    fn plan_switches(&self) -> u64 {
        self.classifier.plan_switches() as u64
    }

    fn migrations(&self) -> u64 {
        self.migrations
    }

    fn maybe_migrate(
        &mut self,
        ctx: &RuntimeContext<'_>,
        monitored: &StatsSnapshot,
    ) -> Result<Vec<MigrationDecision>> {
        if self.cluster_healthy() && self.classifier.robustly_covered(monitored) {
            // Inside a robust region the RLD guarantee holds — but it is
            // stated for the *robust* placement. If an excursion displaced
            // operators, migrate them back (once per rebalance period);
            // otherwise never migrate.
            if self.physical == self.robust_physical
                || ctx.t_secs - self.last_rebalance_at < self.rebalance_period_secs
            {
                return Ok(Vec::new());
            }
            self.last_rebalance_at = ctx.t_secs;
            let mut decisions = Vec::new();
            for op in ctx.query.operator_ids() {
                let (Some(from), Some(home)) =
                    (self.physical.node_of(op), self.robust_physical.node_of(op))
                else {
                    continue;
                };
                if from != home {
                    decisions.push(MigrationDecision {
                        operator: op,
                        from,
                        to: home,
                        state_bytes: ctx.query.operator(op)?.state_bytes,
                    });
                }
            }
            self.physical = self.robust_physical.clone();
            self.migrations += decisions.len() as u64;
            return Ok(decisions);
        }
        if ctx.t_secs - self.last_rebalance_at < self.rebalance_period_secs {
            return Ok(Vec::new());
        }
        // Balance for the plan the classifier last routed a batch through
        // (the cheapest fallback when no region covers the stats). Before any
        // batch has been routed there is nothing meaningful to balance for —
        // and peeking via `classify` here would perturb the plan-switch
        // bookkeeping — so the round is deferred, not consumed.
        let Some(entry) = self.classifier.last_entry() else {
            return Ok(Vec::new());
        };
        self.last_rebalance_at = ctx.t_secs;
        let capacities = super::rebalance_capacities(ctx, self.view.as_ref());
        let decisions = super::rebalance_round(
            ctx,
            monitored,
            &self.classifier.plans()[entry],
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
            // Degrade/restore only: the stored view gates restoration and
            // steers the fallback rebalance; nothing to evacuate.
            return Ok(Vec::new());
        }
        // Node death voids the robust guarantee (it assumed every node's
        // capacity), so the hybrid fails over immediately — even inside a
        // robust region. Restoration back to the robust placement happens
        // through `maybe_migrate` once the cluster is healthy again. Loads
        // are estimated for the last routed plan — or, if the crash precedes
        // the first batch, for entry 0 (evacuation must not strand operators
        // just because nothing has been routed yet).
        let entry = self.classifier.last_entry().unwrap_or(0);
        let Some(plan) = self.classifier.plans().get(entry) else {
            return Ok(Vec::new()); // empty solution: nothing runs
        };
        let loads = ctx.cost_model.operator_loads(plan, monitored)?;
        let decisions = super::evacuate_down_nodes(ctx.query, &mut self.physical, &loads, view)?;
        self.migrations += decisions.len() as u64;
        Ok(decisions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rld_common::{StatKey, UncertaintyLevel};
    use rld_logical::{EarlyTerminatedRobustPartitioning, ErpConfig, LogicalPlanGenerator};
    use rld_paramspace::OccurrenceModel;
    use rld_physical::{Cluster, GreedyPhy, PhysicalPlanGenerator, SupportModel};
    use rld_query::{JoinOrderOptimizer, Optimizer};

    fn build_hybrid(cluster: &Cluster) -> (Query, HybridStrategy) {
        let q = Query::q1_stock_monitoring();
        let est = q
            .selectivity_estimates(2, UncertaintyLevel::new(3))
            .unwrap();
        let space = ParameterSpace::from_estimates(&est, q.default_stats(), 9).unwrap();
        let opt = JoinOrderOptimizer::new(q.clone());
        let erp =
            EarlyTerminatedRobustPartitioning::new(&opt, &space, ErpConfig::with_epsilon(0.2));
        let (solution, _) = erp.generate(None).unwrap();
        let model = SupportModel::build(&q, &space, &solution, OccurrenceModel::Normal).unwrap();
        let (pp, _) = GreedyPhy::new().generate(&model, cluster).unwrap();
        let strategy = HybridStrategy::new(&q, space, solution, pp, 0.02, 1.0);
        (q, strategy)
    }

    #[test]
    fn hybrid_never_migrates_inside_robust_regions() {
        let cluster = Cluster::homogeneous(4, 1e9).unwrap();
        let (q, mut s) = build_hybrid(&cluster);
        assert_eq!(s.name(), "HYB");
        let cm = CostModel::new(q.clone());
        let stats = q.default_stats();
        assert!(s.classifier.robustly_covered(&stats));
        for step in 0..20 {
            let ctx = RuntimeContext {
                t_secs: step as f64 * 5.0,
                query: &q,
                cost_model: &cm,
                cluster: &cluster,
            };
            assert!(s.plan_for_batch(&stats).is_some());
            assert!(s.maybe_migrate(&ctx, &stats).unwrap().is_empty());
        }
        assert_eq!(s.migrations(), 0);
    }

    #[test]
    fn hybrid_fails_over_even_before_the_first_batch_is_routed() {
        // A crash that precedes any routed batch: no entry was chosen yet,
        // so evacuation must fall back to entry 0 for load estimation
        // instead of leaving operators stranded on the dead node.
        let cluster = Cluster::homogeneous(4, 1e9).unwrap();
        let (q, mut s) = build_hybrid(&cluster);
        let cm = CostModel::new(q.clone());
        let victim = (0..4)
            .map(rld_common::NodeId::new)
            .find(|n| !s.physical().operators_on(*n).is_empty())
            .expect("some node hosts operators");
        let mut view = ClusterView::all_up(&cluster);
        view.set_up(victim, false);
        let ctx = RuntimeContext {
            t_secs: 0.5,
            query: &q,
            cost_model: &cm,
            cluster: &cluster,
        };
        let decisions = s
            .on_cluster_change(&ctx, &view, &q.default_stats())
            .unwrap();
        assert!(!decisions.is_empty(), "stranded operators must move");
        assert!(s.physical().operators_on(victim).is_empty());
        assert_eq!(s.migrations(), decisions.len() as u64);
    }

    #[test]
    fn hybrid_migrates_when_stats_escape_the_space() {
        // Tight cluster so an out-of-space surge actually overloads a node.
        let q = Query::q1_stock_monitoring();
        let cm = CostModel::new(q.clone());
        let opt = JoinOrderOptimizer::new(q.clone());
        let lp = opt.optimize(&q.default_stats()).unwrap();
        let loads = cm.operator_loads(&lp, &q.default_stats()).unwrap();
        let total: f64 = loads.iter().sum();
        let cluster = Cluster::homogeneous(4, total * 0.7).unwrap();
        let (q, mut s) = build_hybrid(&cluster);

        // Drift a modelled dimension (op0's selectivity) far outside its
        // interval AND surge the rates so a node actually overloads.
        let mut wild = q.default_stats();
        wild.set(StatKey::Selectivity(rld_common::OperatorId::new(0)), 3.0);
        wild.set(
            StatKey::InputRate(q.driving_stream),
            q.streams[0].rate_estimate * 5.0,
        );
        assert!(!s.classifier.robustly_covered(&wild));
        let ctx = RuntimeContext {
            t_secs: 10.0,
            query: &q,
            cost_model: &cm,
            cluster: &cluster,
        };
        s.plan_for_batch(&wild);
        let robust_placement = s.physical().clone();
        let decisions = s.maybe_migrate(&ctx, &wild).unwrap();
        assert_eq!(s.migrations(), decisions.len() as u64);
        // Within the rebalance period no second round happens even if still
        // outside every region.
        let ctx = RuntimeContext {
            t_secs: 10.5,
            ..ctx
        };
        assert!(s.maybe_migrate(&ctx, &wild).unwrap().is_empty());

        // Once the statistics return inside the robust regions, the robust
        // placement is restored (paying one migration per displaced
        // operator), after which the strategy is exactly RLD again.
        let calm = q.default_stats();
        assert!(s.classifier.robustly_covered(&calm));
        let ctx = RuntimeContext {
            t_secs: 20.0,
            ..ctx
        };
        let restored = s.maybe_migrate(&ctx, &calm).unwrap();
        assert!(
            restored.len() <= decisions.len(),
            "at most one move back per displaced operator"
        );
        assert_eq!(*s.physical(), robust_placement);
        let ctx = RuntimeContext {
            t_secs: 30.0,
            ..ctx
        };
        assert!(s.maybe_migrate(&ctx, &calm).unwrap().is_empty());
    }
}
