//! The building blocks of a tick.
//!
//! *When* each of these runs is not decided here: the policy tick — fault
//! application, monitoring, strategy hooks, arrivals, routing, the down-node
//! drop — is written once, in [`crate::runtime::RuntimeCore`], which owns the
//! first two blocks; the simulator owns the work accounting.
//!
//! 1. `ArrivalProcess` — Poisson tuple arrivals for the driving stream.
//! 2. `PlanRouter` — asks the strategy for the batch's logical plan and
//!    derives the per-node work vectors, **cached** across ticks: the vectors
//!    are recomputed only when the routed plan, the placement epoch, or the
//!    ground-truth statistics actually change. For the paper's
//!    piecewise-constant workloads this turns the per-tick cost-model work
//!    into a handful of recomputations per regime switch.
//! 3. The simulator's work accounting (`batch_latency_secs`,
//!    `charge_batch`, `charge_migrations`) — latency measurement and
//!    node work charging against the decision the core returned.
//! 4. `drain_nodes` — every simulated node processes up to one tick's
//!    capacity.

use crate::node::SimNode;
use crate::simulator::SimConfig;
use crate::strategy::DistributionStrategy;
use rld_common::rng::{derive_seed, rng_from_seed, sample_poisson, SeededRng};
use rld_common::{NodeId, Result, RldError, StatsSnapshot};
use rld_physical::{MigrationDecision, PhysicalPlan};
use rld_query::{CostModel, LogicalPlan};
use std::sync::Arc;

/// Stage 1: the Poisson arrival process of the driving stream. Seeded per
/// (simulation seed, strategy name) so every strategy sees its own — but
/// reproducible — arrival sequence.
pub(crate) struct ArrivalProcess {
    rng: SeededRng,
}

impl ArrivalProcess {
    /// Create the arrival process for one run.
    pub fn new(seed: u64, strategy_name: &str) -> Self {
        Self {
            rng: rng_from_seed(derive_seed(seed, strategy_name)),
        }
    }

    /// Number of driving tuples arriving in a tick of `dt_secs` at `rate`
    /// tuples/second (Poisson thinning of the true rate).
    pub(crate) fn sample_batch(&mut self, rate: f64, dt_secs: f64) -> u64 {
        sample_poisson(&mut self.rng, (rate * dt_secs).max(0.0))
    }
}

/// Everything the work-accounting stage needs to know about a routed batch,
/// normalized per driving tuple so one derivation serves every batch size.
#[derive(Debug, Clone, Default)]
// rld-allow(V1): the type of the public field `Routed::work`
pub struct RoutedBatch {
    /// Per-node query work for ONE driving tuple of the routed plan at the
    /// current ground-truth statistics.
    pub per_tuple_node_work: Vec<f64>,
    /// Distinct nodes the plan's pipeline touches, in plan order (the first
    /// entry hosts the plan's first operator; never empty — a routed plan
    /// orders every operator of a non-empty query).
    pub pipeline_nodes: Vec<NodeId>,
    /// Result tuples produced per driving tuple at the current truth.
    pub output_per_input: f64,
}

impl RoutedBatch {
    /// Total query work for ONE driving tuple across all nodes.
    pub(crate) fn per_tuple_total_work(&self) -> f64 {
        self.per_tuple_node_work.iter().sum()
    }
}

/// One routed batch: the logical plan the strategy chose and the work
/// vectors derived for it.
#[derive(Debug, Clone, Copy)]
// rld-allow(V1): the type of the public field `TickDecision::batch`
pub struct Routed<'a> {
    /// The logical plan — a shared handle, so a backend can execute it
    /// without cloning the plan.
    pub plan: &'a Arc<LogicalPlan>,
    /// The derived per-node work vectors and pipeline order.
    pub work: &'a RoutedBatch,
}

/// Stage 2: per-batch plan routing with a derivation cache.
///
/// The strategy is consulted every batch (so plan-switch counting keeps its
/// per-batch semantics), but the expensive derived state — cost-model work
/// vectors and the pipeline's node order — is recomputed only when the
/// routed logical plan, the placement, or the ground-truth statistics
/// change. The placement is compared structurally, so correctness does not
/// depend on strategies signalling their own migrations.
pub(crate) struct PlanRouter {
    cached_logical: Option<Arc<LogicalPlan>>,
    cached_physical: Option<PhysicalPlan>,
    cached_truth: Option<StatsSnapshot>,
    derived: RoutedBatch,
    recomputes: u64,
}

impl Default for PlanRouter {
    fn default() -> Self {
        Self::new()
    }
}

impl PlanRouter {
    /// Create an empty router (first call always derives).
    pub fn new() -> Self {
        Self {
            cached_logical: None,
            cached_physical: None,
            cached_truth: None,
            derived: RoutedBatch::default(),
            recomputes: 0,
        }
    }

    /// How many times the derived vectors had to be rebuilt. For a run of
    /// `B` batches over piecewise-constant statistics this stays far below
    /// `B` — the hot-path win the cache exists for.
    pub(crate) fn recomputes(&self) -> u64 {
        self.recomputes
    }

    /// Route one batch: ask the strategy for the logical plan and return the
    /// (possibly cached) derived work vectors.
    pub(crate) fn route(
        &mut self,
        strategy: &mut dyn DistributionStrategy,
        cost_model: &CostModel,
        monitored: &StatsSnapshot,
        truth: &StatsSnapshot,
        num_nodes: usize,
    ) -> Result<Routed<'_>> {
        let logical = strategy.plan_for_batch(monitored).ok_or_else(|| {
            RldError::Runtime("strategy has no logical plan for the batch".into())
        })?;
        // Pointer equality settles the common case (the classifier hands out
        // the same Arc for the same route) without comparing plan contents.
        let same_logical = match &self.cached_logical {
            Some(cached) => Arc::ptr_eq(cached, &logical) || **cached == *logical,
            None => false,
        };
        let hit = same_logical
            && self.cached_physical.as_ref() == Some(strategy.physical())
            && self.cached_truth.as_ref() == Some(truth);
        if !hit {
            self.derived =
                derive_routed_batch(&logical, strategy.physical(), cost_model, truth, num_nodes)?;
            self.cached_physical = Some(strategy.physical().clone());
            self.cached_truth = Some(truth.clone());
            self.recomputes += 1;
        }
        Ok(Routed {
            plan: self.cached_logical.insert(logical),
            work: &self.derived,
        })
    }
}

/// Derive the per-node work vectors and pipeline order for one (plan,
/// placement, truth) combination. An operator the placement does not cover,
/// or one placed on a node the cluster does not have, is a runtime error —
/// never silently charged elsewhere.
fn derive_routed_batch(
    logical: &LogicalPlan,
    physical: &PhysicalPlan,
    cost_model: &CostModel,
    truth: &StatsSnapshot,
    num_nodes: usize,
) -> Result<RoutedBatch> {
    let work_by_op = cost_model.per_driving_tuple_work_by_operator(logical, truth)?;
    let mut per_tuple_node_work = vec![0.0f64; num_nodes];
    let mut pipeline_nodes = Vec::new();
    let mut visited = vec![false; num_nodes];
    for op in logical.ordering() {
        let node = physical.node_of(*op).ok_or_else(|| {
            RldError::Runtime(format!("physical plan does not place {op} on any node"))
        })?;
        if node.index() >= num_nodes {
            return Err(RldError::Runtime(format!(
                "physical plan places {op} on unknown node {node}"
            )));
        }
        per_tuple_node_work[node.index()] += work_by_op[op.index()];
        if !visited[node.index()] {
            visited[node.index()] = true;
            pipeline_nodes.push(node);
        }
    }
    Ok(RoutedBatch {
        per_tuple_node_work,
        pipeline_nodes,
        output_per_input: cost_model.output_per_input(truth),
    })
}

/// Stage 3a: the per-tuple processing time a batch of `n_tuples` experiences
/// right now — queueing delay plus service time on every node the pipeline
/// touches, in plan order, measured before the batch's own work is enqueued.
/// A pipeline touching a down node would have infinite latency; the runtime
/// core drops such a batch before it gets here.
pub(crate) fn batch_latency_secs(nodes: &[SimNode], routed: &RoutedBatch, n_tuples: u64) -> f64 {
    routed
        .pipeline_nodes
        .iter()
        .map(|node| {
            let n = &nodes[node.index()];
            n.queueing_delay_secs()
                + n.service_time_secs(routed.per_tuple_node_work[node.index()] * n_tuples as f64)
        })
        .sum()
}

/// Stage 3b: charge a batch's classification overhead (to the node hosting
/// the plan's first operator) and its per-node query work. `tracked_tuples`
/// of the batch's driving tuples are attributed to the nodes in proportion
/// to the work each does, so a `Lost`-semantic crash can account for the
/// tuples queued on the dead node; the simulator only tracks the tuples it
/// counted as processed, keeping a later crash retraction exact.
pub(crate) fn charge_batch(
    nodes: &mut [SimNode],
    routed: &RoutedBatch,
    n_tuples: u64,
    overhead_fraction: f64,
    tracked_tuples: u64,
) {
    let scale = n_tuples as f64;
    if overhead_fraction > 0.0 {
        if let Some(first) = routed.pipeline_nodes.first() {
            nodes[first.index()]
                .enqueue_overhead(routed.per_tuple_total_work() * scale * overhead_fraction);
        }
    }
    let total_work = routed.per_tuple_total_work();
    for (node, work) in nodes.iter_mut().zip(&routed.per_tuple_node_work) {
        let tuples = if total_work > 0.0 {
            tracked_tuples as f64 * (*work / total_work)
        } else {
            0.0
        };
        node.enqueue_work_with_tuples(*work * scale, tuples);
    }
}

/// Stage 3c: charge migration decisions as overhead work, split evenly
/// between the source (suspend + serialize) and target (deserialize +
/// resume) nodes. When the source node is down (a failover migration off a
/// crashed machine) its half is charged to the target instead — the state
/// is rebuilt from checkpoints/replay *on the target*, and work queued on a
/// dead node would otherwise freeze until recovery. The decisions are the
/// ones the runtime core returned, already validated against the cluster.
pub(crate) fn charge_migrations(
    nodes: &mut [SimNode],
    decisions: &[MigrationDecision],
    config: &SimConfig,
) {
    for d in decisions {
        let work = config.migration_fixed_cost
            + config.migration_cost_per_kb * (d.state_bytes as f64 / 1024.0);
        if nodes[d.from.index()].is_up() {
            nodes[d.from.index()].enqueue_overhead(work / 2.0);
            nodes[d.to.index()].enqueue_overhead(work / 2.0);
        } else {
            nodes[d.to.index()].enqueue_overhead(work);
        }
    }
}

/// Outcome of draining every node for one tick.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct DrainOutcome {
    /// Total work processed this tick across all nodes.
    pub work_done: f64,
    /// The largest backlog left on any node after the tick.
    pub max_backlog: f64,
}

/// Stage 4: every node processes up to one tick's worth of capacity.
pub(crate) fn drain_nodes(nodes: &mut [SimNode], dt_secs: f64) -> DrainOutcome {
    let mut out = DrainOutcome::default();
    for node in nodes.iter_mut() {
        out.work_done += node.tick(dt_secs);
        out.max_backlog = out.max_backlog.max(node.backlog);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategies::RodStrategy;
    use rld_common::Query;
    use rld_physical::{Cluster, RodPlanner};

    fn rod_fixture() -> (Query, CostModel, RodStrategy) {
        let q = Query::q1_stock_monitoring();
        let cluster = Cluster::homogeneous(3, 1e9).unwrap();
        let plan = RodPlanner::new()
            .plan(&q, &q.default_stats(), &cluster, 1.0)
            .unwrap();
        let cm = CostModel::new(q.clone());
        (q, cm, RodStrategy::new(plan.logical, plan.physical))
    }

    #[test]
    fn arrival_process_is_deterministic_per_seed_and_name() {
        let mut a = ArrivalProcess::new(42, "RLD");
        let mut b = ArrivalProcess::new(42, "RLD");
        let mut c = ArrivalProcess::new(42, "ROD");
        let sa: Vec<u64> = (0..50).map(|_| a.sample_batch(30.0, 1.0)).collect();
        let sb: Vec<u64> = (0..50).map(|_| b.sample_batch(30.0, 1.0)).collect();
        let sc: Vec<u64> = (0..50).map(|_| c.sample_batch(30.0, 1.0)).collect();
        assert_eq!(sa, sb);
        assert_ne!(sa, sc, "different strategies get independent streams");
    }

    #[test]
    fn router_caches_until_truth_or_plan_changes() {
        let (q, cm, mut rod) = rod_fixture();
        let mut router = PlanRouter::new();
        let truth = q.default_stats();
        let monitored = q.default_stats();
        for _ in 0..10 {
            router.route(&mut rod, &cm, &monitored, &truth, 3).unwrap();
        }
        assert_eq!(router.recomputes(), 1, "constant truth must derive once");

        let mut shifted = truth.clone();
        shifted.set(
            rld_common::StatKey::Selectivity(rld_common::OperatorId::new(0)),
            0.9,
        );
        router
            .route(&mut rod, &cm, &monitored, &shifted, 3)
            .unwrap();
        assert_eq!(router.recomputes(), 2, "new truth must re-derive");
        router
            .route(&mut rod, &cm, &monitored, &shifted, 3)
            .unwrap();
        assert_eq!(router.recomputes(), 2);
    }

    #[test]
    fn derived_vectors_match_the_unbatched_computation() {
        let (q, cm, mut rod) = rod_fixture();
        let mut router = PlanRouter::new();
        let truth = q.default_stats();
        let routed = router
            .route(&mut rod, &cm, &truth, &truth, 3)
            .unwrap()
            .work
            .clone();
        // Re-derive by hand against the strategy's plan.
        let logical = rod.plan_for_batch(&truth).unwrap();
        let work_by_op = cm
            .per_driving_tuple_work_by_operator(&logical, &truth)
            .unwrap();
        let physical = rod.physical().clone();
        let mut expected = vec![0.0f64; 3];
        for op in logical.ordering() {
            expected[physical.node_of(*op).unwrap().index()] += work_by_op[op.index()];
        }
        for (a, b) in routed.per_tuple_node_work.iter().zip(&expected) {
            assert!((a - b).abs() < 1e-12);
        }
        assert_eq!(
            routed.pipeline_nodes.first().copied(),
            physical.node_of(logical.ordering()[0])
        );
        assert!((routed.output_per_input - cm.output_per_input(&truth)).abs() < 1e-12);
    }

    #[test]
    fn latency_and_charging_are_consistent() {
        let routed = RoutedBatch {
            per_tuple_node_work: vec![2.0, 0.0, 3.0],
            pipeline_nodes: vec![NodeId::new(0), NodeId::new(2)],
            output_per_input: 1.0,
        };
        let mut nodes: Vec<SimNode> = (0..3)
            .map(|i| SimNode::new(NodeId::new(i), 100.0))
            .collect();
        nodes[0].enqueue_work(50.0); // pre-existing backlog: 0.5 s queueing
        let latency = batch_latency_secs(&nodes, &routed, 10);
        // node0: 0.5 queueing + 20/100 service; node2: 0 + 30/100.
        assert!((latency - (0.5 + 0.2 + 0.3)).abs() < 1e-12);

        charge_batch(&mut nodes, &routed, 10, 0.02, 10);
        // The tracked tuples land on the working nodes in work proportion.
        assert!((nodes[0].inflight_tuples() - 4.0).abs() < 1e-9);
        assert!((nodes[2].inflight_tuples() - 6.0).abs() < 1e-9);
        // Overhead charged to node 0 (first pipeline node): 50 * 0.02 = 1.0.
        assert!((nodes[0].backlog - (50.0 + 20.0 + 1.0)).abs() < 1e-9);
        assert!((nodes[2].backlog - 30.0).abs() < 1e-9);

        let out = drain_nodes(&mut nodes, 1.0);
        assert!((out.work_done - (71.0f64.min(100.0) + 30.0)).abs() < 1e-9);
        assert!(out.max_backlog >= 0.0);
    }

    // The bounds check on a decision's node indices is the runtime core's
    // (`runtime::tests::a_migration_naming_a_missing_node_is_a_runtime_error`):
    // decisions reach `charge_migrations` validated.
    #[test]
    fn migration_charging_validates_node_indices() {
        let (q, _, _) = rod_fixture();
        let mut nodes: Vec<SimNode> = (0..2)
            .map(|i| SimNode::new(NodeId::new(i), 100.0))
            .collect();
        let config = SimConfig::default();
        let good = MigrationDecision {
            operator: rld_common::OperatorId::new(0),
            from: NodeId::new(0),
            to: NodeId::new(1),
            state_bytes: q
                .operator(rld_common::OperatorId::new(0))
                .unwrap()
                .state_bytes,
        };
        charge_migrations(&mut nodes, &[good], &config);
        assert!(nodes[0].backlog > 0.0 && nodes[0].backlog == nodes[1].backlog);

        // A failover off a dead source lands the whole cost on the target.
        let split = nodes[1].backlog;
        nodes[0].crash(crate::faults::RecoverySemantic::Replay);
        charge_migrations(&mut nodes, &[good], &config);
        assert_eq!(nodes[0].backlog, split);
        assert_eq!(nodes[1].backlog, 3.0 * split);
    }
}
