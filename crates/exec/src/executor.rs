//! What one executor run reports, and the dataplane helpers its tick loop
//! shares: compiled operators, the `Lost` clear list, the observed snapshot
//! and the migration pause charge.

use crate::exec::CompiledOp;
use rld_common::{NodeId, OperatorId, Query, StatsSnapshot};
use rld_engine::{BackendTotals, DistributionStrategy, RunMetrics, RunTrace, RuntimeCore};
use rld_physical::{MigrationDecision, PhysicalPlan};

/// Fixed migration pause per operator move, in wall milliseconds.
const PAUSE_FIXED_MS: f64 = 1.0;
/// Additional migration pause per KiB of operator state, in wall ms.
const PAUSE_MS_PER_KB: f64 = 0.01;

/// The wall-millisecond pause one migration's state transfer costs —
/// charged as overhead, not slept.
pub(crate) fn migration_pause_ms(decision: &MigrationDecision) -> f64 {
    PAUSE_FIXED_MS + PAUSE_MS_PER_KB * (decision.state_bytes as f64 / 1024.0)
}

/// Everything one executor run measured, beyond the backend-neutral
/// [`RunMetrics`].
#[derive(Debug, Clone)]
pub struct ExecReport {
    /// The backend-neutral metrics (latencies in *wall* milliseconds; work
    /// counters in wall milliseconds of busy/pause time).
    pub metrics: RunMetrics,
    /// The policy-decision trace, when tracing was requested.
    pub trace: Option<RunTrace>,
    /// Wall-clock duration of the whole run.
    pub wall_secs: f64,
    /// Driving tuples fully processed per wall second.
    pub tuples_per_sec: f64,
    /// Tuple-weighted wall-latency percentiles as `(percentile, ms)` for
    /// p50 / p95 / p99.
    pub latency_percentiles_ms: Vec<(f64, f64)>,
    /// Total wall milliseconds of migration pause the run was charged:
    /// a fixed cost per move plus a cost per KiB of operator state, counted
    /// as overhead work and never slept.
    pub migration_pause_ms: f64,
    /// The statistics the dataplane actually observed (per-operator
    /// selectivities from real input/output counts, rates from the truth).
    pub observed_stats: StatsSnapshot,
    /// Per-stage wall-clock breakdown of the tick pipeline, with the
    /// per-shard and per-node split. Every run reports it; the `Option`
    /// stays for callers that read it through `as_ref`.
    pub stage_timings: Option<StageTimings>,
}

/// Wall-clock milliseconds the coordinator spent in each stage of its tick
/// pipeline, summed over the run. `generate`, `evaluate`, and `window` are
/// summed across shards (they run in parallel), so they can exceed
/// `wall_secs`; `route`, `dispatch`, and `fold` are coordinator-serial.
/// The per-shard vectors expose imbalance the stage totals hide; the
/// per-node vector is where the placement put the evaluation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StageTimings {
    /// Building driving `ColumnBatch` slices inside shards.
    pub generate_ms: f64,
    /// Routing decisions (strategy + core bookkeeping).
    pub route_ms: f64,
    /// Constructing shard tasks (hop compile, match plan, task setup).
    pub dispatch_ms: f64,
    /// Fused-chain evaluation inside shards: the sum of every hop, degrade
    /// stretches included.
    pub evaluate_ms: f64,
    /// Collecting shard replies and folding counters/snapshots.
    pub fold_ms: f64,
    /// Partitioned sliding-window maintenance inside shards.
    pub window_ms: f64,
    /// Per-shard busy milliseconds (generate + evaluate + window),
    /// indexed by shard.
    pub shard_busy_ms: Vec<f64>,
    /// Per-shard idle milliseconds (`wall - busy`), indexed by shard.
    pub shard_idle_ms: Vec<f64>,
    /// Largest per-round busy-time spread (max − min across shards) seen
    /// over the run, in milliseconds. Zero with a single shard.
    pub max_shard_skew_ms: f64,
    /// Per-node busy milliseconds, indexed by cluster node: the time of
    /// every hop the placement pinned to the node, over all shards. Sums to
    /// `evaluate_ms`; a node hosting no hop reads 0.
    pub node_busy_ms: Vec<f64>,
}

/// What the executor measured over one run, in wall-clock units.
pub(crate) struct Measured {
    pub wall_secs: f64,
    pub tuples_processed: u64,
    /// Wall ms of migration pause charged (modelled, not slept).
    pub pause_ms: f64,
    pub stage: StageTimings,
}

/// Finish the core and assemble the run's [`ExecReport`]. Utilization is
/// the nodes' hop time over the wall: Σ node busy / (wall × nodes). A
/// tick-synchronous executor queues nothing between ticks, so its backlog
/// is 0.
pub(crate) fn assemble_report(
    core: RuntimeCore,
    strategy: &dyn DistributionStrategy,
    observed_stats: StatsSnapshot,
    m: Measured,
) -> ExecReport {
    let nodes = m.stage.node_busy_ms.len();
    let node_busy_ms: f64 = m.stage.node_busy_ms.iter().sum();
    let mean_utilization = if m.wall_secs > 0.0 && nodes > 0 {
        (node_busy_ms / 1000.0 / (m.wall_secs * nodes as f64)).clamp(0.0, 1.0)
    } else {
        0.0
    };
    let percentiles = [50.0, 95.0, 99.0];
    let latency_percentiles_ms = percentiles
        .into_iter()
        .zip(core.latency_percentiles(&percentiles))
        .collect();
    let (metrics, trace) = core.finish(
        strategy,
        BackendTotals {
            tuples_processed: m.tuples_processed,
            query_work: m.stage.shard_busy_ms.iter().sum(),
            overhead_work: m.pause_ms + m.stage.route_ms,
            mean_utilization,
            max_backlog: 0.0,
        },
    );
    let tuples_per_sec = if m.wall_secs > 0.0 {
        metrics.tuples_processed as f64 / m.wall_secs
    } else {
        0.0
    };
    ExecReport {
        metrics,
        trace,
        wall_secs: m.wall_secs,
        tuples_per_sec,
        latency_percentiles_ms,
        migration_pause_ms: m.pause_ms,
        observed_stats,
        stage_timings: Some(m.stage),
    }
}

/// The query's operators in executable form. Lookup tables are seeded by
/// the experiment seed, so every strategy probes the same tables.
pub(crate) fn compile_ops(query: &Query, seed: u64) -> Vec<CompiledOp> {
    query
        .operators
        .iter()
        .map(|spec| CompiledOp::compile(query, spec, seed))
        .collect()
}

/// The operators a placement pins to `node` — whose window state a
/// Lost-semantics crash of that node clears.
pub(crate) fn operators_on<'a>(
    query: &Query,
    placement: &'a PhysicalPlan,
    node: NodeId,
) -> impl Iterator<Item = OperatorId> + 'a {
    query
        .operator_ids()
        .into_iter()
        .filter(move |op| placement.node_of(*op) == Some(node))
}

/// Snapshot of what the dataplane observed: the truth's rates with every
/// executed operator's selectivity replaced by its real output/input ratio.
pub(crate) fn observed_snapshot(ops: &[CompiledOp], truth: &StatsSnapshot) -> StatsSnapshot {
    let mut snap = truth.clone();
    for op in ops {
        op.fold_observed_into(&mut snap);
    }
    snap
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{ColumnarConfig, ColumnarExecutor};
    use rld_common::Result;
    use rld_engine::{RodStrategy, SimConfig, Simulator};
    use rld_physical::{Cluster, RodPlanner};
    use rld_query::{CostModel, JoinOrderOptimizer, Optimizer};
    use rld_workloads::{RatePattern, StockWorkload};

    pub(crate) fn capacity_for(query: &Query, slack: f64) -> f64 {
        let cm = CostModel::new(query.clone());
        let opt = JoinOrderOptimizer::new(query.clone());
        let lp = opt.optimize(&query.default_stats()).unwrap();
        let loads = cm.operator_loads(&lp, &query.default_stats()).unwrap();
        loads.iter().cloned().fold(0.0f64, f64::max) * slack
    }

    pub(crate) fn rod_strategy(query: &Query, cluster: &Cluster) -> RodStrategy {
        let plan = RodPlanner::new()
            .plan(query, &query.default_stats(), cluster, 1.0)
            .unwrap();
        RodStrategy::new(plan.logical, plan.physical)
    }

    /// A default (one-shard) executor for a run of `duration_secs`.
    fn executor(query: &Query, cluster: &Cluster, duration_secs: f64) -> Result<ColumnarExecutor> {
        let sim = SimConfig {
            duration_secs,
            ..SimConfig::default()
        };
        ColumnarExecutor::new(
            query.clone(),
            cluster.clone(),
            ColumnarConfig::from_sim(sim),
        )
    }

    #[test]
    fn executor_processes_real_tuples_end_to_end() {
        let q = Query::q1_stock_monitoring();
        let cluster = Cluster::homogeneous(4, capacity_for(&q, 3.0)).unwrap();
        let exec = executor(&q, &cluster, 30.0).unwrap();
        let workload = StockWorkload::new(20.0, RatePattern::Constant(1.0));
        let mut rod = rod_strategy(&q, &cluster);
        let report = exec.run_report(&workload, &mut rod, false).unwrap();
        let m = &report.metrics;
        assert!(m.tuples_arrived > 0);
        assert_eq!(
            m.tuples_processed, m.tuples_arrived,
            "healthy run drains everything: {m:?}"
        );
        assert_eq!(m.tuples_lost, 0);
        assert_eq!(m.max_backlog, 0.0, "tick-synchronous: no backlog");
        assert!(
            m.mean_utilization > 0.0 && m.mean_utilization <= 0.25,
            "{m:?}"
        );
        assert!(m.avg_tuple_processing_ms >= 0.0);
        assert!(report.wall_secs > 0.0);
        assert!(report.tuples_per_sec > 0.0);
        assert_eq!(report.latency_percentiles_ms.len(), 3);
        // The plan's first operator (the bullish-pattern lookup join) probed
        // its real table for every driving tuple: its observed selectivity
        // must sit near the workload's ground truth, not at a default.
        let op0 = rld_common::OperatorId::new(0);
        let s = report.observed_stats.selectivity(op0).unwrap();
        assert!(s > 0.1 && s < 1.5, "op0 observed selectivity {s}");
        // Q1's full result selectivity is ~1e-4 with cold windows, so the
        // produced count may legitimately be zero here; the filter-query test
        // below asserts nonzero production.
    }

    #[test]
    fn executor_produces_results_through_a_filter_query() {
        // One 0.5-selectivity filter: about half the arrivals must come out.
        let q = Query::builder("F1")
            .stream(
                "Driver",
                rld_common::Schema::from_pairs(&[
                    ("key", rld_common::DataType::Int),
                    ("ts", rld_common::DataType::Timestamp),
                ]),
                100.0,
            )
            .filter("keep_half", 1.0, 0.5)
            .build()
            .unwrap();
        let cluster = Cluster::homogeneous(2, capacity_for(&q, 3.0)).unwrap();
        let exec = executor(&q, &cluster, 20.0).unwrap();
        let workload = rld_workloads::SyntheticWorkload::steady(q.clone());
        let mut rod = rod_strategy(&q, &cluster);
        let m = exec.run(&workload, &mut rod).unwrap();
        assert!(m.tuples_arrived > 1000);
        assert_eq!(m.tuples_processed, m.tuples_arrived);
        let ratio = m.tuples_produced as f64 / m.tuples_arrived as f64;
        assert!(
            (ratio - 0.5).abs() < 0.05,
            "filter should keep ~half: {ratio} ({} of {})",
            m.tuples_produced,
            m.tuples_arrived
        );
    }

    #[test]
    fn executor_and_simulator_agree_on_policy_decisions() {
        let q = Query::q1_stock_monitoring();
        let cluster = Cluster::homogeneous(4, capacity_for(&q, 3.0)).unwrap();
        let sim_config = SimConfig {
            duration_secs: 45.0,
            ..SimConfig::default()
        };
        let workload = StockWorkload::default_config();

        let sim = Simulator::new(q.clone(), cluster.clone(), sim_config).unwrap();
        let mut rod_sim = rod_strategy(&q, &cluster);
        let (sim_metrics, sim_trace) = sim.run_traced(&workload, &mut rod_sim).unwrap();

        let exec = executor(&q, &cluster, 45.0).unwrap();
        let mut rod_exec = rod_strategy(&q, &cluster);
        let (exec_metrics, exec_trace) = exec.run_traced(&workload, &mut rod_exec).unwrap();

        assert_eq!(sim_trace, exec_trace, "identical routing per batch");
        assert_eq!(sim_metrics.tuples_arrived, exec_metrics.tuples_arrived);
        assert_eq!(sim_metrics.batches, exec_metrics.batches);
        assert_eq!(sim_metrics.migrations, exec_metrics.migrations);
        assert_eq!(sim_metrics.plan_switches, exec_metrics.plan_switches);
    }

    #[test]
    fn config_validation() {
        let q = Query::q1_stock_monitoring();
        let cluster = Cluster::homogeneous(2, 100.0).unwrap();
        assert!(executor(&q, &cluster, 10.0).is_ok());
        assert!(executor(&q, &cluster, 0.0).is_err());
    }
}
