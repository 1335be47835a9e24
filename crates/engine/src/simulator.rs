//! The discrete-time simulation loop.

use crate::faults::FaultPlan;
use crate::metrics::RunMetrics;
use crate::node::SimNode;
use crate::runtime::{BackendTotals, RunTrace, RuntimeCore};
use crate::stages::{batch_latency_secs, charge_batch, charge_migrations, drain_nodes};
use crate::strategy::DistributionStrategy;
use rld_common::{Query, Result, RldError, StatsSnapshot};
use rld_physical::Cluster;
use rld_workloads::Workload;

/// Simulation parameters. Defaults follow Table 2 where applicable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Length of one simulation tick in seconds.
    pub tick_secs: f64,
    /// Total simulated duration in seconds (the paper runs 30–60 minutes).
    pub duration_secs: f64,
    /// Statistics-monitor sampling period in seconds.
    pub monitor_period_secs: f64,
    /// Statistics-monitor exponential smoothing factor in `(0, 1]`.
    pub monitor_alpha: f64,
    /// Seed for arrival-process randomness.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            tick_secs: 1.0,
            duration_secs: 300.0,
            monitor_period_secs: 5.0,
            monitor_alpha: 0.6,
            seed: 0xD5_CAFE,
        }
    }
}

impl SimConfig {
    /// Validate the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.tick_secs <= 0.0 || !self.tick_secs.is_finite() {
            return Err(RldError::Runtime("tick_secs must be positive".into()));
        }
        if self.duration_secs <= 0.0 || !self.duration_secs.is_finite() {
            return Err(RldError::Runtime("duration_secs must be positive".into()));
        }
        // Written so that NaN fails: every comparison with NaN is false.
        if !(self.monitor_period_secs > 0.0 && self.monitor_period_secs.is_finite()) {
            return Err(RldError::Runtime(
                "monitor_period_secs must be positive and finite".into(),
            ));
        }
        if !(self.monitor_alpha > 0.0 && self.monitor_alpha <= 1.0) {
            return Err(RldError::Runtime("monitor_alpha must be in (0, 1]".into()));
        }
        Ok(())
    }
}

/// The discrete-time DSPS simulator.
///
/// What happens in a tick, and in which order, is the
/// [`RuntimeCore`]'s: the simulator calls its three phases back to back and
/// does only what is its own in between — crash / degrade its `SimNode`s
/// with the fault events the core applied, charge the decided migrations and
/// the routed batch as node work ([`crate::stages`]), and drain the nodes.
/// It knows nothing about the individual deployment policies and names none
/// of the [`DistributionStrategy`] hooks.
pub struct Simulator {
    query: Query,
    cluster: Cluster,
    config: SimConfig,
    faults: FaultPlan,
}

impl Simulator {
    /// Create a simulator for a query on a cluster (fault-free).
    pub fn new(query: Query, cluster: Cluster, config: SimConfig) -> Result<Self> {
        config.validate()?;
        query.validate()?;
        Ok(Self {
            query,
            cluster,
            config,
            faults: FaultPlan::none(),
        })
    }

    /// Attach a fault plan; its events are applied at tick granularity. The
    /// plan must only name nodes the cluster has.
    pub fn with_faults(mut self, faults: FaultPlan) -> Result<Self> {
        faults.validate_for(self.cluster.num_nodes())?;
        self.faults = faults;
        Ok(self)
    }

    /// Run one distribution strategy against a workload and collect metrics.
    pub fn run(
        &self,
        workload: &dyn Workload,
        strategy: &mut dyn DistributionStrategy,
    ) -> Result<RunMetrics> {
        self.run_inner(workload, strategy, false)
            .map(|(metrics, _)| metrics)
    }

    /// Like [`Self::run`], additionally recording every routing and
    /// migration decision — the cross-backend agreement oracle (the
    /// executor's trace must match this one, faulted or not).
    pub fn run_traced(
        &self,
        workload: &dyn Workload,
        strategy: &mut dyn DistributionStrategy,
    ) -> Result<(RunMetrics, RunTrace)> {
        let (metrics, trace) = self.run_inner(workload, strategy, true)?;
        Ok((metrics, RunTrace::require(trace)?))
    }

    fn run_inner(
        &self,
        workload: &dyn Workload,
        strategy: &mut dyn DistributionStrategy,
        traced: bool,
    ) -> Result<(RunMetrics, Option<RunTrace>)> {
        let mut nodes: Vec<SimNode> = self
            .cluster
            .node_ids()
            .into_iter()
            .map(|id| SimNode::new(id, self.cluster.capacity(id)))
            .collect();
        let mut core = RuntimeCore::new(
            self.query.clone(),
            self.cluster.clone(),
            self.config,
            self.faults.clone(),
            strategy.name(),
        )?;
        if traced {
            core = core.with_trace();
        }

        let mut tuples_processed: u64 = 0;
        // Result tuples are produced at fractional rates (the product of all
        // selectivities can be well below one per driving tuple), so carry the
        // fractional remainder across batches instead of rounding it away.
        let mut produced_carry = 0.0f64;
        let mut total_work_capacity_used = 0.0f64;
        let mut max_backlog = 0.0f64;
        // In-flight tuples a Lost-semantic crash discarded. Those tuples were
        // optimistically counted into `tuples_processed` when their batch was
        // accepted, so the total is retracted from the processed count at the
        // end — a tuple is either processed or lost, never both.
        let mut crash_lost_inflight = 0.0f64;

        let dt = self.config.tick_secs;
        let mut truth = StatsSnapshot::new();
        while core.in_horizon() {
            let t = core.t_secs();
            for event in core.advance_faults() {
                let outcome =
                    nodes[event.node.index()].apply_fault(event.kind, self.faults.recovery);
                crash_lost_inflight += outcome.tuples_lost;
                core.note_lost(outcome.tuples_lost);
            }

            workload.stats_into(t, &mut truth);
            let decision = core.decide(&mut *strategy, &truth)?;
            charge_migrations(&mut nodes, &decision.migrations);
            let n_tuples = decision.arrivals;
            // Work accounting: measure latency against the pre-batch
            // backlogs, then charge overhead and query work. Only the tuples
            // counted as processed below are tracked in-flight on the nodes,
            // so a `Lost` crash retracts exactly what was counted.
            let accepted = decision.batch.map(|routed| {
                let latency_secs = batch_latency_secs(&nodes, routed.work, n_tuples);
                let produced_exact =
                    n_tuples as f64 * routed.work.output_per_input + produced_carry;
                let completion = t + latency_secs;
                let counted = completion <= self.config.duration_secs;
                charge_batch(
                    &mut nodes,
                    routed.work,
                    n_tuples,
                    strategy.classification_overhead(),
                    if counted { n_tuples } else { 0 },
                );
                let produced = produced_exact.floor().max(0.0) as u64;
                produced_carry = produced_exact - produced as f64;
                if counted {
                    tuples_processed += n_tuples;
                }
                (latency_secs, produced, completion)
            });
            // The first accepted batch after a crash ends every pending
            // crash-recovery window: recovery is measured to the batch's
            // end-to-end completion time, so post-crash backlog on the
            // surviving nodes still counts.
            if let Some((latency_secs, produced, completion)) = accepted {
                core.record_batch(n_tuples, latency_secs * 1000.0, produced, completion);
            }

            // Drain every node for this tick at its effective capacity.
            let drained = drain_nodes(&mut nodes, dt);
            total_work_capacity_used += drained.work_done;
            max_backlog = max_backlog.max(drained.max_backlog);
            core.end_tick();
        }

        // Retract the optimistic processed count for tuples a Lost crash
        // discarded (see `crash_lost_inflight` above).
        tuples_processed = tuples_processed.saturating_sub(crash_lost_inflight.round() as u64);

        let query_work: f64 = nodes.iter().map(|n| n.work_done).sum();
        let overhead_work: f64 = nodes.iter().map(|n| n.overhead_done).sum();
        let capacity_total = core.capacity_total();
        Ok(core.finish(
            &*strategy,
            BackendTotals {
                tuples_processed,
                query_work,
                overhead_work,
                mean_utilization: if capacity_total > 0.0 {
                    (total_work_capacity_used / capacity_total).clamp(0.0, 1.0)
                } else {
                    0.0
                },
                max_backlog,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategies::RodStrategy;
    use rld_common::NodeId;
    use rld_physical::{PhysicalPlan, RodPlanner};
    use rld_query::{CostModel, JoinOrderOptimizer, LogicalPlan, Optimizer};
    use rld_workloads::{RatePattern, StockWorkload};

    /// Per-node capacity leaving `slack`× headroom over the heaviest single
    /// operator of the estimate-point plan.
    fn capacity_for(query: &Query, slack: f64) -> f64 {
        let cm = CostModel::new(query.clone());
        let opt = JoinOrderOptimizer::new(query.clone());
        let lp = opt.optimize(&query.default_stats()).unwrap();
        let loads = cm.operator_loads(&lp, &query.default_stats()).unwrap();
        loads.iter().cloned().fold(0.0f64, f64::max) * slack
    }

    fn rod_strategy(query: &Query, cluster: &Cluster) -> RodStrategy {
        let plan = RodPlanner::new()
            .plan(query, &query.default_stats(), cluster, 1.0)
            .unwrap();
        RodStrategy::new(plan.logical, plan.physical)
    }

    #[test]
    fn simulator_drives_a_strategy_end_to_end() {
        let q = Query::q1_stock_monitoring();
        let cluster = Cluster::homogeneous(4, capacity_for(&q, 3.0)).unwrap();
        let config = SimConfig {
            duration_secs: 60.0,
            ..SimConfig::default()
        };
        let sim = Simulator::new(q.clone(), cluster.clone(), config).unwrap();
        let workload = StockWorkload::new(20.0, RatePattern::Constant(1.0));
        let mut rod = rod_strategy(&q, &cluster);
        let metrics = sim.run(&workload, &mut rod).unwrap();
        assert!(metrics.tuples_arrived > 0);
        assert!(metrics.avg_tuple_processing_ms >= 0.0);
        assert!(!metrics.produced_timeline.is_empty());
        assert!(metrics.mean_utilization >= 0.0 && metrics.mean_utilization <= 1.0);
        assert!(metrics.batches > 0);
        assert!(metrics.work_vector_recomputes <= metrics.batches);
    }

    #[test]
    fn overload_increases_latency() {
        let q = Query::q1_stock_monitoring();
        let cluster = Cluster::homogeneous(3, capacity_for(&q, 1.6)).unwrap();
        let config = SimConfig {
            duration_secs: 120.0,
            ..SimConfig::default()
        };
        let sim = Simulator::new(q.clone(), cluster.clone(), config).unwrap();
        let calm = StockWorkload::new(30.0, RatePattern::Constant(0.5));
        let storm = StockWorkload::new(30.0, RatePattern::Constant(4.0));
        let mut rod_a = rod_strategy(&q, &cluster);
        let mut rod_b = rod_strategy(&q, &cluster);
        let low = sim.run(&calm, &mut rod_a).unwrap();
        let high = sim.run(&storm, &mut rod_b).unwrap();
        assert!(
            high.avg_tuple_processing_ms > low.avg_tuple_processing_ms,
            "overload should raise latency: {} vs {}",
            high.avg_tuple_processing_ms,
            low.avg_tuple_processing_ms
        );
    }

    #[test]
    fn produced_timeline_is_monotone() {
        let q = Query::q1_stock_monitoring();
        let cluster = Cluster::homogeneous(4, capacity_for(&q, 3.0)).unwrap();
        let config = SimConfig {
            duration_secs: 180.0,
            ..SimConfig::default()
        };
        let sim = Simulator::new(q.clone(), cluster.clone(), config).unwrap();
        let workload = StockWorkload::default_config();
        let mut rod = rod_strategy(&q, &cluster);
        let metrics = sim.run(&workload, &mut rod).unwrap();
        let counts: Vec<u64> = metrics.produced_timeline.iter().map(|(_, c)| *c).collect();
        assert!(counts.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*counts.last().unwrap(), metrics.tuples_produced);
    }

    #[test]
    fn work_vectors_are_cached_across_ticks() {
        // The stock workload flips regimes every `period` seconds; between
        // flips the ground truth is constant, so the router must derive the
        // work vectors only a handful of times over hundreds of batches.
        let q = Query::q1_stock_monitoring();
        let cluster = Cluster::homogeneous(4, capacity_for(&q, 3.0)).unwrap();
        let config = SimConfig {
            duration_secs: 600.0,
            ..SimConfig::default()
        };
        let sim = Simulator::new(q.clone(), cluster.clone(), config).unwrap();
        let workload = StockWorkload::new(60.0, RatePattern::Constant(1.0));
        let mut rod = rod_strategy(&q, &cluster);
        let metrics = sim.run(&workload, &mut rod).unwrap();
        assert!(
            metrics.batches > 100,
            "need a long run: {}",
            metrics.batches
        );
        // 600 s at one regime flip per 60 s: at most one recompute per flip
        // (plus the first derivation), far below one per batch.
        assert!(
            metrics.work_vector_recomputes <= 12,
            "expected ≤ 12 recomputes for 10 regime stretches, got {} over {} batches",
            metrics.work_vector_recomputes,
            metrics.batches
        );
    }

    #[test]
    fn missing_placement_is_a_runtime_error() {
        // A strategy whose placement covers a different (larger) node count
        // than the simulated cluster: routing must fail loudly, not silently
        // charge node 0.
        struct Misplaced {
            logical: LogicalPlan,
            physical: PhysicalPlan,
        }
        impl DistributionStrategy for Misplaced {
            fn name(&self) -> &str {
                "BAD"
            }
            fn physical(&self) -> &PhysicalPlan {
                &self.physical
            }
            fn plans(&self) -> &[LogicalPlan] {
                std::slice::from_ref(&self.logical)
            }
            fn plan_for_batch(&mut self, _m: &StatsSnapshot) -> Option<usize> {
                Some(0)
            }
        }
        let q = Query::q1_stock_monitoring();
        // All operators on node 5 of a 6-node plan, but simulate 2 nodes.
        let mapping: Vec<NodeId> = (0..q.num_operators()).map(|_| NodeId::new(5)).collect();
        let physical = PhysicalPlan::from_mapping(&q, &mapping, 6).unwrap();
        let mut bad = Misplaced {
            logical: LogicalPlan::identity(&q),
            physical,
        };
        let cluster = Cluster::homogeneous(2, 1e9).unwrap();
        let sim = Simulator::new(q, cluster, SimConfig::default()).unwrap();
        let workload = StockWorkload::default_config();
        let err = sim.run(&workload, &mut bad).unwrap_err();
        assert!(matches!(err, RldError::Runtime(_)), "{err:?}");
    }

    #[test]
    fn config_validation() {
        assert!(SimConfig::default().validate().is_ok());
        let bad = SimConfig {
            tick_secs: 0.0,
            ..SimConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = SimConfig {
            monitor_alpha: 2.0,
            ..SimConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = SimConfig {
            duration_secs: -1.0,
            ..SimConfig::default()
        };
        assert!(bad.validate().is_err());
        let q = Query::q1_stock_monitoring();
        let cluster = Cluster::homogeneous(2, 100.0).unwrap();
        assert!(Simulator::new(q, cluster, bad).is_err());
    }

    #[test]
    fn a_non_finite_or_non_positive_monitor_period_is_an_error_not_a_panic() {
        let q = Query::q1_stock_monitoring();
        let cluster = Cluster::homogeneous(2, 100.0).unwrap();
        for period in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -5.0] {
            let bad = SimConfig {
                monitor_period_secs: period,
                ..SimConfig::default()
            };
            assert!(
                matches!(bad.validate(), Err(RldError::Runtime(_))),
                "period {period}"
            );
            // Both constructors validate before the monitor's assert can
            // fire.
            assert!(Simulator::new(q.clone(), cluster.clone(), bad).is_err());
            let core = RuntimeCore::new(q.clone(), cluster.clone(), bad, FaultPlan::none(), "ROD");
            assert!(matches!(core, Err(RldError::Runtime(_))), "period {period}");
        }
    }

    #[test]
    fn node_crash_loses_tuples_for_a_static_strategy() {
        use crate::faults::{FaultPlan, RecoverySemantic};
        let q = Query::q1_stock_monitoring();
        let cluster = Cluster::homogeneous(4, capacity_for(&q, 3.0)).unwrap();
        let config = SimConfig {
            duration_secs: 180.0,
            ..SimConfig::default()
        };
        let workload = StockWorkload::new(20.0, RatePattern::Constant(1.0));

        let baseline_sim = Simulator::new(q.clone(), cluster.clone(), config).unwrap();
        let mut rod = rod_strategy(&q, &cluster);
        let baseline = baseline_sim.run(&workload, &mut rod).unwrap();
        assert_eq!(baseline.fault_events, 0);
        assert_eq!(baseline.tuples_lost, 0);
        assert_eq!(baseline.reroutes, 0);
        assert_eq!(baseline.downtime_node_secs, 0.0);
        assert!((baseline.capacity_available_fraction - 1.0).abs() < 1e-12);

        // Crash a node ROD's placement uses for 60 s.
        let victim = (0..4)
            .map(rld_common::NodeId::new)
            .find(|n| !rod.physical().operators_on(*n).is_empty())
            .unwrap();
        let faulted_sim = Simulator::new(q.clone(), cluster.clone(), config)
            .unwrap()
            .with_faults(
                FaultPlan::node_crash(victim, 60.0, 120.0, RecoverySemantic::Lost).unwrap(),
            )
            .unwrap();
        let mut rod2 = rod_strategy(&q, &cluster);
        let faulted = faulted_sim.run(&workload, &mut rod2).unwrap();
        assert_eq!(faulted.fault_events, 2);
        assert!(faulted.tuples_lost > 0, "{faulted:?}");
        assert!(faulted.reroutes > 0);
        assert!((faulted.downtime_node_secs - 60.0).abs() < 1.5);
        assert!(faulted.capacity_available_fraction < 1.0);
        assert!(faulted.mean_utilization <= faulted.capacity_available_fraction + 1e-9);
        // ROD only completes a batch again once the node is back: recovery
        // time is on the order of the 60 s outage.
        assert!(faulted.mean_recovery_secs > 30.0, "{faulted:?}");
        assert!(faulted.tuples_produced < baseline.tuples_produced);
        // The same arrivals hit both runs.
        assert_eq!(faulted.tuples_arrived, baseline.tuples_arrived);
    }

    #[test]
    fn faulted_runs_are_deterministic_per_seed() {
        use crate::faults::{FaultPlan, RecoverySemantic};
        let q = Query::q1_stock_monitoring();
        let cluster = Cluster::homogeneous(4, capacity_for(&q, 3.0)).unwrap();
        let config = SimConfig {
            duration_secs: 90.0,
            ..SimConfig::default()
        };
        let plan = FaultPlan::node_crash(
            rld_common::NodeId::new(0),
            30.0,
            60.0,
            RecoverySemantic::Lost,
        )
        .unwrap();
        let run = || {
            let sim = Simulator::new(q.clone(), cluster.clone(), config)
                .unwrap()
                .with_faults(plan.clone())
                .unwrap();
            let mut rod = rod_strategy(&q, &cluster);
            sim.run(&StockWorkload::default_config(), &mut rod).unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "fault runs must be bit-deterministic");
        assert!(a.fault_events == 2);
    }

    #[test]
    fn fault_plan_naming_a_missing_node_is_rejected() {
        use crate::faults::{FaultPlan, RecoverySemantic};
        let q = Query::q1_stock_monitoring();
        let cluster = Cluster::homogeneous(2, 100.0).unwrap();
        let plan = FaultPlan::node_crash(
            rld_common::NodeId::new(7),
            10.0,
            20.0,
            RecoverySemantic::Lost,
        )
        .unwrap();
        assert!(Simulator::new(q, cluster, SimConfig::default())
            .unwrap()
            .with_faults(plan)
            .is_err());
    }

    #[test]
    fn runs_are_deterministic_for_same_seed() {
        let q = Query::q1_stock_monitoring();
        let cluster = Cluster::homogeneous(4, capacity_for(&q, 3.0)).unwrap();
        let config = SimConfig {
            duration_secs: 45.0,
            ..SimConfig::default()
        };
        let sim = Simulator::new(q.clone(), cluster.clone(), config).unwrap();
        let workload = StockWorkload::default_config();
        let mut rod_a = rod_strategy(&q, &cluster);
        let mut rod_b = rod_strategy(&q, &cluster);
        let a = sim.run(&workload, &mut rod_a).unwrap();
        let b = sim.run(&workload, &mut rod_b).unwrap();
        assert_eq!(a.tuples_arrived, b.tuples_arrived);
        assert_eq!(a.tuples_produced, b.tuples_produced);
        assert!((a.avg_tuple_processing_ms - b.avg_tuple_processing_ms).abs() < 1e-9);
    }
}
