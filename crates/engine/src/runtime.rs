//! The backend-neutral runtime core: **the one place the policy tick is
//! written**.
//!
//! The paper's runtime (§5) is one policy — monitor the statistics, classify,
//! route each batch through the robust logical plan whose region contains
//! them, never migrate (ROD/DYN/HYB differ only in the strategy hooks) — and
//! two backends apply it: the discrete-tick
//! [`crate::simulator::Simulator`] (work is an abstract scalar, queueing is
//! modelled) and the tuple-level executor in `rld-exec`. What happens in
//! one virtual tick, and in which order, is decided here and nowhere else;
//! a backend makes three calls per tick and does only what is its own:
//!
//! 1. [`RuntimeCore::advance_faults`] applies every [`FaultPlan`] event due
//!    by the coming tick to the core's [`ClusterView`], queues a crash note
//!    per crash, and hands the applied events back — the backend crashes its
//!    `SimNode`, or sets its node factors and collects a window clear list.
//! 2. [`RuntimeCore::decide`] runs the policy: flush the queued crash notes
//!    (each opens a recovery window at this tick), offer the truth to the
//!    `StatisticsMonitor`, call the strategy's `on_cluster_change` hook if
//!    the view changed since the last decision, then `maybe_migrate`
//!    (validating every [`MigrationDecision`] against the cluster and tracing
//!    it), mark the router's work vectors stale if either hook returned
//!    decisions, sample the tick's Poisson arrivals, route a non-empty batch
//!    through the strategy's `plan_for_batch` (an index into its plan
//!    table), and drop it — one reroute, its tuples lost — when its pipeline
//!    crosses a down node. The returned [`TickDecision`] is everything the
//!    backend acts on.
//! 3. [`RuntimeCore::end_tick`] accounts the tick's availability from the
//!    core's view and advances the integer tick clock.
//!
//! The phases are separate calls because a pipelined backend advances the
//! fault plane for tick *t + 1* while tick *t* still evaluates: the crash
//! notes wait in the core until `decide`, so the in-flight batch records
//! first and never closes a recovery window that opened after it. The
//! simulator calls the phases back to back.
//!
//! The clock is the tick index: `t = tick × tick_secs`, with the tick count
//! fixed up front from `duration_secs / tick_secs` — no accumulated float
//! sum, so a fractional tick length neither drifts nor over-runs the horizon.
//!
//! A backend owns only what is genuinely backend-specific — the simulator
//! its `crate::node::SimNode` queue model, the executor its threads and
//! channels — and reports those totals through [`BackendTotals`] when it asks
//! the core to [`finish`](RuntimeCore::finish) the run.
//!
//! With [`RuntimeCore::with_trace`] the core additionally records every
//! per-batch routing decision and every migration, so tests can assert that
//! both backends make bit-identical policy decisions under the same seed.

use crate::faults::{FaultEvent, FaultKind, FaultPlan};
use crate::metrics::{MetricsAccumulator, RunMetrics};
use crate::monitor::StatisticsMonitor;
use crate::simulator::SimConfig;
use crate::stages::{ArrivalProcess, PlanRouter, Routed};
use crate::strategy::{DistributionStrategy, RuntimeContext};
use rld_common::{NodeId, OperatorId, Query, Result, RldError, StatsSnapshot};
use rld_physical::{Cluster, ClusterView, MigrationDecision};
use rld_query::CostModel;

/// One recorded per-batch routing decision.
#[derive(Debug, Clone, PartialEq)]
// rld-allow(V1): the element type of the public field `RunTrace::routes`
pub struct RouteRecord {
    /// 1-based index of the non-empty batch this decision routed.
    pub batch: u64,
    /// Virtual time of the batch's tick.
    pub t_secs: f64,
    /// Signature of the logical plan the batch flowed through.
    pub plan: String,
}

/// One recorded operator migration.
#[derive(Debug, Clone, PartialEq)]
// rld-allow(V1): the element type of the public field `RunTrace::migrations`
pub struct MigrationRecord {
    /// Virtual time of the migration's tick.
    pub t_secs: f64,
    /// The migrated operator.
    pub operator: OperatorId,
    /// Source node.
    pub from: NodeId,
    /// Target node.
    pub to: NodeId,
}

/// The policy decisions a run made, recorded when tracing is enabled —
/// the cross-backend agreement oracle: a fault-free simulator run and
/// executor run with the same seed must produce identical traces.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunTrace {
    /// Every per-batch routing decision, in batch order.
    pub routes: Vec<RouteRecord>,
    /// Every migration decision, in decision order.
    pub migrations: Vec<MigrationRecord>,
}

impl RunTrace {
    /// The trace of a run that was asked for one — an error, not a panic,
    /// should a backend ever finish a traced run without it.
    pub fn require(trace: Option<RunTrace>) -> Result<RunTrace> {
        trace.ok_or_else(|| RldError::Runtime("traced run finished without a trace".into()))
    }
}

/// The backend-specific totals a backend reports when finishing a run: how
/// much work was done and how busy the nodes were, in whatever unit the
/// backend measures work (abstract cost units for the simulator, wall
/// milliseconds of busy time for the executors).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BackendTotals {
    /// Driving tuples fully processed within the horizon (after any crash
    /// retraction the backend applies).
    pub tuples_processed: u64,
    /// Total query-processing work done.
    pub query_work: f64,
    /// Total overhead work done (migrations + classification).
    pub overhead_work: f64,
    /// Mean node utilization over the run, in `[0, 1]`.
    pub mean_utilization: f64,
    /// Maximum backlog observed on any node (0 for a backend that queues
    /// nothing between ticks).
    pub max_backlog: f64,
}

/// What the policy decided for one tick — everything a backend acts on.
#[derive(Debug)]
// rld-allow(V1): returned by the public `RuntimeCore::decide`
pub struct TickDecision<'a> {
    /// The tick's migrations (failover first, then adaptation), validated
    /// against the cluster and already applied to the strategy's placement;
    /// the backend charges their cost in its own unit.
    pub migrations: Vec<MigrationDecision>,
    /// Driving tuples that arrived this tick.
    pub arrivals: u64,
    /// The routed batch to execute: `None` when nothing arrived, or when the
    /// pipeline crosses a down node (the core has counted the drop).
    pub batch: Option<Routed<'a>>,
}

/// The backend-neutral control plane of one run: the tick clock, the
/// cluster's availability view, strategy dispatch, monitor, arrivals, plan
/// routing, fault cursor and metrics accumulation.
pub struct RuntimeCore {
    query: Query,
    cost_model: CostModel,
    config: SimConfig,
    faults: FaultPlan,
    cluster: Cluster,
    view: ClusterView,
    /// Whether a fault event changed the view since the last decision.
    view_changed: bool,
    /// Crashes applied since the last decision; each opens a recovery
    /// window at the next decision's tick.
    queued_crashes: u32,
    tick: u64,
    ticks: u64,
    monitor: StatisticsMonitor,
    monitored: StatsSnapshot,
    arrivals: ArrivalProcess,
    router: PlanRouter,
    acc: MetricsAccumulator,
    fault_idx: usize,
    tuples_arrived: u64,
    batches: u64,
    tuples_lost: f64,
    reroutes: u64,
    downtime_node_secs: f64,
    available_capacity_integral: f64,
    pending_recoveries: Vec<f64>,
    recovery_durations: Vec<f64>,
    trace: Option<RunTrace>,
}

impl RuntimeCore {
    /// Create the core for one run of one strategy. Validates the
    /// configuration, the query, and the fault plan against the cluster;
    /// seeds the arrival process per (seed, strategy name).
    pub fn new(
        query: Query,
        cluster: Cluster,
        config: SimConfig,
        faults: FaultPlan,
        strategy_name: &str,
    ) -> Result<Self> {
        config.validate()?;
        query.validate()?;
        faults.validate_for(cluster.num_nodes())?;
        let monitor = StatisticsMonitor::new(
            query.default_stats(),
            config.monitor_period_secs,
            config.monitor_alpha,
        );
        let monitored = monitor.current().clone();
        let arrivals = ArrivalProcess::new(config.seed, strategy_name);
        // The tolerance keeps a quotient that lands a rounding error above
        // an integer (4.35 / 0.05) from buying an extra tick.
        let ticks = (config.duration_secs / config.tick_secs - 1e-9)
            .ceil()
            .max(1.0) as u64;
        Ok(Self {
            cost_model: CostModel::new(query.clone()),
            query,
            config,
            faults,
            view: ClusterView::all_up(&cluster),
            cluster,
            view_changed: false,
            queued_crashes: 0,
            tick: 0,
            ticks,
            monitor,
            monitored,
            arrivals,
            router: PlanRouter::default(),
            acc: MetricsAccumulator::new(),
            fault_idx: 0,
            tuples_arrived: 0,
            batches: 0,
            tuples_lost: 0.0,
            reroutes: 0,
            downtime_node_secs: 0.0,
            available_capacity_integral: 0.0,
            pending_recoveries: Vec::new(),
            recovery_durations: Vec::new(),
            trace: None,
        })
    }

    /// Enable decision tracing: every routing and migration decision is
    /// recorded into the [`RunTrace`] returned by [`Self::finish`].
    pub fn with_trace(mut self) -> Self {
        self.trace = Some(RunTrace::default());
        self
    }

    /// Index of the current tick (the number of ticks ended so far).
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Whether the current tick lies inside the run's horizon.
    pub fn in_horizon(&self) -> bool {
        self.tick < self.ticks
    }

    /// Virtual time of the current tick's start, in seconds.
    pub fn t_secs(&self) -> f64 {
        self.tick as f64 * self.config.tick_secs
    }

    /// Virtual time of the current tick's start, in whole milliseconds.
    pub fn now_ms(&self) -> u64 {
        (self.tick as f64 * (self.config.tick_secs * 1000.0)).round() as u64
    }

    /// The nominal capacity integral of the ticks ended so far — the
    /// denominator of utilization and availability fractions.
    pub(crate) fn capacity_total(&self) -> f64 {
        self.cluster.total_capacity() * self.config.tick_secs * self.tick as f64
    }

    /// Phase 1 of a tick: apply every fault event due by the start of the
    /// current tick to the availability view and return them, in plan order,
    /// so the backend can apply them to its own node representation.
    pub fn advance_faults(&mut self) -> Vec<FaultEvent> {
        let due_by = self.t_secs() + 1e-9;
        let events = self.faults.events();
        let from = self.fault_idx;
        while self.fault_idx < events.len() && events[self.fault_idx].at_secs <= due_by {
            let event = events[self.fault_idx];
            match event.kind {
                FaultKind::Crash => {
                    self.view.set_up(event.node, false);
                    self.queued_crashes += 1;
                }
                FaultKind::Recover => self.view.set_up(event.node, true),
                FaultKind::Degrade { factor } => self.view.set_capacity_factor(event.node, factor),
                FaultKind::Restore => self.view.set_capacity_factor(event.node, 1.0),
            }
            self.fault_idx += 1;
            self.view_changed = true;
        }
        events[from..self.fault_idx].to_vec()
    }

    /// Phase 2 of a tick: the policy, in its one order (see the module
    /// docs). `truth` is the workload's ground truth at this tick: the
    /// statistics monitor samples it, and arrivals and work vectors follow it.
    pub fn decide<'a>(
        &'a mut self,
        strategy: &mut dyn DistributionStrategy,
        truth: &StatsSnapshot,
    ) -> Result<TickDecision<'a>> {
        let t_secs = self.t_secs();
        for _ in 0..std::mem::take(&mut self.queued_crashes) {
            self.pending_recoveries.push(t_secs);
        }
        if self.monitor.observe(t_secs, truth) {
            self.monitored.clone_from(self.monitor.current());
        }

        let ctx = RuntimeContext {
            t_secs,
            query: &self.query,
            cost_model: &self.cost_model,
            cluster: &self.cluster,
        };
        // Failover before adaptation: the strategy may migrate off dead
        // nodes before anything else happens.
        let mut migrations = Vec::new();
        if std::mem::take(&mut self.view_changed) {
            migrations = strategy.on_cluster_change(&ctx, &self.view, &self.monitored)?;
            adopt_migrations(&mut self.trace, &self.cluster, t_secs, &migrations)?;
        }
        let adapted = strategy.maybe_migrate(&ctx, &self.monitored)?;
        adopt_migrations(&mut self.trace, &self.cluster, t_secs, &adapted)?;
        if migrations.is_empty() {
            migrations = adapted;
        } else {
            migrations.extend(adapted);
        }
        // The placement changes only through returned decisions, so this is
        // the one place the derived work vectors can go stale — batch or no
        // batch this tick.
        if !migrations.is_empty() {
            self.router.mark_stale();
        }

        let rate = self.cost_model.input_rate(self.query.driving_stream, truth);
        let arrivals = self.arrivals.sample_batch(rate, self.config.tick_secs);
        if arrivals == 0 {
            return Ok(TickDecision {
                migrations,
                arrivals,
                batch: None,
            });
        }
        self.tuples_arrived += arrivals;
        self.batches += 1;
        let routed = self.router.route(
            strategy,
            &self.cost_model,
            &self.monitored,
            truth,
            self.cluster.num_nodes(),
        )?;
        if let Some(trace) = self.trace.as_mut() {
            trace.routes.push(RouteRecord {
                batch: self.batches,
                t_secs,
                plan: strategy.plans()[routed.plan].signature(),
            });
        }
        // A pipeline through a dead node can never complete: drop the batch
        // loudly. The strategy was already notified through its
        // cluster-change hook; static policies eat the loss.
        let crosses_down_node = routed
            .work
            .pipeline_nodes
            .iter()
            .any(|node| !self.view.is_up(*node));
        if crosses_down_node {
            self.reroutes += 1;
            self.tuples_lost += arrivals as f64;
        }
        Ok(TickDecision {
            migrations,
            arrivals,
            batch: (!crosses_down_node).then_some(routed),
        })
    }

    /// Phase 3 of a tick: account every node's availability over the tick
    /// from the core's view, then advance the clock.
    pub fn end_tick(&mut self) {
        let dt_secs = self.config.tick_secs;
        for i in 0..self.view.num_nodes() {
            let node = NodeId::new(i);
            if !self.view.is_up(node) {
                self.downtime_node_secs += dt_secs;
            }
            self.available_capacity_integral += self.view.effective_capacity(node) * dt_secs;
        }
        self.tick += 1;
    }

    /// Account tuples a backend lost outside the drop path (queued work a
    /// `Lost`-semantic crash discarded).
    pub(crate) fn note_lost(&mut self, tuples: f64) {
        self.tuples_lost += tuples;
    }

    /// Record one accepted batch: `tuples` driving tuples with the given
    /// per-tuple latency, producing `produced` result tuples at
    /// `completion_secs`. The first accepted batch after a crash closes
    /// every pending crash-recovery window at its completion time.
    pub fn record_batch(
        &mut self,
        tuples: u64,
        latency_ms: f64,
        produced: u64,
        completion_secs: f64,
    ) {
        self.acc
            .record_batch(tuples, latency_ms, produced, completion_secs);
        for crash_at in self.pending_recoveries.drain(..) {
            self.recovery_durations.push(completion_secs - crash_at);
        }
    }

    /// Tuple-weighted latency percentiles (0–100) of everything recorded so
    /// far, answered from one sorted pass.
    pub fn latency_percentiles(&self, ps: &[f64]) -> Vec<f64> {
        self.acc.percentiles_latency_ms(ps)
    }

    /// Assemble the run's metrics. Crashes no accepted batch ever completed
    /// after count as unrecovered through the end of the horizon.
    pub fn finish(
        mut self,
        strategy: &dyn DistributionStrategy,
        totals: BackendTotals,
    ) -> (RunMetrics, Option<RunTrace>) {
        let duration = self.config.duration_secs;
        for crash_at in self.pending_recoveries.drain(..) {
            self.recovery_durations.push(duration - crash_at);
        }
        let capacity_total = self.capacity_total();
        let metrics = RunMetrics {
            system: strategy.name().to_string(),
            duration_secs: duration,
            tuples_arrived: self.tuples_arrived,
            tuples_processed: totals.tuples_processed,
            tuples_produced: self.acc.produced_by(duration),
            avg_tuple_processing_ms: self.acc.mean_latency_ms(),
            p95_tuple_processing_ms: self.acc.percentiles_latency_ms(&[95.0])[0],
            produced_timeline: self.acc.timeline(duration),
            migrations: strategy.migrations(),
            plan_switches: strategy.plan_switches(),
            query_work: totals.query_work,
            overhead_work: totals.overhead_work,
            mean_utilization: totals.mean_utilization,
            max_backlog: totals.max_backlog,
            batches: self.batches,
            work_vector_recomputes: self.router.recomputes(),
            fault_events: self.fault_idx as u64,
            downtime_node_secs: self.downtime_node_secs,
            tuples_lost: self.tuples_lost.round() as u64,
            reroutes: self.reroutes,
            mean_recovery_secs: if self.recovery_durations.is_empty() {
                0.0
            } else {
                self.recovery_durations.iter().sum::<f64>() / self.recovery_durations.len() as f64
            },
            capacity_available_fraction: if capacity_total > 0.0 {
                (self.available_capacity_integral / capacity_total).clamp(0.0, 1.0)
            } else {
                1.0
            },
        };
        (metrics, self.trace)
    }
}

/// Validate a hook's migration decisions against the cluster — the strategy
/// trait is an open seam, so decisions are not trusted blindly — and record
/// them into the trace.
fn adopt_migrations(
    trace: &mut Option<RunTrace>,
    cluster: &Cluster,
    t_secs: f64,
    decisions: &[MigrationDecision],
) -> Result<()> {
    let num_nodes = cluster.num_nodes();
    for d in decisions {
        if d.from.index() >= num_nodes || d.to.index() >= num_nodes {
            return Err(RldError::Runtime(format!(
                "migration of {} names a node outside the {num_nodes}-node cluster ({} -> {})",
                d.operator, d.from, d.to
            )));
        }
        if let Some(trace) = trace.as_mut() {
            trace.migrations.push(MigrationRecord {
                t_secs,
                operator: d.operator,
                from: d.from,
                to: d.to,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::RecoverySemantic;
    use rld_common::StatKey;
    use rld_physical::PhysicalPlan;
    use rld_query::LogicalPlan;

    /// Everything on node 0 of a 3-node cluster, every hook call logged;
    /// routes every batch to `route` of its one-plan table and optionally
    /// emits one migration per tick from `maybe_migrate`.
    struct Scripted {
        logical: LogicalPlan,
        physical: PhysicalPlan,
        log: Vec<&'static str>,
        route: usize,
        migrate: Option<MigrationDecision>,
    }

    impl DistributionStrategy for Scripted {
        fn name(&self) -> &str {
            "SCRIPTED"
        }
        fn physical(&self) -> &PhysicalPlan {
            &self.physical
        }
        fn plans(&self) -> &[LogicalPlan] {
            std::slice::from_ref(&self.logical)
        }
        fn plan_for_batch(&mut self, _m: &StatsSnapshot) -> Option<usize> {
            self.log.push("plan_for_batch");
            Some(self.route)
        }
        fn maybe_migrate(
            &mut self,
            _ctx: &RuntimeContext<'_>,
            _m: &StatsSnapshot,
        ) -> Result<Vec<MigrationDecision>> {
            self.log.push("maybe_migrate");
            Ok(self.migrate.into_iter().collect())
        }
        fn on_cluster_change(
            &mut self,
            _ctx: &RuntimeContext<'_>,
            view: &ClusterView,
            _m: &StatsSnapshot,
        ) -> Result<Vec<MigrationDecision>> {
            self.log.push(if view.is_up(NodeId::new(0)) {
                "on_cluster_change(up)"
            } else {
                "on_cluster_change(down)"
            });
            Ok(Vec::new())
        }
    }

    /// Q1 at its default statistics, the scripted strategy, and a core over
    /// three 100-unit nodes.
    fn fixture(config: SimConfig, faults: FaultPlan) -> (StatsSnapshot, Scripted, RuntimeCore) {
        let q = Query::q1_stock_monitoring();
        let mapping: Vec<NodeId> = (0..q.num_operators()).map(|_| NodeId::new(0)).collect();
        let strategy = Scripted {
            logical: LogicalPlan::identity(&q),
            physical: PhysicalPlan::from_mapping(&q, &mapping, 3).unwrap(),
            log: Vec::new(),
            route: 0,
            migrate: None,
        };
        let cluster = Cluster::homogeneous(3, 100.0).unwrap();
        let core = RuntimeCore::new(q.clone(), cluster, config, faults, "SCRIPTED").unwrap();
        (q.default_stats(), strategy, core)
    }

    fn config(duration_secs: f64) -> SimConfig {
        SimConfig {
            duration_secs,
            ..SimConfig::default()
        }
    }

    fn crash(node: usize, from: f64, to: f64) -> FaultPlan {
        FaultPlan::node_crash(NodeId::new(node), from, to, RecoverySemantic::Lost).unwrap()
    }

    #[test]
    fn core_validates_its_inputs() {
        let q = Query::q1_stock_monitoring();
        let cluster = Cluster::homogeneous(3, 100.0).unwrap();
        let new =
            |config, faults| RuntimeCore::new(q.clone(), cluster.clone(), config, faults, "X");
        let bad = SimConfig {
            tick_secs: 0.0,
            ..SimConfig::default()
        };
        assert!(new(bad, FaultPlan::none()).is_err());
        assert!(new(SimConfig::default(), crash(9, 1.0, 2.0)).is_err());
        assert!(new(SimConfig::default(), FaultPlan::none()).is_ok());
    }

    #[test]
    fn fault_cursor_yields_due_events_once() {
        let (_, strategy, mut core) = fixture(config(12.0), crash(0, 5.0, 10.0));
        let mut applied = Vec::new();
        while core.in_horizon() {
            for event in core.advance_faults() {
                applied.push((core.tick(), event.at_secs));
            }
            assert!(core.advance_faults().is_empty(), "each event is due once");
            core.end_tick();
        }
        assert_eq!(applied, vec![(5, 5.0), (10, 10.0)]);
        let (m, _) = core.finish(&strategy, BackendTotals::default());
        assert_eq!(m.fault_events, 2);
        assert_eq!(m.downtime_node_secs, 5.0);
    }

    /// The tick, written once: hook order, the two-phase crash note, the
    /// drop path and availability accounting — driven the way the pipelined
    /// backend drives it (faults for tick t + 1 advance before tick t's
    /// batch records).
    #[test]
    fn one_tick_runs_the_hooks_in_order_and_accounts_faults_once() {
        let (truth, mut strategy, mut core) = fixture(config(6.0), crash(0, 2.0, 4.0));
        let mut expected_log: Vec<&'static str> = Vec::new();
        let mut dropped_tuples = 0u64;
        // The batch still "in flight" while the next tick's faults advance.
        let mut in_flight: Option<(u64, f64)> = None;
        assert!(core.advance_faults().is_empty());
        while core.in_horizon() {
            if let Some((n, t)) = in_flight.take() {
                core.record_batch(n, 1.0, 0, t);
            }
            let (tick, t_secs) = (core.tick(), core.t_secs());
            let decision = core.decide(&mut strategy, &truth).unwrap();
            assert!(decision.arrivals > 0, "Q1's rate leaves no empty tick");
            match tick {
                2 => expected_log.push("on_cluster_change(down)"),
                4 => expected_log.push("on_cluster_change(up)"),
                _ => {}
            }
            expected_log.extend(["maybe_migrate", "plan_for_batch"]);
            let crosses_dead_node = (2..4).contains(&tick);
            assert_eq!(decision.batch.is_none(), crosses_dead_node, "tick {tick}");
            match decision.batch {
                Some(_) => in_flight = Some((decision.arrivals, t_secs)),
                None => dropped_tuples += decision.arrivals,
            }
            core.end_tick();
            let events = core.advance_faults();
            assert_eq!(events.len(), usize::from(tick + 1 == 2 || tick + 1 == 4));
        }
        if let Some((n, t)) = in_flight.take() {
            core.record_batch(n, 1.0, 0, t);
        }
        assert_eq!(strategy.log, expected_log);

        let (m, _) = core.finish(&strategy, BackendTotals::default());
        assert_eq!(m.batches, 6);
        assert_eq!(m.fault_events, 2);
        assert_eq!(m.reroutes, 2, "one reroute per dropped batch");
        assert_eq!(m.tuples_lost, dropped_tuples);
        // The crash at t = 2 was applied before tick 1's batch recorded, but
        // its note landed after: the window closes at tick 4's batch (2 s),
        // not at tick 1's (which would read −1 s).
        assert_eq!(m.mean_recovery_secs, 2.0);
        assert_eq!(m.downtime_node_secs, 2.0);
        let available = 6.0 * 300.0 - 2.0 * 100.0;
        assert_eq!(m.capacity_available_fraction, available / (6.0 * 300.0));
    }

    const GOOD: MigrationDecision = MigrationDecision {
        operator: OperatorId::new(0),
        from: NodeId::new(0),
        to: NodeId::new(1),
        state_bytes: 64,
    };

    /// One traced decision of a strategy that emits `migrate`.
    fn decide_once(migrate: MigrationDecision) -> Result<(Vec<MigrationDecision>, RunTrace)> {
        let (truth, mut strategy, core) = fixture(config(1.0), FaultPlan::none());
        let mut core = core.with_trace();
        strategy.migrate = Some(migrate);
        let migrations = core.decide(&mut strategy, &truth)?.migrations;
        let (_, trace) = core.finish(&strategy, BackendTotals::default());
        Ok((migrations, RunTrace::require(trace)?))
    }

    #[test]
    fn trace_records_routes_and_migrations() {
        let (migrations, trace) = decide_once(GOOD).unwrap();
        assert_eq!(migrations, vec![GOOD]);
        assert_eq!(trace.migrations.len(), 1);
        assert_eq!(trace.migrations[0].to, NodeId::new(1));
        assert_eq!(trace.routes.len(), 1);
        assert_eq!(trace.routes[0].batch, 1);
        assert!(!trace.routes[0].plan.is_empty());
        // A run that was not traced has no trace to require: an error.
        assert!(matches!(RunTrace::require(None), Err(RldError::Runtime(_))));
    }

    /// The trait is an open seam: a route outside the strategy's plan table
    /// is a runtime error, not a panic.
    #[test]
    fn a_route_outside_the_plan_table_is_a_runtime_error() {
        let (truth, mut strategy, mut core) = fixture(config(1.0), FaultPlan::none());
        strategy.route = 1;
        let err = core.decide(&mut strategy, &truth).unwrap_err();
        assert!(matches!(err, RldError::Runtime(_)), "{err:?}");
    }

    /// A strategy that applies its own decision: the scripted one, moving its
    /// plan's first operator to node 1 on the `migrate_on`-th adaptation
    /// call (0-based).
    struct SelfMigrating {
        inner: Scripted,
        calls: u32,
        migrate_on: u32,
    }

    impl DistributionStrategy for SelfMigrating {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn physical(&self) -> &PhysicalPlan {
            self.inner.physical()
        }
        fn plans(&self) -> &[LogicalPlan] {
            self.inner.plans()
        }
        fn plan_for_batch(&mut self, m: &StatsSnapshot) -> Option<usize> {
            self.inner.plan_for_batch(m)
        }
        fn maybe_migrate(
            &mut self,
            ctx: &RuntimeContext<'_>,
            _m: &StatsSnapshot,
        ) -> Result<Vec<MigrationDecision>> {
            self.calls += 1;
            if self.calls - 1 != self.migrate_on {
                return Ok(Vec::new());
            }
            let operator = self.inner.logical.ordering()[0];
            let physical = &mut self.inner.physical;
            let from = physical.node_of(operator).unwrap();
            *physical = physical.with_operator_moved(operator, NodeId::new(1))?;
            Ok(vec![MigrationDecision {
                operator,
                from,
                to: NodeId::new(1),
                state_bytes: ctx.query.operator(operator)?.state_bytes,
            }])
        }
    }

    /// The router's work vectors are keyed by (plan, truth), not by the
    /// placement: a migration on a tick with no batch must still leave them
    /// stale for the next batch at an unchanged plan and truth.
    #[test]
    fn a_migration_with_no_batch_still_marks_the_work_vectors_stale() {
        let (truth, inner, mut core) = fixture(config(3.0), FaultPlan::none());
        let mut strategy = SelfMigrating {
            inner,
            calls: 0,
            migrate_on: 1,
        };
        let mut idle = truth.clone();
        idle.set(StatKey::InputRate(core.query.driving_stream), 0.0);
        let mut pipelines = Vec::new();
        for (tick, tick_truth) in [&truth, &idle, &truth].into_iter().enumerate() {
            core.advance_faults();
            let decision = core.decide(&mut strategy, tick_truth).unwrap();
            assert_eq!(decision.migrations.len(), usize::from(tick == 1));
            pipelines.push(decision.batch.map(|b| b.work.pipeline_nodes.clone()));
            core.end_tick();
        }
        assert_eq!(pipelines[0], Some(vec![NodeId::new(0)]));
        assert_eq!(
            pipelines[1], None,
            "a zero rate leaves tick 1 without a batch"
        );
        assert_eq!(pipelines[2], Some(vec![NodeId::new(1), NodeId::new(0)]));
        let (m, _) = core.finish(&strategy, BackendTotals::default());
        assert_eq!(m.batches, 2);
        assert_eq!(m.work_vector_recomputes, 2);
    }

    /// The bounds check every backend inherits: a decision naming a node the
    /// cluster does not have is refused, not charged.
    #[test]
    fn a_migration_naming_a_missing_node_is_a_runtime_error() {
        let err = decide_once(MigrationDecision {
            to: NodeId::new(99),
            ..GOOD
        })
        .unwrap_err();
        assert!(matches!(err, RldError::Runtime(_)), "{err:?}");
    }

    #[test]
    fn the_clock_is_the_tick_index() {
        let tenths = SimConfig {
            tick_secs: 0.1,
            duration_secs: 1.0,
            ..SimConfig::default()
        };
        let (_, _, mut core) = fixture(tenths, FaultPlan::none());
        let mut clock = Vec::new();
        while core.in_horizon() {
            clock.push(core.now_ms());
            core.end_tick();
        }
        // Ten additions of 0.1 stop short of 1.0 (an eleventh tick) and read
        // 799 ms at the eighth; the tick index does neither.
        let expected: Vec<u64> = (0..10).map(|i| i * 100).collect();
        assert_eq!(clock, expected);
    }

    #[test]
    fn recovery_windows_close_at_batch_completion() {
        let crash_at = |at_secs, node| FaultEvent {
            at_secs,
            node: NodeId::new(node),
            kind: FaultKind::Crash,
        };
        let plan = FaultPlan::new(
            vec![crash_at(10.0, 1), crash_at(50.0, 2)],
            RecoverySemantic::Lost,
        )
        .unwrap();
        let (truth, mut strategy, mut core) = fixture(config(100.0), plan);
        while core.in_horizon() {
            if !core.advance_faults().is_empty() && core.tick() == 10 {
                core.note_lost(5.0);
            }
            core.decide(&mut strategy, &truth).unwrap();
            if core.tick() == 14 {
                core.record_batch(10, 2000.0, 3, 14.0);
            }
            core.end_tick();
        }
        let (m, _) = core.finish(&strategy, BackendTotals::default());
        // First crash recovered at 14 s (4 s), second never (100 - 50 = 50 s).
        assert!((m.mean_recovery_secs - 27.0).abs() < 1e-9, "{m:?}");
        assert_eq!(m.tuples_lost, 5);
        assert_eq!(m.fault_events, 2);
    }
}
