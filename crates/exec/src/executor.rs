//! The threaded executor: coordinator loop + worker pool.

use crate::columnar::{initial_probes, ShardCore};
use crate::worker::{run_worker, Completion, Envelope, NodeState, ToWorker, WorkerHarness};
use rld_common::rng::derive_seed;
use rld_common::{
    ColumnBatch, CompiledOp, NodeId, OperatorId, Query, Result, RldError, StatsSnapshot,
};
use rld_engine::{
    BackendTotals, DistributionStrategy, FaultKind, FaultPlan, RecoverySemantic, RunMetrics,
    RunTrace, RuntimeCore, SimConfig,
};
use rld_physical::{Cluster, MigrationDecision, PhysicalPlan};
use rld_workloads::Workload;
use std::borrow::Cow;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Bound of every worker inbox, in envelopes. A full inbox blocks the
/// coordinator's ingest — the backpressure seam.
const CHANNEL_CAPACITY: usize = 64;
/// How long to wait for in-flight envelopes to drain after the virtual
/// horizon, in wall seconds.
const DRAIN_TIMEOUT_SECS: f64 = 10.0;
/// Fixed migration pause per operator move, in wall milliseconds.
const PAUSE_FIXED_MS: f64 = 1.0;
/// Additional migration pause per KiB of operator state, in wall ms.
const PAUSE_MS_PER_KB: f64 = 0.01;

/// The wall-millisecond pause one migration's state transfer costs — slept
/// by the threaded executor's workers, charged as overhead by the columnar one.
pub(crate) fn migration_pause_ms(decision: &MigrationDecision) -> f64 {
    PAUSE_FIXED_MS + PAUSE_MS_PER_KB * (decision.state_bytes as f64 / 1024.0)
}

/// Where the statistics monitor's samples come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MonitorSource {
    /// The workload's ground truth — exactly what the simulator feeds its
    /// monitor, so both backends make identical routing decisions per seed.
    #[default]
    Truth,
    /// The selectivities the dataplane *actually observed* (per-operator
    /// input/output counts), closing the monitor loop on real measurements.
    /// Routing then depends on execution timing and is no longer
    /// bit-reproducible against the simulator.
    Observed,
}

/// Configuration of the tuple-level executors. The embedded [`SimConfig`]
/// carries the shared experiment parameters (virtual tick, duration, monitor
/// period/smoothing, seed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecConfig {
    /// The shared experiment parameters (tick, duration, monitor, seed).
    pub sim: SimConfig,
    /// Where the statistics monitor samples from.
    pub monitor: MonitorSource,
}

impl ExecConfig {
    /// Executor defaults around the shared experiment parameters.
    pub fn from_sim(sim: SimConfig) -> Self {
        Self {
            sim,
            monitor: MonitorSource::Truth,
        }
    }
}

impl Default for ExecConfig {
    fn default() -> Self {
        Self::from_sim(SimConfig::default())
    }
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
    /// Wall-clock duration of the whole run (virtual loop + drain).
    pub wall_secs: f64,
    /// Driving tuples fully processed per wall second.
    pub tuples_per_sec: f64,
    /// Tuple-weighted wall-latency percentiles as `(percentile, ms)` for
    /// p50 / p95 / p99.
    pub latency_percentiles_ms: Vec<(f64, f64)>,
    /// Total wall milliseconds workers spent paused for migration state
    /// transfer — the migration pause cost, measured, not modelled.
    pub migration_pause_ms: f64,
    /// The statistics the dataplane actually observed (per-operator
    /// selectivities from real input/output counts, rates from the truth).
    pub observed_stats: StatsSnapshot,
    /// Per-stage wall-clock breakdown of the coordinator loop. Reported by
    /// the columnar executor (whose tick is a fixed stage pipeline); `None`
    /// for the threaded executor, whose workers overlap freely.
    pub stage_timings: Option<StageTimings>,
}

/// Wall-clock milliseconds the columnar coordinator spent in each stage of
/// its tick pipeline, summed over the run. `generate`, `evaluate`, and
/// `window` are summed across shards (they run in parallel), so they can
/// exceed `wall_secs`; `route`, `dispatch`, and `fold` are coordinator-serial.
/// The per-shard vectors expose imbalance the stage totals hide.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StageTimings {
    /// Building driving `ColumnBatch` slices inside shards.
    pub generate_ms: f64,
    /// Routing decisions (strategy + core bookkeeping).
    pub route_ms: f64,
    /// Constructing shard tasks (chain compile, match plan, task setup).
    pub dispatch_ms: f64,
    /// Fused-chain evaluation inside shards.
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
}

/// The tuple-level execution backend: one worker thread per cluster node,
/// driven by the same [`RuntimeCore`] as the simulator.
pub struct ThreadedExecutor {
    query: Query,
    cluster: Cluster,
    config: ExecConfig,
    faults: FaultPlan,
}

impl ThreadedExecutor {
    /// Create an executor for a query on a cluster (fault-free).
    pub fn new(query: Query, cluster: Cluster, config: ExecConfig) -> Result<Self> {
        config.sim.validate()?;
        query.validate()?;
        Ok(Self {
            query,
            cluster,
            config,
            faults: FaultPlan::none(),
        })
    }

    /// Attach a fault plan; its events are applied at virtual-tick
    /// granularity, exactly as the simulator applies them.
    pub fn with_faults(mut self, faults: FaultPlan) -> Result<Self> {
        faults.validate_for(self.cluster.num_nodes())?;
        self.faults = faults;
        Ok(self)
    }

    /// The executor configuration.
    pub fn config(&self) -> &ExecConfig {
        &self.config
    }

    /// Run one strategy against a workload on the threaded dataplane.
    pub fn run(
        &self,
        workload: &dyn Workload,
        strategy: &mut dyn DistributionStrategy,
    ) -> Result<RunMetrics> {
        self.run_report(workload, strategy, false)
            .map(|report| report.metrics)
    }

    /// Like [`Self::run`], additionally recording every routing and
    /// migration decision for cross-backend comparison.
    pub fn run_traced(
        &self,
        workload: &dyn Workload,
        strategy: &mut dyn DistributionStrategy,
    ) -> Result<(RunMetrics, RunTrace)> {
        let report = self.run_report(workload, strategy, true)?;
        Ok((report.metrics, RunTrace::require(report.trace)?))
    }

    /// Run one strategy and report everything measured.
    ///
    /// The coordinator calls the [`RuntimeCore`]'s three tick phases back to
    /// back; in between it does what is this backend's own — flips the
    /// crashed / degraded workers' `NodeState`s, maintains the windows,
    /// pauses workers for the decided migrations, and ingests the routed
    /// batch at the pipeline's first worker.
    pub fn run_report(
        &self,
        workload: &dyn Workload,
        strategy: &mut dyn DistributionStrategy,
        traced: bool,
    ) -> Result<ExecReport> {
        let num_nodes = self.cluster.num_nodes();
        let mut core = RuntimeCore::new(
            self.query.clone(),
            self.cluster.clone(),
            self.config.sim,
            self.faults.clone(),
            strategy.name(),
        )?;
        if traced {
            core = core.with_trace();
        }

        // The shared dataplane: compiled operators — the coordinator's copy
        // accumulates the observed counts, the workers share an immutable
        // one — and per-node runtime state.
        let mut ops = compile_ops(&self.query, self.config.sim.seed);
        let worker_ops = Arc::new(ops.clone());
        let states: Vec<Arc<NodeState>> =
            (0..num_nodes).map(|_| Arc::new(NodeState::new())).collect();
        let in_flight = Arc::new(AtomicI64::new(0));
        // Generation and window state are the columnar backend's single
        // shard, same seed: both executors evaluate bit-identical tuples
        // against bit-identical probe epochs.
        let mut shard = ShardCore::new(
            &self.query,
            derive_seed(self.config.sim.seed, strategy.name()),
            0,
            1,
        );
        let mut probes = Arc::new(initial_probes(&ops, 1));

        // Channels: one bounded inbox per worker, one completion stream back.
        let mut senders = Vec::with_capacity(num_nodes);
        let mut receivers = Vec::with_capacity(num_nodes);
        for _ in 0..num_nodes {
            let (tx, rx) = mpsc::sync_channel::<ToWorker>(CHANNEL_CAPACITY);
            senders.push(tx);
            receivers.push(rx);
        }
        let (completion_tx, completion_rx) = mpsc::channel::<Completion>();
        let replay = self.faults.recovery == RecoverySemantic::Replay;

        let in_flight_tuples = Arc::new(AtomicI64::new(0));
        let wall_start = Instant::now();
        std::thread::scope(|scope| -> Result<ExecReport> {
            let mut workers = Vec::with_capacity(num_nodes);
            for (node, rx) in receivers.into_iter().enumerate() {
                let harness = WorkerHarness {
                    node,
                    rx,
                    peers: senders.clone(),
                    states: states.clone(),
                    completions: completion_tx.clone(),
                    ops: Arc::clone(&worker_ops),
                    in_flight: Arc::clone(&in_flight),
                    in_flight_tuples: Arc::clone(&in_flight_tuples),
                    replay,
                };
                workers.push(scope.spawn(move || run_worker(harness)));
            }
            let shutdown = ShutdownOnDrop(&senders);

            let dt = self.config.sim.tick_secs;
            let mut placement = Arc::new(strategy.physical().clone());
            let mut tuples_processed: u64 = 0;
            let mut route_ms = 0.0f64;
            // A completion records at its ingest tick (the virtual timeline
            // knows no processing delay), but never before the latest crash
            // it outlived, so a recovery window it closes is non-negative.
            let mut last_crash = f64::NEG_INFINITY;

            while core.in_horizon() {
                let (tick, t) = (core.tick(), core.t_secs());
                // Workers observe the node states immediately. Under Lost
                // semantics a crashed node's window state dies with it
                // (cleared by this tick's maintenance, before partner
                // inserts); in-flight envelopes are counted as they bounce
                // off the down worker.
                let mut clear_ops: Vec<OperatorId> = Vec::new();
                for event in core.advance_faults() {
                    states[event.node.index()].apply_fault(event.kind);
                    if event.kind == FaultKind::Crash {
                        last_crash = t;
                        if !replay {
                            clear_ops.extend(operators_on(&self.query, &placement, event.node));
                        }
                    }
                }

                // Window maintenance: crash-clears, this tick's partner
                // arrivals, expiry — then publish the probe epoch this
                // tick's batch reads.
                let truth = workload.stats_at(t);
                let (dirty, _) = shard.maint(tick, core.now_ms(), t, dt, &truth, &clear_ops);
                // Envelopes still in flight keep the epoch they were ingested
                // with: `make_mut` copies exactly when one holds it.
                if !dirty.is_empty() {
                    let next = Arc::make_mut(&mut probes);
                    for (op, terms) in dirty {
                        next.set_partition(op, 0, terms);
                    }
                }

                let route_started = Instant::now();
                let sample = monitor_sample(self.config.monitor, &ops, &truth);
                let decision = core.decide(&mut *strategy, &truth, &sample)?;
                route_ms += route_started.elapsed().as_secs_f64() * 1000.0;
                let n_tuples = decision.arrivals;
                let batch = decision
                    .batch
                    .map(|routed| (routed.work.pipeline_nodes[0], Arc::clone(routed.plan)));
                if !decision.migrations.is_empty() {
                    pause_workers(&decision.migrations, &states, &senders);
                    placement = Arc::new(strategy.physical().clone());
                }

                // Ingest, blocking on a full first inbox: backpressure
                // instead of modelled queueing.
                if let Some((first, plan)) = batch {
                    let mut batch = ColumnBatch::for_driving(&self.query);
                    shard.gen.fill_slice(
                        &mut batch,
                        &shard.gen.match_plan(&truth),
                        tick,
                        t,
                        dt,
                        n_tuples,
                        0,
                        n_tuples,
                    );
                    let envelope = Envelope {
                        sel: batch.identity_sel(),
                        batch: Arc::new(batch),
                        probes: Arc::clone(&probes),
                        counts: Vec::with_capacity(plan.ordering().len()),
                        plan,
                        placement: Arc::clone(&placement),
                        stage: 0,
                        n_input: n_tuples,
                        t_secs: t,
                        ingest: Instant::now(),
                    };
                    in_flight.fetch_add(1, Ordering::AcqRel);
                    in_flight_tuples.fetch_add(n_tuples as i64, Ordering::AcqRel);
                    states[first.index()].enqueue_envelope();
                    senders[first.index()]
                        .send(ToWorker::Batch(envelope))
                        .map_err(|_| RldError::Runtime("worker hung up during ingest".into()))?;
                }

                // Record whatever completed by now.
                while let Ok(completion) = completion_rx.try_recv() {
                    tuples_processed += record(&mut core, &mut ops, completion, last_crash);
                }
                core.end_tick();
            }

            // Drain: wait for in-flight envelopes to complete. With a node
            // still down (parked Replay envelopes), cut the wait short.
            let all_up = states.iter().all(|s| s.is_up());
            let deadline = Instant::now()
                + if all_up {
                    Duration::from_secs_f64(DRAIN_TIMEOUT_SECS)
                } else {
                    Duration::from_millis(100)
                };
            while in_flight.load(Ordering::Acquire) > 0 && Instant::now() < deadline {
                match completion_rx.recv_timeout(Duration::from_millis(5)) {
                    Ok(completion) => {
                        tuples_processed += record(&mut core, &mut ops, completion, last_crash)
                    }
                    Err(mpsc::RecvTimeoutError::Timeout) => {}
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                }
            }
            // Shut the workers down and *join them* before reading any
            // counters — losses and busy/pause time recorded during worker
            // shutdown (e.g. Replay envelopes parked on a node that never
            // recovered) must land in the totals.
            drop(shutdown);
            for worker in workers {
                let _ = worker.join();
            }
            // Completions that raced with the shutdown.
            while let Ok(completion) = completion_rx.try_recv() {
                tuples_processed += record(&mut core, &mut ops, completion, last_crash);
            }
            // Anything still unaccounted (e.g. envelopes buffered in the
            // inbox of a worker that had already exited) is lost: a tuple is
            // processed, lost, or — never — silently dropped.
            let leftover = in_flight_tuples.load(Ordering::Acquire).max(0);
            core.note_lost(leftover as f64);
            let worker_lost: u64 = states
                .iter()
                .map(|s| s.lost_inputs.load(Ordering::Relaxed))
                .sum();
            core.note_lost(worker_lost as f64);

            let total_ms = |counter: fn(&NodeState) -> &AtomicU64| -> f64 {
                states
                    .iter()
                    .map(|s| counter(s).load(Ordering::Relaxed) as f64 / 1e6)
                    .sum()
            };
            let measured = Measured {
                wall_secs: wall_start.elapsed().as_secs_f64(),
                tuples_processed,
                busy_ms: total_ms(|s| &s.busy_nanos),
                pause_ms: total_ms(|s| &s.pause_nanos),
                route_ms,
                workers: num_nodes,
                max_backlog: states
                    .iter()
                    .map(|s| s.max_backlog.load(Ordering::Relaxed))
                    .max()
                    .unwrap_or(0) as f64,
                stage_timings: None,
            };
            let observed =
                observed_snapshot(&ops, &workload.stats_at(self.config.sim.duration_secs));
            Ok(assemble_report(core, &*strategy, observed, measured))
        })
    }
}

/// Sends `Shutdown` to every worker when dropped, so an error return from
/// the tick loop cannot leave the thread scope joining workers that wait on
/// their inboxes.
struct ShutdownOnDrop<'a>(&'a [mpsc::SyncSender<ToWorker>]);

impl Drop for ShutdownOnDrop<'_> {
    fn drop(&mut self) {
        for tx in self.0 {
            let _ = tx.send(ToWorker::Shutdown);
        }
    }
}

/// Record one completed batch at the core and fold its observed counts;
/// returns the driving tuples it processed.
fn record(core: &mut RuntimeCore, ops: &mut [CompiledOp], c: Completion, last_crash: f64) -> u64 {
    for counts in &c.counts {
        ops[counts.op.index()].note_observed(counts.inputs, counts.outputs);
    }
    core.record_batch(
        c.n_input,
        c.latency.as_secs_f64() * 1000.0,
        c.produced,
        c.t_secs.max(last_crash),
    );
    c.n_input
}

/// Pause the source and target workers of each migration for its state
/// transfer (the pause is measured in wall time by the workers themselves).
/// When the source node is down, the whole pause lands on the target — the
/// state is rebuilt there.
fn pause_workers(
    decisions: &[MigrationDecision],
    states: &[Arc<NodeState>],
    senders: &[mpsc::SyncSender<ToWorker>],
) {
    for d in decisions {
        let pause = Duration::from_secs_f64(migration_pause_ms(d) / 1000.0);
        // Blocking sends: under load a full inbox delays the pause (it
        // queues behind the batches ahead of it, as a real state transfer
        // would) — it must never be silently skipped, or migrations would
        // look free exactly when the system is busy.
        if states[d.from.index()].is_up() {
            let half = pause / 2;
            let _ = senders[d.from.index()].send(ToWorker::Pause(half));
            let _ = senders[d.to.index()].send(ToWorker::Pause(half));
        } else {
            let _ = senders[d.to.index()].send(ToWorker::Pause(pause));
        }
    }
}

/// What an executor measured over one run, in wall-clock units.
pub(crate) struct Measured {
    pub wall_secs: f64,
    pub tuples_processed: u64,
    /// Wall ms the workers / shards spent processing (the query work).
    pub busy_ms: f64,
    /// Wall ms of migration pause (slept by workers, or modelled).
    pub pause_ms: f64,
    /// Wall ms the coordinator spent in the policy decision.
    pub route_ms: f64,
    /// Parallel workers the busy time spreads over.
    pub workers: usize,
    pub max_backlog: f64,
    pub stage_timings: Option<StageTimings>,
}

/// Finish the core and assemble the [`ExecReport`] both executors return.
pub(crate) fn assemble_report(
    core: RuntimeCore,
    strategy: &dyn DistributionStrategy,
    observed_stats: StatsSnapshot,
    m: Measured,
) -> ExecReport {
    let mean_utilization = if m.wall_secs > 0.0 && m.workers > 0 {
        (m.busy_ms / 1000.0 / (m.wall_secs * m.workers as f64)).clamp(0.0, 1.0)
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
            query_work: m.busy_ms,
            overhead_work: m.pause_ms + m.route_ms,
            mean_utilization,
            max_backlog: m.max_backlog,
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
        stage_timings: m.stage_timings,
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

/// What the statistics monitor is offered this tick: the workload's truth,
/// or the truth's rates under the selectivities the dataplane observed.
pub(crate) fn monitor_sample<'a>(
    source: MonitorSource,
    ops: &[CompiledOp],
    truth: &'a StatsSnapshot,
) -> Cow<'a, StatsSnapshot> {
    match source {
        MonitorSource::Truth => Cow::Borrowed(truth),
        MonitorSource::Observed => Cow::Owned(observed_snapshot(ops, truth)),
    }
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
    use rld_engine::{RodStrategy, Simulator};
    use rld_physical::RodPlanner;
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

    fn exec_config(duration_secs: f64) -> ExecConfig {
        ExecConfig::from_sim(SimConfig {
            duration_secs,
            ..SimConfig::default()
        })
    }

    #[test]
    fn executor_processes_real_tuples_end_to_end() {
        let q = Query::q1_stock_monitoring();
        let cluster = Cluster::homogeneous(4, capacity_for(&q, 3.0)).unwrap();
        let exec = ThreadedExecutor::new(q.clone(), cluster.clone(), exec_config(30.0)).unwrap();
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
        let exec = ThreadedExecutor::new(q.clone(), cluster.clone(), exec_config(20.0)).unwrap();
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

        let exec =
            ThreadedExecutor::new(q.clone(), cluster.clone(), ExecConfig::from_sim(sim_config))
                .unwrap();
        let mut rod_exec = rod_strategy(&q, &cluster);
        let (exec_metrics, exec_trace) = exec.run_traced(&workload, &mut rod_exec).unwrap();

        assert_eq!(sim_trace, exec_trace, "identical routing per batch");
        assert_eq!(sim_metrics.tuples_arrived, exec_metrics.tuples_arrived);
        assert_eq!(sim_metrics.batches, exec_metrics.batches);
        assert_eq!(sim_metrics.migrations, exec_metrics.migrations);
        assert_eq!(sim_metrics.plan_switches, exec_metrics.plan_switches);
    }

    #[test]
    fn crashed_worker_loses_tuples_for_a_static_strategy() {
        use rld_engine::RecoverySemantic;
        let q = Query::q1_stock_monitoring();
        let cluster = Cluster::homogeneous(4, capacity_for(&q, 3.0)).unwrap();
        let workload = StockWorkload::new(20.0, RatePattern::Constant(1.0));
        let mut rod = rod_strategy(&q, &cluster);
        let victim = (0..4)
            .map(rld_common::NodeId::new)
            .find(|n| !rod.physical().operators_on(*n).is_empty())
            .unwrap();
        let exec = ThreadedExecutor::new(q.clone(), cluster.clone(), exec_config(40.0))
            .unwrap()
            .with_faults(FaultPlan::node_crash(victim, 10.0, 30.0, RecoverySemantic::Lost).unwrap())
            .unwrap();
        let m = exec.run(&workload, &mut rod).unwrap();
        assert_eq!(m.fault_events, 2);
        assert!(m.tuples_lost > 0, "{m:?}");
        assert!(m.reroutes > 0, "{m:?}");
        assert!(m.downtime_node_secs > 0.0);
        assert!(m.capacity_available_fraction < 1.0);
        assert!(m.tuples_processed < m.tuples_arrived);
    }

    #[test]
    fn config_validation() {
        let q = Query::q1_stock_monitoring();
        let cluster = Cluster::homogeneous(2, 100.0).unwrap();
        assert!(ThreadedExecutor::new(q.clone(), cluster.clone(), ExecConfig::default()).is_ok());
        let bad = exec_config(0.0);
        assert!(ThreadedExecutor::new(q, cluster, bad).is_err());
    }
}
