//! The columnar execution backend: a shard-parallel dataplane driven by the
//! exact same [`RuntimeCore`] policy loop as the simulator and the threaded
//! executor.
//!
//! ## Design
//!
//! The threaded executor ships every driving batch through per-node worker
//! threads, each evaluating the sub-chain pinned to its node, and hops the
//! surviving selection over `sync_channel`s. This backend keeps the *policy*
//! loop bit-identical (same `RuntimeCore` call order, same RNG draws, same
//! `RunTrace`) and the *kernel* identical (same [`FusedChain`]s, generators
//! and [`WindowPartition`]s — the threaded coordinator runs this module's
//! `ShardCore` as its single shard) but schedules it as a shard-parallel
//! pipeline in which the coordinator only routes, dispatches, and folds
//! counters — it never touches a tuple:
//!
//! * **Generation-in-shards.** Driving arrivals are generated *inside* the
//!   shard workers from [`ShardedDrivingGen`]'s per-(tick, row) splitmix64
//!   substreams: the coordinator ships `(tick, n, lo, hi)` plus a per-tick
//!   [`MatchColumn`] plan, and each shard fills its contiguous row range of
//!   the tick's batch into a reusable [`ColumnBatch`] arena. Because every
//!   row's RNG depends only on its coordinates, the concatenation over any
//!   sharding is bit-identical to single-threaded generation. Partner
//!   arrivals are generated the same way from [`ShardedPartnerGen`]'s
//!   per-(tick, stream, row) substreams: each shard derives exactly the
//!   arrivals whose key hash lands in its partition from `(tick, t, dt,
//!   truth)` scalars, so the coordinator never materializes, partitions, or
//!   ships a partner tuple and dispatch cost stops scaling with partner
//!   volume.
//! * **Partitioned window state.** Each window-join operator's sliding
//!   window is split across shards by partner-tuple key hash
//!   ([`WindowPartition`]). Inserts and expiry run inside shard workers as
//!   sorted-run maintenance; each tick the shards publish refreshed
//!   signed-term [`MarkTerms`] snapshots which the coordinator folds into
//!   one [`ProbeSet`]. Probing sums exact integer match counts over the
//!   partitions and terms, so neither the partitioning nor the run structure
//!   can ever change a result.
//! * **Pipelined ticks.** The tick loop is a depth-1 pipeline, not a barrier
//!   chain. Window maintenance for tick *t* is dispatched at the end of
//!   iteration *t − 1*, so it runs on the shards while the coordinator
//!   observes, consults the strategy, and routes tick *t*; its refreshed
//!   snapshots are folded into an epoch-tagged [`ProbeSet`] right before
//!   evaluation dispatch. Evaluation replies are folded at the top of the
//!   *next* iteration, so a shard rolls from evaluating tick *t* straight
//!   into maintaining tick *t + 1* without a coordinator round-trip between
//!   them. Every batch still probes an immutable `Arc` snapshot of the
//!   window contents as of its own tick — pipelining moves wall-clock work,
//!   never observable state.
//! * Each routed logical plan is compiled **once** into a [`FusedChain`] —
//!   filter → passthrough-project → join-probe steps evaluated over reusable
//!   selection vectors, with branch-free predicate kernels on dense columns
//!   and batched galloping probe kernels instead of `O(window)` scans.
//! * Tasks and replies travel over lock-free SPSC [`ring`]s — one task ring
//!   and one reply ring per shard. With a single shard the executor skips
//!   threads and rings entirely and runs the shard core inline in the
//!   coordinator, preserving the exact task/reply order of the pipeline.
//!
//! ## Determinism
//!
//! The coordinator folds a tick's evaluation replies back before recording
//! its batch, and a tick's maintenance snapshots before dispatching its
//! evaluation — the pipeline is deeper than the old barrier chain but every
//! ordering the runtime core observes is unchanged. Combined with snapshot
//! probing — every row of a batch probes the window contents *as of its
//! ingest tick* — this makes arrived / processed / lost / produced counts
//! and observed per-operator selectivities bit-deterministic per seed **and
//! per shard count**, even under faults and even with
//! [`MonitorSource::Observed`]; only wall-clock-derived fields (latencies,
//! busy/overhead milliseconds, utilization, stage timings) vary run to run.
//! Fault-free the threaded executor computes the same results (same tuples,
//! same per-tick probe epochs); under faults it can't promise that much:
//! which envelopes are in flight when a crash lands depends on how its
//! workers race the virtual clock. The differential oracle in
//! `tests/tests/columnar_oracle.rs` pins down exactly the shared
//! deterministic surface.
//!
//! Fault semantics under this model: a crash under `Lost` recovery clears
//! the window partitions of operators placed on the crashed node — every
//! shard drops exactly the victim's partitions at the top of the tick, same
//! observable effect as on the threaded executor — and tuples are lost
//! **at ingest**: a
//! batch routed through a down node is dropped by the coordinator before
//! dispatch. There are no in-flight envelopes to bounce or park, so
//! `arrived == processed + lost` holds exactly, and `Replay` differs from
//! `Lost` only in preserving window state across the outage. A degraded
//! node affects routing and capacity accounting; shard workers are not
//! artificially slowed (they are compute shards, not the logical nodes the
//! fault plane models).

// The one module allowed to contain `unsafe` in the whole workspace: the
// crate root denies it, every other crate forbids it, and `rld-analysis`
// rule U1 pins the boundary to exactly this file (with its acquire/release
// protocol exhaustively model-checked by `rld_analysis::ringmodel`).
#[allow(unsafe_code)]
mod ring;

pub use ring::{ring, Consumer, Producer};

use crate::executor::{
    migration_pause_ms, observed_snapshot, ExecConfig, ExecReport, MonitorSource, StageTimings,
};
use rld_common::rng::derive_seed;
use rld_common::{
    ColumnBatch, CompiledOp, EvalScratch, FusedChain, MarkTerms, NodeId, OpCounts, OperatorId,
    OperatorKind, ProbeSet, Query, Result, RldError, StatsSnapshot, StreamId, WindowPartition,
};
use rld_engine::{
    BackendTotals, DistributionStrategy, FaultKind, FaultPlan, RecoverySemantic, RunMetrics,
    RunTrace, RuntimeCore,
};
use rld_physical::{Cluster, ClusterView, PhysicalPlan};
use rld_query::LogicalPlan;
use rld_workloads::{MatchColumn, ShardedDrivingGen, ShardedPartnerGen, Workload};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Capacity of each SPSC task/reply ring, in tasks.
const RING_CAPACITY: usize = 4;

/// Configuration of the columnar executor: the shared [`ExecConfig`]
/// (experiment parameters, monitor source) plus the shard count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColumnarConfig {
    /// The shared executor parameters.
    pub exec: ExecConfig,
    /// Shard workers a tick's work fans out across. `0` = one per available
    /// CPU core (sanity ceiling 256). With one shard the executor runs the
    /// shard core inline — no threads, no rings.
    pub shards: usize,
}

impl ColumnarConfig {
    /// Columnar defaults around the shared executor configuration.
    pub fn from_exec(exec: ExecConfig) -> Self {
        Self { exec, shards: 0 }
    }

    /// Columnar defaults around the shared experiment parameters.
    pub fn from_sim(sim: rld_engine::SimConfig) -> Self {
        Self::from_exec(ExecConfig::from_sim(sim))
    }

    /// The shard count after resolving `0 = auto` (the machine's available
    /// parallelism, clamped to the 256 sanity ceiling).
    pub fn effective_shards(&self) -> usize {
        if self.shards > 0 {
            self.shards
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .clamp(1, 256)
        }
    }

    /// Validate the columnar-specific parameters.
    pub fn validate(&self) -> Result<()> {
        if self.shards > 256 {
            return Err(RldError::InvalidArgument(format!(
                "{} shards is past any plausible core count",
                self.shards
            )));
        }
        Ok(())
    }
}

impl Default for ColumnarConfig {
    fn default() -> Self {
        Self::from_exec(ExecConfig::default())
    }
}

/// What the coordinator asks of a shard. Tick `t`'s work arrives as up to
/// two tasks per shard, in FIFO order: an `Eval` for tick `t` when the tick
/// has dispatchable arrivals, then the `Maint` advancing the shard's windows
/// to tick `t + 1` — so a shard rolls from evaluation straight into next-tick
/// maintenance without a coordinator round-trip in between.
enum ShardTask {
    /// Advance the shard's window partitions to `now_ms`: crash-clears
    /// first, then this shard's partition of the tick's partner arrivals
    /// (derived shard-locally from per-(tick, stream, row) substreams —
    /// only scalars travel), then expiry.
    Maint {
        tick: u64,
        now_ms: u64,
        t_secs: f64,
        dt_secs: f64,
        truth: Arc<StatsSnapshot>,
        clear_ops: Arc<Vec<OperatorId>>,
    },
    /// Generate rows `[lo, hi)` of the tick's `n`-row driving batch and
    /// evaluate the fused chain over them against the epoch's probes.
    Eval {
        tick: u64,
        t_secs: f64,
        dt_secs: f64,
        n: u64,
        lo: u64,
        hi: u64,
        plan: Arc<Vec<MatchColumn>>,
        chain: Arc<FusedChain>,
        probes: Arc<ProbeSet>,
    },
}

/// What one shard's generate-and-evaluate of its row range measured.
struct EvalOut {
    produced: u64,
    counts: Vec<OpCounts>,
    generate: Duration,
    evaluate: Duration,
    error: Option<String>,
}

/// A shard's reply to one task (pushed in task order, so the coordinator
/// can match replies to tasks positionally per ring).
enum ShardReply {
    /// Refreshed signed-term snapshots of every window partition whose
    /// contents changed.
    Maint {
        dirty: Vec<(OperatorId, MarkTerms)>,
        window: Duration,
    },
    /// The evaluation results of one row range.
    Eval(EvalOut),
}

/// An evaluation round in flight: dispatched at its tick, folded (and its
/// batch recorded) at the top of the next iteration.
struct PendingEval {
    n_tuples: u64,
    t_secs: f64,
    ingest: Instant,
    shards: Vec<usize>,
}

/// Everything one shard owns: its view of the driving and partner generator
/// substream spaces, its partition of every window-join operator's sliding
/// window, and reusable batch/selection/count arenas.
pub(crate) struct ShardCore {
    pub(crate) gen: ShardedDrivingGen,
    pgen: ShardedPartnerGen,
    shard: u64,
    shards: u64,
    /// Per-operator window partitions (window-join operators only), paired
    /// with the partner stream whose arrivals feed them.
    windows: Vec<Option<(StreamId, WindowPartition)>>,
    changed: Vec<bool>,
    batch: ColumnBatch,
    sel: Vec<u32>,
    scratch: Vec<u32>,
    arena: EvalScratch,
    counts: Vec<OpCounts>,
}

impl ShardCore {
    pub(crate) fn new(query: &Query, seed: u64, shard: usize, shards: usize) -> Self {
        let window_ms = (query.window_secs * 1000.0).max(0.0) as u64;
        let windows: Vec<Option<(StreamId, WindowPartition)>> = query
            .operators
            .iter()
            .map(|spec| match spec.kind {
                OperatorKind::WindowJoin { partner } => {
                    Some((partner, WindowPartition::new(window_ms)))
                }
                _ => None,
            })
            .collect();
        let gen = ShardedDrivingGen::new(query, seed);
        let arity = gen.arity();
        Self {
            changed: vec![false; windows.len()],
            windows,
            batch: ColumnBatch::with_arity(query.driving_stream, arity),
            sel: Vec::new(),
            scratch: Vec::new(),
            arena: EvalScratch::new(),
            counts: Vec::new(),
            gen,
            pgen: ShardedPartnerGen::new(query, seed),
            shard: shard as u64,
            shards: shards as u64,
        }
    }

    /// One tick of window maintenance, in the canonical order: crash-clears,
    /// then derive and insert this shard's partition of the tick's partner
    /// arrivals, then expire — returning the refreshed signed-term snapshot
    /// of every partition that changed.
    pub(crate) fn maint(
        &mut self,
        tick: u64,
        now_ms: u64,
        t_secs: f64,
        dt_secs: f64,
        truth: &StatsSnapshot,
        clear_ops: &[OperatorId],
    ) -> (Vec<(OperatorId, MarkTerms)>, Duration) {
        let started = Instant::now();
        for op in clear_ops {
            if let Some((_, part)) = &mut self.windows[op.index()] {
                part.clear();
                self.changed[op.index()] = true;
            }
        }
        let partners =
            self.pgen
                .fill_partition(tick, t_secs, dt_secs, truth, self.shard, self.shards);
        for (i, slot) in self.windows.iter_mut().enumerate() {
            let Some((stream, part)) = slot else { continue };
            let (ts, marks) = partners
                .iter()
                .find(|p| p.stream == *stream)
                .map(|p| (p.ts_ms.as_slice(), p.marks.as_slice()))
                .unwrap_or((&[], &[]));
            if part.advance(now_ms, ts, marks) {
                self.changed[i] = true;
            }
        }
        let mut dirty = Vec::new();
        for (i, changed) in self.changed.iter_mut().enumerate() {
            if *changed {
                if let Some((_, part)) = &self.windows[i] {
                    dirty.push((OperatorId::new(i), part.snapshot()));
                }
                *changed = false;
            }
        }
        (dirty, started.elapsed())
    }

    /// Generate rows `[lo, hi)` of the tick's driving batch into the local
    /// arena and evaluate the fused chain over them.
    #[allow(clippy::too_many_arguments)]
    fn gen_eval(
        &mut self,
        tick: u64,
        t_secs: f64,
        dt_secs: f64,
        n: u64,
        lo: u64,
        hi: u64,
        plan: &[MatchColumn],
        chain: &FusedChain,
        probes: &ProbeSet,
    ) -> EvalOut {
        let started = Instant::now();
        self.batch.clear();
        self.gen
            .fill_slice(&mut self.batch, plan, tick, t_secs, dt_secs, n, lo, hi);
        self.sel.clear();
        self.sel.extend(0..self.batch.len() as u32);
        let generate = started.elapsed();
        let eval_started = Instant::now();
        self.counts.clear();
        let error = chain
            .eval(
                &self.batch,
                probes,
                &mut self.sel,
                &mut self.scratch,
                &mut self.counts,
                &mut self.arena,
            )
            .err()
            .map(|e| e.to_string());
        EvalOut {
            produced: self.sel.len() as u64,
            counts: std::mem::take(&mut self.counts),
            generate,
            evaluate: eval_started.elapsed(),
            error,
        }
    }
}

/// Run one task on a shard core — shared by the threaded worker loop and
/// the single-shard inline path, so both execute tasks identically.
fn run_task(core: &mut ShardCore, task: ShardTask) -> ShardReply {
    match task {
        ShardTask::Maint {
            tick,
            now_ms,
            t_secs,
            dt_secs,
            truth,
            clear_ops,
        } => {
            let (dirty, window) = core.maint(tick, now_ms, t_secs, dt_secs, &truth, &clear_ops);
            ShardReply::Maint { dirty, window }
        }
        ShardTask::Eval {
            tick,
            t_secs,
            dt_secs,
            n,
            lo,
            hi,
            plan,
            chain,
            probes,
        } => ShardReply::Eval(
            core.gen_eval(tick, t_secs, dt_secs, n, lo, hi, &plan, &chain, &probes),
        ),
    }
}

/// The shard worker loop: pop a task, run it on the shard core, push the
/// reply. Exits when the task ring closes.
fn run_shard(mut core: ShardCore, tasks: Consumer<ShardTask>, results: Producer<ShardReply>) {
    let mut idle_polls = 0u32;
    loop {
        match tasks.try_pop() {
            Some(task) => {
                idle_polls = 0;
                let reply = run_task(&mut core, task);
                if results.push_blocking(reply).is_err() {
                    return;
                }
            }
            None => {
                if tasks.is_closed() {
                    return;
                }
                idle_polls += 1;
                if idle_polls > 256 {
                    std::thread::sleep(Duration::from_micros(50));
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// The columnar execution backend: shard workers (threaded over SPSC rings,
/// or inline for a single shard) driven by the same [`RuntimeCore`] as the
/// simulator and the threaded executor.
pub struct ColumnarExecutor {
    query: Query,
    cluster: Cluster,
    config: ColumnarConfig,
    faults: FaultPlan,
}

impl ColumnarExecutor {
    /// Create a columnar executor for a query on a cluster (fault-free).
    pub fn new(query: Query, cluster: Cluster, config: ColumnarConfig) -> Result<Self> {
        config.validate()?;
        config.exec.sim.validate()?;
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
    pub fn config(&self) -> &ColumnarConfig {
        &self.config
    }

    /// Run one strategy against a workload on the columnar dataplane.
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
        self.run_report(workload, strategy, true).map(|report| {
            let trace = report.trace.expect("trace was enabled");
            (report.metrics, trace)
        })
    }

    /// The modelled wall-millisecond pause of a migration set — same model
    /// as the threaded executor's `apply_migrations`, but charged as overhead
    /// instead of sleeping a worker (there is no per-node worker to pause).
    fn modelled_pause_ms(&self, decisions: &[rld_physical::MigrationDecision]) -> Result<f64> {
        let mut total = 0.0;
        for d in decisions {
            if d.from.index() >= self.cluster.num_nodes()
                || d.to.index() >= self.cluster.num_nodes()
            {
                return Err(RldError::Runtime(format!(
                    "migration of {} names a node outside the {}-node cluster ({} -> {})",
                    d.operator,
                    self.cluster.num_nodes(),
                    d.from,
                    d.to
                )));
            }
            total += migration_pause_ms(d);
        }
        Ok(total)
    }

    /// Run one strategy and report everything measured.
    ///
    /// The coordinator loop mirrors `ThreadedExecutor::run_report`'s
    /// `RuntimeCore` call order *exactly* — fault events, observation,
    /// strategy dispatch, arrival sampling, routing, ingest-drop accounting,
    /// batch recording, node accounting — so per seed the two backends
    /// replay identical `RunTrace`s. The tick pipeline only moves work the
    /// core never sees: window maintenance of tick *t* is dispatched at the
    /// end of iteration *t − 1* (overlapping observation, strategy, and
    /// routing), evaluation replies fold at the top of iteration *t + 1*
    /// (right before the batch is recorded), and crash accounting discovered
    /// while pre-advancing the fault plane is deferred until the previous
    /// batch has closed its recovery window — so every core call lands in
    /// the barrier loop's order.
    pub fn run_report(
        &self,
        workload: &dyn Workload,
        strategy: &mut dyn DistributionStrategy,
        traced: bool,
    ) -> Result<ExecReport> {
        let num_nodes = self.cluster.num_nodes();
        let mut core = RuntimeCore::new(
            self.query.clone(),
            num_nodes,
            self.config.exec.sim,
            self.faults.clone(),
            strategy.name(),
        )?;
        if traced {
            core = core.with_trace();
        }

        // Coordinator-owned canonical state: compiled operators (observed
        // counters, chain compilation). Window *contents* live in the
        // shards' partitions; partner arrivals are derived inside shards.
        let mut ops: Vec<CompiledOp> = self
            .query
            .operators
            .iter()
            .map(|spec| CompiledOp::compile(&self.query, spec, self.config.exec.sim.seed))
            .collect();
        let gen_seed = derive_seed(self.config.exec.sim.seed, strategy.name());
        // Coordinator-side twin of the shards' generator, used only to
        // compute the per-tick match-column plan (no draws).
        let plan_gen = ShardedDrivingGen::new(&self.query, gen_seed);
        let shards = self.config.effective_shards();
        let inline = shards == 1;
        let replay = self.faults.recovery == RecoverySemantic::Replay;
        let mut cores: Vec<ShardCore> = (0..shards)
            .map(|s| ShardCore::new(&self.query, gen_seed, s, shards))
            .collect();

        // One task ring and one reply ring per shard (threaded mode only).
        let mut task_txs = Vec::new();
        let mut task_rxs = Vec::new();
        let mut result_txs = Vec::new();
        let mut result_rxs = Vec::new();
        if !inline {
            for _ in 0..shards {
                let (tx, rx) = ring::<ShardTask>(RING_CAPACITY);
                task_txs.push(tx);
                task_rxs.push(rx);
                let (tx, rx) = ring::<ShardReply>(RING_CAPACITY);
                result_txs.push(tx);
                result_rxs.push(rx);
            }
        }

        let wall_start = Instant::now();
        std::thread::scope(|scope| -> Result<ExecReport> {
            let mut workers = Vec::new();
            if !inline {
                for ((tasks, results), shard_core) in task_rxs
                    .drain(..)
                    .zip(result_txs.drain(..))
                    .zip(cores.drain(..))
                {
                    workers.push(scope.spawn(move || run_shard(shard_core, tasks, results)));
                }
            }
            // In inline mode a dispatched task runs right here and its reply
            // queues for the matching fold point — the exact task/reply FIFO
            // order of a threaded shard, without threads.
            let mut inline_q: VecDeque<ShardReply> = VecDeque::new();
            let send = |s: usize,
                        task: ShardTask,
                        cores: &mut [ShardCore],
                        inline_q: &mut VecDeque<ShardReply>|
             -> Result<()> {
                if inline {
                    let reply = run_task(&mut cores[0], task);
                    inline_q.push_back(reply);
                    Ok(())
                } else {
                    task_txs[s].push_blocking(task).map_err(|_| {
                        RldError::Runtime("shard worker hung up during dispatch".into())
                    })
                }
            };
            // Wait for one reply from every shard in `pending`, folding via
            // `fold`. Reply rings are per-shard FIFO and tasks of one kind
            // are never dispatched twice without an intervening fold, so the
            // popped reply is the one awaited.
            let collect = |pending: &mut Vec<usize>,
                           inline_q: &mut VecDeque<ShardReply>,
                           result_rxs: &[Consumer<ShardReply>],
                           workers: &[std::thread::ScopedJoinHandle<'_, ()>],
                           fold: &mut dyn FnMut(usize, ShardReply) -> Result<()>|
             -> Result<()> {
                if inline {
                    while let Some(s) = pending.pop() {
                        let reply = inline_q.pop_front().ok_or_else(|| {
                            RldError::Runtime("inline shard reply missing".into())
                        })?;
                        fold(s, reply)?;
                    }
                    return Ok(());
                }
                while !pending.is_empty() {
                    let mut idle = true;
                    let mut failed = None;
                    pending.retain(|&s| {
                        if failed.is_some() {
                            return true;
                        }
                        match result_rxs[s].try_pop() {
                            Some(reply) => {
                                idle = false;
                                if let Err(e) = fold(s, reply) {
                                    failed = Some(e);
                                }
                                false
                            }
                            None => true,
                        }
                    });
                    if let Some(e) = failed {
                        return Err(e);
                    }
                    if idle {
                        if workers.iter().any(|w| w.is_finished()) {
                            return Err(RldError::Runtime("shard worker exited mid-run".into()));
                        }
                        std::hint::spin_loop();
                        std::thread::yield_now();
                    }
                }
                Ok(())
            };
            // Fold one in-flight evaluation round: drain its shard replies,
            // fold observed counters and timings, then record the batch —
            // closing any crash-recovery window pending at the core.
            #[allow(clippy::too_many_arguments)]
            let fold_eval = |pe: PendingEval,
                             core: &mut RuntimeCore,
                             ops: &mut [CompiledOp],
                             inline_q: &mut VecDeque<ShardReply>,
                             result_rxs: &[Consumer<ShardReply>],
                             workers: &[std::thread::ScopedJoinHandle<'_, ()>],
                             stage: &mut StageTimings,
                             tick_busy: &mut [f64],
                             busy_total: &mut Duration,
                             tuples_processed: &mut u64|
             -> Result<()> {
                let mut produced = 0u64;
                let mut pending = pe.shards;
                collect(
                    &mut pending,
                    inline_q,
                    result_rxs,
                    workers,
                    &mut |s, reply| match reply {
                        ShardReply::Eval(out) => {
                            if let Some(msg) = out.error {
                                return Err(RldError::Runtime(msg));
                            }
                            produced += out.produced;
                            *busy_total += out.generate + out.evaluate;
                            stage.generate_ms += out.generate.as_secs_f64() * 1000.0;
                            stage.evaluate_ms += out.evaluate.as_secs_f64() * 1000.0;
                            let busy = (out.generate + out.evaluate).as_secs_f64() * 1000.0;
                            stage.shard_busy_ms[s] += busy;
                            tick_busy[s] += busy;
                            for c in &out.counts {
                                ops[c.op.index()].note_observed(c.inputs, c.outputs);
                            }
                            Ok(())
                        }
                        ShardReply::Maint { .. } => {
                            Err(RldError::Runtime("shard replied out of order".into()))
                        }
                    },
                )?;
                *tuples_processed += pe.n_tuples;
                core.record_batch(
                    pe.n_tuples,
                    pe.ingest.elapsed().as_secs_f64() * 1000.0,
                    produced,
                    pe.t_secs,
                );
                Ok(())
            };

            let dt = self.config.exec.sim.tick_secs;
            let duration = self.config.exec.sim.duration_secs;
            let mut view = ClusterView::all_up(&self.cluster);
            let mut placement = Arc::new(strategy.physical().clone());
            let mut up = vec![true; num_nodes];
            let mut factor = vec![1.0f64; num_nodes];
            let mut tuples_processed: u64 = 0;
            let mut stage = StageTimings {
                shard_busy_ms: vec![0.0; shards],
                shard_idle_ms: vec![0.0; shards],
                ..StageTimings::default()
            };
            // Busy ms each shard accumulated in the current pipeline round
            // (one maintenance fold + one evaluation fold), for the skew
            // high-water mark.
            let mut tick_busy = vec![0.0f64; shards];
            let mut pause_ms_total = 0.0f64;
            let mut busy_total = Duration::ZERO;
            let mut max_backlog = 0u64;
            let mut ticks = 0u64;
            let mut t = 0.0f64;
            // The probe snapshot the next dispatch ships.
            let mut probes = Arc::new(initial_probes(&ops, shards));
            // Fused chains are compiled once per routed logical plan.
            let mut chain_cache: Option<(Arc<LogicalPlan>, Arc<FusedChain>)> = None;

            // Advance the fault plane to `at` on the virtual timeline,
            // exactly as in the simulator and the threaded executor. Crash notes
            // are *counted*, not applied: the caller applies them after the
            // in-flight batch records, so a crash never closes the previous
            // tick's recovery window early. Lost-semantics crashes become a
            // clear list the shards apply at the top of the next
            // maintenance round, before partner inserts.
            let advance_faults = |core: &mut RuntimeCore,
                                  at: f64,
                                  up: &mut [bool],
                                  factor: &mut [f64],
                                  placement: &PhysicalPlan|
             -> (bool, Vec<OperatorId>, u32) {
                let mut changed = false;
                let mut clear_ops: Vec<OperatorId> = Vec::new();
                let mut crashes = 0u32;
                while let Some(event) = core.next_fault_due(at) {
                    match event.kind {
                        FaultKind::Crash => {
                            up[event.node.index()] = false;
                            if !replay {
                                for op in self.query.operator_ids() {
                                    if placement.node_of(op) == Some(event.node) {
                                        clear_ops.push(op);
                                    }
                                }
                            }
                            crashes += 1;
                        }
                        FaultKind::Recover => up[event.node.index()] = true,
                        FaultKind::Degrade { factor: f } => factor[event.node.index()] = f,
                        FaultKind::Restore => factor[event.node.index()] = 1.0,
                    }
                    changed = true;
                }
                (changed, clear_ops, crashes)
            };

            // Pipeline state. `pending_eval` is the evaluation round still
            // in flight (folded at the top of the next iteration);
            // `maint_pending` the maintenance round in flight (folded after
            // routing); `deferred_crashes` / `cluster_changed` / `truth`
            // carry the pre-computed next tick across the loop boundary.
            let mut pending_eval: Option<PendingEval> = None;
            let mut maint_pending: Vec<usize> = Vec::new();
            let mut deferred_crashes = 0u32;
            let mut cluster_changed = false;
            let mut truth = Arc::new(workload.stats_at(0.0));

            // Prologue: tick 0's fault effects and maintenance round are
            // dispatched before the loop, as iteration t dispatches t+1's.
            if duration > 0.0 {
                let (changed, clear_ops, crashes) =
                    advance_faults(&mut core, 0.0, &mut up, &mut factor, &placement);
                cluster_changed = changed;
                deferred_crashes = crashes;
                let clear = Arc::new(clear_ops);
                for s in 0..shards {
                    let task = ShardTask::Maint {
                        tick: 0,
                        now_ms: 0,
                        t_secs: 0.0,
                        dt_secs: dt,
                        truth: Arc::clone(&truth),
                        clear_ops: Arc::clone(&clear),
                    };
                    send(s, task, &mut cores, &mut inline_q)?;
                }
                maint_pending = (0..shards).collect();
            }

            while t < duration {
                // Fold the previous tick's evaluation round first: its
                // batch must record (closing any crash-recovery window)
                // before this tick's crash notes land.
                if let Some(pe) = pending_eval.take() {
                    let fold_started = Instant::now();
                    fold_eval(
                        pe,
                        &mut core,
                        &mut ops,
                        &mut inline_q,
                        &result_rxs,
                        &workers,
                        &mut stage,
                        &mut tick_busy,
                        &mut busy_total,
                        &mut tuples_processed,
                    )?;
                    stage.fold_ms += fold_started.elapsed().as_secs_f64() * 1000.0;
                }
                for _ in 0..deferred_crashes {
                    core.note_crash(t, 0.0);
                }
                deferred_crashes = 0;
                if cluster_changed {
                    for i in 0..num_nodes {
                        view.set_up(NodeId::new(i), up[i]);
                        view.set_capacity_factor(NodeId::new(i), factor[i]);
                    }
                }

                match self.config.exec.monitor {
                    MonitorSource::Truth => core.observe(t, &truth),
                    MonitorSource::Observed => {
                        let observed = observed_snapshot(&ops, &truth);
                        core.observe(t, &observed);
                    }
                }

                // Strategy dispatch, in the simulator's exact order. The
                // migration pause is charged as modelled overhead.
                if cluster_changed {
                    let decisions = {
                        let ctx = core.context(t, &self.cluster);
                        strategy.on_cluster_change(&ctx, &view, core.monitored())?
                    };
                    pause_ms_total += self.modelled_pause_ms(&decisions)?;
                    core.note_migrations(t, &decisions);
                    if !decisions.is_empty() {
                        placement = Arc::new(strategy.physical().clone());
                    }
                }
                let decisions = {
                    let ctx = core.context(t, &self.cluster);
                    strategy.maybe_migrate(&ctx, core.monitored())?
                };
                pause_ms_total += self.modelled_pause_ms(&decisions)?;
                core.note_migrations(t, &decisions);
                if !decisions.is_empty() {
                    placement = Arc::new(strategy.physical().clone());
                }
                cluster_changed = false;

                // Routing stage (the only core interaction between arrival
                // sampling and ingest accounting).
                let n_tuples = core.sample_arrivals(&truth);
                let mut routed_info = None;
                if n_tuples > 0 {
                    let route_started = Instant::now();
                    let routed = core.route(&mut *strategy, &truth, num_nodes, t)?;
                    let down = routed.pipeline_nodes.iter().any(|node| !view.is_up(*node));
                    routed_info = Some((
                        !routed.pipeline_nodes.is_empty(),
                        core.current_plan().cloned(),
                        down,
                    ));
                    stage.route_ms += route_started.elapsed().as_secs_f64() * 1000.0;
                }

                // Fold this tick's window-maintenance round (dispatched at
                // the end of the previous iteration, overlapped with the
                // folds and routing above) and publish the probe epoch the
                // evaluation round reads.
                let fold_started = Instant::now();
                let mut window_dur = Duration::ZERO;
                let mut tick_dirty: Vec<(usize, OperatorId, MarkTerms)> = Vec::new();
                collect(
                    &mut maint_pending,
                    &mut inline_q,
                    &result_rxs,
                    &workers,
                    &mut |s, reply| match reply {
                        ShardReply::Maint { dirty, window } => {
                            window_dur += window;
                            let busy = window.as_secs_f64() * 1000.0;
                            stage.shard_busy_ms[s] += busy;
                            tick_busy[s] += busy;
                            tick_dirty.extend(dirty.into_iter().map(|(op, terms)| (s, op, terms)));
                            Ok(())
                        }
                        ShardReply::Eval(_) => {
                            Err(RldError::Runtime("shard replied out of order".into()))
                        }
                    },
                )?;
                if !tick_dirty.is_empty() {
                    let mut next = (*probes).clone();
                    for (s, op, terms) in tick_dirty {
                        next.set_partition(op, s, terms);
                    }
                    probes = Arc::new(next);
                }
                stage.fold_ms += fold_started.elapsed().as_secs_f64() * 1000.0;
                stage.window_ms += window_dur.as_secs_f64() * 1000.0;
                busy_total += window_dur;

                // Evaluation dispatch: ship (tick, row range, plan) to the
                // shards — generation happens there — and leave the round
                // in flight; it folds at the top of the next iteration (or
                // drop at ingest when the route crosses a down node). Only
                // task construction counts as dispatch; inline execution of
                // the sent task is shard work, not coordinator work.
                if let Some((has_first, plan, down)) = routed_info {
                    if down {
                        core.note_dropped_batch(n_tuples);
                    } else if let (true, Some(plan)) = (has_first, plan) {
                        let dispatch_started = Instant::now();
                        let chain = match &chain_cache {
                            Some((cached, chain)) if Arc::ptr_eq(cached, &plan) => {
                                Arc::clone(chain)
                            }
                            _ => {
                                let chain = Arc::new(FusedChain::compile(&ops, plan.ordering())?);
                                chain_cache = Some((Arc::clone(&plan), Arc::clone(&chain)));
                                chain
                            }
                        };
                        let mplan = Arc::new(plan_gen.match_plan(&truth));
                        let mut tasks: Vec<(usize, ShardTask)> = Vec::with_capacity(shards);
                        for s in 0..shards {
                            let lo = s as u64 * n_tuples / shards as u64;
                            let hi = (s as u64 + 1) * n_tuples / shards as u64;
                            if hi <= lo {
                                continue;
                            }
                            tasks.push((
                                s,
                                ShardTask::Eval {
                                    tick: ticks,
                                    t_secs: t,
                                    dt_secs: dt,
                                    n: n_tuples,
                                    lo,
                                    hi,
                                    plan: Arc::clone(&mplan),
                                    chain: Arc::clone(&chain),
                                    probes: Arc::clone(&probes),
                                },
                            ));
                        }
                        stage.dispatch_ms += dispatch_started.elapsed().as_secs_f64() * 1000.0;
                        let ingest = Instant::now();
                        let mut dispatched: Vec<usize> = Vec::with_capacity(tasks.len());
                        for (s, task) in tasks {
                            send(s, task, &mut cores, &mut inline_q)?;
                            dispatched.push(s);
                        }
                        max_backlog = max_backlog.max(dispatched.len() as u64);
                        pending_eval = Some(PendingEval {
                            n_tuples,
                            t_secs: t,
                            ingest,
                            shards: dispatched,
                        });
                    }
                }

                // Skew high-water mark over the round that just folded
                // (previous eval + this maintenance).
                if shards > 1 {
                    let max = tick_busy.iter().fold(f64::MIN, |a, &b| a.max(b));
                    let min = tick_busy.iter().fold(f64::MAX, |a, &b| a.min(b));
                    stage.max_shard_skew_ms = stage.max_shard_skew_ms.max(max - min);
                }
                for b in tick_busy.iter_mut() {
                    *b = 0.0;
                }

                // Node accounting for this tick, with this tick's view.
                for i in 0..num_nodes {
                    let effective = if up[i] {
                        self.cluster.capacity(NodeId::new(i)) * factor[i]
                    } else {
                        0.0
                    };
                    core.account_node(dt, up[i], effective);
                }

                // Pre-compute the next tick while shards evaluate this one:
                // advance the fault plane, snapshot truth, and ship the
                // next maintenance round behind the eval tasks.
                ticks += 1;
                let next_t = t + dt;
                if next_t < duration {
                    let (changed, clear_ops, crashes) =
                        advance_faults(&mut core, next_t, &mut up, &mut factor, &placement);
                    cluster_changed = changed;
                    deferred_crashes = crashes;
                    truth = Arc::new(workload.stats_at(next_t));
                    let clear = Arc::new(clear_ops);
                    let dispatch_started = Instant::now();
                    let tasks: Vec<ShardTask> = (0..shards)
                        .map(|_| ShardTask::Maint {
                            tick: ticks,
                            now_ms: (next_t * 1000.0) as u64,
                            t_secs: next_t,
                            dt_secs: dt,
                            truth: Arc::clone(&truth),
                            clear_ops: Arc::clone(&clear),
                        })
                        .collect();
                    stage.dispatch_ms += dispatch_started.elapsed().as_secs_f64() * 1000.0;
                    for (s, task) in tasks.into_iter().enumerate() {
                        send(s, task, &mut cores, &mut inline_q)?;
                    }
                    maint_pending = (0..shards).collect();
                }
                t = next_t;
            }

            // Epilogue: the last tick's evaluation round is still in
            // flight — fold it so its batch records before the metrics
            // assemble.
            if let Some(pe) = pending_eval.take() {
                let fold_started = Instant::now();
                fold_eval(
                    pe,
                    &mut core,
                    &mut ops,
                    &mut inline_q,
                    &result_rxs,
                    &workers,
                    &mut stage,
                    &mut tick_busy,
                    &mut busy_total,
                    &mut tuples_processed,
                )?;
                stage.fold_ms += fold_started.elapsed().as_secs_f64() * 1000.0;
            }

            // Shutdown: the epilogue drained the pipeline (the final
            // iteration dispatches no maintenance round), so closing the
            // task rings is the whole drain.
            for tx in &task_txs {
                tx.close();
            }
            for worker in workers {
                let _ = worker.join();
            }

            // Assemble the measured totals.
            let wall_secs = wall_start.elapsed().as_secs_f64();
            let wall_ms = wall_secs * 1000.0;
            for s in 0..shards {
                stage.shard_idle_ms[s] = (wall_ms - stage.shard_busy_ms[s]).max(0.0);
            }
            let busy_ms = busy_total.as_secs_f64() * 1000.0;
            let mean_utilization = if wall_secs > 0.0 && shards > 0 {
                (busy_total.as_secs_f64() / (wall_secs * shards as f64)).clamp(0.0, 1.0)
            } else {
                0.0
            };
            let capacity_total = self.cluster.total_capacity() * dt * ticks as f64;
            let percentiles = core.latency_percentiles(&[50.0, 95.0, 99.0]);
            let observed_stats = observed_snapshot(&ops, &workload.stats_at(duration));
            let (metrics, trace) = core.finish(
                &*strategy,
                BackendTotals {
                    tuples_processed,
                    query_work: busy_ms,
                    overhead_work: pause_ms_total + stage.route_ms,
                    mean_utilization,
                    max_backlog: max_backlog as f64,
                    capacity_total,
                },
            );
            let tuples_per_sec = if wall_secs > 0.0 {
                metrics.tuples_processed as f64 / wall_secs
            } else {
                0.0
            };
            Ok(ExecReport {
                metrics,
                trace,
                wall_secs,
                tuples_per_sec,
                latency_percentiles_ms: vec![
                    (50.0, percentiles[0]),
                    (95.0, percentiles[1]),
                    (99.0, percentiles[2]),
                ],
                migration_pause_ms: pause_ms_total,
                observed_stats,
                stage_timings: Some(stage),
            })
        })
    }
}

/// The probe set of a run's first tick: static lookup tables as single
/// partitions, one (initially empty) partition per shard for every window
/// operator.
pub(crate) fn initial_probes(ops: &[CompiledOp], shards: usize) -> ProbeSet {
    let mut init = ProbeSet::new(ops.len());
    for (i, op) in ops.iter().enumerate() {
        if op.partner_stream().is_some() {
            for s in 0..shards {
                init.set_partition(OperatorId::new(i), s, MarkTerms::default());
            }
        } else if let Some(marks) = op.probe_marks() {
            init.set_partition(OperatorId::new(i), 0, MarkTerms::single(marks));
        }
    }
    init
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::ThreadedExecutor;
    use rld_engine::{RodStrategy, SimConfig};
    use rld_physical::RodPlanner;
    use rld_query::{CostModel, JoinOrderOptimizer, Optimizer};
    use rld_workloads::{RatePattern, StockWorkload};

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

    fn columnar_config(duration_secs: f64, shards: usize) -> ColumnarConfig {
        ColumnarConfig {
            shards,
            ..ColumnarConfig::from_sim(SimConfig {
                duration_secs,
                ..SimConfig::default()
            })
        }
    }

    #[test]
    fn columnar_executor_processes_real_tuples_end_to_end() {
        let q = Query::q1_stock_monitoring();
        let cluster = Cluster::homogeneous(4, capacity_for(&q, 3.0)).unwrap();
        let exec =
            ColumnarExecutor::new(q.clone(), cluster.clone(), columnar_config(30.0, 2)).unwrap();
        let workload = StockWorkload::new(20.0, RatePattern::Constant(1.0));
        let mut rod = rod_strategy(&q, &cluster);
        let report = exec.run_report(&workload, &mut rod, false).unwrap();
        let m = &report.metrics;
        assert!(m.tuples_arrived > 0);
        assert_eq!(
            m.tuples_processed, m.tuples_arrived,
            "healthy run processes everything: {m:?}"
        );
        assert_eq!(m.tuples_lost, 0);
        assert!(report.wall_secs > 0.0);
        assert!(report.tuples_per_sec > 0.0);
        assert_eq!(report.latency_percentiles_ms.len(), 3);
        let op0 = OperatorId::new(0);
        let s = report.observed_stats.selectivity(op0).unwrap();
        assert!(s > 0.1 && s < 1.5, "op0 observed selectivity {s}");
        let stages = report.stage_timings.expect("columnar reports stages");
        assert!(
            stages.evaluate_ms > 0.0 && stages.window_ms > 0.0,
            "{stages:?}"
        );
    }

    #[test]
    fn columnar_and_row_backends_replay_identical_run_traces() {
        let q = Query::q1_stock_monitoring();
        let cluster = Cluster::homogeneous(4, capacity_for(&q, 3.0)).unwrap();
        let sim = SimConfig {
            duration_secs: 45.0,
            ..SimConfig::default()
        };
        let workload = StockWorkload::default_config();

        let row =
            ThreadedExecutor::new(q.clone(), cluster.clone(), ExecConfig::from_sim(sim)).unwrap();
        let mut rod_row = rod_strategy(&q, &cluster);
        let (row_metrics, row_trace) = row.run_traced(&workload, &mut rod_row).unwrap();

        let col = ColumnarExecutor::new(q.clone(), cluster.clone(), ColumnarConfig::from_sim(sim))
            .unwrap();
        let mut rod_col = rod_strategy(&q, &cluster);
        let (col_metrics, col_trace) = col.run_traced(&workload, &mut rod_col).unwrap();

        assert_eq!(row_trace, col_trace, "identical routing per batch");
        assert_eq!(row_metrics.tuples_arrived, col_metrics.tuples_arrived);
        assert_eq!(row_metrics.batches, col_metrics.batches);
        assert_eq!(row_metrics.migrations, col_metrics.migrations);
        assert_eq!(row_metrics.plan_switches, col_metrics.plan_switches);
        assert_eq!(row_metrics.tuples_processed, col_metrics.tuples_processed);
        assert_eq!(col_metrics.tuples_lost, 0);
    }

    #[test]
    fn sharding_does_not_change_any_deterministic_count() {
        let q = Query::q1_stock_monitoring();
        let cluster = Cluster::homogeneous(4, capacity_for(&q, 3.0)).unwrap();
        let workload = StockWorkload::default_config();
        let mut reports = Vec::new();
        for shards in [1usize, 3] {
            let exec =
                ColumnarExecutor::new(q.clone(), cluster.clone(), columnar_config(30.0, shards))
                    .unwrap();
            let mut rod = rod_strategy(&q, &cluster);
            reports.push(exec.run_report(&workload, &mut rod, true).unwrap());
        }
        let (a, b) = (&reports[0], &reports[1]);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.metrics.tuples_arrived, b.metrics.tuples_arrived);
        assert_eq!(a.metrics.tuples_processed, b.metrics.tuples_processed);
        assert_eq!(a.metrics.tuples_produced, b.metrics.tuples_produced);
        assert_eq!(a.metrics.tuples_lost, b.metrics.tuples_lost);
        assert_eq!(
            a.observed_stats, b.observed_stats,
            "observed selectivities are shard-count-invariant"
        );
    }

    #[test]
    fn crashed_node_loses_tuples_at_ingest_and_accounting_balances() {
        let q = Query::q1_stock_monitoring();
        let cluster = Cluster::homogeneous(4, capacity_for(&q, 3.0)).unwrap();
        let workload = StockWorkload::new(20.0, RatePattern::Constant(1.0));
        let mut rod = rod_strategy(&q, &cluster);
        let victim = (0..4)
            .map(NodeId::new)
            .find(|n| !rod.physical().operators_on(*n).is_empty())
            .unwrap();
        let exec = ColumnarExecutor::new(q.clone(), cluster.clone(), columnar_config(40.0, 2))
            .unwrap()
            .with_faults(FaultPlan::node_crash(victim, 10.0, 30.0, RecoverySemantic::Lost).unwrap())
            .unwrap();
        let m = exec.run(&workload, &mut rod).unwrap();
        assert_eq!(m.fault_events, 2);
        assert!(m.tuples_lost > 0, "{m:?}");
        assert!(m.reroutes > 0, "{m:?}");
        assert!(m.downtime_node_secs > 0.0);
        assert_eq!(
            m.tuples_processed + m.tuples_lost,
            m.tuples_arrived,
            "columnar ingest-loss accounting balances exactly: {m:?}"
        );
    }

    #[test]
    fn config_validation() {
        assert!(ColumnarConfig::default().validate().is_ok());
        assert!(ColumnarConfig::default().effective_shards() >= 1);
        assert!(ColumnarConfig::default().effective_shards() <= 256);
        let bad = ColumnarConfig {
            shards: 1000,
            ..ColumnarConfig::default()
        };
        assert!(bad.validate().is_err());
        let q = Query::q1_stock_monitoring();
        let cluster = Cluster::homogeneous(2, 100.0).unwrap();
        assert!(ColumnarExecutor::new(q, cluster, bad).is_err());
    }
}
