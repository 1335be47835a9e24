//! The executor: a shard-parallel tick pipeline around the same
//! [`RuntimeCore`] policy tick as the simulator, which evaluates every batch
//! hop by hop where the placement pins it.
//!
//! ## Design
//!
//! What happens in a virtual tick, and in which order, is written once, in
//! `rld_engine::runtime`; nothing here names a strategy hook. This module
//! schedules the *work* of a tick — generation, evaluation, window upkeep —
//! as a shard-parallel pipeline in which the coordinator only decides,
//! dispatches, and folds replies; it never touches a tuple:
//!
//! * **Hops where the placement pins them.** The physical plan places each
//!   operator on one node. A shard evaluates a routed plan as the sequence of
//!   its *hops* — the maximal runs of consecutive operators the placement
//!   pins to one node, each one `FusedChain` — every hop over the previous
//!   one's surviving selection, which yields exactly the whole chain's
//!   selection and counts. One clock read per hop boundary charges the hop's
//!   time to its node ([`crate::StageTimings::node_busy_ms`]), and a hop on a
//!   node degraded to capacity factor `f < 1` sleeps `elapsed · (1/f − 1)`
//!   (at most 1 s), which is that node's busy time too. Shards are anonymous
//!   compute: at any shard count every shard runs every hop of its rows, so
//!   the placement is accounting, never a second scheduler.
//! * **Generation-in-shards.** Driving arrivals are generated *inside* the
//!   shard workers from `ShardedDrivingGen`'s per-(tick, row) splitmix64
//!   substreams: the coordinator ships `(tick, n, lo, hi)` plus a per-tick
//!   `MatchColumn` plan, and each shard fills its contiguous row range of
//!   the tick's batch into a reusable `ColumnBatch` arena. Because every
//!   row's RNG depends only on its coordinates, the concatenation over any
//!   sharding is bit-identical to single-threaded generation. Partner
//!   arrivals are generated the same way from `ShardedPartnerGen`'s
//!   per-(tick, stream, row) substreams: each shard derives exactly the
//!   arrivals whose key hash lands in its partition from `(tick, t, dt,
//!   truth)` scalars, so the coordinator never materializes, partitions, or
//!   ships a partner tuple and dispatch cost stops scaling with partner
//!   volume.
//! * **Partitioned window state.** Each window-join operator's sliding
//!   window is split across shards by partner-tuple key hash
//!   (`WindowPartition`). Inserts and expiry run inside shard workers on
//!   tick-aligned sorted runs: the tick's arrivals are generated into the
//!   shard's reusable per-stream buffers, sorted once, and enter a binary
//!   counter of run groups (equal neighbours merge, so a mark is merged once
//!   per doubling); whole ticks leave from the old end without a merge. Each
//!   tick the shards publish refreshed `MarkTerms` snapshots — a handful
//!   of sorted terms, none negative — which the coordinator folds into one
//!   `ProbeSet`. Probing sums exact integer match counts over the
//!   partitions and terms, so neither the partitioning nor the grouping can
//!   ever change a result.
//! * **Pipelined ticks, as named stages.** The tick loop
//!   ([`ColumnarExecutor::run_report`]) is a depth-1 pipeline over the
//!   coordinator's stage methods, not a barrier chain. Iteration *t* runs
//!   `fold_eval` (tick *t − 1*'s evaluation replies fold and its batch
//!   records) → the core's `decide` → `fold_maint` (tick *t*'s maintenance
//!   round, dispatched during iteration *t − 1*, folds its refreshed
//!   partitions into the `ProbeSet` epoch, in place) → `dispatch_eval` →
//!   the core's `end_tick` and `advance_faults` for tick *t + 1* →
//!   `dispatch_maint` for tick *t + 1*. So maintenance runs on the shards
//!   while the coordinator decides, and a shard rolls from evaluating tick
//!   *t* straight into maintaining tick *t + 1* without a coordinator
//!   round-trip between them. Every batch still probes an immutable `Arc`
//!   snapshot of the window contents as of its own tick: by `fold_maint` the
//!   previous epoch's readers have all replied, so `Arc::make_mut` finds it
//!   unshared and writes the next epoch over it — copy-on-write that never
//!   copies. Pipelining moves wall-clock work, never observable state.
//! * Every plan of the strategy's plan table is compiled into its hops once,
//!   at run start, into a table indexed like the plans, and the table is
//!   rebuilt on a tick that migrates (the placement changes only through
//!   migrations); a batch ships the hops at its routed plan's index —
//!   filter → passthrough-project → join-probe steps evaluated over reusable
//!   selection vectors, with a branch-free filter kernel over the typed
//!   match columns, and probes answered by each sorted run's occupancy
//!   filter and fence pointers instead of `O(window)` scans.
//! * **A thin tick pays only for what changed.** With a handful of tuples
//!   per tick, the coordinator's fixed per-tick work is the run's cost, so
//!   none of it is redone for an unchanged input. The workload's truth is
//!   one [`StatsSnapshot`] for the run: each tick's is written into a
//!   reused scratch snapshot ([`Workload::stats_into`]) and swapped in only
//!   when it differs, and only then is the match-column plan derived again.
//!   The classifier answers statistics equal to the last batch's from its
//!   memo. Each shard sums every operator's input/output counts over the
//!   run, and the coordinator folds those totals once, at the end, as it
//!   does the per-node hop time — no per-batch count traffic. Dispatch
//!   builds its tasks in one reused buffer, and every maintenance round
//!   without a crash shares one empty clear list.
//! * Tasks and replies travel over bounded std channels, polled — one task
//!   channel and one reply channel per shard; a shard worker backs off with
//!   yields, then short sleeps, rather than parking on a blocking `recv`.
//!   With a single shard (the default) the executor skips threads and
//!   channels entirely and runs the shard core inline in the coordinator,
//!   preserving the exact task/reply order of the pipeline.
//!
//! ## Determinism
//!
//! The coordinator folds a tick's evaluation replies back before recording
//! its batch, and a tick's maintenance snapshots before dispatching its
//! evaluation; the fault plane runs a tick ahead, but the core holds the
//! crash notes back until the next `decide`, after the batch in flight has
//! recorded — so the core sees every tick in the barrier loop's order.
//! Combined with snapshot probing — every row of a batch probes the window
//! contents *as of its ingest tick* — this makes arrived / processed / lost
//! / produced counts and observed per-operator selectivities
//! bit-deterministic per seed **and per shard count**, even under faults;
//! only wall-clock-derived
//! fields (latencies, busy/overhead milliseconds, utilization, stage
//! timings) vary run to run. The differential oracle in
//! `tests/tests/columnar_oracle.rs` holds the simulator and the executor to
//! that surface.
//!
//! Fault semantics under this model: a crash under `Lost` recovery clears
//! the window partitions of operators placed on the crashed node — every
//! shard drops exactly the victim's partitions at the top of the tick — and
//! tuples are lost **at ingest**: a batch routed through a down node is
//! dropped by the core before dispatch. Nothing is ever in flight across a
//! tick, so `arrived == processed + lost` holds exactly, the loss equals the
//! simulator's, and `Replay` differs from `Lost` only in preserving window
//! state across the outage. A degraded node stretches its own hops (above);
//! shards are not slowed otherwise.

use crate::exec::{
    ColumnBatch, CompiledOp, FusedChain, MarkTerms, OpCounts, ProbeSet, WindowPartition,
};
use crate::executor::{
    assemble_report, compile_ops, migration_pause_ms, observed_snapshot, operators_on, ExecReport,
    Measured, StageTimings,
};
use crate::tuples::{MatchColumn, ShardedDrivingGen, ShardedPartnerGen};
use rld_common::rng::derive_seed;
use rld_common::{
    NodeId, OperatorId, OperatorKind, Query, Result, RldError, StatsSnapshot, StreamId,
};
use rld_engine::{
    DistributionStrategy, FaultEvent, FaultKind, FaultPlan, RecoverySemantic, RunMetrics, RunTrace,
    RuntimeCore, SimConfig,
};
use rld_physical::{Cluster, PhysicalPlan};
use rld_workloads::Workload;
use std::collections::VecDeque;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Capacity of each shard's task and reply channel, in tasks.
const CHANNEL_CAPACITY: usize = 4;

/// Configuration of the executor: the shared experiment parameters and the
/// shard count. The statistics monitor samples the workload's truth, as the
/// simulator's does, so both make identical routing decisions per seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColumnarConfig {
    /// The shared experiment parameters (tick, duration, monitor, seed).
    pub sim: SimConfig,
    /// Shard workers a tick's work fans out across, 1–256 (default 1). With
    /// one shard the executor runs the shard core inline — no threads, no
    /// channels.
    pub shards: usize,
}

impl ColumnarConfig {
    /// Executor defaults around the shared experiment parameters: one
    /// shard.
    pub fn from_sim(sim: SimConfig) -> Self {
        Self { sim, shards: 1 }
    }

    /// Validate the shard count and the experiment parameters.
    pub fn validate(&self) -> Result<()> {
        if !(1..=256).contains(&self.shards) {
            return Err(RldError::InvalidArgument(format!(
                "{} shards: the shard count must be between 1 and 256",
                self.shards
            )));
        }
        self.sim.validate()
    }
}

impl Default for ColumnarConfig {
    fn default() -> Self {
        Self::from_sim(SimConfig::default())
    }
}

/// A routed plan as the placement runs it: its hops — the maximal runs of
/// consecutive operators pinned to one node — in plan order, each fused
/// into one chain.
type Hops = Arc<[(NodeId, FusedChain)]>;

/// Split `ordering` into its hops under `placement`. An operator the
/// placement pins to none of the cluster's `nodes` is an error, never a
/// silent drop.
fn compile_hops(
    ops: &[CompiledOp],
    ordering: &[OperatorId],
    placement: &PhysicalPlan,
    nodes: usize,
) -> Result<Hops> {
    ordering
        .chunk_by(|a, b| placement.node_of(*a) == placement.node_of(*b))
        .map(|run| {
            let node = placement
                .node_of(run[0])
                .filter(|node| node.index() < nodes)
                .ok_or_else(|| {
                    RldError::Runtime(format!(
                        "physical plan does not place {} on a cluster node",
                        run[0]
                    ))
                })?;
            Ok((node, FusedChain::compile(ops, run)?))
        })
        .collect()
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
    /// Generate a row range of the tick's driving batch and evaluate the
    /// plan's hops over it.
    Eval(EvalTask),
}

/// Rows `[lo, hi)` of tick `tick`'s `n`-row driving batch, the hops to
/// evaluate over them, every node's capacity factor and the probe epoch to
/// evaluate against.
struct EvalTask {
    tick: u64,
    t_secs: f64,
    dt_secs: f64,
    n: u64,
    lo: u64,
    hi: u64,
    plan: Arc<Vec<MatchColumn>>,
    hops: Hops,
    factors: Arc<[f64]>,
    probes: Arc<ProbeSet>,
}

/// What one shard's generate-and-evaluate of its row range measured. The
/// per-operator counts stay in the shard ([`ShardCore::op_totals`]) until
/// the run ends.
struct EvalOut {
    produced: u64,
    generate: Duration,
    evaluate: Duration,
    error: Option<String>,
}

/// A shard's reply to one task (sent in task order, so the coordinator
/// can match replies to tasks positionally per channel).
enum ShardReply {
    /// Refreshed snapshots of every window partition whose contents
    /// changed.
    Maint {
        dirty: Vec<(OperatorId, MarkTerms)>,
        window: Duration,
    },
    /// The evaluation results of one row range.
    Eval(EvalOut),
}

/// An evaluation round in flight: dispatched at its tick, folded (and its
/// batch recorded) at the top of the next iteration. Its shards are the
/// coordinator's `pending_eval_shards`.
struct PendingEval {
    n_tuples: u64,
    t_secs: f64,
    ingest: Instant,
}

/// Everything one shard owns: its view of the driving and partner generator
/// substream spaces, its partition of every window-join operator's sliding
/// window, reusable batch/selection/count arenas, and the run totals it
/// folds back once, when the run ends: the hop time it charged to each node
/// and every operator's observed input/output counts.
struct ShardCore {
    gen: ShardedDrivingGen,
    pgen: ShardedPartnerGen,
    shard: u64,
    shards: u64,
    /// Per-operator window partitions (window-join operators only), paired
    /// with the partner stream whose arrivals feed them.
    windows: Vec<Option<(StreamId, WindowPartition)>>,
    changed: Vec<bool>,
    /// The tick's partner arrivals in this shard's partition — timestamps
    /// and marks per stream, indexed by stream, refilled every tick.
    partners: Vec<(Vec<u64>, Vec<f64>)>,
    batch: ColumnBatch,
    sel: Vec<u32>,
    scratch: Vec<u32>,
    counts: Vec<OpCounts>,
    /// `(inputs, outputs)` every operator saw in this shard over the run,
    /// indexed by operator. Integer sums, so folding them per shard at the
    /// end observes exactly what folding every batch would.
    op_totals: Vec<(u64, u64)>,
    /// Hop time charged to each cluster node over the run, indexed by node.
    node_busy: Vec<Duration>,
}

impl ShardCore {
    fn new(query: &Query, seed: u64, shard: usize, shards: usize, nodes: usize) -> Self {
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
        Self {
            changed: vec![false; windows.len()],
            windows,
            partners: vec![(Vec::new(), Vec::new()); query.num_streams()],
            batch: ColumnBatch::for_driving(query),
            sel: Vec::new(),
            scratch: Vec::new(),
            counts: Vec::new(),
            op_totals: vec![(0, 0); query.num_operators()],
            node_busy: vec![Duration::ZERO; nodes],
            gen: ShardedDrivingGen::new(query, seed),
            pgen: ShardedPartnerGen::new(query, seed),
            shard: shard as u64,
            shards: shards as u64,
        }
    }

    /// One tick of window maintenance, in the canonical order: crash-clears,
    /// then derive and insert this shard's partition of the tick's partner
    /// arrivals, then expire — returning the refreshed snapshot of every
    /// partition that changed.
    fn maint(
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
        for (s, (ts, marks)) in self.partners.iter_mut().enumerate() {
            let stream = StreamId::new(s);
            if stream != self.pgen.query().driving_stream {
                self.pgen.fill_stream(
                    stream,
                    tick,
                    t_secs,
                    dt_secs,
                    truth,
                    self.shard,
                    self.shards,
                    ts,
                    marks,
                );
            }
        }
        for (i, slot) in self.windows.iter_mut().enumerate() {
            let Some((stream, part)) = slot else { continue };
            let (ts, marks) = &self.partners[stream.index()];
            if part.advance(now_ms, ts, marks) {
                self.changed[i] = true;
            }
        }
        let mut dirty = Vec::with_capacity(self.changed.iter().filter(|&&c| c).count());
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

    /// Generate the task's rows of the tick's driving batch into the local
    /// arena and evaluate the plan's hops over them, charging each hop's
    /// time — a degraded node's stretch included — to its node.
    fn gen_eval(&mut self, task: &EvalTask) -> EvalOut {
        let started = Instant::now();
        self.batch.clear();
        self.gen.fill_slice(
            &mut self.batch,
            &task.plan,
            task.tick,
            task.t_secs,
            task.dt_secs,
            task.n,
            task.lo,
            task.hi,
        );
        self.sel.clear();
        self.sel.extend(0..self.batch.len() as u32);
        let mut hop_start = Instant::now();
        let generate = hop_start - started;
        let mut evaluate = Duration::ZERO;
        let mut error = None;
        self.counts.clear();
        for (node, chain) in task.hops.iter() {
            if self.sel.is_empty() {
                break;
            }
            let evaluated = chain.eval(
                &self.batch,
                &task.probes,
                &mut self.sel,
                &mut self.scratch,
                &mut self.counts,
            );
            if let Err(e) = evaluated {
                error = Some(e.to_string());
                break;
            }
            let hop_end = Instant::now();
            let mut busy = hop_end - hop_start;
            hop_start = hop_end;
            // A degraded node is genuinely slower: stretch its hop by the
            // inverse capacity factor, clamped at 1 s so a pathological
            // factor cannot wedge a run.
            let factor = task.factors[node.index()];
            if factor > 0.0 && factor < 1.0 {
                let stretch = (busy.as_secs_f64() * (1.0 / factor - 1.0)).min(1.0);
                let stretch = Duration::from_secs_f64(stretch);
                std::thread::sleep(stretch);
                busy += stretch;
                hop_start = Instant::now();
            }
            self.node_busy[node.index()] += busy;
            evaluate += busy;
        }
        for c in &self.counts {
            let (inputs, outputs) = &mut self.op_totals[c.op.index()];
            *inputs += c.inputs;
            *outputs += c.outputs;
        }
        EvalOut {
            produced: self.sel.len() as u64,
            generate,
            evaluate,
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
        ShardTask::Eval(task) => ShardReply::Eval(core.gen_eval(&task)),
    }
}

/// The shard worker loop: poll for a task, run it on the shard core, send
/// the reply. Exits when the coordinator drops the task channel, handing
/// the core back for its run totals.
fn run_shard(
    mut core: ShardCore,
    tasks: Receiver<ShardTask>,
    results: SyncSender<ShardReply>,
) -> ShardCore {
    let mut idle_polls = 0u32;
    loop {
        match tasks.try_recv() {
            Ok(task) => {
                idle_polls = 0;
                let reply = run_task(&mut core, task);
                if results.send(reply).is_err() {
                    return core;
                }
            }
            Err(TryRecvError::Disconnected) => return core,
            Err(TryRecvError::Empty) => {
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

/// One shard worker's half of the transport: its core, its task channel's
/// receiver and its reply channel's sender.
type ShardWorker = (ShardCore, Receiver<ShardTask>, SyncSender<ShardReply>);

/// The coordinator's transport to its shards: one task channel and one
/// reply channel per shard — or, with a single shard, no threads and no
/// channels: a dispatched task runs right in `send` and its reply queues for
/// the matching fold point, the exact task/reply FIFO order of a threaded
/// shard.
struct Lanes {
    inline: Option<ShardCore>,
    inline_replies: VecDeque<ShardReply>,
    task_txs: Vec<SyncSender<ShardTask>>,
    result_rxs: Vec<Receiver<ShardReply>>,
}

impl Lanes {
    fn send(&mut self, shard: usize, task: ShardTask) -> Result<()> {
        match &mut self.inline {
            Some(core) => {
                self.inline_replies.push_back(run_task(core, task));
                Ok(())
            }
            None => self.task_txs[shard]
                .send(task)
                .map_err(|_| RldError::Runtime("shard worker hung up during dispatch".into())),
        }
    }

    /// Wait for one reply from every shard in `pending`, folding via `fold`.
    /// Reply channels are per-shard FIFO and tasks of one kind are never
    /// dispatched twice without an intervening fold, so the received reply
    /// is the one awaited.
    fn collect(
        &mut self,
        pending: &mut Vec<usize>,
        fold: &mut dyn FnMut(usize, ShardReply) -> Result<()>,
    ) -> Result<()> {
        if self.inline.is_some() {
            while let Some(s) = pending.pop() {
                let reply = self
                    .inline_replies
                    .pop_front()
                    .ok_or_else(|| RldError::Runtime("inline shard reply missing".into()))?;
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
                match self.result_rxs[s].try_recv() {
                    Ok(reply) => {
                        idle = false;
                        failed = fold(s, reply).err();
                        false
                    }
                    Err(TryRecvError::Empty) => true,
                    // A worker that exits drops its reply sender.
                    Err(TryRecvError::Disconnected) => {
                        failed = Some(RldError::Runtime("shard worker exited mid-run".into()));
                        true
                    }
                }
            });
            if let Some(e) = failed {
                return Err(e);
            }
            if idle {
                std::hint::spin_loop();
                std::thread::yield_now();
            }
        }
        Ok(())
    }
}

/// The coordinator's side of the tick pipeline: the transport to the shards,
/// what their replies fold into, and the two rounds in flight. One method
/// per stage; [`ColumnarExecutor::run_report`] is the loop over them.
struct Coordinator {
    lanes: Lanes,
    shards: usize,
    dt_secs: f64,
    /// Compiled operators: observed counters (folded from the shards' run
    /// totals at the end) and hop compilation. Window *contents* live in the
    /// shards' partitions.
    ops: Vec<CompiledOp>,
    /// Coordinator-side twin of the shards' generator, used only to compute
    /// the match-column plan (no draws).
    plan_gen: ShardedDrivingGen,
    /// The match-column plan of the current truth; `None` once the truth
    /// changed, until the next evaluation dispatch computes it again.
    match_plan: Option<Arc<Vec<MatchColumn>>>,
    /// The probe epoch the next evaluation dispatch ships, published in
    /// place by `fold_maint`.
    probes: Arc<ProbeSet>,
    /// Every plan of the strategy's plan table as the current placement
    /// runs it, indexed like the table: compiled at run start and rebuilt
    /// on every tick that migrates, failover included — a migration moves
    /// hops.
    hops: Vec<Hops>,
    /// Every node's capacity factor as of the next evaluation dispatch
    /// (1.0 = full speed), set by the fault plane's degrade and restore.
    factors: Arc<[f64]>,
    /// The evaluation round in flight.
    pending_eval: Option<PendingEval>,
    /// The shards whose evaluation reply is in flight.
    pending_eval_shards: Vec<usize>,
    /// The shards whose maintenance reply is in flight.
    pending_maint: Vec<usize>,
    /// Tasks under construction, reused by every dispatch.
    tasks: Vec<(usize, ShardTask)>,
    /// The clear list of every maintenance round no crash touched, shared.
    no_clears: Arc<Vec<OperatorId>>,
    stage: StageTimings,
    /// Busy ms each shard accumulated in the current pipeline round (one
    /// evaluation fold + one maintenance fold), for the skew high-water mark.
    tick_busy: Vec<f64>,
    tuples_processed: u64,
}

impl Coordinator {
    /// Build the coordinator and the worker halves to spawn (none with a
    /// single shard, which runs inline).
    fn new(
        query: &Query,
        sim: &SimConfig,
        name: &str,
        shards: usize,
        nodes: usize,
    ) -> (Self, Vec<ShardWorker>) {
        let ops = compile_ops(query, sim.seed);
        let gen_seed = derive_seed(sim.seed, name);
        let mut lanes = Lanes {
            inline: None,
            inline_replies: VecDeque::new(),
            task_txs: Vec::new(),
            result_rxs: Vec::new(),
        };
        let mut workers = Vec::new();
        if shards == 1 {
            lanes.inline = Some(ShardCore::new(query, gen_seed, 0, 1, nodes));
        } else {
            for s in 0..shards {
                let (task_tx, task_rx) = sync_channel(CHANNEL_CAPACITY);
                let (result_tx, result_rx) = sync_channel(CHANNEL_CAPACITY);
                lanes.task_txs.push(task_tx);
                lanes.result_rxs.push(result_rx);
                workers.push((
                    ShardCore::new(query, gen_seed, s, shards, nodes),
                    task_rx,
                    result_tx,
                ));
            }
        }
        let coordinator = Self {
            lanes,
            shards,
            dt_secs: sim.tick_secs,
            probes: Arc::new(initial_probes(&ops, shards)),
            ops,
            plan_gen: ShardedDrivingGen::new(query, gen_seed),
            match_plan: None,
            hops: Vec::new(),
            factors: vec![1.0; nodes].into(),
            pending_eval: None,
            pending_eval_shards: Vec::with_capacity(shards),
            pending_maint: Vec::with_capacity(shards),
            tasks: Vec::with_capacity(shards),
            no_clears: Arc::new(Vec::new()),
            stage: StageTimings {
                shard_busy_ms: vec![0.0; shards],
                shard_idle_ms: vec![0.0; shards],
                node_busy_ms: vec![0.0; nodes],
                ..StageTimings::default()
            },
            tick_busy: vec![0.0; shards],
            tuples_processed: 0,
        };
        (coordinator, workers)
    }

    /// Apply the fault events due by the next tick to the dataplane: a
    /// degrade or restore sets the node's capacity factor for the
    /// evaluations after it, and a crash under `Lost` returns the operators
    /// the placement pins to the node, whose windows the next maintenance
    /// round clears before its partner inserts.
    fn apply_faults(
        &mut self,
        query: &Query,
        events: Vec<FaultEvent>,
        lost: bool,
        placement: &PhysicalPlan,
    ) -> Vec<OperatorId> {
        let mut clear_ops = Vec::new();
        for event in events {
            let factor = match event.kind {
                FaultKind::Crash if lost => {
                    clear_ops.extend(operators_on(query, placement, event.node));
                    continue;
                }
                FaultKind::Degrade { factor } => factor,
                FaultKind::Restore => 1.0,
                FaultKind::Crash | FaultKind::Recover => continue,
            };
            // Copies only while an evaluation task still holds the old one.
            Arc::make_mut(&mut self.factors)[event.node.index()] = factor;
        }
        clear_ops
    }

    /// Fold the evaluation round in flight, if any: drain its shard replies,
    /// fold produced counts and timings, then record the batch — closing
    /// any crash-recovery window pending at the core.
    fn fold_eval(&mut self, core: &mut RuntimeCore) -> Result<()> {
        let Some(pe) = self.pending_eval.take() else {
            return Ok(());
        };
        let fold_started = Instant::now();
        let mut produced = 0u64;
        let Self {
            lanes,
            pending_eval_shards,
            stage,
            tick_busy,
            ..
        } = self;
        lanes.collect(pending_eval_shards, &mut |s, reply| match reply {
            ShardReply::Eval(out) => {
                if let Some(msg) = out.error {
                    return Err(RldError::Runtime(msg));
                }
                produced += out.produced;
                stage.generate_ms += out.generate.as_secs_f64() * 1000.0;
                stage.evaluate_ms += out.evaluate.as_secs_f64() * 1000.0;
                let busy = (out.generate + out.evaluate).as_secs_f64() * 1000.0;
                stage.shard_busy_ms[s] += busy;
                tick_busy[s] += busy;
                Ok(())
            }
            ShardReply::Maint { .. } => Err(RldError::Runtime("shard replied out of order".into())),
        })?;
        self.tuples_processed += pe.n_tuples;
        core.record_batch(
            pe.n_tuples,
            pe.ingest.elapsed().as_secs_f64() * 1000.0,
            produced,
            pe.t_secs,
        );
        self.stage.fold_ms += fold_started.elapsed().as_secs_f64() * 1000.0;
        Ok(())
    }

    /// Fold the maintenance round in flight (dispatched at the end of the
    /// previous iteration, overlapped with the evaluation fold and the
    /// policy decision) and publish the probe epoch the evaluation round
    /// reads; closes the pipeline round's skew measurement.
    fn fold_maint(&mut self) -> Result<()> {
        let fold_started = Instant::now();
        let mut window = Duration::ZERO;
        let Self {
            lanes,
            pending_maint,
            probes,
            stage,
            tick_busy,
            ..
        } = self;
        lanes.collect(pending_maint, &mut |s, reply| match reply {
            ShardReply::Maint {
                dirty,
                window: shard_window,
            } => {
                window += shard_window;
                let busy = shard_window.as_secs_f64() * 1000.0;
                stage.shard_busy_ms[s] += busy;
                tick_busy[s] += busy;
                // Publish in place: every evaluation task that read the
                // epoch dropped it before its reply folded, so `make_mut`
                // finds it unshared and does not copy.
                if !dirty.is_empty() {
                    debug_assert_eq!(Arc::strong_count(probes), 1, "epoch still shared");
                    let probes = Arc::make_mut(probes);
                    for (op, terms) in dirty {
                        probes.set_partition(op, s, terms);
                    }
                }
                Ok(())
            }
            ShardReply::Eval(_) => Err(RldError::Runtime("shard replied out of order".into())),
        })?;
        self.stage.fold_ms += fold_started.elapsed().as_secs_f64() * 1000.0;
        self.stage.window_ms += window.as_secs_f64() * 1000.0;

        if self.shards > 1 {
            let max = self.tick_busy.iter().fold(f64::MIN, |a, &b| a.max(b));
            let min = self.tick_busy.iter().fold(f64::MAX, |a, &b| a.min(b));
            self.stage.max_shard_skew_ms = self.stage.max_shard_skew_ms.max(max - min);
        }
        self.tick_busy.fill(0.0);
        Ok(())
    }

    /// Compile every plan of the strategy's table into its hops under the
    /// current placement. Counts as dispatch work.
    fn compile_hop_table(&mut self, strategy: &dyn DistributionStrategy) -> Result<()> {
        let started = Instant::now();
        let (placement, nodes) = (strategy.physical(), self.factors.len());
        self.hops = strategy
            .plans()
            .iter()
            .map(|plan| compile_hops(&self.ops, plan.ordering(), placement, nodes))
            .collect::<Result<_>>()?;
        self.stage.dispatch_ms += started.elapsed().as_secs_f64() * 1000.0;
        Ok(())
    }

    /// Ship `(tick, row range, match plan, hops, node factors, probe epoch)`
    /// to the shards — generation happens there — and leave the round in
    /// flight. `plan` indexes the hop table. Only task construction counts
    /// as dispatch; inline execution of the sent task is shard work, not
    /// coordinator work.
    fn dispatch_eval(
        &mut self,
        core: &RuntimeCore,
        n_tuples: u64,
        plan: usize,
        truth: &StatsSnapshot,
    ) -> Result<()> {
        let dispatch_started = Instant::now();
        let hops = Arc::clone(&self.hops[plan]);
        let mplan = Arc::clone(
            self.match_plan
                .get_or_insert_with(|| Arc::new(self.plan_gen.match_plan(truth))),
        );
        let shards = self.shards as u64;
        for s in 0..shards {
            let lo = s * n_tuples / shards;
            let hi = (s + 1) * n_tuples / shards;
            if hi <= lo {
                continue;
            }
            self.tasks.push((
                s as usize,
                ShardTask::Eval(EvalTask {
                    tick: core.tick(),
                    t_secs: core.t_secs(),
                    dt_secs: self.dt_secs,
                    n: n_tuples,
                    lo,
                    hi,
                    plan: Arc::clone(&mplan),
                    hops: Arc::clone(&hops),
                    factors: Arc::clone(&self.factors),
                    probes: Arc::clone(&self.probes),
                }),
            ));
        }
        self.stage.dispatch_ms += dispatch_started.elapsed().as_secs_f64() * 1000.0;
        let ingest = Instant::now();
        self.pending_eval_shards.clear();
        for (s, task) in self.tasks.drain(..) {
            self.lanes.send(s, task)?;
            self.pending_eval_shards.push(s);
        }
        self.pending_eval = Some(PendingEval {
            n_tuples,
            t_secs: core.t_secs(),
            ingest,
        });
        Ok(())
    }

    /// Ship the maintenance round advancing every shard's windows to the
    /// core's current tick, behind whatever evaluation tasks are queued.
    fn dispatch_maint(
        &mut self,
        core: &RuntimeCore,
        truth: &Arc<StatsSnapshot>,
        clear_ops: Vec<OperatorId>,
    ) -> Result<()> {
        let dispatch_started = Instant::now();
        let clear_ops = if clear_ops.is_empty() {
            Arc::clone(&self.no_clears)
        } else {
            Arc::new(clear_ops)
        };
        for s in 0..self.shards {
            self.tasks.push((
                s,
                ShardTask::Maint {
                    tick: core.tick(),
                    now_ms: core.now_ms(),
                    t_secs: core.t_secs(),
                    dt_secs: self.dt_secs,
                    truth: Arc::clone(truth),
                    clear_ops: Arc::clone(&clear_ops),
                },
            ));
        }
        self.stage.dispatch_ms += dispatch_started.elapsed().as_secs_f64() * 1000.0;
        for (s, task) in self.tasks.drain(..) {
            self.lanes.send(s, task)?;
        }
        self.pending_maint.clear();
        self.pending_maint.extend(0..self.shards);
        Ok(())
    }

    /// Fold one finished shard's run totals: its per-node hop time into the
    /// stage timings and its per-operator counts into the observed
    /// counters.
    fn fold_shard_totals(&mut self, shard: &ShardCore) {
        for (total, busy) in self.stage.node_busy_ms.iter_mut().zip(&shard.node_busy) {
            *total += busy.as_secs_f64() * 1000.0;
        }
        for (op, &(inputs, outputs)) in self.ops.iter_mut().zip(&shard.op_totals) {
            op.note_observed(inputs, outputs);
        }
    }
}

/// The tuple-level executor: shard workers (threaded over bounded channels,
/// or inline for a single shard) driven by the same [`RuntimeCore`] as the
/// simulator, evaluating each batch hop by hop where the placement pins it.
pub struct ColumnarExecutor {
    query: Query,
    cluster: Cluster,
    config: ColumnarConfig,
    faults: FaultPlan,
}

impl ColumnarExecutor {
    /// Create an executor for a query on a cluster (fault-free).
    pub fn new(query: Query, cluster: Cluster, config: ColumnarConfig) -> Result<Self> {
        config.validate()?;
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

    /// Run one strategy against a workload.
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
    /// The policy half of a tick is the [`RuntimeCore`]'s three phases; the
    /// loop below is the pipeline around them (see the module docs): fold
    /// the previous tick's evaluation → decide → fold this tick's
    /// maintenance → dispatch this tick's evaluation → end the tick →
    /// advance the fault plane and dispatch the maintenance round of the
    /// next. Faults are advanced a tick ahead so the maintenance round can
    /// carry a crash's clear list; the core holds the crash notes back until
    /// the next `decide`, after the batch still in flight has recorded.
    pub fn run_report(
        &self,
        workload: &dyn Workload,
        strategy: &mut dyn DistributionStrategy,
        traced: bool,
    ) -> Result<ExecReport> {
        let sim = self.config.sim;
        let mut core = RuntimeCore::new(
            self.query.clone(),
            self.cluster.clone(),
            sim,
            self.faults.clone(),
            strategy.name(),
        )?;
        if traced {
            core = core.with_trace();
        }
        let (coordinator, workers) = Coordinator::new(
            &self.query,
            &sim,
            strategy.name(),
            self.config.shards,
            self.cluster.num_nodes(),
        );
        let lost = self.faults.recovery == RecoverySemantic::Lost;
        // Migrations pause no shard: the pause is charged as modelled
        // overhead.
        let mut pause_ms = 0.0f64;

        let wall_start = Instant::now();
        let ran = std::thread::scope(|scope| -> Result<Coordinator> {
            // Moved in, so an error return drops it: that disconnects the
            // task channels, the workers exit, and the scope's join cannot
            // hang.
            let mut co = coordinator;
            let handles: Vec<_> = workers
                .into_iter()
                .map(|(shard, tasks, results)| {
                    scope.spawn(move || run_shard(shard, tasks, results))
                })
                .collect();

            // Prologue: tick 0's fault effects and maintenance round go out
            // before the loop, as iteration t dispatches t + 1's. The truth
            // is one snapshot for the whole run: each tick's is written into
            // `next` and swapped in only when it differs, so an unchanged
            // truth costs one comparison and keeps its match-column plan.
            let mut truth = Arc::new(workload.stats_at(0.0));
            let mut next = StatsSnapshot::new();
            let clear = co.apply_faults(
                &self.query,
                core.advance_faults(),
                lost,
                strategy.physical(),
            );
            co.dispatch_maint(&core, &truth, clear)?;
            co.compile_hop_table(&*strategy)?;

            while core.in_horizon() {
                co.fold_eval(&mut core)?;

                let decide_started = Instant::now();
                let decision = core.decide(&mut *strategy, &truth)?;
                let migrated = !decision.migrations.is_empty();
                pause_ms += decision
                    .migrations
                    .iter()
                    .map(migration_pause_ms)
                    .sum::<f64>();
                let n_tuples = decision.arrivals;
                let batch = decision.batch.map(|routed| routed.plan);
                co.stage.route_ms += decide_started.elapsed().as_secs_f64() * 1000.0;

                if migrated {
                    co.compile_hop_table(&*strategy)?;
                }
                co.fold_maint()?;
                if let Some(plan) = batch {
                    co.dispatch_eval(&core, n_tuples, plan, &truth)?;
                }
                core.end_tick();

                // Pre-compute the next tick while the shards evaluate this
                // one, and queue its maintenance behind the eval tasks.
                if core.in_horizon() {
                    let events = core.advance_faults();
                    let clear = co.apply_faults(&self.query, events, lost, strategy.physical());
                    workload.stats_into(core.t_secs(), &mut next);
                    if next != *truth {
                        // Every maintenance task holding the old truth has
                        // replied, so `make_mut` finds it unshared.
                        std::mem::swap(Arc::make_mut(&mut truth), &mut next);
                        co.match_plan = None;
                    }
                    co.dispatch_maint(&core, &truth, clear)?;
                }
            }
            // The last tick's evaluation round is still in flight; no
            // maintenance round is, so dropping the task senders is the drain.
            co.fold_eval(&mut core)?;
            co.lanes.task_txs.clear();
            if let Some(shard) = co.lanes.inline.take() {
                co.fold_shard_totals(&shard);
            }
            for handle in handles {
                let shard = handle
                    .join()
                    .map_err(|_| RldError::Runtime("shard worker panicked".into()))?;
                co.fold_shard_totals(&shard);
            }
            Ok(co)
        });
        let co = ran?;

        let wall_secs = wall_start.elapsed().as_secs_f64();
        let mut stage = co.stage;
        for (idle, busy) in stage.shard_idle_ms.iter_mut().zip(&stage.shard_busy_ms) {
            *idle = (wall_secs * 1000.0 - busy).max(0.0);
        }
        let observed = observed_snapshot(&co.ops, &workload.stats_at(sim.duration_secs));
        let measured = Measured {
            wall_secs,
            tuples_processed: co.tuples_processed,
            pause_ms,
            stage,
        };
        Ok(assemble_report(core, &*strategy, observed, measured))
    }
}

/// The probe set of a run's first tick: static lookup tables as single
/// partitions, one (initially empty) partition per shard for every window
/// operator.
fn initial_probes(ops: &[CompiledOp], shards: usize) -> ProbeSet {
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
    use crate::executor::tests::{capacity_for, rod_strategy};
    use rld_workloads::{RatePattern, StockWorkload};

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
        let stages = report.stage_timings.expect("every run reports stages");
        assert!(
            stages.evaluate_ms > 0.0 && stages.window_ms > 0.0,
            "{stages:?}"
        );
    }

    /// Hop accounting, fault-free, at one shard and at two: the nodes the
    /// placement uses carry all of the evaluation — Σ node busy is
    /// `evaluate_ms` — and a node hosting no operator reads 0.
    #[test]
    fn hops_charge_evaluation_to_the_nodes_that_host_it() {
        let q = Query::q1_stock_monitoring();
        let cluster = Cluster::homogeneous(8, capacity_for(&q, 3.0)).unwrap();
        let workload = StockWorkload::new(20.0, RatePattern::Constant(1.0));
        for shards in [1, 2] {
            let exec =
                ColumnarExecutor::new(q.clone(), cluster.clone(), columnar_config(20.0, shards))
                    .unwrap();
            let mut rod = rod_strategy(&q, &cluster);
            let unused: Vec<usize> = (0..8)
                .filter(|&n| rod.physical().operators_on(NodeId::new(n)).is_empty())
                .collect();
            assert!(!unused.is_empty(), "five operators cannot use eight nodes");
            let report = exec.run_report(&workload, &mut rod, false).unwrap();
            let stages = report.stage_timings.unwrap();
            assert_eq!(stages.node_busy_ms.len(), 8);
            let total: f64 = stages.node_busy_ms.iter().sum();
            assert!(total > 0.0, "{stages:?}");
            assert!(
                (total - stages.evaluate_ms).abs() <= 1e-9 * stages.evaluate_ms,
                "{shards} shards: Σ node busy {total} vs evaluate {}",
                stages.evaluate_ms
            );
            for n in unused {
                assert_eq!(stages.node_busy_ms[n], 0.0, "node {n} hosts nothing");
            }
            assert_eq!(report.metrics.max_backlog, 0.0);
        }
    }

    #[test]
    fn hops_are_the_placements_runs_and_an_unplaced_operator_is_an_error() {
        let q = Query::q1_stock_monitoring();
        let ops = compile_ops(&q, 7);
        let n = NodeId::new;
        let placement = PhysicalPlan::from_mapping(&q, &[n(0), n(0), n(1), n(0), n(2)], 3).unwrap();
        let hops = compile_hops(&ops, &q.operator_ids(), &placement, 3).unwrap();
        let nodes: Vec<NodeId> = hops.iter().map(|(node, _)| *node).collect();
        assert_eq!(nodes, [n(0), n(1), n(0), n(2)]);
        // An operator the placement does not know, and a node the cluster
        // does not have, are runtime errors — never a silent drop.
        let unplaced = [OperatorId::new(0), OperatorId::new(9)];
        for (ordering, nodes) in [(&unplaced[..], 3), (&q.operator_ids()[..], 2)] {
            assert!(matches!(
                compile_hops(&ops, ordering, &placement, nodes),
                Err(RldError::Runtime(_))
            ));
        }
    }

    /// Fault-free and under a `Lost` crash (which clears the victim's
    /// windows mid-run), every deterministic count and the observed
    /// statistics — folded once per shard from its run totals — are the
    /// same at 1, 2 and 3 shards.
    #[test]
    fn sharding_does_not_change_any_deterministic_count() {
        let q = Query::q1_stock_monitoring();
        let cluster = Cluster::homogeneous(4, capacity_for(&q, 3.0)).unwrap();
        let workload = StockWorkload::default_config();
        let victim = (0..4)
            .map(NodeId::new)
            .find(|n| {
                !rod_strategy(&q, &cluster)
                    .physical()
                    .operators_on(*n)
                    .is_empty()
            })
            .unwrap();
        let crash = FaultPlan::node_crash(victim, 8.0, 20.0, RecoverySemantic::Lost).unwrap();
        for faults in [FaultPlan::none(), crash] {
            let mut reports = Vec::new();
            for shards in [1usize, 2, 3] {
                let exec = ColumnarExecutor::new(
                    q.clone(),
                    cluster.clone(),
                    columnar_config(30.0, shards),
                )
                .unwrap()
                .with_faults(faults.clone())
                .unwrap();
                let mut rod = rod_strategy(&q, &cluster);
                reports.push(exec.run_report(&workload, &mut rod, true).unwrap());
            }
            let a = &reports[0];
            if !faults.events().is_empty() {
                assert!(a.metrics.tuples_lost > 0, "{:?}", a.metrics);
            }
            for b in &reports[1..] {
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
        }
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
        assert!(m.capacity_available_fraction < 1.0);
        assert_eq!(
            m.tuples_processed + m.tuples_lost,
            m.tuples_arrived,
            "ingest-loss accounting balances exactly: {m:?}"
        );
    }

    #[test]
    fn config_validation() {
        assert!(ColumnarConfig::default().validate().is_ok());
        assert_eq!(ColumnarConfig::default().shards, 1);
        let q = Query::q1_stock_monitoring();
        let cluster = Cluster::homogeneous(2, 100.0).unwrap();
        for shards in [0, 257, 1000] {
            let bad = ColumnarConfig {
                shards,
                ..ColumnarConfig::default()
            };
            assert!(
                matches!(bad.validate(), Err(RldError::InvalidArgument(_))),
                "{shards} shards"
            );
            assert!(ColumnarExecutor::new(q.clone(), cluster.clone(), bad).is_err());
        }
    }
}
