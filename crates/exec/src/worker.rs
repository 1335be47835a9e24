//! Worker threads: the per-node execution loop of the threaded dataplane.

use rld_common::{ColumnBatch, CompiledOp, FusedChain, OpCounts, ProbeSet};
use rld_engine::FaultKind;
use rld_physical::PhysicalPlan;
use rld_query::LogicalPlan;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shared, lock-free view of one node's runtime state, written by the
/// coordinator (fault plane, migrations) and read by the node's worker.
#[derive(Debug)]
pub(crate) struct NodeState {
    /// Whether the node is up; a down worker stops processing envelopes.
    up: AtomicBool,
    /// Straggler factor as f64 bits (1.0 = full speed).
    factor_bits: AtomicU64,
    /// Envelopes currently queued *for* this node (inbox + senders' spill
    /// queues): incremented at forward intent, decremented at receipt.
    queued: AtomicU64,
    /// Total wall nanoseconds spent processing envelopes.
    pub(crate) busy_nanos: AtomicU64,
    /// Total wall nanoseconds spent paused for migration state transfer.
    pub(crate) pause_nanos: AtomicU64,
    /// Driving tuples of envelopes this worker dropped (down under `Lost`
    /// semantics, parked past shutdown, or destined to an exited peer).
    pub(crate) lost_inputs: AtomicU64,
    /// Largest queue depth observed for this node, in envelopes.
    pub(crate) max_backlog: AtomicU64,
}

impl NodeState {
    pub(crate) fn new() -> Self {
        Self {
            up: AtomicBool::new(true),
            factor_bits: AtomicU64::new(1.0f64.to_bits()),
            queued: AtomicU64::new(0),
            busy_nanos: AtomicU64::new(0),
            pause_nanos: AtomicU64::new(0),
            lost_inputs: AtomicU64::new(0),
            max_backlog: AtomicU64::new(0),
        }
    }

    pub(crate) fn is_up(&self) -> bool {
        self.up.load(Ordering::Acquire)
    }

    pub(crate) fn factor(&self) -> f64 {
        f64::from_bits(self.factor_bits.load(Ordering::Acquire))
    }

    /// Apply one fault-plane event: the worker sees it on its next envelope.
    pub(crate) fn apply_fault(&self, kind: FaultKind) {
        let factor = |f: f64| self.factor_bits.store(f.to_bits(), Ordering::Release);
        match kind {
            FaultKind::Crash => self.up.store(false, Ordering::Release),
            FaultKind::Recover => self.up.store(true, Ordering::Release),
            FaultKind::Degrade { factor: f } => factor(f),
            FaultKind::Restore => factor(1.0),
        }
    }

    /// Count one envelope queued for this node, tracking the high-water
    /// mark. Called by whoever *sends toward* the node.
    pub(crate) fn enqueue_envelope(&self) {
        let depth = self.queued.fetch_add(1, Ordering::AcqRel) + 1;
        self.max_backlog.fetch_max(depth, Ordering::Relaxed);
    }

    /// Count one envelope received (or abandoned) for this node.
    pub(crate) fn dequeue_envelope(&self) {
        self.queued.fetch_sub(1, Ordering::AcqRel);
    }
}

/// One batch in flight through the pipeline of its routed logical plan.
pub(crate) struct Envelope {
    /// The tick's driving batch, generated once and shared by every stage.
    pub batch: Arc<ColumnBatch>,
    /// The rows of `batch` alive at the current pipeline stage (duplicates
    /// encode join fan-out).
    pub sel: Vec<u32>,
    /// The probe epoch of the ingest tick: every stage, on whichever node
    /// and at whatever wall time, probes the windows as of ingest.
    pub probes: Arc<ProbeSet>,
    /// Per-operator input/output counts of the stages applied so far.
    pub counts: Vec<OpCounts>,
    /// The routed logical plan (operator ordering).
    pub plan: Arc<LogicalPlan>,
    /// The placement snapshot the batch was routed under.
    pub placement: Arc<PhysicalPlan>,
    /// Index into `plan.ordering()` of the next operator to apply.
    pub stage: usize,
    /// Driving tuples the batch carried at ingest.
    pub n_input: u64,
    /// Virtual time of the ingest tick.
    pub t_secs: f64,
    /// Wall-clock ingest instant — latency is measured from here.
    pub ingest: Instant,
}

/// Control/data messages delivered to a worker.
pub(crate) enum ToWorker {
    /// Process (the next stages of) a batch.
    Batch(Envelope),
    /// Pause for a migration's state transfer; the pause is measured into
    /// [`NodeState::pause_nanos`].
    Pause(Duration),
    /// Drain and exit.
    Shutdown,
}

/// A completed batch, reported to the coordinator.
pub(crate) struct Completion {
    /// Driving tuples the batch carried at ingest.
    pub n_input: u64,
    /// Result tuples the final operator emitted.
    pub produced: u64,
    /// Per-operator input/output counts of the whole pipeline.
    pub counts: Vec<OpCounts>,
    /// Virtual time of the ingest tick.
    pub t_secs: f64,
    /// Wall-clock end-to-end latency (ingest → last operator).
    pub latency: Duration,
}

/// Everything a worker thread needs, bundled so spawning stays tidy.
pub(crate) struct WorkerHarness {
    /// This worker's node index.
    pub node: usize,
    /// This worker's inbox.
    pub rx: Receiver<ToWorker>,
    /// Senders to every worker's inbox (for pipeline forwards).
    pub peers: Vec<SyncSender<ToWorker>>,
    /// Every node's shared runtime state (`states[node]` is this worker's).
    pub states: Vec<Arc<NodeState>>,
    /// Completion channel back to the coordinator.
    pub completions: std::sync::mpsc::Sender<Completion>,
    /// The query's compiled operators, immutable and shared across workers
    /// (*which* worker evaluates an operator is what the placement pins).
    pub ops: Arc<Vec<CompiledOp>>,
    /// Envelopes in flight across the whole dataplane.
    pub in_flight: Arc<AtomicI64>,
    /// Driving tuples in flight across the whole dataplane.
    pub in_flight_tuples: Arc<AtomicI64>,
    /// Whether crashed nodes park (replay) or drop (lose) their envelopes.
    pub replay: bool,
}

impl WorkerHarness {
    fn state(&self) -> &NodeState {
        &self.states[self.node]
    }

    /// Retire an envelope that will never complete: count its tuples lost.
    fn account_drop(&self, env: &Envelope) {
        self.state()
            .lost_inputs
            .fetch_add(env.n_input, Ordering::Relaxed);
        self.retire(env);
    }

    /// Remove an envelope from the in-flight accounting.
    fn retire(&self, env: &Envelope) {
        self.in_flight.fetch_sub(1, Ordering::AcqRel);
        self.in_flight_tuples
            .fetch_sub(env.n_input as i64, Ordering::AcqRel);
    }
}

/// The worker loop. Never blocks on a forward send (full peer inboxes spill
/// into a local FIFO that is retried every iteration), so pipelines that
/// cross nodes in both directions cannot deadlock; only the coordinator's
/// ingest send blocks, which is exactly the backpressure seam.
pub(crate) fn run_worker(h: WorkerHarness) {
    // The selection buffer `FusedChain::eval` ping-pongs against.
    let mut scratch: Vec<u32> = Vec::new();
    let mut forward_queue: VecDeque<(usize, Envelope)> = VecDeque::new();
    let mut parked: VecDeque<Envelope> = VecDeque::new();
    let mut shutdown = false;
    loop {
        // Flush pending forwards first, preserving order. Envelopes were
        // already counted against their target's queue at forward intent.
        while let Some((target, env)) = forward_queue.pop_front() {
            match h.peers[target].try_send(ToWorker::Batch(env)) {
                Ok(()) => {}
                Err(TrySendError::Full(ToWorker::Batch(env))) => {
                    forward_queue.push_front((target, env));
                    break;
                }
                Err(TrySendError::Disconnected(ToWorker::Batch(env))) => {
                    // Peer exited during shutdown: the batch can never
                    // complete; account it so in-flight tracking stays sane.
                    h.states[target].dequeue_envelope();
                    h.account_drop(&env);
                }
                Err(_) => {}
            }
        }

        // Replay parked envelopes once the node is back up.
        if h.state().is_up() {
            if let Some(env) = parked.pop_front() {
                process(&h, env, &mut scratch, &mut forward_queue);
                continue;
            }
        }

        if shutdown {
            // Envelopes parked on a node that never recovered are lost at
            // shutdown — they were delayed, and the run ended first.
            if !h.state().is_up() {
                for env in parked.drain(..) {
                    h.account_drop(&env);
                }
            }
            if forward_queue.is_empty() && parked.is_empty() {
                return;
            }
        }

        match h.rx.recv_timeout(Duration::from_millis(1)) {
            Ok(ToWorker::Batch(env)) => {
                h.state().dequeue_envelope();
                if h.state().is_up() {
                    process(&h, env, &mut scratch, &mut forward_queue);
                } else if h.replay {
                    parked.push_back(env);
                } else {
                    // Crash with Lost semantics: the envelope is discarded
                    // and its driving tuples are counted as lost.
                    h.account_drop(&env);
                }
            }
            Ok(ToWorker::Pause(duration)) => {
                std::thread::sleep(duration);
                h.state()
                    .pause_nanos
                    .fetch_add(duration.as_nanos() as u64, Ordering::Relaxed);
            }
            Ok(ToWorker::Shutdown) => shutdown = true,
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {}
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => shutdown = true,
        }
    }
}

/// Apply the run of consecutive operators of the envelope's plan that is
/// pinned to this node — as one fused sub-chain over the envelope's
/// selection — then forward to the next node or report completion.
fn process(
    h: &WorkerHarness,
    mut env: Envelope,
    scratch: &mut Vec<u32>,
    forward_queue: &mut VecDeque<(usize, Envelope)>,
) {
    let started = Instant::now();
    let ordering = env.plan.ordering();
    let pinned_here = ordering[env.stage..].iter().take_while(|op| {
        env.placement
            .node_of(**op)
            .is_some_and(|node| node.index() == h.node)
    });
    let end = env.stage + pinned_here.count();
    let evaluated = FusedChain::compile(&h.ops, &ordering[env.stage..end]).and_then(|chain| {
        chain.eval(
            &env.batch,
            &env.probes,
            &mut env.sel,
            scratch,
            &mut env.counts,
        )
    });
    if evaluated.is_err() {
        // A chain that cannot compile or evaluate (an operator the query
        // does not have, a probe without a published snapshot): like the
        // unplaced operator below, unreachable in a well-formed run — drop
        // loudly rather than report a result that was never computed.
        h.account_drop(&env);
        return;
    }
    env.stage = end;
    let elapsed = started.elapsed();
    // A straggler is genuinely slower: stretch the processing time by the
    // inverse capacity factor. The stretch is clamped (1 s per envelope) so
    // a pathological factor cannot wedge a run; the clamp only binds when a
    // single envelope's real work already exceeds factor × 1 s. The stretch
    // counts as busy time — a degraded worker is occupied, just slow — so
    // utilization reflects the node's effective saturation.
    let factor = h.state().factor();
    let mut busy = elapsed;
    if factor < 1.0 && factor > 0.0 {
        let extra = (elapsed.as_secs_f64() * (1.0 / factor - 1.0)).min(1.0);
        std::thread::sleep(Duration::from_secs_f64(extra));
        busy += Duration::from_secs_f64(extra);
    }
    h.state()
        .busy_nanos
        .fetch_add(busy.as_nanos() as u64, Ordering::Relaxed);

    if env.stage >= ordering.len() || env.sel.is_empty() {
        h.retire(&env);
        let _ = h.completions.send(Completion {
            n_input: env.n_input,
            produced: env.sel.len() as u64,
            counts: env.counts,
            t_secs: env.t_secs,
            latency: env.ingest.elapsed(),
        });
    } else {
        let next = env.placement.node_of(ordering[env.stage]);
        match next {
            Some(node) => {
                h.states[node.index()].enqueue_envelope();
                forward_queue.push_back((node.index(), env));
            }
            None => {
                // An unplaced operator mid-pipeline: the coordinator validates
                // placements at routing time, so this is unreachable in a
                // well-formed run; drop loudly rather than hang the batch.
                h.account_drop(&env);
            }
        }
    }
}
