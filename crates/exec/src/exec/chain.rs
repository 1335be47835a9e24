//! Compiled operators and the fused chain that evaluates a run of them over
//! a [`ColumnBatch`] against one epoch's [`ProbeSet`].

use super::batch::{driving_arity, match_field, ColumnBatch};
use super::marks::{MarkTerms, SortedMarks};
use rand::RngExt;
use rld_common::rng::{derive_seed, rng_from_seed};
use rld_common::{
    OperatorId, OperatorKind, OperatorSpec, Query, Result, RldError, StatKey, StatsSnapshot,
    StreamId,
};
use std::cmp::Ordering;
use std::sync::Arc;

/// The executable state of one compiled operator.
#[derive(Debug, Clone)]
pub(super) enum OpState {
    /// A filter passing the rows whose match column is below `threshold`.
    Filter { threshold: f64 },
    /// The identity projection over the `width` columns of a driving batch.
    Project { width: usize },
    /// A lookup join probing a static, seeded table of match marks. The
    /// table never mutates after compile, so its sorted probe snapshot is
    /// built once and shared.
    Lookup { sorted: Arc<SortedMarks> },
    /// A window join probing the partner stream's sliding window. The
    /// window *contents* live in the executor's [`WindowPartition`]s and
    /// reach the chain as a [`ProbeSet`] snapshot.
    Window { partner: StreamId },
}

/// Per-operator dataplane measurements: real input/output tuple counts.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct OpObservation {
    /// Driving tuples that entered the operator.
    pub(crate) inputs: u64,
    /// Tuples the operator emitted.
    pub(crate) outputs: u64,
}

impl OpObservation {
    /// The observed selectivity (outputs per input), if any input was seen.
    pub(crate) fn selectivity(&self) -> Option<f64> {
        (self.inputs > 0).then(|| self.outputs as f64 / self.inputs as f64)
    }
}

/// The executable form of one [`OperatorSpec`]: the spec plus its static
/// operator state (filter threshold, batch width, lookup table, or the partner
/// stream it windows) and the input/output counters of everything it has
/// processed.
#[derive(Debug, Clone)]
pub(crate) struct CompiledOp {
    spec: OperatorSpec,
    pub(super) match_field: usize,
    pub(super) state: OpState,
    observed: OpObservation,
}

/// Mix a tuple's timestamp with the operator id into a rotation in `[0, 1)`,
/// so distinct driving tuples probe distinct match subsets of the same
/// lookup-table / window state (splitmix64 finalizer). Without the rotation
/// a constant θ against a momentarily-static window would give every tuple
/// of a batch the *same* match count — a degenerate, high-variance estimate
/// of the intended match probability.
pub(super) fn probe_rotation(ts_ms: u64, op: OperatorId) -> f64 {
    let mut z = ts_ms
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(op.index() as u64 + 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

impl CompiledOp {
    /// Compile one operator of a query into its executable form. `seed`
    /// derives the lookup-table contents, so the whole dataplane is
    /// reproducible per seed.
    pub(crate) fn compile(query: &Query, spec: &OperatorSpec, seed: u64) -> Self {
        let mf = match_field(query, spec.id.index());
        let state = match spec.kind {
            OperatorKind::Filter => OpState::Filter {
                threshold: spec.selectivity_estimate,
            },
            OperatorKind::Project => OpState::Project {
                width: driving_arity(query),
            },
            OperatorKind::LookupJoin { table_size } => {
                let mut rng =
                    rng_from_seed(derive_seed(seed, &format!("lookup-{}", spec.id.index())));
                let marks: Vec<f64> = (0..table_size)
                    .map(|_| rng.random_range(0.0..1.0))
                    .collect();
                OpState::Lookup {
                    sorted: Arc::new(SortedMarks::from_unsorted(marks)),
                }
            }
            OperatorKind::WindowJoin { partner } => OpState::Window { partner },
        };
        Self {
            spec: spec.clone(),
            match_field: mf,
            state,
            observed: OpObservation::default(),
        }
    }

    /// The partner stream whose window this operator probes, if any.
    pub(crate) fn partner_stream(&self) -> Option<StreamId> {
        match &self.state {
            OpState::Window { partner } => Some(*partner),
            _ => None,
        }
    }

    /// The real input/output counts observed so far.
    #[cfg(test)]
    pub(crate) fn observed(&self) -> OpObservation {
        self.observed
    }

    /// Fold externally measured input/output counts into this operator's
    /// observation. Fused chains evaluate against read-only snapshots away
    /// from the operator state; the [`OpCounts`] each evaluation measured
    /// flow back through here.
    pub(crate) fn note_observed(&mut self, inputs: u64, outputs: u64) {
        self.observed.inputs += inputs;
        self.observed.outputs += outputs;
    }

    /// The sorted probe snapshot of a lookup join's static table (built once
    /// at compile time, so every call returns the same `Arc`). `None` for
    /// every other operator — window joins probe the executor's
    /// [`WindowPartition`] snapshots instead.
    pub(crate) fn probe_marks(&self) -> Option<Arc<SortedMarks>> {
        match &self.state {
            OpState::Lookup { sorted } => Some(Arc::clone(sorted)),
            _ => None,
        }
    }

    /// Fold this operator's observed selectivity (if it saw any input) into
    /// a statistics snapshot — the shared building block of every
    /// "what did the dataplane measure" projection.
    pub(crate) fn fold_observed_into(&self, stats: &mut StatsSnapshot) {
        if let Some(s) = self.observed.selectivity() {
            stats.set(StatKey::Selectivity(self.spec.id), s);
        }
    }
}

/// One epoch's read-only probe snapshots, indexed by operator: for each
/// operator with probe state, one or more [`MarkTerms`] partitions whose
/// union is the operator's probe state. Lookup tables are a single
/// static partition; sliding windows carry one partition per shard,
/// published tick-synchronously by the shard that owns it. Probing sums
/// [`MarkTerms::count_matches`] over the partitions — an exact integer
/// count, so neither the partitioning nor the term structure can change a
/// result.
///
/// The executor shares one epoch behind an `Arc`, so every shard probes the
/// same frozen state — making shard results independent of thread timing —
/// and publishes the next through `Arc::make_mut`: in place once no reader
/// holds the epoch, else as a clone, which is cheap (per-term `Arc`s).
#[derive(Debug, Clone, Default)]
pub(crate) struct ProbeSet {
    per_op: Vec<Vec<MarkTerms>>,
}

impl ProbeSet {
    /// An empty set for `num_ops` operators (no probe state anywhere).
    pub(crate) fn new(num_ops: usize) -> Self {
        Self {
            per_op: vec![Vec::new(); num_ops],
        }
    }

    /// Replace one partition of one operator's probe state, growing the
    /// partition list with empty snapshots as needed.
    pub(crate) fn set_partition(&mut self, op: OperatorId, partition: usize, terms: MarkTerms) {
        if op.index() >= self.per_op.len() {
            self.per_op.resize(op.index() + 1, Vec::new());
        }
        let parts = &mut self.per_op[op.index()];
        while parts.len() <= partition {
            parts.push(MarkTerms::default());
        }
        parts[partition] = terms;
    }

    /// The partitions of one operator's probe state (empty slice = the
    /// operator has no probe state).
    pub(crate) fn partitions(&self, op: OperatorId) -> &[MarkTerms] {
        self.per_op.get(op.index()).map_or(&[], Vec::as_slice)
    }
}

/// Per-step dataplane counts measured by one fused-chain evaluation, to be
/// folded back into the canonical [`CompiledOp`]s via
/// [`CompiledOp::note_observed`]. Addition is order-independent, so folding
/// shard results in any order yields deterministic observed stats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct OpCounts {
    /// The operator the counts belong to.
    pub(crate) op: OperatorId,
    /// Selection entries that entered the step.
    pub(crate) inputs: u64,
    /// Selection entries the step emitted.
    pub(crate) outputs: u64,
}

/// The steps of a [`FusedChain`].
#[derive(Debug, Clone)]
enum FusedStep {
    /// The one filter form: keep the rows whose match column at `field` is
    /// below `threshold`.
    Filter {
        id: OperatorId,
        field: usize,
        threshold: f64,
    },
    /// The identity projection: passes the selection through unchanged
    /// (`width` pins the arity so a mismatched batch is rejected instead of
    /// silently passing columns the projection does not list).
    Passthrough { id: OperatorId, width: usize },
    /// A lookup/window probe against the epoch's [`SortedMarks`] snapshot,
    /// with the per-row θ read from the match column at `field`.
    Probe { id: OperatorId, field: usize },
}

/// Branch-free compaction of a selection vector: `out[k] = r` is written
/// unconditionally and the cursor advances by `keep(r) as usize` — no
/// data-dependent branch in the loop body, so the predicate load + compare
/// autovectorizes over the column's slice.
fn compact_by(sel: &[u32], out: &mut Vec<u32>, mut keep: impl FnMut(u32) -> bool) {
    out.clear();
    out.resize(sel.len(), 0);
    let mut k = 0usize;
    for &r in sel {
        out[k] = r;
        k += keep(r) as usize;
    }
    out.truncate(k);
}

/// A logical plan — or any consecutive run of its operators — compiled into
/// one fused, vectorized operator chain.
///
/// Evaluated per batch with selection vectors — no per-tuple dispatch, no
/// intermediate tuple materialization, no operator locks. The chain itself
/// is immutable and shareable across threads; all mutable state (windows)
/// stays behind the coordinator and reaches the chain as a [`ProbeSet`]
/// snapshot. Evaluating the sub-chains of any split of an ordering in
/// sequence, each over the previous one's surviving selection, yields the
/// same selection and the same [`OpCounts`] as the whole chain — which is
/// what lets the executor run a plan as the hops its placement pins to
/// nodes and time each hop apart.
#[derive(Debug, Clone)]
pub(crate) struct FusedChain {
    steps: Vec<FusedStep>,
}

impl FusedChain {
    /// Fuse the operators in plan order.
    pub(crate) fn compile(ops: &[CompiledOp], ordering: &[OperatorId]) -> Result<Self> {
        let mut steps = Vec::with_capacity(ordering.len());
        for id in ordering {
            let op = ops
                .get(id.index())
                .ok_or_else(|| RldError::NotFound(format!("compiled operator {id}")))?;
            let step = match &op.state {
                OpState::Filter { threshold } => FusedStep::Filter {
                    id: *id,
                    field: op.match_field,
                    threshold: *threshold,
                },
                OpState::Project { width } => FusedStep::Passthrough {
                    id: *id,
                    width: *width,
                },
                OpState::Lookup { .. } | OpState::Window { .. } => FusedStep::Probe {
                    id: *id,
                    field: op.match_field,
                },
            };
            steps.push(step);
        }
        Ok(Self { steps })
    }

    /// Evaluate the chain over `sel` (row indices into `batch`), leaving the
    /// surviving selection in `sel`. Appends one [`OpCounts`] per executed
    /// step to `counts`; steps after the selection empties are skipped and
    /// record nothing. `scratch` is a second buffer the steps ping-pong
    /// against; both keep their allocations, so a caller that reuses them
    /// evaluates with zero allocations in steady state.
    pub(crate) fn eval(
        &self,
        batch: &ColumnBatch,
        probes: &ProbeSet,
        sel: &mut Vec<u32>,
        scratch: &mut Vec<u32>,
        counts: &mut Vec<OpCounts>,
    ) -> Result<()> {
        for step in &self.steps {
            if sel.is_empty() {
                break;
            }
            let inputs = sel.len() as u64;
            let id = match step {
                FusedStep::Filter {
                    id,
                    field,
                    threshold,
                } => {
                    let vals = batch.match_floats(*field, *id)?;
                    compact_by(sel, scratch, |r| {
                        vals[r as usize].total_cmp(threshold) == Ordering::Less
                    });
                    std::mem::swap(sel, scratch);
                    *id
                }
                FusedStep::Passthrough { id, width } => {
                    if batch.arity() != *width {
                        return Err(RldError::InvalidArgument(format!(
                            "operator {id}: projection width {width} does not match batch arity {}",
                            batch.arity()
                        )));
                    }
                    *id
                }
                FusedStep::Probe { id, field } => {
                    let parts = probes.partitions(*id);
                    if parts.is_empty() {
                        return Err(RldError::InvalidArgument(format!(
                            "operator {id}: missing probe snapshot"
                        )));
                    }
                    let thetas = batch.match_floats(*field, *id)?;
                    // Probes need no order: every term answers each one
                    // through its own read path.
                    scratch.clear();
                    for &r in sel.iter() {
                        let row = r as usize;
                        let theta = thetas[row];
                        let rot = probe_rotation(batch.timestamps[row], *id);
                        let n: usize = parts.iter().map(|p| p.count_matches(theta, rot)).sum();
                        scratch.extend(std::iter::repeat_n(r, n));
                    }
                    std::mem::swap(sel, scratch);
                    *id
                }
            };
            counts.push(OpCounts {
                op: id,
                inputs,
                outputs: sel.len() as u64,
            });
        }
        Ok(())
    }
}
