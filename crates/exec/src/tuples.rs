//! Seeded tuple generators for the dataplane.
//!
//! The simulator only needs the workloads' *statistics*; the executors need
//! the tuples themselves. [`ShardedDrivingGen`] produces genuine
//! driving-stream batches (stock ticks, sensor readings — application fields
//! are filled per the stream's schema) and [`ShardedPartnerGen`] the
//! partner-stream arrivals that feed the window-join state, following the
//! match-column convention of [`crate::exec`]:
//!
//! * driving tuples carry one extra *match column* per operator, valued so
//!   that the compiled operator's fixed predicate passes with exactly the
//!   workload's ground-truth selectivity at generation time, and
//! * partner tuples carry a *mark* in `[0, 1)` probed by window joins.
//!
//! Every row draws from its own per-(tick, row) substream of one seed, so
//! the generated dataplane is bit-reproducible per seed — whichever
//! executor, thread or shard fills the row.

use crate::column::Column;
use crate::exec::{self, ColumnBatch};
use rand::RngExt;
use rld_common::rng::{derive_seed, fnv1a, mix64, rng_from_seed, sample_poisson};
use rld_common::{DataType, OperatorKind, Query, StatsSnapshot, StreamId};

/// Ticker symbols used for text fields of driving/partner tuples — the
/// stock-tick flavor of the paper's Stocks–News–Blogs–Currency feeds. A
/// generated text cell is one of these `'static` slices, so stamping it into
/// a row copies two words and clearing a batch frees nothing per cell.
const SYMBOLS: [&str; 8] = [
    "AAPL", "MSFT", "IBM", "ORCL", "GOOG", "AMZN", "TSLA", "NVDA",
];

/// How one operator's match column is produced during one tick. The
/// coordinator computes the plan once per tick from the ground truth
/// ([`ShardedDrivingGen::match_plan`]); every shard then applies it
/// row-locally. Filters spend one per-row uniform; join thetas are
/// tick-constants, so no draw is spent on them at all.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum MatchColumn {
    /// `u · scale` for a fresh per-row uniform `u` — a filter with nonzero
    /// ground truth; its fixed predicate `match < s_est` then passes with
    /// probability exactly `s_true`.
    Scaled(f64),
    /// A tick-constant value: a join theta, or the never-passing sentinel
    /// of a zero-truth filter.
    Constant(f64),
    /// A fresh per-row uniform (projections; the value is never probed).
    Uniform,
}

/// The per-(tick, row) generator substream: mixing the base seed with the
/// tick and the *global* row index gives every row an RNG that depends on
/// nothing but its coordinates — the property that makes generation
/// embarrassingly parallel without losing per-seed determinism.
fn row_seed(base: u64, tick: u64, row: u64) -> u64 {
    mix64(base ^ mix64(tick.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(row)))
}

/// The driving-stream generator. Every (tick, row) pair owns an independent
/// splitmix64-derived substream — so any contiguous row range `[lo, hi)` of
/// a tick's `n` tuples can be filled on any shard, and the concatenation
/// over *any* sharding is bit-identical to generating the whole tick on one
/// thread.
///
/// Float application fields draw row-local price levels rather than a
/// cross-tuple random walk: row independence is what buys shard freedom,
/// and the fields are opaque payload to every operator (only match columns
/// and marks are probed).
#[derive(Debug, Clone)]
pub(crate) struct ShardedDrivingGen {
    query: Query,
    base: u64,
}

impl ShardedDrivingGen {
    /// Create a sharded generator for a query. All randomness derives from
    /// `seed`; clones share the substream space, so shards may each hold one.
    pub(crate) fn new(query: &Query, seed: u64) -> Self {
        Self {
            query: query.clone(),
            base: derive_seed(seed, "driving-sharded"),
        }
    }

    /// The query this generator produces tuples for.
    #[cfg(test)]
    pub(crate) fn query(&self) -> &Query {
        &self.query
    }

    /// The match-column plan under the ground-truth statistics (see the
    /// module docs of [`crate::exec`] for the convention): a pure
    /// function of `truth`, so a caller evaluates it again only when the
    /// truth changes.
    pub(crate) fn match_plan(&self, truth: &StatsSnapshot) -> Vec<MatchColumn> {
        self.query
            .operators
            .iter()
            .map(|spec| {
                let s_true = truth
                    .selectivity(spec.id)
                    .unwrap_or(spec.selectivity_estimate);
                match spec.kind {
                    // The predicate is `match < s_est`: scale the uniform so
                    // it passes with probability `s_true`; a zero truth
                    // never passes.
                    OperatorKind::Filter => {
                        if s_true <= 0.0 {
                            MatchColumn::Constant(spec.selectivity_estimate + 1.0)
                        } else {
                            MatchColumn::Scaled(spec.selectivity_estimate / s_true)
                        }
                    }
                    OperatorKind::Project => MatchColumn::Uniform,
                    // θ = the fraction of the table that should match.
                    OperatorKind::LookupJoin { table_size } => {
                        MatchColumn::Constant((s_true / table_size.max(1) as f64).clamp(0.0, 1.0))
                    }
                    // θ = the per-window-tuple match probability at the
                    // expected window occupancy (partner rate × window).
                    OperatorKind::WindowJoin { partner } => {
                        let rate = truth
                            .input_rate(partner)
                            .unwrap_or(self.query.streams[partner.index()].rate_estimate);
                        let expected_window = (rate * self.query.window_secs).max(1.0);
                        MatchColumn::Constant((s_true / expected_window).clamp(0.0, 1.0))
                    }
                }
            })
            .collect()
    }

    /// Fill rows `[lo, hi)` of tick `tick`'s `n`-tuple driving batch into
    /// `out` (built by [`ColumnBatch::for_driving`] for this generator's
    /// query; rows are appended). Each row draws its application cells in
    /// field order — the type of each is the column's — then its match
    /// cells in operator order. Timestamps spread evenly over `[t, t + dt)`
    /// by *global* row index, so a slice sees the same timestamps it would
    /// as part of the whole.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn fill_slice(
        &self,
        out: &mut ColumnBatch,
        plan: &[MatchColumn],
        tick: u64,
        t_secs: f64,
        dt_secs: f64,
        n: u64,
        lo: u64,
        hi: u64,
    ) {
        debug_assert_eq!(out.arity(), exec::driving_arity(&self.query));
        debug_assert_eq!(plan.len(), self.query.num_operators());
        debug_assert!(lo <= hi && hi <= n);
        let (timestamps, columns) = out.parts_mut();
        let num_fields = columns.len().saturating_sub(plan.len());
        let (fields, matches) = columns.split_at_mut(num_fields);
        for i in lo..hi {
            let ts_ms = ((t_secs + dt_secs * i as f64 / n.max(1) as f64) * 1000.0) as u64;
            let mut rng = rng_from_seed(row_seed(self.base, tick, i));
            timestamps.push(ts_ms);
            for column in fields.iter_mut() {
                match column {
                    Column::Text(v) => v.push(SYMBOLS[rng.random_range(0..SYMBOLS.len())]),
                    Column::Float(v) => v.push(rng.random_range(1.0..200.0)),
                    Column::Int(v) => v.push(rng.random_range(0..1000i64)),
                    Column::Bool(v) => v.push(rng.random_range(0.0..1.0f64) < 0.5),
                    Column::Timestamp(v) => v.push(ts_ms),
                }
            }
            for (column, source) in matches.iter_mut().zip(plan) {
                // Anything but `Float` here is a batch built for another
                // query; the chain refuses it at this operator.
                let Column::Float(v) = column else { continue };
                v.push(match *source {
                    MatchColumn::Scaled(scale) => rng.random_range(0.0..1.0f64) * scale,
                    MatchColumn::Constant(c) => c,
                    MatchColumn::Uniform => rng.random_range(0.0..1.0f64),
                });
            }
        }
    }
}

/// The partner-stream generator — the partner twin of
/// [`ShardedDrivingGen`]. Every (tick, stream, row) triple owns an
/// independent splitmix64-derived substream, so each shard can derive
/// exactly the partner arrivals whose key lands in its partition from
/// nothing but `(tick, t, dt, truth)` scalars: the coordinator never
/// materializes, ships, or partitions partner tuples, and the filtered
/// union over any shard count is bit-identical to the single-shard whole.
///
/// A tick's arrivals on a partner stream are reduced to exactly what a
/// partitioned window consumes: per-tuple timestamps (ascending) and
/// window-join match marks in `[0, 1)`. A row's partition key — FNV-1a of
/// the row's symbol draw for streams with a text field, a timestamp hash
/// otherwise — only decides which shard owns it (every shard must agree,
/// and nothing else about the key matters for correctness), so it is worked
/// out only where a partition has to be chosen, over more than one shard.
/// The symbol itself is drawn on every text-keyed row, so the mark drawn
/// after it is the same at every shard count. Partner application fields
/// are never generated: they are opaque payload.
#[derive(Debug, Clone)]
pub(crate) struct ShardedPartnerGen {
    query: Query,
    /// Per-stream: whether the schema has a text field (keys then come from
    /// the row's symbol draw instead of a timestamp hash).
    has_text: Vec<bool>,
    /// `fnv1a(SYMBOLS[i])`: the partition key of a text-keyed row that drew
    /// symbol `i`.
    symbol_keys: [u64; SYMBOLS.len()],
    /// Per-stream substream bases for the tick's Poisson batch size.
    count_bases: Vec<u64>,
    /// Per-stream substream bases for per-row (symbol, mark) draws.
    row_bases: Vec<u64>,
}

impl ShardedPartnerGen {
    /// Create a sharded partner generator. All randomness derives from
    /// `seed`; clones share the substream space, so shards may each hold one.
    pub(crate) fn new(query: &Query, seed: u64) -> Self {
        let base = derive_seed(seed, "partner-sharded");
        Self {
            query: query.clone(),
            has_text: query
                .streams
                .iter()
                .map(|s| {
                    s.schema
                        .fields()
                        .iter()
                        .any(|f| f.data_type == DataType::Text)
                })
                .collect(),
            symbol_keys: SYMBOLS.map(|s| fnv1a(s.as_bytes())),
            count_bases: (0..query.num_streams())
                .map(|s| derive_seed(base, &format!("count-{s}")))
                .collect(),
            row_bases: (0..query.num_streams())
                .map(|s| derive_seed(base, &format!("rows-{s}")))
                .collect(),
        }
    }

    /// The query this generator produces tuples for.
    pub(crate) fn query(&self) -> &Query {
        &self.query
    }

    /// The tick's Poisson batch size on one partner stream — a pure function
    /// of (tick, stream, truth), so every shard agrees on it without
    /// coordination.
    pub(crate) fn batch_size(
        &self,
        tick: u64,
        stream: StreamId,
        dt_secs: f64,
        truth: &StatsSnapshot,
    ) -> u64 {
        let s = stream.index();
        let rate = truth
            .input_rate(stream)
            .unwrap_or(self.query.streams[s].rate_estimate);
        let mut rng = rng_from_seed(row_seed(self.count_bases[s], tick, 0));
        sample_poisson(&mut rng, (rate * dt_secs).max(0.0))
    }

    /// Every row of tick `tick` on `stream`, in row order, as
    /// `(ts_ms, mark, symbol)`: each row's draws from its own substream —
    /// the symbol index first on a text-keyed stream (0 on the others), then
    /// the window mark. Timestamps spread evenly over `[t, t + dt)` by
    /// *global* row index, so a partition sees the same timestamps it would
    /// as part of the whole.
    fn rows(
        &self,
        stream: StreamId,
        tick: u64,
        t_secs: f64,
        dt_secs: f64,
        truth: &StatsSnapshot,
    ) -> impl Iterator<Item = (u64, f64, usize)> + '_ {
        let s = stream.index();
        let n = self.batch_size(tick, stream, dt_secs, truth);
        (0..n).map(move |i| {
            let ts_ms = ((t_secs + dt_secs * i as f64 / n.max(1) as f64) * 1000.0) as u64;
            let mut rng = rng_from_seed(row_seed(self.row_bases[s], tick, i));
            let symbol = if self.has_text[s] {
                rng.random_range(0..SYMBOLS.len())
            } else {
                0
            };
            (ts_ms, rng.random_range(0.0..1.0), symbol)
        })
    }

    /// A row's partition key: its symbol's FNV-1a on a text-keyed stream, a
    /// hash of its timestamp otherwise.
    fn key(&self, stream: StreamId, ts_ms: u64, symbol: usize) -> u64 {
        if self.has_text[stream.index()] {
            self.symbol_keys[symbol]
        } else {
            mix64(ts_ms)
        }
    }

    /// The owning reference path: the rows of tick `tick` on `stream` whose
    /// partition key lands on `shard` of `shards`, in row order, as
    /// `(ts_ms, mark, key)` — the key worked out for every row, even at one
    /// shard, so that the tests can check `fill_stream` against it.
    #[cfg(test)]
    #[allow(clippy::too_many_arguments)]
    fn partition_rows(
        &self,
        stream: StreamId,
        tick: u64,
        t_secs: f64,
        dt_secs: f64,
        truth: &StatsSnapshot,
        shard: u64,
        shards: u64,
    ) -> impl Iterator<Item = (u64, f64, u64)> + '_ {
        debug_assert!(shards > 0 && shard < shards);
        self.rows(stream, tick, t_secs, dt_secs, truth)
            .map(move |(ts_ms, mark, symbol)| (ts_ms, mark, self.key(stream, ts_ms, symbol)))
            .filter(move |row| row.2 % shards == shard)
    }

    /// Generate exactly the rows of tick `tick` on `stream` whose partition
    /// key lands on `shard` of `shards` into the caller's reusable buffers
    /// (cleared first), without allocating. `(0, 1)` is the whole tick: with
    /// one partition every row is owned, so no key is worked out.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn fill_stream(
        &self,
        stream: StreamId,
        tick: u64,
        t_secs: f64,
        dt_secs: f64,
        truth: &StatsSnapshot,
        shard: u64,
        shards: u64,
        ts_ms: &mut Vec<u64>,
        marks: &mut Vec<f64>,
    ) {
        debug_assert!(shards > 0 && shard < shards);
        ts_ms.clear();
        marks.clear();
        for (ts, mark, symbol) in self.rows(stream, tick, t_secs, dt_secs, truth) {
            if shards > 1 && self.key(stream, ts, symbol) % shards != shard {
                continue;
            }
            ts_ms.push(ts);
            marks.push(mark);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{self, CompiledOp, FusedChain, MarkTerms, ProbeSet, WindowPartition};
    use rld_common::{OperatorId, StatKey};
    use rld_workloads::{RatePattern, SensorWorkload, StockWorkload, Workload};

    /// The selectivity each operator of `q` observes when `batch` runs
    /// through it *independently* (not as a pipeline, so each operator's
    /// sample is the full batch), against windows warmed with `warm_ticks`
    /// ticks of partner arrivals under `truth`.
    fn observed_selectivities(
        q: &Query,
        seed: u64,
        truth: &StatsSnapshot,
        warm_ticks: u64,
        batch: &ColumnBatch,
    ) -> Vec<f64> {
        let ops: Vec<CompiledOp> = q
            .operators
            .iter()
            .map(|spec| CompiledOp::compile(q, spec, seed))
            .collect();
        let pgen = ShardedPartnerGen::new(q, seed);
        let window_ms = (q.window_secs * 1000.0) as u64;
        let mut windows: Vec<Option<(StreamId, WindowPartition)>> = ops
            .iter()
            .map(|op| {
                op.partner_stream()
                    .map(|s| (s, WindowPartition::new(window_ms)))
            })
            .collect();
        let (mut ts, mut marks) = (Vec::new(), Vec::new());
        for tick in 0..warm_ticks {
            let t = tick as f64;
            for (stream, part) in windows.iter_mut().flatten() {
                pgen.fill_stream(*stream, tick, t, 1.0, truth, 0, 1, &mut ts, &mut marks);
                part.advance((t * 1000.0) as u64 + 999, &ts, &marks);
            }
        }
        let mut probes = ProbeSet::new(ops.len());
        for (i, op) in ops.iter().enumerate() {
            let terms = match &windows[i] {
                Some((_, part)) => part.snapshot(),
                None => match op.probe_marks() {
                    Some(table) => MarkTerms::single(table),
                    None => continue,
                },
            };
            probes.set_partition(OperatorId::new(i), 0, terms);
        }
        q.operator_ids()
            .into_iter()
            .map(|op| {
                let chain = FusedChain::compile(&ops, &[op]).unwrap();
                let mut sel = batch.identity_sel();
                let mut counts = Vec::new();
                chain
                    .eval(batch, &probes, &mut sel, &mut Vec::new(), &mut counts)
                    .unwrap();
                counts[0].outputs as f64 / counts[0].inputs as f64
            })
            .collect()
    }

    /// The partner streams of `q`, in stream order.
    fn partner_streams(q: &Query) -> Vec<StreamId> {
        (0..q.num_streams())
            .map(StreamId::new)
            .filter(|s| *s != q.driving_stream)
            .collect()
    }

    /// One partition of one partner stream's tick as owned
    /// `(ts_ms, mark, key)` rows — what `fill_stream` is checked against.
    fn partner_rows(
        g: &ShardedPartnerGen,
        stream: StreamId,
        tick: u64,
        truth: &StatsSnapshot,
        shard: u64,
        shards: u64,
    ) -> Vec<(u64, f64, u64)> {
        g.partition_rows(stream, tick, tick as f64, 1.0, truth, shard, shards)
            .collect()
    }

    fn fill(g: &ShardedDrivingGen, truth: &StatsSnapshot, tick: u64, n: u64) -> ColumnBatch {
        let mut cb = ColumnBatch::for_driving(g.query());
        g.fill_slice(
            &mut cb,
            &g.match_plan(truth),
            tick,
            tick as f64,
            1.0,
            n,
            0,
            n,
        );
        cb
    }

    #[test]
    fn driving_batches_are_deterministic_per_seed() {
        let q = Query::q1_stock_monitoring();
        let truth = q.default_stats();
        let ba = fill(&ShardedDrivingGen::new(&q, 7), &truth, 0, 50);
        let bb = fill(&ShardedDrivingGen::new(&q, 7), &truth, 0, 50);
        let bc = fill(&ShardedDrivingGen::new(&q, 8), &truth, 0, 50);
        assert_eq!(ba, bb);
        assert_ne!(ba, bc);
        assert_eq!(ba.len(), 50);
        assert_eq!(ba.arity(), exec::driving_arity(&q));
        // Timestamps advance within the interval.
        assert!(ba.timestamps().windows(2).all(|w| w[0] <= w[1]));
    }

    /// Partner batch sizes follow the *truth's* input rates, not the
    /// query's estimates, and every arrival carries a mark in `[0, 1)`.
    #[test]
    fn partner_batches_carry_marks_and_follow_rates() {
        let q = Query::q1_stock_monitoring();
        let g = ShardedPartnerGen::new(&q, 7);
        let mut tripled = q.default_stats();
        for s in 1..q.num_streams() {
            let sid = StreamId::new(s);
            let rate = tripled.input_rate(sid).unwrap();
            tripled.set(StatKey::InputRate(sid), 3.0 * rate);
        }
        for (truth, scale) in [(q.default_stats(), 1.0), (tripled, 3.0)] {
            let mut total = 0.0;
            let mut expected = 0.0;
            let (mut ts, mut marks) = (Vec::new(), Vec::new());
            for tick in 0..40u64 {
                for stream in partner_streams(&q) {
                    let t = 2.0 * tick as f64;
                    g.fill_stream(stream, tick, t, 2.0, &truth, 0, 1, &mut ts, &mut marks);
                    assert_eq!(ts.len(), marks.len());
                    total += marks.len() as f64;
                    expected += 2.0 * scale * q.streams[stream.index()].rate_estimate;
                    assert!(marks.iter().all(|m| (0.0..1.0).contains(m)));
                }
            }
            assert!(
                (total - expected).abs() < 4.0 * expected.sqrt() + 10.0,
                "{total} arrivals vs {expected:.1} expected at {scale}x rates"
            );
        }
    }

    /// The same contract as `sharded_generation_tracks_observed_selectivities`
    /// on the sensor workload, whose query leads with a *filter*: the scaled
    /// match column must make the fixed predicate `match < s_est` pass with
    /// the drifting ground-truth selectivity, mid-day and at the diurnal
    /// extremes.
    #[test]
    fn observed_selectivities_track_the_ground_truth() {
        let w = SensorWorkload::new(4, 600.0, 0x5E15_0001);
        let q = w.query().clone();
        let gen = ShardedDrivingGen::new(&q, 99);
        for tick in [0u64, 150, 450] {
            let truth = w.stats_at(tick as f64);
            let cb = fill(&gen, &truth, tick, 3000);
            let observed = observed_selectivities(&q, 99, &truth, 60, &cb);
            for op in q.operator_ids() {
                let want = truth.selectivity(op).unwrap();
                let got = observed[op.index()];
                assert!(
                    (got - want).abs() < 0.15 * want.max(0.1),
                    "t={tick} {op}: observed {got:.3} vs truth {want:.3}"
                );
            }
        }
    }

    #[test]
    fn regime_switch_shows_up_in_observed_selectivity() {
        // The generator's whole point: when the ground truth flips regimes,
        // the *data* changes and the fixed predicates observe the new truth.
        let q = Query::q1_stock_monitoring();
        let w = StockWorkload::new(60.0, RatePattern::Constant(1.0));
        let gen = ShardedDrivingGen::new(&q, 5);
        let observed: Vec<f64> = [0u64, 61]
            .into_iter()
            .map(|tick| {
                let truth = w.stats_at(tick as f64);
                let batch = fill(&gen, &truth, tick, 4000);
                observed_selectivities(&q, 5, &truth, 0, &batch)[0]
            })
            .collect();
        // Bullish δ0 (0.48) well above bearish δ0 (0.16).
        assert!(
            observed[0] > observed[1] + 0.1,
            "bullish {:.3} vs bearish {:.3}",
            observed[0],
            observed[1]
        );
    }

    /// The shard-parallel generator's defining property: filling a tick in
    /// any number of contiguous slices, in any shard layout, concatenates to
    /// exactly the single-threaded whole.
    #[test]
    fn sharded_generation_is_shard_count_invariant() {
        let q = Query::q1_stock_monitoring();
        let truth = q.default_stats();
        let g = ShardedDrivingGen::new(&q, 7);
        let plan = g.match_plan(&truth);
        let n = 97u64;
        for tick in [0u64, 3] {
            let mut whole = ColumnBatch::for_driving(&q);
            g.fill_slice(&mut whole, &plan, tick, tick as f64, 1.0, n, 0, n);
            assert_eq!(whole.len(), n as usize);
            for shards in [2u64, 3, 8, 97, 200] {
                let mut parts = ColumnBatch::for_driving(&q);
                for s in 0..shards {
                    let lo = s * n / shards;
                    let hi = (s + 1) * n / shards;
                    g.fill_slice(&mut parts, &plan, tick, tick as f64, 1.0, n, lo, hi);
                }
                assert_eq!(parts, whole, "tick {tick} shards {shards}");
            }
            // A clone fills identically (shards each own one).
            let mut cloned = ColumnBatch::for_driving(&q);
            g.clone()
                .fill_slice(&mut cloned, &plan, tick, tick as f64, 1.0, n, 0, n);
            assert_eq!(cloned, whole);
        }
        // Different ticks produce different rows (substreams don't repeat).
        let mut t0 = ColumnBatch::for_driving(&q);
        let mut t1 = ColumnBatch::for_driving(&q);
        g.fill_slice(&mut t0, &plan, 0, 0.0, 1.0, 8, 0, 8);
        g.fill_slice(&mut t1, &plan, 1, 0.0, 1.0, 8, 0, 8);
        assert_ne!(t0, t1);
    }

    /// The end-to-end contract: pushing generated tuples through compiled
    /// operators, against windows fed by generated partner arrivals, yields
    /// observed selectivities close to the ground truth.
    #[test]
    fn sharded_generation_tracks_observed_selectivities() {
        let q = Query::q1_stock_monitoring();
        let w = StockWorkload::new(60.0, RatePattern::Constant(1.0));
        // Bullish regime truth at t = 0; windows warmed with ~one window
        // occupancy worth of partner tuples.
        let truth = w.stats_at(0.0);
        let gen = ShardedDrivingGen::new(&q, 99);
        let cb = fill(&gen, &truth, 60, 3000);
        let observed = observed_selectivities(&q, 99, &truth, 60, &cb);
        for op in q.operator_ids() {
            let want = truth.selectivity(op).unwrap();
            let got = observed[op.index()];
            assert!(
                (got - want).abs() < 0.15 * want.max(0.1),
                "{op}: observed {got:.3} vs truth {want:.3}"
            );
        }
        // Every match column is a float slice of the batch's length.
        for op in 0..q.num_operators() {
            let col = cb.column(exec::match_field(&q, op)).unwrap();
            assert_eq!(col.floats().map(<[f64]>::len), Some(3000), "op {op}");
        }
    }

    /// The sharded partner generator's defining property: at every shard
    /// count, each shard's rows are exactly the key-hash partition of the
    /// whole tick (`shard 0 of 1`), draw for draw — the partner twin of
    /// `sharded_generation_is_shard_count_invariant`.
    #[test]
    fn sharded_partner_generation_is_shard_count_invariant() {
        let q = Query::q1_stock_monitoring();
        let truth = q.default_stats();
        let streams = partner_streams(&q);
        assert_eq!(streams.len(), q.num_streams() - 1);
        for seed in [7u64, 41, 1234] {
            let g = ShardedPartnerGen::new(&q, seed);
            for tick in [0u64, 3, 17] {
                for &stream in &streams {
                    let whole = partner_rows(&g, stream, tick, &truth, 0, 1);
                    for shards in [1u64, 3, 8] {
                        let mut seen = 0;
                        for shard in 0..shards {
                            // Each shard holds exactly the rows of the whole
                            // whose key lands in its partition, in order.
                            let expect: Vec<_> = whole
                                .iter()
                                .copied()
                                .filter(|row| row.2 % shards == shard)
                                .collect();
                            let part = partner_rows(&g, stream, tick, &truth, shard, shards);
                            assert_eq!(part, expect, "tick {tick} shard {shard}/{shards}");
                            seen += part.len();
                        }
                        // The partitions tile the whole: nothing lost,
                        // nothing duplicated.
                        assert_eq!(seen, whole.len());
                    }
                    // A clone generates identically (shards each own one).
                    assert_eq!(partner_rows(&g.clone(), stream, tick, &truth, 0, 1), whole);
                }
            }
            // Different ticks produce different draws (substreams don't
            // repeat).
            assert_ne!(
                partner_rows(&g, streams[0], 0, &truth, 0, 1),
                partner_rows(&g, streams[0], 1, &truth, 0, 1)
            );
        }
    }

    /// The buffer-filling path a shard runs is the owning reference path
    /// draw for draw: at 1, 2 and 8 shards `fill_stream` leaves exactly the
    /// timestamps and marks of the partition's rows, and stale buffer
    /// contents never survive a refill — on Q2's timestamp-keyed partner
    /// streams and on Q1's text-keyed ones, where a fill that needs no key
    /// must still spend the row's symbol draw before its mark.
    #[test]
    fn buffer_filling_partner_generation_equals_the_owning_path() {
        for q in [Query::q2_ten_way_join(), Query::q1_stock_monitoring()] {
            let truth = q.default_stats();
            let g = ShardedPartnerGen::new(&q, 20);
            let (mut ts, mut marks) = (vec![7u64; 3], vec![0.5f64; 3]);
            for tick in [0u64, 5, 61] {
                let t = tick as f64;
                for shards in [1u64, 2, 8] {
                    for shard in 0..shards {
                        for stream in partner_streams(&q) {
                            let owned = partner_rows(&g, stream, tick, &truth, shard, shards);
                            g.fill_stream(
                                stream, tick, t, 1.0, &truth, shard, shards, &mut ts, &mut marks,
                            );
                            let owned_ts: Vec<u64> = owned.iter().map(|row| row.0).collect();
                            let owned_marks: Vec<f64> = owned.iter().map(|row| row.1).collect();
                            let at = format!("{} tick {tick} shard {shard}/{shards}", q.name);
                            assert_eq!(ts, owned_ts, "{at}");
                            assert_eq!(marks, owned_marks, "{at}");
                        }
                    }
                }
            }
        }
    }

    /// The sharded partner rows obey the generator's conventions: Poisson
    /// sizes tracking the truth's rates, ascending timestamps, marks in
    /// `[0, 1)`, and symbol-derived keys on text streams.
    #[test]
    fn sharded_partner_rows_follow_conventions() {
        let q = Query::q1_stock_monitoring();
        let truth = q.default_stats();
        let g = ShardedPartnerGen::new(&q, 7);
        let symbol_keys: Vec<u64> = SYMBOLS.iter().map(|s| fnv1a(s.as_bytes())).collect();
        let mut total = 0u64;
        let mut expected = 0.0f64;
        for tick in 0..40u64 {
            for stream in partner_streams(&q) {
                let rows = partner_rows(&g, stream, tick, &truth, 0, 1);
                assert_eq!(
                    rows.len() as u64,
                    g.batch_size(tick, stream, 1.0, &truth),
                    "full-range batch matches the agreed Poisson size"
                );
                total += rows.len() as u64;
                expected += truth.input_rate(stream).unwrap();
                assert!(rows.windows(2).all(|w| w[0].0 <= w[1].0));
                assert!(rows.iter().all(|row| (0.0..1.0).contains(&row.1)));
                let has_text = q.streams[stream.index()]
                    .schema
                    .fields()
                    .iter()
                    .any(|f| f.data_type == DataType::Text);
                for &(ts_ms, _, key) in &rows {
                    if has_text {
                        assert!(symbol_keys.contains(&key));
                    } else {
                        assert_eq!(key, mix64(ts_ms));
                    }
                }
            }
        }
        // Aggregate arrivals track the truth's rates (loose Poisson bound).
        assert!(
            (total as f64 - expected).abs() < 4.0 * expected.sqrt() + 10.0,
            "{total} arrivals vs {expected:.1} expected"
        );
    }

    /// FNV-1a over a batch's timestamps, then every column's cells in
    /// column order (numbers as little-endian bytes, text as its bytes).
    fn fingerprint(cb: &ColumnBatch) -> u64 {
        let mut bytes = Vec::new();
        for ts in cb.timestamps() {
            bytes.extend(ts.to_le_bytes());
        }
        for field in 0..cb.arity() {
            match cb.column(field).unwrap() {
                Column::Int(v) => v.iter().for_each(|x| bytes.extend(x.to_le_bytes())),
                Column::Float(v) => v
                    .iter()
                    .for_each(|x| bytes.extend(x.to_bits().to_le_bytes())),
                Column::Text(v) => v.iter().for_each(|x| bytes.extend(x.as_bytes())),
                Column::Bool(v) => v.iter().for_each(|x| bytes.push(*x as u8)),
                Column::Timestamp(v) => v.iter().for_each(|x| bytes.extend(x.to_le_bytes())),
            }
        }
        fnv1a(&bytes)
    }

    /// The typed fill generates the bits the `Value`-era fill generated:
    /// the fingerprints below were computed at the last commit that wrapped
    /// every cell in a `Value` (2b7d500), with the same hash, for 97-row
    /// ticks 0–3 at two seeds — Q1, Q2 (constant join thetas) and the
    /// sensor query (a scaled filter column, truth drifting per tick) —
    /// filled whole and in three row slices.
    #[test]
    fn typed_fill_reproduces_the_pinned_fingerprints() {
        let (q1, q2) = (Query::q1_stock_monitoring(), Query::q2_ten_way_join());
        let sensor = SensorWorkload::new(4, 600.0, 0x5E15_0001);
        // The ground truth of ticks 0–3.
        let (t1, t2) = (vec![q1.default_stats(); 4], vec![q2.default_stats(); 4]);
        let drifting: Vec<StatsSnapshot> = (0..4)
            .map(|tick| sensor.stats_at(tick as f64 * 150.0))
            .collect();
        let cases: [(Query, Vec<StatsSnapshot>, [[u64; 4]; 2]); 3] = [
            (
                q1,
                t1,
                [
                    [
                        0x55f2_326a_8731_1565,
                        0x240d_eedd_f250_ee07,
                        0x5278_717c_6644_9bd5,
                        0xb3ba_c4d7_b7f6_340a,
                    ],
                    [
                        0x31ad_413e_05ef_7776,
                        0xf96c_b9eb_6a65_66cd,
                        0x73db_b491_a7c7_b937,
                        0x3d46_bb17_daee_fa6b,
                    ],
                ],
            ),
            (
                q2,
                t2,
                [
                    [
                        0x6abe_9240_430b_f389,
                        0x1a6f_e98b_ea53_959d,
                        0x4424_cb5f_dc82_f7d8,
                        0x932b_ca07_f9ff_6630,
                    ],
                    [
                        0x19c5_80e3_00ae_006b,
                        0xeb86_0bf0_502f_4520,
                        0x7962_a375_806b_c3a1,
                        0x7af4_cf75_9528_8bfc,
                    ],
                ],
            ),
            (
                sensor.query().clone(),
                drifting,
                [
                    [
                        0x19dc_f62f_e0aa_24cd,
                        0xb4b2_a16f_4645_9373,
                        0x80f2_a702_1662_bbf1,
                        0x7f2b_663e_9692_96d9,
                    ],
                    [
                        0x5c23_160d_7140_96e3,
                        0x442d_8e02_1e8d_f7b2,
                        0xff84_f4d9_89a7_202c,
                        0x71ba_d8bf_4736_c25c,
                    ],
                ],
            ),
        ];
        let n = 97u64;
        for (q, truths, pinned) in &cases {
            for (seed, pinned) in [7u64, 0xF1D0_2013].into_iter().zip(pinned) {
                let g = ShardedDrivingGen::new(q, seed);
                for (tick, (truth, want)) in (0u64..).zip(truths.iter().zip(pinned)) {
                    let plan = g.match_plan(truth);
                    let t = tick as f64;
                    let mut whole = ColumnBatch::for_driving(q);
                    g.fill_slice(&mut whole, &plan, tick, t, 1.0, n, 0, n);
                    let mut sliced = ColumnBatch::for_driving(q);
                    for s in 0..3 {
                        let (lo, hi) = (s * n / 3, (s + 1) * n / 3);
                        g.fill_slice(&mut sliced, &plan, tick, t, 1.0, n, lo, hi);
                    }
                    assert_eq!(whole.len(), n as usize);
                    assert_eq!(
                        fingerprint(&whole),
                        *want,
                        "{} seed {seed} tick {tick}",
                        q.name
                    );
                    assert_eq!(
                        fingerprint(&sliced),
                        *want,
                        "{} seed {seed} tick {tick}",
                        q.name
                    );
                }
            }
        }
    }

    /// FNV-1a over one tick of every partner stream of `g`'s query, in
    /// stream order: the whole tick as a shard fills it at shard 0 of 1
    /// (timestamps and mark bits), then each shard of 3 as the owning path
    /// yields it (timestamps, mark bits and keys).
    fn partner_fingerprint(g: &ShardedPartnerGen, tick: u64, truth: &StatsSnapshot) -> u64 {
        let (mut ts, mut marks) = (Vec::new(), Vec::new());
        let mut bytes = Vec::new();
        for stream in partner_streams(g.query()) {
            g.fill_stream(
                stream,
                tick,
                tick as f64,
                1.0,
                truth,
                0,
                1,
                &mut ts,
                &mut marks,
            );
            for (t, mark) in ts.iter().zip(&marks) {
                bytes.extend(t.to_le_bytes());
                bytes.extend(mark.to_bits().to_le_bytes());
            }
            for shard in 0..3 {
                for (t, mark, key) in partner_rows(g, stream, tick, truth, shard, 3) {
                    bytes.extend(t.to_le_bytes());
                    bytes.extend(mark.to_bits().to_le_bytes());
                    bytes.extend(key.to_le_bytes());
                }
            }
        }
        fnv1a(&bytes)
    }

    /// The partner generator's rows are pinned like the driving fill's: the
    /// fingerprints below were computed at the commit before partner keys
    /// were worked out only for more than one partition (5f7600f), for
    /// ticks 0–3 of Q1 (four text-keyed partner streams) and Q2 (nine
    /// timestamp-keyed ones) at two seeds.
    #[test]
    fn partner_rows_reproduce_the_pinned_fingerprints() {
        let cases: [(Query, [[u64; 4]; 2]); 2] = [
            (
                Query::q1_stock_monitoring(),
                [
                    [
                        0xed00_1324_e32d_7b96,
                        0x1191_c4d7_3ac7_9823,
                        0xec7b_3fea_fd95_8898,
                        0x63b6_a8a9_dc03_964a,
                    ],
                    [
                        0x209c_e7a7_4184_ab92,
                        0x94a1_67ed_0057_621d,
                        0x2819_559d_7343_ee83,
                        0x7933_d6fe_c6eb_26e1,
                    ],
                ],
            ),
            (
                Query::q2_ten_way_join(),
                [
                    [
                        0x80bf_367e_b33a_a38d,
                        0x1b2c_c99e_ebb0_93c2,
                        0xcffa_fb3e_dd86_3106,
                        0x6464_0320_55c3_38e6,
                    ],
                    [
                        0x05dd_ae21_eef9_1af5,
                        0x47af_bd55_2b46_cc52,
                        0xce7a_f533_1ec8_d02f,
                        0x9bcb_9f8e_004c_11de,
                    ],
                ],
            ),
        ];
        for (q, pinned) in &cases {
            let truth = q.default_stats();
            for (seed, pinned) in [7u64, 0xF1D0_2013].into_iter().zip(pinned) {
                let g = ShardedPartnerGen::new(q, seed);
                for (tick, want) in (0u64..).zip(pinned) {
                    let got = partner_fingerprint(&g, tick, &truth);
                    assert_eq!(got, *want, "{} seed {seed} tick {tick}", q.name);
                }
            }
        }
    }
}
