//! Runtime metrics collected by the simulator.
//!
//! These are the measurements the paper reports in §6.5: average tuple
//! processing time (Figures 15a, 16a, 16b), the cumulative number of result
//! tuples produced over time (Figure 15b), and the runtime overhead beyond
//! query processing (classification for RLD, migrations for DYN) — plus the
//! fault-plane measurements (lost tuples, node downtime, recovery time) the
//! fault scenarios report.

use std::fmt;

/// Metrics of one simulated run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunMetrics {
    /// Name of the system under test (`"RLD"`, `"ROD"`, `"DYN"`).
    pub system: String,
    /// Simulated duration in seconds.
    pub duration_secs: f64,
    /// Number of driving tuples that arrived.
    pub tuples_arrived: u64,
    /// Number of driving tuples fully processed within the simulation
    /// horizon. Kept disjoint from [`Self::tuples_lost`]: in-flight tuples a
    /// `Lost`-semantic crash discarded are retracted from this count.
    /// Completion is estimated when a batch is accepted, so a `Replay`
    /// crash that stalls queued work past the horizon can leave those
    /// tuples (optimistically) counted.
    pub tuples_processed: u64,
    /// Number of result tuples produced within the horizon. Completion times
    /// are estimated when a batch is accepted, so results whose work a later
    /// `Lost`-semantic crash discarded may still be (slightly over)counted.
    pub tuples_produced: u64,
    /// Mean per-tuple processing time (milliseconds) over processed tuples,
    /// weighted by each batch's tuple count.
    pub avg_tuple_processing_ms: f64,
    /// 95th-percentile per-tuple processing time (milliseconds), weighted by
    /// each batch's tuple count.
    pub p95_tuple_processing_ms: f64,
    /// Cumulative result tuples at one-minute granularity: `(minute, count)`.
    pub produced_timeline: Vec<(u64, u64)>,
    /// Number of operator migrations performed (DYN only).
    pub migrations: u64,
    /// Number of logical plan switches performed (RLD only).
    pub plan_switches: u64,
    /// Total query-processing work done (cost units).
    pub query_work: f64,
    /// Total overhead work done (cost units): migrations + classification.
    pub overhead_work: f64,
    /// Mean node utilization over the run relative to nominal capacity, in
    /// `[0, 1]`. With faults this is bounded by
    /// [`Self::capacity_available_fraction`]. The executor reports its
    /// nodes' hop time over wall time: Σ node busy / (wall × nodes).
    pub mean_utilization: f64,
    /// Maximum backlog observed on any node (cost units). The executor is
    /// tick-synchronous — nothing waits between ticks — and reports 0.
    pub max_backlog: f64,
    /// Number of non-empty tuple batches routed through the strategy.
    pub batches: u64,
    /// Number of times the simulator had to rebuild the per-plan operator
    /// load vectors (see `crate::stages::PlanRouter`); at most `batches`,
    /// and far below it when the routed plan and ground truth are stable
    /// between regime switches.
    pub work_vector_recomputes: u64,
    /// Number of fault events the fault plan applied within the horizon.
    pub fault_events: u64,
    /// Total node-seconds of downtime (summed over nodes; two nodes down for
    /// 10 s each count 20).
    pub downtime_node_secs: f64,
    /// Driving tuples lost to faults: batches routed through a down node
    /// plus in-flight backlog discarded by crashes under the `Lost` recovery
    /// semantic. The two backends differ there: the simulator's queue model
    /// can still hold work on a crashed node, which `Lost` discards, while
    /// the tick-synchronous executor holds none across ticks. Under `Lost`
    /// the executor's count is therefore at most the simulator's; under
    /// `Replay` they are equal.
    pub tuples_lost: u64,
    /// Number of batches that arrived while the strategy's placement routed
    /// them through a down node — each one is a loud re-route trigger (the
    /// batch is dropped and counted in [`Self::tuples_lost`]).
    pub reroutes: u64,
    /// Mean time (seconds) from a crash event until the first batch accepted
    /// afterwards *completed* end-to-end (acceptance requires a placement
    /// touching no down node; completion adds the batch's queueing + service
    /// latency, so post-crash backlog counts). Crashes with no accepted
    /// batch before the horizon count as `duration - crash time`. Zero when
    /// the run had no crashes.
    pub mean_recovery_secs: f64,
    /// Fraction of the nominal capacity integral that was actually available
    /// over the run (1.0 for a fault-free run). `mean_utilization` can never
    /// exceed this.
    pub capacity_available_fraction: f64,
}

impl RunMetrics {
    /// Runtime overhead as a fraction of total work.
    pub fn overhead_fraction(&self) -> f64 {
        let total = self.query_work + self.overhead_work;
        if total <= 0.0 {
            0.0
        } else {
            self.overhead_work / total
        }
    }

    /// Result-tuple throughput per second over the whole run.
    pub fn throughput_per_sec(&self) -> f64 {
        if self.duration_secs <= 0.0 {
            0.0
        } else {
            self.tuples_produced as f64 / self.duration_secs
        }
    }
}

impl fmt::Display for RunMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: avg={:.1}ms p95={:.1}ms produced={} migrations={} switches={} overhead={:.1}%",
            self.system,
            self.avg_tuple_processing_ms,
            self.p95_tuple_processing_ms,
            self.tuples_produced,
            self.migrations,
            self.plan_switches,
            self.overhead_fraction() * 100.0
        )?;
        if self.fault_events > 0 {
            write!(
                f,
                " lost={} reroutes={} downtime={:.0}s recovery={:.1}s",
                self.tuples_lost, self.reroutes, self.downtime_node_secs, self.mean_recovery_secs
            )?;
        }
        Ok(())
    }
}

/// Online accumulator for per-tuple latencies and the produced-tuple timeline.
///
/// Latency samples are recorded per batch but **weighted by the batch's
/// tuple count**, so the mean and percentiles are per-*tuple* statistics: a
/// 99-tuple batch influences them 99× as much as a 1-tuple batch.
#[derive(Debug, Clone, Default)]
pub struct MetricsAccumulator {
    /// `(latency_ms, tuple weight)` per recorded batch.
    samples: Vec<(f64, u64)>,
    total_weight: u64,
    produced_events: Vec<(f64, u64)>,
}

impl MetricsAccumulator {
    /// Create an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a processed batch: `tuples` driving tuples with the given
    /// per-tuple latency, producing `produced` result tuples at completion
    /// time `completion_secs`.
    pub fn record_batch(
        &mut self,
        tuples: u64,
        latency_ms: f64,
        produced: u64,
        completion_secs: f64,
    ) {
        if tuples > 0 {
            self.samples.push((latency_ms.max(0.0), tuples));
            self.total_weight += tuples;
        }
        if produced > 0 {
            self.produced_events.push((completion_secs, produced));
        }
    }

    /// Total tuple weight across all recorded batches.
    pub fn total_weight(&self) -> u64 {
        self.total_weight
    }

    /// Tuple-weighted mean of the recorded latencies.
    pub(crate) fn mean_latency_ms(&self) -> f64 {
        if self.total_weight == 0 {
            return 0.0;
        }
        let weighted_sum: f64 = self.samples.iter().map(|(l, w)| l * *w as f64).sum();
        weighted_sum / self.total_weight as f64
    }

    /// Tuple-weighted percentiles (0–100) of the recorded latencies,
    /// answered for all requested `ps` from **one** sorted pass: the p-th
    /// percentile is the smallest recorded latency whose cumulative tuple
    /// weight reaches `p%` of the total weight.
    pub fn percentiles_latency_ms(&self, ps: &[f64]) -> Vec<f64> {
        if self.samples.is_empty() {
            return vec![0.0; ps.len()];
        }
        let mut order: Vec<usize> = (0..self.samples.len()).collect();
        order.sort_by(|a, b| {
            self.samples[*a]
                .0
                .partial_cmp(&self.samples[*b].0)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        ps.iter()
            .map(|p| {
                // Exact integer accumulation: "reaches p%" is decided by
                // `100 · cumulative ≥ p · total`, with the only rounding in
                // the one `p · total` product. The previous float cumulative
                // sum with an absolute 1e-9 epsilon went one sample off at
                // large total weights (the epsilon vanishes next to the
                // representation error of ~1e12-tuple cumulative sums).
                let target = p.clamp(0.0, 100.0) * self.total_weight as f64;
                let mut cumulative: u64 = 0;
                for &i in &order {
                    cumulative += self.samples[i].1;
                    if cumulative as f64 * 100.0 >= target {
                        return self.samples[i].0;
                    }
                }
                self.samples[*order.last().expect("non-empty")].0
            })
            .collect()
    }

    /// The p-th tuple-weighted percentile (0–100) of the recorded latencies.
    /// Callers needing several percentiles should use
    /// [`Self::percentiles_latency_ms`], which sorts once for all of them.
    pub fn percentile_latency_ms(&self, p: f64) -> f64 {
        self.percentiles_latency_ms(&[p])[0]
    }

    /// Total result tuples produced up to (and including) `t_secs`.
    pub(crate) fn produced_by(&self, t_secs: f64) -> u64 {
        self.produced_events
            .iter()
            .filter(|(t, _)| *t <= t_secs + 1e-9)
            .map(|(_, n)| n)
            .sum()
    }

    /// Cumulative produced-tuple timeline at one-minute granularity over
    /// `duration_secs`.
    pub fn timeline(&self, duration_secs: f64) -> Vec<(u64, u64)> {
        let minutes = (duration_secs / 60.0).ceil() as u64;
        (1..=minutes.max(1))
            .map(|m| (m, self.produced_by(m as f64 * 60.0)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_fraction_and_throughput() {
        let m = RunMetrics {
            system: "RLD".into(),
            duration_secs: 100.0,
            tuples_produced: 500,
            query_work: 900.0,
            overhead_work: 100.0,
            tuples_arrived: 1000,
            tuples_processed: 800,
            tuples_lost: 100,
            ..RunMetrics::default()
        };
        assert!((m.overhead_fraction() - 0.1).abs() < 1e-12);
        assert!((m.throughput_per_sec() - 5.0).abs() < 1e-12);
        assert!(m.to_string().contains("RLD"));
        // Fault counters only show up in the display once faults happened.
        assert!(!m.to_string().contains("lost="));
        let faulted = RunMetrics {
            fault_events: 2,
            ..m
        };
        assert!(faulted.to_string().contains("lost=100"));
    }

    #[test]
    fn zero_division_guards() {
        let m = RunMetrics::default();
        assert_eq!(m.overhead_fraction(), 0.0);
        assert_eq!(m.throughput_per_sec(), 0.0);
    }

    #[test]
    fn accumulator_statistics() {
        let mut acc = MetricsAccumulator::new();
        for (i, lat) in [10.0, 20.0, 30.0, 40.0, 50.0].iter().enumerate() {
            acc.record_batch(10, *lat, 5, 60.0 * (i as f64 + 1.0));
        }
        assert_eq!(acc.total_weight(), 50);
        assert!((acc.mean_latency_ms() - 30.0).abs() < 1e-12);
        assert!(acc.percentile_latency_ms(95.0) >= 40.0);
        assert_eq!(acc.produced_by(120.0), 10);
        assert_eq!(acc.produced_by(1e9), 25);
        let timeline = acc.timeline(300.0);
        assert_eq!(timeline.len(), 5);
        assert_eq!(timeline[1], (2, 10));
        assert_eq!(timeline[4], (5, 25));
    }

    #[test]
    fn latency_statistics_are_tuple_weighted_not_batch_weighted() {
        // Regression for the batch-weighted bug: one 1-tuple batch at 10 ms
        // and one 99-tuple batch at 50 ms must average to 49.6 ms (the
        // 99-tuple batch carries 99× the weight), not to the 30 ms midpoint.
        let mut acc = MetricsAccumulator::new();
        acc.record_batch(1, 10.0, 0, 1.0);
        acc.record_batch(99, 50.0, 0, 2.0);
        assert_eq!(acc.total_weight(), 100);
        assert!(
            (acc.mean_latency_ms() - 49.6).abs() < 1e-12,
            "got {}",
            acc.mean_latency_ms()
        );
        // The median tuple sits in the big batch, far above the batch median.
        assert_eq!(acc.percentile_latency_ms(50.0), 50.0);
        // Only the bottom 1% of tuples saw the fast batch.
        assert_eq!(acc.percentile_latency_ms(1.0), 10.0);
        assert_eq!(acc.percentile_latency_ms(0.0), 10.0);
        assert_eq!(acc.percentile_latency_ms(100.0), 50.0);
    }

    #[test]
    fn percentiles_share_one_sorted_pass() {
        let mut acc = MetricsAccumulator::new();
        for (lat, w) in [(40.0, 2), (10.0, 5), (30.0, 2), (20.0, 1)] {
            acc.record_batch(w, lat, 0, 1.0);
        }
        let many = acc.percentiles_latency_ms(&[10.0, 50.0, 90.0, 99.0]);
        assert_eq!(many.len(), 4);
        for (p, v) in [10.0, 50.0, 90.0, 99.0].iter().zip(&many) {
            assert_eq!(acc.percentile_latency_ms(*p), *v);
        }
        assert!(many.windows(2).all(|w| w[0] <= w[1]), "{many:?}");
    }

    #[test]
    fn percentile_boundaries_are_exact_at_large_weights() {
        // Regression for the float-cumulative off-by-one: with two batches
        // of a trillion tuples each, p50 must stop at the *first* sample
        // (its cumulative weight is exactly 50%), but a float cumulative
        // with an absolute 1e-9 epsilon overshoots to the second — at this
        // magnitude the epsilon is far below the f64 representation error
        // of the (p/100)·total target.
        let mut acc = MetricsAccumulator::new();
        let w = 1_000_000_000_000u64;
        acc.record_batch(w, 10.0, 0, 1.0);
        acc.record_batch(w, 20.0, 0, 2.0);
        assert_eq!(acc.percentile_latency_ms(50.0), 10.0);
        assert_eq!(acc.percentile_latency_ms(50.1), 20.0);
        // And at 95% of a 10^12-tuple run split 95 / 5.
        let mut acc = MetricsAccumulator::new();
        acc.record_batch(95 * (w / 100), 1.0, 0, 1.0);
        acc.record_batch(5 * (w / 100), 2.0, 0, 2.0);
        assert_eq!(acc.percentile_latency_ms(95.0), 1.0);
    }

    #[test]
    fn degenerate_sample_counts() {
        // Zero samples → all zeros (covered in empty_accumulator); one and
        // two samples must hit the exact-rank boundaries.
        let mut one = MetricsAccumulator::new();
        one.record_batch(1, 7.0, 0, 1.0);
        for p in [0.0, 1.0, 50.0, 99.0, 100.0] {
            assert_eq!(one.percentile_latency_ms(p), 7.0);
        }
        let mut two = MetricsAccumulator::new();
        two.record_batch(1, 3.0, 0, 1.0);
        two.record_batch(1, 9.0, 0, 2.0);
        assert_eq!(two.percentile_latency_ms(0.0), 3.0);
        assert_eq!(two.percentile_latency_ms(50.0), 3.0);
        assert_eq!(two.percentile_latency_ms(50.0 + 1e-9), 9.0);
        assert_eq!(two.percentile_latency_ms(100.0), 9.0);
    }

    #[test]
    fn empty_accumulator() {
        let acc = MetricsAccumulator::new();
        assert_eq!(acc.mean_latency_ms(), 0.0);
        assert_eq!(acc.percentile_latency_ms(99.0), 0.0);
        assert_eq!(acc.percentiles_latency_ms(&[50.0, 95.0]), vec![0.0, 0.0]);
        assert_eq!(acc.produced_by(100.0), 0);
        assert_eq!(acc.timeline(30.0), vec![(1, 0)]);
    }

    #[test]
    fn zero_tuple_batches_are_ignored() {
        let mut acc = MetricsAccumulator::new();
        acc.record_batch(0, 99.0, 0, 1.0);
        assert_eq!(acc.total_weight(), 0);
    }
}
