//! Synthetic workloads and the Table 2 data distributions.
//!
//! The paper's synthetic experiments use Poisson arrivals (mean inter-arrival
//! 500 ms), Uniform(0, 100) and Poisson(λ=1) value distributions, batches of
//! 100 tuples, and report the distributions' summary statistics in Table 2.
//! This module provides those distributions, a summary-statistics helper that
//! regenerates the table, and a generic [`SyntheticWorkload`] that combines a
//! query with rate/selectivity fluctuation patterns.

use crate::fluctuation::{RatePattern, SelectivityPattern};
use crate::Workload;
use rand::RngExt;
use rld_common::rng::sample_poisson;
use rld_common::{Query, StatKey, StatsSnapshot};

/// A synthetic scalar value distribution (Table 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValueDistribution {
    /// Uniform over `[lo, hi]` (the paper uses α=0, β=100).
    Uniform {
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
    /// Poisson with parameter λ (the paper uses λ=1).
    Poisson {
        /// The rate parameter.
        lambda: f64,
    },
}

impl ValueDistribution {
    /// The paper's Uniform(0, 100) distribution.
    pub fn table2_uniform() -> Self {
        ValueDistribution::Uniform { lo: 0.0, hi: 100.0 }
    }

    /// The paper's Poisson(λ=1) distribution.
    pub fn table2_poisson() -> Self {
        ValueDistribution::Poisson { lambda: 1.0 }
    }

    /// Draw one sample.
    pub fn sample(&self, rng: &mut rld_common::rng::SeededRng) -> f64 {
        match self {
            ValueDistribution::Uniform { lo, hi } => rng.random_range(*lo..=*hi),
            ValueDistribution::Poisson { lambda } => sample_poisson(rng, *lambda) as f64,
        }
    }

    /// Draw `n` samples.
    pub fn sample_n(&self, rng: &mut rld_common::rng::SeededRng, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

/// Summary statistics of a sample, matching the columns of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SummaryStats {
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Median.
    pub median: f64,
    /// Mean.
    pub mean: f64,
    /// Average absolute deviation from the mean.
    pub ave_dev: f64,
    /// Standard deviation (population).
    pub std_dev: f64,
    /// Variance (population).
    pub variance: f64,
    /// Skewness.
    pub skew: f64,
    /// Excess kurtosis.
    pub kurtosis: f64,
}

/// Compute the Table 2 summary statistics of a sample.
pub fn summary_stats(samples: &[f64]) -> SummaryStats {
    if samples.is_empty() {
        return SummaryStats::default();
    }
    let n = samples.len() as f64;
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let min = sorted[0];
    let max = sorted[sorted.len() - 1];
    let median = if sorted.len() % 2 == 1 {
        sorted[sorted.len() / 2]
    } else {
        (sorted[sorted.len() / 2 - 1] + sorted[sorted.len() / 2]) / 2.0
    };
    let mean = samples.iter().sum::<f64>() / n;
    let ave_dev = samples.iter().map(|x| (x - mean).abs()).sum::<f64>() / n;
    let variance = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
    let std_dev = variance.sqrt();
    let (skew, kurtosis) = if std_dev > 0.0 {
        let m3 = samples.iter().map(|x| (x - mean).powi(3)).sum::<f64>() / n;
        let m4 = samples.iter().map(|x| (x - mean).powi(4)).sum::<f64>() / n;
        (m3 / std_dev.powi(3), m4 / variance.powi(2) - 3.0)
    } else {
        (0.0, 0.0)
    };
    SummaryStats {
        min,
        max,
        median,
        mean,
        ave_dev,
        std_dev,
        variance,
        skew,
        kurtosis,
    }
}

/// A fully synthetic workload: a query with configurable rate and selectivity
/// fluctuation patterns applied to its single-point estimates.
#[derive(Debug, Clone)]
pub struct SyntheticWorkload {
    name: String,
    query: Query,
    rate_pattern: RatePattern,
    selectivity_pattern: SelectivityPattern,
}

impl SyntheticWorkload {
    /// Create a synthetic workload around a query.
    pub fn new(
        name: impl Into<String>,
        query: Query,
        rate_pattern: RatePattern,
        selectivity_pattern: SelectivityPattern,
    ) -> Self {
        Self {
            name: name.into(),
            query,
            rate_pattern,
            selectivity_pattern,
        }
    }

    /// A steady workload with no fluctuations (useful as a control).
    pub fn steady(query: Query) -> Self {
        Self::new(
            "steady",
            query,
            RatePattern::default(),
            SelectivityPattern::default(),
        )
    }

    /// The rate pattern in use.
    pub fn rate_pattern(&self) -> &RatePattern {
        &self.rate_pattern
    }

    /// The selectivity pattern in use.
    pub fn selectivity_pattern(&self) -> &SelectivityPattern {
        &self.selectivity_pattern
    }
}

impl Workload for SyntheticWorkload {
    fn name(&self) -> &str {
        &self.name
    }

    fn query(&self) -> &Query {
        &self.query
    }

    fn stats_into(&self, t_secs: f64, stats: &mut StatsSnapshot) {
        // Every operator and stream is written below: the query's whole
        // default key set, with this time's values.
        stats.clear();
        let rate_scale = self.rate_pattern.scale_at(t_secs);
        for stream in &self.query.streams {
            stats.set(
                StatKey::InputRate(stream.id),
                stream.rate_estimate * rate_scale,
            );
        }
        for (i, op) in self.query.operators.iter().enumerate() {
            let sel_scale = self.selectivity_pattern.scale_at(t_secs, i);
            stats.set(
                StatKey::Selectivity(op.id),
                (op.selectivity_estimate * sel_scale).max(0.0),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rld_common::rng::rng_from_seed;
    use rld_common::OperatorId;

    #[test]
    fn table2_uniform_summary_matches_paper() {
        // Table 2: Uniform(0, 100): mean ≈ 49.7, st.dev ≈ 29.14, skew ≈ 0.05, kurt ≈ −1.18.
        let mut rng = rng_from_seed(1234);
        let samples = ValueDistribution::table2_uniform().sample_n(&mut rng, 50_000);
        let s = summary_stats(&samples);
        assert!(s.min >= 0.0 && s.max <= 100.0);
        assert!((s.mean - 50.0).abs() < 1.0, "mean={}", s.mean);
        assert!((s.std_dev - 28.87).abs() < 1.0, "std={}", s.std_dev);
        assert!(s.skew.abs() < 0.1, "skew={}", s.skew);
        assert!((s.kurtosis + 1.2).abs() < 0.15, "kurt={}", s.kurtosis);
    }

    #[test]
    fn table2_poisson_summary_matches_paper() {
        // Table 2: Poisson(1): mean ≈ 0.97, st.dev ≈ 1.01, skew ≈ 1.17, kurt ≈ 1.89 (values ≈ 1).
        let mut rng = rng_from_seed(99);
        let samples = ValueDistribution::table2_poisson().sample_n(&mut rng, 50_000);
        let s = summary_stats(&samples);
        assert!((s.mean - 1.0).abs() < 0.05, "mean={}", s.mean);
        assert!((s.std_dev - 1.0).abs() < 0.05, "std={}", s.std_dev);
        assert!((s.skew - 1.0).abs() < 0.2, "skew={}", s.skew);
        assert!(s.kurtosis > 0.5, "kurt={}", s.kurtosis);
        assert_eq!(s.min, 0.0);
    }

    #[test]
    fn summary_stats_of_constant_sample() {
        let s = summary_stats(&[5.0, 5.0, 5.0]);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.skew, 0.0);
        assert_eq!(s.median, 5.0);
        let empty = summary_stats(&[]);
        assert_eq!(empty.mean, 0.0);
    }

    #[test]
    fn median_of_even_sample() {
        let s = summary_stats(&[1.0, 2.0, 3.0, 10.0]);
        assert_eq!(s.median, 2.5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 10.0);
    }

    #[test]
    fn synthetic_workload_scales_rates_and_selectivities() {
        let q = Query::q1_stock_monitoring();
        let w = SyntheticWorkload::new(
            "test",
            q.clone(),
            RatePattern::Constant(2.0),
            SelectivityPattern::RegimeSwitch {
                period_secs: 10.0,
                regimes: vec![vec![1.0; 5], vec![0.5; 5]],
            },
        );
        let s0 = w.stats_at(0.0);
        let s1 = w.stats_at(15.0);
        // Rates are doubled at all times.
        assert!((s0.input_rate(q.driving_stream).unwrap() - 200.0).abs() < 1e-9);
        // Selectivities halve in regime 1.
        let op0 = OperatorId::new(0);
        assert!(
            s1.selectivity(op0).unwrap() < s0.selectivity(op0).unwrap(),
            "regime switch should lower selectivity"
        );
        assert_eq!(w.name(), "test");
    }

    #[test]
    fn steady_workload_matches_defaults() {
        let q = Query::q1_stock_monitoring();
        let w = SyntheticWorkload::steady(q.clone());
        let stats = w.stats_at(123.0);
        assert_eq!(stats, q.default_stats());
    }
}
