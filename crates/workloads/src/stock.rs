//! Stocks–News–Blogs–Currency workload (the paper's Example 1 / Q1 data set).
//!
//! The ground truth alternates between a *bullish* regime — many stocks match
//! the bullish-pattern lookup table, fewer match breaking news — and a
//! *bearish* regime where the situation flips (`δ1` drops while `δ2`, `δ3`
//! rise), which is exactly the scenario that forces a traditional dynamic
//! load distributor to swap operators back and forth (Figure 2). Stream rates
//! can additionally be scaled or ramped via a [`RatePattern`].

use crate::fluctuation::RatePattern;
use crate::Workload;
use rld_common::{Query, StatKey, StatsSnapshot};

/// Market regime of the stock workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MarketRegime {
    /// Upward price movement: the bullish-pattern match (op0) is very
    /// selective for survival, news/blog matches are rarer.
    Bullish,
    /// Downward price movement: fewer bullish-pattern matches, more matches
    /// against news, research and blogs.
    Bearish,
}

/// The stock-monitoring workload over Q1.
#[derive(Debug, Clone)]
pub struct StockWorkload {
    query: Query,
    /// Length of each market regime in seconds.
    regime_period_secs: f64,
    rate_pattern: RatePattern,
    /// Per-operator selectivity multipliers in the bullish regime.
    bullish: Vec<f64>,
    /// Per-operator selectivity multipliers in the bearish regime.
    bearish: Vec<f64>,
}

impl StockWorkload {
    /// Create the workload with the given regime period and rate pattern.
    pub fn new(regime_period_secs: f64, rate_pattern: RatePattern) -> Self {
        let query = Query::q1_stock_monitoring();
        // Q1 operators: 0 = bullish-pattern lookup, 1 = news sector match,
        // 2 = research name match, 3 = blogs match, 4 = currency match.
        let bullish = vec![1.2, 0.7, 0.7, 0.8, 1.0];
        let bearish = vec![0.4, 1.4, 1.3, 1.2, 1.0];
        Self {
            query,
            regime_period_secs,
            rate_pattern,
            bullish,
            bearish,
        }
    }

    /// The default configuration: 60-second regimes, no extra rate scaling.
    pub fn default_config() -> Self {
        Self::new(60.0, RatePattern::Constant(1.0))
    }

    /// The market regime active at time `t`.
    pub(crate) fn regime_at(&self, t_secs: f64) -> MarketRegime {
        if self.regime_period_secs <= 0.0 {
            return MarketRegime::Bullish;
        }
        if ((t_secs / self.regime_period_secs).floor() as i64) % 2 == 0 {
            MarketRegime::Bullish
        } else {
            MarketRegime::Bearish
        }
    }
}

impl Workload for StockWorkload {
    fn name(&self) -> &str {
        "stock-news-blogs-currency"
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
        let multipliers = match self.regime_at(t_secs) {
            MarketRegime::Bullish => &self.bullish,
            MarketRegime::Bearish => &self.bearish,
        };
        for (i, op) in self.query.operators.iter().enumerate() {
            let m = multipliers.get(i).copied().unwrap_or(1.0);
            stats.set(
                StatKey::Selectivity(op.id),
                (op.selectivity_estimate * m).clamp(0.0, 1.0),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rld_common::OperatorId;

    #[test]
    fn regimes_alternate_with_period() {
        let w = StockWorkload::new(30.0, RatePattern::Constant(1.0));
        assert_eq!(w.regime_at(0.0), MarketRegime::Bullish);
        assert_eq!(w.regime_at(29.0), MarketRegime::Bullish);
        assert_eq!(w.regime_at(31.0), MarketRegime::Bearish);
        assert_eq!(w.regime_at(65.0), MarketRegime::Bullish);
    }

    #[test]
    fn bearish_regime_flips_selectivity_ordering() {
        // The paper's Example 1: bullish → δ1 high; bearish → δ1 relatively low,
        // δ2/δ3 relatively higher.
        let w = StockWorkload::default_config();
        let bullish = w.stats_at(0.0);
        let bearish = w.stats_at(61.0);
        let op0 = OperatorId::new(0);
        let op1 = OperatorId::new(1);
        assert!(bearish.selectivity(op0).unwrap() < bullish.selectivity(op0).unwrap());
        assert!(bearish.selectivity(op1).unwrap() > bullish.selectivity(op1).unwrap());
        // Selectivities stay valid probabilities for filters.
        for op in w.query().operator_ids() {
            let s = bearish.selectivity(op).unwrap();
            assert!((0.0..=1.0).contains(&s));
        }
    }

    #[test]
    fn rate_pattern_applies_to_all_streams() {
        let w = StockWorkload::new(60.0, RatePattern::Constant(3.0));
        let stats = w.stats_at(5.0);
        for stream in &w.query().streams {
            let r = stats.input_rate(stream.id).unwrap();
            assert!((r - stream.rate_estimate * 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn workload_stats_stay_inside_reasonable_space() {
        let w = StockWorkload::default_config();
        for t in [0.0, 45.0, 100.0, 3600.0] {
            let stats = w.stats_at(t);
            for stream in &w.query().streams {
                assert!(stats.input_rate(stream.id).unwrap() >= 0.0);
            }
        }
        assert_eq!(w.name(), "stock-news-blogs-currency");
        assert_eq!(w.query().name, "Q1");
    }

    #[test]
    fn zero_period_is_always_bullish() {
        let w = StockWorkload::new(0.0, RatePattern::Constant(1.0));
        assert_eq!(w.regime_at(1e6), MarketRegime::Bullish);
    }
}
