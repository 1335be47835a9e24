//! The statistics monitor (§3, "Statistic monitor").
//!
//! Each machine in the paper's DSPS runs a monitor that periodically samples
//! operator selectivities and stream input rates and ships them to the
//! executor. The simulator models the whole monitoring plane as one
//! component: it observes the ground-truth statistics only every
//! `period_secs`, and smooths them exponentially — so the executor always
//! works with slightly stale, slightly damped statistics, as a real monitor
//! would.

use rld_common::StatsSnapshot;

/// Periodic, exponentially smoothed statistics sampling.
#[derive(Debug, Clone, PartialEq)]
pub struct StatisticsMonitor {
    /// Sampling period in seconds.
    pub period_secs: f64,
    /// Exponential smoothing factor in `(0, 1]`; 1.0 means no smoothing.
    pub smoothing_alpha: f64,
    current: StatsSnapshot,
    last_sample_at: Option<f64>,
}

impl StatisticsMonitor {
    /// Create a monitor seeded with the optimizer's initial estimates.
    pub fn new(initial: StatsSnapshot, period_secs: f64, smoothing_alpha: f64) -> Self {
        assert!(period_secs > 0.0, "monitor period must be positive");
        assert!(
            smoothing_alpha > 0.0 && smoothing_alpha <= 1.0,
            "smoothing alpha must be in (0, 1]"
        );
        Self {
            period_secs,
            smoothing_alpha,
            current: initial,
            last_sample_at: None,
        }
    }

    /// The monitor's current view of the statistics.
    pub fn current(&self) -> &StatsSnapshot {
        &self.current
    }

    /// Offer the ground truth at time `t`; the monitor only updates its view
    /// when a full sampling period has elapsed since the previous sample.
    /// Returns `true` when the view was updated.
    pub fn observe(&mut self, t_secs: f64, truth: &StatsSnapshot) -> bool {
        let due = match self.last_sample_at {
            None => true,
            Some(last) => t_secs - last + 1e-9 >= self.period_secs,
        };
        if !due {
            return false;
        }
        self.current = self.current.smoothed_towards(truth, self.smoothing_alpha);
        self.last_sample_at = Some(t_secs);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rld_common::{OperatorId, StatKey};

    fn snap(v: f64) -> StatsSnapshot {
        StatsSnapshot::from_entries([(StatKey::Selectivity(OperatorId::new(0)), v)])
    }

    #[test]
    fn first_observation_is_taken_immediately() {
        let mut m = StatisticsMonitor::new(snap(0.5), 10.0, 1.0);
        assert!(m.observe(0.0, &snap(0.9)));
        assert_eq!(m.current().selectivity(OperatorId::new(0)), Some(0.9));
    }

    #[test]
    fn sampling_period_is_respected() {
        let mut m = StatisticsMonitor::new(snap(0.5), 10.0, 1.0);
        assert!(m.observe(0.0, &snap(0.6)));
        assert!(!m.observe(5.0, &snap(0.9)));
        assert_eq!(m.current().selectivity(OperatorId::new(0)), Some(0.6));
        assert!(m.observe(10.0, &snap(0.9)));
        assert_eq!(m.current().selectivity(OperatorId::new(0)), Some(0.9));
    }

    #[test]
    fn smoothing_damps_jumps() {
        let mut m = StatisticsMonitor::new(snap(0.0), 1.0, 0.5);
        m.observe(0.0, &snap(1.0));
        assert_eq!(m.current().selectivity(OperatorId::new(0)), Some(0.5));
        m.observe(1.0, &snap(1.0));
        assert_eq!(m.current().selectivity(OperatorId::new(0)), Some(0.75));
    }

    #[test]
    #[should_panic(expected = "monitor period must be positive")]
    fn invalid_period_panics() {
        StatisticsMonitor::new(snap(0.0), 0.0, 0.5);
    }

    #[test]
    #[should_panic(expected = "smoothing alpha must be in (0, 1]")]
    fn invalid_alpha_panics() {
        StatisticsMonitor::new(snap(0.0), 1.0, 0.0);
    }
}
