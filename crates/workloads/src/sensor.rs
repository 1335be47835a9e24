//! Sensor-network workload (stand-in for the Intel Research Berkeley Lab
//! trace used in §6.1).
//!
//! The real deployment streams temperature / humidity / light readings from
//! ~50 motes; reading rates and the selectivity of correlation predicates
//! follow a strong diurnal pattern. We reproduce that structure with an
//! n-way join query whose stream rates follow a sinusoidal day/night cycle
//! and whose join selectivities drift with a per-operator phase shift, so
//! that the optimal plan ordering changes over the (simulated) day.

use crate::fluctuation::SelectivityPattern;
use crate::Workload;
use rld_common::{Query, StatKey, StatsSnapshot};

/// The sensor-network workload.
#[derive(Debug, Clone)]
pub struct SensorWorkload {
    query: Query,
    /// Length of one simulated "day" in seconds.
    day_secs: f64,
    /// Relative amplitude of the diurnal rate swing in `[0, 1)`.
    rate_amplitude: f64,
    selectivity: SelectivityPattern,
}

impl SensorWorkload {
    /// Create a sensor workload joining `num_streams` sensor streams.
    ///
    /// `day_secs` is the diurnal period (a real day is 86 400 s; experiments
    /// typically compress it).
    pub fn new(num_streams: usize, day_secs: f64, seed: u64) -> Self {
        assert!(num_streams >= 2, "need at least two sensor streams");
        let query = Query::n_way_join(num_streams, seed);
        Self {
            query,
            day_secs: day_secs.max(1.0),
            rate_amplitude: 0.5,
            selectivity: SelectivityPattern::Sinusoidal {
                period_secs: day_secs.max(1.0),
                amplitude: 0.4,
                phase_step: std::f64::consts::PI / 3.0,
            },
        }
    }

    /// The default configuration used in examples: 10 streams, a 10-minute
    /// compressed day.
    pub fn default_config() -> Self {
        Self::new(10, 600.0, 0x5E15_0001)
    }

    /// The diurnal rate multiplier at time `t` (1 ± amplitude).
    pub fn diurnal_scale(&self, t_secs: f64) -> f64 {
        let phase = 2.0 * std::f64::consts::PI * t_secs / self.day_secs;
        (1.0 + self.rate_amplitude * phase.sin()).max(0.0)
    }
}

impl Workload for SensorWorkload {
    fn name(&self) -> &str {
        "intel-lab-sensors"
    }

    fn query(&self) -> &Query {
        &self.query
    }

    fn stats_into(&self, t_secs: f64, stats: &mut StatsSnapshot) {
        // Every operator and stream is written below: the query's whole
        // default key set, with this time's values.
        stats.clear();
        let scale = self.diurnal_scale(t_secs);
        for stream in &self.query.streams {
            stats.set(StatKey::InputRate(stream.id), stream.rate_estimate * scale);
        }
        for (i, op) in self.query.operators.iter().enumerate() {
            let m = self.selectivity.scale_at(t_secs, i);
            stats.set(
                StatKey::Selectivity(op.id),
                (op.selectivity_estimate * m).max(0.0),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diurnal_cycle_peaks_and_troughs() {
        let w = SensorWorkload::new(5, 400.0, 1);
        let peak = w.diurnal_scale(100.0); // quarter period → sin = 1
        let trough = w.diurnal_scale(300.0); // three quarters → sin = −1
        assert!((peak - 1.5).abs() < 1e-9);
        assert!((trough - 0.5).abs() < 1e-9);
        // Rates follow the same cycle.
        let q = w.query().clone();
        let s_peak = w.stats_at(100.0);
        let s_trough = w.stats_at(300.0);
        for stream in &q.streams {
            assert!(
                s_peak.input_rate(stream.id).unwrap() > s_trough.input_rate(stream.id).unwrap()
            );
        }
    }

    #[test]
    fn default_config_is_a_ten_way_join() {
        let w = SensorWorkload::default_config();
        assert_eq!(w.query().num_streams(), 10);
        assert_eq!(w.name(), "intel-lab-sensors");
    }

    #[test]
    fn selectivities_drift_out_of_phase() {
        let w = SensorWorkload::new(6, 600.0, 3);
        let a = w.stats_at(150.0);
        let b = w.stats_at(450.0);
        // At least one operator's selectivity must change across half a day.
        let changed = w
            .query()
            .operator_ids()
            .iter()
            .any(|op| (a.selectivity(*op).unwrap() - b.selectivity(*op).unwrap()).abs() > 1e-6);
        assert!(changed);
        // And they stay non-negative.
        for op in w.query().operator_ids() {
            assert!(a.selectivity(op).unwrap() >= 0.0);
            assert!(b.selectivity(op).unwrap() >= 0.0);
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = SensorWorkload::new(5, 300.0, 42);
        let b = SensorWorkload::new(5, 300.0, 42);
        assert_eq!(a.query(), b.query());
        assert_eq!(a.stats_at(33.0), b.stats_at(33.0));
    }

    #[test]
    #[should_panic(expected = "need at least two sensor streams")]
    fn single_stream_rejected() {
        SensorWorkload::new(1, 100.0, 1);
    }
}
