//! Rate and selectivity fluctuation patterns.
//!
//! These patterns parameterize how a workload's ground truth drifts over
//! simulated time; they correspond directly to the knobs swept in the
//! paper's runtime experiments: the input-rate fluctuation *ratio*
//! (Figure 15a), the step ramp of Figure 15b, and the fluctuation *period*
//! (Figure 16b).

/// How a stream's input rate is scaled over time relative to its base rate.
#[derive(Debug, Clone, PartialEq)]
pub enum RatePattern {
    /// Constant scaling factor (1.0 = the base rate; 4.0 = the paper's 400%).
    Constant(f64),
    /// Alternate between a high and a low scale with the given period: the
    /// rate stays at `high_scale` for `period_secs`, then at `low_scale` for
    /// `period_secs`, and so on (the paper's fluctuation-period experiment).
    Periodic {
        /// Length of each high (and each low) interval, in seconds.
        period_secs: f64,
        /// Scale during high intervals.
        high_scale: f64,
        /// Scale during low intervals.
        low_scale: f64,
    },
    /// Piecewise-constant schedule: `(start_secs, scale)` entries sorted by
    /// time; the scale of the latest entry whose start time is ≤ t applies
    /// (Figure 15b uses 0→50%, 1200 s→100%, 2400 s→200%).
    Steps(Vec<(f64, f64)>),
}

impl RatePattern {
    /// The scale factor at time `t` seconds.
    pub(crate) fn scale_at(&self, t_secs: f64) -> f64 {
        match self {
            RatePattern::Constant(s) => *s,
            RatePattern::Periodic {
                period_secs,
                high_scale,
                low_scale,
            } => {
                if *period_secs <= 0.0 {
                    return *high_scale;
                }
                let phase = (t_secs / period_secs).floor() as i64;
                if phase % 2 == 0 {
                    *high_scale
                } else {
                    *low_scale
                }
            }
            RatePattern::Steps(steps) => {
                let mut scale = steps.first().map(|(_, s)| *s).unwrap_or(1.0);
                for (start, s) in steps {
                    if t_secs + 1e-9 >= *start {
                        scale = *s;
                    }
                }
                scale
            }
        }
    }
}

impl Default for RatePattern {
    fn default() -> Self {
        RatePattern::Constant(1.0)
    }
}

/// How operator selectivities drift over time relative to their estimates.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum SelectivityPattern {
    /// Selectivities stay at their point estimates.
    #[default]
    Constant,
    /// Alternate between two *regimes*, each a full set of per-operator
    /// scaling factors (e.g. bullish vs bearish in Example 1). Regime 0 is
    /// active first, for `period_secs`, then regime 1, and so on.
    RegimeSwitch {
        /// Length of each regime interval in seconds.
        period_secs: f64,
        /// Per-operator selectivity multipliers for each regime
        /// (`regimes[r][op]`, indexed by operator id).
        regimes: Vec<Vec<f64>>,
    },
    /// Smooth sinusoidal drift: every operator's selectivity is scaled by
    /// `1 + amplitude · sin(2π·t/period + phase·op_index)`.
    Sinusoidal {
        /// Oscillation period in seconds.
        period_secs: f64,
        /// Relative amplitude in `[0, 1)`.
        amplitude: f64,
        /// Per-operator phase shift in radians.
        phase_step: f64,
    },
}

impl SelectivityPattern {
    /// Multiplier applied to operator `op_index`'s estimated selectivity at
    /// time `t` seconds.
    pub(crate) fn scale_at(&self, t_secs: f64, op_index: usize) -> f64 {
        match self {
            SelectivityPattern::Constant => 1.0,
            SelectivityPattern::RegimeSwitch {
                period_secs,
                regimes,
            } => {
                if regimes.is_empty() || *period_secs <= 0.0 {
                    return 1.0;
                }
                let regime = ((t_secs / period_secs).floor() as usize) % regimes.len();
                regimes[regime].get(op_index).copied().unwrap_or(1.0)
            }
            SelectivityPattern::Sinusoidal {
                period_secs,
                amplitude,
                phase_step,
            } => {
                if *period_secs <= 0.0 {
                    return 1.0;
                }
                let phase = 2.0 * std::f64::consts::PI * t_secs / period_secs
                    + phase_step * op_index as f64;
                (1.0 + amplitude * phase.sin()).max(0.0)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_rate() {
        let p = RatePattern::Constant(2.0);
        assert_eq!(p.scale_at(0.0), 2.0);
        assert_eq!(p.scale_at(1e6), 2.0);
        assert_eq!(RatePattern::default().scale_at(5.0), 1.0);
    }

    #[test]
    fn periodic_rate_alternates() {
        let p = RatePattern::Periodic {
            period_secs: 10.0,
            high_scale: 2.0,
            low_scale: 0.5,
        };
        assert_eq!(p.scale_at(0.0), 2.0);
        assert_eq!(p.scale_at(9.9), 2.0);
        assert_eq!(p.scale_at(10.1), 0.5);
        assert_eq!(p.scale_at(25.0), 2.0);
        // Degenerate period falls back to the high scale.
        let d = RatePattern::Periodic {
            period_secs: 0.0,
            high_scale: 3.0,
            low_scale: 0.1,
        };
        assert_eq!(d.scale_at(42.0), 3.0);
    }

    #[test]
    fn step_schedule_matches_figure_15b() {
        let p = RatePattern::Steps(vec![(0.0, 0.5), (1200.0, 1.0), (2400.0, 2.0)]);
        assert_eq!(p.scale_at(0.0), 0.5);
        assert_eq!(p.scale_at(1199.0), 0.5);
        assert_eq!(p.scale_at(1200.0), 1.0);
        assert_eq!(p.scale_at(3000.0), 2.0);
        assert_eq!(RatePattern::Steps(vec![]).scale_at(10.0), 1.0);
    }

    #[test]
    fn regime_switch_cycles() {
        let p = SelectivityPattern::RegimeSwitch {
            period_secs: 30.0,
            regimes: vec![vec![1.0, 0.2], vec![0.3, 1.5]],
        };
        assert_eq!(p.scale_at(0.0, 0), 1.0);
        assert_eq!(p.scale_at(0.0, 1), 0.2);
        assert_eq!(p.scale_at(31.0, 0), 0.3);
        assert_eq!(p.scale_at(31.0, 1), 1.5);
        assert_eq!(p.scale_at(61.0, 0), 1.0);
        // Unknown operator index defaults to 1.
        assert_eq!(p.scale_at(0.0, 7), 1.0);
    }

    #[test]
    fn sinusoidal_stays_non_negative_and_oscillates() {
        let p = SelectivityPattern::Sinusoidal {
            period_secs: 20.0,
            amplitude: 0.5,
            phase_step: 0.0,
        };
        let at_quarter = p.scale_at(5.0, 0); // sin(π/2) = 1 → 1.5
        let at_three_quarters = p.scale_at(15.0, 0); // sin(3π/2) = −1 → 0.5
        assert!((at_quarter - 1.5).abs() < 1e-9);
        assert!((at_three_quarters - 0.5).abs() < 1e-9);
        // Large amplitude clamps at zero.
        let extreme = SelectivityPattern::Sinusoidal {
            period_secs: 20.0,
            amplitude: 2.0,
            phase_step: 0.0,
        };
        assert_eq!(extreme.scale_at(15.0, 0), 0.0);
        assert_eq!(SelectivityPattern::Constant.scale_at(3.0, 0), 1.0);
    }
}
