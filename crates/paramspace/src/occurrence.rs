//! Probability-of-occurrence model for parameter-space points (§5.2).
//!
//! The physical plan generator weights each robust logical plan by the
//! probability that the runtime statistics actually fall inside its robust
//! region. The paper models each dimension's actual value as an independent
//! normal distribution centred at the point estimate, with the uncertainty
//! level acting as the standard deviation (Example 5 uses µ = 0.5, σ = 0.2 on
//! a 16-unit axis). A uniform model is also provided for the ablation study
//! of this design choice.

use crate::region::Region;
use crate::space::{GridPoint, ParameterSpace};

/// How the occurrence probability of runtime statistics is modelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OccurrenceModel {
    /// Independent per-dimension normal distributions centred at the estimate
    /// with σ derived from the uncertainty interval (the paper's choice).
    #[default]
    Normal,
    /// Every cell of the space is equally likely (ablation baseline).
    Uniform,
}

impl OccurrenceModel {
    /// Probability that the runtime statistics fall inside the given cell.
    pub fn cell_probability(&self, space: &ParameterSpace, cell: &GridPoint) -> f64 {
        match self {
            OccurrenceModel::Uniform => 1.0 / space.total_cells_f64(),
            OccurrenceModel::Normal => {
                let mut p = 1.0;
                for (dim_idx, dim) in space.dimensions().iter().enumerate() {
                    let (lo, hi) = cell_bounds(space, cell.indices[dim_idx], dim_idx);
                    p *= normal_interval_probability(dim.estimate, dim.implied_std_dev(), lo, hi);
                }
                p
            }
        }
    }

    /// Probability that the runtime statistics fall inside a region
    /// (product over dimensions of the per-axis interval probabilities).
    /// Summed over the disjoint pieces of a robust region, this is the
    /// plan's §5.2 weight `Σ_{pnt_j ∈ area(lp_i)} Pr(pnt_j)`.
    pub fn region_probability(&self, space: &ParameterSpace, region: &Region) -> f64 {
        match self {
            OccurrenceModel::Uniform => region.volume_f64() / space.total_cells_f64(),
            OccurrenceModel::Normal => {
                let mut p = 1.0;
                for (dim_idx, dim) in space.dimensions().iter().enumerate() {
                    let (lo, _) = cell_bounds(space, region.lo[dim_idx], dim_idx);
                    let (_, hi) = cell_bounds(space, region.hi[dim_idx], dim_idx);
                    p *= normal_interval_probability(dim.estimate, dim.implied_std_dev(), lo, hi);
                }
                p
            }
        }
    }
}

/// The real-valued interval `[lo, hi]` covered by grid cell `idx` along
/// dimension `dim_idx`: half a grid step on each side of the grid value,
/// clamped to the dimension's modelled interval.
fn cell_bounds(space: &ParameterSpace, idx: usize, dim_idx: usize) -> (f64, f64) {
    let dim = space.dimension(dim_idx);
    let step = if dim.steps > 1 {
        dim.width() / (dim.steps - 1) as f64
    } else {
        dim.width()
    };
    let centre = dim.value_at(idx);
    let lo = (centre - step / 2.0).max(dim.lo);
    let hi = (centre + step / 2.0).min(dim.hi);
    (lo, hi)
}

/// Probability mass of `N(mean, std_dev²)` on the interval `[lo, hi]`.
fn normal_interval_probability(mean: f64, std_dev: f64, lo: f64, hi: f64) -> f64 {
    if hi <= lo {
        return 0.0;
    }
    if std_dev <= 0.0 {
        // Degenerate distribution: all mass at the mean.
        return if mean >= lo && mean <= hi { 1.0 } else { 0.0 };
    }
    standard_normal_cdf((hi - mean) / std_dev) - standard_normal_cdf((lo - mean) / std_dev)
}

/// Standard normal CDF Φ(z) via the error function.
pub fn standard_normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

/// Error function approximation (Abramowitz & Stegun 7.1.26, max abs error 1.5e-7).
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let y = 1.0
        - (((((1.061_405_429 * t - 1.453_152_027) * t) + 1.421_413_741) * t - 0.284_496_736) * t
            + 0.254_829_592)
            * t
            * (-x * x).exp();
    sign * y
}

#[cfg(test)]
mod tests {
    use super::*;
    use rld_common::{OperatorId, StatKey, StatisticEstimate, StatsSnapshot, UncertaintyLevel};

    fn space_2d(steps: usize) -> ParameterSpace {
        let estimates = vec![
            StatisticEstimate::new(
                StatKey::Selectivity(OperatorId::new(0)),
                0.5,
                UncertaintyLevel::new(4),
            ),
            StatisticEstimate::new(
                StatKey::Selectivity(OperatorId::new(1)),
                0.5,
                UncertaintyLevel::new(4),
            ),
        ];
        ParameterSpace::from_estimates(&estimates, StatsSnapshot::new(), steps).unwrap()
    }

    #[test]
    fn erf_known_values() {
        assert!((erf(0.0)).abs() < 1e-7);
        assert!((erf(1.0) - 0.842_700_79).abs() < 1e-5);
        assert!((erf(-1.0) + 0.842_700_79).abs() < 1e-5);
        assert!((erf(3.0) - 0.999_977_9).abs() < 1e-5);
    }

    #[test]
    fn normal_cdf_symmetry() {
        assert!((standard_normal_cdf(0.0) - 0.5).abs() < 1e-7);
        let p = standard_normal_cdf(1.96);
        assert!((p - 0.975).abs() < 1e-3);
        assert!((standard_normal_cdf(-1.96) - (1.0 - p)).abs() < 1e-7);
    }

    #[test]
    fn paper_example5_interval_probability() {
        // Example 5: µ = 0.5, σ = 0.2, Pr(0.3 ≤ x ≤ 0.5) = 0.341 (one-sided 1σ).
        let p = normal_interval_probability(0.5, 0.2, 0.3, 0.5);
        assert!((p - 0.3413).abs() < 1e-3, "p={p}");
    }

    #[test]
    fn uniform_cell_probability_sums_to_one() {
        let s = space_2d(9);
        let m = OccurrenceModel::Uniform;
        let total: f64 = s.iter_grid().map(|c| m.cell_probability(&s, &c)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn normal_cell_probabilities_sum_close_to_interval_mass() {
        let s = space_2d(9);
        let m = OccurrenceModel::Normal;
        let total: f64 = s.iter_grid().map(|c| m.cell_probability(&s, &c)).sum();
        // The space covers ±2σ per dimension => (erf(2/√2))² ≈ 0.9545² ≈ 0.911.
        assert!((total - 0.911).abs() < 0.02, "total={total}");
    }

    #[test]
    fn full_region_probability_matches_cell_sum() {
        let s = space_2d(9);
        let m = OccurrenceModel::Normal;
        let full = Region::full(&s);
        let by_region = m.region_probability(&s, &full);
        let by_cells: f64 = s.iter_grid().map(|c| m.cell_probability(&s, &c)).sum();
        assert!((by_region - by_cells).abs() < 1e-6);
    }

    #[test]
    fn centre_cells_are_more_likely_than_corner_cells() {
        let s = space_2d(9);
        let m = OccurrenceModel::Normal;
        let centre = m.cell_probability(&s, &s.centre());
        let corner = m.cell_probability(&s, &s.pnt_hi());
        assert!(centre > corner);
    }

    #[test]
    fn uniform_region_probability_is_area_fraction() {
        let s = space_2d(9);
        let m = OccurrenceModel::Uniform;
        let r = Region::new(vec![0, 0], vec![2, 2]);
        assert!((m.region_probability(&s, &r) - r.area_fraction(&s)).abs() < 1e-12);
    }

    #[test]
    fn degenerate_sigma_handled() {
        assert_eq!(normal_interval_probability(0.5, 0.0, 0.4, 0.6), 1.0);
        assert_eq!(normal_interval_probability(0.5, 0.0, 0.6, 0.7), 0.0);
        assert_eq!(normal_interval_probability(0.5, 0.2, 0.7, 0.6), 0.0);
    }
}
