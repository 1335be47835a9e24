//! Parameter-space construction and discretization.
//!
//! Implements Algorithm 1 of the paper: each uncertain statistic estimate
//! `E[i]` with uncertainty level `U[i]` spans the interval
//! `[E[i]·(1 − Δ·U[i]), E[i]·(1 + Δ·U[i])]` with unit step `Δ = 0.1`.
//! Each dimension is then discretized into `steps` grid values (the paper
//! works with a discretized space throughout, e.g. the 8×8 grid of Figure 6
//! and the 16-unit axes of Figure 8).

use rld_common::{Result, RldError, StatKey, StatisticEstimate, StatsSnapshot};
use std::fmt;

/// One axis of the parameter space.
#[derive(Debug, Clone, PartialEq)]
// rld-allow(V1): the element type of the public `ParameterSpace::dimensions`
pub struct Dimension {
    /// Which statistic this dimension models.
    pub key: StatKey,
    /// The single-point estimate at the centre of the interval.
    pub estimate: f64,
    /// Lower bound of the interval (Algorithm 1's `Elo`).
    pub lo: f64,
    /// Upper bound of the interval (Algorithm 1's `Ehi`).
    pub hi: f64,
    /// Number of discrete grid values along this dimension (≥ 2).
    pub steps: usize,
}

impl Dimension {
    /// The real value at grid index `idx` (0 → `lo`, `steps-1` → `hi`).
    pub fn value_at(&self, idx: usize) -> f64 {
        debug_assert!(idx < self.steps);
        if self.steps <= 1 {
            return self.lo;
        }
        let frac = idx as f64 / (self.steps - 1) as f64;
        self.lo + frac * (self.hi - self.lo)
    }

    /// The grid index whose value is closest to `value`, clamped to range.
    pub(crate) fn index_of(&self, value: f64) -> usize {
        if self.steps <= 1 || self.hi <= self.lo {
            return 0;
        }
        let frac = ((value - self.lo) / (self.hi - self.lo)).clamp(0.0, 1.0);
        (frac * (self.steps - 1) as f64).round() as usize
    }

    /// Width of the interval.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Standard deviation implied by the uncertainty interval when the
    /// occurrence of actual values is modelled as a normal distribution
    /// centred at the estimate (§5.2). We treat the half-width as 2σ so that
    /// ~95% of the probability mass falls inside the modelled interval.
    pub(crate) fn implied_std_dev(&self) -> f64 {
        (self.width() / 2.0 / 2.0).max(f64::MIN_POSITIVE)
    }
}

impl fmt::Display for Dimension {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} in [{:.4}, {:.4}] ({} steps)",
            self.key, self.lo, self.hi, self.steps
        )
    }
}

/// A point expressed in grid-index coordinates.
///
/// Ordered lexicographically by indices so that points can key a `BTreeMap`
/// — the workspace's determinism lint (rld-analysis rule D1) bans hash-map
/// iteration on result paths, and sorted maps are the drop-in alternative.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GridPoint {
    /// Grid index per dimension.
    pub indices: Vec<usize>,
}

impl GridPoint {
    /// Create a grid point from indices.
    pub fn new(indices: Vec<usize>) -> Self {
        Self { indices }
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.indices.len()
    }
}

impl fmt::Display for GridPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, c) in self.indices.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "]")
    }
}

/// The discretized multi-dimensional parameter space `S`.
#[derive(Debug, Clone, PartialEq)]
pub struct ParameterSpace {
    dims: Vec<Dimension>,
    /// Point estimates for *all* statistics (uncertain and certain alike) so
    /// that a parameter-space point can be expanded into a full statistics
    /// snapshot for cost evaluation.
    baseline: StatsSnapshot,
}

impl ParameterSpace {
    /// Default number of grid steps per dimension (the paper's figures use
    /// 8–16 unit grids; 9 gives an 8-interval axis like Figure 6).
    pub const DEFAULT_STEPS: usize = 9;

    /// Build the parameter space from statistic estimates per Algorithm 1.
    ///
    /// `baseline` supplies point estimates for every statistic the cost model
    /// may need (typically [`rld_common::Query::default_stats`]); `estimates`
    /// lists the uncertain subset that becomes the space's dimensions.
    pub fn from_estimates(
        estimates: &[StatisticEstimate],
        baseline: StatsSnapshot,
        steps: usize,
    ) -> Result<Self> {
        if estimates.is_empty() {
            return Err(RldError::InvalidParameterSpace(
                "at least one uncertain estimate is required".into(),
            ));
        }
        if steps < 2 {
            return Err(RldError::InvalidParameterSpace(format!(
                "need at least 2 grid steps per dimension, got {steps}"
            )));
        }
        let mut seen = std::collections::HashSet::new();
        let mut dims = Vec::with_capacity(estimates.len());
        for e in estimates {
            if !seen.insert(e.key) {
                return Err(RldError::InvalidParameterSpace(format!(
                    "duplicate dimension {}",
                    e.key
                )));
            }
            if !(e.value.is_finite() && e.value >= 0.0) {
                return Err(RldError::InvalidParameterSpace(format!(
                    "estimate for {} must be finite and non-negative, got {}",
                    e.key, e.value
                )));
            }
            let (lo, hi) = e.interval();
            if hi <= lo {
                return Err(RldError::InvalidParameterSpace(format!(
                    "estimate for {} has an empty interval [{lo}, {hi}] (value {} with {})",
                    e.key, e.value, e.uncertainty
                )));
            }
            dims.push(Dimension {
                key: e.key,
                estimate: e.value,
                lo,
                hi,
                steps,
            });
        }
        Ok(Self { dims, baseline })
    }

    /// Number of dimensions `d`.
    pub fn num_dims(&self) -> usize {
        self.dims.len()
    }

    /// The dimensions, in order.
    pub fn dimensions(&self) -> &[Dimension] {
        &self.dims
    }

    /// The dimension at `idx`.
    pub(crate) fn dimension(&self, idx: usize) -> &Dimension {
        &self.dims[idx]
    }

    /// The baseline (certain) statistics this space was constructed over.
    pub fn baseline(&self) -> &StatsSnapshot {
        &self.baseline
    }

    /// Grid shape: steps per dimension.
    pub fn grid_shape(&self) -> Vec<usize> {
        self.dims.iter().map(|d| d.steps).collect()
    }

    /// Total number of grid cells `O(n^d)`, saturated at `usize::MAX` for
    /// spaces too large to count in a `usize` (use
    /// [`ParameterSpace::total_cells_f64`] for fractions over such spaces).
    pub fn total_cells(&self) -> usize {
        let total: u128 = self.dims.iter().map(|d| d.steps as u128).product();
        usize::try_from(total).unwrap_or(usize::MAX)
    }

    /// Total number of grid cells as an `f64` (never overflows).
    pub fn total_cells_f64(&self) -> f64 {
        self.dims.iter().map(|d| d.steps as f64).product()
    }

    /// The bottom-left corner `pntLo` of the whole space.
    pub fn pnt_lo(&self) -> GridPoint {
        GridPoint::new(vec![0; self.num_dims()])
    }

    /// The top-right corner `pntHi` of the whole space.
    pub fn pnt_hi(&self) -> GridPoint {
        GridPoint::new(self.dims.iter().map(|d| d.steps - 1).collect())
    }

    /// The grid point at the centre of the space (closest to the estimates).
    pub fn centre(&self) -> GridPoint {
        GridPoint::new(self.dims.iter().map(|d| d.index_of(d.estimate)).collect())
    }

    /// Expand a grid point into a full statistics snapshot: the baseline
    /// statistics overridden with the dimension values at that point. This is
    /// what the cost model consumes.
    pub fn snapshot_at(&self, grid: &GridPoint) -> StatsSnapshot {
        let mut snap = self.baseline.clone();
        for (idx, d) in grid.indices.iter().zip(&self.dims) {
            snap.set(d.key, d.value_at(*idx));
        }
        snap
    }

    /// Project a runtime statistics snapshot onto the space: take the value of
    /// each dimension's statistic (falling back to the estimate if missing)
    /// and clamp it into the modelled interval. Used by the online classifier.
    pub fn project_snapshot(&self, snapshot: &StatsSnapshot) -> GridPoint {
        let mut indices = Vec::with_capacity(self.num_dims());
        self.project_snapshot_into(snapshot, &mut indices);
        GridPoint::new(indices)
    }

    /// Allocation-free variant of [`ParameterSpace::project_snapshot`]: write
    /// the grid indices into a caller-owned scratch buffer (cleared first).
    /// This is the per-batch hot path of the online classifier.
    pub fn project_snapshot_into(&self, snapshot: &StatsSnapshot, indices: &mut Vec<usize>) {
        indices.clear();
        indices.extend(
            self.dims
                .iter()
                .map(|d| d.index_of(snapshot.get(d.key).unwrap_or(d.estimate))),
        );
    }

    /// Whether a runtime snapshot lies inside the modelled parameter space
    /// (within every dimension's `[lo, hi]` interval). When it does not, the
    /// paper notes RLD cannot guarantee robustness and migration may be
    /// needed after all.
    pub fn covers_snapshot(&self, snapshot: &StatsSnapshot) -> bool {
        self.dims.iter().all(|d| {
            let v = snapshot.get(d.key).unwrap_or(d.estimate);
            v >= d.lo - 1e-12 && v <= d.hi + 1e-12
        })
    }

    /// Iterate over every grid point of the space in row-major order.
    pub fn iter_grid(&self) -> GridIter {
        GridIter {
            shape: self.grid_shape(),
            next: Some(vec![0; self.num_dims()]),
        }
    }
}

impl fmt::Display for ParameterSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "ParameterSpace ({} dims, {} cells):",
            self.num_dims(),
            self.total_cells()
        )?;
        for d in &self.dims {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}

/// Row-major iterator over all grid points of a space.
#[derive(Debug, Clone)]
// rld-allow(V1): returned by the public `ParameterSpace::iter_grid`
pub struct GridIter {
    shape: Vec<usize>,
    next: Option<Vec<usize>>,
}

impl Iterator for GridIter {
    type Item = GridPoint;

    fn next(&mut self) -> Option<Self::Item> {
        let current = self.next.take()?;
        let result = GridPoint::new(current.clone());
        // Advance odometer (last dimension fastest).
        let mut idx = current;
        for i in (0..self.shape.len()).rev() {
            idx[i] += 1;
            if idx[i] < self.shape[i] {
                self.next = Some(idx);
                return Some(result);
            }
            idx[i] = 0;
        }
        // Wrapped around: iteration is finished after this item.
        self.next = None;
        Some(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rld_common::{OperatorId, StreamId, UncertaintyLevel};

    fn example2_space(steps: usize) -> ParameterSpace {
        // Paper Example 2: E = {δ1 = 0.4, λN = 100}, U = 2.
        let estimates = vec![
            StatisticEstimate::new(
                StatKey::Selectivity(OperatorId::new(0)),
                0.4,
                UncertaintyLevel::new(2),
            ),
            StatisticEstimate::new(
                StatKey::InputRate(StreamId::new(0)),
                100.0,
                UncertaintyLevel::new(2),
            ),
        ];
        let baseline = StatsSnapshot::from_entries([
            (StatKey::Selectivity(OperatorId::new(0)), 0.4),
            (StatKey::Selectivity(OperatorId::new(1)), 0.7),
            (StatKey::InputRate(StreamId::new(0)), 100.0),
        ]);
        ParameterSpace::from_estimates(&estimates, baseline, steps).unwrap()
    }

    #[test]
    fn algorithm1_bounds_match_paper_example2() {
        let s = example2_space(9);
        assert_eq!(s.num_dims(), 2);
        let d0 = s.dimension(0);
        assert!((d0.lo - 0.32).abs() < 1e-12);
        assert!((d0.hi - 0.48).abs() < 1e-12);
        let d1 = s.dimension(1);
        assert!((d1.lo - 80.0).abs() < 1e-12);
        assert!((d1.hi - 120.0).abs() < 1e-12);
        assert_eq!(s.total_cells(), 81);
    }

    #[test]
    fn corners_and_values() {
        let s = example2_space(9);
        let lo = s.snapshot_at(&s.pnt_lo());
        let hi = s.snapshot_at(&s.pnt_hi());
        let (sel, rate) = (OperatorId::new(0), StreamId::new(0));
        assert!((lo.selectivity(sel).unwrap() - 0.32).abs() < 1e-12);
        assert!((hi.selectivity(sel).unwrap() - 0.48).abs() < 1e-12);
        assert!((lo.input_rate(rate).unwrap() - 80.0).abs() < 1e-12);
        assert!((hi.input_rate(rate).unwrap() - 120.0).abs() < 1e-12);
    }

    #[test]
    fn grid_round_trip() {
        let s = example2_space(9);
        for d in s.dimensions() {
            for idx in 0..d.steps {
                assert_eq!(d.index_of(d.value_at(idx)), idx);
            }
        }
        for g in s.iter_grid() {
            assert_eq!(s.project_snapshot(&s.snapshot_at(&g)), g);
        }
    }

    #[test]
    fn grid_iteration_covers_all_cells_once() {
        let s = example2_space(5);
        let pts: Vec<_> = s.iter_grid().collect();
        assert_eq!(pts.len(), 25);
        let unique: std::collections::HashSet<_> = pts.iter().cloned().collect();
        assert_eq!(unique.len(), 25);
    }

    #[test]
    fn snapshot_at_overrides_only_dimension_keys() {
        let s = example2_space(9);
        let snap = s.snapshot_at(&s.pnt_hi());
        assert!((snap.selectivity(OperatorId::new(0)).unwrap() - 0.48).abs() < 1e-12);
        assert!((snap.input_rate(StreamId::new(0)).unwrap() - 120.0).abs() < 1e-12);
        // Untouched baseline statistic remains.
        assert_eq!(snap.selectivity(OperatorId::new(1)), Some(0.7));
    }

    #[test]
    fn project_and_cover_snapshot() {
        let s = example2_space(9);
        let inside = StatsSnapshot::from_entries([
            (StatKey::Selectivity(OperatorId::new(0)), 0.40),
            (StatKey::InputRate(StreamId::new(0)), 115.0),
        ]);
        assert!(s.covers_snapshot(&inside));
        let g = s.project_snapshot(&inside);
        assert_eq!(g.indices[0], 4); // centre of 9 steps
        let outside = StatsSnapshot::from_entries([
            (StatKey::Selectivity(OperatorId::new(0)), 0.9),
            (StatKey::InputRate(StreamId::new(0)), 115.0),
        ]);
        assert!(!s.covers_snapshot(&outside));
        // Projection clamps.
        let g = s.project_snapshot(&outside);
        assert_eq!(g.indices[0], 8);
    }

    #[test]
    fn centre_is_near_estimates() {
        let s = example2_space(9);
        let c = s.snapshot_at(&s.centre());
        assert!((c.selectivity(OperatorId::new(0)).unwrap() - 0.4).abs() < 0.02);
        assert!((c.input_rate(StreamId::new(0)).unwrap() - 100.0).abs() < 3.0);
    }

    #[test]
    fn rejects_invalid_construction() {
        let baseline = StatsSnapshot::new();
        assert!(matches!(
            ParameterSpace::from_estimates(&[], baseline.clone(), 9),
            Err(RldError::InvalidParameterSpace(_))
        ));
        let e = StatisticEstimate::new(
            StatKey::Selectivity(OperatorId::new(0)),
            0.4,
            UncertaintyLevel::new(2),
        );
        assert!(matches!(
            ParameterSpace::from_estimates(&[e], baseline.clone(), 1),
            Err(RldError::InvalidParameterSpace(_))
        ));
        // duplicate dims
        assert!(matches!(
            ParameterSpace::from_estimates(&[e, e], baseline.clone(), 9),
            Err(RldError::InvalidParameterSpace(_))
        ));
        // zero uncertainty gives an empty interval
        let e0 = StatisticEstimate::new(
            StatKey::Selectivity(OperatorId::new(0)),
            0.4,
            UncertaintyLevel::new(0),
        );
        assert!(matches!(
            ParameterSpace::from_estimates(&[e0], baseline, 9),
            Err(RldError::InvalidParameterSpace(_))
        ));
    }

    #[test]
    fn display_formats() {
        let s = example2_space(3);
        let txt = s.to_string();
        assert!(txt.contains("2 dims"));
        assert!(GridPoint::new(vec![1, 2]).to_string().contains("[1, 2]"));
    }

    #[test]
    fn implied_std_dev_positive() {
        let s = example2_space(9);
        for d in s.dimensions() {
            assert!(d.implied_std_dev() > 0.0);
        }
    }
}
