//! Weight assignment for parameter-space points (§4.2 of the paper).
//!
//! The partitioning algorithms need to pick "good" partition points — points
//! where a *new* robust plan is likely to be found. The paper assigns each
//! point a weight that
//!
//! * **increases** with the slope of the known plans' cost functions at that
//!   point (Principle 2: near the margin of a plan's robust region the cost
//!   surface is steep), and
//! * **decreases** with the point's distance from the sub-space's bottom-left
//!   corner `pntLo` (Principle 1: nearby points likely share a robust plan).
//!
//! Formally, per dimension `i`:
//!
//! ```text
//! weight_i(pnt) = min(slope_i(pnt, lp_opt@pntHi), slope_i(pnt, lp_opt@pntLo)) / dist_i(pnt, pntLo)
//! ```
//!
//! and the point's weight is the sum over dimensions. The plan cost functions
//! are supplied as closures over grid points so that this crate does not
//! depend on the query/cost-model crate.

use crate::region::Region;
use crate::space::{GridPoint, ParameterSpace};
use std::cmp::Ordering;

/// Distance metric used in the denominator of the weight function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DistanceMetric {
    /// Sum of per-dimension index distances (the paper's default choice).
    #[default]
    Manhattan,
    /// Square root of the sum of squared per-dimension index distances.
    Euclidean,
}

impl DistanceMetric {
    /// Distance between two grid points in index units.
    pub fn grid_distance(&self, a: &GridPoint, b: &GridPoint) -> f64 {
        match self {
            DistanceMetric::Manhattan => a
                .indices
                .iter()
                .zip(&b.indices)
                .map(|(x, y)| x.abs_diff(*y) as f64)
                .sum(),
            DistanceMetric::Euclidean => a
                .indices
                .iter()
                .zip(&b.indices)
                .map(|(x, y)| (x.abs_diff(*y) as f64).powi(2))
                .sum::<f64>()
                .sqrt(),
        }
    }
}

/// Weights assigned to grid points, as a sorted map from grid coordinates
/// to weight.
///
/// Stored as two flat arrays in lexicographic coordinate order — the order
/// [`WeightMap::assign`] enumerates its lattice in — so that every iteration
/// order, and therefore every maximum-weight tie-break and partition-point
/// choice downstream, is a pure function of the map's *contents*, never of
/// hash seeding or insertion order (determinism lint D1), without one heap
/// key per point.
#[derive(Debug, Clone, Default)]
pub struct WeightMap {
    /// Coordinates per point (0 only for the empty default map).
    dims: usize,
    /// Grid coordinates, `dims` per point, points in lexicographic order.
    coords: Vec<usize>,
    /// Weight of each point, in the order of `coords`.
    weights: Vec<f64>,
}

impl WeightMap {
    /// Maximum number of grid points that are weighted exactly; larger
    /// regions are sub-sampled on a coarse lattice (every k-th index per
    /// dimension). A weighted point costs up to `4·d` plan-cost evaluations,
    /// so without the cap the weight assignment of a wide region would
    /// dwarf the optimizer calls it is meant to save (§4.2).
    pub const MAX_EXACT_CELLS: usize = 4096;

    /// Assign weights to every grid point of `region` in `space`.
    ///
    /// `cost_lo_plan` and `cost_hi_plan` evaluate the cost of the optimal
    /// plans at the region's `pntLo` and `pntHi` corners, respectively, at an
    /// arbitrary grid point. Slopes are estimated with central finite
    /// differences on the grid. Regions with more than
    /// [`WeightMap::MAX_EXACT_CELLS`] cells are weighted on a sub-sampled
    /// lattice. When every cell is weighted, each cost function is called
    /// once per cell (the ±1 neighbours the slopes need are cells too);
    /// on a sub-sampled lattice it is called up to `2·d` times per point.
    pub fn assign<FLo, FHi>(
        space: &ParameterSpace,
        region: &Region,
        cost_lo_plan: FLo,
        cost_hi_plan: FHi,
        metric: DistanceMetric,
    ) -> Self
    where
        FLo: Fn(&GridPoint) -> f64,
        FHi: Fn(&GridPoint) -> f64,
    {
        // Pick a per-dimension stride so the sampled lattice stays below the
        // cap. Volumes are compared in u128 so high-dimensional regions do
        // not overflow the product.
        let mut stride = 1usize;
        while region
            .lo
            .iter()
            .zip(&region.hi)
            .map(|(l, h)| ((h - l) / stride + 1) as u128)
            .product::<u128>()
            > Self::MAX_EXACT_CELLS as u128
        {
            stride += 1;
        }
        // Enumerate the lattice directly (per-dimension strided index lists,
        // always including the hi edge) instead of iterating every cell of
        // the region and filtering — the latter is O(cells) and collapses on
        // high-dimensional spaces even when only 4096 points are weighted.
        let lattice: Vec<Vec<usize>> = region
            .lo
            .iter()
            .zip(&region.hi)
            .map(|(l, h)| {
                let mut axis: Vec<usize> = (*l..=*h).step_by(stride).collect();
                if *axis.last().expect("non-empty axis") != *h {
                    axis.push(*h);
                }
                axis
            })
            .collect();
        let points: usize = lattice.iter().map(Vec::len).product();
        let mut map = Self::with_capacity(lattice.len(), points);
        let cell_costs =
            (stride == 1).then(|| CellCosts::of(region, &lattice, &cost_lo_plan, &cost_hi_plan));
        let pnt_lo = region.pnt_lo();
        let mut cell = region.pnt_lo();
        let mut odometer = vec![0usize; lattice.len()];
        loop {
            let mut total = 0.0;
            for dim in 0..space.num_dims() {
                let (slope_lo, slope_hi) = match (&cell_costs, neighbours(region, &cell, dim)) {
                    (_, None) => (0.0, 0.0),
                    // With every cell weighted, `cell` is the `map.len()`-th.
                    (Some(costs), Some(span)) => costs.slopes(map.len(), &cell, dim, span),
                    (None, Some(span)) => (
                        sampled_slope(&mut cell, dim, span, &cost_lo_plan),
                        sampled_slope(&mut cell, dim, span, &cost_hi_plan),
                    ),
                };
                let slope = slope_lo.min(slope_hi).abs();
                let dist = (cell.indices[dim].abs_diff(pnt_lo.indices[dim]) as f64).max(1.0);
                total += slope / dist;
            }
            // Normalize by overall distance so the chosen metric matters for
            // multi-dimensional spaces; add 1 to avoid division by zero at pntLo.
            let overall = metric.grid_distance(&cell, &pnt_lo) + 1.0;
            map.push(&cell.indices, total / overall);
            if !advance(&mut odometer, &lattice, &mut cell) {
                return map;
            }
        }
    }

    fn with_capacity(dims: usize, points: usize) -> Self {
        Self {
            dims,
            coords: Vec::with_capacity(points * dims),
            weights: Vec::with_capacity(points),
        }
    }

    /// Append a point; the caller keeps the points in lexicographic order.
    fn push(&mut self, point: &[usize], weight: f64) {
        self.coords.extend_from_slice(point);
        self.weights.push(weight);
    }

    /// Grid coordinates of the `i`-th point.
    fn point(&self, i: usize) -> &[usize] {
        &self.coords[i * self.dims..(i + 1) * self.dims]
    }

    /// Weight of a grid point (0 if the point was not assigned).
    pub fn get(&self, p: &GridPoint) -> f64 {
        let (mut lo, mut hi) = (0, self.weights.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.point(mid).cmp(&p.indices) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return self.weights[mid],
            }
        }
        0.0
    }

    /// Number of weighted points.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// The point with the maximum weight among those `keep` accepts. Ties
    /// (and incomparable weights) go to the lexicographically greatest
    /// coordinates, i.e. to the later point.
    fn max_weight_where(&self, keep: impl Fn(&[usize]) -> bool) -> Option<GridPoint> {
        (0..self.weights.len())
            .filter(|i| keep(self.point(*i)))
            .reduce(|best, i| {
                if self.weights[best] > self.weights[i] {
                    best
                } else {
                    i
                }
            })
            .map(|i| GridPoint::new(self.point(i).to_vec()))
    }

    /// The grid point with the maximum weight, breaking ties deterministically
    /// by grid coordinates. Returns `None` for an empty map.
    pub fn max_weight_point(&self) -> Option<GridPoint> {
        self.max_weight_where(|_| true)
    }

    /// The interior grid point (strictly between a region's corners along at
    /// least one dimension where the region is wider than one cell) with the
    /// maximum weight. Falls back to [`WeightMap::max_weight_point`] when the
    /// region has no interior. Partitioning at a corner makes no progress,
    /// so the partitioning algorithms prefer interior maxima.
    pub fn max_weight_interior_point(&self, region: &Region) -> Option<GridPoint> {
        self.max_weight_where(|p| {
            p.iter()
                .zip(region.lo.iter().zip(&region.hi))
                .any(|(x, (l, h))| h > l && x < h && x >= l)
                && p != region.hi
        })
        .or_else(|| self.max_weight_point())
    }

    /// Merge another weight map into this one (used when only some sub-spaces
    /// are re-weighted after a partition — the incremental update of §4.2).
    /// Where both maps weigh a point, `other`'s weight wins.
    pub fn merge(&mut self, other: WeightMap) {
        if self.is_empty() {
            *self = other;
            return;
        }
        if other.is_empty() {
            return;
        }
        assert_eq!(self.dims, other.dims, "weight map dimensionality mismatch");
        let mut merged = Self::with_capacity(self.dims, self.len() + other.len());
        let (mut i, mut j) = (0, 0);
        while i < self.len() || j < other.len() {
            let order = if j == other.len() {
                Ordering::Less
            } else if i == self.len() {
                Ordering::Greater
            } else {
                self.point(i).cmp(other.point(j))
            };
            if order == Ordering::Less {
                merged.push(self.point(i), self.weights[i]);
            } else {
                merged.push(other.point(j), other.weights[j]);
            }
            if order != Ordering::Greater {
                i += 1;
            }
            if order != Ordering::Less {
                j += 1;
            }
        }
        *self = merged;
    }
}

/// The clamped ±1 neighbours `(below, above)` of `cell` along `dim` that a
/// central finite difference spans (one-sided at the region's edges), or
/// `None` when the region is flat along `dim` and the slope is 0.
fn neighbours(region: &Region, cell: &GridPoint, dim: usize) -> Option<(usize, usize)> {
    let lo_idx = region.lo[dim];
    let hi_idx = region.hi[dim];
    if hi_idx == lo_idx {
        return None;
    }
    let below = cell.indices[dim].max(lo_idx + 1) - 1;
    let above = (cell.indices[dim] + 1).min(hi_idx);
    (above != below).then_some((below, above))
}

/// Finite-difference slope of `cost` along `dim` across `(below, above)`,
/// evaluated in place: `cell` is moved to the two neighbours and restored.
fn sampled_slope<F>(
    cell: &mut GridPoint,
    dim: usize,
    (below, above): (usize, usize),
    cost: &F,
) -> f64
where
    F: Fn(&GridPoint) -> f64,
{
    let at = cell.indices[dim];
    cell.indices[dim] = above;
    let cost_above = cost(cell);
    cell.indices[dim] = below;
    let cost_below = cost(cell);
    cell.indices[dim] = at;
    (cost_above - cost_below) / (above - below) as f64
}

/// Move `cell` to the next lattice point (last dimension fastest); `false`
/// once the lattice is exhausted.
fn advance(odometer: &mut [usize], lattice: &[Vec<usize>], cell: &mut GridPoint) -> bool {
    for d in (0..odometer.len()).rev() {
        odometer[d] += 1;
        if odometer[d] == lattice[d].len() {
            odometer[d] = 0;
        }
        cell.indices[d] = lattice[d][odometer[d]];
        if odometer[d] != 0 {
            return true;
        }
    }
    false
}

/// Both corner plans' costs at every cell of a region, in row-major order.
/// Neighbouring cells share their ±1 neighbours `2·d` ways, so filling this
/// once replaces `4·d` cost evaluations per cell by 2.
struct CellCosts {
    lo_plan: Vec<f64>,
    hi_plan: Vec<f64>,
    /// Row-major offset between neighbours along each dimension.
    step: Vec<usize>,
}

impl CellCosts {
    /// `lattice` must be the unstrided lattice of `region` (every cell).
    fn of<FLo, FHi>(
        region: &Region,
        lattice: &[Vec<usize>],
        cost_lo_plan: &FLo,
        cost_hi_plan: &FHi,
    ) -> Self
    where
        FLo: Fn(&GridPoint) -> f64,
        FHi: Fn(&GridPoint) -> f64,
    {
        let mut step = vec![1usize; lattice.len()];
        for d in (1..lattice.len()).rev() {
            step[d - 1] = step[d] * lattice[d].len();
        }
        let cells = region.cell_count();
        let mut costs = Self {
            lo_plan: Vec::with_capacity(cells),
            hi_plan: Vec::with_capacity(cells),
            step,
        };
        let mut cell = region.pnt_lo();
        let mut odometer = vec![0usize; lattice.len()];
        loop {
            costs.lo_plan.push(cost_lo_plan(&cell));
            costs.hi_plan.push(cost_hi_plan(&cell));
            if !advance(&mut odometer, lattice, &mut cell) {
                return costs;
            }
        }
    }

    /// Finite-difference slopes of the two plans along `dim` across
    /// `(below, above)` at `cell`, the `position`-th cell.
    fn slopes(
        &self,
        position: usize,
        cell: &GridPoint,
        dim: usize,
        (below, above): (usize, usize),
    ) -> (f64, f64) {
        let at = cell.indices[dim];
        let above_pos = position + (above - at) * self.step[dim];
        let below_pos = position - (at - below) * self.step[dim];
        let run = (above - below) as f64;
        (
            (self.lo_plan[above_pos] - self.lo_plan[below_pos]) / run,
            (self.hi_plan[above_pos] - self.hi_plan[below_pos]) / run,
        )
    }
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

    /// A quadratic cost surface whose slope grows along both axes.
    fn quadratic_cost(p: &GridPoint) -> f64 {
        let x = p.indices[0] as f64;
        let y = p.indices[1] as f64;
        x * x + y * y + x * y
    }

    #[test]
    fn distance_metrics() {
        let a = GridPoint::new(vec![0, 0]);
        let b = GridPoint::new(vec![3, 4]);
        assert_eq!(DistanceMetric::Manhattan.grid_distance(&a, &b), 7.0);
        assert!((DistanceMetric::Euclidean.grid_distance(&a, &b) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn assign_covers_whole_region() {
        let s = space_2d(9);
        let r = Region::full(&s);
        let w = WeightMap::assign(
            &s,
            &r,
            quadratic_cost,
            quadratic_cost,
            DistanceMetric::default(),
        );
        assert_eq!(w.len(), r.cell_count());
        assert!(!w.is_empty());
        // Every cell got a finite non-negative weight.
        for c in r.cells() {
            let v = w.get(&c);
            assert!(v.is_finite() && v >= 0.0);
        }
    }

    #[test]
    fn max_weight_point_prefers_high_slope_near_lo() {
        let s = space_2d(9);
        let r = Region::full(&s);
        let w = WeightMap::assign(
            &s,
            &r,
            quadratic_cost,
            quadratic_cost,
            DistanceMetric::default(),
        );
        let best = w.max_weight_point().unwrap();
        assert!(r.contains(&best));
        // The weight at the best point must be at least the weight elsewhere.
        for c in r.cells() {
            assert!(w.get(&best) >= w.get(&c));
        }
    }

    #[test]
    fn interior_point_avoids_hi_corner() {
        let s = space_2d(5);
        let r = Region::full(&s);
        let w = WeightMap::assign(
            &s,
            &r,
            quadratic_cost,
            quadratic_cost,
            DistanceMetric::default(),
        );
        let p = w.max_weight_interior_point(&r).unwrap();
        assert_ne!(p.indices, r.hi, "interior selection must not pick pntHi");
        assert!(r.contains(&p));
    }

    #[test]
    fn single_cell_region_falls_back() {
        let s = space_2d(5);
        let r = Region::new(vec![2, 2], vec![2, 2]);
        let w = WeightMap::assign(
            &s,
            &r,
            quadratic_cost,
            quadratic_cost,
            DistanceMetric::default(),
        );
        assert_eq!(w.len(), 1);
        assert_eq!(
            w.max_weight_interior_point(&r).unwrap(),
            GridPoint::new(vec![2, 2])
        );
    }

    #[test]
    fn min_of_two_plan_slopes_is_used() {
        let s = space_2d(5);
        let r = Region::full(&s);
        // One plan is completely flat: the min() should zero out all weights.
        let flat = |_: &GridPoint| 1.0;
        let w = WeightMap::assign(&s, &r, flat, quadratic_cost, DistanceMetric::default());
        for c in r.cells() {
            assert_eq!(w.get(&c), 0.0);
        }
    }

    /// §4.2 as written, one point and one dimension at a time: every slope
    /// from two fresh cost evaluations at cloned grid points, weights keyed
    /// by grid point in a sorted map.
    fn reference_weights(
        region: &Region,
        cost_lo_plan: fn(&GridPoint) -> f64,
        cost_hi_plan: fn(&GridPoint) -> f64,
        metric: DistanceMetric,
    ) -> std::collections::BTreeMap<GridPoint, f64> {
        let slope = |cell: &GridPoint, dim: usize, cost: fn(&GridPoint) -> f64| {
            let (lo, hi) = (region.lo[dim], region.hi[dim]);
            if hi == lo {
                return 0.0;
            }
            let mut below = cell.clone();
            below.indices[dim] = cell.indices[dim].max(lo + 1) - 1;
            let mut above = cell.clone();
            above.indices[dim] = (cell.indices[dim] + 1).min(hi);
            (cost(&above) - cost(&below)) / (above.indices[dim] - below.indices[dim]) as f64
        };
        let mut stride = 1;
        while region
            .lo
            .iter()
            .zip(&region.hi)
            .map(|(l, h)| (h - l) / stride + 1)
            .product::<usize>()
            > WeightMap::MAX_EXACT_CELLS
        {
            stride += 1;
        }
        let on_lattice = |cell: &GridPoint| {
            cell.indices
                .iter()
                .zip(region.lo.iter().zip(&region.hi))
                .all(|(x, (l, h))| (x - l) % stride == 0 || x == h)
        };
        let pnt_lo = region.pnt_lo();
        region
            .cells()
            .filter(on_lattice)
            .map(|cell| {
                let mut total = 0.0;
                for dim in 0..region.dims() {
                    let slope = slope(&cell, dim, cost_lo_plan)
                        .min(slope(&cell, dim, cost_hi_plan))
                        .abs();
                    let dist = (cell.indices[dim] - region.lo[dim]) as f64;
                    total += slope / dist.max(1.0);
                }
                let weight = total / (metric.grid_distance(&cell, &pnt_lo) + 1.0);
                (cell, weight)
            })
            .collect()
    }

    /// A second surface, steeper than `quadratic_cost` in places and flatter
    /// in others, so the `min` of the two slopes switches sides.
    fn ridge_cost(p: &GridPoint) -> f64 {
        let x = p.indices[0] as f64;
        let y = p.indices[1] as f64;
        40.0 * (x - 30.0).abs() + y * y * 0.7 + (x * y).sqrt()
    }

    #[test]
    fn assign_equals_the_pointwise_reference_bit_for_bit() {
        let s = space_2d(200);
        let regions = [
            // Every cell weighted: slopes come from the shared cost table.
            Region::new(vec![3, 5], vec![40, 60]),
            Region::new(vec![20, 20], vec![20, 70]),
            Region::new(vec![7, 7], vec![7, 7]),
            // More than MAX_EXACT_CELLS cells: sub-sampled with stride 2
            // (the second with the hi edge added along both axes) and 4.
            Region::new(vec![0, 0], vec![80, 60]),
            Region::new(vec![0, 1], vec![79, 78]),
            Region::full(&s),
        ];
        for metric in [DistanceMetric::Manhattan, DistanceMetric::Euclidean] {
            for region in &regions {
                let expected = reference_weights(region, quadratic_cost, ridge_cost, metric);
                let map = WeightMap::assign(&s, region, quadratic_cost, ridge_cost, metric);
                assert_eq!(map.len(), expected.len(), "{region}");
                for (cell, weight) in &expected {
                    assert_eq!(map.get(cell).to_bits(), weight.to_bits(), "{region} {cell}");
                }
                // The old selection: a `max_by` over the sorted map's entries.
                let by_weight_then_coords = |a: &(&GridPoint, &f64), b: &(&GridPoint, &f64)| {
                    a.1.partial_cmp(b.1)
                        .unwrap_or(Ordering::Equal)
                        .then_with(|| a.0.cmp(b.0))
                };
                let interior = expected
                    .iter()
                    .filter(|(p, _)| {
                        p.indices != region.hi
                            && (0..2)
                                .any(|d| region.hi[d] > region.lo[d] && p.indices[d] < region.hi[d])
                    })
                    .max_by(by_weight_then_coords)
                    .or_else(|| expected.iter().max_by(by_weight_then_coords))
                    .map(|(p, _)| p.clone());
                assert_eq!(map.max_weight_interior_point(region), interior, "{region}");
            }
        }
    }

    #[test]
    fn every_cell_is_costed_once_when_all_are_weighted() {
        use std::cell::Cell;
        let s = space_2d(81);
        let calls = Cell::new(0usize);
        let counted = |p: &GridPoint| {
            calls.set(calls.get() + 1);
            quadratic_cost(p)
        };
        let exact = Region::new(vec![0, 0], vec![63, 63]);
        WeightMap::assign(&s, &exact, counted, counted, DistanceMetric::default());
        assert_eq!(calls.get(), 2 * exact.cell_count());
        // A sub-sampled lattice's ±1 neighbours are not lattice points.
        calls.set(0);
        let map = WeightMap::assign(
            &s,
            &Region::full(&s),
            counted,
            counted,
            DistanceMetric::default(),
        );
        assert_eq!(calls.get(), 2 * 2 * 2 * map.len());
    }

    #[test]
    fn merge_extends_map() {
        let s = space_2d(5);
        let left = Region::new(vec![0, 0], vec![4, 1]);
        let right = Region::new(vec![0, 2], vec![4, 4]);
        let mut w = WeightMap::assign(
            &s,
            &left,
            quadratic_cost,
            quadratic_cost,
            DistanceMetric::default(),
        );
        let w2 = WeightMap::assign(
            &s,
            &right,
            quadratic_cost,
            quadratic_cost,
            DistanceMetric::default(),
        );
        let before = w.len();
        w.merge(w2);
        assert_eq!(w.len(), before + right.cell_count());
    }

    #[test]
    fn unknown_point_has_zero_weight() {
        let w = WeightMap::default();
        assert_eq!(w.get(&GridPoint::new(vec![0, 0])), 0.0);
        assert!(w.max_weight_point().is_none());
    }
}
