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
//! are supplied as closures that cost a plan over a grid of points at once,
//! so that this crate does not depend on the query/cost-model crate.

use crate::region::Region;
use crate::space::GridPoint;
use rld_common::Result;
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
    pub(crate) fn grid_distance(&self, a: &GridPoint, b: &GridPoint) -> f64 {
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
    /// dimension). On a sub-sampled lattice each corner plan is costed at
    /// the ±1 neighbours of every lattice point along every non-flat
    /// dimension — up to `2·d` points per lattice point — so without the cap
    /// the weight assignment of a wide region would dwarf the optimizer
    /// calls it is meant to save (§4.2).
    pub(crate) const MAX_EXACT_CELLS: usize = 4096;

    /// Assign weights to every grid point of `region`.
    ///
    /// `cost_lo_plan` and `cost_hi_plan` cost the optimal plans at the
    /// region's `pntLo` and `pntHi` corners, respectively, over a grid: given
    /// one sorted index list per dimension, they return the plan's cost at
    /// every point of the lists' tensor product, in row-major order (the last
    /// dimension fastest). Slopes are estimated with central finite
    /// differences on the grid, one-sided at the region's edges. Regions with
    /// more than `WeightMap::MAX_EXACT_CELLS` cells are weighted on a
    /// sub-sampled lattice.
    ///
    /// When every cell is weighted, each cost function is asked for one
    /// table, the region itself: the ±1 neighbours the slopes need are cells
    /// too. On a sub-sampled lattice it is asked for one table per non-flat
    /// dimension — the lattice with that dimension's indices replaced by
    /// their ±1 neighbours, each once (at stride 2 neighbouring lattice
    /// points share one). Fails with the first error a cost function
    /// returns.
    pub fn assign<FLo, FHi>(
        region: &Region,
        cost_lo_plan: FLo,
        cost_hi_plan: FHi,
        metric: DistanceMetric,
    ) -> Result<Self>
    where
        FLo: Fn(&[Vec<usize>]) -> Result<Vec<f64>>,
        FHi: Fn(&[Vec<usize>]) -> Result<Vec<f64>>,
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
        let costs = SlopeTables::of(region, &lattice, stride, &cost_lo_plan, &cost_hi_plan)?;
        // Σ_dim slope / dist per lattice point, one dimension at a time; a
        // flat dimension's term is +0.0, which leaves every total as it is.
        let points: usize = lattice.iter().map(Vec::len).product();
        let mut totals = vec![0.0; points];
        for dim in 0..lattice.len() {
            costs.accumulate(dim, region, &lattice, &mut totals);
        }
        let mut map = Self::with_capacity(lattice.len(), points);
        let pnt_lo = region.pnt_lo();
        let mut cell = region.pnt_lo();
        let mut odometer = vec![0usize; lattice.len()];
        for total in totals {
            // Normalize by overall distance so the chosen metric matters for
            // multi-dimensional spaces; add 1 to avoid division by zero at pntLo.
            let overall = metric.grid_distance(&cell, &pnt_lo) + 1.0;
            map.push(&cell.indices, total / overall);
            advance(&mut odometer, &lattice, &mut cell);
        }
        Ok(map)
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
}

/// Both corner plans' costs on the grids the slopes read: one table for the
/// whole region when every cell is weighted, otherwise one per non-flat
/// dimension.
struct SlopeTables {
    lo_plan: Vec<Vec<f64>>,
    hi_plan: Vec<Vec<f64>>,
    /// Per dimension; `None` where the region is flat and the slope is 0.
    axes: Vec<Option<AxisSlopes>>,
}

/// Where one dimension's finite differences read their table.
struct AxisSlopes {
    /// Index of the table in [`SlopeTables`].
    table: usize,
    /// Length of the table's axis along the dimension.
    len: usize,
    /// Per lattice position along the dimension: the positions along the
    /// table's axis of its clamped ±1 neighbours (one-sided at the region's
    /// edges) and `1 / (above − below)`. The run is 1 or 2, so multiplying
    /// by its reciprocal is exactly dividing by it.
    spans: Vec<(usize, usize, f64)>,
}

impl SlopeTables {
    fn of<FLo, FHi>(
        region: &Region,
        lattice: &[Vec<usize>],
        stride: usize,
        cost_lo_plan: &FLo,
        cost_hi_plan: &FHi,
    ) -> Result<Self>
    where
        FLo: Fn(&[Vec<usize>]) -> Result<Vec<f64>>,
        FHi: Fn(&[Vec<usize>]) -> Result<Vec<f64>>,
    {
        let mut tables = Self {
            lo_plan: Vec::new(),
            hi_plan: Vec::new(),
            axes: Vec::with_capacity(lattice.len()),
        };
        for (d, axis) in lattice.iter().enumerate() {
            let (lo, hi) = (region.lo[d], region.hi[d]);
            if lo == hi {
                tables.axes.push(None);
                continue;
            }
            let span = |x: usize| (x.max(lo + 1) - 1, (x + 1).min(hi));
            // The table's axis: the neighbours, each once, in order. With
            // every cell weighted that is the lattice's axis, and the one
            // table over the region serves every dimension.
            let neighbours = if stride == 1 {
                if tables.lo_plan.is_empty() {
                    tables.lo_plan.push(cost_lo_plan(lattice)?);
                    tables.hi_plan.push(cost_hi_plan(lattice)?);
                }
                axis.clone()
            } else {
                let mut neighbours: Vec<usize> = axis
                    .iter()
                    .flat_map(|x| {
                        let (below, above) = span(*x);
                        [below, above]
                    })
                    .collect();
                neighbours.sort_unstable();
                neighbours.dedup();
                let mut grid = lattice.to_vec();
                grid[d] = neighbours;
                tables.lo_plan.push(cost_lo_plan(&grid)?);
                tables.hi_plan.push(cost_hi_plan(&grid)?);
                grid.swap_remove(d)
            };
            let at = |n: usize| neighbours.binary_search(&n).expect("a listed neighbour");
            let spans = axis
                .iter()
                .map(|x| {
                    let (below, above) = span(*x);
                    (at(below), at(above), 1.0 / (above - below) as f64)
                })
                .collect();
            tables.axes.push(Some(AxisSlopes {
                table: tables.lo_plan.len() - 1,
                len: neighbours.len(),
                spans,
            }));
        }
        Ok(tables)
    }

    /// Add `min(slope_lo, slope_hi).abs() / dist` along `dim` to the total of
    /// every lattice point (row-major, last dimension fastest), where `dist`
    /// is the point's distance from `pntLo` along `dim`, at least 1. Adds
    /// nothing along a flat dimension.
    fn accumulate(&self, dim: usize, region: &Region, lattice: &[Vec<usize>], totals: &mut [f64]) {
        let Some(axis) = &self.axes[dim] else {
            return;
        };
        let (lo_plan, hi_plan) = (&self.lo_plan[axis.table], &self.hi_plan[axis.table]);
        // Points per step along `dim`, in the lattice and in the table.
        let inner: usize = lattice[dim + 1..].iter().map(Vec::len).product();
        let rows = totals.chunks_exact_mut(lattice[dim].len() * inner);
        for (block, row) in rows.enumerate() {
            let base = block * axis.len * inner;
            let along = row.chunks_exact_mut(inner).zip(&axis.spans);
            for ((out, (below, above, inv_run)), x) in along.zip(&lattice[dim]) {
                let dist = (x.abs_diff(region.lo[dim]) as f64).max(1.0);
                let (below, above) = (base + below * inner, base + above * inner);
                let lo = lo_plan[above..above + inner]
                    .iter()
                    .zip(&lo_plan[below..below + inner]);
                let hi = hi_plan[above..above + inner]
                    .iter()
                    .zip(&hi_plan[below..below + inner]);
                for ((total, (lo_above, lo_below)), (hi_above, hi_below)) in
                    out.iter_mut().zip(lo).zip(hi)
                {
                    let slope_lo = (lo_above - lo_below) * inv_run;
                    let slope_hi = (hi_above - hi_below) * inv_run;
                    *total += slope_lo.min(slope_hi).abs() / dist;
                }
            }
        }
    }
}

/// Move `cell` to the next lattice point (last dimension fastest), back to
/// the first after the last.
fn advance(odometer: &mut [usize], lattice: &[Vec<usize>], cell: &mut GridPoint) {
    for d in (0..odometer.len()).rev() {
        odometer[d] += 1;
        if odometer[d] == lattice[d].len() {
            odometer[d] = 0;
        }
        cell.indices[d] = lattice[d][odometer[d]];
        if odometer[d] != 0 {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::ParameterSpace;
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

    /// A table-producing cost function from a pointwise one: `cost` at every
    /// point of the grid, in row-major order.
    fn pointwise(cost: impl Fn(&GridPoint) -> f64) -> impl Fn(&[Vec<usize>]) -> Result<Vec<f64>> {
        move |grid| {
            let mut table = Vec::new();
            let mut odometer = vec![0usize; grid.len()];
            loop {
                let point = odometer.iter().zip(grid).map(|(i, axis)| axis[*i]);
                table.push(cost(&GridPoint::new(point.collect())));
                let Some(d) = (0..grid.len())
                    .rev()
                    .find(|&d| odometer[d] + 1 < grid[d].len())
                else {
                    return Ok(table);
                };
                odometer[d] += 1;
                odometer[d + 1..].fill(0);
            }
        }
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
            &r,
            pointwise(quadratic_cost),
            pointwise(quadratic_cost),
            DistanceMetric::default(),
        )
        .unwrap();
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
            &r,
            pointwise(quadratic_cost),
            pointwise(quadratic_cost),
            DistanceMetric::default(),
        )
        .unwrap();
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
            &r,
            pointwise(quadratic_cost),
            pointwise(quadratic_cost),
            DistanceMetric::default(),
        )
        .unwrap();
        let p = w.max_weight_interior_point(&r).unwrap();
        assert_ne!(p.indices, r.hi, "interior selection must not pick pntHi");
        assert!(r.contains(&p));
    }

    #[test]
    fn single_cell_region_falls_back() {
        let r = Region::new(vec![2, 2], vec![2, 2]);
        let w = WeightMap::assign(
            &r,
            pointwise(quadratic_cost),
            pointwise(quadratic_cost),
            DistanceMetric::default(),
        )
        .unwrap();
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
        let w = WeightMap::assign(
            &r,
            pointwise(flat),
            pointwise(quadratic_cost),
            DistanceMetric::default(),
        )
        .unwrap();
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
                let map = WeightMap::assign(
                    region,
                    pointwise(quadratic_cost),
                    pointwise(ridge_cost),
                    metric,
                )
                .unwrap();
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
        let counted = pointwise(|p: &GridPoint| {
            calls.set(calls.get() + 1);
            quadratic_cost(p)
        });
        let exact = Region::new(vec![0, 0], vec![63, 63]);
        WeightMap::assign(&exact, &counted, &counted, DistanceMetric::default()).unwrap();
        assert_eq!(calls.get(), 2 * exact.cell_count());
        // The full 81×81 region is weighted on the stride-2 lattice
        // {0, 2, …, 80}² (41² = 1,681 points). Its ±1 neighbours along an axis
        // are {0, 1, 3, …, 79, 80}: 42 indices, each shared by two adjacent
        // lattice points. So each plan costs one 42×41 table per dimension:
        // 2 plans × 2 dimensions × 1,722 = 6,888 evaluations.
        calls.set(0);
        let map = WeightMap::assign(
            &Region::full(&s),
            &counted,
            &counted,
            DistanceMetric::default(),
        )
        .unwrap();
        assert_eq!(map.len(), 41 * 41);
        assert_eq!(calls.get(), 6_888);
    }

    #[test]
    fn a_failing_cost_function_fails_the_assignment() {
        let s = space_2d(9);
        let failing = |_: &[Vec<usize>]| -> Result<Vec<f64>> {
            Err(rld_common::RldError::Runtime("no cost".into()))
        };
        let r = Region::full(&s);
        let metric = DistanceMetric::default();
        assert!(WeightMap::assign(&r, pointwise(quadratic_cost), failing, metric).is_err());
        assert!(WeightMap::assign(&r, failing, pointwise(quadratic_cost), metric).is_err());
    }

    #[test]
    fn unknown_point_has_zero_weight() {
        let w = WeightMap::default();
        assert_eq!(w.get(&GridPoint::new(vec![0, 0])), 0.0);
        assert!(w.max_weight_point().is_none());
    }
}
