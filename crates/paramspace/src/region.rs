//! Axis-aligned sub-spaces (regions) of the parameter space.
//!
//! The partitioning algorithms of §4 recursively split the space into
//! hyper-rectangular sub-spaces; each robust logical plan ends up associated
//! with the set of regions where it is ε-robust (its *robust region*,
//! Definition 2). A [`Region`] is expressed in grid-index coordinates with
//! inclusive corners.

use crate::space::{GridPoint, ParameterSpace};
use std::fmt;

/// An axis-aligned hyper-rectangle of grid cells, with inclusive corners.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Region {
    /// Bottom-left corner (inclusive), grid indices per dimension.
    pub lo: Vec<usize>,
    /// Top-right corner (inclusive), grid indices per dimension.
    pub hi: Vec<usize>,
}

impl Region {
    /// Create a region from inclusive corners.
    ///
    /// # Panics
    /// Panics if the corners have different dimensionality or any `lo > hi`.
    pub fn new(lo: Vec<usize>, hi: Vec<usize>) -> Self {
        assert_eq!(lo.len(), hi.len(), "corner dimensionality mismatch");
        assert!(
            lo.iter().zip(&hi).all(|(l, h)| l <= h),
            "region lo must not exceed hi"
        );
        Self { lo, hi }
    }

    /// The region covering an entire parameter space.
    pub fn full(space: &ParameterSpace) -> Self {
        Self::new(space.pnt_lo().indices, space.pnt_hi().indices)
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.lo.len()
    }

    /// The bottom-left corner `pntLo` as a grid point.
    pub fn pnt_lo(&self) -> GridPoint {
        GridPoint::new(self.lo.clone())
    }

    /// The top-right corner `pntHi` as a grid point.
    pub fn pnt_hi(&self) -> GridPoint {
        GridPoint::new(self.hi.clone())
    }

    /// Exact number of grid cells contained in the region. Computed in
    /// `u128` so high-dimensional / fine-grained regions cannot overflow.
    pub fn volume(&self) -> u128 {
        self.lo
            .iter()
            .zip(&self.hi)
            .map(|(l, h)| (h - l + 1) as u128)
            .product()
    }

    /// The region's volume as an `f64` (for area fractions over spaces whose
    /// cell count exceeds even `u128`).
    pub fn volume_f64(&self) -> f64 {
        self.lo
            .iter()
            .zip(&self.hi)
            .map(|(l, h)| (h - l + 1) as f64)
            .product()
    }

    /// Number of grid cells contained in the region, saturated at
    /// `usize::MAX` when the true volume does not fit (use [`Region::volume`]
    /// when the exact count of a huge region matters).
    pub fn cell_count(&self) -> usize {
        usize::try_from(self.volume()).unwrap_or(usize::MAX)
    }

    /// The fraction of the whole space's cells covered by this region.
    pub fn area_fraction(&self, space: &ParameterSpace) -> f64 {
        self.volume_f64() / space.total_cells_f64()
    }

    /// Whether the region degenerates to a single grid cell.
    pub fn is_single_cell(&self) -> bool {
        self.lo == self.hi
    }

    /// Whether a grid point lies inside the region (inclusive).
    pub fn contains(&self, p: &GridPoint) -> bool {
        p.dims() == self.dims()
            && p.indices
                .iter()
                .zip(self.lo.iter().zip(&self.hi))
                .all(|(x, (l, h))| x >= l && x <= h)
    }

    /// Whether two regions share at least one grid cell.
    pub fn overlaps(&self, other: &Region) -> bool {
        self.dims() == other.dims()
            && self
                .lo
                .iter()
                .zip(&self.hi)
                .zip(other.lo.iter().zip(&other.hi))
                .all(|((al, ah), (bl, bh))| al <= bh && bl <= ah)
    }

    /// The grid point at the centre of the region (rounded down).
    pub fn centre(&self) -> GridPoint {
        GridPoint::new(
            self.lo
                .iter()
                .zip(&self.hi)
                .map(|(l, h)| l + (h - l) / 2)
                .collect(),
        )
    }

    /// Iterate over every grid cell in the region in row-major order.
    pub fn cells(&self) -> RegionCellIter {
        RegionCellIter {
            lo: self.lo.clone(),
            hi: self.hi.clone(),
            next: Some(self.lo.clone()),
        }
    }

    /// Split the region at a partition point into up to `2^d` sub-regions.
    ///
    /// The partition point must lie inside the region. Along each dimension
    /// the cells are divided into `[lo, p]` and `[p+1, hi]`; dimensions where
    /// the partition point equals `hi` produce only the lower interval, so a
    /// single-cell region returns just itself. The sub-regions are disjoint
    /// and their union is the original region.
    pub fn split_at(&self, p: &GridPoint) -> Vec<Region> {
        assert!(self.contains(p), "partition point must lie inside region");
        // Per-dimension interval choices.
        let mut interval_sets: Vec<Vec<(usize, usize)>> = Vec::with_capacity(self.dims());
        for i in 0..self.dims() {
            let mut intervals = vec![(self.lo[i], p.indices[i])];
            if p.indices[i] < self.hi[i] {
                intervals.push((p.indices[i] + 1, self.hi[i]));
            }
            interval_sets.push(intervals);
        }
        // Cartesian product of the interval choices.
        let mut result = vec![Region::new(self.lo.clone(), self.lo.clone())];
        result.clear();
        let mut stack: Vec<(Vec<usize>, Vec<usize>)> = vec![(Vec::new(), Vec::new())];
        for intervals in &interval_sets {
            let mut next_stack = Vec::with_capacity(stack.len() * intervals.len());
            for (lo_acc, hi_acc) in &stack {
                for (l, h) in intervals {
                    let mut lo = lo_acc.clone();
                    let mut hi = hi_acc.clone();
                    lo.push(*l);
                    hi.push(*h);
                    next_stack.push((lo, hi));
                }
            }
            stack = next_stack;
        }
        for (lo, hi) in stack {
            result.push(Region::new(lo, hi));
        }
        result
    }

    /// Split the region in half along its widest dimension. Returns the two
    /// halves, or just the region itself if it is a single cell.
    pub fn bisect(&self) -> Vec<Region> {
        if self.is_single_cell() {
            return vec![self.clone()];
        }
        let (dim, _) = self
            .lo
            .iter()
            .zip(&self.hi)
            .map(|(l, h)| h - l)
            .enumerate()
            .max_by_key(|(_, w)| *w)
            .expect("non-empty region");
        let mid = self.lo[dim] + (self.hi[dim] - self.lo[dim]) / 2;
        let mut lo_hi = self.hi.clone();
        lo_hi[dim] = mid;
        let mut hi_lo = self.lo.clone();
        hi_lo[dim] = mid + 1;
        vec![
            Region::new(self.lo.clone(), lo_hi),
            Region::new(hi_lo, self.hi.clone()),
        ]
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} .. {}",
            GridPoint::new(self.lo.clone()),
            GridPoint::new(self.hi.clone())
        )
    }
}

/// Row-major iterator over the grid cells of a region.
#[derive(Debug, Clone)]
pub struct RegionCellIter {
    lo: Vec<usize>,
    hi: Vec<usize>,
    next: Option<Vec<usize>>,
}

impl Iterator for RegionCellIter {
    type Item = GridPoint;

    fn next(&mut self) -> Option<Self::Item> {
        let current = self.next.take()?;
        let result = GridPoint::new(current.clone());
        let mut idx = current;
        for i in (0..self.lo.len()).rev() {
            idx[i] += 1;
            if idx[i] <= self.hi[i] {
                self.next = Some(idx);
                return Some(result);
            }
            idx[i] = self.lo[i];
        }
        self.next = None;
        Some(result)
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
                UncertaintyLevel::new(2),
            ),
            StatisticEstimate::new(
                StatKey::Selectivity(OperatorId::new(1)),
                0.5,
                UncertaintyLevel::new(2),
            ),
        ];
        ParameterSpace::from_estimates(&estimates, StatsSnapshot::new(), steps).unwrap()
    }

    #[test]
    fn full_region_covers_space() {
        let s = space_2d(9);
        let r = Region::full(&s);
        assert_eq!(r.cell_count(), 81);
        assert!((r.area_fraction(&s) - 1.0).abs() < 1e-12);
        assert!(r.contains(&s.pnt_lo()));
        assert!(r.contains(&s.pnt_hi()));
    }

    #[test]
    fn containment_and_overlap() {
        let a = Region::new(vec![0, 0], vec![3, 3]);
        let b = Region::new(vec![3, 3], vec![5, 5]);
        let c = Region::new(vec![4, 4], vec![5, 5]);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert!(a.contains(&GridPoint::new(vec![2, 3])));
        assert!(!a.contains(&GridPoint::new(vec![2, 4])));
        assert!(!a.contains(&GridPoint::new(vec![2])));
    }

    #[test]
    fn split_at_produces_disjoint_cover() {
        let r = Region::new(vec![0, 0], vec![7, 7]);
        let parts = r.split_at(&GridPoint::new(vec![3, 5]));
        assert_eq!(parts.len(), 4);
        let total: usize = parts.iter().map(Region::cell_count).sum();
        assert_eq!(total, r.cell_count());
        // pairwise disjoint
        for i in 0..parts.len() {
            for j in (i + 1)..parts.len() {
                assert!(
                    !parts[i].overlaps(&parts[j]),
                    "{} overlaps {}",
                    parts[i],
                    parts[j]
                );
            }
        }
    }

    #[test]
    fn split_at_corner_produces_fewer_parts() {
        let r = Region::new(vec![0, 0], vec![7, 7]);
        // Partition at the hi corner only gives the region itself.
        let parts = r.split_at(&GridPoint::new(vec![7, 7]));
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0], r);
        // Partition at hi in one dim only gives 2 parts.
        let parts = r.split_at(&GridPoint::new(vec![3, 7]));
        assert_eq!(parts.len(), 2);
    }

    #[test]
    fn single_cell_region() {
        let r = Region::new(vec![2, 2], vec![2, 2]);
        assert!(r.is_single_cell());
        assert_eq!(r.cell_count(), 1);
        assert_eq!(r.split_at(&GridPoint::new(vec![2, 2])).len(), 1);
        assert_eq!(r.bisect().len(), 1);
        assert_eq!(r.cells().count(), 1);
    }

    #[test]
    fn bisect_halves_widest_dim() {
        let r = Region::new(vec![0, 0], vec![7, 3]);
        let halves = r.bisect();
        assert_eq!(halves.len(), 2);
        assert_eq!(
            halves[0].cell_count() + halves[1].cell_count(),
            r.cell_count()
        );
        assert!(!halves[0].overlaps(&halves[1]));
        // split happened along dim 0 (the widest)
        assert_eq!(halves[0].hi[1], 3);
        assert_eq!(halves[1].lo[1], 0);
    }

    #[test]
    fn cells_iterate_row_major_exactly_once() {
        let r = Region::new(vec![1, 2], vec![2, 4]);
        let cells: Vec<_> = r.cells().collect();
        assert_eq!(cells.len(), 6);
        let unique: std::collections::HashSet<_> = cells.iter().cloned().collect();
        assert_eq!(unique.len(), 6);
        assert_eq!(cells[0], GridPoint::new(vec![1, 2]));
        assert_eq!(cells[5], GridPoint::new(vec![2, 4]));
    }

    #[test]
    fn volume_does_not_overflow_usize() {
        // 5 dimensions × 2^16 steps = 2^80 cells: overflows a 64-bit usize
        // product but must stay exact in u128 and saturate in cell_count.
        let r = Region::new(vec![0; 5], vec![(1 << 16) - 1; 5]);
        assert_eq!(r.volume(), 1u128 << 80);
        assert_eq!(r.cell_count(), usize::MAX);
        assert!((r.volume_f64() - (1u128 << 80) as f64).abs() < 1e60);
    }

    #[test]
    fn centre_is_inside() {
        let r = Region::new(vec![0, 3], vec![5, 9]);
        assert!(r.contains(&r.centre()));
    }

    #[test]
    #[should_panic(expected = "region lo must not exceed hi")]
    fn invalid_corners_panic() {
        Region::new(vec![3], vec![1]);
    }

    #[test]
    #[should_panic(expected = "partition point must lie inside region")]
    fn split_outside_panics() {
        Region::new(vec![0, 0], vec![2, 2]).split_at(&GridPoint::new(vec![5, 5]));
    }
}
