//! Geometric (cell-free) region algebra.
//!
//! The partitioning algorithms and the physical planner constantly need the
//! *union volume* of a set of possibly overlapping regions — the paper's
//! "parameter space coverage". The seed implementation enumerated every grid
//! cell into a hash set, which is exact but `O(n^d)`: it collapses the moment
//! the space grows past a toy dimensionality (a 6-dimensional 15-step space
//! already has 11 million cells).
//!
//! [`RegionSet`] instead maintains a **disjoint box decomposition**: every
//! inserted region is carved against the boxes already present (axis-aligned
//! [`Region::subtract`], which produces at most `2·d` disjoint remainder
//! boxes), so the set always holds pairwise-disjoint hyper-rectangles whose
//! union is exactly the union of everything inserted. Union volume is then a
//! plain sum of corner-product volumes, intersection and subtraction are
//! box-by-box corner operations, and occurrence probability is a sum of
//! per-box separable products — all independent of the grid resolution.
//!
//! An insertion visits every box present, `O(boxes · d)` corner comparisons,
//! but the region sets produced by WRP/ERP are mostly disjoint by
//! construction (partitioning yields disjoint sub-spaces): the decomposition
//! stays close to the input size, and [`RegionSet::insert`] allocates only
//! for the few boxes the inserted region really overlaps. `Region::cells()`
//! remains available for the exhaustive baseline and for tests that compare
//! against cell-enumeration ground truth.

use crate::occurrence::OccurrenceModel;
use crate::region::Region;
use crate::space::{GridPoint, ParameterSpace};

/// A union of axis-aligned grid regions, stored as pairwise-disjoint boxes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegionSet {
    boxes: Vec<Region>,
}

impl RegionSet {
    /// The empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a set from (possibly overlapping) regions.
    pub fn from_regions<'a>(regions: impl IntoIterator<Item = &'a Region>) -> Self {
        let mut set = Self::new();
        for r in regions {
            set.insert(r);
        }
        set
    }

    /// The disjoint boxes, in insertion-derived order.
    pub fn boxes(&self) -> &[Region] {
        &self.boxes
    }

    /// Whether the set covers no cells.
    pub fn is_empty(&self) -> bool {
        self.boxes.is_empty()
    }

    /// Number of disjoint boxes in the decomposition.
    pub fn num_boxes(&self) -> usize {
        self.boxes.len()
    }

    /// Insert a region: only the part of `region` not already covered is
    /// added, keeping the boxes pairwise disjoint.
    pub fn insert(&mut self, region: &Region) {
        let mut fresh = vec![region.clone()];
        let mut carved = Vec::new();
        for existing in &self.boxes {
            if fresh.is_empty() {
                return;
            }
            // Almost every pair is disjoint (see the module docs): those
            // leave `fresh` as it is, without touching the allocator.
            if !fresh.iter().any(|part| part.overlaps(existing)) {
                continue;
            }
            for part in fresh.drain(..) {
                if part.overlaps(existing) {
                    carved.extend(part.subtract(existing));
                } else {
                    carved.push(part);
                }
            }
            std::mem::swap(&mut fresh, &mut carved);
        }
        self.boxes.extend(fresh);
    }

    /// Exact number of grid cells covered (each counted once), computed from
    /// box corners — no cell enumeration, no overflow.
    pub fn volume(&self) -> u128 {
        self.boxes.iter().map(Region::volume).sum()
    }

    /// The covered volume as an `f64` (for fractions over huge spaces).
    pub fn volume_f64(&self) -> f64 {
        self.boxes.iter().map(Region::volume_f64).sum()
    }

    /// Whether a grid point lies inside the union.
    pub fn contains(&self, p: &GridPoint) -> bool {
        self.boxes.iter().any(|b| b.contains(p))
    }

    /// Union with another set.
    pub fn union(&self, other: &RegionSet) -> RegionSet {
        let mut out = self.clone();
        for b in &other.boxes {
            out.insert(b);
        }
        out
    }

    /// Intersection with another set (box-pairwise corner intersection; the
    /// results are disjoint because both inputs are).
    pub fn intersect(&self, other: &RegionSet) -> RegionSet {
        let mut out = RegionSet::new();
        for a in &self.boxes {
            for b in &other.boxes {
                if let Some(c) = a.intersect(b) {
                    out.boxes.push(c);
                }
            }
        }
        out
    }

    /// The part of `self` not covered by `other`.
    pub fn subtract(&self, other: &RegionSet) -> RegionSet {
        let mut out = RegionSet::new();
        for a in &self.boxes {
            let mut parts = vec![a.clone()];
            for b in &other.boxes {
                if parts.is_empty() {
                    break;
                }
                let mut next = Vec::with_capacity(parts.len());
                for p in parts {
                    next.extend(p.subtract(b));
                }
                parts = next;
            }
            out.boxes.extend(parts);
        }
        out
    }

    /// Fraction of the space's cells covered by the union.
    pub fn coverage_fraction(&self, space: &ParameterSpace) -> f64 {
        let total = space.total_cells_f64();
        if total <= 0.0 {
            return 0.0;
        }
        self.volume_f64() / total
    }

    /// Probability that runtime statistics fall inside the union under the
    /// occurrence model (§5.2) — the plan *weight*. Sums the separable
    /// per-box probabilities of the disjoint decomposition, so no cell is
    /// double counted and no cell is ever enumerated.
    pub fn probability(&self, space: &ParameterSpace, model: OccurrenceModel) -> f64 {
        self.boxes
            .iter()
            .map(|b| model.region_probability(space, b))
            .sum()
    }
}

impl From<&[Region]> for RegionSet {
    fn from(regions: &[Region]) -> Self {
        Self::from_regions(regions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::union_cell_count;

    fn r(lo: &[usize], hi: &[usize]) -> Region {
        Region::new(lo.to_vec(), hi.to_vec())
    }

    /// Ground truth by cell enumeration (the representation this module removes
    /// from the production path, kept here as the oracle).
    fn enumerated(regions: &[Region]) -> std::collections::HashSet<GridPoint> {
        let mut cells = std::collections::HashSet::new();
        for region in regions {
            for c in region.cells() {
                cells.insert(c);
            }
        }
        cells
    }

    #[test]
    fn union_volume_matches_cell_enumeration() {
        let regions = [
            r(&[0, 0], &[4, 4]),
            r(&[2, 2], &[6, 6]),
            r(&[5, 0], &[7, 3]),
            r(&[0, 0], &[1, 1]),
        ];
        let set = RegionSet::from_regions(&regions);
        assert_eq!(set.volume(), enumerated(&regions).len() as u128);
        assert_eq!(union_cell_count(&regions), enumerated(&regions).len());
    }

    #[test]
    fn disjoint_boxes_are_pairwise_disjoint() {
        let regions = [
            r(&[0, 0], &[5, 5]),
            r(&[3, 3], &[8, 8]),
            r(&[0, 4], &[8, 6]),
        ];
        let set = RegionSet::from_regions(&regions);
        for i in 0..set.num_boxes() {
            for j in (i + 1)..set.num_boxes() {
                assert!(
                    !set.boxes()[i].overlaps(&set.boxes()[j]),
                    "{} overlaps {}",
                    set.boxes()[i],
                    set.boxes()[j]
                );
            }
        }
    }

    #[test]
    fn intersect_and_subtract_match_enumeration() {
        let a = [r(&[0, 0], &[5, 5]), r(&[6, 6], &[8, 8])];
        let b = [r(&[3, 3], &[7, 7])];
        let sa = RegionSet::from_regions(&a);
        let sb = RegionSet::from_regions(&b);
        let ea = enumerated(&a);
        let eb = enumerated(&b);
        let inter: std::collections::HashSet<_> = ea.intersection(&eb).cloned().collect();
        let diff: std::collections::HashSet<_> = ea.difference(&eb).cloned().collect();
        assert_eq!(sa.intersect(&sb).volume(), inter.len() as u128);
        assert_eq!(sa.subtract(&sb).volume(), diff.len() as u128);
        let uni: std::collections::HashSet<_> = ea.union(&eb).cloned().collect();
        assert_eq!(sa.union(&sb).volume(), uni.len() as u128);
    }

    #[test]
    fn containment_agrees_with_member_regions() {
        let regions = [r(&[0, 0], &[2, 2]), r(&[4, 4], &[6, 6])];
        let set = RegionSet::from_regions(&regions);
        assert!(set.contains(&GridPoint::new(vec![1, 1])));
        assert!(set.contains(&GridPoint::new(vec![5, 6])));
        assert!(!set.contains(&GridPoint::new(vec![3, 3])));
    }

    #[test]
    fn wrp_shaped_input_matches_cell_enumeration() {
        // What a WRP solution hands to `from_regions`: a hierarchical
        // partition (here with some leaves withheld, so the union is not
        // simply the space) interleaved with the single-cell corners of
        // every sub-space examined on the way down.
        let mut state = 0x5EED_u64;
        let mut next = move |bound: usize| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % bound as u64) as usize
        };
        let mut regions = Vec::new();
        let mut queue = std::collections::VecDeque::from([r(&[0, 0, 0], &[15, 15, 15])]);
        while let Some(region) = queue.pop_front() {
            regions.push(r(&region.lo, &region.lo));
            regions.push(r(&region.hi, &region.hi));
            if region.cell_count() <= 8 {
                if next(5) != 0 {
                    regions.push(region);
                }
                continue;
            }
            let at = GridPoint::new(
                region
                    .lo
                    .iter()
                    .zip(&region.hi)
                    .map(|(l, h)| l + next(h - l + 1))
                    .collect(),
            );
            let parts = region.split_at(&at);
            if parts.len() == 1 {
                queue.extend(region.bisect());
            } else {
                queue.extend(parts);
            }
        }
        assert!(regions.len() >= 1000, "only {} regions", regions.len());
        let set = RegionSet::from_regions(&regions);
        let cells = enumerated(&regions).len() as u128;
        assert!(cells < 16 * 16 * 16, "some leaves must stay uncovered");
        assert_eq!(set.volume(), cells);
        for (i, a) in set.boxes().iter().enumerate() {
            for b in &set.boxes()[i + 1..] {
                assert!(!a.overlaps(b), "{a} overlaps {b}");
            }
        }
    }

    #[test]
    fn empty_set_behaviour() {
        let set = RegionSet::new();
        assert!(set.is_empty());
        assert_eq!(set.volume(), 0);
        assert!(!set.contains(&GridPoint::new(vec![0, 0])));
        let other = RegionSet::from_regions(&[r(&[0], &[3])]);
        assert_eq!(set.union(&other).volume(), 4);
        assert_eq!(set.intersect(&other).volume(), 0);
        assert_eq!(other.subtract(&set).volume(), 4);
    }

    #[test]
    fn high_dimensional_volume_does_not_overflow() {
        // A 10-dimensional box with 2^16 cells per dimension: 2^160 cells,
        // far beyond usize. The f64 volume must still be finite and the u128
        // path must not panic for a (large but representable) 7-dim case.
        let seven = r(&[0; 7], &[(1 << 16) - 1; 7]);
        let set = RegionSet::from_regions(&[seven]);
        assert_eq!(set.volume(), 1u128 << 112);
        assert!(set.volume_f64().is_finite());
    }

    #[test]
    fn duplicate_insertion_is_idempotent() {
        let region = r(&[1, 1], &[4, 4]);
        let mut set = RegionSet::new();
        set.insert(&region);
        set.insert(&region);
        assert_eq!(set.volume(), 16);
        assert_eq!(set.num_boxes(), 1);
    }
}
