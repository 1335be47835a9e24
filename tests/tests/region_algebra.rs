//! Property tests for the geometric region algebra: the corner-based
//! (cell-free) computations must agree with cell-enumeration ground truth on
//! random region sets.

use proptest::prelude::*;
use rld_core::paramspace::{GridPoint, RegionSet};
use rld_core::prelude::*;
use std::collections::HashSet;

/// A tiny deterministic generator (splitmix64) so the region sets derive
/// from the proptest-supplied seed without extra dependencies.
fn next_u64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A random set of axis-aligned regions inside a `dims`-dimensional
/// `steps`-step grid.
fn random_regions(seed: u64, dims: usize, steps: usize, count: usize) -> Vec<Region> {
    let mut state = seed;
    (0..count)
        .map(|_| {
            let mut lo = Vec::with_capacity(dims);
            let mut hi = Vec::with_capacity(dims);
            for _ in 0..dims {
                let a = (next_u64(&mut state) % steps as u64) as usize;
                let b = (next_u64(&mut state) % steps as u64) as usize;
                lo.push(a.min(b));
                hi.push(a.max(b));
            }
            Region::new(lo, hi)
        })
        .collect()
}

fn enumerate(regions: &[Region]) -> HashSet<GridPoint> {
    let mut cells = HashSet::new();
    for region in regions {
        for cell in region.cells() {
            cells.insert(cell);
        }
    }
    cells
}

fn space_nd(dims: usize, steps: usize) -> ParameterSpace {
    let estimates: Vec<_> = (0..dims)
        .map(|i| {
            StatisticEstimate::new(
                StatKey::Selectivity(OperatorId::new(i)),
                0.5,
                UncertaintyLevel::new(3),
            )
        })
        .collect();
    ParameterSpace::from_estimates(&estimates, StatsSnapshot::new(), steps).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Corner-based union volume equals the number of enumerated cells.
    #[test]
    fn union_volume_matches_cell_enumeration(
        seed in 0u64..10_000,
        dims in 1usize..4,
        count in 0usize..8,
    ) {
        let regions = random_regions(seed, dims, 7, count);
        let set = RegionSet::from_regions(&regions);
        prop_assert_eq!(set.volume(), enumerate(&regions).len() as u128);
        // The decomposition's boxes are pairwise disjoint.
        for (i, a) in set.boxes().iter().enumerate() {
            for b in &set.boxes()[i + 1..] {
                prop_assert!(!a.overlaps(b), "{} overlaps {}", a, b);
            }
        }
    }

    /// Geometric intersection and subtraction match set algebra on cells.
    #[test]
    fn intersect_subtract_match_cell_sets(
        seed in 0u64..10_000,
        dims in 1usize..4,
        count_a in 1usize..5,
        count_b in 1usize..5,
    ) {
        let regions_a = random_regions(seed, dims, 6, count_a);
        let regions_b = random_regions(seed.wrapping_add(1), dims, 6, count_b);
        let sa = RegionSet::from_regions(&regions_a);
        let sb = RegionSet::from_regions(&regions_b);
        let ea = enumerate(&regions_a);
        let eb = enumerate(&regions_b);
        let inter: HashSet<_> = ea.intersection(&eb).cloned().collect();
        let diff: HashSet<_> = ea.difference(&eb).cloned().collect();
        let union: HashSet<_> = ea.union(&eb).cloned().collect();
        prop_assert_eq!(sa.intersect(&sb).volume(), inter.len() as u128);
        prop_assert_eq!(sa.subtract(&sb).volume(), diff.len() as u128);
        prop_assert_eq!(sa.union(&sb).volume(), union.len() as u128);
        // Membership agrees cell by cell on the union's support.
        for cell in &union {
            prop_assert_eq!(sa.contains(cell), ea.contains(cell));
            prop_assert_eq!(sb.contains(cell), eb.contains(cell));
        }
    }

    /// The geometric plan weight (disjoint boxes × separable per-axis
    /// probabilities) equals the per-cell probability sum, for both
    /// occurrence models.
    #[test]
    fn geometric_plan_weight_matches_cell_sum(
        seed in 0u64..10_000,
        dims in 1usize..3,
        count in 1usize..6,
    ) {
        let steps = 7;
        let space = space_nd(dims, steps);
        let regions = random_regions(seed, dims, steps, count);
        for model in [OccurrenceModel::Normal, OccurrenceModel::Uniform] {
            let geometric = model.plan_weight(&space, &regions);
            let by_cells: f64 = enumerate(&regions)
                .iter()
                .map(|c| model.cell_probability(&space, c))
                .sum();
            prop_assert!(
                (geometric - by_cells).abs() < 1e-9,
                "model {:?}: geometric {} vs cells {}",
                model,
                geometric,
                by_cells
            );
        }
    }
}

/// The classifier's claimed coverage and the support model's physical
/// coverage are pure functions of region geometry: spot-check them against a
/// brute-force cell count on one deterministic configuration.
#[test]
fn solution_coverage_matches_brute_force() {
    let query = Query::q1_stock_monitoring();
    let deployment = RobustCompiler::new(query)
        .with_selectivity_dims(2, 3)
        .with_epsilon(0.2)
        .compile(&Cluster::homogeneous(4, 1e12).unwrap())
        .unwrap();
    let space = &deployment.space;
    let mut covered = 0usize;
    for cell in space.iter_grid() {
        if deployment.logical.entries().iter().any(|e| e.covers(&cell)) {
            covered += 1;
        }
    }
    let brute = covered as f64 / space.total_cells() as f64;
    assert!((deployment.claimed_coverage - brute).abs() < 1e-12);
}
