//! Content-only selection on the sorted-map result paths.
//!
//! The static analyzer's D1 rule bans hash-map *iteration* on result paths
//! because hash order varies with seeding and insertion history. This test
//! proves the positive side of that contract: `WeightMap` keeps its points
//! sorted by grid coordinates, so its maximum-weight point (which drives the
//! partition-point choice) is a fixed function of the map's contents, with
//! ties broken toward larger grid coordinates.

use rld_core::paramspace::{DistanceMetric, GridPoint, Region, WeightMap};
use rld_core::prelude::*;

/// A 2-D parameter space with `steps` grid steps per dimension.
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

/// A cost surface with plateaus, so maximum-weight ties actually occur and
/// the deterministic tie-break (not luck) is what the test exercises.
fn plateau_cost(p: &GridPoint) -> f64 {
    let x = p.indices[0] as f64;
    let y = p.indices[1] as f64;
    (x / 2.0).floor() * 3.0 + (y / 2.0).floor() + x * y / 8.0
}

/// `plateau_cost` at every point of a 2-D grid (one index list per
/// dimension), in row-major order: the table `WeightMap::assign` asks for.
fn plateau_table(grid: &[Vec<usize>]) -> Result<Vec<f64>> {
    Ok(grid[0]
        .iter()
        .flat_map(|x| {
            grid[1]
                .iter()
                .map(move |y| plateau_cost(&GridPoint::new(vec![*x, *y])))
        })
        .collect())
}

/// The selected point is stable across repeated queries of the same map
/// (no interior hidden state) and ties break toward lexicographically
/// larger grid coordinates — a fixed, content-only rule either way.
#[test]
fn max_weight_selection_is_stable() {
    for steps in 4usize..9 {
        let space = space_2d(steps);
        let region = Region::full(&space);
        let map = WeightMap::assign(
            &region,
            plateau_table,
            plateau_table,
            DistanceMetric::default(),
        )
        .unwrap();

        let first = map.max_weight_point().unwrap();
        for _ in 0..4 {
            assert_eq!(map.max_weight_point().unwrap(), first);
        }
        // Tie-break check: the winner dominates every equally-weighted point
        // lexicographically (`max_by` keeps the greatest under the
        // weight-then-coordinates ordering).
        for cell in region.cells() {
            if map.get(&cell) == map.get(&first) {
                assert!(first.indices >= cell.indices, "steps {steps}");
            }
        }
    }
}
