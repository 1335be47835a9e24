//! `PlanCostKernel::eval` is `CostModel::plan_cost` on `snapshot_at(point)`,
//! bit for bit, and `PlanCostKernel::eval_grid` is `eval` at every point of
//! its grid, bit for bit: the weight assignment costs plans through the
//! kernel's grids, and every partition point, region and plan downstream
//! depends on their bits. `plan_cost` itself is `operator_loads` summed in
//! plan order, bit for bit: one §2.3 recurrence serves both.

use proptest::prelude::*;
use rld_core::paramspace::GridPoint;
use rld_core::prelude::*;
use rld_core::query::PlanCostKernel;
use rld_tests::reference::plan_cost_from_loads;

/// splitmix64, so plans and points derive from the proptest-supplied seeds.
fn next_u64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded permutation of the query's operators (Fisher–Yates).
fn shuffled_plan(query: &Query, mut seed: u64) -> LogicalPlan {
    let mut ops = query.operator_ids();
    for i in (1..ops.len()).rev() {
        ops.swap(i, (next_u64(&mut seed) % (i as u64 + 1)) as usize);
    }
    LogicalPlan::new(ops)
}

/// A space over every kind of term the cost reads: two selectivities, a
/// window join's partner-stream rate and the driving stream's rate.
fn mixed_space(query: &Query, baseline: StatsSnapshot, steps: usize) -> ParameterSpace {
    let keys = [
        StatKey::Selectivity(OperatorId::new(0)),
        StatKey::Selectivity(OperatorId::new(2)),
        StatKey::InputRate(StreamId::new(1)),
        StatKey::InputRate(query.driving_stream),
    ];
    let estimates = query
        .estimates_for(&keys.map(|key| (key, UncertaintyLevel::new(3))))
        .unwrap();
    ParameterSpace::from_estimates(&estimates, baseline, steps).unwrap()
}

/// The query a test case draws.
fn query(ten_way: usize) -> Query {
    if ten_way == 1 {
        Query::q2_ten_way_join()
    } else {
        Query::q1_stock_monitoring()
    }
}

/// A seeded grid over `dims` axes of `steps` indices: each axis a single
/// index, the full axis or a random sorted subset of it.
fn random_grid(dims: usize, steps: usize, seed: &mut u64) -> Vec<Vec<usize>> {
    let index = |seed: &mut u64| (next_u64(seed) % steps as u64) as usize;
    (0..dims)
        .map(|_| match next_u64(seed) % 4 {
            0 => vec![index(seed)],
            1 => (0..steps).collect(),
            _ => {
                let mut axis: Vec<usize> = (0..steps).filter(|_| next_u64(seed) % 2 == 0).collect();
                if axis.is_empty() {
                    axis.push(index(seed));
                }
                axis
            }
        })
        .collect()
}

/// Every point of `grid`, in row-major order (the last axis fastest).
fn grid_points(grid: &[Vec<usize>]) -> Vec<GridPoint> {
    grid.iter()
        .fold(vec![vec![]], |points, axis| {
            points
                .iter()
                .flat_map(|prefix| {
                    axis.iter().map(move |i| {
                        let mut point: Vec<usize> = prefix.clone();
                        point.push(*i);
                        point
                    })
                })
                .collect()
        })
        .into_iter()
        .map(GridPoint::new)
        .collect()
}

/// `eval_grid` against `eval` at every point of `grid`: the same bits, or
/// the same error when `eval` fails at any point.
fn assert_grid_is_pointwise(kernel: &PlanCostKernel<'_>, grid: &[Vec<usize>]) {
    let points = grid_points(grid);
    let pointwise: Result<Vec<f64>> = points.iter().map(|p| kernel.eval(p)).collect();
    match (kernel.eval_grid(grid), pointwise) {
        (Ok(table), Ok(expected)) => {
            assert_eq!(table.len(), expected.len(), "{grid:?}");
            for ((value, expected), point) in table.iter().zip(&expected).zip(&points) {
                assert_eq!(value.to_bits(), expected.to_bits(), "at {point}");
            }
        }
        (Err(err), Err(expected)) => assert_eq!(err.to_string(), expected.to_string()),
        (table, expected) => panic!("{grid:?}: grid {table:?}, pointwise {expected:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn kernel_eval_grid_is_eval_bitwise(
        ten_way in 0usize..2,
        empty_baseline in 0usize..2,
        plan_seed in 0u64..u64::MAX,
        mut grid_seed in 0u64..u64::MAX,
    ) {
        let query = query(ten_way);
        let baseline = if empty_baseline == 1 {
            StatsSnapshot::new()
        } else {
            query.default_stats()
        };
        let steps = 7;
        let space = mixed_space(&query, baseline, steps);
        let cost_model = CostModel::new(query.clone());
        let kernel = cost_model.kernel(&shuffled_plan(&query, plan_seed), &space).unwrap();
        for _ in 0..4 {
            assert_grid_is_pointwise(&kernel, &random_grid(space.num_dims(), steps, &mut grid_seed));
        }
    }

    #[test]
    fn kernel_eval_grid_fails_where_eval_fails(
        ten_way in 0usize..2,
        plan_seed in 0u64..u64::MAX,
        mut grid_seed in 0u64..u64::MAX,
        exponent in 300i32..309,
    ) {
        // A window join's partner stream outside the space at a huge rate:
        // the plan's cost overflows at some points, or at all of them.
        let query = query(ten_way);
        let mut baseline = query.default_stats();
        baseline.set(StatKey::InputRate(StreamId::new(2)), 1.7 * 10f64.powi(exponent));
        let steps = 7;
        let space = mixed_space(&query, baseline, steps);
        let cost_model = CostModel::new(query.clone());
        let kernel = cost_model.kernel(&shuffled_plan(&query, plan_seed), &space).unwrap();
        for _ in 0..4 {
            assert_grid_is_pointwise(&kernel, &random_grid(space.num_dims(), steps, &mut grid_seed));
        }
    }

    #[test]
    fn kernel_eval_is_plan_cost_bitwise(
        ten_way in 0usize..2,
        // An empty baseline makes every fixed term fall back to the query's
        // point estimate.
        empty_baseline in 0usize..2,
        plan_seed in 0u64..u64::MAX,
        mut point_seed in 0u64..u64::MAX,
    ) {
        let query = query(ten_way);
        let baseline = if empty_baseline == 1 {
            StatsSnapshot::new()
        } else {
            query.default_stats()
        };
        let steps = 9;
        let space = mixed_space(&query, baseline, steps);
        let cost_model = CostModel::new(query.clone());
        let plan = shuffled_plan(&query, plan_seed);
        let kernel = cost_model.kernel(&plan, &space).unwrap();
        for _ in 0..16 {
            let point = GridPoint::new(
                (0..space.num_dims())
                    .map(|_| (next_u64(&mut point_seed) % steps as u64) as usize)
                    .collect(),
            );
            let expected = cost_model.plan_cost(&plan, &space.snapshot_at(&point)).unwrap();
            prop_assert_eq!(
                kernel.eval(&point).unwrap().to_bits(),
                expected.to_bits(),
                "{} at {}", plan, point
            );
        }
    }

    #[test]
    fn plan_cost_is_operator_loads_summed_in_plan_order(
        ten_way in 0usize..2,
        plan_seed in 0u64..u64::MAX,
        mut point_seed in 0u64..u64::MAX,
    ) {
        let query = query(ten_way);
        let steps = 9;
        let space = mixed_space(&query, query.default_stats(), steps);
        let cost_model = CostModel::new(query.clone());
        let plan = shuffled_plan(&query, plan_seed);
        for _ in 0..16 {
            let point = GridPoint::new(
                (0..space.num_dims())
                    .map(|_| (next_u64(&mut point_seed) % steps as u64) as usize)
                    .collect(),
            );
            let stats = space.snapshot_at(&point);
            prop_assert_eq!(
                cost_model.plan_cost(&plan, &stats).unwrap().to_bits(),
                plan_cost_from_loads(&cost_model, &plan, &stats).to_bits(),
                "{} at {}", plan, point
            );
        }
    }
}

#[test]
fn kernel_rejects_an_invalid_plan_when_compiled() {
    let query = Query::q1_stock_monitoring();
    let space = mixed_space(&query, query.default_stats(), 5);
    let cost_model = CostModel::new(query);
    let short = LogicalPlan::new(vec![OperatorId::new(0), OperatorId::new(1)]);
    assert!(matches!(
        cost_model.kernel(&short, &space),
        Err(RldError::PlanGeneration(_))
    ));
}

#[test]
fn kernel_eval_grid_fails_on_a_non_finite_cost() {
    let query = Query::q1_stock_monitoring();
    let mut baseline = query.default_stats();
    baseline.set(StatKey::InputRate(StreamId::new(2)), f64::MAX);
    let space = mixed_space(&query, baseline, 5);
    let cost_model = CostModel::new(query.clone());
    let kernel = cost_model
        .kernel(&LogicalPlan::identity(&query), &space)
        .unwrap();
    let full: Vec<Vec<usize>> = (0..space.num_dims()).map(|_| (0..5).collect()).collect();
    assert!(matches!(kernel.eval_grid(&full), Err(RldError::Runtime(_))));
    assert_grid_is_pointwise(&kernel, &full);
}
