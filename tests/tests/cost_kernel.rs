//! `PlanCostKernel::eval` is `CostModel::plan_cost` on `snapshot_at(point)`,
//! bit for bit: the weight assignment costs plans through the kernel, and
//! every partition point, region and plan downstream depends on its bits.

use proptest::prelude::*;
use rld_core::paramspace::GridPoint;
use rld_core::prelude::*;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn kernel_eval_is_plan_cost_bitwise(
        ten_way in 0usize..2,
        // An empty baseline makes every fixed term fall back to the query's
        // point estimate.
        empty_baseline in 0usize..2,
        plan_seed in 0u64..u64::MAX,
        mut point_seed in 0u64..u64::MAX,
    ) {
        let query = if ten_way == 1 {
            Query::q2_ten_way_join()
        } else {
            Query::q1_stock_monitoring()
        };
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
