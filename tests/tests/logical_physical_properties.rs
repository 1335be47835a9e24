//! Cross-crate property-based tests: invariants of the parameter space, the
//! cost model, the logical-solution generators and the physical planners
//! under randomized queries and configurations.

use proptest::prelude::*;
use rld_core::paramspace::GridPoint;
use rld_core::prelude::*;

fn arbitrary_query() -> impl Strategy<Value = Query> {
    (3usize..7, 0u64..1000).prop_map(|(n, seed)| Query::n_way_join(n, seed))
}

/// Every ordering of `ops`.
fn all_orderings(ops: &[OperatorId]) -> Vec<Vec<OperatorId>> {
    if ops.len() <= 1 {
        return vec![ops.to_vec()];
    }
    let mut out = Vec::new();
    for i in 0..ops.len() {
        let mut rest = ops.to_vec();
        let first = rest.remove(i);
        for mut tail in all_orderings(&rest) {
            tail.insert(0, first);
            out.push(tail);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The cost model is monotone: scaling any single selectivity up never
    /// decreases the plan cost (Principle 1/2 of §4.2 rely on this).
    #[test]
    fn cost_is_monotone_in_selectivities(query in arbitrary_query(), op_idx in 0usize..3, scale in 1.0f64..2.0) {
        let cm = CostModel::new(query.clone());
        let plan = LogicalPlan::identity(&query);
        let base = query.default_stats();
        let c0 = cm.plan_cost(&plan, &base).unwrap();
        let op = OperatorId::new(op_idx % query.num_operators());
        let mut bumped = base.clone();
        let sel = bumped.selectivity(op).unwrap();
        bumped.set(StatKey::Selectivity(op), sel * scale);
        let c1 = cm.plan_cost(&plan, &bumped).unwrap();
        prop_assert!(c1 + 1e-9 >= c0);
    }

    /// Operator loads always sum to the plan cost, for any ordering.
    #[test]
    fn loads_sum_to_cost(query in arbitrary_query(), seed in 0u64..500) {
        let cm = CostModel::new(query.clone());
        // Build a pseudo-random permutation from the seed.
        let mut ids = query.operator_ids();
        let n = ids.len();
        for i in 0..n {
            let j = (seed as usize + i * 7) % n;
            ids.swap(i, j);
        }
        let plan = LogicalPlan::new(ids);
        let stats = query.default_stats();
        let cost = cm.plan_cost(&plan, &stats).unwrap();
        let loads = cm.operator_loads(&plan, &stats).unwrap();
        prop_assert!((loads.iter().sum::<f64>() - cost).abs() < 1e-6 * cost.max(1.0));
    }

    /// The rank optimizer returns an optimal ordering: its plan costs no
    /// more than the cheapest of all `n!` orderings (at most 720 here), at
    /// the default statistics and at a random point of a 2-dim selectivity
    /// space.
    #[test]
    fn optimizer_not_worse_than_identity(
        query in arbitrary_query(),
        u in 1u32..4,
        x in 0usize..7,
        y in 0usize..7,
    ) {
        let opt = JoinOrderOptimizer::new(query.clone());
        let est = query.selectivity_estimates(2, UncertaintyLevel::new(u)).unwrap();
        let space = ParameterSpace::from_estimates(&est, query.default_stats(), 7).unwrap();
        let orderings = all_orderings(&query.operator_ids());
        for stats in [query.default_stats(), space.snapshot_at(&GridPoint::new(vec![x, y]))] {
            let best = opt.optimize(&stats).unwrap();
            let c_best = opt.plan_cost(&best, &stats).unwrap();
            let c_min = orderings
                .iter()
                .map(|o| opt.plan_cost(&LogicalPlan::new(o.clone()), &stats).unwrap())
                .fold(f64::INFINITY, f64::min);
            prop_assert!(c_best <= c_min * (1.0 + 1e-9), "rank {c_best} > optimum {c_min}");
            let c_id = opt.plan_cost(&LogicalPlan::identity(&query), &stats).unwrap();
            prop_assert!(c_best <= c_id + 1e-9);
        }
    }

    /// ERP always terminates, returns at least one plan, and never makes more
    /// optimizer calls than exhaustive search.
    #[test]
    fn erp_terminates_and_is_cheaper_than_es(query in arbitrary_query(), u in 1u32..4) {
        let est = query.selectivity_estimates(2, UncertaintyLevel::new(u)).unwrap();
        let space = ParameterSpace::from_estimates(&est, query.default_stats(), 7).unwrap();
        let opt_erp = JoinOrderOptimizer::new(query.clone());
        let erp = EarlyTerminatedRobustPartitioning::new(&opt_erp, &space, ErpConfig::with_epsilon(0.2));
        let (sol, stats) = erp.generate(None).unwrap();
        prop_assert!(!sol.is_empty());
        prop_assert!(stats.optimizer_calls <= space.total_cells());
    }

    /// Any physical plan produced by GreedyPhy is a valid partition of the
    /// operators, and OptPrune's score is never worse than GreedyPhy's.
    #[test]
    fn physical_planners_are_consistent(query in arbitrary_query(), nodes in 2usize..5, frac in 0.3f64..1.5) {
        let est = query.selectivity_estimates(2, UncertaintyLevel::new(2)).unwrap();
        let space = ParameterSpace::from_estimates(&est, query.default_stats(), 7).unwrap();
        let opt = JoinOrderOptimizer::new(query.clone());
        let erp = EarlyTerminatedRobustPartitioning::new(&opt, &space, ErpConfig::with_epsilon(0.2));
        let (sol, _) = erp.generate(None).unwrap();
        let model = SupportModel::build(&query, &space, &sol, OccurrenceModel::Normal).unwrap();
        let total: f64 = model.lp_max_loads().iter().sum();
        let cluster = Cluster::homogeneous(nodes, (total * frac / nodes as f64).max(1e-3)).unwrap();
        let (gp, g_stats) = GreedyPhy::new().generate(&model, &cluster).unwrap();
        prop_assert_eq!(gp.num_operators(), query.num_operators());
        let (op, o_stats) = OptPrune::new().generate(&model, &cluster).unwrap();
        prop_assert_eq!(op.num_operators(), query.num_operators());
        prop_assert!(o_stats.score + 1e-9 >= g_stats.score);
    }

    /// Projecting any ground-truth statistics into the space and back yields a
    /// grid point inside the space, and the classifier always picks a plan
    /// from the solution.
    #[test]
    fn classifier_total_over_space(query in arbitrary_query(), scale in 0.5f64..1.5) {
        let est = query.selectivity_estimates(2, UncertaintyLevel::new(3)).unwrap();
        let space = ParameterSpace::from_estimates(&est, query.default_stats(), 7).unwrap();
        let opt = JoinOrderOptimizer::new(query.clone());
        let erp = EarlyTerminatedRobustPartitioning::new(&opt, &space, ErpConfig::with_epsilon(0.2));
        let (sol, _) = erp.generate(None).unwrap();
        let mut stats = query.default_stats();
        for op in query.operator_ids() {
            let s = stats.selectivity(op).unwrap();
            stats.set(StatKey::Selectivity(op), s * scale);
        }
        let point = space.project_snapshot(&stats);
        prop_assert!(point.indices.iter().zip(space.grid_shape()).all(|(i, n)| *i < n));
        prop_assert!(sol.plan_for(&point).is_some());
    }
}
