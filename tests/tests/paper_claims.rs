//! Integration tests that check the *shape* of the paper's headline results
//! on small instances: who wins, and roughly in which regime.

use rld_core::prelude::*;

/// §6.3 / Figure 10: ERP needs fewer optimizer calls than exhaustive search,
/// and the gap widens as the uncertainty level grows.
#[test]
fn erp_call_savings_grow_with_uncertainty() {
    let query = Query::q1_stock_monitoring();
    let mut savings = Vec::new();
    for u in [1u32, 3, 5] {
        let steps = (4 * u as usize + 1).max(3);
        let est = query
            .selectivity_estimates(2, UncertaintyLevel::new(u))
            .unwrap();
        let space = ParameterSpace::from_estimates(&est, query.default_stats(), steps).unwrap();
        let opt_es = JoinOrderOptimizer::new(query.clone());
        let es = ExhaustiveSearch::new(&opt_es, &space);
        let (_, es_stats) = es.generate(None).unwrap();
        let opt_erp = JoinOrderOptimizer::new(query.clone());
        let erp =
            EarlyTerminatedRobustPartitioning::new(&opt_erp, &space, ErpConfig::with_epsilon(0.2));
        let (_, erp_stats) = erp.generate(None).unwrap();
        assert!(erp_stats.optimizer_calls <= es_stats.optimizer_calls);
        savings.push(es_stats.optimizer_calls as i64 - erp_stats.optimizer_calls as i64);
    }
    assert!(
        savings.last().unwrap() > savings.first().unwrap(),
        "savings should grow with U: {savings:?}"
    );
}

/// §6.3 / Figure 11: for the same optimizer-call budget, ERP's coverage is at
/// least comparable to random sampling's.
#[test]
fn erp_coverage_competitive_with_random_sampling() {
    let query = Query::q1_stock_monitoring();
    let est = query
        .selectivity_estimates(2, UncertaintyLevel::new(2))
        .unwrap();
    let space = ParameterSpace::from_estimates(&est, query.default_stats(), 9).unwrap();
    let opt_ev = JoinOrderOptimizer::new(query.clone());
    let evaluator = RobustnessChecker::new(&opt_ev, &space, 0.2);
    for budget in [10usize, 30] {
        let opt_erp = JoinOrderOptimizer::new(query.clone());
        let erp =
            EarlyTerminatedRobustPartitioning::new(&opt_erp, &space, ErpConfig::with_epsilon(0.2));
        let (erp_sol, _) = erp.generate(Some(budget)).unwrap();
        let opt_rs = JoinOrderOptimizer::new(query.clone());
        let rs = RandomSearch::new(&opt_rs, &space, 1234);
        let (rs_sol, _) = rs.generate(Some(budget)).unwrap();
        let erp_cov = evaluator.true_coverage(&erp_sol).unwrap();
        let rs_cov = evaluator.true_coverage(&rs_sol).unwrap();
        assert!(
            erp_cov + 0.2 >= rs_cov,
            "budget {budget}: ERP {erp_cov:.2} far below RS {rs_cov:.2}"
        );
    }
}

/// §6.4 / Figures 13–14: GreedyPhy is faster than OptPrune, OptPrune matches
/// the exhaustive optimum, and coverage never decreases with more machines.
#[test]
fn physical_planners_match_paper_shape() {
    let query = Query::q1_stock_monitoring();
    let est = query
        .selectivity_estimates(2, UncertaintyLevel::new(2))
        .unwrap();
    let space = ParameterSpace::from_estimates(&est, query.default_stats(), 9).unwrap();
    let opt = JoinOrderOptimizer::new(query.clone());
    let erp = EarlyTerminatedRobustPartitioning::new(&opt, &space, ErpConfig::with_epsilon(0.2));
    let (sol, _) = erp.generate(None).unwrap();
    let model = SupportModel::build(&query, &space, &sol, OccurrenceModel::Normal).unwrap();
    let total: f64 = model.lp_max_loads().iter().sum();
    let capacity = total / 2.5;

    let mut prev_cov = -1.0f64;
    for n in 2..=5usize {
        let cluster = Cluster::homogeneous(n, capacity).unwrap();
        let (gp, _) = GreedyPhy::new().generate(&model, &cluster).unwrap();
        let (op, op_stats) = OptPrune::new().generate(&model, &cluster).unwrap();
        let (_, es_stats) = ExhaustivePhysicalSearch::new()
            .generate(&model, &cluster)
            .unwrap();
        // OptPrune is optimal.
        assert!((op_stats.score - es_stats.score).abs() < 1e-9);
        // GreedyPhy never beats the optimum.
        assert!(model.score(&gp, &cluster) <= op_stats.score + 1e-9);
        // Coverage of the optimal plan is non-decreasing in the machine count.
        let cov = sol.coverage_of(&space, &model.supported_indices(&op, &cluster));
        assert!(cov + 1e-9 >= prev_cov, "coverage dropped at n={n}");
        prev_cov = cov;
    }
}

/// Theorem 1 / Theorem 2 sanity: the aging threshold grows as the tolerated
/// missed area shrinks, and the missing-plan probability bound decays
/// exponentially in the plan's area.
#[test]
fn erp_probabilistic_guarantees_behave() {
    let tight = ErpConfig {
        robustness_epsilon: 0.2,
        confidence_epsilon: 0.1,
        area_delta: 0.05,
    };
    let loose = ErpConfig {
        robustness_epsilon: 0.2,
        confidence_epsilon: 0.1,
        area_delta: 0.5,
    };
    assert!(tight.aging_threshold().unwrap() > loose.aging_threshold().unwrap());
    let p_small = tight.missing_plan_probability(0.1);
    let p_large = tight.missing_plan_probability(3.0);
    assert!(p_small > p_large);
    assert!(p_large < 1e-4);
}
