//! Early-terminated Robust Partitioning (ERP, Algorithm 3).
//!
//! ERP runs the same weight-driven partitioning as WRP but maintains an
//! *aging counter*: every optimizer probe that fails to reveal a plan not yet
//! in the solution increments the counter; a new distinct plan resets it.
//! Once the counter exceeds the threshold
//!
//! ```text
//! c0 = (1 + ε_conf^{-1/2}) / δ
//! ```
//!
//! the search stops. Theorem 1 guarantees that, with probability at least
//! `1 − ε_conf`, the total area of all still-missing robust plans is at most
//! `δ`; Theorem 2 sharpens this per plan: a plan whose robust area is at
//! least `γ·δ` is missed with probability at most `e^{-γ(1 + ε_conf^{-1/2})}`.

use crate::robustness::RobustnessChecker;
use crate::solution::RobustLogicalSolution;
use crate::stats::SearchStats;
use crate::wrp::{partition_search, AgingTermination};
use crate::LogicalPlanGenerator;
use rld_common::{Result, RldError};
use rld_paramspace::{DistanceMetric, ParameterSpace};
use rld_query::Optimizer;

/// Configuration of ERP's probabilistic early-termination rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErpConfig {
    /// Robustness threshold ε of Definition 1 (plan cost may exceed the
    /// optimum by this relative factor). The paper sweeps 0.1–0.3.
    pub robustness_epsilon: f64,
    /// Failure-probability bound ε of Theorem 1 (confidence is `1 − ε`).
    pub confidence_epsilon: f64,
    /// Area bound δ of Theorem 1: with high probability the missing robust
    /// plans jointly cover at most this fraction of the space.
    pub area_delta: f64,
}

impl Default for ErpConfig {
    fn default() -> Self {
        Self {
            robustness_epsilon: 0.2,
            confidence_epsilon: 0.25,
            area_delta: 0.15,
        }
    }
}

impl ErpConfig {
    /// Create a config with the given robustness threshold and the default
    /// probabilistic parameters.
    pub fn with_epsilon(robustness_epsilon: f64) -> Self {
        Self {
            robustness_epsilon,
            ..Self::default()
        }
    }

    /// The aging threshold `c0 = (1 + ε^{-1/2}) / δ` of Theorem 1 (rounded
    /// up). Theorem 1 holds for ε in (0, 1) and δ in (0, 1]; anything else
    /// (NaN included) is an [`RldError::InvalidArgument`].
    pub fn aging_threshold(&self) -> Result<usize> {
        if !(self.confidence_epsilon > 0.0 && self.confidence_epsilon < 1.0) {
            return Err(RldError::InvalidArgument(format!(
                "ERP confidence epsilon must be in (0, 1), got {}",
                self.confidence_epsilon
            )));
        }
        if !(self.area_delta > 0.0 && self.area_delta <= 1.0) {
            return Err(RldError::InvalidArgument(format!(
                "ERP area delta must be in (0, 1], got {}",
                self.area_delta
            )));
        }
        let c0 = (1.0 + self.confidence_epsilon.powf(-0.5)) / self.area_delta;
        Ok(c0.ceil() as usize)
    }

    /// Theorem 2's bound on the probability of missing a robust plan whose
    /// robust area is at least `gamma · delta` of the space:
    /// `e^{-γ (1 + ε^{-1/2})}`.
    pub fn missing_plan_probability(&self, gamma: f64) -> f64 {
        assert!(gamma >= 0.0, "gamma must be non-negative");
        (-gamma * (1.0 + self.confidence_epsilon.powf(-0.5))).exp()
    }
}

/// Early-terminated Robust Partitioning (Algorithm 3).
pub struct EarlyTerminatedRobustPartitioning<'a, O: Optimizer> {
    checker: RobustnessChecker<'a, O>,
    config: ErpConfig,
    metric: DistanceMetric,
}

impl<'a, O: Optimizer> EarlyTerminatedRobustPartitioning<'a, O> {
    /// Create an ERP generator.
    pub fn new(optimizer: &'a O, space: &'a ParameterSpace, config: ErpConfig) -> Self {
        Self {
            checker: RobustnessChecker::new(optimizer, space, config.robustness_epsilon),
            config,
            metric: DistanceMetric::default(),
        }
    }

    /// Use a specific distance metric for the weight function.
    pub fn with_metric(mut self, metric: DistanceMetric) -> Self {
        self.metric = metric;
        self
    }
}

impl<'a, O: Optimizer> LogicalPlanGenerator for EarlyTerminatedRobustPartitioning<'a, O> {
    fn name(&self) -> &'static str {
        "ERP"
    }

    fn generate(&self, budget: Option<usize>) -> Result<(RobustLogicalSolution, SearchStats)> {
        let termination = AgingTermination {
            threshold: self.config.aging_threshold()?,
        };
        partition_search(&self.checker, Some(termination), budget, self.metric)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::ExhaustiveSearch;
    use crate::random::RandomSearch;
    use crate::robustness::RobustnessChecker;
    use rld_common::{Query, UncertaintyLevel};
    use rld_query::JoinOrderOptimizer;

    fn setup(steps: usize, u: u32) -> (Query, ParameterSpace) {
        let q = Query::q1_stock_monitoring();
        let est = q
            .selectivity_estimates(2, UncertaintyLevel::new(u))
            .unwrap();
        let space = ParameterSpace::from_estimates(&est, q.default_stats(), steps).unwrap();
        (q, space)
    }

    #[test]
    fn aging_threshold_formula() {
        let cfg = ErpConfig {
            robustness_epsilon: 0.2,
            confidence_epsilon: 0.25,
            area_delta: 0.1,
        };
        // (1 + 1/sqrt(0.25)) / 0.1 = 30
        assert_eq!(cfg.aging_threshold().unwrap(), 30);
        let cfg2 = ErpConfig {
            confidence_epsilon: 0.04,
            area_delta: 0.2,
            ..cfg
        };
        // (1 + 5) / 0.2 = 30
        assert_eq!(cfg2.aging_threshold().unwrap(), 30);
    }

    #[test]
    fn theorem2_bound_decreases_exponentially_with_area() {
        let cfg = ErpConfig::default();
        let p1 = cfg.missing_plan_probability(0.5);
        let p2 = cfg.missing_plan_probability(1.0);
        let p3 = cfg.missing_plan_probability(2.0);
        assert!(p1 > p2 && p2 > p3);
        assert!(p3 < 0.01);
        assert!((cfg.missing_plan_probability(0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn erp_covers_space_with_fewer_calls_than_es() {
        let (q, space) = setup(9, 3);
        let opt_erp = JoinOrderOptimizer::new(q.clone());
        let opt_es = JoinOrderOptimizer::new(q.clone());
        let erp =
            EarlyTerminatedRobustPartitioning::new(&opt_erp, &space, ErpConfig::with_epsilon(0.2));
        let es = ExhaustiveSearch::new(&opt_es, &space);
        let (erp_sol, erp_stats) = erp.generate(None).unwrap();
        let (_, es_stats) = es.generate(None).unwrap();
        assert!(erp_stats.optimizer_calls < es_stats.optimizer_calls);
        let opt_ev = JoinOrderOptimizer::new(q);
        let ev = RobustnessChecker::new(&opt_ev, &space, 0.2);
        let cov = ev.true_coverage(&erp_sol).unwrap();
        assert!(cov > 0.8, "ERP coverage too low: {cov}");
        assert_eq!(erp.name(), "ERP");
    }

    #[test]
    fn erp_coverage_at_least_rs_coverage_for_same_budget() {
        let (q, space) = setup(9, 3);
        let budget = 20;
        let opt_erp = JoinOrderOptimizer::new(q.clone());
        let opt_rs = JoinOrderOptimizer::new(q.clone());
        let erp =
            EarlyTerminatedRobustPartitioning::new(&opt_erp, &space, ErpConfig::with_epsilon(0.2));
        let rs = RandomSearch::new(&opt_rs, &space, 17);
        let (erp_sol, _) = erp.generate(Some(budget)).unwrap();
        let (rs_sol, _) = rs.generate(Some(budget)).unwrap();
        let opt_ev = JoinOrderOptimizer::new(q);
        let ev = RobustnessChecker::new(&opt_ev, &space, 0.2);
        let erp_cov = ev.true_coverage(&erp_sol).unwrap();
        let rs_cov = ev.true_coverage(&rs_sol).unwrap();
        // ERP's weight-driven choice should not be (much) worse than random.
        assert!(
            erp_cov + 0.15 >= rs_cov,
            "ERP coverage {erp_cov} much worse than RS coverage {rs_cov}"
        );
    }

    #[test]
    fn smaller_area_delta_means_more_patience() {
        let patient = ErpConfig {
            area_delta: 0.05,
            ..ErpConfig::default()
        };
        let hasty = ErpConfig {
            area_delta: 0.5,
            ..ErpConfig::default()
        };
        assert!(patient.aging_threshold().unwrap() > hasty.aging_threshold().unwrap());
    }

    #[test]
    fn erp_is_deterministic() {
        let (q, space) = setup(9, 2);
        let opt_a = JoinOrderOptimizer::new(q.clone());
        let opt_b = JoinOrderOptimizer::new(q);
        let a = EarlyTerminatedRobustPartitioning::new(&opt_a, &space, ErpConfig::default())
            .generate(None)
            .unwrap();
        let b = EarlyTerminatedRobustPartitioning::new(&opt_b, &space, ErpConfig::default())
            .generate(None)
            .unwrap();
        assert_eq!(a.0, b.0);
        assert_eq!(a.1.optimizer_calls, b.1.optimizer_calls);
    }

    #[test]
    fn q2_solutions_are_the_ones_pinned_before_the_cost_kernel() {
        // Fingerprints computed at the commit that still costed every
        // weighted point through `plan_cost_at` (Q2, U = 4, ε = 0.1). On the
        // 4-dim 9-step space the aging counter never fires and ERP returns
        // WRP's solution; on the 3-dim 15-step space it terminates early, so
        // the pin also holds the discovery order the counter depends on.
        let q = Query::q2_ten_way_join();
        let run = |dims, steps| {
            let est = q
                .selectivity_estimates(dims, UncertaintyLevel::new(4))
                .unwrap();
            let space = ParameterSpace::from_estimates(&est, q.default_stats(), steps).unwrap();
            let opt = JoinOrderOptimizer::new(q.clone());
            EarlyTerminatedRobustPartitioning::new(&opt, &space, ErpConfig::with_epsilon(0.1))
                .generate(None)
                .unwrap()
        };
        let (solution, stats) = run(4, 9);
        assert_eq!(solution.fingerprint(), 0x3a4a_4a10_8c5c_8700);
        assert_eq!(
            (stats.optimizer_calls, stats.terminated_early),
            (270, false)
        );
        let (solution, stats) = run(3, 15);
        assert_eq!(solution.fingerprint(), 0x8806_17b0_ab88_0132);
        assert_eq!((stats.optimizer_calls, stats.terminated_early), (55, true));
    }

    /// An ERP built directly, not through `RobustCompiler`, refuses
    /// parameters outside Theorem 1's ranges from `generate` — with or
    /// without a budget — instead of panicking.
    #[test]
    fn out_of_range_theorem1_parameters_are_invalid_arguments() {
        let (q, space) = setup(5, 2);
        let opt = JoinOrderOptimizer::new(q);
        let zero_delta = ErpConfig {
            area_delta: 0.0,
            ..ErpConfig::default()
        };
        let wide_confidence = ErpConfig {
            confidence_epsilon: 1.5,
            ..ErpConfig::default()
        };
        for cfg in [zero_delta, wide_confidence] {
            let erp = EarlyTerminatedRobustPartitioning::new(&opt, &space, cfg);
            for outcome in [erp.generate(None), erp.generate(Some(10))] {
                assert!(
                    matches!(outcome, Err(RldError::InvalidArgument(_))),
                    "{cfg:?}: {outcome:?}"
                );
            }
        }
    }
}
