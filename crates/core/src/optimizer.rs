//! The end-to-end RLD optimizer: a configuration-level façade over the
//! [`crate::compiler::RobustCompiler`] pipeline.
//!
//! [`RldOptimizer`] keeps the paper-shaped configuration surface
//! ([`RldConfig`]: uncertain dimensions, uncertainty level, ε, occurrence
//! model, physical strategy) and translates it into a compiler invocation;
//! all the actual pipeline work — space construction, solver dispatch,
//! weighting, physical planning — lives in the compiler, which benches and
//! the scenario layer also drive directly.

use crate::compiler::{Deployment, LogicalSolverSpec, PhysicalSolverSpec, RobustCompiler};
use rld_common::{Query, Result, StatisticEstimate, UncertaintyLevel};
use rld_logical::{CoverageEvaluator, ErpConfig};
use rld_paramspace::{OccurrenceModel, ParameterSpace};
use rld_physical::Cluster;

/// Which §5 algorithm produces the physical plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PhysicalStrategy {
    /// GreedyPhy (Algorithm 4): linear time, possibly sub-optimal.
    Greedy,
    /// OptPrune (Algorithm 5): optimal, branch-and-bound bounded by GreedyPhy.
    #[default]
    OptPrune,
}

impl From<PhysicalStrategy> for PhysicalSolverSpec {
    fn from(strategy: PhysicalStrategy) -> Self {
        match strategy {
            PhysicalStrategy::Greedy => PhysicalSolverSpec::Greedy,
            PhysicalStrategy::OptPrune => PhysicalSolverSpec::OptPrune,
        }
    }
}

/// Configuration of the end-to-end RLD optimizer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RldConfig {
    /// How many of the query's operator selectivities are treated as
    /// uncertain (they become the parameter-space dimensions).
    pub uncertain_selectivities: usize,
    /// The uncertainty level `U` assigned to each uncertain estimate
    /// (Algorithm 1 widens the interval by ±0.1·U).
    pub uncertainty: UncertaintyLevel,
    /// Grid steps per dimension of the discretized space.
    pub grid_steps: usize,
    /// ERP configuration: robustness threshold ε plus the probabilistic
    /// early-termination parameters of Theorems 1–2.
    pub erp: ErpConfig,
    /// Occurrence-probability model used to weight robust logical plans.
    pub occurrence: OccurrenceModel,
    /// Physical plan generation strategy.
    pub physical_strategy: PhysicalStrategy,
    /// Runtime classification overhead charged per batch (fraction of the
    /// batch's query work; the paper measured ≈ 2%).
    pub classification_overhead: f64,
}

impl Default for RldConfig {
    fn default() -> Self {
        Self {
            uncertain_selectivities: 2,
            uncertainty: UncertaintyLevel::new(2),
            grid_steps: ParameterSpace::DEFAULT_STEPS,
            erp: ErpConfig::default(),
            occurrence: OccurrenceModel::Normal,
            physical_strategy: PhysicalStrategy::default(),
            classification_overhead: 0.02,
        }
    }
}

impl RldConfig {
    /// Convenience: set the robustness threshold ε.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.erp.robustness_epsilon = epsilon;
        self
    }

    /// Convenience: set the uncertainty level.
    pub fn with_uncertainty(mut self, u: u32) -> Self {
        self.uncertainty = UncertaintyLevel::new(u);
        self
    }

    /// Convenience: set the number of uncertain dimensions.
    pub fn with_dimensions(mut self, dims: usize) -> Self {
        self.uncertain_selectivities = dims;
        self
    }

    /// The compiler invocation this configuration describes.
    pub fn compiler(&self, query: Query) -> RobustCompiler {
        RobustCompiler::new(query)
            .with_selectivity_dims(self.uncertain_selectivities, self.uncertainty.0)
            .with_grid_steps(self.grid_steps)
            .with_solver(LogicalSolverSpec::Erp(self.erp))
            .with_epsilon(self.erp.robustness_epsilon)
            .with_physical_solver(self.physical_strategy.into())
            .with_occurrence(self.occurrence)
            .with_classification_overhead(self.classification_overhead)
    }
}

/// The complete output of RLD compile-time optimization — an alias for the
/// compiler's serializable [`Deployment`] artifact.
pub type RldSolution = Deployment;

/// The end-to-end RLD optimizer (the "robust plan optimizer" box of Figure 5).
#[derive(Debug, Clone)]
pub struct RldOptimizer {
    query: Query,
    config: RldConfig,
}

impl RldOptimizer {
    /// Create an optimizer for a query.
    pub fn new(query: Query, config: RldConfig) -> Self {
        Self { query, config }
    }

    /// The query being optimized.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// The configuration in use.
    pub fn config(&self) -> &RldConfig {
        &self.config
    }

    /// Build the parameter space implied by the configuration.
    pub fn build_space(&self) -> Result<ParameterSpace> {
        self.config.compiler(self.query.clone()).build_space()
    }

    /// Build a parameter space from explicit statistic estimates (use this to
    /// include input-rate dimensions or custom uncertainty levels).
    pub fn build_space_from(&self, estimates: &[StatisticEstimate]) -> Result<ParameterSpace> {
        ParameterSpace::from_estimates(
            estimates,
            self.query.default_stats(),
            self.config.grid_steps,
        )
    }

    /// Run the full two-step optimization on the default parameter space.
    pub fn optimize(&self, cluster: &Cluster) -> Result<RldSolution> {
        self.config.compiler(self.query.clone()).compile(cluster)
    }

    /// Run the full two-step optimization on an explicit parameter space.
    pub fn optimize_in_space(
        &self,
        cluster: &Cluster,
        space: ParameterSpace,
    ) -> Result<RldSolution> {
        self.config
            .compiler(self.query.clone())
            .compile_in(cluster, space)
    }

    /// Ground-truth coverage evaluation of an already computed solution
    /// (uses its own optimizer calls; intended for reports, not planning).
    pub fn evaluate_coverage(&self, solution: &RldSolution) -> Result<f64> {
        let evaluator = CoverageEvaluator::new(
            self.query.clone(),
            solution.space.clone(),
            self.config.erp.robustness_epsilon,
        )?;
        evaluator.true_coverage(&solution.logical)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rld_common::StatKey;

    fn cluster_for(query: &Query, nodes: usize, slack: f64) -> Cluster {
        // Capacity proportional to the worst-case single-operator load.
        let cm = rld_query::CostModel::new(query.clone());
        let plan = rld_query::LogicalPlan::identity(query);
        let loads = cm.operator_loads(&plan, &query.default_stats()).unwrap();
        let max_load = loads.iter().cloned().fold(0.0f64, f64::max);
        Cluster::homogeneous(nodes, max_load * slack).unwrap()
    }

    #[test]
    fn end_to_end_q1_produces_full_coverage_with_ample_resources() {
        let q = Query::q1_stock_monitoring();
        let cluster = cluster_for(&q, 4, 100.0);
        let optimizer = RldOptimizer::new(q, RldConfig::default());
        let solution = optimizer.optimize(&cluster).unwrap();
        assert!(!solution.logical.is_empty());
        assert!(solution.logical_stats.optimizer_calls > 0);
        assert_eq!(solution.physical.num_operators(), 5);
        // Ample resources: every logical plan supported.
        assert_eq!(solution.physical_stats.dropped_plans, 0);
        assert!(solution.physical_coverage(&cluster) > 0.9);
        let true_cov = optimizer.evaluate_coverage(&solution).unwrap();
        assert!(true_cov > 0.8, "true coverage {true_cov}");
    }

    #[test]
    fn greedy_and_optprune_strategies_both_work() {
        let q = Query::q1_stock_monitoring();
        let cluster = cluster_for(&q, 3, 2.0);
        let greedy = RldOptimizer::new(
            q.clone(),
            RldConfig {
                physical_strategy: PhysicalStrategy::Greedy,
                ..RldConfig::default()
            },
        )
        .optimize(&cluster)
        .unwrap();
        let optimal = RldOptimizer::new(
            q,
            RldConfig {
                physical_strategy: PhysicalStrategy::OptPrune,
                ..RldConfig::default()
            },
        )
        .optimize(&cluster)
        .unwrap();
        assert!(optimal.physical_score(&cluster) + 1e-9 >= greedy.physical_score(&cluster));
    }

    #[test]
    fn custom_estimates_can_include_rate_dimensions() {
        let q = Query::q1_stock_monitoring();
        let optimizer = RldOptimizer::new(q.clone(), RldConfig::default());
        let estimates = q
            .estimates_for(&[
                (
                    StatKey::Selectivity(rld_common::OperatorId::new(0)),
                    UncertaintyLevel::new(2),
                ),
                (
                    StatKey::InputRate(q.driving_stream),
                    UncertaintyLevel::new(2),
                ),
            ])
            .unwrap();
        let space = optimizer.build_space_from(&estimates).unwrap();
        assert_eq!(space.num_dims(), 2);
        let cluster = cluster_for(&q, 4, 100.0);
        let solution = optimizer.optimize_in_space(&cluster, space).unwrap();
        assert!(!solution.logical.is_empty());
    }

    #[test]
    fn config_builders() {
        let cfg = RldConfig::default()
            .with_epsilon(0.3)
            .with_uncertainty(4)
            .with_dimensions(3);
        assert_eq!(cfg.erp.robustness_epsilon, 0.3);
        assert_eq!(cfg.uncertainty, UncertaintyLevel::new(4));
        assert_eq!(cfg.uncertain_selectivities, 3);
    }

    #[test]
    fn deploy_produces_rld_and_hybrid_strategies() {
        use rld_engine::DistributionStrategy;
        let q = Query::q1_stock_monitoring();
        let cluster = cluster_for(&q, 4, 100.0);
        let solution = RldOptimizer::new(q, RldConfig::default())
            .optimize(&cluster)
            .unwrap();
        let rld = solution.deploy();
        assert_eq!(rld.name(), "RLD");
        let hybrid = solution.deploy_hybrid(5.0);
        assert_eq!(hybrid.name(), "HYB");
        assert_eq!(hybrid.physical(), rld.physical());
    }

    #[test]
    fn invalid_dimension_count_is_rejected() {
        let q = Query::q1_stock_monitoring();
        let cluster = cluster_for(&q, 3, 10.0);
        let optimizer = RldOptimizer::new(
            q,
            RldConfig {
                uncertain_selectivities: 99,
                ..RldConfig::default()
            },
        );
        assert!(optimizer.optimize(&cluster).is_err());
    }
}
