//! The RLD compile-time pipeline as one first-class, reusable component.
//!
//! Every consumer of the compile path — the examples, the scenario layer
//! (through the [`RldConfig`] preset), the Figs. 10–14 reproduction sweeps —
//! used to hand-assemble
//! the same chain: statistic estimates → [`ParameterSpace`] → a logical
//! solver (ES / RS / WRP / ERP) → occurrence weights → a physical solver
//! (GreedyPhy / OptPrune / exhaustive) → a deployment. [`RobustCompiler`]
//! owns that chain end to end:
//!
//! ```text
//! Query + UncertaintySpec ──► ParameterSpace
//!          │                        │
//!          ▼                        ▼
//! LogicalSolverSpec ───────► RobustLogicalSolution + SearchStats
//!          │                        │
//!          ▼                        ▼
//! OccurrenceModel ─────────► plan weights (from the partition tree)
//!          │                        │
//!          ▼                        ▼
//! PhysicalSolverSpec + Cluster ──► Deployment (serializable artifact)
//! ```
//!
//! Solvers are selected **by name** (`"ES"`, `"RS"`, `"WRP"`, `"ERP"`;
//! `"GreedyPhy"`, `"OptPrune"`) so benches and CLIs can sweep them without
//! `match`ing on concrete types.
//!
//! The [`Deployment`] artifact carries everything the runtime and the
//! analysis tooling need — plans, robust regions, occurrence weights,
//! placement, and the search statistics of both phases — and is plain
//! serializable data, so it can be persisted and re-deployed without
//! re-running the compiler.

use rld_common::{Query, Result, RldError, StatisticEstimate, UncertaintyLevel};
use rld_engine::{HybridStrategy, RldStrategy};
use rld_logical::{
    EarlyTerminatedRobustPartitioning, ErpConfig, ExhaustiveSearch, LogicalPlanGenerator,
    RandomSearch, RobustLogicalSolution, SearchStats, WeightedRobustPartitioning,
};
use rld_paramspace::{DistanceMetric, OccurrenceModel, ParameterSpace};
use rld_physical::{
    Cluster, DynPlanner, ExhaustivePhysicalSearch, GreedyPhy, OptPrune, PhysicalPlan,
    PhysicalPlanGenerator, PhysicalSearchStats, SupportModel,
};
use rld_query::JoinOrderOptimizer;

/// Which §4 algorithm produces the robust logical solution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LogicalSolverSpec {
    /// Exhaustive search (one optimizer call per grid cell) — the baseline.
    Exhaustive,
    /// Random sampling with the given seed.
    Random {
        /// Seed of the sampling sequence.
        seed: u64,
    },
    /// Weight-driven Robust Partitioning (Algorithm 2), no early termination.
    Wrp,
    /// Early-terminated Robust Partitioning (Algorithm 3) — the paper's choice.
    Erp(ErpConfig),
}

impl LogicalSolverSpec {
    /// The solver's short name as used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            LogicalSolverSpec::Exhaustive => "ES",
            LogicalSolverSpec::Random { .. } => "RS",
            LogicalSolverSpec::Wrp => "WRP",
            LogicalSolverSpec::Erp(_) => "ERP",
        }
    }

    /// Resolve a solver by its figure name (`"ES"`, `"RS"`, `"WRP"`,
    /// `"ERP"`), with default parameters (`seed` 0 for RS, the default
    /// [`ErpConfig`] for ERP — override the robustness ε via
    /// [`RobustCompiler::with_epsilon`]).
    pub fn by_name(name: &str) -> Result<Self> {
        match name {
            "ES" | "es" => Ok(LogicalSolverSpec::Exhaustive),
            "RS" | "rs" => Ok(LogicalSolverSpec::Random { seed: 0 }),
            "WRP" | "wrp" => Ok(LogicalSolverSpec::Wrp),
            "ERP" | "erp" => Ok(LogicalSolverSpec::Erp(ErpConfig::default())),
            other => Err(RldError::NotFound(format!(
                "logical solver '{other}' (known: ES, RS, WRP, ERP)"
            ))),
        }
    }
}

/// Which §5 algorithm produces the physical plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PhysicalSolverSpec {
    /// GreedyPhy (Algorithm 4): linear time, possibly sub-optimal.
    Greedy,
    /// OptPrune (Algorithm 5): optimal, branch-and-bound bounded by GreedyPhy.
    #[default]
    OptPrune,
    /// Exhaustive assignment enumeration (tiny clusters only).
    Exhaustive,
}

impl PhysicalSolverSpec {
    /// The solver's short name.
    pub fn name(&self) -> &'static str {
        match self {
            PhysicalSolverSpec::Greedy => "GreedyPhy",
            PhysicalSolverSpec::OptPrune => "OptPrune",
            PhysicalSolverSpec::Exhaustive => "ES",
        }
    }

    /// Resolve a physical solver by name (`"GreedyPhy"`, `"OptPrune"`,
    /// `"ES"`).
    pub fn by_name(name: &str) -> Result<Self> {
        match name {
            "GreedyPhy" | "greedy" | "Greedy" => Ok(PhysicalSolverSpec::Greedy),
            "OptPrune" | "optprune" => Ok(PhysicalSolverSpec::OptPrune),
            "ES" | "es" => Ok(PhysicalSolverSpec::Exhaustive),
            other => Err(RldError::NotFound(format!(
                "physical solver '{other}' (known: GreedyPhy, OptPrune, ES)"
            ))),
        }
    }

    /// Run this solver on a support model and cluster.
    pub fn generate(
        &self,
        model: &SupportModel,
        cluster: &Cluster,
    ) -> Result<(PhysicalPlan, PhysicalSearchStats)> {
        match self {
            PhysicalSolverSpec::Greedy => GreedyPhy::new().generate(model, cluster),
            PhysicalSolverSpec::OptPrune => OptPrune::new().generate(model, cluster),
            PhysicalSolverSpec::Exhaustive => {
                ExhaustivePhysicalSearch::new().generate(model, cluster)
            }
        }
    }
}

/// How the compiler derives the uncertain dimensions of the parameter space.
#[derive(Debug, Clone, PartialEq)]
// rld-allow(V1): the uncertainty half of the one compile surface (a query and its `UncertaintySpec` into a `RobustCompiler`), public ahead of its callers
pub enum UncertaintySpec {
    /// The first `dims` operator selectivities at a shared uncertainty level
    /// (the configuration the paper's experiments sweep).
    Selectivities {
        /// Number of uncertain selectivity dimensions.
        dims: usize,
        /// The uncertainty level `U` of every dimension.
        uncertainty: UncertaintyLevel,
    },
    /// Explicit statistic estimates (mix selectivities and input rates
    /// freely).
    Explicit(Vec<StatisticEstimate>),
}

/// The output of the logical half of the pipeline: everything a Figs. 10–12
/// sweep needs, before any cluster is involved.
#[derive(Debug, Clone)]
pub struct LogicalCompilation {
    /// The parameter space searched.
    pub space: ParameterSpace,
    /// The robust logical solution (plans + robust regions).
    pub solution: RobustLogicalSolution,
    /// Search statistics (optimizer calls etc., Figures 10–12).
    pub stats: SearchStats,
    /// The solver that produced it (`"ES"`, `"RS"`, `"WRP"`, `"ERP"`).
    pub solver: &'static str,
}

impl LogicalCompilation {
    /// Build the §5 support model (worst-case loads + occurrence weights)
    /// over this solution.
    pub fn support_model(
        &self,
        query: &Query,
        occurrence: OccurrenceModel,
    ) -> Result<SupportModel> {
        SupportModel::build(query, &self.space, &self.solution, occurrence)
    }
}

/// Aggregated compile-time solver statistics: the logical and physical
/// halves of one compile, flattened into the numbers worth diffing across
/// PRs. Carried on every [`Deployment`] and serialized into `BENCH_*.json`
/// via the bench harness's `BenchMeta`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SolverStats {
    /// Wall-clock time of the logical search in milliseconds.
    pub logical_wall_ms: f64,
    /// Optimizer calls issued by the logical search (Figures 10–12).
    pub optimizer_calls: usize,
    /// Wall-clock time of the physical search in milliseconds.
    pub physical_wall_ms: f64,
    /// Search-tree vertices expanded by the physical search (for GreedyPhy,
    /// LLF pack attempts).
    pub dfs_expanded: usize,
    /// Search-tree branches cut by the physical search's pruning rules.
    pub dfs_pruned: usize,
    /// Times the physical search replaced its incumbent solution.
    pub incumbent_updates: usize,
    /// [`RobustLogicalSolution::fingerprint`] of the logical solution —
    /// detects a changed plan set across runs without deep comparison.
    pub solution_fingerprint: u64,
}

impl SolverStats {
    /// Flatten the two phases' statistics into one record.
    pub(crate) fn from_parts(
        logical: &SearchStats,
        physical: &PhysicalSearchStats,
        solution_fingerprint: u64,
    ) -> Self {
        Self {
            logical_wall_ms: logical.elapsed_ms(),
            optimizer_calls: logical.optimizer_calls,
            physical_wall_ms: physical.elapsed_ms(),
            dfs_expanded: physical.nodes_expanded,
            dfs_pruned: physical.nodes_pruned,
            incumbent_updates: physical.incumbent_updates,
            solution_fingerprint,
        }
    }
}

/// The serializable artifact of a full compile: plans, robust regions,
/// occurrence weights, placement and search statistics. Everything the
/// runtime ([`Deployment::deploy`] / [`Deployment::deploy_hybrid`]) and the
/// analysis tooling consume; nothing has to be recomputed to use it.
#[derive(Debug, Clone)]
pub struct Deployment {
    /// The query the deployment serves.
    pub query: Query,
    /// The parameter space the solution was computed over.
    pub space: ParameterSpace,
    /// The robust logical solution (plans + robust regions).
    pub logical: RobustLogicalSolution,
    /// Statistics of the logical search (optimizer calls etc., Figures 10–12).
    pub logical_stats: SearchStats,
    /// Occurrence weight of each logical plan, in solution-entry order (§5.2).
    pub weights: Vec<f64>,
    /// The single robust physical plan (the placement).
    pub physical: PhysicalPlan,
    /// Statistics of the physical search (compile time etc., Figures 13–14).
    pub physical_stats: PhysicalSearchStats,
    /// The logical solver that produced the solution.
    pub logical_solver: String,
    /// The physical solver that produced the placement.
    pub physical_solver: String,
    /// The occurrence model the weights were computed under.
    pub occurrence: OccurrenceModel,
    /// The support model (worst-case loads + weights) built during the
    /// compile, reused for scoring against clusters.
    pub support: SupportModel,
    /// Fraction of the parameter space claimed by the solution's robust
    /// regions (from the partition tree, computed at compile time).
    pub claimed_coverage: f64,
    /// The classification overhead to charge at runtime.
    pub classification_overhead: f64,
    /// Flattened solver statistics of both compile phases (diffable across
    /// PRs via the bench harness).
    pub solver_stats: SolverStats,
}

impl Deployment {
    /// The support model (worst-case loads + weights) built during the
    /// compile, for scoring this deployment against clusters.
    pub fn support(&self) -> &SupportModel {
        &self.support
    }

    /// Fraction of the parameter space covered by the logical plans the
    /// physical plan supports on the given cluster (Figure 14's metric).
    pub fn physical_coverage(&self, cluster: &Cluster) -> f64 {
        let supported = self.support.supported_indices(&self.physical, cluster);
        self.logical.coverage_of(&self.space, &supported)
    }

    /// The physical plan's score: total occurrence weight of the supported
    /// logical plans.
    pub fn physical_score(&self, cluster: &Cluster) -> f64 {
        self.support.score(&self.physical, cluster)
    }

    /// Deploy the artifact as the RLD runtime strategy for the simulator.
    pub fn deploy(&self) -> RldStrategy {
        RldStrategy::new(
            &self.query,
            self.space.clone(),
            self.logical.clone(),
            self.physical.clone(),
            self.classification_overhead,
        )
    }

    /// Deploy the artifact as the hybrid runtime strategy: RLD classification
    /// over this physical plan, plus DYN-style migration (at most once per
    /// `rebalance_period_secs`) whenever the monitored statistics fall
    /// outside every robust region.
    pub fn deploy_hybrid(&self, rebalance_period_secs: f64) -> HybridStrategy {
        HybridStrategy::new(
            &self.query,
            self.space.clone(),
            self.logical.clone(),
            self.physical.clone(),
            self.classification_overhead,
            DynPlanner::new(),
            rebalance_period_secs,
        )
    }
}

/// The compile-time pipeline: query + uncertainty + solver specs +
/// occurrence model → [`Deployment`].
#[derive(Debug, Clone)]
pub struct RobustCompiler {
    query: Query,
    uncertainty: UncertaintySpec,
    grid_steps: usize,
    epsilon: f64,
    solver: LogicalSolverSpec,
    physical_solver: PhysicalSolverSpec,
    occurrence: OccurrenceModel,
    metric: DistanceMetric,
    budget: Option<usize>,
    classification_overhead: f64,
}

impl RobustCompiler {
    /// Create a compiler for a query with the paper's defaults: 2 uncertain
    /// selectivities at U = 2, a 9-step grid, ERP at ε = 0.2, the normal
    /// occurrence model, OptPrune.
    pub fn new(query: Query) -> Self {
        let erp = ErpConfig::default();
        Self {
            query,
            uncertainty: UncertaintySpec::Selectivities {
                dims: 2,
                uncertainty: UncertaintyLevel::new(2),
            },
            grid_steps: ParameterSpace::DEFAULT_STEPS,
            epsilon: erp.robustness_epsilon,
            solver: LogicalSolverSpec::Erp(erp),
            physical_solver: PhysicalSolverSpec::default(),
            occurrence: OccurrenceModel::default(),
            metric: DistanceMetric::default(),
            budget: None,
            classification_overhead: 0.02,
        }
    }

    /// The query being compiled.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// Treat the first `dims` operator selectivities as uncertain at level `u`.
    pub fn with_selectivity_dims(mut self, dims: usize, u: u32) -> Self {
        self.uncertainty = UncertaintySpec::Selectivities {
            dims,
            uncertainty: UncertaintyLevel::new(u),
        };
        self
    }

    /// Use explicit statistic estimates as the uncertain dimensions.
    pub fn with_estimates(mut self, estimates: Vec<StatisticEstimate>) -> Self {
        self.uncertainty = UncertaintySpec::Explicit(estimates);
        self
    }

    /// Grid steps per dimension of the discretized space.
    pub fn with_grid_steps(mut self, steps: usize) -> Self {
        self.grid_steps = steps;
        self
    }

    /// The robustness threshold ε of Definition 1 — the single source of
    /// truth for every solver (for ERP it overrides whatever
    /// `ErpConfig::robustness_epsilon` the solver spec carries).
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Select the logical solver. An [`LogicalSolverSpec::Erp`] spec
    /// contributes only its probabilistic early-termination parameters; the
    /// robustness ε always comes from [`RobustCompiler::with_epsilon`]
    /// (builder call order never changes the threshold).
    pub fn with_solver(mut self, solver: LogicalSolverSpec) -> Self {
        self.solver = solver;
        self
    }

    /// Select the physical solver.
    pub fn with_physical_solver(mut self, solver: PhysicalSolverSpec) -> Self {
        self.physical_solver = solver;
        self
    }

    /// Occurrence model used to weight robust logical plans.
    pub fn with_occurrence(mut self, occurrence: OccurrenceModel) -> Self {
        self.occurrence = occurrence;
        self
    }

    /// Distance metric of the §4.2 weight function (WRP/ERP only).
    pub fn with_metric(mut self, metric: DistanceMetric) -> Self {
        self.metric = metric;
        self
    }

    /// Cap the number of optimizer calls the logical solver may make
    /// (Figure 11's budget sweeps).
    pub fn with_budget(mut self, max_calls: usize) -> Self {
        self.budget = Some(max_calls);
        self
    }

    /// Runtime classification overhead charged per batch.
    pub(crate) fn with_classification_overhead(mut self, overhead: f64) -> Self {
        self.classification_overhead = overhead.max(0.0);
        self
    }

    /// Build the parameter space implied by the uncertainty spec.
    pub fn build_space(&self) -> Result<ParameterSpace> {
        let estimates = match &self.uncertainty {
            UncertaintySpec::Selectivities { dims, uncertainty } => {
                self.query.selectivity_estimates(*dims, *uncertainty)?
            }
            UncertaintySpec::Explicit(estimates) => estimates.clone(),
        };
        ParameterSpace::from_estimates(&estimates, self.query.default_stats(), self.grid_steps)
    }

    /// Run the logical half of the pipeline: space construction + the
    /// selected solver. No cluster needed.
    pub fn compile_logical(&self) -> Result<LogicalCompilation> {
        let space = self.build_space()?;
        self.compile_logical_in(space)
    }

    /// Run the logical half on an explicit, pre-built space.
    pub fn compile_logical_in(&self, space: ParameterSpace) -> Result<LogicalCompilation> {
        self.validate_solver_parameters()?;
        let optimizer = JoinOrderOptimizer::new(self.query.clone());
        let run = |generator: &dyn LogicalPlanGenerator| match self.budget {
            Some(b) => generator.generate_with_budget(b),
            None => generator.generate(),
        };
        let (solution, stats) = match &self.solver {
            LogicalSolverSpec::Exhaustive => run(&ExhaustiveSearch::new(&optimizer, &space))?,
            LogicalSolverSpec::Random { seed } => {
                run(&RandomSearch::new(&optimizer, &space, *seed))?
            }
            LogicalSolverSpec::Wrp => {
                run(
                    &WeightedRobustPartitioning::new(&optimizer, &space, self.epsilon)
                        .with_metric(self.metric),
                )?
            }
            LogicalSolverSpec::Erp(cfg) => {
                let mut cfg = *cfg;
                cfg.robustness_epsilon = self.epsilon;
                run(
                    &EarlyTerminatedRobustPartitioning::new(&optimizer, &space, cfg)
                        .with_metric(self.metric),
                )?
            }
        };
        Ok(LogicalCompilation {
            space,
            solution,
            stats,
            solver: self.solver.name(),
        })
    }

    /// Reject, before any solver is built, a robustness ε that is NaN or
    /// negative (+∞ accepts every plan) and ERP early-termination parameters
    /// outside Theorem 1's ranges: `confidence_epsilon` in (0, 1) and
    /// `area_delta` in (0, 1].
    fn validate_solver_parameters(&self) -> Result<()> {
        if self.epsilon.is_nan() || self.epsilon < 0.0 {
            return Err(RldError::InvalidArgument(format!(
                "robustness epsilon must be non-negative, got {}",
                self.epsilon
            )));
        }
        if let LogicalSolverSpec::Erp(cfg) = &self.solver {
            if !(cfg.confidence_epsilon > 0.0 && cfg.confidence_epsilon < 1.0) {
                return Err(RldError::InvalidArgument(format!(
                    "ERP confidence epsilon must be in (0, 1), got {}",
                    cfg.confidence_epsilon
                )));
            }
            if !(cfg.area_delta > 0.0 && cfg.area_delta <= 1.0) {
                return Err(RldError::InvalidArgument(format!(
                    "ERP area delta must be in (0, 1], got {}",
                    cfg.area_delta
                )));
            }
        }
        Ok(())
    }

    /// Run the full pipeline against a cluster and produce the deployment
    /// artifact.
    pub fn compile(&self, cluster: &Cluster) -> Result<Deployment> {
        let space = self.build_space()?;
        self.compile_in(cluster, space)
    }

    /// Run the full pipeline on an explicit, pre-built space.
    pub fn compile_in(&self, cluster: &Cluster, space: ParameterSpace) -> Result<Deployment> {
        let logical = self.compile_logical_in(space)?;
        if logical.solution.is_empty() {
            return Err(RldError::PlanGeneration(format!(
                "{} produced an empty robust logical solution",
                logical.solver
            )));
        }
        let support = logical.support_model(&self.query, self.occurrence)?;
        let (physical, physical_stats) = self.physical_solver.generate(&support, cluster)?;
        // The weights are already in the support model's profiles (solution
        // order) — no second pass over the regions.
        let weights = support.profiles().iter().map(|p| p.weight).collect();
        let claimed_coverage = logical.solution.claimed_coverage(&logical.space);
        let solver_stats = SolverStats::from_parts(
            &logical.stats,
            &physical_stats,
            logical.solution.fingerprint(),
        );
        Ok(Deployment {
            query: self.query.clone(),
            space: logical.space,
            logical: logical.solution,
            logical_stats: logical.stats,
            weights,
            physical,
            physical_stats,
            logical_solver: logical.solver.to_string(),
            physical_solver: self.physical_solver.name().to_string(),
            occurrence: self.occurrence,
            support,
            claimed_coverage,
            classification_overhead: self.classification_overhead,
            solver_stats,
        })
    }
}

/// The paper-shaped compile preset the scenarios deploy RLD from: uncertain
/// dimensions, uncertainty level, ε and ERP's early termination, occurrence
/// model, physical solver. [`RldConfig::compiler`] turns it into the
/// [`RobustCompiler`] invocation it describes.
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
    /// The §5 algorithm that produces the physical plan.
    pub physical_strategy: PhysicalSolverSpec,
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
            physical_strategy: PhysicalSolverSpec::default(),
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
    pub(crate) fn with_dimensions(mut self, dims: usize) -> Self {
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
            .with_physical_solver(self.physical_strategy)
            .with_occurrence(self.occurrence)
            .with_classification_overhead(self.classification_overhead)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rld_logical::CoverageEvaluator;

    fn cluster_for(query: &Query, nodes: usize, slack: f64) -> Cluster {
        let cm = rld_query::CostModel::new(query.clone());
        let plan = rld_query::LogicalPlan::identity(query);
        let loads = cm.operator_loads(&plan, &query.default_stats()).unwrap();
        let max_load = loads.iter().cloned().fold(0.0f64, f64::max);
        Cluster::homogeneous(nodes, max_load * slack).unwrap()
    }

    #[test]
    fn solver_specs_resolve_by_name() {
        assert_eq!(LogicalSolverSpec::by_name("ES").unwrap().name(), "ES");
        assert_eq!(LogicalSolverSpec::by_name("RS").unwrap().name(), "RS");
        assert_eq!(LogicalSolverSpec::by_name("WRP").unwrap().name(), "WRP");
        assert_eq!(LogicalSolverSpec::by_name("erp").unwrap().name(), "ERP");
        assert!(LogicalSolverSpec::by_name("nope").is_err());
        assert_eq!(
            PhysicalSolverSpec::by_name("GreedyPhy").unwrap().name(),
            "GreedyPhy"
        );
        assert!(PhysicalSolverSpec::by_name("nope").is_err());
    }

    /// Compile Q1 on a roomy cluster and return the error.
    fn compile_error(compiler: RobustCompiler) -> RldError {
        let cluster = cluster_for(compiler.query(), 4, 100.0);
        compiler.compile(&cluster).unwrap_err()
    }

    #[test]
    fn nan_epsilon_is_an_invalid_argument() {
        let compiler = RobustCompiler::new(Query::q1_stock_monitoring()).with_epsilon(f64::NAN);
        assert!(matches!(
            compile_error(compiler),
            RldError::InvalidArgument(_)
        ));
    }

    #[test]
    fn negative_epsilon_is_an_invalid_argument() {
        let compiler = RobustCompiler::new(Query::q1_stock_monitoring()).with_epsilon(-0.1);
        assert!(matches!(
            compile_error(compiler),
            RldError::InvalidArgument(_)
        ));
    }

    #[test]
    fn nan_epsilon_in_a_config_is_an_invalid_argument() {
        let config = RldConfig::default().with_epsilon(f64::NAN);
        let compiler = config.compiler(Query::q1_stock_monitoring());
        assert!(matches!(
            compile_error(compiler),
            RldError::InvalidArgument(_)
        ));
    }

    #[test]
    fn zero_erp_area_delta_is_an_invalid_argument() {
        let erp = ErpConfig {
            area_delta: 0.0,
            ..ErpConfig::default()
        };
        let compiler = RobustCompiler::new(Query::q1_stock_monitoring())
            .with_solver(LogicalSolverSpec::Erp(erp));
        assert!(matches!(
            compile_error(compiler),
            RldError::InvalidArgument(_)
        ));
    }

    #[test]
    fn nan_erp_confidence_epsilon_is_an_invalid_argument() {
        let erp = ErpConfig {
            confidence_epsilon: f64::NAN,
            ..ErpConfig::default()
        };
        let compiler = RobustCompiler::new(Query::q1_stock_monitoring())
            .with_solver(LogicalSolverSpec::Erp(erp));
        assert!(matches!(
            compile_error(compiler),
            RldError::InvalidArgument(_)
        ));
    }

    #[test]
    fn infinite_epsilon_compiles() {
        let q = Query::q1_stock_monitoring();
        let cluster = cluster_for(&q, 4, 100.0);
        let deployment = RobustCompiler::new(q)
            .with_epsilon(f64::INFINITY)
            .compile(&cluster)
            .unwrap();
        assert!(!deployment.logical.is_empty());
    }

    #[test]
    fn compile_produces_a_complete_artifact() {
        let q = Query::q1_stock_monitoring();
        let cluster = cluster_for(&q, 4, 100.0);
        let deployment = RobustCompiler::new(q.clone())
            .with_selectivity_dims(2, 3)
            .with_epsilon(0.2)
            .compile(&cluster)
            .unwrap();
        assert_eq!(deployment.logical_solver, "ERP");
        assert_eq!(deployment.physical_solver, "OptPrune");
        assert!(!deployment.logical.is_empty());
        assert_eq!(deployment.weights.len(), deployment.logical.len());
        assert!(deployment.logical_stats.optimizer_calls > 0);
        assert!(deployment.claimed_coverage > 0.0 && deployment.claimed_coverage <= 1.0 + 1e-12);
        assert!(deployment.physical_coverage(&cluster) > 0.5);
        assert!(deployment.physical_score(&cluster) > 0.0);
        // The weights recorded in the artifact match a fresh support model.
        let support = deployment.support();
        for (w, p) in deployment.weights.iter().zip(support.profiles()) {
            assert!((w - p.weight).abs() < 1e-12);
        }
        // The flattened solver stats agree with the per-phase records.
        let ss = deployment.solver_stats;
        assert_eq!(ss.optimizer_calls, deployment.logical_stats.optimizer_calls);
        assert_eq!(ss.dfs_expanded, deployment.physical_stats.nodes_expanded);
        assert_eq!(ss.solution_fingerprint, deployment.logical.fingerprint());
        assert!(ss.logical_wall_ms >= 0.0 && ss.physical_wall_ms >= 0.0);
    }

    #[test]
    fn every_logical_solver_compiles_q1() {
        let q = Query::q1_stock_monitoring();
        for name in ["ES", "RS", "WRP", "ERP"] {
            let compilation = RobustCompiler::new(q.clone())
                .with_selectivity_dims(2, 2)
                .with_epsilon(0.2)
                .with_solver(LogicalSolverSpec::by_name(name).unwrap())
                .compile_logical()
                .unwrap();
            assert_eq!(compilation.solver, name);
            assert!(!compilation.solution.is_empty(), "{name} found no plans");
            assert!(compilation.stats.optimizer_calls > 0);
        }
    }

    #[test]
    fn epsilon_survives_any_builder_order() {
        // self.epsilon is the single source of truth: selecting a solver
        // after setting ε must not silently reset it to the spec's default.
        let q = Query::q1_stock_monitoring();
        let eps_first = RobustCompiler::new(q.clone())
            .with_selectivity_dims(2, 3)
            .with_epsilon(0.35)
            .with_solver(LogicalSolverSpec::Erp(ErpConfig::default()))
            .compile_logical()
            .unwrap();
        let eps_last = RobustCompiler::new(q)
            .with_selectivity_dims(2, 3)
            .with_solver(LogicalSolverSpec::Erp(ErpConfig::default()))
            .with_epsilon(0.35)
            .compile_logical()
            .unwrap();
        assert_eq!(eps_first.solution, eps_last.solution);
        assert_eq!(
            eps_first.stats.optimizer_calls,
            eps_last.stats.optimizer_calls
        );
    }

    #[test]
    fn deployment_round_trips_into_runtime_strategies() {
        use rld_engine::DistributionStrategy;
        let q = Query::q1_stock_monitoring();
        let cluster = cluster_for(&q, 4, 100.0);
        let deployment = RobustCompiler::new(q).compile(&cluster).unwrap();
        let rld = deployment.deploy();
        assert_eq!(rld.name(), "RLD");
        let hyb = deployment.deploy_hybrid(5.0);
        assert_eq!(hyb.name(), "HYB");
        assert_eq!(hyb.physical(), rld.physical());
    }

    #[test]
    fn deploy_produces_rld_and_hybrid_strategies() {
        use rld_engine::DistributionStrategy;
        let q = Query::q1_stock_monitoring();
        let cluster = cluster_for(&q, 4, 100.0);
        let solution = RldConfig::default().compiler(q).compile(&cluster).unwrap();
        let rld = solution.deploy();
        assert_eq!(rld.name(), "RLD");
        let hybrid = solution.deploy_hybrid(5.0);
        assert_eq!(hybrid.name(), "HYB");
        assert_eq!(hybrid.physical(), rld.physical());
    }

    #[test]
    fn end_to_end_q1_produces_full_coverage_with_ample_resources() {
        let q = Query::q1_stock_monitoring();
        let cluster = cluster_for(&q, 4, 100.0);
        let config = RldConfig::default();
        let solution = config.compiler(q.clone()).compile(&cluster).unwrap();
        assert!(!solution.logical.is_empty());
        assert!(solution.logical_stats.optimizer_calls > 0);
        assert_eq!(solution.physical.num_operators(), 5);
        // Ample resources: every logical plan supported.
        assert_eq!(solution.physical_stats.dropped_plans, 0);
        assert!(solution.physical_coverage(&cluster) > 0.9);
        let evaluator =
            CoverageEvaluator::new(q, solution.space.clone(), config.erp.robustness_epsilon)
                .unwrap();
        let true_cov = evaluator.true_coverage(&solution.logical).unwrap();
        assert!(true_cov > 0.8, "true coverage {true_cov}");
    }

    #[test]
    fn greedy_and_optprune_strategies_both_work() {
        let q = Query::q1_stock_monitoring();
        let cluster = cluster_for(&q, 3, 2.0);
        let compile = |physical_strategy| {
            RldConfig {
                physical_strategy,
                ..RldConfig::default()
            }
            .compiler(q.clone())
            .compile(&cluster)
            .unwrap()
        };
        let greedy = compile(PhysicalSolverSpec::Greedy);
        let optimal = compile(PhysicalSolverSpec::OptPrune);
        assert!(optimal.physical_score(&cluster) + 1e-9 >= greedy.physical_score(&cluster));
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
    fn invalid_dimension_count_is_rejected() {
        let q = Query::q1_stock_monitoring();
        let cluster = cluster_for(&q, 3, 10.0);
        let config = RldConfig {
            uncertain_selectivities: 99,
            ..RldConfig::default()
        };
        assert!(config.compiler(q).compile(&cluster).is_err());
    }

    #[test]
    fn budget_is_forwarded_to_the_solver() {
        let q = Query::q1_stock_monitoring();
        let compilation = RobustCompiler::new(q)
            .with_selectivity_dims(2, 3)
            .with_solver(LogicalSolverSpec::Exhaustive)
            .with_budget(10)
            .compile_logical()
            .unwrap();
        assert_eq!(compilation.stats.optimizer_calls, 10);
        assert!(compilation.stats.terminated_early);
    }

    #[test]
    fn explicit_estimates_build_mixed_spaces() {
        use rld_common::StatKey;
        let q = Query::q1_stock_monitoring();
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
        let compiler = RobustCompiler::new(q).with_estimates(estimates);
        let space = compiler.build_space().unwrap();
        assert_eq!(space.num_dims(), 2);
        assert!(!compiler.compile_logical().unwrap().solution.is_empty());
    }

    #[test]
    fn custom_estimates_can_include_rate_dimensions() {
        use rld_common::StatKey;
        let q = Query::q1_stock_monitoring();
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
        let cluster = cluster_for(&q, 4, 100.0);
        let compiler = RldConfig::default().compiler(q).with_estimates(estimates);
        let space = compiler.build_space().unwrap();
        assert_eq!(space.num_dims(), 2);
        let solution = compiler.compile_in(&cluster, space).unwrap();
        assert!(!solution.logical.is_empty());
    }
}
