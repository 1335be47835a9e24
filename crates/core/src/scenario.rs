//! Scenario layer: named, runnable experiment setups.
//!
//! A [`Scenario`] bundles everything one runtime experiment needs — the
//! query, the cluster, the workload, the simulation parameters, and the set
//! of [`StrategySpec`]s to compare — so that bench binaries, integration
//! tests and examples stop hand-assembling deployments. Scenarios come from
//! two places:
//!
//! * [`Scenario::builder`] — compose one programmatically (the Figs. 15a/16
//!   sweeps of `rld-bench`'s `reproduce` do this per point), or
//! * [`builtin`] — look a predefined scenario up **by name** (the
//!   `scenario` bench binary and the integration tests do this).
//!
//! Running a scenario builds each strategy fresh (so every strategy starts
//! from the same compile-time inputs), simulates it against the shared
//! workload, and reports per-strategy metrics. Strategies whose compile-time
//! deployment is infeasible on the scenario's cluster are reported as
//! skipped instead of aborting the comparison — the paper's ROD similarly
//! drops out of regimes it cannot keep up with.

use crate::baselines::{check_rebalance_period, deploy_dyn, deploy_rod};
use crate::compiler::{Deployment, PhysicalSolverSpec, RldConfig, SolverStats};
use rld_common::{NodeId, Query, Result, RldError};
use rld_engine::{
    DistributionStrategy, FaultPlan, RecoverySemantic, RunMetrics, SimConfig, Simulator,
};
use rld_exec::{ColumnarConfig, ColumnarExecutor, ExecReport};
use rld_physical::Cluster;
use rld_query::{CostModel, JoinOrderOptimizer, Optimizer};
use rld_workloads::{RatePattern, SelectivityPattern, StockWorkload, SyntheticWorkload, Workload};

/// Seed shared by every predefined scenario and the experiment harness.
pub const SCENARIO_SEED: u64 = 0xF1D0_2013;

/// Short names of the strategies [`ScenarioBuilder::default_strategies`]
/// configures, in run order — the column order of the figure tables.
pub const DEFAULT_STRATEGY_NAMES: [&str; 4] = ["ROD", "DYN", "RLD", "HYB"];

/// Which execution backend a scenario runs its strategies on. Every builtin
/// scenario runs on either backend unchanged — same query, cluster,
/// workload, fault plan, strategies, and seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// The discrete-tick simulator (`rld-engine`): work is an abstract
    /// scalar, queueing is modelled, runs are bit-deterministic per seed.
    #[default]
    Simulate,
    /// The executor (`rld-exec`): real tuples through fused operator chains
    /// over struct-of-arrays batches, evaluated hop by hop where the
    /// placement pins them; latencies are wall-clock.
    Execute,
}

impl Backend {
    /// The backend's short name (`"simulate"` / `"execute"`).
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Simulate => "simulate",
            Backend::Execute => "execute",
        }
    }

    /// Look a backend up by name; `columnar`, `col` and `execute-columnar`
    /// stay aliases of `execute`.
    pub fn by_name(name: &str) -> Result<Self> {
        match name {
            "simulate" | "sim" => Ok(Backend::Simulate),
            "execute" | "exec" | "execute-columnar" | "columnar" | "col" => Ok(Backend::Execute),
            other => Err(RldError::NotFound(format!(
                "backend '{other}' (known: simulate, execute)"
            ))),
        }
    }
}

/// Which deployment policy to build for a scenario, and with which
/// compile-time inputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StrategySpec {
    /// The paper's contribution: robust logical solution + robust physical
    /// plan, compiled by the [`crate::compiler::RobustCompiler`] with this
    /// configuration.
    Rld(RldConfig),
    /// The static baseline: one plan, one placement, no adaptation.
    Rod,
    /// The migrating baseline, rebalancing every `rebalance_period_secs`.
    Dyn {
        /// How often the controller re-evaluates the placement, in seconds.
        rebalance_period_secs: f64,
    },
    /// RLD classification plus out-of-region migration fallback.
    Hybrid {
        /// The RLD compile-time configuration.
        config: RldConfig,
        /// How often the fallback controller may migrate, in seconds.
        rebalance_period_secs: f64,
    },
}

impl StrategySpec {
    /// The strategy's short name as used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            StrategySpec::Rld(_) => "RLD",
            StrategySpec::Rod => "ROD",
            StrategySpec::Dyn { .. } => "DYN",
            StrategySpec::Hybrid { .. } => "HYB",
        }
    }

    /// The RLD compile-time configuration this spec deploys from, if any.
    fn rld_config(&self) -> Option<&RldConfig> {
        match self {
            StrategySpec::Rld(config) | StrategySpec::Hybrid { config, .. } => Some(config),
            StrategySpec::Rod | StrategySpec::Dyn { .. } => None,
        }
    }

    /// Build the runtime strategy for a query on a cluster. RLD and Hybrid
    /// compile a full [`Deployment`] through the
    /// [`crate::compiler::RobustCompiler`]; ROD and DYN plan at the query's
    /// default statistics. ([`Scenario::run`] shares one compile between
    /// specs with the same configuration instead of calling this.)
    pub fn build(&self, query: &Query, cluster: &Cluster) -> Result<Box<dyn DistributionStrategy>> {
        let deployment = match self.rld_config() {
            Some(config) => Some(config.compiler(query.clone()).compile(cluster)?),
            None => None,
        };
        self.build_from(query, cluster, deployment.as_ref())
    }

    /// Build the runtime strategy, deploying RLD/Hybrid from an already
    /// compiled deployment. `solution` is required exactly when
    /// [`Self::rld_config`] is `Some`.
    fn build_from(
        &self,
        query: &Query,
        cluster: &Cluster,
        solution: Option<&Deployment>,
    ) -> Result<Box<dyn DistributionStrategy>> {
        let solution_for = |spec: &Self| {
            solution.ok_or_else(|| {
                RldError::InvalidArgument(format!(
                    "{} spec needs a compile-time RLD solution",
                    spec.name()
                ))
            })
        };
        match self {
            StrategySpec::Rld(_) => Ok(Box::new(solution_for(self)?.deploy())),
            StrategySpec::Rod => {
                deploy_rod(query, &query.default_stats(), cluster).map(|s| Box::new(s) as _)
            }
            StrategySpec::Dyn {
                rebalance_period_secs,
            } => deploy_dyn(
                query,
                &query.default_stats(),
                cluster,
                *rebalance_period_secs,
            )
            .map(|s| Box::new(s) as _),
            StrategySpec::Hybrid {
                rebalance_period_secs,
                ..
            } => solution_for(self)?
                .deploy_hybrid(*rebalance_period_secs)
                .map(|s| Box::new(s) as _),
        }
    }
}

/// The outcome of one strategy within a scenario run.
#[derive(Debug, Clone)]
pub struct StrategyOutcome {
    /// The strategy's short name (`"RLD"`, `"ROD"`, `"DYN"`, `"HYB"`).
    pub strategy: String,
    /// The run's metrics, when the strategy could be deployed.
    pub metrics: Option<RunMetrics>,
    /// Why the strategy was skipped (compile-time deployment infeasible).
    pub skipped: Option<String>,
    /// Compile-time solver statistics, for strategies deployed through the
    /// [`crate::compiler::RobustCompiler`] (RLD and HYB).
    pub solver_stats: Option<SolverStats>,
    /// What the executor measured (tuples/s, wall-latency percentiles,
    /// stage timings, per-node busy time, migration pause), for outcomes of
    /// [`Backend::Execute`]; `None` on the simulator. Its `metrics` are
    /// [`Self::metrics`].
    pub exec: Option<ExecReport>,
}

/// The result of running every strategy of a scenario.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// The scenario's name.
    pub scenario: String,
    /// The backend the strategies ran on (`"simulate"` / `"execute"`).
    pub backend: String,
    /// One outcome per configured strategy, in configuration order.
    pub outcomes: Vec<StrategyOutcome>,
}

impl ScenarioReport {
    /// The metrics of every strategy that actually ran.
    pub fn metrics(&self) -> impl Iterator<Item = &RunMetrics> {
        self.outcomes.iter().filter_map(|o| o.metrics.as_ref())
    }

    /// The metrics of one strategy by short name, if it ran.
    pub fn metrics_for(&self, name: &str) -> Option<&RunMetrics> {
        self.metrics().find(|m| m.system == name)
    }
}

/// A named, runnable runtime experiment: query + cluster + workload +
/// simulation parameters + the strategies to compare.
pub struct Scenario {
    name: String,
    description: String,
    query: Query,
    cluster: Cluster,
    workload: Box<dyn Workload>,
    sim: SimConfig,
    faults: FaultPlan,
    strategies: Vec<StrategySpec>,
}

impl Scenario {
    /// Start building a scenario for a query.
    pub fn builder(name: impl Into<String>, query: Query) -> ScenarioBuilder {
        ScenarioBuilder {
            name: name.into(),
            description: String::new(),
            query,
            cluster: None,
            workload: None,
            sim: SimConfig {
                seed: SCENARIO_SEED,
                ..SimConfig::default()
            },
            faults: FaultPlan::none(),
            strategies: Vec::new(),
        }
    }

    /// The scenario's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// One-line description of what the scenario exercises.
    pub fn description(&self) -> &str {
        &self.description
    }

    /// The query under test.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// The cluster the strategies deploy onto.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The workload driving the run.
    pub fn workload(&self) -> &dyn Workload {
        self.workload.as_ref()
    }

    /// The simulation parameters.
    pub fn sim_config(&self) -> &SimConfig {
        &self.sim
    }

    /// The fault plan every strategy is exercised against (empty when the
    /// scenario simulates a fault-free cluster). The plan is part of the
    /// scenario definition, so fault experiments serialize with it.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    /// The strategies this scenario compares, in run order.
    pub fn strategies(&self) -> &[StrategySpec] {
        &self.strategies
    }

    /// Build every strategy, run each against the workload on the
    /// simulator, and collect the per-strategy outcomes. Deployment failures
    /// become skips; simulation failures propagate. The expensive RLD
    /// compile-time optimization is shared between specs with the same
    /// configuration (the default line-up deploys RLD and Hybrid from one
    /// solution).
    pub fn run(&self) -> Result<ScenarioReport> {
        self.run_on(Backend::Simulate)
    }

    /// Like [`Self::run`], on an explicit execution backend: the simulator
    /// models the run at tick granularity, the executor pushes real tuple
    /// batches through the placement's hops and keeps what it measured on
    /// each outcome ([`StrategyOutcome::exec`]). Everything else — the compile,
    /// the strategies, the workload timeline, the fault plan, the seed — is
    /// identical.
    pub fn run_on(&self, backend: Backend) -> Result<ScenarioReport> {
        enum Runner {
            Sim(Simulator),
            Exec(ColumnarExecutor),
        }
        let runner = match backend {
            Backend::Simulate => Runner::Sim(
                Simulator::new(self.query.clone(), self.cluster.clone(), self.sim)?
                    .with_faults(self.faults.clone())?,
            ),
            Backend::Execute => Runner::Exec(
                ColumnarExecutor::new(
                    self.query.clone(),
                    self.cluster.clone(),
                    ColumnarConfig::from_sim(self.sim),
                )?
                .with_faults(self.faults.clone())?,
            ),
        };
        let mut solved: Vec<(RldConfig, std::result::Result<Deployment, String>)> = Vec::new();
        let mut solve = |config: &RldConfig| {
            if let Some((_, cached)) = solved.iter().find(|(c, _)| c == config) {
                return cached.clone();
            }
            let result = config
                .compiler(self.query.clone())
                .compile(&self.cluster)
                .map_err(|e| e.to_string());
            solved.push((*config, result.clone()));
            result
        };
        let mut outcomes = Vec::with_capacity(self.strategies.len());
        for spec in &self.strategies {
            let mut solver_stats: Option<SolverStats> = None;
            let built: std::result::Result<Box<dyn DistributionStrategy>, String> =
                match spec.rld_config() {
                    Some(config) => solve(config).and_then(|solution| {
                        solver_stats = Some(solution.solver_stats);
                        spec.build_from(&self.query, &self.cluster, Some(&solution))
                            .map_err(|e| e.to_string())
                    }),
                    None => spec
                        .build_from(&self.query, &self.cluster, None)
                        .map_err(|e| e.to_string()),
                };
            match built {
                Ok(mut strategy) => {
                    let (metrics, exec) = match &runner {
                        Runner::Sim(sim) => {
                            (sim.run(self.workload.as_ref(), strategy.as_mut())?, None)
                        }
                        Runner::Exec(executor) => {
                            let report = executor.run_report(
                                self.workload.as_ref(),
                                strategy.as_mut(),
                                false,
                            )?;
                            (report.metrics.clone(), Some(report))
                        }
                    };
                    outcomes.push(StrategyOutcome {
                        strategy: metrics.system.clone(),
                        metrics: Some(metrics),
                        skipped: None,
                        solver_stats,
                        exec,
                    });
                }
                Err(reason) => outcomes.push(StrategyOutcome {
                    strategy: spec.name().to_string(),
                    metrics: None,
                    skipped: Some(reason),
                    solver_stats: None,
                    exec: None,
                }),
            }
        }
        Ok(ScenarioReport {
            scenario: self.name.clone(),
            backend: backend.name().to_string(),
            outcomes,
        })
    }
}

/// Builder for [`Scenario`].
// rld-allow(V1): returned by the public `Scenario::builder`
pub struct ScenarioBuilder {
    name: String,
    description: String,
    query: Query,
    cluster: Option<Cluster>,
    workload: Option<Box<dyn Workload>>,
    sim: SimConfig,
    faults: FaultPlan,
    strategies: Vec<StrategySpec>,
}

impl ScenarioBuilder {
    /// Set the one-line description.
    pub fn describe(mut self, description: impl Into<String>) -> Self {
        self.description = description.into();
        self
    }

    /// Use an explicit cluster.
    pub fn cluster(mut self, cluster: Cluster) -> Self {
        self.cluster = Some(cluster);
        self
    }

    /// Use a homogeneous cluster sized by [`runtime_capacity`]: `nodes`
    /// machines sharing `slack`× the query's estimate-point load.
    pub fn homogeneous_cluster(mut self, nodes: usize, slack: f64) -> Self {
        let capacity = runtime_capacity(&self.query, nodes, slack);
        self.cluster = Some(Cluster::homogeneous(nodes, capacity).expect("valid cluster"));
        self
    }

    /// Set the workload.
    pub fn workload(mut self, workload: impl Workload + 'static) -> Self {
        self.workload = Some(Box::new(workload));
        self
    }

    /// Replace the simulation parameters wholesale — including the seed,
    /// which [`SimConfig::default`] sets differently from [`SCENARIO_SEED`];
    /// chain [`Self::seed`] afterwards to stay comparable with the builtin
    /// scenarios.
    pub fn sim(mut self, sim: SimConfig) -> Self {
        self.sim = sim;
        self
    }

    /// Set only the simulated duration.
    pub fn duration_secs(mut self, duration_secs: f64) -> Self {
        self.sim.duration_secs = duration_secs;
        self
    }

    /// Set only the arrival-process seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.sim.seed = seed;
        self
    }

    /// Exercise every strategy against a fault plan (node crashes,
    /// recoveries, straggler ramps), applied at tick granularity.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Add one strategy to the comparison.
    pub fn strategy(mut self, spec: StrategySpec) -> Self {
        self.strategies.push(spec);
        self
    }

    /// Add the full §6.5 line-up — ROD, DYN, RLD and the Hybrid — with the
    /// given RLD configuration and a 5 s rebalance period for the migrating
    /// strategies.
    pub fn default_strategies(mut self, rld: RldConfig) -> Self {
        self.strategies.extend([
            StrategySpec::Rod,
            StrategySpec::Dyn {
                rebalance_period_secs: 5.0,
            },
            StrategySpec::Rld(rld),
            StrategySpec::Hybrid {
                config: rld,
                rebalance_period_secs: 5.0,
            },
        ]);
        self
    }

    /// Finish the scenario. Requires a cluster, a workload, at least one
    /// strategy, a fault plan that names only the cluster's nodes and a
    /// positive rebalance period on every DYN and HYB strategy.
    pub fn build(self) -> Result<Scenario> {
        let cluster = self
            .cluster
            .ok_or_else(|| RldError::InvalidArgument("scenario needs a cluster".into()))?;
        let workload = self
            .workload
            .ok_or_else(|| RldError::InvalidArgument("scenario needs a workload".into()))?;
        if self.strategies.is_empty() {
            return Err(RldError::InvalidArgument(
                "scenario needs at least one strategy".into(),
            ));
        }
        self.faults.validate_for(cluster.num_nodes())?;
        for spec in &self.strategies {
            if let StrategySpec::Dyn {
                rebalance_period_secs,
            }
            | StrategySpec::Hybrid {
                rebalance_period_secs,
                ..
            } = spec
            {
                check_rebalance_period(*rebalance_period_secs)?;
            }
        }
        Ok(Scenario {
            name: self.name,
            description: self.description,
            query: self.query,
            cluster,
            workload,
            sim: self.sim,
            faults: self.faults,
            strategies: self.strategies,
        })
    }
}

/// Cluster capacity used by the runtime experiments: enough to process the
/// estimate-point load with the given slack factor spread over `nodes`
/// nodes, but never below what the heaviest single operator needs.
pub fn runtime_capacity(query: &Query, nodes: usize, slack: f64) -> f64 {
    let cm = CostModel::new(query.clone());
    let opt = JoinOrderOptimizer::new(query.clone());
    let plan = opt.optimize(&query.default_stats()).expect("plan");
    let loads = cm
        .operator_loads(&plan, &query.default_stats())
        .expect("loads");
    let total: f64 = loads.iter().sum();
    let max_single = loads.iter().cloned().fold(0.0f64, f64::max);
    ((total * slack) / nodes as f64).max(max_single * 1.05)
}

/// The fluctuating workload used by the runtime experiments (Figures 15–16):
/// stream rates follow `rate`, and operator selectivities switch between two
/// regimes every `period_secs` — in regime A the even-indexed operators are
/// selective and the odd ones are not, in regime B the roles flip. This is
/// the Q2-scale analogue of the paper's bullish/bearish Example 1 and is what
/// makes a fixed plan ordering (ROD / DYN) pay for not adapting.
pub fn regime_switching_workload(
    query: &Query,
    period_secs: f64,
    rate: RatePattern,
) -> SyntheticWorkload {
    // Only the first four operators fluctuate (alternating directions); the
    // rest stay at their estimates. This matches the uncertainty RLD is told
    // about in [`runtime_rld_config`] — the paper's guarantee only holds for
    // fluctuations inside the modelled parameter space.
    let n = query.num_operators();
    let fluctuating = n.min(4);
    let regime_a: Vec<f64> = (0..n)
        .map(|i| {
            if i >= fluctuating {
                1.0
            } else if i % 2 == 0 {
                0.5
            } else {
                1.5
            }
        })
        .collect();
    let regime_b: Vec<f64> = (0..n)
        .map(|i| {
            if i >= fluctuating {
                1.0
            } else if i % 2 == 0 {
                1.5
            } else {
                0.5
            }
        })
        .collect();
    SyntheticWorkload::new(
        format!("regime-switch-{period_secs}s"),
        query.clone(),
        rate,
        SelectivityPattern::RegimeSwitch {
            period_secs,
            regimes: vec![regime_a, regime_b],
        },
    )
}

/// The RLD configuration used by the runtime experiments: a parameter space
/// wide enough (U = 5 → ±50%) to cover the regime switches above, and a tight
/// robustness threshold so the routed plans stay close to optimal.
pub fn runtime_rld_config() -> RldConfig {
    let mut config = RldConfig::default()
        .with_uncertainty(5)
        .with_epsilon(0.1)
        .with_dimensions(4);
    config.grid_steps = 7;
    config
}

/// Names of every predefined scenario, in presentation order.
pub fn builtin_names() -> Vec<&'static str> {
    vec![
        "q1-stock",
        "q1-overload",
        "q2-regime-switch",
        "q2-rate-steps",
        "q1-wide-cluster",
        "q1-node-crash",
        "q2-straggler",
        "q1-flap",
    ]
}

/// Names of the fault-plane scenarios (a subset of [`builtin_names`]), in
/// presentation order — what `reproduce`'s fault sweep runs.
pub fn fault_scenario_names() -> Vec<&'static str> {
    vec!["q1-node-crash", "q2-straggler", "q1-flap"]
}

/// Look a predefined scenario up by name. Unknown names list the known ones.
pub fn builtin(name: &str) -> Result<Scenario> {
    match name {
        "q1-stock" => {
            let query = Query::q1_stock_monitoring();
            Scenario::builder("q1-stock", query)
                .describe("Q1 under bullish/bearish regime switches on a comfortable cluster")
                .homogeneous_cluster(4, 3.0)
                .workload(StockWorkload::default_config())
                .duration_secs(300.0)
                .default_strategies(RldConfig::default().with_uncertainty(3))
                .build()
        }
        "q1-overload" => {
            let query = Query::q1_stock_monitoring();
            let workload = StockWorkload::new(
                20.0,
                RatePattern::Periodic {
                    period_secs: 20.0,
                    high_scale: 2.0,
                    low_scale: 0.5,
                },
            );
            Scenario::builder("q1-overload", query)
                .describe("Q1 on a tight cluster with periodic 2x rate surges: DYN must migrate")
                .homogeneous_cluster(4, 1.6)
                .workload(workload)
                .duration_secs(240.0)
                .default_strategies(RldConfig::default().with_uncertainty(3))
                .build()
        }
        "q2-regime-switch" => {
            let query = Query::q2_ten_way_join();
            let workload = regime_switching_workload(
                &query,
                90.0,
                RatePattern::Periodic {
                    period_secs: 10.0,
                    high_scale: 2.0,
                    low_scale: 0.5,
                },
            );
            Scenario::builder("q2-regime-switch", query)
                .describe("Q2 with selectivity regime switches and 2x/0.5x rate alternation")
                .homogeneous_cluster(10, 3.0)
                .workload(workload)
                .duration_secs(900.0)
                .default_strategies(runtime_rld_config())
                .build()
        }
        "q2-rate-steps" => {
            let query = Query::q2_ten_way_join();
            let workload = regime_switching_workload(
                &query,
                90.0,
                RatePattern::Steps(vec![(0.0, 0.5), (1200.0, 1.0), (2400.0, 2.0)]),
            );
            Scenario::builder("q2-rate-steps", query)
                .describe("Q2 with input rates stepping 50% -> 100% -> 200% (Figure 15b)")
                .homogeneous_cluster(10, 2.5)
                .workload(workload)
                .duration_secs(3600.0)
                .default_strategies(runtime_rld_config())
                .build()
        }
        "q1-wide-cluster" => {
            let query = Query::q1_stock_monitoring();
            // 128 heterogeneous machines in three capacity tiers. The tier
            // pattern is fixed (not seeded) so the scenario is identical on
            // every backend and every run.
            let base = runtime_capacity(&query, 128, 3.0);
            let tiers = [1.0, 1.25, 1.5];
            let capacities: Vec<f64> = (0..128).map(|i| base * tiers[i % tiers.len()]).collect();
            let mut config = RldConfig::default().with_uncertainty(3);
            // OptPrune requires a homogeneous cluster; the wide tiered cluster
            // exercises the heap-based LLF packing inside GreedyPhy instead.
            config.physical_strategy = PhysicalSolverSpec::Greedy;
            Scenario::builder("q1-wide-cluster", query)
                .describe(
                    "Q1 spread across 128 heterogeneous nodes (three capacity tiers): \
                     stresses the scaled GreedyPhy/LLF packing path",
                )
                .cluster(Cluster::new(capacities)?)
                .workload(StockWorkload::default_config())
                .duration_secs(60.0)
                .default_strategies(config)
                .build()
        }
        "q1-node-crash" => {
            let query = Query::q1_stock_monitoring();
            Scenario::builder("q1-node-crash", query)
                .describe(
                    "Q1 with node 1 crashing at t=60s and recovering at t=180s (backlog lost): \
                     DYN/HYB fail over, RLD/ROD ride it out",
                )
                .homogeneous_cluster(4, 3.0)
                .workload(StockWorkload::default_config())
                .duration_secs(300.0)
                .faults(FaultPlan::node_crash(
                    NodeId::new(1),
                    60.0,
                    180.0,
                    RecoverySemantic::Lost,
                )?)
                .default_strategies(RldConfig::default().with_uncertainty(3))
                .build()
        }
        "q2-straggler" => {
            let query = Query::q2_ten_way_join();
            let workload = regime_switching_workload(&query, 90.0, RatePattern::Constant(1.0));
            Scenario::builder("q2-straggler", query)
                .describe(
                    "Q2 with node 3 ramping down to 25% capacity over 2 minutes, holding, \
                     then restoring: stragglers inflate latency until strategies shed load",
                )
                .homogeneous_cluster(10, 3.0)
                .workload(workload)
                .duration_secs(420.0)
                .faults(FaultPlan::straggler_ramp(
                    NodeId::new(3),
                    60.0,
                    120.0,
                    120.0,
                    0.25,
                    4,
                )?)
                .default_strategies(runtime_rld_config())
                .build()
        }
        "q1-flap" => {
            let query = Query::q1_stock_monitoring();
            Scenario::builder("q1-flap", query)
                .describe(
                    "Q1 with node 2 flapping (seed-derived crash/recover intervals): \
                     repeated failover stresses migration bookkeeping",
                )
                .homogeneous_cluster(4, 3.0)
                .workload(StockWorkload::default_config())
                .duration_secs(300.0)
                .faults(FaultPlan::flapping(
                    SCENARIO_SEED,
                    NodeId::new(2),
                    30.0,
                    270.0,
                    50.0,
                    20.0,
                    RecoverySemantic::Replay,
                )?)
                .default_strategies(RldConfig::default().with_uncertainty(3))
                .build()
        }
        other => Err(RldError::NotFound(format!(
            "scenario '{other}' (known: {})",
            builtin_names().join(", ")
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_requires_cluster_workload_and_strategies() {
        let q = Query::q1_stock_monitoring();
        assert!(Scenario::builder("empty", q.clone()).build().is_err());
        assert!(Scenario::builder("no-workload", q.clone())
            .homogeneous_cluster(4, 3.0)
            .strategy(StrategySpec::Rod)
            .build()
            .is_err());
        assert!(Scenario::builder("no-strategy", q)
            .homogeneous_cluster(4, 3.0)
            .workload(StockWorkload::default_config())
            .build()
            .is_err());
    }

    #[test]
    fn builtin_names_all_resolve() {
        for name in builtin_names() {
            let s = builtin(name).unwrap();
            assert_eq!(s.name(), name);
            assert!(!s.strategies().is_empty());
            assert!(!s.description().is_empty());
        }
        assert!(builtin("no-such-scenario").is_err());
    }

    #[test]
    fn fault_builtins_carry_fault_plans_and_others_do_not() {
        for name in fault_scenario_names() {
            let s = builtin(name).unwrap();
            assert!(
                !s.fault_plan().is_empty(),
                "{name} must schedule fault events"
            );
            assert!(builtin_names().contains(&name));
        }
        assert!(builtin("q1-stock").unwrap().fault_plan().is_empty());
        // Crash scenarios actually crash; the straggler only degrades.
        assert!(builtin("q1-node-crash").unwrap().fault_plan().num_crashes() == 1);
        assert!(builtin("q1-flap").unwrap().fault_plan().num_crashes() >= 1);
        assert_eq!(
            builtin("q2-straggler").unwrap().fault_plan().num_crashes(),
            0
        );
    }

    #[test]
    fn builder_rejects_fault_plans_naming_missing_nodes() {
        let q = Query::q1_stock_monitoring();
        let result = Scenario::builder("bad-faults", q)
            .homogeneous_cluster(2, 3.0)
            .workload(StockWorkload::default_config())
            .strategy(StrategySpec::Rod)
            .faults(
                FaultPlan::node_crash(NodeId::new(9), 10.0, 20.0, RecoverySemantic::Lost).unwrap(),
            )
            .build();
        assert!(result.is_err());
    }

    #[test]
    fn builder_refuses_a_nan_zero_or_negative_rebalance_period() {
        let build = |spec: StrategySpec| {
            Scenario::builder("bad-period", Query::q1_stock_monitoring())
                .homogeneous_cluster(4, 3.0)
                .workload(StockWorkload::default_config())
                .strategy(spec)
                .build()
        };
        let dyn_spec = |rebalance_period_secs| StrategySpec::Dyn {
            rebalance_period_secs,
        };
        let hyb_spec = |rebalance_period_secs| StrategySpec::Hybrid {
            config: RldConfig::default(),
            rebalance_period_secs,
        };
        for period in [f64::NAN, -5.0, 0.0] {
            for spec in [dyn_spec(period), hyb_spec(period)] {
                let err = build(spec).err().expect("refused");
                assert!(
                    matches!(err, RldError::InvalidArgument(_)),
                    "{period}: {err}"
                );
            }
        }
        // +∞ means "never rebalance" and stays valid.
        assert!(build(dyn_spec(f64::INFINITY)).is_ok());
        assert!(build(hyb_spec(f64::INFINITY)).is_ok());
    }

    #[test]
    fn scenario_runs_every_strategy_or_reports_skips() {
        let q = Query::q1_stock_monitoring();
        let scenario = Scenario::builder("smoke", q)
            .homogeneous_cluster(4, 3.0)
            .workload(StockWorkload::default_config())
            .duration_secs(30.0)
            .default_strategies(RldConfig::default().with_uncertainty(3))
            .build()
            .unwrap();
        let report = scenario.run().unwrap();
        assert_eq!(report.outcomes.len(), 4);
        // RLD always deploys on this comfortable cluster.
        let rld = report.metrics_for("RLD").expect("RLD ran");
        assert!(rld.tuples_arrived > 0);
        for o in &report.outcomes {
            assert!(o.metrics.is_some() || o.skipped.is_some());
        }
    }

    #[test]
    fn scenarios_run_unchanged_on_the_execute_backend() {
        let q = Query::q1_stock_monitoring();
        let scenario = Scenario::builder("exec-smoke", q)
            .homogeneous_cluster(4, 3.0)
            .workload(StockWorkload::default_config())
            .duration_secs(20.0)
            .strategy(StrategySpec::Rod)
            .strategy(StrategySpec::Dyn {
                rebalance_period_secs: 5.0,
            })
            .build()
            .unwrap();
        let report = scenario.run_on(Backend::Execute).unwrap();
        assert_eq!(report.backend, "execute");
        assert_eq!(report.outcomes.len(), 2);
        let rod = report.metrics_for("ROD").expect("ROD ran on the executor");
        assert!(rod.tuples_arrived > 0);
        assert_eq!(rod.tuples_processed, rod.tuples_arrived);
        assert_eq!(rod.tuples_lost, 0);
        // The simulator report of the same scenario has the same arrivals
        // (same seed, same arrival process) on the default backend.
        let sim_report = scenario.run().unwrap();
        assert_eq!(sim_report.backend, "simulate");
        assert_eq!(
            sim_report.metrics_for("ROD").unwrap().tuples_arrived,
            rod.tuples_arrived
        );
    }

    #[test]
    fn backend_lookup_by_name() {
        assert_eq!(Backend::by_name("simulate").unwrap(), Backend::Simulate);
        assert_eq!(Backend::by_name("sim").unwrap(), Backend::Simulate);
        assert_eq!(Backend::by_name("execute").unwrap(), Backend::Execute);
        // The names the documented commands use keep resolving.
        for alias in ["exec", "execute-columnar", "columnar", "col"] {
            assert_eq!(
                Backend::by_name(alias).unwrap(),
                Backend::Execute,
                "{alias}"
            );
        }
        assert!(Backend::by_name("quantum").is_err());
        assert_eq!(Backend::default(), Backend::Simulate);
        assert_eq!(Backend::Execute.name(), "execute");
    }

    #[test]
    fn infeasible_strategies_are_skipped_not_fatal() {
        let q = Query::q1_stock_monitoring();
        // A cluster too tiny for any placement to fit the estimate loads.
        let cluster = Cluster::homogeneous(2, 1e-9).unwrap();
        let scenario = Scenario::builder("tiny", q)
            .cluster(cluster)
            .workload(StockWorkload::default_config())
            .duration_secs(10.0)
            .strategy(StrategySpec::Rod)
            .build()
            .unwrap();
        let report = scenario.run().unwrap();
        assert_eq!(report.outcomes.len(), 1);
        assert!(report.outcomes[0].skipped.is_some());
        assert!(report.metrics_for("ROD").is_none());
    }
}
