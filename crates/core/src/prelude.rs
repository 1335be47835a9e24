//! One-stop imports for applications built on RLD.
//!
//! ```
//! use rld_core::prelude::*;
//! let query = Query::q1_stock_monitoring();
//! let cluster = Cluster::homogeneous(4, 1e6).unwrap();
//! let solution = RldConfig::default().compiler(query).compile(&cluster).unwrap();
//! assert!(solution.logical.len() >= 1);
//! ```

pub use crate::baselines::{deploy_dyn, deploy_rod};
pub use crate::compiler::{
    Deployment, LogicalCompilation, LogicalSolverSpec, PhysicalSolverSpec, RldConfig,
    RobustCompiler, SolverStats, UncertaintySpec,
};
pub use crate::scenario::{
    self, fault_scenario_names, regime_switching_workload, runtime_capacity, runtime_rld_config,
    Backend, Scenario, ScenarioReport, StrategyOutcome, StrategySpec, DEFAULT_STRATEGY_NAMES,
};

pub use rld_common::{
    DataType, NodeId, OperatorId, OperatorKind, OperatorSpec, Query, Result, RldError, Schema,
    StatKey, StatisticEstimate, StatsSnapshot, StreamId, UncertaintyLevel,
};
pub use rld_engine::{
    DistributionStrategy, DynStrategy, FaultEvent, FaultKind, FaultPlan, HybridStrategy,
    RecoverySemantic, RldStrategy, RodStrategy, RunMetrics, RunTrace, RuntimeContext, RuntimeCore,
    SimConfig, Simulator,
};
pub use rld_exec::{ColumnarConfig, ColumnarExecutor, ExecReport, StageTimings};
pub use rld_logical::{
    EarlyTerminatedRobustPartitioning, ErpConfig, ExhaustiveSearch, LogicalPlanGenerator,
    RandomSearch, RobustLogicalSolution, RobustnessChecker, SearchStats,
    WeightedRobustPartitioning,
};
pub use rld_paramspace::{OccurrenceModel, ParameterSpace, Region};
pub use rld_physical::{
    llf_assign, llf_assign_naive, Cluster, ClusterView, DynPlanner, ExhaustivePhysicalSearch,
    GreedyPhy, NaiveGreedyPhy, NaiveOptPrune, OptPrune, PhysicalPlan, PhysicalPlanGenerator,
    PhysicalSearchStats, PlanLoadProfile, RodPlanner, SupportModel,
};
pub use rld_query::{CostModel, JoinOrderOptimizer, LogicalPlan, Optimizer};
pub use rld_workloads::{
    RatePattern, SelectivityPattern, SensorWorkload, StockWorkload, SyntheticWorkload, Workload,
};
