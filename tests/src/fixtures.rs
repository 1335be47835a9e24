//! Shared scenario/seed fixtures for the integration-test suites.
//!
//! Every cross-backend suite (dataplane, columnar oracle, fault plane,
//! runtime strategies) runs the paper's Q1 on the same comfortable 4-node
//! cluster with strategies built the same way. Centralizing that setup
//! keeps the suites comparing *backends and semantics*, not accidentally
//! different experiments.

use rld_core::prelude::*;
use std::sync::OnceLock;

/// The standard test query: the paper's Q1 5-way stock-monitoring join.
pub fn q1() -> Query {
    Query::q1_stock_monitoring()
}

/// The standard test cluster: 4 homogeneous nodes with 3× slack over the
/// query's estimate-point load.
pub fn test_cluster(query: &Query) -> Cluster {
    Cluster::homogeneous(4, runtime_capacity(query, 4, 3.0)).expect("valid cluster")
}

/// The shared RLD compile for Q1 on [`test_cluster`]. The compile is the
/// expensive part of every RLD/HYB case, so all suites in one test binary
/// share this one deployment.
pub fn deployment() -> &'static Deployment {
    static DEPLOYMENT: OnceLock<Deployment> = OnceLock::new();
    DEPLOYMENT.get_or_init(|| {
        let query = q1();
        let cluster = test_cluster(&query);
        RldConfig::default()
            .with_uncertainty(3)
            .compiler(query)
            .compile(&cluster)
            .expect("q1 compiles on the comfortable cluster")
    })
}

/// Build one runtime strategy by its short figure name, fresh per run.
/// `RLD`/`HYB` deploy from the shared [`deployment`]; `ROD`/`DYN` plan at
/// the query's default statistics.
pub fn build_strategy(
    name: &str,
    query: &Query,
    cluster: &Cluster,
) -> Box<dyn DistributionStrategy> {
    match name {
        "RLD" => Box::new(deployment().deploy()),
        "HYB" => Box::new(deployment().deploy_hybrid(5.0).unwrap()),
        "DYN" => Box::new(deploy_dyn(query, &query.default_stats(), cluster, 5.0).unwrap()),
        "ROD" => Box::new(deploy_rod(query, &query.default_stats(), cluster).unwrap()),
        other => panic!("unknown strategy {other}"),
    }
}

/// The shared experiment parameters for a seeded run of the given virtual
/// duration (1 s ticks, default monitor).
pub fn sim_config(seed: u64, duration_secs: f64) -> SimConfig {
    SimConfig {
        duration_secs,
        seed,
        ..SimConfig::default()
    }
}

/// The standard quick Q1 scenario: [`test_cluster`]-sized cluster, the
/// stock workload, and the full four-strategy line-up.
pub fn quick_q1_scenario(seed: u64, duration_secs: f64) -> Scenario {
    Scenario::builder("strategy-invariants", q1())
        .homogeneous_cluster(4, 3.0)
        .workload(StockWorkload::default_config())
        .duration_secs(duration_secs)
        .seed(seed)
        .default_strategies(RldConfig::default().with_uncertainty(3))
        .build()
        .unwrap()
}

/// The full builtin `q1-node-crash` comparison, simulated once per test
/// binary and shared by its assertions (the RLD compile is the expensive
/// part).
pub fn node_crash_report() -> &'static ScenarioReport {
    static REPORT: OnceLock<ScenarioReport> = OnceLock::new();
    REPORT.get_or_init(|| scenario::builtin("q1-node-crash").unwrap().run().unwrap())
}

/// A workload with piecewise-constant per-stream input rates over the
/// query's default statistics — the building block for fault-semantics
/// tests that need deterministic "partner traffic before the crash,
/// driving traffic after recovery" shapes.
pub struct PiecewiseWorkload {
    name: String,
    query: Query,
    rates: Vec<(StreamId, Vec<(f64, f64)>)>,
}

impl PiecewiseWorkload {
    /// A workload over `query` with every rate at its default estimate.
    pub fn new(name: impl Into<String>, query: Query) -> Self {
        Self {
            name: name.into(),
            query,
            rates: Vec::new(),
        }
    }

    /// Override one stream's input rate with `(from_secs, rate)` steps;
    /// the step with the largest `from_secs ≤ t` is in force at time `t`
    /// (before the first step, the default estimate is).
    pub fn rate_steps(mut self, stream: StreamId, steps: Vec<(f64, f64)>) -> Self {
        self.rates.push((stream, steps));
        self
    }
}

impl Workload for PiecewiseWorkload {
    fn name(&self) -> &str {
        &self.name
    }

    fn query(&self) -> &Query {
        &self.query
    }

    fn stats_into(&self, t_secs: f64, stats: &mut StatsSnapshot) {
        stats.clone_from(&self.query.default_stats());
        for (stream, steps) in &self.rates {
            if let Some((_, rate)) = steps.iter().rev().find(|(from, _)| *from <= t_secs + 1e-9) {
                stats.set(StatKey::InputRate(*stream), *rate);
            }
        }
    }
}
