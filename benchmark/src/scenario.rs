//! The five workloads as data: each is one scenario taken from compile-time
//! inputs through `RobustCompiler` to a `Deployment` and through a run on
//! the columnar executor. The `compile-*` scenarios pair an expensive
//! compile with a short run, the `run-*` scenarios a cheap compile with a
//! long run, so every metric is measured on every workload by one code path.

use rld_core::common::Query;
use rld_core::logical::ErpConfig;
use rld_core::paramspace::OccurrenceModel;
use rld_core::physical::Cluster;
use rld_core::scenario::{regime_switching_workload, runtime_capacity, runtime_rld_config};
use rld_core::workloads::{RatePattern, StockWorkload, Workload};
use rld_core::{LogicalSolverSpec, PhysicalSolverSpec, RldConfig, RobustCompiler};

/// Grid steps of the warm-up compile: small enough that three set-ups of
/// the widest space cost well under a second.
const WARM_UP_GRID_STEPS: usize = 5;

/// One benchmark scenario, sized for one repetition.
pub struct Scenario {
    pub query: Query,
    pub cluster: Cluster,
    pub compiler: RobustCompiler,
    /// ε of Definition 1 the compiler was given (for the robustness probes).
    pub epsilon: f64,
    pub workload: Box<dyn Workload>,
    /// Virtual seconds (= 1 s ticks) one repetition runs.
    pub ticks: u64,
}

impl Scenario {
    /// The same pipeline at a fraction of the size: what a set-up runs once
    /// so lazy initialisation and allocator growth happen before timing.
    pub fn warm_up_compiler(&self) -> RobustCompiler {
        self.compiler.clone().with_grid_steps(WARM_UP_GRID_STEPS)
    }

    pub fn warm_up_ticks(&self) -> u64 {
        (self.ticks / 20).max(1)
    }
}

fn cluster_for(query: &Query, nodes: usize) -> Cluster {
    Cluster::homogeneous(nodes, runtime_capacity(query, nodes, 3.0)).expect("positive capacity")
}

/// The wide compile: Q2 with 5 uncertain selectivities at U = 4 on a
/// 15-step grid (759,375 cells), ε = 0.1.
fn wide_q2_compile(solver: LogicalSolverSpec) -> Scenario {
    let query = Query::q2_ten_way_join();
    let epsilon = 0.1;
    Scenario {
        cluster: cluster_for(&query, 10),
        compiler: RobustCompiler::new(query.clone())
            .with_selectivity_dims(5, 4)
            .with_grid_steps(15)
            .with_epsilon(epsilon)
            .with_solver(solver)
            .with_occurrence(OccurrenceModel::Normal)
            .with_physical_solver(PhysicalSolverSpec::OptPrune),
        epsilon,
        workload: Box::new(regime_switching_workload(
            &query,
            90.0,
            RatePattern::Constant(5.0),
        )),
        ticks: 2_000,
        query,
    }
}

fn q2_run(period_secs: f64, rate: f64, ticks: u64) -> Scenario {
    let query = Query::q2_ten_way_join();
    let config = runtime_rld_config();
    Scenario {
        cluster: cluster_for(&query, 10),
        compiler: config.compiler(query.clone()),
        epsilon: config.erp.robustness_epsilon,
        workload: Box::new(regime_switching_workload(
            &query,
            period_secs,
            RatePattern::Constant(rate),
        )),
        ticks,
        query,
    }
}

/// Look a workload up by its BENCHMARK.json name. Driving arrivals per tick
/// stay at or below 500: `sample_poisson` saturates near 745 per tick.
pub fn by_name(name: &str) -> Option<Scenario> {
    Some(match name {
        "compile-wrp-q2" => wide_q2_compile(LogicalSolverSpec::Wrp),
        "compile-erp-q2" => wide_q2_compile(LogicalSolverSpec::Erp(ErpConfig::default())),
        "run-probe-q1" => {
            let query = Query::q1_stock_monitoring();
            let config = RldConfig::default().with_uncertainty(3);
            Scenario {
                cluster: cluster_for(&query, 4),
                compiler: config.compiler(query.clone()),
                epsilon: config.erp.robustness_epsilon,
                workload: Box::new(StockWorkload::new(60.0, RatePattern::Constant(5.0))),
                ticks: 5_000,
                query,
            }
        }
        "run-window-q2" => q2_run(90.0, 5.0, 2_500),
        "run-thin-q2" => q2_run(10.0, 0.05, 100_000),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::WORKLOADS;

    #[test]
    fn every_manifest_workload_resolves() {
        for w in &WORKLOADS {
            let sc = by_name(w.name).expect(w.name);
            assert_eq!(sc.workload.query().name, sc.query.name);
            assert!(sc.warm_up_ticks() >= 1 && sc.warm_up_ticks() < sc.ticks);
        }
        assert!(by_name("no-such-workload").is_none());
    }
}
