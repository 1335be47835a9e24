//! One repetition: spec → `compile` → `deploy` → `ColumnarExecutor` →
//! final `RunMetrics`, timed by the benchmark around the public calls.

use crate::scenario::Scenario;
use crate::trace::Tracer;
use rld_core::common::Result;
use rld_core::engine::{RldStrategy, SimConfig};
use rld_core::exec::{ColumnarConfig, ColumnarExecutor, ExecReport};
use rld_core::{Deployment, RobustCompiler};
use std::time::Instant;

/// One run of a deployed strategy on the columnar executor.
pub struct Run {
    /// Wall of `ColumnarExecutor::run_report`, taken here around the call.
    pub wall_s: f64,
    pub report: ExecReport,
}

impl Run {
    fn percentile_ms(&self, p: f64) -> f64 {
        self.report
            .latency_percentiles_ms
            .iter()
            .find(|(q, _)| *q == p)
            .map_or(f64::NAN, |(_, ms)| *ms)
    }

    pub fn batch_p50_ms(&self) -> f64 {
        self.percentile_ms(50.0)
    }

    pub fn batch_p99_ms(&self) -> f64 {
        self.percentile_ms(99.0)
    }

    pub fn throughput_tps(&self) -> f64 {
        self.report.metrics.tuples_processed as f64 / self.wall_s
    }
}

/// What one repetition of the whole chain measured.
pub struct Rep {
    /// `RobustCompiler::compile` + `Deployment::deploy`.
    pub compile_s: f64,
    /// Compile + deploy + `ColumnarExecutor::new` + `run_report`.
    pub e2e_s: f64,
    pub run: Run,
    pub deployment: Deployment,
}

pub fn sim_config(ticks: u64, seed: u64) -> SimConfig {
    SimConfig {
        tick_secs: 1.0,
        duration_secs: ticks as f64,
        seed,
        ..SimConfig::default()
    }
}

/// Time compile + deploy once.
pub fn compile_and_deploy(
    sc: &Scenario,
    compiler: &RobustCompiler,
    tracer: &Tracer,
) -> Result<(f64, Deployment, RldStrategy)> {
    let (deployment, compile) = tracer.timed("compile", || compiler.compile(&sc.cluster));
    let deployment = deployment?;
    let (strategy, deploy) = tracer.timed("deploy", || deployment.deploy());
    Ok(((compile + deploy).as_secs_f64(), deployment, strategy))
}

/// Build an executor and run a deployed strategy on it. `shards = 1` runs
/// the shard core inline on the calling thread.
pub fn execute(
    sc: &Scenario,
    strategy: &mut RldStrategy,
    ticks: u64,
    seed: u64,
    shards: usize,
    tracer: &Tracer,
) -> Result<Run> {
    let executor = tracer.span("executor_new", || {
        ColumnarExecutor::new(
            sc.query.clone(),
            sc.cluster.clone(),
            ColumnarConfig {
                shards,
                ..ColumnarConfig::from_sim(sim_config(ticks, seed))
            },
        )
    })?;
    let (report, wall) = tracer.timed("run_report", || {
        executor.run_report(sc.workload.as_ref(), strategy, false)
    });
    Ok(Run {
        wall_s: wall.as_secs_f64(),
        report: report?,
    })
}

/// One repetition of the whole chain on one inline shard.
pub fn rep(
    sc: &Scenario,
    compiler: &RobustCompiler,
    ticks: u64,
    seed: u64,
    tracer: &Tracer,
) -> Result<Rep> {
    let started = Instant::now();
    let (compile_s, deployment, mut strategy) = compile_and_deploy(sc, compiler, tracer)?;
    let run = execute(sc, &mut strategy, ticks, seed, 1, tracer)?;
    Ok(Rep {
        compile_s,
        e2e_s: started.elapsed().as_secs_f64(),
        run,
        deployment,
    })
}
