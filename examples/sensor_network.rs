//! Sensor-network monitoring: a 10-way join over sensor streams whose rates
//! and correlations follow a (compressed) diurnal cycle — the stand-in for
//! the Intel Research Berkeley Lab deployment used in the paper's §6.1.
//!
//! The example builds the parameter space over both a selectivity and the
//! driving stream's input rate, runs ERP, and shows which robust logical plan
//! the online classifier would pick at different times of "day".
//!
//! Run with: `cargo run -p rld-examples --bin sensor_network`

use rld_core::prelude::*;

fn main() -> Result<()> {
    let workload = SensorWorkload::default_config();
    let query = workload.query().clone();
    let cluster = Cluster::homogeneous(8, 2_000_000.0)?;

    // Uncertainty over the first operator's selectivity AND the driving
    // stream's input rate (a 2-D space mixing both statistic kinds).
    let estimates = query.estimates_for(&[
        (
            StatKey::Selectivity(OperatorId::new(0)),
            UncertaintyLevel::new(4),
        ),
        (
            StatKey::InputRate(query.driving_stream),
            UncertaintyLevel::new(4),
        ),
    ])?;
    let compiler = RobustCompiler::new(query.clone()).with_estimates(estimates);
    let space = compiler.build_space()?;
    println!("{space}");

    let solution = compiler.compile_in(&cluster, space)?;
    println!(
        "ERP found {} robust plans with {} optimizer calls; physical plan {} supports {} of them",
        solution.logical.len(),
        solution.logical_stats.optimizer_calls,
        solution.physical,
        solution.physical_stats.supported_plans
    );

    // Which plan would the classifier route to at different times of day?
    println!("\ntime-of-day routing:");
    for t in [0.0, 150.0, 300.0, 450.0] {
        let truth = workload.stats_at(t);
        let point = solution.space.project_snapshot(&truth);
        let plan = solution.logical.plan_for(&point);
        println!(
            "  t={t:>5.0}s  rate x{:.2}  -> plan {}",
            workload.diurnal_scale(t),
            plan.map(|p| p.to_string()).unwrap_or_else(|| "-".into())
        );
    }

    // And a short simulated run.
    let sim = Simulator::new(
        query.clone(),
        cluster.clone(),
        SimConfig {
            duration_secs: 600.0,
            ..SimConfig::default()
        },
    )?;
    let mut rld = solution.deploy();
    let metrics = sim.run(&workload, &mut rld)?;
    println!("\nRLD over one simulated day: {metrics}");
    Ok(())
}
