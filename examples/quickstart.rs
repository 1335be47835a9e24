//! Quickstart: optimize the paper's Q1 stock-monitoring query with RLD and
//! inspect the robust logical solution and the robust physical plan.
//!
//! Run with: `cargo run -p rld-examples --bin quickstart`

use rld_core::prelude::*;

fn main() -> Result<()> {
    // 1. The continuous query: a 5-way join over Stock / News / Research /
    //    Blogs / Currency streams (the paper's Example 1).
    let query = Query::q1_stock_monitoring();
    println!(
        "Query {} with {} operators over {} streams",
        query.name,
        query.num_operators(),
        query.num_streams()
    );

    // 2. A homogeneous 4-node cluster. Capacity is in the same cost units per
    //    second as the cost model's operator loads.
    let cluster = Cluster::homogeneous(4, 60_000.0)?;

    // 3. Run the two-step RLD optimization: ERP finds the robust logical
    //    solution, OptPrune maps it onto one robust physical plan.
    let config = RldConfig::default().with_epsilon(0.2).with_uncertainty(3);
    let solution = config.compiler(query.clone()).compile(&cluster)?;

    println!(
        "\nRobust logical solution ({} plans):",
        solution.logical.len()
    );
    for (i, entry) in solution.logical.entries().iter().enumerate() {
        println!(
            "  lp{i}: {}  (robust in {} region(s), {} grid cells)",
            entry.plan,
            entry.regions.len(),
            solution.logical.entry_volume(i)
        );
    }
    println!(
        "Logical search: {} optimizer calls, {:.2} ms",
        solution.logical_stats.optimizer_calls,
        solution.logical_stats.elapsed_ms()
    );

    println!("\nRobust physical plan: {}", solution.physical);
    println!(
        "  supports {}/{} logical plans, covers {:.0}% of the parameter space",
        solution.physical_stats.supported_plans,
        solution.logical.len(),
        solution.physical_coverage(&cluster) * 100.0
    );

    // 4. Deploy it on the simulator against the fluctuating stock workload
    //    and compare with the ROD baseline.
    let sim = Simulator::new(
        query.clone(),
        cluster.clone(),
        SimConfig {
            duration_secs: 120.0,
            ..SimConfig::default()
        },
    )?;
    let workload = StockWorkload::default_config();

    let mut rld = solution.deploy();
    let rld_metrics = sim.run(&workload, &mut rld)?;
    println!("\nRLD runtime: {rld_metrics}");

    if let Ok(mut rod) = deploy_rod(&query, &query.default_stats(), &cluster) {
        let rod_metrics = sim.run(&workload, &mut rod)?;
        println!("ROD runtime: {rod_metrics}");
    }
    Ok(())
}
