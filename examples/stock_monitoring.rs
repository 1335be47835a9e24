//! Stock monitoring under regime switches (the paper's Example 1).
//!
//! The market alternates between bullish and bearish regimes, flipping the
//! selectivities of the pattern-matching operators. A traditional dynamic
//! load distributor keeps migrating operators back and forth; RLD instead
//! pre-computes one physical plan that supports the best logical plan of
//! *both* regimes and simply switches plans per tuple batch.
//!
//! Run with: `cargo run -p rld-examples --bin stock_monitoring`

use rld_core::prelude::*;

fn main() -> Result<()> {
    let query = Query::q1_stock_monitoring();
    let cluster = Cluster::homogeneous(4, 45_000.0)?;

    // Fast regime switches: every 30 seconds the market flips.
    let workload = StockWorkload::new(30.0, RatePattern::Constant(1.0));

    // Show how the optimal logical plan differs between the two regimes.
    let optimizer = JoinOrderOptimizer::new(query.clone());
    let bullish_plan = optimizer.optimize(&workload.stats_at(0.0))?;
    let bearish_plan = optimizer.optimize(&workload.stats_at(31.0))?;
    println!("Optimal plan in a bullish market: {bullish_plan}");
    println!("Optimal plan in a bearish market: {bearish_plan}");
    if bullish_plan != bearish_plan {
        println!("→ the best ordering flips with the regime, exactly Example 1 of the paper\n");
    }

    // RLD compile-time optimization, just to show what it prepares.
    let config = RldConfig::default().with_uncertainty(3);
    let solution = config.compiler(query.clone()).compile(&cluster)?;
    println!(
        "RLD prepared {} robust logical plans over one physical plan: {}",
        solution.logical.len(),
        solution.physical
    );

    // Runtime comparison over 10 simulated minutes, via the scenario layer
    // (every strategy is rebuilt from the same compile-time inputs).
    let report = Scenario::builder("stock-monitoring", query)
        .describe("Q1 under 30 s bullish/bearish regime switches")
        .cluster(cluster)
        .workload(workload)
        .duration_secs(600.0)
        .default_strategies(config)
        .build()?
        .run()?;

    println!(
        "\n{:<6} {:>12} {:>12} {:>12} {:>12}",
        "system", "avg ms", "produced", "migrations", "switches"
    );
    for m in report.metrics() {
        println!(
            "{:<6} {:>12.1} {:>12} {:>12} {:>12}",
            m.system, m.avg_tuple_processing_ms, m.tuples_produced, m.migrations, m.plan_switches
        );
    }
    Ok(())
}
