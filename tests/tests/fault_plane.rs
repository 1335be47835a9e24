//! Invariants of the fault plane: bit-determinism of faulted runs, the
//! failover asymmetry between the adaptive (DYN, HYB) and static (RLD, ROD)
//! strategies, and the available-capacity bound on utilization under
//! arbitrary fault plans — on the simulator and the executor — plus the
//! executor's fault semantics (Lost clears window state, Replay keeps it,
//! Degrade stretches the node's hops without dropping, failover moves the
//! hops off a dead node).

use proptest::prelude::*;
use rld_core::prelude::*;
use rld_core::scenario;
use rld_tests::fixtures::{node_crash_report, q1, test_cluster, PiecewiseWorkload};

#[test]
fn fault_runs_are_bit_deterministic_per_seed() {
    let a = node_crash_report();
    let b = scenario::builtin("q1-node-crash").unwrap().run().unwrap();
    assert_eq!(a.outcomes.len(), b.outcomes.len());
    let ran: Vec<&str> = a.metrics().map(|m| m.system.as_str()).collect();
    assert_eq!(ran, DEFAULT_STRATEGY_NAMES.to_vec(), "all four ran");
    for (ma, mb) in a.metrics().zip(b.metrics()) {
        // RunMetrics derives PartialEq: identical down to every fault
        // counter, latency and the full produced timeline.
        assert_eq!(ma, mb, "{} must be bit-deterministic", ma.system);
    }
}

#[test]
fn adaptive_strategies_fail_over_and_static_ones_ride_it_out() {
    let report = node_crash_report();
    let crash = scenario::builtin("q1-node-crash").unwrap();
    assert_eq!(crash.fault_plan().num_crashes(), 1);

    for name in ["RLD", "ROD"] {
        let m = report.metrics_for(name).expect("static strategy ran");
        assert_eq!(m.migrations, 0, "{name} must never migrate");
        assert!(
            m.tuples_lost > 0,
            "{name} keeps routing through the dead node: {m:?}"
        );
        assert!(m.reroutes > 0, "{name}: {m:?}");
        // Without failover, recovery waits for the node itself (120 s).
        assert!(m.mean_recovery_secs > 60.0, "{name}: {m:?}");
    }
    for name in ["DYN", "HYB"] {
        let m = report.metrics_for(name).expect("adaptive strategy ran");
        assert!(m.migrations > 0, "{name} must fail over: {m:?}");
        // Failover happens the same tick as the crash: almost nothing is
        // lost and the strategy is processing again immediately.
        assert!(
            m.mean_recovery_secs < 10.0,
            "{name} must recover quickly: {m:?}"
        );
    }

    // The headline claim: after the crash the adaptive strategies keep
    // producing results, the static ones lose far more tuples.
    let rod = report.metrics_for("ROD").unwrap();
    let dyn_m = report.metrics_for("DYN").unwrap();
    let hyb = report.metrics_for("HYB").unwrap();
    assert!(
        dyn_m.tuples_produced > rod.tuples_produced,
        "DYN {} vs ROD {}",
        dyn_m.tuples_produced,
        rod.tuples_produced
    );
    assert!(hyb.tuples_produced > rod.tuples_produced);
    assert!(rod.tuples_lost > 10 * dyn_m.tuples_lost.max(1));

    // Every strategy saw the same outage and the same arrivals.
    let metrics: Vec<&RunMetrics> = report.metrics().collect();
    for m in &metrics {
        assert_eq!(m.fault_events, 2, "{}", m.system);
        assert!((m.downtime_node_secs - 120.0).abs() < 1.5, "{}", m.system);
        assert!(m.capacity_available_fraction < 1.0, "{}", m.system);
        assert!(
            m.mean_utilization <= m.capacity_available_fraction + 1e-9,
            "{}: utilization {} exceeds available fraction {}",
            m.system,
            m.mean_utilization,
            m.capacity_available_fraction
        );
    }
}

#[test]
fn straggler_scenario_degrades_without_crashing() {
    let s = scenario::builtin("q2-straggler").unwrap();
    assert_eq!(s.fault_plan().num_crashes(), 0);
    assert!(!s.fault_plan().is_empty());
    // Degrade-only plans never take a node down, so nothing can be lost to
    // re-routing — the cost shows up as latency, not loss. Run only the
    // cheap static baseline here; the full four-strategy comparison is the
    // faults bench binary's job.
    let quick = Scenario::builder("q2-straggler-rod", s.query().clone())
        .cluster(s.cluster().clone())
        .workload(regime_switching_workload(
            s.query(),
            90.0,
            RatePattern::Constant(1.0),
        ))
        .duration_secs(s.sim_config().duration_secs)
        .faults(s.fault_plan().clone())
        .strategy(StrategySpec::Rod)
        .build()
        .unwrap();
    let report = quick.run().unwrap();
    let rod = report.metrics_for("ROD").expect("ROD ran");
    assert!(rod.fault_events > 0);
    assert_eq!(rod.tuples_lost, 0);
    assert_eq!(rod.reroutes, 0);
    assert_eq!(rod.downtime_node_secs, 0.0);
    assert!(rod.capacity_available_fraction < 1.0);
}

// ---------------------------------------------------------------------------
// Executor-side fault semantics: the same FaultPlan vocabulary the simulator
// models must hold on the dataplane, where windows and hop times are real.
// ---------------------------------------------------------------------------

/// A minimal window-join query whose production collapses to zero exactly
/// when its partner window is empty: one cheap filter feeding one
/// high-selectivity window join.
fn window_probe_query() -> Query {
    let schema = Schema::from_pairs(&[("key", DataType::Text), ("ts", DataType::Timestamp)]);
    Query::builder("WPROBE")
        .window_secs(60.0)
        .stream("Driver", schema.clone(), 100.0)
        .stream("Partner", schema, 50.0)
        .filter("pass", 1.0, 0.9)
        .window_join("probe_partner", 1, 1.0, 0.01, 0.5, 32 * 1024)
        .build()
        .unwrap()
}

/// Lost vs Replay on the executor, isolated to window state: the
/// partner stream fills the join window *before* the crash and goes silent;
/// the driving stream only speaks *after* recovery. Under `Lost` the crash
/// wipes the window, so the late driving tuples find nothing to join —
/// under `Replay` the window survives and they produce results.
#[test]
fn executor_lost_clears_window_state_and_replay_preserves_it() {
    let query = window_probe_query();
    let cluster = Cluster::homogeneous(1, runtime_capacity(&query, 1, 3.0)).unwrap();
    let workload = PiecewiseWorkload::new("pre-crash-partner", query.clone())
        // Partner traffic only before the crash...
        .rate_steps(StreamId::new(1), vec![(0.0, 50.0), (20.0, 0.0)])
        // ...driving traffic only after recovery.
        .rate_steps(StreamId::new(0), vec![(0.0, 0.0), (28.0, 300.0)]);

    let run = |semantic: RecoverySemantic| {
        let exec = executor(&query, &cluster, 40.0, 1)
            .with_faults(FaultPlan::node_crash(NodeId::new(0), 20.0, 25.0, semantic).unwrap())
            .unwrap();
        let mut rod = deploy_rod(&query, &query.default_stats(), &cluster).unwrap();
        exec.run(&workload, &mut rod).unwrap()
    };

    let lost = run(RecoverySemantic::Lost);
    let replay = run(RecoverySemantic::Replay);

    // Same arrivals either way (the crash window sees zero driving traffic,
    // so nothing is dropped at ingest under either semantic)...
    assert_eq!(lost.tuples_arrived, replay.tuples_arrived);
    assert!(lost.tuples_arrived > 1000, "{lost:?}");
    assert_eq!(lost.tuples_lost, 0, "{lost:?}");
    assert_eq!(replay.tuples_lost, 0, "{replay:?}");
    assert_eq!(lost.fault_events, 2);
    // ...but only the preserved window can still answer the late probes.
    assert_eq!(
        lost.tuples_produced, 0,
        "Lost must wipe the partner window: {lost:?}"
    );
    assert!(
        replay.tuples_produced > 0,
        "Replay must keep the partner window: {replay:?}"
    );
}

/// The executor at a shard count for a run of `duration_secs`.
fn executor(
    query: &Query,
    cluster: &Cluster,
    duration_secs: f64,
    shards: usize,
) -> ColumnarExecutor {
    let sim = SimConfig {
        duration_secs,
        ..SimConfig::default()
    };
    let config = ColumnarConfig {
        shards,
        ..ColumnarConfig::from_sim(sim)
    };
    ColumnarExecutor::new(query.clone(), cluster.clone(), config).unwrap()
}

/// The node hosting the strategy's first operator — the hop every batch
/// starts with, making it the right victim for straggler and failover
/// experiments.
fn entry_node(strategy: &mut dyn DistributionStrategy, query: &Query) -> NodeId {
    let plan = strategy.plan_for_batch(&query.default_stats()).unwrap();
    strategy.physical().node_of(plan.ordering()[0]).unwrap()
}

/// A degraded node is a straggler, not a failure: every tuple still
/// completes (nothing lost, nothing rerouted, no downtime) — the cost is
/// latency, which the stretch of the entry node's hop makes visibly worse
/// than the fault-free run, and the stretch is that node's busy time.
#[test]
fn executor_degraded_workers_slow_down_but_drop_nothing() {
    let query = q1();
    let cluster = test_cluster(&query);
    let workload = StockWorkload::new(20.0, RatePattern::Constant(4.0));
    let rod = || deploy_rod(&query, &query.default_stats(), &cluster).unwrap();
    let victim = entry_node(&mut rod(), &query);

    let run = |faults: Option<FaultPlan>| {
        let mut exec = executor(&query, &cluster, 130.0, 1);
        if let Some(plan) = faults {
            exec = exec.with_faults(plan).unwrap();
        }
        exec.run_report(&workload, &mut rod(), false).unwrap()
    };

    let healthy = run(None);
    let events = vec![
        FaultEvent {
            at_secs: 5.0,
            node: victim,
            kind: FaultKind::Degrade { factor: 0.05 },
        },
        FaultEvent {
            at_secs: 110.0,
            node: victim,
            kind: FaultKind::Restore,
        },
    ];
    let degraded = run(Some(
        FaultPlan::new(events, RecoverySemantic::Lost).unwrap(),
    ));
    let victim_busy =
        |r: &ExecReport| r.stage_timings.as_ref().unwrap().node_busy_ms[victim.index()];
    let (healthy_busy, healthy) = (victim_busy(&healthy), healthy.metrics);
    let (degraded_busy, degraded) = (victim_busy(&degraded), degraded.metrics);

    assert_eq!(degraded.fault_events, 2, "{degraded:?}");
    assert_eq!(degraded.tuples_arrived, healthy.tuples_arrived);
    // Nothing is dropped: a straggler is not a crash.
    assert_eq!(degraded.tuples_lost, 0, "{degraded:?}");
    assert_eq!(
        degraded.tuples_processed, degraded.tuples_arrived,
        "{degraded:?}"
    );
    assert_eq!(degraded.reroutes, 0, "{degraded:?}");
    assert_eq!(degraded.downtime_node_secs, 0.0, "{degraded:?}");
    assert!(degraded.capacity_available_fraction < 1.0, "{degraded:?}");
    // The 20× stretch of the entry hop over most of the run dominates the
    // victim's busy time and the mean latency.
    assert!(
        degraded_busy > 5.0 * healthy_busy,
        "victim busy: degraded {degraded_busy} ms vs healthy {healthy_busy} ms"
    );
    assert!(
        degraded.avg_tuple_processing_ms > healthy.avg_tuple_processing_ms * 1.5,
        "degraded {} ms vs healthy {} ms",
        degraded.avg_tuple_processing_ms,
        healthy.avg_tuple_processing_ms
    );
}

/// DYN fails over off a crashed node, and the executor's hops follow the
/// migration: the dead node runs no hop during its outage. The node is also
/// degraded 1000× while down, so a hop still charged to it — hops cached
/// from before the failover — would stretch its busy time past every other
/// node's; evaluated where the placement now pins them, the victim keeps
/// only its few pre-crash ticks.
#[test]
fn executor_failover_moves_hops_off_the_crashed_node() {
    let query = q1();
    let cluster = test_cluster(&query);
    let workload = StockWorkload::new(20.0, RatePattern::Constant(1.0));
    let dyn_strategy = || deploy_dyn(&query, &query.default_stats(), &cluster, 5.0).unwrap();
    let victim = entry_node(&mut dyn_strategy(), &query);
    let events = vec![
        FaultEvent {
            at_secs: 5.0,
            node: victim,
            kind: FaultKind::Crash,
        },
        FaultEvent {
            at_secs: 6.0,
            node: victim,
            kind: FaultKind::Degrade { factor: 0.001 },
        },
    ];
    let plan = FaultPlan::new(events, RecoverySemantic::Lost).unwrap();
    for shards in [1, 2] {
        let exec = executor(&query, &cluster, 40.0, shards)
            .with_faults(plan.clone())
            .unwrap();
        let report = exec
            .run_report(&workload, &mut dyn_strategy(), false)
            .unwrap();
        let m = &report.metrics;
        assert!(m.migrations > 0, "DYN must fail over: {m:?}");
        assert_eq!(m.tuples_processed + m.tuples_lost, m.tuples_arrived);
        let busy = &report.stage_timings.as_ref().unwrap().node_busy_ms;
        let total: f64 = busy.iter().sum();
        assert!(
            busy[victim.index()] < 0.5 * total,
            "{shards} shards: the crashed node {victim} ran hops during its outage: {busy:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Whatever the fault plan does — crashes, degradations, any window —
    /// the mean utilization can never exceed the fraction of capacity that
    /// was actually available, on the simulator and on the executor at 1 and
    /// 2 shards, and the run keeps its basic invariants.
    #[test]
    fn downtime_bounds_mean_utilization(
        seed in 0u64..1000,
        node in 0usize..4,
        crash_at in 10.0f64..60.0,
        outage in 10.0f64..120.0,
        factor in 0.1f64..0.9,
        replay in 0u32..2,
    ) {
        let query = Query::q1_stock_monitoring();
        let semantic = if replay == 1 { RecoverySemantic::Replay } else { RecoverySemantic::Lost };
        let mut events = FaultPlan::node_crash(
            NodeId::new(node),
            crash_at,
            crash_at + outage,
            semantic,
        ).unwrap().events().to_vec();
        // Add a straggler on the next node over, overlapping the outage.
        events.push(FaultEvent {
            at_secs: crash_at + 5.0,
            node: NodeId::new((node + 1) % 4),
            kind: FaultKind::Degrade { factor },
        });
        let plan = FaultPlan::new(events, semantic).unwrap();
        let scenario = Scenario::builder("utilization-bound", query)
            .homogeneous_cluster(4, 3.0)
            .workload(StockWorkload::default_config())
            .duration_secs(180.0)
            .seed(seed)
            .faults(plan)
            .strategy(StrategySpec::Rod)
            .build()
            .unwrap();
        let simulated = scenario.run().unwrap();
        let mut runs = vec![("simulator", simulated.metrics_for("ROD").expect("ROD ran").clone())];
        for (backend, shards) in [("executor-1", 1), ("executor-2", 2)] {
            let config = ColumnarConfig { shards, ..ColumnarConfig::from_sim(*scenario.sim_config()) };
            let exec = ColumnarExecutor::new(scenario.query().clone(), scenario.cluster().clone(), config)
                .unwrap()
                .with_faults(scenario.fault_plan().clone())
                .unwrap();
            let mut rod = deploy_rod(scenario.query(), &scenario.query().default_stats(), scenario.cluster()).unwrap();
            runs.push((backend, exec.run(scenario.workload(), &mut rod).unwrap()));
        }
        for (backend, m) in &runs {
            prop_assert!(m.fault_events >= 2, "{}: {:?}", backend, m);
            prop_assert!(m.capacity_available_fraction < 1.0, "{}", backend);
            prop_assert!(
                m.mean_utilization <= m.capacity_available_fraction + 1e-9,
                "{}: utilization {} exceeds available fraction {}",
                backend,
                m.mean_utilization,
                m.capacity_available_fraction
            );
            prop_assert!(m.downtime_node_secs >= outage - 1.5, "{}", backend);
            prop_assert!(m.tuples_arrived >= m.tuples_processed + m.tuples_lost
                || m.tuples_lost == 0,
                "{}: {:?}", backend, m);
            // Timeline stays monotone under faults.
            let counts: Vec<u64> = m.produced_timeline.iter().map(|(_, c)| *c).collect();
            prop_assert!(counts.windows(2).all(|w| w[0] <= w[1]), "{}", backend);
        }
    }
}
