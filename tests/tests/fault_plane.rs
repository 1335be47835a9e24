//! Invariants of the fault plane: bit-determinism of faulted runs, the
//! failover asymmetry between the adaptive (DYN, HYB) and static (RLD, ROD)
//! strategies, and the available-capacity bound on utilization under
//! arbitrary fault plans — all through the scenario layer — plus the
//! threaded executor's recovery semantics (Lost clears window state,
//! Replay parks and re-delivers, Degrade slows without dropping).

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
// Executor-side recovery semantics: the same FaultPlan vocabulary the
// simulator models must hold on the threaded dataplane, where windows,
// channels and parked envelopes are real.
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

/// Lost vs Replay on the threaded executor, isolated to window state: the
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
        let config = ExecConfig::from_sim(SimConfig {
            duration_secs: 40.0,
            ..SimConfig::default()
        });
        let exec = ThreadedExecutor::new(query.clone(), cluster.clone(), config)
            .unwrap()
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

/// The node hosting the plan's *first* operator — the one every ingested
/// envelope must pass through, making it the right victim for straggler
/// and backlog experiments.
fn entry_node(query: &Query, cluster: &Cluster) -> NodeId {
    let mut rod = deploy_rod(query, &query.default_stats(), cluster).unwrap();
    let plan = rod.plan_for_batch(&query.default_stats()).unwrap();
    rod.physical().node_of(plan.ordering()[0]).unwrap()
}

/// Replay vs Lost for in-flight envelopes. The construction pins a backlog
/// in the victim's inbox at the crash instant: the node is degraded 50×,
/// so each envelope's stretched processing outlasts the coordinator's whole
/// burst several times over, and the driving stream speaks for exactly
/// eight ticks right before the crash — so the worker is still busy with
/// the first envelope when the crash lands, with the rest queued behind
/// it. `Lost` drops the queued
/// backlog; `Replay` parks it and re-delivers it after recovery, so
/// everything completes and nothing is lost.
#[test]
fn executor_replay_parks_and_redelivers_the_victims_backlog() {
    let query = window_probe_query();
    let cluster = Cluster::homogeneous(1, runtime_capacity(&query, 1, 3.0)).unwrap();
    let victim = entry_node(&query, &cluster);
    let workload = PiecewiseWorkload::new("pre-crash-burst", query.clone())
        // Eight ticks of driving traffic immediately before the crash —
        // everything else is partner traffic that keeps the join window
        // (and hence the per-envelope eval cost) non-trivial without making
        // the post-recovery drain exceed the executor's drain timeout.
        .rate_steps(
            StreamId::new(0),
            vec![(0.0, 0.0), (6.0, 4000.0), (14.0, 0.0)],
        )
        .rate_steps(StreamId::new(1), vec![(0.0, 500.0)]);

    let run = |semantic: RecoverySemantic| {
        let events = vec![
            FaultEvent {
                at_secs: 1.0,
                node: victim,
                kind: FaultKind::Degrade { factor: 0.02 },
            },
            // The outage must be long in *wall* terms: only an envelope
            // *received while the node is down* exercises the park-vs-drop
            // branch, and the degraded worker sleeps through its stretch
            // (49× one envelope's fused-chain evaluation) before its next
            // receive. While the worker sleeps the coordinator sprints — an
            // idle tick is one round of partner generation and window
            // upkeep, about a fifth (release) to a tenth (debug) of one
            // envelope's evaluation — so the outage spans 4000 virtual
            // seconds: seven (debug) to seventeen (release) stretches.
            FaultEvent {
                at_secs: 14.0,
                node: victim,
                kind: FaultKind::Crash,
            },
            FaultEvent {
                at_secs: 4014.0,
                node: victim,
                kind: FaultKind::Recover,
            },
            // Full speed again right after recovery so parked envelopes
            // drain quickly (a node recovers at whatever degradation
            // factor it last had).
            FaultEvent {
                at_secs: 4015.0,
                node: victim,
                kind: FaultKind::Restore,
            },
        ];
        let config = ExecConfig::from_sim(SimConfig {
            duration_secs: 4030.0,
            ..SimConfig::default()
        });
        let exec = ThreadedExecutor::new(query.clone(), cluster.clone(), config)
            .unwrap()
            .with_faults(FaultPlan::new(events, semantic).unwrap())
            .unwrap();
        let mut rod = deploy_rod(&query, &query.default_stats(), &cluster).unwrap();
        exec.run(&workload, &mut rod).unwrap()
    };

    let lost = run(RecoverySemantic::Lost);
    let replay = run(RecoverySemantic::Replay);

    // Policy decisions are seed-deterministic, so both runs ingest the same
    // eight envelopes (no driving traffic overlaps the outage, so nothing
    // is dropped at ingest) — the only difference is the fate of the
    // backlog queued at the victim when it died.
    assert_eq!(lost.tuples_arrived, replay.tuples_arrived);
    assert!(lost.tuples_arrived > 3000, "{lost:?}");
    assert_eq!(lost.batches, 8, "{lost:?}");
    assert_eq!(lost.fault_events, 4, "{lost:?}");
    assert!(
        lost.tuples_lost > 0,
        "Lost must drop the envelope queued at the dead node: {lost:?}"
    );
    assert_eq!(
        replay.tuples_lost, 0,
        "Replay must park and re-deliver it: {replay:?}"
    );
    assert_eq!(replay.tuples_processed, replay.tuples_arrived, "{replay:?}");
    assert_eq!(
        lost.tuples_processed + lost.tuples_lost,
        lost.tuples_arrived,
        "{lost:?}"
    );
    assert!(
        replay.tuples_processed > lost.tuples_processed,
        "re-delivered envelopes must complete: replay {} vs lost {}",
        replay.tuples_processed,
        lost.tuples_processed
    );
}

/// A degraded worker is a straggler, not a failure: every tuple still
/// completes (nothing lost, nothing rerouted, no downtime) — the cost is
/// latency, which the degradation stretch makes visibly worse than the
/// fault-free run. The degraded window spans more ticks than a worker inbox
/// holds envelopes, so backpressure paces the coordinator to the straggler:
/// it cannot reach the `Restore` before the victim has received — and
/// stretched — at least the window's excess over the inbox bound, however
/// fast an idle coordinator would otherwise sprint through virtual time.
#[test]
fn executor_degraded_workers_slow_down_but_drop_nothing() {
    let query = q1();
    let cluster = test_cluster(&query);
    let workload = StockWorkload::new(20.0, RatePattern::Constant(4.0));
    let victim = entry_node(&query, &cluster);

    let run = |faults: Option<FaultPlan>| {
        let config = ExecConfig::from_sim(SimConfig {
            duration_secs: 130.0,
            ..SimConfig::default()
        });
        let mut exec = ThreadedExecutor::new(query.clone(), cluster.clone(), config).unwrap();
        if let Some(plan) = faults {
            exec = exec.with_faults(plan).unwrap();
        }
        let mut rod = deploy_rod(&query, &query.default_stats(), &cluster).unwrap();
        exec.run(&workload, &mut rod).unwrap()
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
    // The 20× stretch on one pipeline node dominates the mean latency.
    assert!(
        degraded.avg_tuple_processing_ms > healthy.avg_tuple_processing_ms * 1.5,
        "degraded {} ms vs healthy {} ms",
        degraded.avg_tuple_processing_ms,
        healthy.avg_tuple_processing_ms
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Whatever the fault plan does — crashes, degradations, any window —
    /// the mean utilization can never exceed the fraction of capacity that
    /// was actually available, and the run keeps its basic invariants.
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
        let report = Scenario::builder("utilization-bound", query)
            .homogeneous_cluster(4, 3.0)
            .workload(StockWorkload::default_config())
            .duration_secs(180.0)
            .seed(seed)
            .faults(plan)
            .strategy(StrategySpec::Rod)
            .build()
            .unwrap()
            .run()
            .unwrap();
        let m = report.metrics_for("ROD").expect("ROD ran");
        prop_assert!(m.fault_events >= 2, "{m:?}");
        prop_assert!(m.capacity_available_fraction < 1.0);
        prop_assert!(
            m.mean_utilization <= m.capacity_available_fraction + 1e-9,
            "utilization {} exceeds available fraction {}",
            m.mean_utilization,
            m.capacity_available_fraction
        );
        prop_assert!(m.downtime_node_secs >= outage - 1.5);
        prop_assert!(m.tuples_arrived >= m.tuples_processed + m.tuples_lost
            || m.tuples_lost == 0,
            "{m:?}");
        // Timeline stays monotone under faults.
        let counts: Vec<u64> = m.produced_timeline.iter().map(|(_, c)| *c).collect();
        prop_assert!(counts.windows(2).all(|w| w[0] <= w[1]));
    }
}
