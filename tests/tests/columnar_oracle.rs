//! The differential-testing oracle: the discrete-tick simulator, the
//! threaded (per-node worker) executor and the columnar (sharded) executor
//! all drive the same `RuntimeCore`, so per seed the three backends must
//! replay **identical policy decisions** — the same routed plan for every
//! batch, the same migrations — and agree on every virtually-accounted
//! counter, fault-free and faulted. The two executors also run one operator
//! kernel over one generator family, so fault-free they must compute the
//! same *results*: produced counts, produced timeline and observed
//! selectivities, at any shard count.
//!
//! What is deliberately *not* asserted: wall-clock measurements (latency,
//! busy time), and under faults the threaded executor's produced/processed
//! split — which envelopes are in flight at a crash instant depends on
//! thread scheduling. The columnar dataplane is tick-synchronous, so for it
//! even those are exact per seed.

use proptest::prelude::*;
use rld_core::prelude::*;
use rld_tests::fixtures::{build_strategy, q1, sim_config, test_cluster, PiecewiseWorkload};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Fault-free: all three backends make identical policy decisions and
    /// agree on every virtual counter; nothing is lost anywhere; and the two
    /// executors — same tuples, same probe epochs, same kernel — compute
    /// identical results whatever the scheduler and the shard count.
    #[test]
    fn fault_free_backends_agree_on_the_whole_policy_surface(
        seed in 1u64..u32::MAX as u64,
        duration_ticks in 20u32..40,
    ) {
        let query = q1();
        let cluster = test_cluster(&query);
        let config = sim_config(seed, duration_ticks as f64);
        let workload = StockWorkload::new(10.0, RatePattern::Constant(1.0));

        let simulator = Simulator::new(query.clone(), cluster.clone(), config).unwrap();
        let row = ThreadedExecutor::new(
            query.clone(),
            cluster.clone(),
            ExecConfig::from_sim(config),
        )
        .unwrap();
        let columnar = |shards: usize| {
            let cfg = ColumnarConfig { shards, ..ColumnarConfig::from_sim(config) };
            ColumnarExecutor::new(query.clone(), cluster.clone(), cfg).unwrap()
        };

        for name in ["RLD", "HYB", "DYN"] {
            let mut s = build_strategy(name, &query, &cluster);
            let (sim_m, sim_t) = simulator.run_traced(&workload, s.as_mut()).unwrap();
            let mut s = build_strategy(name, &query, &cluster);
            let row_r = row.run_report(&workload, s.as_mut(), true).unwrap();
            let (row_m, row_t) = (row_r.metrics, row_r.trace.unwrap());
            let mut col_m = None;
            for shards in [1usize, 2] {
                let mut s = build_strategy(name, &query, &cluster);
                let col_r = columnar(shards).run_report(&workload, s.as_mut(), true).unwrap();
                prop_assert_eq!(
                    row_m.tuples_produced, col_r.metrics.tuples_produced,
                    "{}: produced, {} shards", name, shards
                );
                prop_assert_eq!(
                    &row_m.produced_timeline, &col_r.metrics.produced_timeline,
                    "{}: produced timeline, {} shards", name, shards
                );
                prop_assert_eq!(
                    &row_r.observed_stats, &col_r.observed_stats,
                    "{}: observed selectivities, {} shards", name, shards
                );
                col_m = Some((col_r.metrics, col_r.trace.unwrap()));
            }
            let (col_m, col_t) = col_m.unwrap();

            // One policy trace, three dataplanes.
            prop_assert_eq!(&sim_t.routes, &row_t.routes, "{}: sim vs row routes", name);
            prop_assert_eq!(&sim_t.routes, &col_t.routes, "{}: sim vs columnar routes", name);
            prop_assert_eq!(&sim_t.migrations, &row_t.migrations, "{}: sim vs row migrations", name);
            prop_assert_eq!(&sim_t.migrations, &col_t.migrations, "{}: sim vs columnar migrations", name);

            for (backend, m) in [("row", &row_m), ("columnar", &col_m)] {
                prop_assert_eq!(sim_m.tuples_arrived, m.tuples_arrived, "{} {}", name, backend);
                prop_assert_eq!(sim_m.batches, m.batches, "{} {}", name, backend);
                prop_assert_eq!(sim_m.migrations, m.migrations, "{} {}", name, backend);
                prop_assert_eq!(sim_m.plan_switches, m.plan_switches, "{} {}", name, backend);
                prop_assert_eq!(
                    sim_m.work_vector_recomputes,
                    m.work_vector_recomputes,
                    "{} {}", name, backend
                );
                prop_assert_eq!(m.tuples_lost, 0u64, "{} {}", name, backend);
                prop_assert_eq!(m.tuples_processed, m.tuples_arrived, "{} {}", name, backend);
            }
        }
    }

    /// Faulted: the policy surface (routes, migrations, reroutes, fault
    /// events, downtime) stays identical across all three backends, and the
    /// virtually-accounted loss (batches routed into a down pipeline) is
    /// identical between the simulator and the tick-synchronous columnar
    /// dataplane. The threaded executor may additionally lose envelopes that
    /// were in flight at the crash instant — a wall-clock race by design —
    /// so for it only conservation is asserted.
    #[test]
    fn faulted_backends_share_the_policy_surface(
        seed in 1u64..u32::MAX as u64,
        victim in 0usize..4,
    ) {
        let query = q1();
        let cluster = test_cluster(&query);
        let config = sim_config(seed, 40.0);
        let workload = StockWorkload::new(10.0, RatePattern::Constant(1.0));
        let faults = || {
            FaultPlan::node_crash(NodeId::new(victim), 10.0, 25.0, RecoverySemantic::Lost)
                .unwrap()
        };

        let simulator = Simulator::new(query.clone(), cluster.clone(), config)
            .unwrap()
            .with_faults(faults())
            .unwrap();
        let row = ThreadedExecutor::new(
            query.clone(),
            cluster.clone(),
            ExecConfig::from_sim(config),
        )
        .unwrap()
        .with_faults(faults())
        .unwrap();
        let columnar = ColumnarExecutor::new(
            query.clone(),
            cluster.clone(),
            ColumnarConfig::from_sim(config),
        )
        .unwrap()
        .with_faults(faults())
        .unwrap();

        for name in ["RLD", "HYB"] {
            let mut s = build_strategy(name, &query, &cluster);
            let (sim_m, sim_t) = simulator.run_traced(&workload, s.as_mut()).unwrap();
            let mut s = build_strategy(name, &query, &cluster);
            let (row_m, row_t) = row.run_traced(&workload, s.as_mut()).unwrap();
            let mut s = build_strategy(name, &query, &cluster);
            let (col_m, col_t) = columnar.run_traced(&workload, s.as_mut()).unwrap();

            prop_assert_eq!(&sim_t.routes, &row_t.routes, "{}: sim vs row routes", name);
            prop_assert_eq!(&sim_t.routes, &col_t.routes, "{}: sim vs columnar routes", name);
            prop_assert_eq!(&sim_t.migrations, &row_t.migrations, "{}: sim vs row migrations", name);
            prop_assert_eq!(&sim_t.migrations, &col_t.migrations, "{}: sim vs columnar migrations", name);

            for (backend, m) in [("row", &row_m), ("columnar", &col_m)] {
                prop_assert_eq!(sim_m.tuples_arrived, m.tuples_arrived, "{} {}", name, backend);
                prop_assert_eq!(sim_m.fault_events, m.fault_events, "{} {}", name, backend);
                prop_assert_eq!(sim_m.reroutes, m.reroutes, "{} {}", name, backend);
                prop_assert!(
                    (sim_m.downtime_node_secs - m.downtime_node_secs).abs() < 1e-9,
                    "{} {}: downtime {} vs {}",
                    name, backend, sim_m.downtime_node_secs, m.downtime_node_secs
                );
            }

            // Ingest-level loss is virtual, hence identical for the
            // tick-synchronous backends; the worker pool can only lose *more*.
            prop_assert_eq!(sim_m.tuples_lost, col_m.tuples_lost, "{}", name);
            prop_assert!(
                row_m.tuples_lost >= col_m.tuples_lost,
                "{}: row lost {} below the ingest-level floor {}",
                name, row_m.tuples_lost, col_m.tuples_lost
            );

            // Conservation holds on every backend, faulted or not.
            prop_assert_eq!(
                col_m.tuples_processed + col_m.tuples_lost,
                col_m.tuples_arrived,
                "columnar conservation ({})", name
            );
            prop_assert_eq!(
                row_m.tuples_processed + row_m.tuples_lost,
                row_m.tuples_arrived,
                "row conservation ({})", name
            );
        }
    }
}

/// The columnar dataplane is tick-synchronous, so *everything* virtual —
/// including the produced-tuple count and timeline — is bit-identical
/// across repeated runs.
#[test]
fn columnar_results_are_bit_deterministic_per_seed() {
    let query = q1();
    let cluster = test_cluster(&query);
    let config = sim_config(42, 60.0);
    let workload = StockWorkload::new(10.0, RatePattern::Constant(2.0));
    let columnar = ColumnarExecutor::new(
        query.clone(),
        cluster.clone(),
        ColumnarConfig::from_sim(config),
    )
    .unwrap();

    let run = || {
        let mut s = build_strategy("HYB", &query, &cluster);
        columnar.run_traced(&workload, s.as_mut()).unwrap()
    };
    let (a, a_trace) = run();
    let (b, b_trace) = run();
    assert_eq!(a_trace, b_trace);
    assert_eq!(a.tuples_arrived, b.tuples_arrived);
    assert_eq!(a.tuples_processed, b.tuples_processed);
    assert_eq!(a.tuples_lost, b.tuples_lost);
    assert_eq!(a.tuples_produced, b.tuples_produced);
    assert_eq!(a.produced_timeline, b.produced_timeline);
    assert_eq!(a.batches, b.batches);
    assert_eq!(a.migrations, b.migrations);
    assert!(a.tuples_produced > 0, "{a:?}");
}

/// The shard count is an execution detail, not an experiment parameter:
/// driving generation draws from per-(tick, row) substreams and window
/// partitions sum their integer match counts exactly, so per seed the
/// policy trace, every virtual counter, *and* the observed per-operator
/// selectivities are bit-identical at any shard count — fault-free and
/// under a `Lost` or `Replay` crash, at the stock rate and on a thin input
/// whose ticks mostly carry fewer driving tuples than there are shards (so
/// evaluation rounds dispatch to, and fold replies from, a strict subset of
/// the shards) — and on thin Q2 with nine windows and frequent plan
/// switches, fault-free and under `Lost`, where the threaded executor must
/// also produce the same counts and selectivities.
#[test]
fn columnar_results_are_invariant_across_shard_counts() {
    let query = q1();
    let cluster = test_cluster(&query);
    let config = sim_config(1234, 60.0);
    let stock = StockWorkload::new(10.0, RatePattern::Constant(2.0));
    let thin = PiecewiseWorkload::new("thin", query.clone())
        .rate_steps(query.driving_stream, vec![(0.0, 3.0)]);
    let run = |workload: &dyn Workload, shards: usize, fault: Option<RecoverySemantic>| {
        let cfg = ColumnarConfig {
            shards,
            ..ColumnarConfig::from_sim(config)
        };
        let mut exec = ColumnarExecutor::new(query.clone(), cluster.clone(), cfg).unwrap();
        if let Some(semantic) = fault {
            exec = exec
                .with_faults(FaultPlan::node_crash(NodeId::new(1), 15.0, 35.0, semantic).unwrap())
                .unwrap();
        }
        let mut s = build_strategy("HYB", &query, &cluster);
        exec.run_report(workload, s.as_mut(), true).unwrap()
    };
    let inputs: [(&str, &dyn Workload); 2] = [("stock", &stock), ("thin", &thin)];
    let faults = [
        None,
        Some(RecoverySemantic::Lost),
        Some(RecoverySemantic::Replay),
    ];
    for (input, workload) in inputs {
        for fault in faults {
            let baseline = run(workload, 1, fault);
            if input == "stock" && fault.is_none() {
                // Q1's 5-way join is brutally selective at this rate; a handful
                // of survivors is expected, zero would make the test vacuous.
                assert!(baseline.metrics.tuples_produced > 0);
            }
            if input == "thin" {
                // ~3 driving tuples a tick (Poisson): the 8-shard runs skip
                // most shards on most ticks.
                assert!(
                    baseline.metrics.tuples_arrived < 4 * baseline.metrics.batches,
                    "thin input is not thin: {:?}",
                    baseline.metrics
                );
            }
            for shards in [2usize, 8] {
                let r = run(workload, shards, fault);
                let label = format!("input={input} shards={shards} fault={fault:?}");
                assert_same_results(&label, &baseline, &r);
            }
        }
    }

    // Q2 at a thin rate under the regime-switching workload: nine window
    // joins, each advanced and republished every tick, and a plan switch
    // every few ticks. The columnar executor publishes each probe epoch in
    // place; the threaded executor's envelopes can still hold the previous
    // epoch when the next one is published, so there the copy-on-write copy
    // runs too — and both must compute the same results.
    let query = Query::q2_ten_way_join();
    let cluster = test_cluster(&query);
    let deployment = runtime_rld_config()
        .compiler(query.clone())
        .compile(&cluster)
        .unwrap();
    let config = sim_config(1234, 120.0);
    let workload = regime_switching_workload(&query, 10.0, RatePattern::Constant(0.05));
    let run = |shards: usize, fault: Option<RecoverySemantic>| {
        let cfg = ColumnarConfig {
            shards,
            ..ColumnarConfig::from_sim(config)
        };
        let mut exec = ColumnarExecutor::new(query.clone(), cluster.clone(), cfg).unwrap();
        if let Some(semantic) = fault {
            exec = exec
                .with_faults(FaultPlan::node_crash(NodeId::new(1), 15.0, 35.0, semantic).unwrap())
                .unwrap();
        }
        exec.run_report(&workload, &mut deployment.deploy(), true)
            .unwrap()
    };
    for fault in [None, Some(RecoverySemantic::Lost)] {
        let baseline = run(1, fault);
        let m = &baseline.metrics;
        assert!(
            m.tuples_arrived < 10 * m.batches && m.plan_switches >= 10,
            "q2 input is not thin with frequent plan switches: {m:?}"
        );
        for shards in [2usize, 8] {
            let label = format!("input=q2 shards={shards} fault={fault:?}");
            assert_same_results(&label, &baseline, &run(shards, fault));
        }
        if fault.is_none() {
            let row =
                ThreadedExecutor::new(query.clone(), cluster.clone(), ExecConfig::from_sim(config))
                    .unwrap()
                    .run_report(&workload, &mut deployment.deploy(), false)
                    .unwrap();
            assert_eq!(
                row.metrics.tuples_produced, m.tuples_produced,
                "q2: threaded vs columnar produced"
            );
            assert_eq!(
                row.observed_stats, baseline.observed_stats,
                "q2: threaded vs columnar observed selectivities"
            );
        }
    }
}

/// Two columnar runs of one input at different shard counts agree on the
/// policy trace, every virtual counter and the observed selectivities.
fn assert_same_results(label: &str, baseline: &ExecReport, r: &ExecReport) {
    assert_eq!(baseline.trace, r.trace, "{label}: policy trace");
    assert_eq!(
        baseline.metrics.tuples_arrived, r.metrics.tuples_arrived,
        "{label}: arrived"
    );
    assert_eq!(
        baseline.metrics.tuples_processed, r.metrics.tuples_processed,
        "{label}: processed"
    );
    assert_eq!(
        baseline.metrics.tuples_produced, r.metrics.tuples_produced,
        "{label}: produced"
    );
    assert_eq!(
        baseline.metrics.tuples_lost, r.metrics.tuples_lost,
        "{label}: lost"
    );
    assert_eq!(
        baseline.metrics.produced_timeline, r.metrics.produced_timeline,
        "{label}: produced timeline"
    );
    assert_eq!(
        baseline.observed_stats, r.observed_stats,
        "{label}: observed selectivities"
    );
}

/// Under `Replay` the columnar crash preserves window state, under `Lost`
/// it clears it — mirroring the row executor's semantics — while the
/// ingest-level loss floor stays identical between the two semantics
/// (routing is policy-deterministic and ignores the semantic).
#[test]
fn columnar_recovery_semantics_only_differ_in_window_state() {
    let query = q1();
    let cluster = test_cluster(&query);
    let config = sim_config(7, 120.0);
    let workload = StockWorkload::new(10.0, RatePattern::Constant(2.0));
    let run = |semantic: RecoverySemantic| {
        let columnar = ColumnarExecutor::new(
            query.clone(),
            cluster.clone(),
            ColumnarConfig::from_sim(config),
        )
        .unwrap()
        .with_faults(FaultPlan::node_crash(NodeId::new(0), 30.0, 60.0, semantic).unwrap())
        .unwrap();
        let mut s = build_strategy("ROD", &query, &cluster);
        columnar.run(&workload, s.as_mut()).unwrap()
    };
    let lost = run(RecoverySemantic::Lost);
    let replay = run(RecoverySemantic::Replay);
    assert_eq!(lost.tuples_arrived, replay.tuples_arrived);
    assert_eq!(lost.tuples_lost, replay.tuples_lost);
    assert_eq!(
        lost.tuples_processed, replay.tuples_processed,
        "processing is ingest-gated, not state-gated"
    );
    assert!(
        replay.tuples_produced >= lost.tuples_produced,
        "a preserved window can only produce more: replay {} vs lost {}",
        replay.tuples_produced,
        lost.tuples_produced
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Conservation under random fault plans: 1–3 crash/recover pairs on
    /// random (possibly the same, possibly overlapping) nodes, an optional
    /// straggler, `Lost` or `Replay` — every arrived tuple is processed or
    /// lost, exactly once, on the threaded executor and on the columnar one
    /// at 1 and 3 shards, and the columnar counts do not depend on the shard
    /// count.
    #[test]
    fn tuples_are_conserved_under_random_fault_plans(
        (seed, ticks, strategy, replay) in (1u64..u32::MAX as u64, 20u32..61, 0usize..4, 0u32..2),
        pairs in prop::collection::vec((0usize..4, 0.0f64..1.0, 0.0f64..1.0), 1..4),
        (degrade_node, factor, degrade_at) in (0usize..5, 0.5f64..=0.9, 0.0f64..1.0),
    ) {
        let query = q1();
        let cluster = test_cluster(&query);
        let horizon = ticks as f64;
        let mut events = Vec::new();
        for (i, &(node, at, len)) in pairs.iter().enumerate() {
            // A distinct fractional offset per pair keeps any two events of
            // one node off the same instant. An event applies at the first
            // tick start at or after it, so a recovery in the last tick
            // never applies: that node stays down to the end of the run.
            let crash = 1.05 + 0.1 * i as f64 + (at * (horizon - 3.0)).floor();
            let recover = crash + 1.0 + (len * (horizon - 1.0 - crash)).floor();
            for (at_secs, kind) in [(crash, FaultKind::Crash), (recover, FaultKind::Recover)] {
                events.push(FaultEvent { at_secs, node: NodeId::new(node), kind });
            }
        }
        // Node 4 does not exist in the 4-node cluster: no straggler.
        if degrade_node < 4 {
            events.push(FaultEvent {
                at_secs: 1.45 + (degrade_at * (horizon - 2.0)).floor(),
                node: NodeId::new(degrade_node),
                kind: FaultKind::Degrade { factor },
            });
        }
        let semantic = if replay == 1 { RecoverySemantic::Replay } else { RecoverySemantic::Lost };
        let plan = FaultPlan::new(events, semantic).unwrap();
        let name = ["RLD", "HYB", "DYN", "ROD"][strategy];
        let config = sim_config(seed, horizon);
        let workload = StockWorkload::new(10.0, RatePattern::Constant(1.0));

        let row = ThreadedExecutor::new(query.clone(), cluster.clone(), ExecConfig::from_sim(config))
            .unwrap()
            .with_faults(plan.clone())
            .unwrap();
        let mut s = build_strategy(name, &query, &cluster);
        let row_m = row.run(&workload, s.as_mut()).unwrap();
        prop_assert_eq!(
            row_m.tuples_processed + row_m.tuples_lost,
            row_m.tuples_arrived,
            "{} row conservation under {:?}", name, plan
        );

        let mut columnar = Vec::new();
        for shards in [1usize, 3] {
            let cfg = ColumnarConfig { shards, ..ColumnarConfig::from_sim(config) };
            let exec = ColumnarExecutor::new(query.clone(), cluster.clone(), cfg)
                .unwrap()
                .with_faults(plan.clone())
                .unwrap();
            let mut s = build_strategy(name, &query, &cluster);
            let m = exec.run(&workload, s.as_mut()).unwrap();
            prop_assert_eq!(
                m.tuples_processed + m.tuples_lost,
                m.tuples_arrived,
                "{} columnar conservation at {} shards under {:?}", name, shards, plan
            );
            prop_assert_eq!(m.tuples_arrived, row_m.tuples_arrived, "{} arrivals", name);
            columnar.push(m);
        }
        let (one, three) = (&columnar[0], &columnar[1]);
        prop_assert_eq!(one.tuples_processed, three.tuples_processed, "{} processed", name);
        prop_assert_eq!(one.tuples_lost, three.tuples_lost, "{} lost", name);
        prop_assert_eq!(one.tuples_produced, three.tuples_produced, "{} produced", name);
        prop_assert_eq!(&one.produced_timeline, &three.produced_timeline, "{} timeline", name);
    }
}
