//! The differential-testing oracle: the discrete-tick simulator and the
//! executor drive the same `RuntimeCore`, so per seed they must replay
//! **identical policy decisions** — the same routed plan for every batch,
//! the same migrations — and agree on every virtually-accounted counter,
//! losses included, fault-free and faulted, at any shard count. The
//! executor is tick-synchronous, so its *results* — produced counts,
//! produced timeline and observed selectivities — are also exact per seed
//! and independent of the shard count.
//!
//! What is deliberately *not* asserted: wall-clock measurements (latency,
//! busy time, utilization).

use proptest::prelude::*;
use rld_core::prelude::*;
use rld_tests::fixtures::{build_strategy, q1, sim_config, test_cluster, PiecewiseWorkload};

/// The executor on `q1()`'s test cluster at a shard count.
fn executor(config: SimConfig, shards: usize, faults: Option<FaultPlan>) -> ColumnarExecutor {
    let query = q1();
    let cfg = ColumnarConfig {
        shards,
        ..ColumnarConfig::from_sim(config)
    };
    let exec = ColumnarExecutor::new(query.clone(), test_cluster(&query), cfg).unwrap();
    match faults {
        Some(plan) => exec.with_faults(plan).unwrap(),
        None => exec,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Fault-free, at any monitor smoothing, for all four strategies: the
    /// simulator and the executor at 1, 2 and 3 shards make identical
    /// policy decisions and agree on
    /// every virtual counter; nothing is lost anywhere; and the executor
    /// computes identical results whatever the shard count.
    #[test]
    fn fault_free_backends_agree_on_the_whole_policy_surface(
        seed in 1u64..u32::MAX as u64,
        duration_ticks in 20u32..40,
        alpha_pct in 30u32..100,
    ) {
        let query = q1();
        let cluster = test_cluster(&query);
        let config = SimConfig {
            monitor_alpha: alpha_pct as f64 / 100.0,
            ..sim_config(seed, duration_ticks as f64)
        };
        // Regime switches well inside the horizon, so RLD/HYB genuinely
        // re-classify and the traces are not trivially constant.
        let workload = StockWorkload::new(10.0, RatePattern::Constant(1.0));
        let simulator = Simulator::new(query.clone(), cluster.clone(), config).unwrap();

        for name in ["RLD", "ROD", "HYB", "DYN"] {
            let mut s = build_strategy(name, &query, &cluster);
            let (sim_m, sim_t) = simulator.run_traced(&workload, s.as_mut()).unwrap();
            prop_assert_eq!(sim_m.tuples_lost, 0u64, "{}", name);
            let mut first: Option<ExecReport> = None;
            for shards in [1usize, 2, 3] {
                let mut s = build_strategy(name, &query, &cluster);
                let r = executor(config, shards, None)
                    .run_report(&workload, s.as_mut(), true)
                    .unwrap();
                let (m, t) = (&r.metrics, r.trace.as_ref().unwrap());
                prop_assert_eq!(&sim_t.routes, &t.routes, "{}: routes, {} shards", name, shards);
                prop_assert_eq!(
                    &sim_t.migrations, &t.migrations,
                    "{}: migrations, {} shards", name, shards
                );
                prop_assert_eq!(sim_m.tuples_arrived, m.tuples_arrived, "{} {}", name, shards);
                prop_assert_eq!(sim_m.batches, m.batches, "{} {}", name, shards);
                prop_assert_eq!(sim_m.migrations, m.migrations, "{} {}", name, shards);
                prop_assert_eq!(sim_m.plan_switches, m.plan_switches, "{} {}", name, shards);
                prop_assert_eq!(
                    sim_m.work_vector_recomputes,
                    m.work_vector_recomputes,
                    "{} {}", name, shards
                );
                prop_assert_eq!(m.tuples_lost, 0u64, "{} {}", name, shards);
                prop_assert_eq!(m.tuples_processed, m.tuples_arrived, "{} {}", name, shards);
                match &first {
                    None => first = Some(r),
                    Some(one) => {
                        prop_assert_eq!(
                            one.metrics.tuples_produced, m.tuples_produced,
                            "{}: produced, {} shards", name, shards
                        );
                        prop_assert_eq!(
                            &one.metrics.produced_timeline, &m.produced_timeline,
                            "{}: produced timeline, {} shards", name, shards
                        );
                        prop_assert_eq!(
                            &one.observed_stats, &r.observed_stats,
                            "{}: observed selectivities, {} shards", name, shards
                        );
                    }
                }
            }
        }
    }

    /// Faulted: the policy surface (routes, migrations, reroutes, fault
    /// events, downtime) and the loss — batches routed into a down pipeline,
    /// dropped at ingest — are identical between the simulator and the
    /// executor at 1, 2 and 3 shards, and every executor run conserves its
    /// tuples.
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

        for name in ["RLD", "HYB"] {
            let mut s = build_strategy(name, &query, &cluster);
            let (sim_m, sim_t) = simulator.run_traced(&workload, s.as_mut()).unwrap();
            for shards in [1usize, 2, 3] {
                let mut s = build_strategy(name, &query, &cluster);
                let (m, t) = executor(config, shards, Some(faults()))
                    .run_traced(&workload, s.as_mut())
                    .unwrap();
                prop_assert_eq!(&sim_t.routes, &t.routes, "{}: routes, {} shards", name, shards);
                prop_assert_eq!(
                    &sim_t.migrations, &t.migrations,
                    "{}: migrations, {} shards", name, shards
                );
                prop_assert_eq!(sim_m.tuples_arrived, m.tuples_arrived, "{} {}", name, shards);
                prop_assert_eq!(sim_m.fault_events, m.fault_events, "{} {}", name, shards);
                prop_assert_eq!(sim_m.reroutes, m.reroutes, "{} {}", name, shards);
                prop_assert!(
                    (sim_m.downtime_node_secs - m.downtime_node_secs).abs() < 1e-9,
                    "{} {}: downtime {} vs {}",
                    name, shards, sim_m.downtime_node_secs, m.downtime_node_secs
                );
                // One loss semantic: lost at ingest, on both backends.
                prop_assert_eq!(sim_m.tuples_lost, m.tuples_lost, "{}: lost, {} shards", name, shards);
                prop_assert_eq!(
                    m.tuples_processed + m.tuples_lost,
                    m.tuples_arrived,
                    "{}: conservation, {} shards", name, shards
                );
            }
        }
    }
}

/// The executor is tick-synchronous, so *everything* virtual — including
/// the produced-tuple count and timeline — is bit-identical across repeated
/// runs.
#[test]
fn columnar_results_are_bit_deterministic_per_seed() {
    let query = q1();
    let cluster = test_cluster(&query);
    let config = sim_config(42, 60.0);
    let workload = StockWorkload::new(10.0, RatePattern::Constant(2.0));
    let columnar = executor(config, 1, None);
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
/// switches, fault-free and under `Lost`.
#[test]
fn columnar_results_are_invariant_across_shard_counts() {
    let query = q1();
    let cluster = test_cluster(&query);
    let config = sim_config(1234, 60.0);
    let stock = StockWorkload::new(10.0, RatePattern::Constant(2.0));
    let thin = PiecewiseWorkload::new("thin", query.clone())
        .rate_steps(query.driving_stream, vec![(0.0, 3.0)]);
    let crash = |semantic| FaultPlan::node_crash(NodeId::new(1), 15.0, 35.0, semantic).unwrap();
    let run = |workload: &dyn Workload, shards: usize, fault: Option<RecoverySemantic>| {
        let mut s = build_strategy("HYB", &query, &cluster);
        executor(config, shards, fault.map(crash))
            .run_report(workload, s.as_mut(), true)
            .unwrap()
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
    // every few ticks — each one compiling the new plan's hops.
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
            exec = exec.with_faults(crash(semantic)).unwrap();
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
    }
}

/// Two executor runs of one input at different shard counts agree on the
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

/// Under `Replay` a crash preserves window state, under `Lost` it clears it,
/// while the ingest-level loss stays identical between the two semantics
/// (routing is policy-deterministic and ignores the semantic) — the only
/// difference `Replay` makes, with no in-flight work to park.
#[test]
fn columnar_recovery_semantics_only_differ_in_window_state() {
    let query = q1();
    let cluster = test_cluster(&query);
    let config = sim_config(7, 120.0);
    let workload = StockWorkload::new(10.0, RatePattern::Constant(2.0));
    let run = |semantic: RecoverySemantic| {
        let crash = FaultPlan::node_crash(NodeId::new(0), 30.0, 60.0, semantic).unwrap();
        let mut s = build_strategy("ROD", &query, &cluster);
        executor(config, 1, Some(crash))
            .run(&workload, s.as_mut())
            .unwrap()
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

    /// One loss semantic under random fault plans: 1–3 crash/recover pairs
    /// on random (possibly the same, possibly overlapping) nodes, an
    /// optional straggler, `Lost` or `Replay` — the executor at 1, 2 and 3
    /// shards drops exactly the simulator's batches at ingest (under
    /// `Replay`, exactly its tuples), every arrived tuple is processed or
    /// lost exactly once, and the executor's counts do not depend on the
    /// shard count.
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

        let simulator = Simulator::new(query.clone(), cluster.clone(), config)
            .unwrap()
            .with_faults(plan.clone())
            .unwrap();
        let mut s = build_strategy(name, &query, &cluster);
        let sim_m = simulator.run(&workload, s.as_mut()).unwrap();

        let mut runs = Vec::new();
        for shards in [1usize, 2, 3] {
            let mut s = build_strategy(name, &query, &cluster);
            let m = executor(config, shards, Some(plan.clone()))
                .run(&workload, s.as_mut())
                .unwrap();
            prop_assert_eq!(
                m.tuples_processed + m.tuples_lost,
                m.tuples_arrived,
                "{} conservation at {} shards under {:?}", name, shards, plan
            );
            prop_assert_eq!(m.tuples_arrived, sim_m.tuples_arrived, "{} arrivals", name);
            prop_assert_eq!(m.reroutes, sim_m.reroutes, "{} reroutes", name);
            // One loss path: a batch routed into a down pipeline is lost at
            // ingest, on both backends. Under `Lost` the simulator's crash
            // also discards the work its queue model still holds on the
            // node; the executor holds none between ticks.
            if semantic == RecoverySemantic::Replay {
                prop_assert_eq!(
                    m.tuples_lost, sim_m.tuples_lost,
                    "{} lost at {} shards under {:?}", name, shards, plan
                );
            } else {
                prop_assert!(
                    m.tuples_lost <= sim_m.tuples_lost,
                    "{} lost at {} shards: {} above the simulator's {} under {:?}",
                    name, shards, m.tuples_lost, sim_m.tuples_lost, plan
                );
            }
            runs.push(m);
        }
        for m in &runs[1..] {
            prop_assert_eq!(runs[0].tuples_processed, m.tuples_processed, "{} processed", name);
            prop_assert_eq!(runs[0].tuples_produced, m.tuples_produced, "{} produced", name);
            prop_assert_eq!(&runs[0].produced_timeline, &m.produced_timeline, "{} timeline", name);
        }
    }
}

/// Sanity for the oracle itself: different seeds produce different arrival
/// sequences, so the agreement above is not vacuous.
#[test]
fn different_seeds_differ() {
    let query = q1();
    let cluster = test_cluster(&query);
    let workload = StockWorkload::default_config();
    let arrivals = |seed: u64| {
        let simulator =
            Simulator::new(query.clone(), cluster.clone(), sim_config(seed, 30.0)).unwrap();
        let mut strategy = build_strategy("ROD", &query, &cluster);
        simulator
            .run(&workload, strategy.as_mut())
            .unwrap()
            .tuples_arrived
    };
    assert_ne!(arrivals(1), arrivals(2));
}
