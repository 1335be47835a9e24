//! The policy tick is written once, in `RuntimeCore`; these tests pin the
//! two things every backend inherits from it: the integer tick clock and the
//! migration bounds check (an error, with every shard thread joined).

use rld_core::physical::MigrationDecision;
use rld_core::prelude::*;
use rld_tests::fixtures::{build_strategy, q1, test_cluster, PiecewiseWorkload};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

/// Run one strategy on one backend: the simulator, or the executor at 1 or
/// 2 shards.
fn run_on(
    backend: &str,
    config: SimConfig,
    workload: &dyn Workload,
    strategy: &mut dyn DistributionStrategy,
) -> Result<RunMetrics> {
    let (query, cluster) = (q1(), test_cluster(&q1()));
    let columnar = |shards| ColumnarConfig {
        shards,
        ..ColumnarConfig::from_sim(config)
    };
    match backend {
        "simulator" => Simulator::new(query, cluster, config)?.run(workload, strategy),
        "columnar-1" => ColumnarExecutor::new(query, cluster, columnar(1))?.run(workload, strategy),
        "columnar-2" => ColumnarExecutor::new(query, cluster, columnar(2))?.run(workload, strategy),
        other => panic!("unknown backend {other}"),
    }
}

const BACKENDS: [&str; 3] = ["simulator", "columnar-1", "columnar-2"];

#[test]
fn a_fractional_tick_neither_drifts_nor_overruns_on_any_backend() {
    // Ten additions of 0.1 stop at 0.9999999999999999 < 1.0 — an accumulated
    // float clock runs an eleventh tick. 500 tuples/s leaves no tick empty,
    // so every tick is one batch.
    let config = SimConfig {
        tick_secs: 0.1,
        duration_secs: 1.0,
        ..SimConfig::default()
    };
    let query = q1();
    let workload = PiecewiseWorkload::new("fast", query.clone())
        .rate_steps(query.driving_stream, vec![(0.0, 500.0)]);
    let mut arrived = Vec::new();
    for backend in BACKENDS {
        let mut rod = build_strategy("ROD", &query, &test_cluster(&query));
        let m = run_on(backend, config, &workload, rod.as_mut()).unwrap();
        assert_eq!(m.batches, 10, "{backend}: one batch per tick, ten ticks");
        assert_eq!(m.tuples_lost, 0, "{backend}");
        arrived.push(m.tuples_arrived);
    }
    assert!(arrived[0] > 0);
    assert!(arrived.iter().all(|n| *n == arrived[0]), "{arrived:?}");
}

/// ROD, except that its third adaptation call emits a migration onto a node
/// the cluster does not have.
struct Rogue {
    inner: Box<dyn DistributionStrategy>,
    calls: u32,
}

impl DistributionStrategy for Rogue {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn physical(&self) -> &PhysicalPlan {
        self.inner.physical()
    }
    fn plan_for_batch(&mut self, monitored: &StatsSnapshot) -> Option<Arc<LogicalPlan>> {
        self.inner.plan_for_batch(monitored)
    }
    fn maybe_migrate(
        &mut self,
        _ctx: &RuntimeContext<'_>,
        _monitored: &StatsSnapshot,
    ) -> Result<Vec<MigrationDecision>> {
        self.calls += 1;
        Ok(if self.calls == 3 {
            vec![MigrationDecision {
                operator: OperatorId::new(0),
                from: NodeId::new(0),
                to: NodeId::new(99),
                state_bytes: 64,
            }]
        } else {
            Vec::new()
        })
    }
}

#[test]
fn a_migration_onto_a_missing_node_is_a_runtime_error_on_every_backend() {
    for backend in BACKENDS {
        // Run under a watchdog: a backend that leaves its workers waiting
        // would otherwise hang the suite instead of failing this test.
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let query = q1();
            let mut rogue = Rogue {
                inner: build_strategy("ROD", &query, &test_cluster(&query)),
                calls: 0,
            };
            let config = SimConfig {
                duration_secs: 20.0,
                ..SimConfig::default()
            };
            let workload = StockWorkload::default_config();
            let _ = tx.send(run_on(backend, config, &workload, &mut rogue));
        });
        let outcome = rx
            .recv_timeout(Duration::from_secs(60))
            .unwrap_or_else(|_| panic!("{backend} hung (or panicked) on a bad migration"));
        match outcome {
            Err(RldError::Runtime(msg)) => {
                assert!(msg.contains("names a node outside"), "{backend}: {msg}")
            }
            other => panic!("{backend}: expected a runtime error, got {other:?}"),
        }
    }
}
