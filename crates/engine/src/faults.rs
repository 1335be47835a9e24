//! The fault plane: deterministic schedules of machine-level disturbances.
//!
//! The paper's robustness argument is about *statistical* uncertainty, but a
//! production DSPS also faces *machine-level* uncertainty: nodes crash, come
//! back, and slow down. A [`FaultPlan`] is a deterministic, seed-derivable
//! schedule of such node events that the simulator applies at tick
//! granularity, so every strategy is exercised against the exact same
//! disturbance sequence — and every run is bit-reproducible.
//!
//! Three event kinds cover the space the fault-tolerance literature cares
//! about:
//!
//! * **Crash / Recover** — the node disappears entirely; its in-flight
//!   backlog is either lost or replayed on recovery, per the plan's
//!   [`RecoverySemantic`] (the at-most-once vs at-least-once distinction).
//! * **Degrade / Restore** — the node keeps running at a fraction of its
//!   nominal capacity (a straggler). Ramps are just sequences of degrade
//!   events with decreasing factors.
//!
//! Schedules are built either explicitly ([`FaultPlan::new`],
//! [`FaultPlan::node_crash`], [`FaultPlan::straggler_ramp`]) or derived from
//! a seed ([`FaultPlan::flapping`] samples up/down intervals from a seeded
//! RNG), and validate against the cluster size before a run starts.

use rld_common::rng::{derive_seed, rng_from_seed, sample_exponential};
use rld_common::{NodeId, Result, RldError};

/// What happens to a node at one point of the fault schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The node goes down. Work routed through it is dropped (and counted)
    /// until it recovers; its queued backlog follows the plan's
    /// [`RecoverySemantic`].
    Crash,
    /// The node comes back up (at whatever degradation factor it last had).
    Recover,
    /// The node keeps running but only delivers `factor` × its nominal
    /// capacity (a straggler). `factor` must be in `(0, 1]`.
    Degrade {
        /// Fraction of nominal capacity the node still delivers.
        factor: f64,
    },
    /// The node returns to full nominal capacity.
    Restore,
}

/// One scheduled node event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Simulated time at which the event takes effect (start of the tick
    /// containing it).
    pub at_secs: f64,
    /// The node the event applies to.
    pub node: NodeId,
    /// What happens.
    pub kind: FaultKind,
}

/// What happens to a crashed node's queued (in-flight) work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoverySemantic {
    /// The backlog is discarded: the tuples it carried are counted as lost
    /// (at-most-once processing).
    #[default]
    Lost,
    /// The backlog survives the crash and is processed after recovery
    /// (at-least-once processing via upstream replay); those tuples are
    /// delayed, not lost.
    Replay,
}

/// A deterministic schedule of node fault events plus the recovery semantic
/// applied when nodes crash.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
    /// What happens to in-flight work on a crashing node.
    pub recovery: RecoverySemantic,
}

impl FaultPlan {
    /// The empty plan: a frozen, fault-free cluster (the pre-fault-plane
    /// behaviour).
    pub fn none() -> Self {
        Self::default()
    }

    /// Build a plan from explicit events. Events are sorted by time (ties
    /// broken by node index, then by declaration order); times must be
    /// finite and non-negative, and degrade factors strictly inside
    /// `(0, 1)` — a factor of `1.0` is not a degradation and a factor of
    /// `0.0` (or more than one) would silently produce a nonsense effective
    /// capacity, so both are rejected here instead of surfacing as weird
    /// simulation results. Two events for the same node at the same instant
    /// are ambiguous (their application order would be declaration
    /// dependent) and are rejected as well.
    pub fn new(events: Vec<FaultEvent>, recovery: RecoverySemantic) -> Result<Self> {
        for e in &events {
            if !e.at_secs.is_finite() || e.at_secs < 0.0 {
                return Err(RldError::InvalidArgument(format!(
                    "fault event time must be finite and non-negative, got {}",
                    e.at_secs
                )));
            }
            if let FaultKind::Degrade { factor } = e.kind {
                if !(factor > 0.0 && factor < 1.0) {
                    return Err(RldError::InvalidArgument(format!(
                        "degrade factor must be in (0, 1), got {factor}"
                    )));
                }
            }
        }
        let mut events = events;
        events.sort_by(|a, b| {
            a.at_secs
                .partial_cmp(&b.at_secs)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.node.index().cmp(&b.node.index()))
        });
        if let Some(pair) = events
            .windows(2)
            .find(|w| w[0].node == w[1].node && w[0].at_secs == w[1].at_secs)
        {
            return Err(RldError::InvalidArgument(format!(
                "duplicate fault events for node {} at t={}: {:?} and {:?}",
                pair[0].node, pair[0].at_secs, pair[0].kind, pair[1].kind
            )));
        }
        Ok(Self { events, recovery })
    }

    /// One node crashing at `crash_at` and recovering at `recover_at`.
    pub fn node_crash(
        node: NodeId,
        crash_at: f64,
        recover_at: f64,
        recovery: RecoverySemantic,
    ) -> Result<Self> {
        if recover_at <= crash_at {
            return Err(RldError::InvalidArgument(format!(
                "recovery at {recover_at} must come after the crash at {crash_at}"
            )));
        }
        Self::new(
            vec![
                FaultEvent {
                    at_secs: crash_at,
                    node,
                    kind: FaultKind::Crash,
                },
                FaultEvent {
                    at_secs: recover_at,
                    node,
                    kind: FaultKind::Recover,
                },
            ],
            recovery,
        )
    }

    /// A straggler ramp: starting at `start_secs`, the node's capacity steps
    /// down to `floor_factor` over `ramp_secs` in `steps` equal steps, holds
    /// there for `hold_secs`, then is restored to full capacity.
    pub fn straggler_ramp(
        node: NodeId,
        start_secs: f64,
        ramp_secs: f64,
        hold_secs: f64,
        floor_factor: f64,
        steps: usize,
    ) -> Result<Self> {
        if !(floor_factor > 0.0 && floor_factor < 1.0) {
            return Err(RldError::InvalidArgument(format!(
                "straggler floor factor must be in (0, 1), got {floor_factor}"
            )));
        }
        if steps == 0 || ramp_secs <= 0.0 {
            return Err(RldError::InvalidArgument(
                "straggler ramp needs at least one step over a positive duration".into(),
            ));
        }
        if hold_secs <= 0.0 {
            // A zero hold would schedule the restore at the exact instant of
            // the final degrade step — an ambiguous duplicate event.
            return Err(RldError::InvalidArgument(
                "straggler ramp needs a positive hold before restoring".into(),
            ));
        }
        let mut events = Vec::with_capacity(steps + 1);
        for s in 0..steps {
            // Step s+1 of `steps` fires at its share of the ramp window, so
            // the floor factor is reached exactly at `start + ramp_secs`.
            let progress = (s + 1) as f64 / steps as f64;
            events.push(FaultEvent {
                at_secs: start_secs + ramp_secs * progress,
                node,
                kind: FaultKind::Degrade {
                    factor: 1.0 + (floor_factor - 1.0) * progress,
                },
            });
        }
        events.push(FaultEvent {
            at_secs: start_secs + ramp_secs + hold_secs,
            node,
            kind: FaultKind::Restore,
        });
        Self::new(events, RecoverySemantic::Lost)
    }

    /// A seed-derived flapping node: alternating up/down intervals sampled
    /// from exponential distributions with the given means, from
    /// `start_secs` until `end_secs`. The same seed always yields the same
    /// schedule; down intervals are at least one second so every crash is
    /// observable at tick granularity (no crash starts within the last
    /// second of the window, and a final recovery may fall beyond it —
    /// leaving the node down through the end of a run that stops there).
    pub fn flapping(
        seed: u64,
        node: NodeId,
        start_secs: f64,
        end_secs: f64,
        mean_up_secs: f64,
        mean_down_secs: f64,
        recovery: RecoverySemantic,
    ) -> Result<Self> {
        if end_secs <= start_secs || mean_up_secs <= 0.0 || mean_down_secs <= 0.0 {
            return Err(RldError::InvalidArgument(
                "flapping needs a positive window and positive mean intervals".into(),
            ));
        }
        let mut rng = rng_from_seed(derive_seed(seed, "fault-flap"));
        let mut events = Vec::new();
        let mut t = start_secs + sample_exponential(&mut rng, mean_up_secs);
        while t + 1.0 <= end_secs {
            events.push(FaultEvent {
                at_secs: t,
                node,
                kind: FaultKind::Crash,
            });
            let down = sample_exponential(&mut rng, mean_down_secs).max(1.0);
            t += down;
            events.push(FaultEvent {
                at_secs: t,
                node,
                kind: FaultKind::Recover,
            });
            t += sample_exponential(&mut rng, mean_up_secs);
        }
        Self::new(events, recovery)
    }

    /// The schedule, sorted by time.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether the plan schedules no events at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of crash events in the schedule.
    pub fn num_crashes(&self) -> usize {
        self.events
            .iter()
            .filter(|e| e.kind == FaultKind::Crash)
            .count()
    }

    /// Validate that every event names a node inside an `n`-node cluster.
    pub fn validate_for(&self, num_nodes: usize) -> Result<()> {
        for e in &self.events {
            if e.node.index() >= num_nodes {
                return Err(RldError::InvalidArgument(format!(
                    "fault event at t={} names node {} outside the {}-node cluster",
                    e.at_secs, e.node, num_nodes
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_sorted_and_validated() {
        let plan = FaultPlan::new(
            vec![
                FaultEvent {
                    at_secs: 100.0,
                    node: NodeId::new(0),
                    kind: FaultKind::Recover,
                },
                FaultEvent {
                    at_secs: 50.0,
                    node: NodeId::new(0),
                    kind: FaultKind::Crash,
                },
            ],
            RecoverySemantic::Lost,
        )
        .unwrap();
        assert_eq!(plan.events()[0].at_secs, 50.0);
        assert_eq!(plan.num_crashes(), 1);
        assert!(plan.validate_for(1).is_ok());
        assert!(plan.validate_for(0).is_err());

        assert!(FaultPlan::new(
            vec![FaultEvent {
                at_secs: -1.0,
                node: NodeId::new(0),
                kind: FaultKind::Crash,
            }],
            RecoverySemantic::Lost,
        )
        .is_err());
        assert!(FaultPlan::new(
            vec![FaultEvent {
                at_secs: 0.0,
                node: NodeId::new(0),
                kind: FaultKind::Degrade { factor: 0.0 },
            }],
            RecoverySemantic::Lost,
        )
        .is_err());
    }

    #[test]
    fn degrade_factor_must_be_a_real_degradation() {
        let degrade = |factor| {
            FaultPlan::new(
                vec![FaultEvent {
                    at_secs: 0.0,
                    node: NodeId::new(0),
                    kind: FaultKind::Degrade { factor },
                }],
                RecoverySemantic::Lost,
            )
        };
        // 1.0 is "no degradation" and anything above would *add* capacity;
        // both silently produced nonsense effective capacities before.
        assert!(degrade(1.0).is_err());
        assert!(degrade(1.5).is_err());
        assert!(degrade(0.0).is_err());
        assert!(degrade(-0.5).is_err());
        assert!(degrade(f64::NAN).is_err());
        assert!(degrade(0.5).is_ok());
        assert!(degrade(0.999).is_ok());
    }

    #[test]
    fn duplicate_same_instant_events_for_one_node_are_rejected() {
        let event = |at_secs, node, kind| FaultEvent {
            at_secs,
            node: NodeId::new(node),
            kind,
        };
        // Same node, same instant: ambiguous application order.
        assert!(FaultPlan::new(
            vec![
                event(10.0, 0, FaultKind::Crash),
                event(10.0, 0, FaultKind::Recover),
            ],
            RecoverySemantic::Lost,
        )
        .is_err());
        // Same instant on different nodes is fine.
        assert!(FaultPlan::new(
            vec![
                event(10.0, 0, FaultKind::Crash),
                event(10.0, 1, FaultKind::Crash),
            ],
            RecoverySemantic::Lost,
        )
        .is_ok());
        // Same node at different instants is fine.
        assert!(FaultPlan::new(
            vec![
                event(10.0, 0, FaultKind::Crash),
                event(11.0, 0, FaultKind::Recover),
            ],
            RecoverySemantic::Lost,
        )
        .is_ok());
    }

    #[test]
    fn straggler_ramp_requires_a_positive_hold() {
        assert!(FaultPlan::straggler_ramp(NodeId::new(0), 10.0, 20.0, 0.0, 0.5, 2).is_err());
        assert!(FaultPlan::straggler_ramp(NodeId::new(0), 10.0, 20.0, -1.0, 0.5, 2).is_err());
        assert!(FaultPlan::straggler_ramp(NodeId::new(0), 10.0, 20.0, 5.0, 0.5, 2).is_ok());
    }

    #[test]
    fn node_crash_orders_crash_before_recovery() {
        let plan =
            FaultPlan::node_crash(NodeId::new(2), 60.0, 180.0, RecoverySemantic::Replay).unwrap();
        assert_eq!(plan.events().len(), 2);
        assert_eq!(plan.events()[0].kind, FaultKind::Crash);
        assert_eq!(plan.events()[1].kind, FaultKind::Recover);
        assert_eq!(plan.recovery, RecoverySemantic::Replay);
        assert!(FaultPlan::node_crash(NodeId::new(2), 60.0, 60.0, RecoverySemantic::Lost).is_err());
    }

    #[test]
    fn straggler_ramp_descends_to_the_floor_then_restores() {
        let plan = FaultPlan::straggler_ramp(NodeId::new(1), 60.0, 120.0, 60.0, 0.25, 4).unwrap();
        let factors: Vec<f64> = plan
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::Degrade { factor } => Some(factor),
                _ => None,
            })
            .collect();
        assert_eq!(factors.len(), 4);
        assert!(factors.windows(2).all(|w| w[1] < w[0]), "{factors:?}");
        assert!((factors.last().unwrap() - 0.25).abs() < 1e-12);
        let last = plan.events().last().unwrap();
        assert_eq!(last.kind, FaultKind::Restore);
        assert!((last.at_secs - 240.0).abs() < 1e-12);
        assert!(FaultPlan::straggler_ramp(NodeId::new(1), 0.0, 10.0, 0.0, 1.5, 2).is_err());
    }

    #[test]
    fn flapping_is_deterministic_per_seed_and_alternates() {
        let a = FaultPlan::flapping(
            7,
            NodeId::new(0),
            10.0,
            600.0,
            60.0,
            15.0,
            RecoverySemantic::Lost,
        )
        .unwrap();
        let b = FaultPlan::flapping(
            7,
            NodeId::new(0),
            10.0,
            600.0,
            60.0,
            15.0,
            RecoverySemantic::Lost,
        )
        .unwrap();
        assert_eq!(a, b);
        let c = FaultPlan::flapping(
            8,
            NodeId::new(0),
            10.0,
            600.0,
            60.0,
            15.0,
            RecoverySemantic::Lost,
        )
        .unwrap();
        assert_ne!(a, c);
        assert!(a.num_crashes() >= 1);
        // Crash and recover events strictly alternate, every down interval
        // lasts at least a second, and no crash starts within the last
        // second of the window.
        for pair in a.events().chunks(2) {
            assert_eq!(pair[0].kind, FaultKind::Crash);
            assert!(pair[0].at_secs + 1.0 <= 600.0);
            if pair.len() == 2 {
                assert_eq!(pair[1].kind, FaultKind::Recover);
                assert!(pair[1].at_secs - pair[0].at_secs >= 1.0);
            }
        }
    }

    #[test]
    fn empty_plan_is_a_no_op() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        assert_eq!(plan.num_crashes(), 0);
        assert!(plan.validate_for(0).is_ok());
    }
}
