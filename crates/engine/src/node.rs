//! Simulated cluster nodes.

use crate::faults::{FaultKind, RecoverySemantic};
use rld_common::NodeId;

/// One simulated machine: a work server with a nominal processing capacity
/// (cost units per second), a FIFO backlog of queued work, and a dynamic
/// availability state (up / down / degraded) driven by the fault plane.
#[derive(Debug, Clone, PartialEq)]
pub struct SimNode {
    /// The node's identifier.
    pub id: NodeId,
    /// Nominal processing capacity in cost units per second.
    pub capacity: f64,
    /// Queued, not yet processed work in cost units.
    pub backlog: f64,
    /// Total query work processed so far.
    pub work_done: f64,
    /// Total overhead work (migrations, classification) processed so far.
    pub overhead_done: f64,
    /// Overhead work still queued (subset of `backlog`).
    overhead_pending: f64,
    /// Whether the node is currently up.
    up: bool,
    /// Straggler factor: fraction of nominal capacity currently delivered.
    capacity_factor: f64,
    /// Estimated driving tuples whose work is still queued on this node
    /// (fractional: a batch's tuples are attributed to nodes in proportion
    /// to the work each node does for the batch). This is what a crash with
    /// [`RecoverySemantic::Lost`] counts as lost.
    inflight_tuples: f64,
}

/// What a crash did to a node's queued state.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CrashOutcome {
    /// Work (cost units) discarded by the crash (zero under replay).
    pub work_lost: f64,
    /// Estimated driving tuples discarded by the crash (zero under replay).
    pub tuples_lost: f64,
}

impl SimNode {
    /// Create an idle, healthy node.
    pub fn new(id: NodeId, capacity: f64) -> Self {
        assert!(capacity > 0.0, "node capacity must be positive");
        Self {
            id,
            capacity,
            backlog: 0.0,
            work_done: 0.0,
            overhead_done: 0.0,
            overhead_pending: 0.0,
            up: true,
            capacity_factor: 1.0,
            inflight_tuples: 0.0,
        }
    }

    /// Whether the node is currently up.
    pub fn is_up(&self) -> bool {
        self.up
    }

    /// The capacity the node currently delivers: nominal × degradation
    /// factor while up, zero while down.
    pub fn effective_capacity(&self) -> f64 {
        if self.up {
            self.capacity * self.capacity_factor
        } else {
            0.0
        }
    }

    /// The current straggler factor (1.0 = full nominal capacity).
    pub fn capacity_factor(&self) -> f64 {
        self.capacity_factor
    }

    /// Set the straggler factor (1.0 = full nominal capacity).
    pub fn set_capacity_factor(&mut self, factor: f64) {
        assert!(
            factor > 0.0 && factor.is_finite(),
            "capacity factor must be positive and finite"
        );
        self.capacity_factor = factor;
    }

    /// Take the node down. Under [`RecoverySemantic::Lost`] the queued
    /// backlog (and the tuples it carried) is discarded and reported; under
    /// [`RecoverySemantic::Replay`] it survives and will be processed after
    /// recovery.
    pub fn crash(&mut self, semantic: RecoverySemantic) -> CrashOutcome {
        self.up = false;
        match semantic {
            RecoverySemantic::Lost => {
                let outcome = CrashOutcome {
                    work_lost: self.backlog,
                    tuples_lost: self.inflight_tuples,
                };
                self.backlog = 0.0;
                self.overhead_pending = 0.0;
                self.inflight_tuples = 0.0;
                outcome
            }
            RecoverySemantic::Replay => CrashOutcome::default(),
        }
    }

    /// Bring the node back up (at whatever degradation factor it last had).
    pub fn recover(&mut self) {
        self.up = true;
    }

    /// Apply one fault-plane event to this node; only a crash has an
    /// outcome to report.
    pub fn apply_fault(&mut self, kind: FaultKind, semantic: RecoverySemantic) -> CrashOutcome {
        match kind {
            FaultKind::Crash => return self.crash(semantic),
            FaultKind::Recover => self.recover(),
            FaultKind::Degrade { factor } => self.set_capacity_factor(factor),
            FaultKind::Restore => self.set_capacity_factor(1.0),
        }
        CrashOutcome::default()
    }

    /// Estimated driving tuples whose work is still queued here.
    pub fn inflight_tuples(&self) -> f64 {
        self.inflight_tuples
    }

    /// Enqueue query-processing work (cost units) carrying an estimated
    /// `tuples` driving tuples (fractional share of a batch).
    pub fn enqueue_work_with_tuples(&mut self, work: f64, tuples: f64) {
        debug_assert!(work >= 0.0 && tuples >= 0.0);
        self.backlog += work.max(0.0);
        self.inflight_tuples += tuples.max(0.0);
    }

    /// Enqueue query-processing work (cost units).
    pub fn enqueue_work(&mut self, work: f64) {
        self.enqueue_work_with_tuples(work, 0.0);
    }

    /// Enqueue overhead work (migration state transfer, plan classification).
    pub fn enqueue_overhead(&mut self, work: f64) {
        debug_assert!(work >= 0.0);
        let w = work.max(0.0);
        self.backlog += w;
        self.overhead_pending += w;
    }

    /// The queueing delay (seconds) a new arrival would currently experience
    /// before its own work starts being served. Infinite while the node is
    /// down.
    pub fn queueing_delay_secs(&self) -> f64 {
        let capacity = self.effective_capacity();
        if capacity <= 0.0 {
            return f64::INFINITY;
        }
        self.backlog / capacity
    }

    /// Time (seconds) this node needs to process `work` cost units once it
    /// reaches the head of the queue. Infinite while the node is down.
    pub fn service_time_secs(&self, work: f64) -> f64 {
        let capacity = self.effective_capacity();
        if capacity <= 0.0 {
            return f64::INFINITY;
        }
        work.max(0.0) / capacity
    }

    /// Advance the node by `dt` seconds of processing, draining the backlog
    /// at the *effective* capacity (a down node processes nothing). Returns
    /// the amount of work actually processed this tick.
    pub fn tick(&mut self, dt_secs: f64) -> f64 {
        let can_do = self.effective_capacity() * dt_secs.max(0.0);
        let done = can_do.min(self.backlog);
        let backlog_before = self.backlog;
        self.backlog -= done;
        // Attribute drained work proportionally to overhead vs query work,
        // and retire the in-flight tuple estimate at the same rate.
        let overhead_share = if done > 0.0 && backlog_before > 0.0 {
            (self.overhead_pending / backlog_before).clamp(0.0, 1.0) * done
        } else {
            0.0
        };
        let overhead_share = overhead_share.min(self.overhead_pending);
        self.overhead_pending -= overhead_share;
        self.overhead_done += overhead_share;
        self.work_done += done - overhead_share;
        if backlog_before > 0.0 {
            self.inflight_tuples *= (self.backlog / backlog_before).max(0.0);
        }
        done
    }

    /// Utilization over an interval of `dt` seconds given the work processed,
    /// relative to the nominal capacity.
    pub fn utilization(&self, work_processed: f64, dt_secs: f64) -> f64 {
        if dt_secs <= 0.0 {
            return 0.0;
        }
        (work_processed / (self.capacity * dt_secs)).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_drains_backlog_up_to_capacity() {
        let mut n = SimNode::new(NodeId::new(0), 100.0);
        n.enqueue_work(250.0);
        assert_eq!(n.tick(1.0), 100.0);
        assert_eq!(n.backlog, 150.0);
        assert_eq!(n.tick(1.0), 100.0);
        assert_eq!(n.tick(1.0), 50.0);
        assert_eq!(n.backlog, 0.0);
        assert_eq!(n.tick(1.0), 0.0);
        assert!((n.work_done - 250.0).abs() < 1e-9);
    }

    #[test]
    fn queueing_and_service_times() {
        let mut n = SimNode::new(NodeId::new(1), 50.0);
        n.enqueue_work(100.0);
        assert!((n.queueing_delay_secs() - 2.0).abs() < 1e-12);
        assert!((n.service_time_secs(25.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn overhead_is_tracked_separately() {
        let mut n = SimNode::new(NodeId::new(0), 100.0);
        n.enqueue_work(60.0);
        n.enqueue_overhead(40.0);
        let done = n.tick(1.0);
        assert!((done - 100.0).abs() < 1e-9);
        assert!((n.overhead_done - 40.0).abs() < 1e-6);
        assert!((n.work_done - 60.0).abs() < 1e-6);
    }

    #[test]
    fn utilization_is_bounded() {
        let n = SimNode::new(NodeId::new(0), 100.0);
        assert_eq!(n.utilization(50.0, 1.0), 0.5);
        assert_eq!(n.utilization(500.0, 1.0), 1.0);
        assert_eq!(n.utilization(10.0, 0.0), 0.0);
    }

    #[test]
    fn down_node_processes_nothing_and_recovers() {
        let mut n = SimNode::new(NodeId::new(0), 100.0);
        n.enqueue_work(50.0);
        let outcome = n.crash(RecoverySemantic::Replay);
        assert_eq!(outcome, CrashOutcome::default());
        assert!(!n.is_up());
        assert_eq!(n.effective_capacity(), 0.0);
        assert_eq!(n.tick(1.0), 0.0);
        assert_eq!(n.backlog, 50.0, "replay keeps the backlog");
        assert_eq!(n.queueing_delay_secs(), f64::INFINITY);
        assert_eq!(n.service_time_secs(10.0), f64::INFINITY);
        n.recover();
        assert_eq!(n.tick(1.0), 50.0);
        assert_eq!(n.backlog, 0.0);
    }

    #[test]
    fn crash_with_lost_semantics_discards_backlog_and_tuples() {
        let mut n = SimNode::new(NodeId::new(0), 100.0);
        n.enqueue_work_with_tuples(80.0, 8.0);
        n.enqueue_overhead(20.0);
        let outcome = n.crash(RecoverySemantic::Lost);
        assert!((outcome.work_lost - 100.0).abs() < 1e-12);
        assert!((outcome.tuples_lost - 8.0).abs() < 1e-12);
        assert_eq!(n.backlog, 0.0);
        assert_eq!(n.inflight_tuples(), 0.0);
        n.recover();
        assert_eq!(n.tick(1.0), 0.0, "nothing left to process");
    }

    #[test]
    fn fault_events_map_onto_the_node_state() {
        let mut n = SimNode::new(NodeId::new(0), 100.0);
        n.enqueue_work_with_tuples(80.0, 8.0);
        let outcome = n.apply_fault(FaultKind::Crash, RecoverySemantic::Lost);
        assert_eq!(outcome.tuples_lost, 8.0);
        assert!(!n.is_up());
        let quiet = n.apply_fault(FaultKind::Recover, RecoverySemantic::Lost);
        assert_eq!(quiet, CrashOutcome::default());
        assert!(n.is_up());
        n.apply_fault(FaultKind::Degrade { factor: 0.5 }, RecoverySemantic::Lost);
        assert_eq!(n.effective_capacity(), 50.0);
        n.apply_fault(FaultKind::Restore, RecoverySemantic::Lost);
        assert_eq!(n.effective_capacity(), 100.0);
    }

    #[test]
    fn degradation_slows_the_drain() {
        let mut n = SimNode::new(NodeId::new(0), 100.0);
        n.set_capacity_factor(0.25);
        assert_eq!(n.effective_capacity(), 25.0);
        n.enqueue_work(100.0);
        assert_eq!(n.tick(1.0), 25.0);
        assert!((n.queueing_delay_secs() - 3.0).abs() < 1e-12);
        n.set_capacity_factor(1.0);
        assert_eq!(n.tick(1.0), 75.0);
    }

    #[test]
    fn inflight_tuples_retire_proportionally_to_drain() {
        let mut n = SimNode::new(NodeId::new(0), 100.0);
        n.enqueue_work_with_tuples(200.0, 10.0);
        n.tick(1.0); // half the backlog drains
        assert!((n.inflight_tuples() - 5.0).abs() < 1e-9);
        n.tick(1.0);
        assert!(n.inflight_tuples().abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "node capacity must be positive")]
    fn zero_capacity_panics() {
        SimNode::new(NodeId::new(0), 0.0);
    }
}
