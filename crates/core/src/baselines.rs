//! Convenience constructors for the ROD and DYN baseline deployments used in
//! the runtime comparison (§6.5).

use rld_common::{Query, Result, RldError, StatsSnapshot};
use rld_engine::{DynStrategy, RodStrategy};
use rld_physical::{Cluster, DynPlanner, RodPlanner};

/// Build the ROD baseline deployment: one logical plan optimal at the given
/// statistics, placed statically and never adapted.
pub fn deploy_rod(query: &Query, stats: &StatsSnapshot, cluster: &Cluster) -> Result<RodStrategy> {
    let plan = RodPlanner::new().plan(query, stats, cluster, 1.0)?;
    Ok(RodStrategy::new(plan.logical, plan.physical))
}

/// Build the DYN baseline deployment: one logical plan, placed for the given
/// statistics, rebalanced by operator migration every `rebalance_period_secs`
/// (positive; `+∞` never rebalances). A NaN, zero or negative period is
/// refused; a positive one below 0.1 s runs as 0.1 s, the floor
/// [`DynStrategy::new`] keeps.
pub fn deploy_dyn(
    query: &Query,
    stats: &StatsSnapshot,
    cluster: &Cluster,
    rebalance_period_secs: f64,
) -> Result<DynStrategy> {
    check_rebalance_period(rebalance_period_secs)?;
    let (logical, physical) = DynPlanner::initial_plan(query, stats, cluster)?;
    Ok(DynStrategy::new(logical, physical, rebalance_period_secs))
}

/// A migration controller's rebalance period must be positive; `+∞` means
/// "never rebalance". A NaN, zero or negative period is refused, not
/// clamped to some default.
pub(crate) fn check_rebalance_period(secs: f64) -> Result<()> {
    // Not `secs <= 0.0`, which would let a NaN through.
    if secs > 0.0 {
        Ok(())
    } else {
        Err(RldError::InvalidArgument(format!(
            "the rebalance period must be positive, got {secs} s"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rld_engine::DistributionStrategy;

    #[test]
    fn baselines_deploy_successfully() {
        let q = Query::q1_stock_monitoring();
        let cluster = Cluster::homogeneous(4, 1e9).unwrap();
        let rod = deploy_rod(&q, &q.default_stats(), &cluster).unwrap();
        assert_eq!(rod.name(), "ROD");
        let dyn_sys = deploy_dyn(&q, &q.default_stats(), &cluster, 5.0).unwrap();
        assert_eq!(dyn_sys.name(), "DYN");
    }

    #[test]
    fn baselines_fail_on_impossible_clusters() {
        let q = Query::q1_stock_monitoring();
        let cluster = Cluster::homogeneous(2, 1e-9).unwrap();
        assert!(deploy_rod(&q, &q.default_stats(), &cluster).is_err());
        assert!(deploy_dyn(&q, &q.default_stats(), &cluster, 5.0).is_err());
    }

    #[test]
    fn deploy_dyn_refuses_a_nan_zero_or_negative_period() {
        let q = Query::q1_stock_monitoring();
        let cluster = Cluster::homogeneous(4, 1e9).unwrap();
        for period in [f64::NAN, -5.0, 0.0] {
            let result = deploy_dyn(&q, &q.default_stats(), &cluster, period);
            let err = result.err().expect("refused");
            assert!(
                matches!(err, RldError::InvalidArgument(_)),
                "{period}: {err}"
            );
        }
        // +∞ is a period too: the controller never rebalances.
        let never = deploy_dyn(&q, &q.default_stats(), &cluster, f64::INFINITY).unwrap();
        assert_eq!(never.rebalance_period_secs(), f64::INFINITY);
    }
}
