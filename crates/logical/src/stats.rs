//! Search statistics reported by the logical-solution generators.

use std::fmt;

/// Statistics about one logical-solution search run. These are the quantities
/// plotted in Figures 10–12 of the paper (optimizer calls) and recorded in
/// REPRODUCTION.json.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SearchStats {
    /// Number of (uncached) black-box optimizer calls made.
    pub optimizer_calls: usize,
    /// Number of distinct robust logical plans in the produced solution.
    pub distinct_plans: usize,
    /// Number of regions examined (partitioning algorithms) or points sampled.
    pub regions_examined: usize,
    /// Number of partitioning steps performed (0 for ES / RS).
    pub partitions: usize,
    /// Lattice points the §4.2 weight function was assigned to, summed over
    /// the partitioning steps (0 for ES / RS).
    pub weighted_points: usize,
    /// Plan-cost evaluations the weight assignment made, one per point of
    /// the cost tables it filled (0 for ES / RS) — with `optimizer_calls`,
    /// where the search's work went.
    pub cost_evaluations: usize,
    /// Whether the search terminated early via the aging counter (ERP) or a
    /// call budget rather than by exhausting its work list.
    pub terminated_early: bool,
    /// Wall-clock duration of the search in microseconds.
    pub elapsed_micros: u64,
}

impl SearchStats {
    /// Elapsed time in milliseconds.
    pub fn elapsed_ms(&self) -> f64 {
        self.elapsed_micros as f64 / 1000.0
    }
}

impl fmt::Display for SearchStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "calls={} plans={} regions={} partitions={} weighted={} cost_evals={} early={} elapsed={:.2}ms",
            self.optimizer_calls,
            self.distinct_plans,
            self.regions_examined,
            self.partitions,
            self.weighted_points,
            self.cost_evaluations,
            self.terminated_early,
            self.elapsed_ms()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zeroed() {
        let s = SearchStats::default();
        assert_eq!(s.optimizer_calls, 0);
        assert_eq!(s.distinct_plans, 0);
        assert!(!s.terminated_early);
    }

    #[test]
    fn elapsed_conversion_and_display() {
        let s = SearchStats {
            optimizer_calls: 12,
            distinct_plans: 3,
            regions_examined: 7,
            partitions: 2,
            weighted_points: 50,
            cost_evaluations: 100,
            terminated_early: true,
            elapsed_micros: 2500,
        };
        assert!((s.elapsed_ms() - 2.5).abs() < 1e-12);
        let text = s.to_string();
        assert!(text.contains("calls=12"));
        assert!(text.contains("plans=3"));
        assert!(text.contains("weighted=50 cost_evals=100"));
        assert!(text.contains("early=true"));
    }
}
