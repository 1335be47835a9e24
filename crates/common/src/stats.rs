//! Statistic estimates and runtime statistics snapshots.
//!
//! The paper's parameter space is built around single-point estimates `E`
//! of operator selectivities and stream input rates, each annotated with an
//! integer *uncertainty level* `U` (Algorithm 1). At runtime the statistics
//! monitor produces [`StatsSnapshot`]s — the actual observed values — which
//! the online classifier maps back into the parameter space to pick the
//! robust logical plan to execute.

use crate::ids::{OperatorId, StreamId};
use std::fmt;

/// Identifies one monitored statistic: either an operator selectivity or a
/// stream input rate. These are the dimensions of the parameter space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StatKey {
    /// The selectivity of an operator.
    Selectivity(OperatorId),
    /// The input rate (tuples/sec) of a stream.
    InputRate(StreamId),
}

impl fmt::Display for StatKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatKey::Selectivity(op) => write!(f, "sel({op})"),
            StatKey::InputRate(s) => write!(f, "rate({s})"),
        }
    }
}

/// Integer uncertainty level of a statistic estimate.
///
/// `U = 1` means low uncertainty (e.g. the estimate comes from representative
/// training data); larger values widen the parameter-space interval around
/// the estimate by `±0.1 · U` per Algorithm 1 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UncertaintyLevel(pub u32);

impl UncertaintyLevel {
    /// The unit step Δ of Algorithm 1 in the paper.
    pub(crate) const UNIT_STEP: f64 = 0.1;

    /// Create a new uncertainty level.
    pub const fn new(level: u32) -> Self {
        Self(level)
    }

    /// The relative half-width `Δ · U` of the interval around the estimate.
    pub(crate) fn relative_half_width(self) -> f64 {
        Self::UNIT_STEP * self.0 as f64
    }

    /// Lower bound of the interval around `estimate` (Algorithm 1: `E·(1−ΔU)`),
    /// clamped at zero since selectivities and rates are non-negative.
    pub fn lo(self, estimate: f64) -> f64 {
        (estimate * (1.0 - self.relative_half_width())).max(0.0)
    }

    /// Upper bound of the interval around `estimate` (Algorithm 1: `E·(1+ΔU)`).
    pub fn hi(self, estimate: f64) -> f64 {
        estimate * (1.0 + self.relative_half_width())
    }
}

impl fmt::Display for UncertaintyLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "U{}", self.0)
    }
}

/// A single-point statistic estimate plus its uncertainty level — one entry
/// of the vector `E` / `U` in the paper's problem statement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatisticEstimate {
    /// Which statistic this estimates.
    pub key: StatKey,
    /// The single-point estimate value.
    pub value: f64,
    /// How uncertain the estimate is.
    pub uncertainty: UncertaintyLevel,
}

impl StatisticEstimate {
    /// Create a new estimate.
    pub fn new(key: StatKey, value: f64, uncertainty: UncertaintyLevel) -> Self {
        Self {
            key,
            value,
            uncertainty,
        }
    }

    /// Interval `[lo, hi]` spanned by this estimate in the parameter space.
    pub fn interval(&self) -> (f64, f64) {
        (
            self.uncertainty.lo(self.value),
            self.uncertainty.hi(self.value),
        )
    }
}

/// A snapshot of actual statistic values — what the statistics monitor
/// observes at runtime, or what a workload generator declares as ground truth
/// at a point in simulated time.
///
/// Stored densely: one `Option<f64>` slot per operator index and one per
/// stream index, so a lookup is an index, not a search, and rewriting a
/// snapshot in place ([`Self::clear`] then [`Self::set`]) allocates nothing
/// once the tables have grown. Each table ends at its highest recorded key,
/// which keeps the derived equality that of the key → value map it stands
/// for: two snapshots are equal exactly when they record the same keys with
/// equal values. Iteration and `Debug` go in key order (every selectivity by
/// operator, then every rate by stream).
#[derive(Clone, PartialEq, Default)]
pub struct StatsSnapshot {
    /// Selectivity of operator `i` at index `i`.
    selectivities: Vec<Option<f64>>,
    /// Input rate of stream `i` at index `i`.
    rates: Vec<Option<f64>>,
    /// Number of recorded statistics (`Some` slots).
    len: usize,
}

impl StatsSnapshot {
    /// Create an empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a snapshot from `(key, value)` pairs; a later pair wins over an
    /// earlier one with the same key.
    pub fn from_entries(entries: impl IntoIterator<Item = (StatKey, f64)>) -> Self {
        let mut snap = Self::new();
        for (key, value) in entries {
            snap.set(key, value);
        }
        snap
    }

    /// Set a statistic value.
    pub fn set(&mut self, key: StatKey, value: f64) {
        let (slots, i) = match key {
            StatKey::Selectivity(op) => (&mut self.selectivities, op.index()),
            StatKey::InputRate(s) => (&mut self.rates, s.index()),
        };
        if slots.len() <= i {
            slots.resize(i + 1, None);
        }
        if slots[i].replace(value).is_none() {
            self.len += 1;
        }
    }

    /// Look up a statistic value.
    pub fn get(&self, key: StatKey) -> Option<f64> {
        match key {
            StatKey::Selectivity(op) => self.selectivity(op),
            StatKey::InputRate(s) => self.input_rate(s),
        }
    }

    /// Selectivity of an operator, if recorded.
    pub fn selectivity(&self, op: OperatorId) -> Option<f64> {
        self.selectivities.get(op.index()).copied().flatten()
    }

    /// Input rate of a stream, if recorded.
    pub fn input_rate(&self, stream: StreamId) -> Option<f64> {
        self.rates.get(stream.index()).copied().flatten()
    }

    /// Number of recorded statistics.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Forget every statistic, keeping the tables' capacity for the next
    /// rewrite.
    pub fn clear(&mut self) {
        self.selectivities.clear();
        self.rates.clear();
        self.len = 0;
    }

    /// Iterate over `(key, value)` pairs in deterministic (key) order.
    pub fn iter(&self) -> impl Iterator<Item = (StatKey, f64)> + '_ {
        let selectivities = self.selectivities.iter().enumerate();
        let rates = self.rates.iter().enumerate();
        selectivities
            .filter_map(|(i, v)| Some((StatKey::Selectivity(OperatorId::new(i)), (*v)?)))
            .chain(rates.filter_map(|(i, v)| Some((StatKey::InputRate(StreamId::new(i)), (*v)?))))
    }

    /// Merge another snapshot into this one; `other` wins on conflicts.
    pub fn merge(&mut self, other: &StatsSnapshot) {
        for (k, v) in other.iter() {
            self.set(k, v);
        }
    }

    /// Returns a copy with every value blended towards `other` by factor
    /// `alpha` (exponential smoothing, used by the statistics monitor).
    pub fn smoothed_towards(&self, other: &StatsSnapshot, alpha: f64) -> StatsSnapshot {
        let alpha = alpha.clamp(0.0, 1.0);
        let mut out = self.clone();
        for (k, v) in other.iter() {
            let blended = match self.get(k) {
                Some(old) => old * (1.0 - alpha) + v * alpha,
                None => v,
            };
            out.set(k, blended);
        }
        out
    }
}

/// The snapshot as the key → value map it stands for.
impl fmt::Debug for StatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Entries<'a>(&'a StatsSnapshot);
        impl fmt::Debug for Entries<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map().entries(self.0.iter()).finish()
            }
        }
        f.debug_struct("StatsSnapshot")
            .field("entries", &Entries(self))
            .finish()
    }
}

impl FromIterator<(StatKey, f64)> for StatsSnapshot {
    fn from_iter<T: IntoIterator<Item = (StatKey, f64)>>(iter: T) -> Self {
        Self::from_entries(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn algorithm1_interval_matches_paper_example() {
        // Paper Example 2: E = {δ1 = 0.4, λN = 100}, U = 2
        // → δ1 ∈ [0.32, 0.48], λN ∈ [80, 120].
        let u = UncertaintyLevel::new(2);
        let sel = StatisticEstimate::new(StatKey::Selectivity(OperatorId::new(0)), 0.4, u);
        let (lo, hi) = sel.interval();
        assert!((lo - 0.32).abs() < 1e-12);
        assert!((hi - 0.48).abs() < 1e-12);

        let rate = StatisticEstimate::new(StatKey::InputRate(StreamId::new(0)), 100.0, u);
        let (lo, hi) = rate.interval();
        assert!((lo - 80.0).abs() < 1e-12);
        assert!((hi - 120.0).abs() < 1e-12);
    }

    #[test]
    fn large_uncertainty_clamps_at_zero() {
        let u = UncertaintyLevel::new(15); // 150% half width
        assert_eq!(u.lo(0.4), 0.0);
        assert!(u.hi(0.4) > 0.4);
    }

    #[test]
    fn snapshot_set_get() {
        let mut s = StatsSnapshot::new();
        assert!(s.is_empty());
        s.set(StatKey::Selectivity(OperatorId::new(1)), 0.7);
        s.set(StatKey::InputRate(StreamId::new(0)), 120.0);
        assert_eq!(s.selectivity(OperatorId::new(1)), Some(0.7));
        assert_eq!(s.input_rate(StreamId::new(0)), Some(120.0));
        assert_eq!(s.selectivity(OperatorId::new(9)), None);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn merge_prefers_other() {
        let mut a = StatsSnapshot::from_entries([(StatKey::InputRate(StreamId::new(0)), 10.0)]);
        let b = StatsSnapshot::from_entries([
            (StatKey::InputRate(StreamId::new(0)), 20.0),
            (StatKey::Selectivity(OperatorId::new(0)), 0.5),
        ]);
        a.merge(&b);
        assert_eq!(a.input_rate(StreamId::new(0)), Some(20.0));
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn smoothing_blends_values() {
        let a = StatsSnapshot::from_entries([(StatKey::InputRate(StreamId::new(0)), 100.0)]);
        let b = StatsSnapshot::from_entries([(StatKey::InputRate(StreamId::new(0)), 200.0)]);
        let s = a.smoothed_towards(&b, 0.25);
        assert!((s.input_rate(StreamId::new(0)).unwrap() - 125.0).abs() < 1e-12);
        // alpha is clamped
        let s2 = a.smoothed_towards(&b, 5.0);
        assert_eq!(s2.input_rate(StreamId::new(0)), Some(200.0));
    }

    #[test]
    fn stat_key_display() {
        assert_eq!(
            StatKey::Selectivity(OperatorId::new(2)).to_string(),
            "sel(op2)"
        );
        assert_eq!(StatKey::InputRate(StreamId::new(1)).to_string(), "rate(s1)");
        assert_eq!(UncertaintyLevel::new(3).to_string(), "U3");
    }

    #[test]
    fn iteration_is_deterministic() {
        let s = StatsSnapshot::from_entries([
            (StatKey::InputRate(StreamId::new(1)), 1.0),
            (StatKey::Selectivity(OperatorId::new(0)), 2.0),
            (StatKey::InputRate(StreamId::new(0)), 3.0),
        ]);
        let keys: Vec<_> = s.iter().map(|(k, _)| k).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    /// The key → value map a [`StatsSnapshot`] stands for.
    type Model = BTreeMap<StatKey, f64>;

    fn key(kind: u32, id: usize) -> StatKey {
        if kind == 0 {
            StatKey::Selectivity(OperatorId::new(id))
        } else {
            StatKey::InputRate(StreamId::new(id))
        }
    }

    /// `get`, `len`, `iter` order and values (by bits, so NaN compares) and
    /// `Debug` of `snap` agree with `model`.
    fn assert_agrees(snap: &StatsSnapshot, model: &Model) {
        let bits = |pairs: Vec<(StatKey, f64)>| -> Vec<(StatKey, u64)> {
            pairs.into_iter().map(|(k, v)| (k, v.to_bits())).collect()
        };
        assert_eq!(snap.len(), model.len());
        assert_eq!(snap.is_empty(), model.is_empty());
        assert_eq!(
            bits(snap.iter().collect()),
            bits(model.iter().map(|(k, v)| (*k, *v)).collect())
        );
        for kind in 0..2 {
            for id in 0..42 {
                let k = key(kind, id);
                assert_eq!(
                    snap.get(k).map(f64::to_bits),
                    model.get(&k).map(|v| v.to_bits())
                );
            }
        }
        assert_eq!(
            format!("{snap:?}"),
            format!("StatsSnapshot {{ entries: {model:?} }}")
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random interleavings of `set`, `merge`, `smoothed_towards`,
        /// `clear` and `clone_from` over two dense snapshots and their
        /// `BTreeMap` models, over ids 0..40 of both key kinds: every
        /// observable agrees after every step, and `==` agrees with the
        /// models' `==`.
        #[test]
        fn dense_snapshot_matches_a_btreemap_model(
            steps in prop::collection::vec((0u32..9, 0u32..2, 0usize..40, 0u32..6), 1..80)
        ) {
            let mut snaps = [StatsSnapshot::new(), StatsSnapshot::new()];
            let mut models = [Model::new(), Model::new()];
            for (op, kind, id, v) in steps {
                // Few distinct values so the two sides often coincide; one
                // of them NaN, which equals nothing.
                let value = if v == 5 { f64::NAN } else { f64::from(v) * 0.25 };
                let (i, j) = if op % 2 == 0 { (0, 1) } else { (1, 0) };
                match op / 2 {
                    0 | 1 => {
                        snaps[i].set(key(kind, id), value);
                        models[i].insert(key(kind, id), value);
                    }
                    2 => {
                        let other = snaps[j].clone();
                        snaps[i].merge(&other);
                        let other = models[j].clone();
                        models[i].extend(other);
                    }
                    3 => {
                        let alpha = f64::from(v) * 0.3 - 0.2;
                        snaps[i] = snaps[i].smoothed_towards(&snaps[j], alpha);
                        let a = alpha.clamp(0.0, 1.0);
                        let mut out = models[i].clone();
                        for (k, v) in &models[j] {
                            let blended = match models[i].get(k) {
                                Some(old) => old * (1.0 - a) + v * a,
                                None => *v,
                            };
                            out.insert(*k, blended);
                        }
                        models[i] = out;
                    }
                    _ if kind == 0 => {
                        snaps[i].clear();
                        models[i].clear();
                    }
                    _ => {
                        let other = snaps[j].clone();
                        snaps[i].clone_from(&other);
                        models[i] = models[j].clone();
                    }
                }
                for (snap, model) in snaps.iter().zip(&models) {
                    assert_agrees(snap, model);
                }
                prop_assert_eq!(snaps[0] == snaps[1], models[0] == models[1]);
                prop_assert_eq!(
                    StatsSnapshot::from_entries(models[0].iter().map(|(k, v)| (*k, *v)))
                        == snaps[0],
                    models[0] == models[0]
                );
            }
        }
    }

    #[test]
    fn clear_keeps_capacity_and_forgets_every_key() {
        let mut s = StatsSnapshot::from_entries([
            (StatKey::Selectivity(OperatorId::new(3)), 0.5),
            (StatKey::InputRate(StreamId::new(2)), 10.0),
        ]);
        let caps = (s.selectivities.capacity(), s.rates.capacity());
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s, StatsSnapshot::new());
        assert_eq!((s.selectivities.capacity(), s.rates.capacity()), caps);
        s.set(StatKey::InputRate(StreamId::new(0)), 1.0);
        assert_eq!(
            s,
            StatsSnapshot::from_entries([(StatKey::InputRate(StreamId::new(0)), 1.0)])
        );
    }
}
