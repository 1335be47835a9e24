//! Input stream specifications.

use crate::ids::StreamId;
use crate::schema::Schema;

/// Description of one input stream of a continuous query.
///
/// The `rate_estimate` is the single-point estimate the optimizer would use
/// in a traditional system; RLD expands it into a parameter-space dimension
/// when the stream is marked as uncertain.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSpec {
    /// Stream identifier (dense index within a query).
    pub id: StreamId,
    /// Human readable name, e.g. `"Stock"`, `"News"`.
    pub name: String,
    /// Schema of tuples on this stream.
    pub schema: Schema,
    /// Estimated input rate in tuples per second.
    pub rate_estimate: f64,
}

impl StreamSpec {
    /// Create a new stream spec.
    pub fn new(id: StreamId, name: impl Into<String>, schema: Schema, rate_estimate: f64) -> Self {
        Self {
            id,
            name: name.into(),
            schema,
            rate_estimate,
        }
    }

    /// Mean inter-arrival time in milliseconds implied by the rate estimate.
    ///
    /// Returns `f64::INFINITY` for a zero-rate stream.
    pub fn mean_inter_arrival_ms(&self) -> f64 {
        if self.rate_estimate <= 0.0 {
            f64::INFINITY
        } else {
            1000.0 / self.rate_estimate
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::DataType;

    #[test]
    fn inter_arrival_from_rate() {
        let s = StreamSpec::new(
            StreamId::new(0),
            "Stock",
            Schema::from_pairs(&[("price", DataType::Float)]),
            100.0,
        );
        assert!((s.mean_inter_arrival_ms() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn zero_rate_stream_has_infinite_gap() {
        let s = StreamSpec::new(StreamId::new(1), "Idle", Schema::default(), 0.0);
        assert!(s.mean_inter_arrival_ms().is_infinite());
    }

    #[test]
    fn table2_default_rate() {
        // Table 2: mean inter-arrival 500 ms => 2 tuples/sec.
        let s = StreamSpec::new(StreamId::new(0), "Synthetic", Schema::default(), 2.0);
        assert!((s.mean_inter_arrival_ms() - 500.0).abs() < 1e-12);
    }
}
