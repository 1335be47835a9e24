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
}
