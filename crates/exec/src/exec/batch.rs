//! The driving batch: one timestamp vector plus one typed column per field,
//! and the match-column layout every generator and chain agrees on.

use crate::column::Column;
use rld_common::{DataType, OperatorId, Query, Result, RldError};

/// Index of the match column carried by driving tuples for operator
/// `op_index` (columns after the driving stream's application schema).
pub(crate) fn match_field(query: &Query, op_index: usize) -> usize {
    query.streams[query.driving_stream.index()].schema.len() + op_index
}

/// Total width of a driving tuple on the dataplane: application fields plus
/// one match column per operator.
pub(crate) fn driving_arity(query: &Query) -> usize {
    query.streams[query.driving_stream.index()].schema.len() + query.num_operators()
}

/// A driving batch in struct-of-arrays layout: one timestamp vector plus one
/// typed [`Column`] per field, all of the same length.
///
/// The dataplane never materializes intermediate tuples: operators
/// communicate through *selection vectors* (row indices into this batch,
/// with duplicates encoding join fan-out), so a batch is generated once,
/// shared immutably, and only ever re-selected.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ColumnBatch {
    pub(super) timestamps: Vec<u64>,
    pub(super) columns: Vec<Column>,
}

impl ColumnBatch {
    /// An empty batch of `query`'s driving stream: one column per
    /// application field, typed by the stream's schema, then one `Float`
    /// match column per operator (see the module docs).
    pub(crate) fn for_driving(query: &Query) -> Self {
        let schema = &query.streams[query.driving_stream.index()].schema;
        let app = schema.fields().iter().map(|f| Column::new(f.data_type));
        let matches = (0..query.num_operators()).map(|_| Column::new(DataType::Float));
        Self {
            timestamps: Vec::new(),
            columns: app.chain(matches).collect(),
        }
    }

    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.timestamps.len()
    }

    /// Whether the batch has no rows.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.timestamps.is_empty()
    }

    /// Number of columns.
    pub(crate) fn arity(&self) -> usize {
        self.columns.len()
    }

    /// The per-row timestamps (ms).
    #[cfg(test)]
    pub(crate) fn timestamps(&self) -> &[u64] {
        &self.timestamps
    }

    /// One column by field index, `None` beyond the arity (a missing
    /// field).
    pub(crate) fn column(&self, field: usize) -> Option<&Column> {
        self.columns.get(field)
    }

    /// The timestamp vector and the columns, for a generator to append rows
    /// to: one timestamp and one cell per column for every row, each cell of
    /// its column's type.
    pub(crate) fn parts_mut(&mut self) -> (&mut Vec<u64>, &mut [Column]) {
        (&mut self.timestamps, &mut self.columns)
    }

    /// Drop every row while keeping the arity and each column's type and
    /// allocated capacity — the batch-arena reuse that lets shards
    /// regenerate into the same buffers tick after tick.
    pub(crate) fn clear(&mut self) {
        self.timestamps.clear();
        for c in &mut self.columns {
            c.clear();
        }
    }

    /// Operator `op`'s match column as a float slice, one cell per row; a
    /// batch that does not carry one at `field` was not built (or not
    /// filled) for the chain's query.
    pub(super) fn match_floats(&self, field: usize, op: OperatorId) -> Result<&[f64]> {
        self.column(field)
            .and_then(Column::floats)
            .filter(|cells| cells.len() == self.len())
            .ok_or_else(|| {
                RldError::InvalidArgument(format!(
                    "operator {op}: the batch has no Float match column at field {field}"
                ))
            })
    }

    /// The identity selection (every row once, in order).
    #[cfg(test)]
    pub(crate) fn identity_sel(&self) -> Vec<u32> {
        (0..self.len() as u32).collect()
    }
}
