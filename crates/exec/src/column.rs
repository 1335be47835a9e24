//! Typed columns — the storage of a [`crate::exec::ColumnBatch`].
//!
//! The paper's workloads (stock prices, news keywords, sensor readings)
//! only need a handful of scalar types. A column holds exactly one of them,
//! fixed when the batch is built from the stream's [`crate::schema::Schema`]:
//! there are no nulls and no per-cell type tags, so a kernel reads a column
//! as a plain slice.

use rld_common::DataType;

/// One column of a struct-of-arrays batch: a vector of one scalar type.
/// Generators append to the vector of the variant they find.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Column {
    /// 64-bit signed integers.
    Int(Vec<i64>),
    /// 64-bit floats (prices, sensor readings, match columns).
    Float(Vec<f64>),
    /// UTF-8 text (symbols, company names, news subjects) as `'static`
    /// slices into the generators' fixed symbol table: stamping a symbol
    /// into a row copies a pointer and a length — no allocation, no
    /// refcount — and clearing the column frees nothing per cell.
    Text(Vec<&'static str>),
    /// Boolean flags.
    Bool(Vec<bool>),
    /// Milliseconds since an arbitrary epoch (application timestamps).
    Timestamp(Vec<u64>),
}

impl Column {
    /// An empty column of the given type.
    pub(crate) fn new(data_type: DataType) -> Self {
        match data_type {
            DataType::Int => Column::Int(Vec::new()),
            DataType::Float => Column::Float(Vec::new()),
            DataType::Text => Column::Text(Vec::new()),
            DataType::Bool => Column::Bool(Vec::new()),
            DataType::Timestamp => Column::Timestamp(Vec::new()),
        }
    }

    /// Drop every row while keeping the type and the allocated capacity —
    /// the building block of batch-arena reuse on hot paths.
    pub(crate) fn clear(&mut self) {
        match self {
            Column::Int(v) => v.clear(),
            Column::Float(v) => v.clear(),
            Column::Text(v) => v.clear(),
            Column::Bool(v) => v.clear(),
            Column::Timestamp(v) => v.clear(),
        }
    }

    /// The rows of a `Float` column, `None` for every other type — what the
    /// filter and probe kernels read.
    pub(crate) fn floats(&self) -> Option<&[f64]> {
        match self {
            Column::Float(v) => Some(v),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clear_keeps_type_and_capacity() {
        let mut floats = Column::new(DataType::Float);
        let Column::Float(v) = &mut floats else {
            panic!("a Float column")
        };
        v.extend([1.0, 2.5, -0.0]);
        let capacity = v.capacity();
        assert_eq!(floats.floats(), Some(&[1.0, 2.5, -0.0][..]));
        floats.clear();
        assert!(matches!(&floats, Column::Float(v) if v.is_empty() && v.capacity() == capacity));
        assert_eq!(floats.floats(), Some(&[][..]));

        // Every type builds the variant it names, and only `Float` has a
        // float view.
        for (data_type, column) in [
            (DataType::Int, Column::Int(Vec::new())),
            (DataType::Text, Column::Text(Vec::new())),
            (DataType::Bool, Column::Bool(Vec::new())),
            (DataType::Timestamp, Column::Timestamp(Vec::new())),
        ] {
            assert_eq!(Column::new(data_type), column);
            assert_eq!(column.floats(), None);
        }
        let mut text = Column::Text(vec!["IBM"]);
        text.clear();
        assert_eq!(text, Column::new(DataType::Text));
    }
}
