//! Stream schemas: field names and data types.

use std::fmt;

/// The scalar data types supported by RLD stream tuples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit integer.
    Int,
    /// 64-bit float.
    Float,
    /// UTF-8 text.
    Text,
    /// Boolean.
    Bool,
    /// Application timestamp (ms).
    Timestamp,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Text => "TEXT",
            DataType::Bool => "BOOL",
            DataType::Timestamp => "TIMESTAMP",
        };
        write!(f, "{s}")
    }
}

/// A named, typed field of a stream schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Field name, unique within its schema.
    pub name: String,
    /// Field type.
    pub data_type: DataType,
}

impl Field {
    /// Create a new field.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        Self {
            name: name.into(),
            data_type,
        }
    }
}

/// An ordered collection of [`Field`]s describing tuples of one stream.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// Create a schema from a list of fields.
    ///
    /// Field names must be unique; duplicates keep only the first occurrence.
    pub fn new(fields: Vec<Field>) -> Self {
        let mut seen = std::collections::HashSet::new();
        let fields = fields
            .into_iter()
            .filter(|f| seen.insert(f.name.clone()))
            .collect();
        Self { fields }
    }

    /// Convenience constructor from `(name, type)` pairs.
    pub fn from_pairs(pairs: &[(&str, DataType)]) -> Self {
        Self::new(
            pairs
                .iter()
                .map(|(n, t)| Field::new(*n, *t))
                .collect::<Vec<_>>(),
        )
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether the schema has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// All fields, in order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, field) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}: {}", field.name, field.data_type)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stock_schema() -> Schema {
        Schema::from_pairs(&[
            ("symbol", DataType::Text),
            ("price", DataType::Float),
            ("ts", DataType::Timestamp),
        ])
    }

    #[test]
    fn index_and_lookup() {
        let s = stock_schema();
        assert_eq!(s.len(), 3);
        assert_eq!(s.fields()[1], Field::new("price", DataType::Float));
        assert!(s.fields().iter().all(|f| f.name != "volume"));
        assert_eq!(s.fields()[0].data_type, DataType::Text);
    }

    #[test]
    fn duplicate_fields_are_dropped() {
        let s = Schema::from_pairs(&[
            ("a", DataType::Int),
            ("a", DataType::Float),
            ("b", DataType::Int),
        ]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.fields()[0], Field::new("a", DataType::Int));
    }

    #[test]
    fn display_is_human_readable() {
        let s = Schema::from_pairs(&[("x", DataType::Int)]);
        assert_eq!(s.to_string(), "(x: INT)");
        assert!(stock_schema().to_string().contains("price: FLOAT"));
    }

    #[test]
    fn empty_schema() {
        let s = Schema::default();
        assert!(s.is_empty());
        assert_eq!(s.to_string(), "()");
    }
}
