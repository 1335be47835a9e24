//! The value model carried in stream tuples.
//!
//! The paper's workloads (stock prices, news keywords, sensor readings)
//! only require a handful of scalar types; we keep the enum small so that
//! tuple copies in the simulator stay cheap.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// A single scalar value: one cell of a [`Column`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float (prices, sensor readings).
    Float(f64),
    /// UTF-8 text (symbols, company names, news subjects). Stored as a
    /// shared slice so cloning a text value — and generators stamping the
    /// same interned symbol into millions of tuples — is a refcount bump,
    /// not a heap allocation.
    Text(Arc<str>),
    /// Boolean flag.
    Bool(bool),
    /// Milliseconds since an arbitrary epoch (application timestamps).
    Timestamp(u64),
    /// Explicit null.
    Null,
}

impl Value {
    /// Returns the value as an `f64` when it has a natural numeric interpretation.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            Value::Timestamp(t) => Some(*t as f64),
            Value::Text(_) | Value::Null => None,
        }
    }

    /// Returns the value as an `i64` when it is integral.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            Value::Timestamp(t) => Some(*t as i64),
            Value::Bool(b) => Some(*b as i64),
            _ => None,
        }
    }

    /// Returns the text content when the value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Whether this is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The [`crate::schema::DataType`] of the value, or `None` for nulls.
    pub fn data_type(&self) -> Option<crate::schema::DataType> {
        use crate::schema::DataType;
        match self {
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Text(_) => Some(DataType::Text),
            Value::Bool(_) => Some(DataType::Bool),
            Value::Timestamp(_) => Some(DataType::Timestamp),
            Value::Null => None,
        }
    }

    /// Total ordering used for equi-join comparisons and sorting.
    ///
    /// Values of different types compare by type tag; `Null` sorts first.
    /// Float NaN is treated as greater than every other float so the order
    /// is total.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) => 2,
                Value::Float(_) => 3,
                Value::Timestamp(_) => 4,
                Value::Text(_) => 5,
            }
        }
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Int(a), Value::Float(b)) => (*a as f64).total_cmp(b),
            (Value::Float(a), Value::Int(b)) => a.total_cmp(&(*b as f64)),
            (Value::Text(a), Value::Text(b)) => a.cmp(b),
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Timestamp(a), Value::Timestamp(b)) => a.cmp(b),
            (Value::Null, Value::Null) => Ordering::Equal,
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }

    /// Equality used by equi-join predicates (numeric cross-type comparison allowed).
    pub fn join_eq(&self, other: &Value) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}

/// The typed storage behind one [`Column`]: a per-type vector, or a
/// [`Value`] vector when the column holds mixed types.
///
/// Slots whose validity bit is unset hold an arbitrary placeholder of the
/// column's type; readers must consult the mask first.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// 64-bit signed integers.
    Int(Vec<i64>),
    /// 64-bit floats.
    Float(Vec<f64>),
    /// UTF-8 text (shared slices; see [`Value::Text`]).
    Text(Vec<Arc<str>>),
    /// Boolean flags.
    Bool(Vec<bool>),
    /// Millisecond timestamps.
    Timestamp(Vec<u64>),
    /// Fallback for heterogeneous columns, so conversion from row batches is
    /// lossless for any tuple shape.
    Mixed(Vec<Value>),
}

/// The shared empty-string placeholder used for null slots in text columns,
/// so padding a column never allocates.
fn empty_text() -> Arc<str> {
    use std::sync::OnceLock;
    static EMPTY: OnceLock<Arc<str>> = OnceLock::new();
    EMPTY.get_or_init(|| Arc::from("")).clone()
}

impl ColumnData {
    fn push_default(&mut self) {
        match self {
            ColumnData::Int(v) => v.push(0),
            ColumnData::Float(v) => v.push(0.0),
            ColumnData::Text(v) => v.push(empty_text()),
            ColumnData::Bool(v) => v.push(false),
            ColumnData::Timestamp(v) => v.push(0),
            ColumnData::Mixed(v) => v.push(Value::Null),
        }
    }
}

/// One column of a struct-of-arrays batch: a typed vector plus a validity
/// mask (`false` marks a [`Value::Null`] slot).
///
/// Columns start typed after the first non-null push; pushing a value of a
/// different type promotes the storage to [`ColumnData::Mixed`], so any row
/// batch converts losslessly. Readers reproduce the exact [`Value`]
/// semantics — [`Column::as_f64`] matches [`Value::as_f64`] and
/// [`Column::cmp_value`] matches [`Value::total_cmp`] — without cloning.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    data: ColumnData,
    validity: Vec<bool>,
    null_count: usize,
}

impl Default for Column {
    fn default() -> Self {
        Self::new()
    }
}

impl Column {
    /// An empty column (typed by the first non-null push).
    pub fn new() -> Self {
        Self {
            // Placeholder variant; retyped on the first non-null push while
            // every slot so far is null.
            data: ColumnData::Float(Vec::new()),
            validity: Vec::new(),
            null_count: 0,
        }
    }

    /// Drop every slot while keeping the storage type and its allocated
    /// capacity — the building block of batch-arena reuse on hot paths.
    pub fn clear(&mut self) {
        match &mut self.data {
            ColumnData::Int(v) => v.clear(),
            ColumnData::Float(v) => v.clear(),
            ColumnData::Text(v) => v.clear(),
            ColumnData::Bool(v) => v.clear(),
            ColumnData::Timestamp(v) => v.clear(),
            ColumnData::Mixed(v) => v.clear(),
        }
        self.validity.clear();
        self.null_count = 0;
    }

    /// The float storage as a dense slice, available exactly when every slot
    /// is a valid `Float` — the precondition for branch-free predicate
    /// kernels that skip the per-row validity/type dispatch. `None` for any
    /// other storage or when the column holds nulls.
    pub fn dense_floats(&self) -> Option<&[f64]> {
        match &self.data {
            ColumnData::Float(v) if self.null_count == 0 => Some(v),
            _ => None,
        }
    }

    /// The integer storage as a dense slice (see [`Column::dense_floats`]).
    pub fn dense_ints(&self) -> Option<&[i64]> {
        match &self.data {
            ColumnData::Int(v) if self.null_count == 0 => Some(v),
            _ => None,
        }
    }

    /// Number of slots (valid or null).
    pub fn len(&self) -> usize {
        self.validity.len()
    }

    /// Whether the column has no slots.
    pub fn is_empty(&self) -> bool {
        self.validity.is_empty()
    }

    /// Whether slot `i` holds a non-null value.
    pub fn is_valid(&self, i: usize) -> bool {
        self.validity.get(i).copied().unwrap_or(false)
    }

    /// Append one value, promoting the storage type if needed.
    pub fn push(&mut self, value: &Value) {
        self.push_owned(value.clone());
    }

    /// Append one owned value (no clone of text payloads), promoting the
    /// storage type if needed.
    pub fn push_owned(&mut self, value: Value) {
        if matches!(value, Value::Null) {
            self.data.push_default();
            self.validity.push(false);
            self.null_count += 1;
            return;
        }
        let matches_type = matches!(
            (&self.data, &value),
            (ColumnData::Int(_), Value::Int(_))
                | (ColumnData::Float(_), Value::Float(_))
                | (ColumnData::Text(_), Value::Text(_))
                | (ColumnData::Bool(_), Value::Bool(_))
                | (ColumnData::Timestamp(_), Value::Timestamp(_))
                | (ColumnData::Mixed(_), _)
        );
        if !matches_type {
            if self.null_count == self.validity.len() {
                // Only null placeholders so far: retype in place.
                let n = self.validity.len();
                self.data = match &value {
                    Value::Int(_) => ColumnData::Int(vec![0; n]),
                    Value::Float(_) => ColumnData::Float(vec![0.0; n]),
                    Value::Text(_) => ColumnData::Text(vec![empty_text(); n]),
                    Value::Bool(_) => ColumnData::Bool(vec![false; n]),
                    Value::Timestamp(_) => ColumnData::Timestamp(vec![0; n]),
                    Value::Null => unreachable!("null handled above"),
                };
            } else {
                // Genuinely mixed column: fall back to value storage.
                let values: Vec<Value> = (0..self.validity.len()).map(|i| self.value(i)).collect();
                self.data = ColumnData::Mixed(values);
            }
        }
        match (&mut self.data, value) {
            (ColumnData::Int(v), Value::Int(x)) => v.push(x),
            (ColumnData::Float(v), Value::Float(x)) => v.push(x),
            (ColumnData::Text(v), Value::Text(x)) => v.push(x),
            (ColumnData::Bool(v), Value::Bool(x)) => v.push(x),
            (ColumnData::Timestamp(v), Value::Timestamp(x)) => v.push(x),
            (ColumnData::Mixed(v), x) => v.push(x),
            _ => unreachable!("storage retyped to match above"),
        }
        self.validity.push(true);
    }

    /// Materialize slot `i` as an owned [`Value`] (null when invalid).
    pub fn value(&self, i: usize) -> Value {
        if !self.is_valid(i) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Int(v) => Value::Int(v[i]),
            ColumnData::Float(v) => Value::Float(v[i]),
            ColumnData::Text(v) => Value::Text(v[i].clone()),
            ColumnData::Bool(v) => Value::Bool(v[i]),
            ColumnData::Timestamp(v) => Value::Timestamp(v[i]),
            ColumnData::Mixed(v) => v[i].clone(),
        }
    }

    /// Numeric view of slot `i`, matching [`Value::as_f64`] exactly.
    pub fn as_f64(&self, i: usize) -> Option<f64> {
        if !self.is_valid(i) {
            return None;
        }
        match &self.data {
            ColumnData::Int(v) => Some(v[i] as f64),
            ColumnData::Float(v) => Some(v[i]),
            ColumnData::Bool(v) => Some(if v[i] { 1.0 } else { 0.0 }),
            ColumnData::Timestamp(v) => Some(v[i] as f64),
            ColumnData::Text(_) => None,
            ColumnData::Mixed(v) => v[i].as_f64(),
        }
    }

    /// Text view of slot `i`, matching [`Value::as_str`] exactly.
    pub fn as_str(&self, i: usize) -> Option<&str> {
        if !self.is_valid(i) {
            return None;
        }
        match &self.data {
            ColumnData::Text(v) => Some(&v[i]),
            ColumnData::Mixed(v) => v[i].as_str(),
            _ => None,
        }
    }

    /// Compare slot `i` against a constant with the total order of
    /// [`Value::total_cmp`], without materializing the slot. The hot cases
    /// (float/int columns against numeric operands) never allocate.
    pub fn cmp_value(&self, i: usize, operand: &Value) -> Ordering {
        if !self.is_valid(i) {
            return Value::Null.total_cmp(operand);
        }
        match (&self.data, operand) {
            (ColumnData::Float(v), Value::Float(b)) => v[i].total_cmp(b),
            (ColumnData::Int(v), Value::Int(b)) => v[i].cmp(b),
            (ColumnData::Int(v), Value::Float(b)) => (v[i] as f64).total_cmp(b),
            (ColumnData::Float(v), Value::Int(b)) => v[i].total_cmp(&(*b as f64)),
            (ColumnData::Text(v), Value::Text(b)) => v[i].cmp(b),
            (ColumnData::Bool(v), Value::Bool(b)) => v[i].cmp(b),
            (ColumnData::Timestamp(v), Value::Timestamp(b)) => v[i].cmp(b),
            (ColumnData::Mixed(v), _) => v[i].total_cmp(operand),
            // Cross-type comparisons order by type rank; delegate to the
            // canonical implementation (cold path).
            _ => self.value(i).total_cmp(operand),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Text(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Timestamp(t) => write!(f, "@{t}"),
            Value::Null => write!(f, "NULL"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(Arc::from(v))
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(Arc::from(v))
    }
}
impl From<Arc<str>> for Value {
    fn from(v: Arc<str>) -> Self {
        Value::Text(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_accessors() {
        assert_eq!(Value::Int(4).as_f64(), Some(4.0));
        assert_eq!(Value::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Bool(true).as_f64(), Some(1.0));
        assert_eq!(Value::Text("x".into()).as_f64(), None);
        assert_eq!(Value::Int(4).as_i64(), Some(4));
        assert_eq!(Value::Timestamp(9).as_i64(), Some(9));
        assert_eq!(Value::Float(1.0).as_i64(), None);
    }

    #[test]
    fn cross_type_numeric_ordering() {
        assert_eq!(Value::Int(2).total_cmp(&Value::Float(2.0)), Ordering::Equal);
        assert_eq!(Value::Int(1).total_cmp(&Value::Float(1.5)), Ordering::Less);
        assert_eq!(
            Value::Float(3.0).total_cmp(&Value::Int(2)),
            Ordering::Greater
        );
    }

    #[test]
    fn null_sorts_first_and_is_detected() {
        assert!(Value::Null.is_null());
        assert!(!Value::Int(0).is_null());
        assert_eq!(Value::Null.total_cmp(&Value::Int(-100)), Ordering::Less);
    }

    #[test]
    fn join_equality() {
        assert!(Value::Text("AAPL".into()).join_eq(&Value::from("AAPL")));
        assert!(!Value::Text("AAPL".into()).join_eq(&Value::from("MSFT")));
        assert!(Value::Int(7).join_eq(&Value::Float(7.0)));
    }

    #[test]
    fn display_round_trip_examples() {
        assert_eq!(Value::from(42i64).to_string(), "42");
        assert_eq!(Value::from("IBM").to_string(), "IBM");
        assert_eq!(Value::Timestamp(5).to_string(), "@5");
        assert_eq!(Value::Null.to_string(), "NULL");
    }

    #[test]
    fn data_types_match_variants() {
        use crate::schema::DataType;
        assert_eq!(Value::Int(1).data_type(), Some(DataType::Int));
        assert_eq!(Value::Float(1.0).data_type(), Some(DataType::Float));
        assert_eq!(Value::Null.data_type(), None);
    }

    #[test]
    fn nan_is_totally_ordered() {
        let nan = Value::Float(f64::NAN);
        // total_cmp is consistent: nan vs nan is Equal, and ordering is total.
        assert_eq!(nan.total_cmp(&Value::Float(f64::NAN)), Ordering::Equal);
        assert_eq!(Value::Float(1.0).total_cmp(&nan), Ordering::Less);
    }

    #[test]
    fn column_round_trips_homogeneous_values() {
        let vals = [Value::Float(1.5), Value::Null, Value::Float(-2.0)];
        let mut c = Column::new();
        for v in &vals {
            c.push(v);
        }
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
        assert!(c.is_valid(0) && !c.is_valid(1) && c.is_valid(2));
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(&c.value(i), v);
            assert_eq!(c.as_f64(i), v.as_f64());
        }
        assert_eq!(c.value(1), Value::Null);
    }

    #[test]
    fn column_retypes_after_leading_nulls() {
        let mut c = Column::new();
        c.push(&Value::Null);
        c.push(&Value::Int(7));
        assert_eq!(c.value(0), Value::Null);
        assert_eq!(c.value(1), Value::Int(7));
        assert_eq!(c.as_f64(1), Some(7.0));
    }

    #[test]
    fn column_promotes_to_mixed_on_type_clash() {
        let vals = [
            Value::Int(3),
            Value::Text("x".into()),
            Value::Bool(true),
            Value::Timestamp(9),
            Value::Null,
        ];
        let mut c = Column::new();
        for v in &vals {
            c.push(v);
        }
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(&c.value(i), v, "slot {i}");
            assert_eq!(c.as_f64(i), v.as_f64(), "slot {i}");
            assert_eq!(c.as_str(i), v.as_str(), "slot {i}");
        }
    }

    #[test]
    fn column_cmp_matches_value_total_cmp() {
        let slots = [
            Value::Int(2),
            Value::Float(2.5),
            Value::Text("AAPL".into()),
            Value::Bool(false),
            Value::Timestamp(4),
            Value::Null,
            Value::Float(f64::NAN),
        ];
        let operands = [
            Value::Int(2),
            Value::Float(2.5),
            Value::Float(f64::NAN),
            Value::Text("AAPL".into()),
            Value::Text("MSFT".into()),
            Value::Bool(true),
            Value::Timestamp(4),
            Value::Null,
        ];
        // Exercise both a mixed column and per-type columns.
        let mut mixed = Column::new();
        for v in &slots {
            mixed.push(v);
        }
        for (i, v) in slots.iter().enumerate() {
            let mut typed = Column::new();
            typed.push(v);
            for op in &operands {
                assert_eq!(mixed.cmp_value(i, op), v.total_cmp(op), "{v} vs {op}");
                assert_eq!(typed.cmp_value(0, op), v.total_cmp(op), "{v} vs {op}");
            }
        }
    }

    #[test]
    fn dense_views_require_homogeneous_non_null_storage() {
        let mut c = Column::new();
        c.push(&Value::Float(1.0));
        c.push(&Value::Float(2.5));
        assert_eq!(c.dense_floats(), Some(&[1.0, 2.5][..]));
        assert_eq!(c.dense_ints(), None);
        c.push(&Value::Null);
        assert_eq!(c.dense_floats(), None, "a null slot disables the view");

        let mut ints = Column::new();
        ints.push(&Value::Int(7));
        assert_eq!(ints.dense_ints(), Some(&[7i64][..]));
        assert_eq!(ints.dense_floats(), None);

        // The untyped empty column claims no dense view once it holds nulls.
        let mut nulls = Column::new();
        nulls.push(&Value::Null);
        assert_eq!(nulls.dense_floats(), None);
    }

    #[test]
    fn clear_keeps_type_and_resets_validity() {
        let mut c = Column::new();
        c.push(&Value::Float(1.0));
        c.push(&Value::Null);
        c.clear();
        assert!(c.is_empty());
        c.push(&Value::Float(3.0));
        assert_eq!(c.dense_floats(), Some(&[3.0][..]));
        // A cleared column retypes like a fresh one.
        let mut t = Column::new();
        t.push(&Value::Float(1.0));
        t.clear();
        t.push(&Value::Text("x".into()));
        assert_eq!(t.as_str(0), Some("x"));
    }

    #[test]
    fn column_text_accessor_avoids_clones() {
        let mut c = Column::new();
        c.push(&Value::Text("IBM".into()));
        c.push(&Value::Null);
        assert_eq!(c.as_str(0), Some("IBM"));
        assert_eq!(c.as_str(1), None);
        assert_eq!(c.as_str(99), None, "out of range is null");
    }
}
