//! Schemas: named, typed columns.

use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Semantic type of a column (runtime representation is always `i64`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ColumnType {
    /// A plain integer.
    Int,
    /// A key/identifier.
    Id,
    /// A fixed-point decimal (two fraction digits).
    Decimal,
    /// A date (days since the TPC-H epoch).
    Date,
    /// A dictionary code (status flags, priorities, …).
    Code,
}

/// One column of a schema.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Field {
    /// Column name.
    pub name: String,
    /// Semantic type.
    pub ty: ColumnType,
}

/// An ordered set of named, typed columns.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// A schema from `(name, type)` pairs.
    pub fn new(fields: Vec<(&str, ColumnType)>) -> Arc<Self> {
        Arc::new(Schema {
            fields: fields
                .into_iter()
                .map(|(name, ty)| Field {
                    name: name.to_string(),
                    ty,
                })
                .collect(),
        })
    }

    /// The fields in order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.fields.len()
    }

    /// A schema keeping only `columns` (by index), in the given order.
    pub fn project(&self, columns: &[usize]) -> Arc<Schema> {
        Arc::new(Schema {
            fields: columns
                .iter()
                .filter_map(|i| self.fields.get(*i).cloned())
                .collect(),
        })
    }

    /// The concatenation of two schemas (join output).
    pub fn join(&self, right: &Schema) -> Arc<Schema> {
        let mut fields = self.fields.clone();
        fields.extend(right.fields.iter().cloned());
        Arc::new(Schema { fields })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s() -> Arc<Schema> {
        Schema::new(vec![
            ("o_orderkey", ColumnType::Id),
            ("o_custkey", ColumnType::Id),
            ("o_totalprice", ColumnType::Decimal),
        ])
    }

    #[test]
    fn arity_counts_fields() {
        assert_eq!(s().arity(), 3);
    }

    #[test]
    fn projection_reorders() {
        let p = s().project(&[2, 0]);
        assert_eq!(p.arity(), 2);
        assert_eq!(p.fields()[0].name, "o_totalprice");
        assert_eq!(p.fields()[1].name, "o_orderkey");
        // Out-of-range indices are dropped.
        assert_eq!(s().project(&[0, 99]).arity(), 1);
    }

    #[test]
    fn join_concatenates() {
        let j = s().join(&Schema::new(vec![("c_name", ColumnType::Code)]));
        assert_eq!(j.arity(), 4);
        assert_eq!(j.fields()[3].name, "c_name");
    }
}
