//! Table schemas and rows.

use crate::error::{Error, Result};
use crate::value::{DataType, Datum, DatumAccess, DatumRef};

/// A named, typed column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name, unique within its schema.
    pub name: String,
    /// Scalar type.
    pub ty: DataType,
}

impl Column {
    /// Builds a column.
    pub fn new(name: impl Into<String>, ty: DataType) -> Self {
        Column {
            name: name.into(),
            ty,
        }
    }
}

/// An ordered list of columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<Column>,
}

impl Schema {
    /// Builds a schema from columns. Column names must be unique.
    pub fn new(columns: Vec<Column>) -> Self {
        debug_assert!(
            {
                let mut names: Vec<&str> = columns.iter().map(|c| c.name.as_str()).collect();
                names.sort_unstable();
                names.windows(2).all(|w| w[0] != w[1])
            },
            "duplicate column names in schema"
        );
        Schema { columns }
    }

    /// The columns, in order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Ordinal of the named column, or an error.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .ok_or_else(|| Error::UnknownColumn(name.to_string()))
    }

    /// The column at `idx`.
    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Checks that `row` matches this schema (arity and per-column types).
    pub fn validate(&self, row: &Row) -> Result<()> {
        if row.values.len() != self.columns.len() {
            return Err(Error::SchemaMismatch(format!(
                "row has {} values, schema has {} columns",
                row.values.len(),
                self.columns.len()
            )));
        }
        for (v, c) in row.values.iter().zip(&self.columns) {
            if v.data_type() != c.ty {
                return Err(Error::SchemaMismatch(format!(
                    "column {} expects {} but row holds {}",
                    c.name,
                    c.ty,
                    v.data_type()
                )));
            }
        }
        Ok(())
    }
}

/// A tuple of values.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The values, positionally matching a [`Schema`].
    pub values: Vec<Datum>,
}

impl Row {
    /// Builds a row from values.
    pub fn new(values: Vec<Datum>) -> Self {
        Row { values }
    }

    /// The value at column ordinal `idx`.
    pub fn get(&self, idx: usize) -> &Datum {
        &self.values[idx]
    }

    /// Serialized size under the storage row format: 2-byte slot header
    /// plus each datum's stored size.
    pub fn stored_size(&self) -> usize {
        2 + self.values.iter().map(Datum::stored_size).sum::<usize>()
    }
}

impl DatumAccess for Row {
    fn datum_ref(&self, idx: usize) -> DatumRef<'_> {
        DatumRef::from(&self.values[idx])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sales_schema() -> Schema {
        Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("shipdate", DataType::Date),
            Column::new("state", DataType::Str),
        ])
    }

    #[test]
    fn index_of_finds_columns() {
        let s = sales_schema();
        assert_eq!(s.index_of("shipdate").unwrap(), 1);
        assert!(matches!(s.index_of("vendor"), Err(Error::UnknownColumn(_))));
    }

    #[test]
    fn validate_checks_arity_and_types() {
        let s = sales_schema();
        let good = Row::new(vec![
            Datum::Int(1),
            Datum::Date(100),
            Datum::Str("CA".into()),
        ]);
        assert!(s.validate(&good).is_ok());

        let short = Row::new(vec![Datum::Int(1)]);
        assert!(s.validate(&short).is_err());

        let wrong_type = Row::new(vec![
            Datum::Int(1),
            Datum::Int(100),
            Datum::Str("CA".into()),
        ]);
        assert!(s.validate(&wrong_type).is_err());
    }

    #[test]
    fn stored_size_includes_slot_header() {
        let r = Row::new(vec![Datum::Int(1), Datum::Date(0)]);
        assert_eq!(r.stored_size(), 2 + 8 + 4);
    }
}
