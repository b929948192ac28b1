//! The value model: [`DataType`] and [`Datum`].
//!
//! Four scalar types cover everything the paper's workloads need:
//! 64-bit integers (identity/clustering columns), floats (prices),
//! strings (states, categories), and dates (ship/commit/receipt dates —
//! stored as days since an epoch so range predicates are cheap).

use crate::error::{Error, Result};
use std::cmp::Ordering;
use std::fmt;

/// Scalar type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float.
    Float,
    /// UTF-8 string.
    Str,
    /// Calendar date, stored as days since 1970-01-01.
    Date,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int => "Int",
            DataType::Float => "Float",
            DataType::Str => "Str",
            DataType::Date => "Date",
        };
        f.write_str(s)
    }
}

/// A single scalar value.
///
/// `Datum` implements a *total* order within a type (floats use
/// [`f64::total_cmp`]) so it can key B+-trees and histograms; comparing
/// across types is a programming error surfaced by the expression layer,
/// not here — cross-type `partial_cmp` returns `None`.
///
/// Equality agrees with that order and with [`std::hash::Hash`]: floats
/// are equal exactly when their bits are, so `NaN` equals itself and
/// `-0.0` differs from `0.0`. Every join method — hash, merge, and
/// index-nested-loops over a B+-tree — therefore matches the same keys.
#[derive(Debug, Clone)]
pub enum Datum {
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit IEEE float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Days since 1970-01-01.
    Date(i32),
}

impl Datum {
    /// The runtime type of this value.
    pub fn data_type(&self) -> DataType {
        match self {
            Datum::Int(_) => DataType::Int,
            Datum::Float(_) => DataType::Float,
            Datum::Str(_) => DataType::Str,
            Datum::Date(_) => DataType::Date,
        }
    }

    /// Returns the contained integer or a type error.
    pub fn as_int(&self) -> Result<i64> {
        match self {
            Datum::Int(v) => Ok(*v),
            other => Err(Error::TypeMismatch {
                expected: "Int",
                found: other.type_name(),
            }),
        }
    }

    /// Returns the contained string or a type error.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            Datum::Str(v) => Ok(v),
            other => Err(Error::TypeMismatch {
                expected: "Str",
                found: other.type_name(),
            }),
        }
    }

    /// Static name of the runtime type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Datum::Int(_) => "Int",
            Datum::Float(_) => "Float",
            Datum::Str(_) => "Str",
            Datum::Date(_) => "Date",
        }
    }

    /// Serialized size in bytes under the storage engine's row format
    /// (used by the page layout to decide how many rows fit per page).
    pub fn stored_size(&self) -> usize {
        match self {
            Datum::Int(_) => 8,
            Datum::Float(_) => 8,
            // length prefix + bytes
            Datum::Str(s) => 4 + s.len(),
            Datum::Date(_) => 4,
        }
    }

    /// Total-order comparison between two data of the *same* type.
    ///
    /// Returns `None` when types differ (the caller decides whether that
    /// is an error); floats use `total_cmp` so `Datum` can key ordered
    /// containers.
    pub fn cmp_same_type(&self, other: &Datum) -> Option<Ordering> {
        match (self, other) {
            (Datum::Int(a), Datum::Int(b)) => Some(a.cmp(b)),
            (Datum::Float(a), Datum::Float(b)) => Some(a.total_cmp(b)),
            (Datum::Str(a), Datum::Str(b)) => Some(a.cmp(b)),
            (Datum::Date(a), Datum::Date(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// Numeric view used by histograms: ints/dates/floats map onto a real
    /// line; strings have no numeric view.
    pub fn numeric(&self) -> Option<f64> {
        match self {
            Datum::Int(v) => Some(*v as f64),
            Datum::Float(v) => Some(*v),
            Datum::Date(v) => Some(*v as f64),
            Datum::Str(_) => None,
        }
    }
}

impl fmt::Display for Datum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Datum::Int(v) => write!(f, "{v}"),
            Datum::Float(v) => write!(f, "{v}"),
            Datum::Str(v) => write!(f, "'{v}'"),
            Datum::Date(v) => write!(f, "date({v})"),
        }
    }
}

/// A borrowed view of a scalar value.
///
/// Fixed-width types are decoded by value (they fit in a register);
/// strings borrow the underlying bytes — no allocation. `DatumRef` is
/// the currency of the zero-copy page pipeline: predicates compare it
/// against literal [`Datum`]s and monitors hash it, both without ever
/// materializing an owned value. Equality is [`Datum`]'s: floats by bits.
#[derive(Debug, Clone, Copy)]
pub enum DatumRef<'a> {
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit IEEE float.
    Float(f64),
    /// UTF-8 string slice borrowed from page bytes.
    Str(&'a str),
    /// Days since 1970-01-01.
    Date(i32),
}

impl<'a> DatumRef<'a> {
    /// The runtime type of this value.
    pub fn data_type(&self) -> DataType {
        match self {
            DatumRef::Int(_) => DataType::Int,
            DatumRef::Float(_) => DataType::Float,
            DatumRef::Str(_) => DataType::Str,
            DatumRef::Date(_) => DataType::Date,
        }
    }

    /// Materializes an owned [`Datum`] (the only allocating operation,
    /// and only for `Str`).
    pub fn to_datum(self) -> Datum {
        match self {
            DatumRef::Int(v) => Datum::Int(v),
            DatumRef::Float(v) => Datum::Float(v),
            DatumRef::Str(s) => Datum::Str(s.to_string()),
            DatumRef::Date(v) => Datum::Date(v),
        }
    }

    /// Total-order comparison against an owned datum of the *same* type,
    /// bit-identical to [`Datum::cmp_same_type`] (floats use
    /// `total_cmp`). Returns `None` when types differ.
    pub fn cmp_datum(&self, other: &Datum) -> Option<Ordering> {
        match (self, other) {
            (DatumRef::Int(a), Datum::Int(b)) => Some(a.cmp(b)),
            (DatumRef::Float(a), Datum::Float(b)) => Some(a.total_cmp(b)),
            (DatumRef::Str(a), Datum::Str(b)) => Some((*a).cmp(b.as_str())),
            (DatumRef::Date(a), Datum::Date(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }
}

impl<'a> From<&'a Datum> for DatumRef<'a> {
    fn from(d: &'a Datum) -> Self {
        match d {
            Datum::Int(v) => DatumRef::Int(*v),
            Datum::Float(v) => DatumRef::Float(*v),
            Datum::Str(s) => DatumRef::Str(s),
            Datum::Date(v) => DatumRef::Date(*v),
        }
    }
}

impl fmt::Display for DatumRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatumRef::Int(v) => write!(f, "{v}"),
            DatumRef::Float(v) => write!(f, "{v}"),
            DatumRef::Str(v) => write!(f, "'{v}'"),
            DatumRef::Date(v) => write!(f, "date({v})"),
        }
    }
}

/// Positional access to the values of a row-shaped thing, by borrowed
/// reference. Implemented by owned [`crate::Row`]s and by the storage
/// engine's borrowed row views, so monitors and predicates can run
/// identically over either without materializing.
pub trait DatumAccess {
    /// The value at column ordinal `idx`.
    fn datum_ref(&self, idx: usize) -> DatumRef<'_>;
}

impl PartialEq for Datum {
    fn eq(&self, other: &Self) -> bool {
        DatumRef::from(self) == DatumRef::from(other)
    }
}

impl Eq for Datum {}

impl PartialEq for DatumRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (DatumRef::Int(a), DatumRef::Int(b)) => a == b,
            (DatumRef::Float(a), DatumRef::Float(b)) => a.to_bits() == b.to_bits(),
            (DatumRef::Str(a), DatumRef::Str(b)) => a == b,
            (DatumRef::Date(a), DatumRef::Date(b)) => a == b,
            _ => false,
        }
    }
}

// `Datum` participates in hash tables (hash-join keys, bit-vector
// filters). Floats hash their bit pattern, consistent with `total_cmp`.
impl std::hash::Hash for Datum {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Datum::Int(v) => {
                state.write_u8(0);
                state.write_i64(*v);
            }
            Datum::Float(v) => {
                state.write_u8(1);
                state.write_u64(v.to_bits());
            }
            Datum::Str(v) => {
                state.write_u8(2);
                state.write(v.as_bytes());
            }
            Datum::Date(v) => {
                state.write_u8(3);
                state.write_i32(*v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_enforce_types() {
        assert_eq!(Datum::Int(7).as_int().unwrap(), 7);
        assert!(Datum::Int(7).as_str().is_err());
        assert_eq!(Datum::Str("ca".into()).as_str().unwrap(), "ca");
    }

    #[test]
    fn same_type_comparison() {
        assert_eq!(
            Datum::Int(1).cmp_same_type(&Datum::Int(2)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Datum::Str("a".into()).cmp_same_type(&Datum::Str("a".into())),
            Some(Ordering::Equal)
        );
        assert_eq!(Datum::Int(1).cmp_same_type(&Datum::Float(1.0)), None);
    }

    #[test]
    fn float_total_order_handles_nan() {
        let nan = Datum::Float(f64::NAN);
        assert_eq!(nan.cmp_same_type(&nan), Some(Ordering::Equal));
    }

    /// Equality agrees with `total_cmp` and with bit hashing.
    #[test]
    fn float_equality_is_bitwise() {
        let (nan, neg, pos) = (
            Datum::Float(f64::NAN),
            Datum::Float(-0.0),
            Datum::Float(0.0),
        );
        assert_eq!(nan, nan.clone());
        assert_ne!(neg, pos);
        assert_eq!(DatumRef::from(&nan), DatumRef::Float(f64::NAN));
        assert_ne!(DatumRef::from(&neg), DatumRef::from(&pos));
        for (a, b) in [(&nan, &nan), (&neg, &pos), (&pos, &pos)] {
            assert_eq!(a == b, a.cmp_same_type(b) == Some(Ordering::Equal));
        }
        assert_ne!(Datum::Int(1), Datum::Date(1));
    }

    #[test]
    fn stored_sizes() {
        assert_eq!(Datum::Int(0).stored_size(), 8);
        assert_eq!(Datum::Date(0).stored_size(), 4);
        assert_eq!(Datum::Str("abcd".into()).stored_size(), 8);
    }

    #[test]
    fn numeric_view() {
        assert_eq!(Datum::Int(5).numeric(), Some(5.0));
        assert_eq!(Datum::Date(3).numeric(), Some(3.0));
        assert_eq!(Datum::Str("x".into()).numeric(), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Datum::Int(3).to_string(), "3");
        assert_eq!(Datum::Str("ca".into()).to_string(), "'ca'");
        assert_eq!(Datum::Date(9).to_string(), "date(9)");
    }
}
